"""Line counts of the package: each module's lines and code lines, and the
totals, as a Markdown table, largest module first.

Lines are those `wc -l` counts. A code line is a line that holds a token
outside comments and docstrings, so every line of a multi-line expression
or string counts, and blank lines, comment lines and docstring lines do
not. A docstring is the string statement that opens a module, class or
function.

pytest does not collect this file. Run it from anywhere:

    python tests/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmlab"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(text: str) -> int:
    docstrings = _docstring_starts(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    rows = []
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        rows.append((path.stem, len(text.splitlines()), code_lines(text)))
    rows.sort(key=lambda row: (-row[1], row[0]))
    print("| file | lines | code |\n| --- | --- | --- |")
    for name, lines, code in rows:
        print(f"| `{name}` | {lines} | {code} |")
    print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")


if __name__ == "__main__":
    main()
