"""Line counts of the package: each module's lines, code lines and public
names, and the totals, as a Markdown table, largest module first.

Lines are those `wc -l` counts. A code line is a line that holds a token
outside comments and docstrings, so every line of a multi-line expression
or string counts, and blank lines, comment lines and docstring lines do
not. A docstring is the string statement that opens a module, class or
function.

A public name is a module-level `def`, `class` or simple `NAME = ...`
assignment whose name has no leading underscore, or a `def` with no
leading underscore directly in the body of such a class. `__init__.py`
only re-exports names, so its public names are not counted.

A last line counts the CLI's settable values: over `cli._COMMANDS`, each
command's config-section keys plus its `[run]` keys. A flag is the same
value as its `[run]` key, so it counts once.

pytest does not collect this file. Run it from anywhere:

    python tests/loc.py
"""

from __future__ import annotations

import ast
import io
import sys
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


def public_names(text: str) -> int:
    count = 0
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [m.name for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        count += sum(not name.startswith("_") for name in names)
    return count


def settable_values() -> int:
    sys.path.insert(0, str(SRC.parent))
    from cmlab.cli import _COMMANDS
    return sum(len(own) + len(run) for _, _, own, run in _COMMANDS.values())


def main() -> None:
    rows = []
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        public = 0 if path.name == "__init__.py" else public_names(text)
        rows.append((path.stem, len(text.splitlines()), code_lines(text), public))
    rows.sort(key=lambda row: (-row[1], row[0]))
    print("| file | lines | code | public |\n| --- | --- | --- | --- |")
    for name, lines, code, public in rows:
        print(f"| `{name}` | {lines} | {code} | {public} |")
    print("| total | " + " | ".join(str(sum(r[i] for r in rows)) for i in (1, 2, 3)) + " |")
    print(f"\nsettable values: {settable_values()}")


if __name__ == "__main__":
    main()
