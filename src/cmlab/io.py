"""File formats: INI inputs, CMLGRID1 grids, canonical JSON reports, CSV series.

CMLGRID1 layout: 8-byte magic ``CMLGRID1``, u32 little-endian resolution n,
n*n float64 little-endian row-major samples, then one UTF-8 chart
descriptor line.

JSON reports are emitted canonically (sorted keys, floats with 17
significant digits) so that read -> re-emit round trips are byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from configparser import ConfigParser, Error as IniError
from pathlib import Path

import numpy as np

from .errors import CmlabError, ConfigError
from .grids import Field, parse_descriptor

MAGIC = b"CMLGRID1"


def read_ini(text: str, source, keys: dict) -> dict:
    """Sections of the INI `text` as {section: {key: value}}, keys lower-cased.

    `keys` maps each allowed section to its allowed keys. Any other section
    or key, and any text configparser cannot parse, raises ConfigError
    naming `source`.
    """
    parser = ConfigParser()
    try:
        parser.read_string(text, source=str(source))
        sections = {sec: dict(parser[sec]) for sec in parser.sections()}
    except IniError as exc:
        raise ConfigError(f"cannot parse {source!r}: {exc}") from exc
    for sec, items in sections.items():
        if sec not in keys:
            raise ConfigError(f"section [{sec}] of {source!r} is not recognized")
        unknown = set(items) - keys[sec]
        if unknown:
            raise ConfigError(
                f"unknown keys {sorted(unknown)} in section [{sec}] of {source!r}")
    return sections


def write_field(path, field: Field) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", field.n))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        fh.write((field.chart.descriptor() + "\n").encode("utf-8"))


def read_field(path) -> Field:
    """Read a CMLGRID1 file; every malformed file raises ``CmlabError``.

    The descriptor line must be exactly what ``write_field`` writes for the
    chart it names, newline included, so a cut or shifted tail is rejected
    rather than read as a nearby chart.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise CmlabError(f"{path}: not a CMLGRID1 file")
    if len(raw) < 12:
        raise CmlabError(f"{path}: truncated CMLGRID1 payload")
    (n,) = struct.unpack("<I", raw[8:12])
    body = 12 + 8 * n * n
    if len(raw) < body + 1 or raw[-1:] != b"\n":
        raise CmlabError(f"{path}: truncated CMLGRID1 payload")
    try:
        chart = parse_descriptor(raw[body:].decode("utf-8"))
        if raw[body:] != (chart.descriptor() + "\n").encode("utf-8"):
            raise ValueError(f"non-canonical chart descriptor: {raw[body:]!r}")
        values = np.frombuffer(raw[12:body], dtype="<f8").reshape(n, n).copy()
        return Field(values, chart)
    except ValueError as exc:  # UnicodeDecodeError included
        raise CmlabError(f"{path}: bad CMLGRID1 file: {exc}") from exc


# -- canonical JSON ----------------------------------------------------------

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise CmlabError("cannot serialize non-finite float in a report")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def _emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise CmlabError("report keys must be strings")
            if idx:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for idx, item in enumerate(seq):
            if idx:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise CmlabError(f"cannot serialize {type(obj).__name__} in a report")


def canonical_json(obj) -> str:
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def write_report(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def read_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- CSV plot series ---------------------------------------------------------

def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return _format_float(float(x))
    return str(x)


def write_csv(path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_plot_data(report: dict, out_dir) -> list:
    """Write plottable CSV series for every series-like key in a report.

    Returns the list of paths written. Known series, one per command that
    emits one: continuation stages (stage,area,gbDefect), annulus areas
    (index,r,area), per-index family areas (k,area).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "stages" in report:
        rows = [(s["k"], s["area"], s["gbDefect"]) for s in report["stages"]]
        path = out_dir / "stages.csv"
        write_csv(path, ["stage", "area", "gbDefect"], rows)
        written.append(path)
    if "efold_annuli" in report:
        rows = [(i, r, a) for i, (r, a) in
                enumerate(zip(report["efold_annuli"]["radii"],
                              report["efold_annuli"]["areas"]))]
        path = out_dir / "annuli.csv"
        write_csv(path, ["index", "r", "area"], rows)
        written.append(path)
    if "window_areas" in report:
        rows = [(row["k"], row["area"]) for row in report["window_areas"]]
        path = out_dir / "window_areas.csv"
        write_csv(path, ["k", "area"], rows)
        written.append(path)
    return written
