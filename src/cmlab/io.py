"""File formats: INI inputs, CMLGRID1 grids, canonical JSON reports, CSV series.

CMLGRID1 layout: 8-byte magic ``CMLGRID1``, u32 little-endian resolution n,
n*n float64 little-endian row-major samples, then the chart descriptor
line ``torus``, the one chart a Field lives on.

JSON reports are emitted canonically by the json module: sorted keys, no
spaces, and floats in Python's shortest round-trip repr, which is exact, so
read -> re-emit round trips are byte-identical. CSV cells spell floats the
same way.
"""

from __future__ import annotations

import json
import struct
from configparser import ConfigParser, Error as IniError
from pathlib import Path

import numpy as np

from .errors import CmlabError, ConfigError
from .grids import Field

MAGIC = b"CMLGRID1"
_DESCRIPTOR = b"torus\n"  # the tail of every CMLGRID1 file


def read_ini(text: str, source, keys: dict) -> dict:
    """Sections of the INI `text` as {section: {key: value}}, keys lower-cased.

    `keys` maps each allowed section to its allowed keys. Any other section
    or key, and any text configparser cannot parse, raises ConfigError
    naming `source`.
    """
    parser = ConfigParser(default_section="")  # [DEFAULT] is checked like any section
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


def ini_value(section: dict, key: str, conv, default, source=None):
    """`conv` of `section[key]`, or `default` when the key is absent. A value
    `conv` rejects raises ConfigError naming the key, and `source` if given."""
    if key not in section:
        return default
    try:
        return conv(section[key])
    except (ValueError, ConfigError) as exc:
        where = f" in {source!r}" if source is not None else ""
        raise ConfigError(f"bad value for {key!r}{where}: {exc}") from exc


def write_field(path, field: Field) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", field.n))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        fh.write(_DESCRIPTOR)


def read_field(path) -> Field:
    """Read a CMLGRID1 file; every malformed file raises ``CmlabError``.

    The tail after the samples must be exactly what ``write_field`` writes,
    ``torus`` and its newline, so a cut or shifted tail is rejected, and so
    is any other chart's descriptor.
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
    tail = raw[body:]
    if tail != _DESCRIPTOR:
        raise CmlabError(f"{path}: bad CMLGRID1 file: unrecognized chart descriptor: "
                         f"{tail.decode('utf-8', 'replace')!r}")
    try:
        return Field(np.frombuffer(raw[12:body], dtype="<f8").reshape(n, n).copy())
    except ValueError as exc:
        raise CmlabError(f"{path}: bad CMLGRID1 file: {exc}") from exc


# -- canonical JSON ----------------------------------------------------------

def _plain(obj):
    """The JSON-native value of a numpy array or scalar; nothing else."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise CmlabError(f"cannot serialize {type(obj).__name__} in a report")


def canonical_json(obj) -> str:
    """`obj` as one line of JSON: sorted keys, no spaces, text as-is, and
    floats in Python's shortest round-trip repr, plus a newline. nan and
    ±inf, in numpy arrays too, raise CmlabError."""
    try:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False,
                          separators=(",", ":"), default=_plain) + "\n"
    except ValueError as exc:
        raise CmlabError(f"cannot serialize report: {exc}") from exc


def write_report(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def read_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- CSV plot series ---------------------------------------------------------

def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return canonical_json(float(x))[:-1]
    return str(x)


def write_csv(path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# report key -> (CSV file, header, rows from the key's value)
_SERIES = {
    "stages": ("stages.csv", ["stage", "area", "gbDefect"],
               lambda v: [(s["k"], s["area"], s["gbDefect"]) for s in v]),
    "efold_annuli": ("annuli.csv", ["index", "r", "area"], lambda v: [
        (i, r, a) for i, (r, a) in enumerate(zip(v["radii"], v["areas"]))]),
    "window_areas": ("window_areas.csv", ["k", "area"],
                     lambda v: [(row["k"], row["area"]) for row in v]),
}


def emit_plot_data(report: dict, out_dir) -> list:
    """Write plottable CSV series for every series-like key in a report.

    Returns the list of paths written. Known series, one per command that
    emits one: continuation stages (stage,area,gbDefect), annulus areas
    (index,r,area), per-index family areas (k,area). A key whose value is
    not such a series raises CmlabError naming the key.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for key, (name, header, rows) in _SERIES.items():
        if key not in report:
            continue
        try:
            table = rows(report[key])
        except (TypeError, KeyError, IndexError) as exc:
            raise CmlabError(f"report key {key!r} is not a ({','.join(header)}) "
                             f"series: {type(exc).__name__}: {exc}") from None
        write_csv(out_dir / name, header, table)
        written.append(out_dir / name)
    return written
