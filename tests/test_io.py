"""CMLGRID1 grids, canonical JSON reports, CSV plot series."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cmlab.errors import CmlabError
from cmlab.grids import Field
from cmlab.io import (
    MAGIC,
    canonical_json,
    emit_plot_data,
    read_field,
    read_report,
    write_csv,
    write_field,
    write_report,
)


def _random_field(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return Field(rng.normal(size=(n, n)))


def test_field_round_trip(tmp_path):
    f = _random_field()
    path = tmp_path / "f.cmlgrid"
    write_field(path, f)
    assert path.read_bytes()[12 + 8 * 16 * 16:] == b"torus\n"
    assert np.array_equal(read_field(path).values, f.values)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_a_file_built_from_the_layout_reads_back_and_rewrites_the_same_bytes(tmp_path, n):
    # the bytes come from the documented layout, not from write_field:
    # sample (i, j) is the (i n + j)-th little-endian double, and the tail
    # is the torus line
    values = np.random.default_rng(n).normal(size=n * n)
    raw = MAGIC + struct.pack("<I", n) + struct.pack(f"<{n * n}d", *values) + b"torus\n"
    path = tmp_path / "hand.cmlgrid"
    path.write_bytes(raw)
    f = read_field(path)
    assert f.n == n
    for i, j in ((0, 0), (0, 1), (1, 0), (n - 1, n - 2)):
        assert f.values[i, j] == values[i * n + j]
    out = tmp_path / "again.cmlgrid"
    write_field(out, f)
    assert out.read_bytes() == raw


@pytest.mark.parametrize("tail", [b"torus\r\n", b"Torus\n", b"torus\n\n", b"torus\x00\n"])
def test_a_tail_one_byte_off_the_torus_line_is_refused(tmp_path, tail):
    # the tail is compared as bytes, so no case, line-ending or padding
    # variant of the torus line reads; the message shows the tail as read
    raw = _file_bytes(tmp_path / "f.cmlgrid", _random_field(n=8))
    path = tmp_path / "near.cmlgrid"
    path.write_bytes(raw[:12 + 8 * 64] + tail)
    with pytest.raises(CmlabError, match=re.escape(
            f"near.cmlgrid: bad CMLGRID1 file: unrecognized chart descriptor: "
            f"{tail.decode()!r}")):
        read_field(path)


def test_field_bad_magic(tmp_path):
    path = tmp_path / "bad.cmlgrid"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CmlabError):
        read_field(path)


def test_field_truncated(tmp_path):
    f = _random_field()
    path = tmp_path / "t.cmlgrid"
    write_field(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CmlabError):
        read_field(path)


# Fixed seeds, a small budget and no example database; each example rewrites
# the same file, so sharing tmp_path across examples is safe.
_PROPS = settings(derandomize=True, database=None, max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])

@st.composite
def _fields(draw, sizes=(8, 16, 32)):
    n = draw(st.sampled_from(sizes))
    values = draw(arrays(np.float64, (n, n),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Field(values)


def _file_bytes(path, field):
    write_field(path, field)
    return path.read_bytes()


def _rejects(path, raw):
    path.write_bytes(raw)
    with pytest.raises(CmlabError):
        read_field(path)


@_PROPS
@given(f=_fields())
def test_field_round_trip_property(tmp_path, f):
    path = tmp_path / "f.cmlgrid"
    write_field(path, f)
    assert read_field(path).values.tobytes() == f.values.tobytes()


# n = 8 only: every cut is a file write, and larger n add only payload cuts
@settings(_PROPS, max_examples=5)
@given(f=_fields(sizes=(8,)))
def test_field_every_proper_prefix_is_rejected(tmp_path, f):
    path = tmp_path / "f.cmlgrid"
    raw = _file_bytes(path, f)
    for cut in range(len(raw)):
        _rejects(path, raw[:cut])


@_PROPS
@given(f=_fields(), n=st.integers(0, 2 ** 32 - 1))
def test_field_corrupt_resolution_is_rejected(tmp_path, f, n):
    assume(n != f.n)
    path = tmp_path / "f.cmlgrid"
    raw = _file_bytes(path, f)
    _rejects(path, raw[:8] + struct.pack("<I", n) + raw[12:])


# bytes that the descriptor line "torus\n" does not contain
_FOREIGN = [b for b in range(256) if chr(b) not in "torus\n"]


@_PROPS
@given(f=_fields(), data=st.data())
def test_field_corrupt_descriptor_is_rejected(tmp_path, f, data):
    path = tmp_path / "f.cmlgrid"
    raw = _file_bytes(path, f)
    body = 12 + 8 * f.n * f.n
    at = data.draw(st.integers(body, len(raw) - 1))
    byte = data.draw(st.sampled_from(_FOREIGN))
    _rejects(path, raw[:at] + bytes([byte]) + raw[at + 1:])
    kind = data.draw(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=9))
    assume(kind != "torus")
    _rejects(path, raw[:body] + kind.encode() + b"\n")


@_PROPS
@given(f=_fields(), data=st.data())
def test_field_non_finite_samples_are_rejected(tmp_path, f, data):
    path = tmp_path / "f.cmlgrid"
    raw = bytearray(_file_bytes(path, f))
    at = 12 + 8 * data.draw(st.integers(0, f.n * f.n - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    raw[at:at + 8] = struct.pack("<d", bad)
    _rejects(path, bytes(raw))


def test_field_bad_descriptor_messages(tmp_path):
    # the path is named whatever the fault; any tail but ``torus`` and its
    # newline is one unrecognized descriptor, undecodable bytes included
    f = _random_field(n=8)
    path = tmp_path / "d.cmlgrid"
    raw = _file_bytes(path, f)
    body = 12 + 8 * 64
    for tail in (b"\xff\xfe\n", b"sphere 1\n", b"disk -1\n", b"disk 1.50\n", b"torus \n"):
        path.write_bytes(raw[:body] + tail)
        with pytest.raises(CmlabError, match="d.cmlgrid: bad CMLGRID1 file: "
                           "unrecognized chart descriptor"):
            read_field(path)
    # files of the planar disk and log-polar charts, in the canonical
    # spelling earlier versions wrote, are refused by their descriptor
    for tail in (b"disk 1.5\n", b"logpolar 0.02 1\n"):
        path.write_bytes(raw[:body] + tail)
        with pytest.raises(CmlabError, match=re.escape(
                f"bad CMLGRID1 file: unrecognized chart descriptor: {tail.decode()!r}")):
            read_field(path)
    path.write_bytes(MAGIC + b"\x08")
    with pytest.raises(CmlabError, match="d.cmlgrid: truncated"):
        read_field(path)
    path.write_bytes(raw[:8].lower() + raw[8:])
    with pytest.raises(CmlabError, match="d.cmlgrid: not a CMLGRID1 file"):
        read_field(path)
    path.write_bytes(MAGIC + struct.pack("<I", 12) + bytes(8 * 144) + b"torus\n")
    with pytest.raises(CmlabError, match="grid resolution must be a power of two"):
        read_field(path)


def test_canonical_float_format():
    # whole floats keep a trailing .0; the shortest round-trip repr is exact
    assert canonical_json(1.0) == "1.0\n"
    assert canonical_json(-3.0) == "-3.0\n"
    for x in (0.1 + 0.2, 1e300, -7.25e-12, 2.0 ** 53 + 2.0):
        assert float(canonical_json(x)) == x
    with pytest.raises(CmlabError):
        canonical_json(float("nan"))


def test_canonical_floats_are_the_shortest_repr():
    assert canonical_json(0.1) == "0.1\n"
    assert canonical_json(1e-12) == "1e-12\n"
    assert canonical_json(1e16) == "1e+16\n"
    # a float32 is written as the float64 it widens to
    assert canonical_json(np.float32(0.1)) == "0.10000000149011612\n"


def test_canonical_json_rejects_non_finite_arrays_and_unknown_types():
    with pytest.raises(CmlabError):
        canonical_json({"arr": np.array([1.0, np.nan])})
    with pytest.raises(CmlabError, match="cannot serialize object in a report"):
        canonical_json({"x": object()})


def test_canonical_json_sorted_and_round_trip(tmp_path):
    rep = {
        "zeta": [1, 2.5, None, True, False],
        "alpha": {"b": 2, "a": [0.1, -0.25]},
        "text": "café",
        "arr": np.array([1.5, 2.5]),
        "count": np.int64(7),
        "flag": np.bool_(True),
    }
    s = canonical_json(rep)
    assert s.index('"alpha"') < s.index('"zeta"')
    path = tmp_path / "report.json"
    write_report(path, rep)
    back = read_report(path)
    assert back["alpha"]["a"] == [0.1, -0.25]
    # re-emission of the parsed report is byte-identical
    assert canonical_json(back) == s
    write_report(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


_reports = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@settings(_PROPS, max_examples=200)
@given(x=_reports)
def test_canonical_json_reemit_property(x):
    s = canonical_json(x)
    assert canonical_json(json.loads(s)) == s


def test_write_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_csv(path, ["k", "area"], [(1, 2.0), (2, 6.5)])
    assert path.read_text() == "k,area\n1,2.0\n2,6.5\n"


def test_write_csv_spells_floats_as_reports_do(tmp_path):
    path = tmp_path / "series.csv"
    write_csv(path, ["x"], [(0.1,), (np.float64(1e-12),)])
    assert path.read_text() == "x\n0.1\n1e-12\n"


def test_emit_plot_data_series(tmp_path):
    report = {
        "stages": [
            {"k": 1, "area": 3.0, "gbDefect": 1e-12},
            {"k": 2, "area": 4.5, "gbDefect": 2e-12},
        ],
        "efold_annuli": {"radii": [0.5, 0.25], "areas": [1.0, 0.5]},
        "window_areas": [{"k": 1, "area": 2.0}],
    }
    written = emit_plot_data(report, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["annuli.csv", "stages.csv", "window_areas.csv"]
    assert (tmp_path / "stages.csv").read_text().splitlines()[0] == "stage,area,gbDefect"
    assert len((tmp_path / "annuli.csv").read_text().splitlines()) == 3


def test_emit_plot_data_empty_series(tmp_path):
    # an empty series still yields a header-only file
    written = emit_plot_data({"stages": []}, tmp_path)
    assert [p.name for p in written] == ["stages.csv"]
    assert (tmp_path / "stages.csv").read_text() == "stage,area,gbDefect\n"


def test_report_is_valid_json(tmp_path):
    rep = {"a": [1.0, 2.0], "b": {"c": "x"}}
    write_report(tmp_path / "r.json", rep)
    parsed = json.loads((tmp_path / "r.json").read_text())
    assert parsed == rep
