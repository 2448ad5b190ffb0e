"""Layer tracing from outside the package: spans around cmlab's public
functions, and the per-layer metrics reduced from them.

The tracer replaces every binding of a layer function in every loaded
``cmlab`` module (``from .grids import fft2`` makes a second binding in
``solver``, ``green`` and ``continuation``), so a call is traced however
the caller reached it. Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back.

A span records its name, start, end, parent span and a few attributes
taken from the call (array sizes, iteration counts). Spans stay in memory
until the run writes them out. A span's self time is its duration minus
the durations of its direct children, which never overlap because the
package is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

# Named functions per layer (module short name -> function names). Every
# public function of cmlab.grids whose name contains "fft" is traced as well,
# and every public function of bubbles and measures.
NAMED = {
    "grids": ("bilinear_torus", "interpolate"),
    "green": ("singular_part", "green_kernel"),
    "solver": ("solve_divisor", "newton_solve", "metric_area", "uniqueness_probe"),
    "continuation": ("run_continuation", "no_bubble_scan"),
    "io": ("write_field", "write_report", "emit_plot_data", "read_report"),
    "cli": ("main",),
}
WHOLE_MODULES = ("bubbles", "measures")
INTERP = ("grids.bilinear_torus", "grids.interpolate")
IO_REPORT = ("io.write_report", "io.emit_plot_data", "io.read_report")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("grids.fft.calls", "count"), ("grids.fft.elems", "count"),
    ("grids.fft.bytes", "B_computed"), ("grids.fft.s", "s"),
    ("grids.interp.calls", "count"), ("grids.interp.s", "s"),
    ("green.singular_part.calls", "count"), ("green.singular_part.s", "s"),
    ("green.kernel.builds", "count"), ("green.kernel.hits", "count"),
    ("solver.newton_solve.calls", "count"), ("solver.newton_solve.s", "s"),
    ("solver.newton_iters", "count"), ("solver.cg_iters", "count"),
    ("solver.cg_per_newton", "ratio"), ("solver.fft_per_cg", "ratio"),
    ("solver.metric_area.s", "s"),
    ("continuation.stages", "count"), ("continuation.stage_cg_max", "count"),
    ("continuation.stage_s_max", "s"),
    ("continuation.no_bubble_scan.calls", "count"),
    ("continuation.no_bubble_scan.s", "s"),
    ("bubbles.s", "s"), ("measures.s", "s"),
    ("io.write_field.calls", "count"), ("io.write_field.bytes", "B"),
    ("io.write_field.s", "s"), ("io.report.s", "s"),
    ("cli.import_s", "s"), ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
)


def _fft_attrs(args, kwargs, result):
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return {"elems": int(getattr(a, "size", 0)),
            "bytes": int(getattr(a, "nbytes", 0)) + int(getattr(result, "nbytes", 0))}


def _solve_attrs(args, kwargs, result):
    return {"newton_iters": getattr(result, "newton_iters", None),
            "cg_iters": getattr(result, "cg_iters", None)}


def _continuation_attrs(args, kwargs, result):
    return {"stages": len(getattr(result, "stages", ()))}


def _write_field_attrs(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


ATTRS = {
    "solver.solve_divisor": _solve_attrs,
    "solver.newton_solve": _solve_attrs,
    "continuation.run_continuation": _continuation_attrs,
    "io.write_field": _write_field_attrs,
}


class Tracer:
    """In-memory span recorder that wraps cmlab's layer functions."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, attrs]
        self.missing = []    # "module.function" names no longer in the package
        self._stack = []
        self._patches = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(span name, function, attribute extractor) for every layer function."""
        out = []
        for short, names in NAMED.items():
            mod = sys.modules.get(f"cmlab.{short}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn):
                    out.append((f"{short}.{fname}", fn, ATTRS.get(f"{short}.{fname}")))
                else:
                    self.missing.append(f"{short}.{fname}")
        grids = sys.modules.get("cmlab.grids")
        ffts = [(f"grids.{fname}", fn, _fft_attrs)
                for fname, fn in sorted(vars(grids).items() if grids else ())
                if "fft" in fname and not fname.startswith("_")
                and inspect.isfunction(fn) and fn.__module__ == grids.__name__]
        if not ffts:
            self.missing.append("grids.fft")
        out += ffts
        for short in WHOLE_MODULES:
            mod = sys.modules.get(f"cmlab.{short}")
            if mod is None:
                self.missing.append(short)
                continue
            for fname, fn in sorted(vars(mod).items()):
                if not fname.startswith("_") and inspect.isfunction(fn) \
                        and fn.__module__ == mod.__name__:
                    out.append((f"{short}.{fname}", fn, None))
        return out

    def install(self) -> None:
        """Wrap every binding of every layer function in loaded cmlab modules."""
        wrappers = {id(fn): (fn, self._wrap(name, fn, attrs))
                    for name, fn, attrs in self._targets()}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "cmlab" or k.startswith("cmlab."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def dump(self, t0: float) -> list:
        """Spans as JSON-ready rows, times relative to t0."""
        return [[n, s - t0, e - t0, p, a] for n, s, e, p, a in self.spans]


def reduce_spans(spans: list, missing: list) -> dict:
    """Per-layer metric values (name -> number) from the recorded spans.

    A metric whose functions have disappeared from the package is left out.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    self_time = [dur[i] - child_time[i] for i in range(n)]

    def is_fft(i):
        return spans[i][0].startswith("grids.") and "fft" in spans[i][0]

    def has_ancestor(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(p):
                return True
            p = spans[p][3]
        return False

    def named(*names):
        return [i for i in range(n) if spans[i][0] in names]

    def outermost(pred):
        """Spans matching pred that are not nested in another matching span."""
        return [i for i in range(n) if pred(i) and not has_ancestor(i, pred)]

    fft = [i for i in range(n) if is_fft(i)]
    newton = named("solver.newton_solve")
    newton_ok = [i for i in newton if spans[i][4] and spans[i][4]["cg_iters"] is not None]
    newton_iters = sum(spans[i][4]["newton_iters"] for i in newton_ok)
    cg_iters = sum(spans[i][4]["cg_iters"] for i in newton_ok)
    ladders = named("continuation.run_continuation")
    kernels = named("green.green_kernel")
    interp = outermost(lambda i: spans[i][0] in INTERP)
    gone = set(missing)
    m = {}

    if "grids.fft" not in gone:
        m["grids.fft.calls"] = len(fft)
        m["grids.fft.elems"] = sum(spans[i][4]["elems"] for i in fft)
        m["grids.fft.bytes"] = sum(spans[i][4]["bytes"] for i in fft)
        m["grids.fft.s"] = sum(dur[i] for i in fft)
    if not gone.issuperset(("grids.bilinear_torus", "grids.interpolate")):
        m["grids.interp.calls"] = len(interp)
        m["grids.interp.s"] = sum(dur[i] for i in interp)
    if "green.singular_part" not in gone:
        sp = named("green.singular_part")
        m["green.singular_part.calls"] = len(sp)
        m["green.singular_part.s"] = sum(dur[i] for i in sp)
    if "green.green_kernel" not in gone:
        # a kernel call that transforms built the kernel; one that did not hit a cache
        built = [i for i in kernels
                 if any(is_fft(j) for j in _descendants(children, i))]
        m["green.kernel.builds"] = len(built)
        m["green.kernel.hits"] = len(kernels) - len(built)
    if "solver.newton_solve" not in gone:
        in_newton = [i for i in fft
                     if has_ancestor(i, lambda p: spans[p][0] == "solver.newton_solve")]
        m["solver.newton_solve.calls"] = len(newton)
        m["solver.newton_solve.s"] = sum(self_time[i] for i in newton)
        m["solver.newton_iters"] = newton_iters
        m["solver.cg_iters"] = cg_iters
        m["solver.cg_per_newton"] = cg_iters / newton_iters if newton_iters else 0.0
        m["solver.fft_per_cg"] = len(in_newton) / cg_iters if cg_iters else 0.0
    if "solver.metric_area" not in gone:
        m["solver.metric_area.s"] = sum(dur[i] for i in named("solver.metric_area"))
    if "continuation.run_continuation" not in gone:
        stage_cg, stage_s, stages = [], [], 0
        for r in ladders:
            stages += (spans[r][4] or {}).get("stages", 0)
            kids = children[r]
            solves = [c for c in kids if spans[c][0] == "solver.newton_solve"]
            stage_cg += [spans[c][4]["cg_iters"] for c in solves
                         if spans[c][4] and spans[c][4]["cg_iters"] is not None]
            # each stage ends with its no-bubble scan (or, failing that, its solve)
            ends = [spans[c][2] for c in kids if spans[c][0] == "continuation.no_bubble_scan"]
            if len(ends) != len(solves):
                ends = [spans[c][2] for c in solves]
            marks = [spans[r][1], *ends]
            stage_s += [b - a for a, b in zip(marks, marks[1:])]
        m["continuation.stages"] = stages
        m["continuation.stage_cg_max"] = max(stage_cg, default=0)
        m["continuation.stage_s_max"] = max(stage_s, default=0.0)
    if "continuation.no_bubble_scan" not in gone:
        scans = named("continuation.no_bubble_scan")
        m["continuation.no_bubble_scan.calls"] = len(scans)
        m["continuation.no_bubble_scan.s"] = sum(dur[i] for i in scans)
    for short in WHOLE_MODULES:
        if short not in gone:
            top = outermost(lambda i, s=short: spans[i][0].startswith(s + "."))
            m[f"{short}.s"] = sum(dur[i] for i in top)
    if "io.write_field" not in gone:
        writes = named("io.write_field")
        m["io.write_field.calls"] = len(writes)
        m["io.write_field.bytes"] = sum(spans[i][4]["bytes"] for i in writes)
        m["io.write_field.s"] = sum(dur[i] for i in writes)
    if not gone.issuperset(IO_REPORT):
        m["io.report.s"] = sum(dur[i] for i in named(*IO_REPORT))
    if "cli.main" not in gone:
        m["cli.main.s"] = sum(dur[i] for i in named("cli.main"))
    return m


def _descendants(children: list, i: int):
    todo = list(children[i])
    while todo:
        j = todo.pop()
        yield j
        todo.extend(children[j])
