"""Layer tracing from outside the program: timed wrappers around public functions.

Each wrapped call is a span with a name, a start, an end and the span that
caused it.  A span's self time is its duration minus the time its child
spans cover.  Context does not follow work into ThreadPoolExecutor threads,
so the wrapper around `parallel_map` wraps each task in a span whose parent
is set explicitly to the map span; tasks of one map may overlap, so the map
span's cover is the union of their intervals.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a run makes (the refinement layer alone makes hundreds
of thousands).
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time
from collections import defaultdict

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _Span:
    __slots__ = ("name", "parent", "t0", "child_cover", "child_intervals", "in_optimize")

    def __init__(self, name: str, parent: "_Span | None", overlapping_children: bool = False):
        self.name = name
        self.parent = parent
        self.t0 = time.perf_counter()
        self.child_cover = 0.0
        self.child_intervals: list[tuple[float, float]] | None = [] if overlapping_children else None
        self.in_optimize = name == "optimize.maximize" or (parent is not None and parent.in_optimize)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Totals:
    """Per-name calls, duration, self time and extra counts of closed spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.points: dict[str, int] = defaultdict(int)
        self.optimize_solves = 0
        self.optimize_self_seconds = 0.0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "ms": {k: 1e3 * v for k, v in self.seconds.items()},
            "self_ms": {k: 1e3 * v for k, v in self.self_seconds.items()},
            "points": dict(self.points),
            "optimize_solves": self.optimize_solves,
            "optimize_self_ms": 1e3 * self.optimize_self_seconds,
        }


class Tracer:
    """Installs the wrappers on a loaded qgraph and accumulates their spans."""

    def __init__(self) -> None:
        self.totals = Totals()
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------

    def _close(self, span: _Span, points: int = 0) -> None:
        t1 = time.perf_counter()
        duration = t1 - span.t0
        if span.child_intervals is not None:
            cover = _union_length(span.child_intervals)
        else:
            cover = span.child_cover
        own = duration - cover
        parent = span.parent
        with self._lock:
            tot = self.totals
            tot.calls[span.name] += 1
            tot.seconds[span.name] += duration
            tot.self_seconds[span.name] += own
            tot.points[span.name] += points
            if span.in_optimize:
                if span.name == "spectral.gap":
                    tot.optimize_solves += 1
                elif span.name in ("optimize.maximize", "parallel.task"):
                    tot.optimize_self_seconds += own
            if parent is not None:
                if parent.child_intervals is not None:
                    parent.child_intervals.append((span.t0, t1))
                else:
                    parent.child_cover += duration

    def span(self, name: str, fn, points_of=None, parent: _Span | None = None):
        """Run fn() inside a span; the parent defaults to the caller's span."""
        span = _Span(name, parent if parent is not None else _current.get())
        token = _current.set(span)
        try:
            return fn()
        finally:
            _current.reset(token)
            self._close(span, points_of() if points_of else 0)

    def _wrap(self, name: str, fn, points_arg: int | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = (lambda: len(args[points_arg])) if points_arg is not None else None
            return self.span(name, lambda: fn(*args, **kwargs), points)
        return wrapper

    def _wrap_parallel_map(self, fn):
        @functools.wraps(fn)
        def wrapper(task_fn, items):
            map_span = _Span("parallel.map", _current.get(), overlapping_children=True)
            token = _current.set(map_span)

            def task(x):
                # runs in a pool thread, where the caller's context is absent
                return self.span("parallel.task", lambda: task_fn(x), parent=map_span)

            try:
                return fn(task, items)
            finally:
                _current.reset(token)
                self._close(map_span)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap each public function wherever a qgraph module bound its name."""
        from qgraph import _parallel, dispersion, graph, optimize, spectral

        bs = spectral.BondScattering
        for attr, name, points_arg in (
            ("__init__", "spectral.build", None),
            ("log_abs_det_batch", "spectral.sweep", 1),
            ("log_abs_det", "spectral.refine", None),
            ("singular_values", "spectral.mult", None),
        ):
            setattr(bs, attr, self._wrap(name, getattr(bs, attr), points_arg))

        functions = (
            (spectral.spectral_gap, self._wrap("spectral.gap", spectral.spectral_gap)),
            (spectral.eigenvalues, self._wrap("spectral.eigenvalues", spectral.eigenvalues)),
            (spectral.eigenfunction, self._wrap("spectral.eigenfunction", spectral.eigenfunction)),
            (spectral.negative_spectrum,
             self._wrap("dispersion.negative", spectral.negative_spectrum)),
            (optimize.maximize_gap, self._wrap("optimize.maximize", optimize.maximize_gap)),
            (graph.contract_with_maps, self._wrap("graph.contract", graph.contract_with_maps)),
            (_parallel.parallel_map, self._wrap_parallel_map(_parallel.parallel_map)),
        )
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "qgraph" or key.startswith("qgraph."))]
        for original, wrapper in functions:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def layer_metrics(tot: dict, maximize_ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a run, from a Totals snapshot."""
    calls, ms, self_ms, points = tot["calls"], tot["ms"], tot["self_ms"], tot["points"]

    def c(name):
        return float(calls.get(name, 0))

    solves = c("spectral.gap") + c("spectral.eigenvalues")
    return {
        "spectral.sweep.calls": (c("spectral.sweep"), "count"),
        "spectral.sweep.points": (float(points.get("spectral.sweep", 0)), "count"),
        "spectral.sweep.ms": (ms.get("spectral.sweep", 0.0), "ms"),
        "spectral.refine.calls": (c("spectral.refine"), "count"),
        "spectral.refine.ms": (ms.get("spectral.refine", 0.0), "ms"),
        "spectral.refine.calls_per_solve": (c("spectral.refine") / solves if solves else 0.0,
                                            "calls/solve"),
        "spectral.mult.calls": (c("spectral.mult"), "count"),
        "spectral.mult.ms": (ms.get("spectral.mult", 0.0), "ms"),
        "spectral.build.calls": (c("spectral.build"), "count"),
        "spectral.build.ms": (ms.get("spectral.build", 0.0), "ms"),
        "spectral.gap.calls": (c("spectral.gap"), "count"),
        "spectral.gap.self_ms": (self_ms.get("spectral.gap", 0.0), "ms"),
        "spectral.eigenvalues.calls": (c("spectral.eigenvalues"), "count"),
        "spectral.eigenvalues.self_ms": (self_ms.get("spectral.eigenvalues", 0.0), "ms"),
        "spectral.eigenfunction.calls": (c("spectral.eigenfunction"), "count"),
        "spectral.eigenfunction.ms": (ms.get("spectral.eigenfunction", 0.0), "ms"),
        "dispersion.negative.calls": (c("dispersion.negative"), "count"),
        "dispersion.negative.ms": (ms.get("dispersion.negative", 0.0), "ms"),
        "optimize.solves_per_op": (tot["optimize_solves"] / maximize_ops if maximize_ops else 0.0,
                                   "solves/op"),
        "optimize.self_ms": (tot["optimize_self_ms"], "ms"),
        "graph.contract.calls": (c("graph.contract"), "count"),
        "graph.contract.ms": (ms.get("graph.contract", 0.0), "ms"),
        "parallel.map.calls": (c("parallel.map"), "count"),
        "parallel.map.ms": (ms.get("parallel.map", 0.0), "ms"),
        "parallel.task_ms": (ms.get("parallel.task", 0.0), "ms"),
    }
