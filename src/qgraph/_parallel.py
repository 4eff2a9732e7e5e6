"""Order-preserving map over optimizer restarts.

It runs serially: the work is Python code around small numpy calls, and a
thread pool measured slower on every workload.  It stays a function of its
own because the benchmark's layer tracer (perfbench/layers.py) wraps it by
name.  Theta grids no longer use it: their rows are searched in lockstep
(`spectral._run_lockstep`).
"""

from __future__ import annotations


def parallel_map(fn, items):
    return [fn(x) for x in items]
