"""Order-preserving map over optimizer restarts and theta grids.

It runs serially: the work is Python code around small numpy calls, and a
thread pool measured slower on every workload.  It stays a function of its
own because the benchmark's layer tracer (perfbench/layers.py) wraps it by
name.
"""

from __future__ import annotations


def parallel_map(fn, items):
    return [fn(x) for x in items]
