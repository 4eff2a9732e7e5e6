"""Order-preserving map over optimizer restarts.

It runs serially.  `maximize_gap` calls it once, to create its ascents;
the ascents then run in lockstep under `_lockstep._drive`, which does the
work.  The function stays only because the benchmark's layer tracer
(perfbench/layers.py) wraps it by name; it goes when the benchmark reads
counters from inside the library instead.
"""

from __future__ import annotations


def parallel_map(fn, items):
    return [fn(x) for x in items]
