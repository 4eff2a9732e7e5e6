"""The benchmark's layer tracer still finds every qgraph name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import numpy as np
from layers import Tracer
tracer = Tracer()
tracer.install()
from qgraph import MaximizeOptions, maximize_gap
from qgraph.families import random_lengths, star, stower
g, lengths = star(3)
maximize_gap(g, lengths, MaximizeOptions(seeds=1))
calls = tracer.totals.calls
print(calls["optimize.maximize"], calls["parallel.map"], calls["spectral.gap"] > 0)
# this ascent contracts edges, so graph.contract_with_maps must be wrapped
before = calls.get("graph.contract", 0)
g, _ = stower(1, 1)
maximize_gap(g, random_lengths(np.random.default_rng(0), 2, l_min=0.05), MaximizeOptions(seeds=0))
print(calls["graph.contract"] > before)
"""


def test_layer_tracer_installs_and_records():
    # perfbench/layers.py wraps functions and methods by name; renaming or
    # deleting one must fail here, not only in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "True", "True"]
