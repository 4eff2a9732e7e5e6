"""The benchmark's layer tracer still finds every qgraph name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
from layers import Tracer
tracer = Tracer()
tracer.install()
from qgraph import MaximizeOptions, maximize_gap, metric, spectral_gap
from qgraph.families import star, stower
g, lengths = star(3)
maximize_gap(g, lengths, MaximizeOptions(seeds=1))
# maximize_gap drives its searches itself and never calls spectral_gap,
# so the wrapper is proven found by a direct call
spectral_gap(metric(g, lengths))
calls = tracer.totals.calls
print(calls["optimize.maximize"], calls["parallel.map"], calls["spectral.gap"] > 0)
# the ascent builds its faces from the incidence and never calls
# contract_with_maps, so the wrapper is proven found by a direct call
from qgraph.graph import contract_with_maps
g, _ = stower(1, 1)
contract_with_maps(g, [1.0, 0.0])
print(calls["graph.contract"] == 1)
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
