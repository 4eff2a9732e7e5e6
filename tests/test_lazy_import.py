"""`import qgraph` loads the core; the optimizer, the delta sweeps and
perturbation load on first use, in the package and in each CLI command.
Each check runs in a fresh interpreter, where nothing is loaded yet."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgraph
from qgraph import save_graph
from qgraph.families import star

SRC = str(Path(qgraph.__file__).resolve().parents[1])
CORE = ["qgraph", "qgraph._lockstep", "qgraph.errors", "qgraph.graph", "qgraph.spectral"]
LOADED = "sorted(name for name in sys.modules if name.split('.')[0] == 'qgraph')"


def _run(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_core():
    out = _run(f"import sys, json, qgraph; print(json.dumps({LOADED}))")
    assert json.loads(out) == CORE


# every public name, sorted: a name is added to or dropped from the API only
# by changing this list
PUBLIC = [
    "BondScattering", "CatalogEntry", "CriticalityReport", "DIRICHLET", "DegenerateGraphError",
    "DeltaTheta", "DiscreteGraph", "DispersionCurve", "EdgeTrig", "Eigenpair", "GluingReport",
    "GraphStructureError", "InvalidGroupError", "InvalidInputError", "LengthVector",
    "MaximizeOptions", "MetricGraph", "MultiplicityError", "NEUMANN", "NoEigenspaceError",
    "NotApplicableError", "OptimizationResult", "PathDecomposition", "PathPart",
    "PreconditionError", "QGraphError", "ResourceBudgetError", "SgpReport", "Spectrum",
    "UnsupportedTopologyError", "betti", "catalog_entry", "contract_zero_edges", "dispersion",
    "dispersion_curve", "edge_energies", "eigenfunction", "eigenvalues", "equilateral", "errors",
    "families", "find_bridges", "full_catalog", "gap_eigenpair", "gap_gradient", "glue",
    "gluing_bound_check", "graph", "graph_from_dict", "graph_to_dict", "identify_vertices",
    "infimize_gap", "is_critical", "levels", "load_graph", "maximize_gap", "metric",
    "negative_spectrum", "nodal_count", "optimize", "path_decomposition", "perturbation",
    "save_graph", "spectral", "spectral_gap", "spectral_gap_parameter", "symmetrize",
    "tree_diameter", "upper_bound",
]


def test_the_public_names_are_pinned():
    assert qgraph.__all__ == PUBLIC


PUBLIC_NAMES = """
import sys, types
import qgraph

# dir lists the names not loaded yet
assert set(qgraph.__all__) <= set(dir(qgraph))
# attribute access loads a submodule, as importing it did before
assert qgraph.families is sys.modules["qgraph.families"]
assert qgraph.optimize.maximize_gap is qgraph.maximize_gap
for name in qgraph.__all__:
    value = getattr(qgraph, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules["qgraph." + name], name
    else:
        assert getattr(sys.modules[value.__module__], name) is value, name
try:
    qgraph.no_such_name
except AttributeError:
    print("ok")
"""


def test_every_public_name_resolves_to_its_defining_module():
    assert _run(PUBLIC_NAMES).split() == ["ok"]


def test_star_import_binds_every_public_name():
    out = _run("from qgraph import *\nimport qgraph\n"
               "print(sum(globals()[name] is getattr(qgraph, name) for name in qgraph.__all__))")
    assert int(out) == len(qgraph.__all__)


@pytest.mark.parametrize("command", [["spectrum", "--kmax", "10"], ["eigenfunction", "--grid", "4"]])
def test_spectrum_commands_load_no_optimizer_or_sweep(command, tmp_path):
    path = tmp_path / "star3.json"
    save_graph(path, *star(3))
    out = _run(
        "import sys, json\n"
        "from qgraph.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, {LOADED}]))",
        command[0], "--graph", str(path), *command[1:],
    )
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert loaded == sorted([*CORE, "qgraph.cli"])
