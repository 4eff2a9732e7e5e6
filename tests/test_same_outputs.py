"""tools/same_outputs.py: the comparison of two sides' operation digests."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))   # it imports bench_pairs, as a script would
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


A, B, C = "a" * 64, "b" * 64, "c" * 64
PARENT = {("gap_scaling", 1, 0): A, ("gap_scaling", 1, 1): B, ("maximize", 1, 0): C, ("theta_sweep", 4, 2): A}


def test_equal_digests_differ_nowhere(monkeypatch):
    assert _tool(monkeypatch).differing(PARENT, dict(PARENT)) == []


def test_every_differing_or_missing_operation_is_listed_in_order(monkeypatch):
    change = dict(PARENT)
    change[("theta_sweep", 4, 2)] = B          # a changed digest
    del change[("gap_scaling", 1, 1)]          # an operation the change lacks
    change[("maximize", 1, 1)] = C             # and one the parent lacks
    assert _tool(monkeypatch).differing(PARENT, change) == [
        ("gap_scaling", 1, 1), ("maximize", 1, 1), ("theta_sweep", 4, 2)]
