"""tools/same_outputs.py: the comparison of two sides' operation digests."""

import importlib.util
import pathlib

import pytest

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


def test_a_result_is_walked_as_plain_data(monkeypatch):
    # dataclasses, objects with slots, tuples and arrays become class names,
    # field dicts and lists, which unpickle without the tree that made them
    import dataclasses

    import numpy as np

    @dataclasses.dataclass(frozen=True)
    class Curve:
        levels: tuple
        thetas: np.ndarray

    class Lengths:
        __slots__ = ("values",)

        def __init__(self, values):
            self.values = values

    tool = _tool(monkeypatch)
    result = (Curve(((1.5, 2.0), ()), np.array([0.25, 3.0])), Lengths(np.array([1, 2])), np.int64(7), "ok")
    assert tool.plain(result) == [("Curve", {"levels": [[1.5, 2.0], []], "thetas": [0.25, 3.0]}),
                                  ("Lengths", {"values": [1, 2]}), 7, "ok"]


def _curve(levels=((1.0, 2.0, 30.0), (-0.5,)), flat=((12.5, 2),), label="ok", key="flat"):
    return [("Curve", {"levels": [list(r) for r in levels], key: [list(f) for f in flat]}), label, None]


RESULT = _curve()


def test_equal_results_change_nothing(monkeypatch):
    assert _tool(monkeypatch).changes(RESULT, RESULT) == (0.0, [])


def test_the_largest_float_change_is_relative_above_one(monkeypatch):
    # |a - b| / max(|a|, 1) over every float leaf: 3e-14 on 30.0 reads 1e-15,
    # 2e-15 on -0.5 reads 2e-15
    change = _curve(levels=((1.0, 2.0, 30.0 + 3e-14), (-0.5 + 2e-15,)))
    worst, other = _tool(monkeypatch).changes(RESULT, change)
    assert other == [] and worst == pytest.approx(2e-15, rel=0.1)


@pytest.mark.parametrize("change, where", [
    (_curve(flat=((12.5, 3),)), "[1]: 2 against 3"),
    (_curve(levels=((1.0, 2.0), (-0.5,))), "3 items against 2"),
    (_curve(label="raised"), "'ok' against 'raised'"),
    (_curve(flat=((12.5, 2.0),)), "int against float"),
    (_curve(key="bands"), "keys ['flat', 'levels'] against ['bands', 'levels']"),
], ids=["multiplicity", "length", "string", "type", "key"])
def test_a_change_that_is_no_float_change_is_named(monkeypatch, change, where):
    worst, other = _tool(monkeypatch).changes(RESULT, change)
    assert worst == 0.0 and len(other) == 1 and other[0].endswith(where)
