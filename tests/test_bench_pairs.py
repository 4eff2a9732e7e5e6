"""tools/bench_pairs.py: the statistics of a set of parent/change pairs."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_of_fixed_numbers():
    quartiles = _tool().quartiles
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


PARENT = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]


@pytest.mark.parametrize("change, better, wins, holds", [
    # every pair won, the medians 15 apart against a quartile distance of 4.5
    ([p + 15.0 for p in PARENT], "higher", 10, True),
    # the same numbers where lower is better: every pair lost
    ([p + 15.0 for p in PARENT], "lower", 0, False),
    ([p - 15.0 for p in PARENT], "lower", 10, True),
    # nine of ten won and a tie, which counts for neither side
    ([p + 15.0 for p in PARENT[:8]] + [PARENT[8], PARENT[9] + 15.0], "higher", 9, True),
    # eight of ten won is not enough
    ([p + 15.0 for p in PARENT[:8]] + [PARENT[8] - 1.0, PARENT[9] - 1.0], "higher", 8, False),
    # every pair won, but by less than the parent's quartile distance
    ([p + 2.0 for p in PARENT], "higher", 10, False),
])
def test_compare_counts_wins_and_applies_the_gain_rule(change, better, wins, holds):
    r = _tool().compare(PARENT, change, better)
    assert r["parent"] == (98.75, 100.5, 103.25)
    assert (r["wins"], r["pairs"], r["gain_holds"]) == (wins, 10, holds)
