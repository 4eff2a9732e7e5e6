"""Tests of the benchmark's own output checks; they import nothing from qgraph.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math

import pytest

import checks


def star(E):
    return checks.Graph(E + 1, [(0, i + 1) for i in range(E)], [1.0 / E] * E)


def flower(E):
    return checks.Graph(1, [(0, 0)] * E, [1.0 / E] * E)


def mandarin(E):
    return checks.Graph(2, [(0, 1)] * E, [1.0 / E] * E)


INTERVAL = checks.Graph(2, [(0, 1)], [1.0])
# stower(2,2) at the lengths where spectral_gap misses the root 9.424277951
STOWER22 = checks.Graph(3, [(0, 0), (0, 0), (0, 1), (0, 2)],
                        [0.33335101848844, 0.33335101848844, 0.16664898151156, 0.16664898151156])
STOWER22_REPORTED = 9.425278023278322


@pytest.mark.parametrize("family, build", [("star", star), ("flower", flower),
                                           ("mandarin", mandarin)])
@pytest.mark.parametrize("E", [2, 3, 5, 8, 13, 20, 24])
def test_count_agrees_with_closed_forms(family, build, E):
    k1, mult = checks.closed_form(family, (E,))
    below, above = checks.count_around(build(E), k1)
    assert below == 1
    assert above - below == mult
    assert checks.gap_problems(build(E), k1, mult) == []


def test_count_of_the_interval_and_the_circle():
    # unit interval: 0, pi, 2 pi, ...; circle of length one: 0, 2 pi (twice), 4 pi (twice)
    assert [checks.count(INTERVAL, k) for k in (0.5, 4.0, 7.0)] == [1, 2, 3]
    circle = flower(1)
    assert [checks.count(circle, k) for k in (3.0, 7.0, 13.0)] == [1, 3, 5]


def test_count_with_dirichlet_and_attractive_delta():
    # Dirichlet at both ends: pi, 2 pi, ...; no eigenvalue at or below zero
    both = {0: math.inf, 1: math.inf}
    assert [checks.count(INTERVAL, k, both) for k in (0.5, 4.0, 7.0)] == [0, 1, 2]
    # Dirichlet-Neumann: pi/2, 3 pi/2, ...
    assert [checks.count(INTERVAL, k, {0: math.inf}) for k in (1.0, 2.0, 5.0)] == [0, 1, 2]
    # an attractive coupling pulls exactly one eigenvalue below zero
    assert checks.count(INTERVAL, 1e-3, {0: math.tan(-1.0 / 2.0)}) == 1
    assert checks.count(INTERVAL, 1e-3, {0: math.tan(1.0 / 2.0)}) == 0


def test_count_flags_the_missed_stower22_eigenvalue():
    below, _ = checks.count_around(STOWER22, STOWER22_REPORTED)
    assert below == 2
    problems = checks.gap_problems(STOWER22, STOWER22_REPORTED, 1)
    assert any("N(k1^-) = 2" in p for p in problems)
    assert any("above the bound" in p for p in problems)
    # the root the solver missed is really there
    assert checks.count(STOWER22, 9.4242) == 1
    assert checks.count(STOWER22, 9.42435) == 2


def test_closed_form_and_bounds_flag_wrong_gaps():
    assert checks.closed_form_problems("stower", (2, 1), 5 * math.pi / 2) == []
    assert checks.closed_form_problems("stower", (2, 1), 7.853948656820997) != []
    assert checks.closed_form_problems("mandarin", (3,), 3 * math.pi, 2) != []
    assert checks.bound_problems(star(4), 2 * math.pi) == []
    assert checks.bound_problems(star(4), 2 * math.pi + 1e-6) != []   # pi (E - El/2) = 2 pi
    assert checks.bound_problems(star(4), 3.0) != []                  # below pi
    assert checks.bound_problems(mandarin(3), 5.0) != []              # bridgeless, below 2 pi


def test_contraction_drops_zero_edges():
    g = checks.Graph(3, [(0, 1), (1, 2), (1, 1)], [0.5, 0.0, 0.5]).contracted()
    assert (g.n_vertices, g.edges, g.lengths) == (2, [(0, 1), (1, 1)], [0.5, 0.5])


def test_levels_check_on_the_interval():
    thetas = [0.0, math.pi]
    levels = [[0.0, math.pi, 2 * math.pi], [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]]
    assert checks.levels_problems(INTERVAL, 0, thetas, levels) == []
    missing = [levels[0], levels[1][1:]]
    assert checks.levels_problems(INTERVAL, 0, thetas, missing) != []
    decreasing = [levels[1], levels[0]]
    assert checks.levels_problems(INTERVAL, 0, list(reversed(thetas)), decreasing) != []


def test_sgp_check_on_the_star_centre():
    k1 = 3 * math.pi / 2
    assert checks.sgp_problems(star(3), 0, math.pi, "strong", k1, 2, k1) == []
    # theta_SG stopped short of pi, as spectral_gap_parameter reports on star(4)
    problems = checks.sgp_problems(star(4), 0, 3.138365049615703, "obeys", 2 * math.pi, 3,
                                   2 * math.pi)
    assert any("still below k1" in p for p in problems)
    # a classification that does not follow from the count is flagged
    problems = checks.sgp_problems(star(3), 0, math.pi, "obeys", k1, 2, k1)
    assert any("classification" in p for p in problems)
