"""Property tests: the counted spectrum against the bond-scattering equation,
delta sweeps searched in lockstep (`levels`) against the same rows
searched alone, the two-count gap decision against the full gap search,
and the floor count that decision assumes on Neumann graphs against the
count itself.

Every level that `eigenvalues` reports is checked with quantities the
count never uses: the smallest singular value of I - U(k), and an
eigenspace of the counted dimension whose every basis function meets its
vertex conditions and, through its bond amplitudes, solves the
bond-scattering equations a_in = U(k) a_in and a_out = Sigma(k) a_in.
The eigenspace is solved from the vertex conditions on the edge ends, so
the bond-scattering matrix is an oracle that shares no code with it.
Graphs are small (E <= 6; up to E = 24 for the floor count) and carry
loops, parallel edges, delta and Dirichlet vertices.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgraph import DIRICHLET, NEUMANN, DeltaTheta, DiscreteGraph, MetricGraph
from qgraph.optimize import L_MIN
from qgraph.spectral import (
    BondScattering,
    _TrigCount,
    _below,
    _drive,
    _k_floor,
    _reaches,
    eigenfunction,
    eigenvalues,
    levels,
    multiplicity_at,
    negative_spectrum,
    spectral_gap,
    vertex_condition_residual,
)

from oracles import secular_value


def gap_reaches(m, k):
    """spectral_gap(m)[0] >= k, decided by the one count the optimizer takes."""
    return _drive([_reaches(m, k)])[0]


@st.composite
def small_graphs(draw, l_min: float = 0.05, neumann: bool = False,
                 max_vertices: int = 4, max_edges: int = 6) -> MetricGraph:
    V = draw(st.integers(1, max_vertices))
    # a random spanning tree keeps the graph connected; extra edges may be
    # loops or parallel edges
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, V)]
    n_extra = draw(st.integers(1 if V == 1 else 0, max_edges - len(edges)))
    vertex = st.integers(0, V - 1)
    edges += [(draw(vertex), draw(vertex)) for _ in range(n_extra)]
    lengths = [draw(st.floats(l_min, 1.0)) for _ in edges]
    condition = st.just(NEUMANN) if neumann else st.one_of(
        st.just(NEUMANN),
        st.just(DIRICHLET),
        st.floats(-3.0, 3.0).map(DeltaTheta),
    )
    conditions = [draw(condition) for _ in range(V)]
    return MetricGraph(DiscreteGraph(V, edges), lengths, conditions)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_counted_levels_solve_the_secular_equation(m):
    k_max = 3.0 * math.pi * m.graph.edge_count / m.total_length
    # a pair of multiplicity 0 is count noise reported as a level
    assert all(pair.multiplicity >= 1 for pair in negative_spectrum(m)), m
    for pair in eigenvalues(m, k_max).eigenpairs:
        assert pair.multiplicity >= 1, pair
        if pair.k == 0.0:
            continue
        assert secular_value(m, pair.k) <= 1e-8, pair
        assert multiplicity_at(m, pair.k) == pair.multiplicity, pair
        basis = eigenfunction(m, pair.k)
        assert len(basis) == pair.multiplicity, pair
        bonds = BondScattering(m)
        U, sigma = bonds.U(pair.k), bonds.sigma(pair.k)
        for f in basis:
            assert vertex_condition_residual(m, f) <= 1e-8, pair
            # bond b runs from its origin, end b: f = a_in e^{-iky} + a_out e^{iky}
            value, slope = f.at_ends(m.lengths)
            a_in, a_out = (value + 1j * slope / pair.k) / 2, (value - 1j * slope / pair.k) / 2
            assert np.max(np.abs(a_in - U @ a_in)) <= 1e-8, pair
            assert np.max(np.abs(a_out - sigma @ a_in)) <= 1e-8, pair


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_lockstep_sweep_rows_equal_single_rows(m, data):
    # every row of a sweep is searched with exactly the values a search of
    # that row alone sees, so the levels agree bit for bit
    v = data.draw(st.integers(0, m.graph.vertex_count - 1))
    thetas = [-2.9, -1.0, 0.0, 0.4, 2.2, math.pi]
    k_max = 2.0 * math.pi * m.graph.edge_count / m.total_length
    rows = [m.with_condition(v, DeltaTheta(t)) for t in thetas]
    assert levels(rows, k_max) == [levels([row], k_max)[0] for row in rows]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_graphs(l_min=L_MIN, neumann=True))
def test_gap_reaches_agrees_with_the_gap_search(m):
    # the optimizer's traffic: Neumann graphs with edges down to the ascent's
    # length floor, asked about a level a relative 1e-9 away from the gap
    k1 = spectral_gap(m)[0]
    for k in (k1 * (1 - 1e-9), k1 * (1 + 1e-9)):
        assert gap_reaches(m, k) == (k1 >= k), (k1, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs(l_min=L_MIN))
def test_gap_reaches_agrees_with_the_gap_search_on_any_conditions(m):
    # with Dirichlet and delta vertices the floor count is the inertia of M0
    k1 = spectral_gap(m)[0]
    for k in (k1 * (1 - 1e-9), k1 * (1 + 1e-9)):
        assert gap_reaches(m, k) == (k1 >= k), (k1, k)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_graphs(l_min=L_MIN, neumann=True, max_vertices=8, max_edges=24))
def test_neumann_floor_count_is_one(m):
    # gap_reaches and every level search take N = 1 at the search floor of a
    # Neumann graph without counting it: k = 0 is the only level below
    # k_1 >= pi / L
    count = _TrigCount(m)
    floor_k = _k_floor(m)
    assert count.made(floor_k, count.spectrum(floor_k)).count == 1, m
    assert _drive([_below(count, count.floor)])[0].count == 1, m
