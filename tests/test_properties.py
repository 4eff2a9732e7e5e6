"""Property test: the counted spectrum against the bond-scattering equation.

Every level that `eigenvalues` reports is checked with quantities the
count never uses: the smallest singular value of I - U(k), the dimension
of the eigenspace rebuilt from the singular vectors of I - U(k), and the
vertex conditions of each rebuilt eigenfunction.  Graphs are small
(E <= 6) and carry loops, parallel edges, delta and Dirichlet vertices.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qgraph import DIRICHLET, NEUMANN, DeltaTheta, DiscreteGraph, MetricGraph
from qgraph.spectral import (
    eigenfunction,
    eigenvalues,
    secular_value,
    vertex_condition_residual,
)


@st.composite
def small_graphs(draw) -> MetricGraph:
    V = draw(st.integers(1, 4))
    # a random spanning tree keeps the graph connected; extra edges may be
    # loops or parallel edges
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, V)]
    n_extra = draw(st.integers(1 if V == 1 else 0, 6 - len(edges)))
    vertex = st.integers(0, V - 1)
    edges += [(draw(vertex), draw(vertex)) for _ in range(n_extra)]
    lengths = [draw(st.floats(0.05, 1.0)) for _ in edges]
    condition = st.one_of(
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
    for pair in eigenvalues(m, k_max).eigenpairs:
        if pair.k == 0.0:
            continue
        assert secular_value(m, pair.k) <= 1e-8, pair
        basis = eigenfunction(m, pair.k)
        assert len(basis) == pair.multiplicity, pair
        for f in basis:
            assert vertex_condition_residual(m, f) <= 1e-8, pair
