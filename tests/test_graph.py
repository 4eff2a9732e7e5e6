"""Graph model: topology queries, length vectors, contraction, distances."""

import math

import networkx as nx
import numpy as np
import pytest

from qgraph import (
    DegenerateGraphError,
    DeltaTheta,
    DiscreteGraph,
    GraphStructureError,
    InvalidInputError,
    LengthVector,
    MetricGraph,
    UnsupportedTopologyError,
    betti,
    contract_zero_edges,
    equilateral,
    find_bridges,
    metric,
    tree_diameter,
)
from qgraph.families import (
    caterpillar,
    flower,
    mandarin,
    path_graph,
    random_lengths,
    random_tree,
    star,
    stower,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_disconnected_graph_rejected():
    with pytest.raises(GraphStructureError):
        DiscreteGraph(4, [(0, 1), (2, 3)])


def test_bad_vertex_id_rejected():
    with pytest.raises(GraphStructureError):
        DiscreteGraph(2, [(0, 2)])


def test_degree_counts_loops_twice():
    g, _ = stower(2, 1)
    assert g.degree(0) == 5  # two loops + one dangling edge


def test_length_vector_renormalizes_small_drift():
    lv = LengthVector([0.5, 0.5 + 5e-10])
    assert abs(lv.values.sum() - 1.0) <= 1e-15


def test_length_vector_rejects_large_drift():
    with pytest.raises(InvalidInputError):
        LengthVector([0.5, 0.6])


def test_length_vector_rejects_negative():
    with pytest.raises(InvalidInputError):
        LengthVector([1.5, -0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    # comparisons with NaN are false, so every range check alone lets it through
    with pytest.raises(InvalidInputError):
        LengthVector([bad, 0.5, 0.5])
    with pytest.raises(InvalidInputError):
        MetricGraph(DiscreteGraph(2, [(0, 1), (0, 1)]), [bad, 0.5])
    with pytest.raises(InvalidInputError):
        DeltaTheta(bad)


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------


def test_betti_examples():
    assert betti(star(3)[0]) == 0
    assert betti(flower(3)[0]) == 3
    assert betti(mandarin(4)[0]) == 3


def test_betti_tree_iff_all_bridges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        V = int(rng.integers(2, 7))
        E = V - 1 + int(rng.integers(0, 3))
        from qgraph.families import random_connected_graph

        g = random_connected_graph(rng, V, E)
        is_tree = betti(g) == 0
        assert is_tree == (len(find_bridges(g)) == g.edge_count)
        assert is_tree == g.is_tree()


# ---------------------------------------------------------------------------
# bridges, with an exhaustive-removal oracle
# ---------------------------------------------------------------------------


def _bridges_oracle(g: DiscreteGraph) -> set[int]:
    out = set()
    for e in range(g.edge_count):
        if g.is_loop(e):
            continue
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.vertex_count))
        for i, (u, v) in enumerate(g.edges):
            if i != e:
                h.add_edge(u, v)
        if not nx.is_connected(h):
            out.add(e)
    return out


def test_bridges_path():
    g, _ = path_graph(2)
    assert find_bridges(g) == {0, 1}


def test_bridges_loop():
    g, _ = flower(1)
    assert find_bridges(g) == set()


def test_bridges_stower_leafs_only():
    g, _ = stower(1, 2)
    assert find_bridges(g) == set(_bridges_oracle(g)) == {1, 2}


def test_bridges_random_vs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        V = int(rng.integers(2, 7))
        E = V - 1 + int(rng.integers(0, 4))
        from qgraph.families import random_connected_graph

        g = random_connected_graph(rng, V, E)
        assert find_bridges(g) == _bridges_oracle(g)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contract_two_star_to_interval():
    g, _ = star(2)
    m = contract_zero_edges(g, LengthVector([1.0, 0.0]))
    assert m.graph.vertex_count == 2
    assert m.graph.edge_count == 1
    assert m.total_length == 1.0


def test_contract_triangle_to_two_cycle():
    g = DiscreteGraph(3, [(0, 1), (1, 2), (2, 0)])
    m = contract_zero_edges(g, LengthVector([0.5, 0.5, 0.0]))
    assert m.graph.vertex_count == 2
    assert m.graph.edge_count == 2
    assert betti(m.graph) == 1


def test_contract_zero_loop_vanishes():
    g, _ = stower(1, 1)
    m = contract_zero_edges(g, LengthVector([0.0, 1.0]))
    assert m.graph.edge_count == 1
    assert not m.graph.is_loop(0)


def test_contract_dumbbell_bridge_gives_figure_eight():
    from qgraph.families import dumbbell

    g, _ = dumbbell(0.2)
    m = contract_zero_edges(g, LengthVector([0.5, 0.0, 0.5]))
    assert m.graph.vertex_count == 1
    assert m.graph.edge_count == 2
    assert all(m.graph.is_loop(e) for e in range(2))


def test_contract_all_zero_rejected():
    g, _ = star(2)
    with pytest.raises(DegenerateGraphError):
        contract_zero_edges(g, [0.0, 0.0])


def test_contract_preserves_length_and_betti_relation():
    rng = np.random.default_rng(2)
    from qgraph.families import random_connected_graph

    for _ in range(40):
        V = int(rng.integers(3, 7))
        E = V - 1 + int(rng.integers(1, 4))
        g = random_connected_graph(rng, V, E)
        values = random_lengths(rng, E).values.copy()
        kill = rng.choice(E, size=int(rng.integers(1, E - 1)), replace=False)
        values[kill] = 0.0
        if values.sum() == 0:
            continue
        lv = LengthVector(values / values.sum())
        m = contract_zero_edges(g, lv)
        assert abs(m.total_length - 1.0) < 1e-12
        g2 = m.graph
        assert betti(g2) == g2.edge_count - g2.vertex_count + 1
        assert np.all(m.lengths > 0)


# ---------------------------------------------------------------------------
# tree diameter, with a networkx Dijkstra oracle
# ---------------------------------------------------------------------------


def _diameter_oracle(m) -> float:
    h = nx.Graph()
    for e, (u, v) in enumerate(m.graph.edges):
        h.add_edge(u, v, weight=float(m.lengths[e]))
    leaves = m.graph.leaf_vertices()
    best = 0.0
    for a in leaves:
        dist = nx.single_source_dijkstra_path_length(h, a)
        for b in leaves:
            best = max(best, dist[b])
    return best


def test_diameter_equilateral_four_star():
    m = metric(*star(4))
    assert tree_diameter(m) == pytest.approx(0.5, abs=1e-15)


def test_diameter_interval():
    g, lv = path_graph(1)
    assert tree_diameter(metric(g, lv)) == pytest.approx(1.0, abs=1e-15)


def test_diameter_caterpillar_vs_oracle():
    rng = np.random.default_rng(3)
    g, _ = caterpillar(3, {1: 2, 2: 1})
    for _ in range(10):
        lv = random_lengths(rng, g.edge_count)
        m = metric(g, lv)
        assert tree_diameter(m) == pytest.approx(_diameter_oracle(m), abs=1e-12)


def test_diameter_rejects_cycles():
    with pytest.raises(UnsupportedTopologyError):
        tree_diameter(metric(*flower(2)))


def test_diameter_lower_bound_property():
    # d >= 2 / (number of leaves) over 1000 random metric trees
    rng = np.random.default_rng(4)
    for _ in range(1000):
        g = random_tree(rng, int(rng.integers(2, 8)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.01))
        n_leaves = len(g.leaf_vertices())
        assert tree_diameter(m) >= 2.0 / n_leaves - 1e-12


def test_equilateral_default():
    assert np.allclose(equilateral(4).values, 0.25)


def test_smooth_degree_two_necklace_becomes_loop():
    # the necklace end vertices are redundant Neumann degree-2 vertices;
    # smoothing a one-cell necklace yields the circle with the same spectrum
    from qgraph import spectral_gap
    from qgraph.graph import smooth_degree_two
    from qgraph.families import necklace

    m = metric(*necklace(1))
    smoothed = smooth_degree_two(m)
    assert smoothed.graph.edge_count == 1
    assert smoothed.graph.is_loop(0)
    assert smoothed.total_length == pytest.approx(1.0, abs=1e-15)
    k_a, mult_a = spectral_gap(m)
    k_b, mult_b = spectral_gap(smoothed)
    assert k_a == pytest.approx(k_b, abs=1e-10)
    assert mult_a == mult_b


def test_smooth_degree_two_path_becomes_interval():
    from qgraph import spectral_gap
    from qgraph.graph import smooth_degree_two
    from qgraph.families import path_graph

    g, lv = path_graph(3)
    m = metric(g, lv)
    smoothed = smooth_degree_two(m)
    assert smoothed.graph.edge_count == 1
    assert not smoothed.graph.is_loop(0)
    assert spectral_gap(smoothed)[0] == pytest.approx(math.pi, abs=1e-10)
