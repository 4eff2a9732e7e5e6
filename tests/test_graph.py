"""Graph model: topology queries, length vectors, contraction, distances."""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from qgraph import (
    DIRICHLET,
    NEUMANN,
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
from qgraph import families
from qgraph.graph import _spanning_tree, contract_with_maps


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_disconnected_graph_rejected():
    with pytest.raises(GraphStructureError):
        DiscreteGraph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("vertex_count", [1, 2])
def test_edgeless_graph_rejected(vertex_count):
    # an edgeless graph has no metric graph: its equilateral lengths would divide by zero
    with pytest.raises(GraphStructureError, match="graph needs at least one edge"):
        DiscreteGraph(vertex_count, [])


def test_bad_vertex_id_rejected():
    with pytest.raises(GraphStructureError):
        DiscreteGraph(2, [(0, 2)])


@pytest.mark.parametrize("vertex_count", [0, -1])
def test_a_graph_without_vertices_rejected(vertex_count):
    with pytest.raises(GraphStructureError, match="graph needs at least one vertex"):
        DiscreteGraph(vertex_count, [(0, 0)])


@pytest.mark.parametrize("lengths, conditions, match", [
    ([0.5, 0.5], None, "need one length per edge"),
    ([[1 / 3] * 3], None, "need one length per edge"),
    ([0.5, 0.5, 0.0], None, "strictly positive"),
    ([1.5, 0.5, -1.0], None, "strictly positive"),
    ([1 / 3] * 3, [NEUMANN] * 3, "need one condition per vertex"),
    ([1 / 3] * 3, [NEUMANN] * 5, "need one condition per vertex"),
])
def test_metric_graph_input_checks(lengths, conditions, match):
    with pytest.raises(InvalidInputError, match=match):
        MetricGraph(star(3)[0], lengths, conditions)


@pytest.mark.parametrize("lengths", [[0.5, 0.5], LengthVector([0.25] * 4)])
def test_a_contraction_needs_one_length_per_edge(lengths):
    with pytest.raises(InvalidInputError, match="length vector does not match edge count"):
        contract_with_maps(star(3)[0], lengths)


@pytest.mark.parametrize("build, match", [
    (lambda: families.path_graph(0), "path needs at least one edge"),
    (lambda: families.star(0), "star needs at least one edge"),
    (lambda: families.flower(0), "flower needs at least one petal"),
    (lambda: families.stower(0, 0), "stower needs at least one edge"),
    (lambda: families.stower(-1, 2), "stower needs at least one edge"),
    (lambda: families.mandarin(1), "mandarin needs at least two parallel edges"),
    (lambda: families.necklace(0), "necklace needs at least one cell"),
    (lambda: families.dumbbell(1.0), "bridge length must be in \\(0, 1\\)"),
    (lambda: families.standarin_chain(1, 2, 0), "needs n >= 2, M >= 1"),
    (lambda: families.standarin_chain(2, 1, 3), "needs n >= 2, M >= 1"),
    (lambda: families.standarin_chain(2, 1, 0), "needs M \\+ S >= 2"),
    (lambda: families.standarin_chain(2, 1, 1, leaf_length=0.25), "leaf length must lie in"),
    # an exact leaf 1/(2n) = 1/50 is taken as the float 0.02, the bound itself
    (lambda: families.standarin_chain(25, 1, 2, leaf_length=Fraction(1, 50)), "leaf length must lie in \\(0, 1/\\(2n\\)\\)"),
    (lambda: families.standarin_chain(2, 2, 0, mandarin_lengths=[0.5]), "one positive length per mandarin"),
    (lambda: families.standarin_chain(2, 2, 0, mandarin_lengths=[0.75, -0.25]), "one positive length"),
    (lambda: families.standarin_chain(2, 2, 0, mandarin_lengths=[0.25, 0.5]), "must fill the chain"),
    (lambda: families.random_lengths(np.random.default_rng(0), 4, l_min=0.25), "l_min too large"),
    (lambda: families.random_tree(np.random.default_rng(0), 1), "tree needs at least two vertices"),
    (lambda: families.random_connected_graph(np.random.default_rng(0), 4, 2), "too few edges"),
])
def test_family_input_checks(build, match):
    with pytest.raises(InvalidInputError, match=match):
        build()


def test_a_single_precision_leaf_builds_in_double():
    # float32(0.1) lies in (0, 1/6); taken as a double, the mandarins fill
    # the rest and the lengths sum to 1
    g, lengths = families.standarin_chain(3, 1, 2, leaf_length=np.float32(0.1))
    leaf = float(np.float32(0.1))
    assert lengths.values.dtype == np.float64 and g.edge_count == 9
    assert lengths.values.tolist().count(leaf) == 6 and math.isclose(lengths.values.sum(), 1.0, abs_tol=1e-15)


@pytest.mark.parametrize("vertex_count, edges", [
    (2.5, [(0, 1.9), (True, 0)]),
    (2.5, [(0, 1)]),
    (True, [(0, 0)]),
    (np.float64(2.0), [(0, 1)]),
    (2, [(0, 1.9)]),
    (2, [(True, 0)]),
    (2, [(0, np.float64(1.0))]),
    (2, [(np.bool_(False), 1)]),
], ids=["both", "float-count", "bool-count", "numpy-float-count", "float-end", "bool-end",
        "numpy-float-end", "numpy-bool-end"])
def test_non_integral_or_boolean_graph_integers_rejected(vertex_count, edges):
    # int() would truncate 2.5 to 2 and 1.9 to 1, and read True as 1
    with pytest.raises(GraphStructureError, match="must be an integer"):
        DiscreteGraph(vertex_count, edges)


def test_numpy_integers_are_graph_integers():
    # contraction and vertex identification pass numpy integers
    g = DiscreteGraph(np.int64(2), [(np.int64(0), np.int32(1))])
    assert g == DiscreteGraph(2, [(0, 1)])
    assert type(g.vertex_count) is int and all(type(x) is int for edge in g.edges for x in edge)


def test_incidence_is_built_from_the_edges():
    rng = np.random.default_rng(4)
    graphs = [stower(2, 1)[0], mandarin(3)[0], flower(2)[0]]
    for _ in range(30):
        V = int(rng.integers(1, 6))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, V)]
        edges += [(int(rng.integers(0, V)), int(rng.integers(0, V))) for _ in range(int(rng.integers(1, 5)))]
        graphs.append(DiscreteGraph(V, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))
    for g in graphs:
        E = g.edge_count
        P, Q = np.zeros((g.vertex_count, E)), np.zeros((g.vertex_count, E))
        for e, (a, b) in enumerate(g.edges):
            P[a, e] += 1.0
            P[b, e] += 1.0
            Q[a, e] += 1.0
            Q[b, e] -= 1.0
        assert np.array_equal(g.incidence, np.hstack([P, Q])), g
        at = np.zeros((g.vertex_count, 2 * E))
        at[g.ends, np.arange(2 * E)] = 1.0
        assert np.array_equal(g.end_at, at), g
        assert g.first_end.tolist() == [g.ends.tolist().index(v) for v in range(g.vertex_count)], g
    # the two loops of stower(2, 1) sit at vertex 0: P = 2, Q = 0
    g = graphs[0]
    assert g.incidence[0, :2].tolist() == [2.0, 2.0]
    assert g.incidence[0, 3:5].tolist() == [0.0, 0.0]
    for arr in (g.incidence, g.end_at, g.first_end):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_degree_counts_loops_twice():
    g, _ = stower(2, 1)
    assert g.degree(0) == 5  # two loops + one dangling edge


@pytest.mark.parametrize("build, name", [
    (lambda: star(3)[0], "edges"),
    (lambda: LengthVector([0.5, 0.5]), "values"),
    (lambda: metric(*star(3)), "lengths"),
    (lambda: metric(*star(3)), "anything_new"),
])
def test_graph_objects_take_no_attribute(build, name):
    # DiscreteGraph, LengthVector and MetricGraph are immutable: no
    # attribute of theirs can be set, a new one included
    obj = build()
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, name, None)


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


def test_conditions_must_be_delta_theta():
    # a condition of another type used to build, and failed only later in
    # the solver with an AssertionError (an AttributeError under python -O)
    g, lv = star(3)
    with pytest.raises(InvalidInputError):
        MetricGraph(g, lv.values, ["x", NEUMANN, NEUMANN, NEUMANN])
    with pytest.raises(InvalidInputError):
        metric(g, lv).with_condition(0, "dirichlet")


def test_neumann_and_dirichlet_are_delta_theta_zero_and_pi():
    assert NEUMANN == DeltaTheta(0.0) and DIRICHLET == DeltaTheta(math.pi)
    assert (NEUMANN.alpha, DeltaTheta(-0.0).alpha, DIRICHLET.alpha) == (0.0, 0.0, math.inf)
    assert math.copysign(1.0, DeltaTheta(-0.0).alpha) == 1.0
    assert DeltaTheta(1.0).alpha == math.tan(0.5)
    g, lv = star(3)
    m = MetricGraph(g, lv.values, [DIRICHLET, DeltaTheta(1.0), NEUMANN, DeltaTheta(0.0)])
    assert m.alpha.tolist() == [math.inf, math.tan(0.5), 0.0, 0.0]
    assert not m.alpha.flags.writeable and not metric(g, lv).alpha.flags.writeable
    assert metric(g, lv).is_neumann_graph() and not m.is_neumann_graph()
    assert m.with_condition(0, NEUMANN).with_condition(1, DeltaTheta(0.0)).is_neumann_graph()


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


def _chorded_cycle(rng, n: int) -> DiscreteGraph:
    """A cycle on n vertices with parallel and long chords, shuffled.

    Half of them miss one cycle edge and so are a path, whose edges outside
    every chord's span are bridges; the tree paths of long chords are long.
    """
    ring = [(i, (i + 1) % n) for i in range(n - int(rng.integers(0, 2)))]
    chords = [ring[int(rng.integers(0, len(ring)))] for _ in range(int(rng.integers(0, 4)))]
    for _ in range(int(rng.integers(0, 4))):
        i = int(rng.integers(0, n))
        chords.append((i, (i + int(rng.integers(n // 4, n // 2))) % n))
    name = rng.permutation(n).tolist()
    edges = ring + chords
    return DiscreteGraph(n, [(name[edges[j][0]], name[edges[j][1]]) for j in rng.permutation(len(edges))])


def test_bridges_random_vs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        V = int(rng.integers(2, 7))
        E = V - 1 + int(rng.integers(0, 4))
        from qgraph.families import random_connected_graph

        g = random_connected_graph(rng, V, E)
        assert find_bridges(g) == _bridges_oracle(g)
    with_bridges = 0
    for _ in range(20):
        g = _chorded_cycle(rng, int(rng.integers(30, 61)))
        bridges = find_bridges(g)
        assert bridges == _bridges_oracle(g)
        with_bridges += bool(bridges)
    assert 0 < with_bridges < 20


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contract_two_star_to_interval():
    g, _ = star(2)
    m = contract_zero_edges(g, LengthVector([1.0, 0.0]))
    assert m.graph.vertex_count == 2
    assert m.graph.edge_count == 1
    assert m.total_length == 1.0
    # metric() contracts through Neumann conditions and rejects any other
    assert metric(g, LengthVector([1.0, 0.0]), (NEUMANN,) * 3).graph == m.graph
    for conditions in ((DIRICHLET, NEUMANN, NEUMANN), (NEUMANN,) * 2):
        with pytest.raises(InvalidInputError):
            metric(g, LengthVector([1.0, 0.0]), conditions)


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


def _fields(g):
    """Every field of a DiscreteGraph, with the types of its ends and the
    dtype, shape and write flag of each array."""
    out = [g.vertex_count, g.edges, [type(x) for uv in g.edges for x in uv]]
    for arr in (g.ends, g.end_at, g.first_end, g.incidence):
        out.append((arr.dtype, arr.shape, arr.flags.writeable, arr.tolist()))
    return out


def test_every_catalog_contraction_equals_the_validated_graph():
    # `_contract` builds its quotient unchecked; every proper subset of the
    # edges of every catalog graph, contracted, gives the graph the
    # validating constructor builds from the same vertex count and edges
    from itertools import combinations

    from qgraph.graph import _contract
    from qgraph.optimize import full_catalog

    faces = 0
    for entry in full_catalog():
        g = entry.graph
        for r in range(g.edge_count):
            for drop in combinations(range(g.edge_count), r):
                face, _ = _contract(g, np.isin(np.arange(g.edge_count), drop))
                assert _fields(face) == _fields(DiscreteGraph(face.vertex_count, face.edges)), (g, drop)
                faces += 1
    assert faces == sum(2 ** e.graph.edge_count - 1 for e in full_catalog())


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


def _diameter_every_leaf(m) -> float:
    """The largest leaf-to-leaf distance, one breadth-first sweep from every leaf."""
    leaves = m.graph.leaf_vertices()
    best = 0.0
    for v in leaves:
        order, via = _spanning_tree(m.graph, v)
        dist = np.zeros(m.graph.vertex_count)
        for w in order[1:]:
            a, b = m.graph.edges[via[w]]
            dist[w] = dist[a + b - w] + float(m.lengths[via[w]])
        best = max(best, float(dist[leaves].max()))
    return best


def test_two_sweeps_give_the_diameter_of_a_sweep_from_every_leaf():
    # each sums a path's lengths from one of its ends, so the two may differ
    # in the last bit
    rng = np.random.default_rng(85)
    for _ in range(2000):
        g = random_tree(rng, int(rng.integers(2, 12)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.01))
        assert tree_diameter(m) == pytest.approx(_diameter_every_leaf(m), rel=1e-15, abs=0.0), m


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
