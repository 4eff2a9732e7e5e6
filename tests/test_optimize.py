"""Catalog, symmetrization, gap maximization/infimization, brute force, bounds."""

import json
import math

import numpy as np
import pytest

from qgraph import (
    DiscreteGraph,
    InvalidGroupError,
    InvalidInputError,
    LengthVector,
    NotApplicableError,
    ResourceBudgetError,
    betti,
    brute_force_gap,
    catalog_entry,
    full_catalog,
    infimize_gap,
    maximize_gap,
    metric,
    spectral_gap,
    symmetrize,
    upper_bound,
)
from qgraph import optimize, spectral
from qgraph.optimize import MaximizeOptions
from qgraph.families import (
    caterpillar,
    dumbbell,
    flower,
    mandarin,
    random_connected_graph,
    random_lengths,
    star,
    stower,
)

PI = math.pi


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_stower_values():
    assert catalog_entry("stower", 3, 2).gap == pytest.approx(4 * PI)
    assert catalog_entry("stower", 1, 3).gap == pytest.approx(5 * PI / 2)
    assert catalog_entry("stower", 3, 1).gap == pytest.approx(7 * PI / 2)


def test_catalog_canonical_lengths():
    entry = catalog_entry("stower", 3, 2)
    assert entry.lengths.values == pytest.approx(np.array([2, 2, 2, 1, 1]) / 8.0)


def test_catalog_rejects_lasso_stower():
    with pytest.raises(InvalidInputError):
        catalog_entry("stower", 1, 1)


def test_catalog_entries_match_solver():
    for entry in full_catalog():
        k1, mult = spectral_gap(metric(entry.graph, entry.lengths))
        assert k1 == pytest.approx(entry.gap, abs=1e-8), entry
        if entry.multiplicity is not None:
            assert mult == entry.multiplicity, entry


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_star_increases_gap():
    g, _ = star(3)
    m = metric(g, np.array([0.5, 0.3, 0.2]))
    before, _ = spectral_gap(m)
    lv = symmetrize(m, 0, (0, 1, 2))
    assert lv.values == pytest.approx([1 / 3] * 3)
    after, _ = spectral_gap(metric(g, lv))
    assert after > before + 1e-6


def test_symmetrize_identity_when_equal():
    g, canonical = stower(2, 1)
    m = metric(g, canonical)
    lv = symmetrize(m, 0, (0, 1))
    assert lv == canonical


def test_symmetrize_two_flower_keeps_two_pi():
    # gap of a two-petal flower is 2 pi regardless of the split
    g, _ = flower(2)
    uneven, _ = spectral_gap(metric(g, np.array([0.6, 0.4])))
    even, _ = spectral_gap(metric(g, np.array([0.5, 0.5])))
    assert uneven == pytest.approx(2 * PI, abs=1e-9)
    assert even == pytest.approx(2 * PI, abs=1e-9)


def test_symmetrize_rejects_mixed_group():
    g, lv = stower(1, 2)
    m = metric(g, lv)
    with pytest.raises(InvalidGroupError):
        symmetrize(m, 0, (0, 1))  # a petal and a dangling edge


def test_symmetrize_rejects_inner_edges():
    g, lv = caterpillar(2, {0: 1, 1: 1, 2: 1})
    m = metric(g, lv)
    with pytest.raises(InvalidGroupError):
        symmetrize(m, 1, (0, 1))  # spine edges are neither loops nor dangling


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("options", [{"seed": -1}, {"seeds": -1}, {"seed": 1.5}, {"seed": True}])
def test_maximize_options_need_nonnegative_integers(options):
    # a negative seed used to reach numpy's default_rng and fail there
    with pytest.raises(InvalidInputError):
        MaximizeOptions(**options)


def test_maximize_star_topology_reaches_equilateral():
    g, _ = star(4)
    rng = np.random.default_rng(1)
    res = maximize_gap(g, random_lengths(rng, 4), MaximizeOptions(seeds=2, seed=1))
    assert res.gap == pytest.approx(2 * PI, abs=1e-6)
    assert res.classification == "maximizer-candidate"
    assert res.lengths.values == pytest.approx([0.25] * 4, abs=1e-6)


def test_maximize_lasso_contracts_leaf_to_circle():
    g, _ = stower(1, 1)
    res = maximize_gap(g, LengthVector([0.7, 0.3]), MaximizeOptions(seeds=2, seed=2))
    assert res.gap == pytest.approx(2 * PI, abs=1e-6)
    assert res.classification == "supremizer-candidate"
    assert res.lengths.zero_edges() == [1]


def test_maximize_caterpillar_supremizer_is_star():
    g, init = caterpillar(1, {0: 2, 1: 1})
    res = maximize_gap(g, init, MaximizeOptions(seeds=2, seed=3))
    assert res.gap == pytest.approx(1.5 * PI, abs=1e-6)
    assert res.classification == "supremizer-candidate"
    assert res.lengths.values[0] == 0.0  # the spine edge is contracted


def test_maximize_trace_is_monotone():
    g, _ = stower(2, 2)
    rng = np.random.default_rng(4)
    res = maximize_gap(g, random_lengths(rng, 4), MaximizeOptions(seeds=2, seed=4))
    gaps = [step.gap for step in res.trace]
    assert all(b >= a - 1e-10 for a, b in zip(gaps, gaps[1:]))
    assert res.gap >= gaps[0] - 1e-10


def test_maximize_result_gap_matches_recomputation():
    g, _ = stower(1, 2)
    rng = np.random.default_rng(5)
    res = maximize_gap(g, random_lengths(rng, 3), MaximizeOptions(seeds=2, seed=5))
    from qgraph.graph import contract_with_maps

    mg, _ = contract_with_maps(g, res.lengths)
    k1, _ = spectral_gap(mg)
    assert k1 == pytest.approx(res.gap, abs=1e-8)


# starts whose seeded runs reach every site of the count decision: the
# backtracking halvings, the step expansions, the equalize probe and the
# contract probes
DECISION_RUNS = (
    (star(4)[0], random_lengths(np.random.default_rng(1), 4)),
    (flower(3)[0], random_lengths(np.random.default_rng(2), 3)),
    (stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3)),
    (stower(1, 2)[0], LengthVector([0.5, 0.5, 0.0])),
)


def test_count_decisions_equal_the_full_gap_comparison(monkeypatch):
    decide = optimize._gap_above
    decisions = []

    def checked(m, floor):
        kept = yield from decide(m, floor)
        decisions.append((kept is not None, spectral_gap(m)[0] > floor))
        return kept

    monkeypatch.setattr(optimize, "_gap_above", checked)
    for g, init in DECISION_RUNS:
        maximize_gap(g, init, MaximizeOptions(seeds=2, seed=1))
    assert {counted for counted, _ in decisions} == {True, False}
    assert all(counted == full for counted, full in decisions)


def test_no_full_search_is_spent_on_a_losing_candidate(monkeypatch):
    # every ascent appends the gap it holds to its trace whenever that gap
    # changes, so the trace's last entry is the gap a candidate must beat;
    # a full search is wasted when its value neither beats it by IMPROVE_TOL
    # nor becomes the next trace entry (symmetrize and contract moves).
    # The ascents run in lockstep, so each one marks its trace as the
    # current one whenever the driver resumes it.
    traces, searches, current = [], [], []
    ascent, full_search = optimize._single_ascent, optimize._gap_search

    def traced_ascent(state, trace):
        traces.append(trace)
        inner = ascent(state, trace)
        value = None
        while True:
            current[:] = [trace]
            try:
                request = inner.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield request

    def recorded_search(m):
        result = yield from full_search(m)
        trace = current[0]
        searches.append((result[0], trace, len(trace)))
        return result

    monkeypatch.setattr(optimize, "_single_ascent", traced_ascent)
    monkeypatch.setattr(optimize, "_gap_search", recorded_search)
    g, init = stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3)
    maximize_gap(g, init, MaximizeOptions(seeds=2, seed=1))
    wasted = [
        value for value, trace, n in searches
        if n and value <= trace[n - 1].gap + optimize.IMPROVE_TOL
        and not (len(trace) > n and trace[n].gap == value)
    ]
    assert len(traces) == 3  # the given start and two restarts
    assert searches
    assert wasted == []


def _ascent_starts():
    """Fresh ascent starts on several graphs; the stower(1, 2) start contracts
    its zero edge first, so its counts have fewer rows than the others'."""
    starts = []
    for g, init, seed in (
        (stower(1, 2)[0], LengthVector([0.5, 0.5, 0.0]), 1),
        (stower(1, 2)[0], random_lengths(np.random.default_rng(7), 3), 2),
        (star(4)[0], random_lengths(np.random.default_rng(1), 4), 3),
        (flower(3)[0], random_lengths(np.random.default_rng(2), 3), 4),
        (stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3), 5),
    ):
        start = optimize._AscentState(g, init.values.copy(), list(range(g.edge_count)))
        if init.zero_edges():
            start = optimize._settle(start, init.zero_edges())
        starts.append((g, start))
        rng = np.random.default_rng(seed)
        lv = random_lengths(rng, g.edge_count, l_min=2 * optimize.L_MIN).values
        starts.append((g, optimize._AscentState(g, lv, list(range(g.edge_count)))))
    return starts


def _ascent_documents(together):
    starts = _ascent_starts()
    traces = [[] for _ in starts]
    ascents = [optimize._single_ascent(start, trace) for (_, start), trace in zip(starts, traces)]
    if together:
        ends = spectral._drive(ascents)
    else:
        ends = [spectral._drive([ascent])[0] for ascent in ascents]
    out = []
    for (g, _), (state, gap), trace in zip(starts, ends, traces):
        res = optimize.OptimizationResult(
            state.original_lengths(g.edge_count), gap, "", tuple(trace)
        )
        out.append(json.dumps(res.to_dict()))
    return out


def test_ascents_driven_together_equal_ascents_driven_alone():
    alone = _ascent_documents(together=False)
    assert _ascent_documents(together=True) == alone
    # the contracting start ran on two edges; the ascents did not all agree
    assert json.loads(alone[0])["lengths"][2] == 0.0
    assert len(set(alone)) > 1


def test_maximize_agrees_with_brute_force():
    rng = np.random.default_rng(6)
    for g, _ in (stower(1, 2), mandarin(3), star(3)):
        res = maximize_gap(
            g, random_lengths(rng, g.edge_count), MaximizeOptions(seeds=3, seed=6)
        )
        brute = brute_force_gap(g, 20, "max")
        assert res.gap >= brute.gap - 2e-2


# ---------------------------------------------------------------------------
# infimize
# ---------------------------------------------------------------------------


def test_infimize_tree_gives_interval():
    res = infimize_gap(star(3)[0])
    assert res.gap == pytest.approx(PI, abs=1e-9)
    assert sorted(res.lengths.values.tolist()) == [0.0, 0.0, 1.0]


def test_infimize_mandarin_gives_circle():
    res = infimize_gap(mandarin(4)[0])
    assert res.gap == pytest.approx(2 * PI, abs=1e-9)


def test_infimize_bridgeless_puts_length_on_the_first_edge_off_the_bfs_tree():
    # the breadth-first tree from vertex 0 takes edges 0, 3 and 4; a forest
    # grown in edge-id order would leave edge 3 off it, not edge 1
    res = infimize_gap(DiscreteGraph(4, [(0, 1), (2, 3), (1, 2), (0, 3), (0, 2)]))
    assert res.lengths.values.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert res.gap == pytest.approx(2 * PI, abs=1e-9)
    assert infimize_gap(mandarin(4)[0]).lengths.values.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_infimize_bridged_dumbbell():
    res = infimize_gap(dumbbell(0.3)[0])
    assert res.gap == pytest.approx(PI, abs=1e-9)
    assert res.lengths.values[1] == 1.0  # all length on the bridge


def test_random_samples_respect_infimum_bounds():
    rng = np.random.default_rng(7)
    bridged = dumbbell(0.2)[0]
    bridgeless = mandarin(3)[0]
    for _ in range(25):
        k1, _ = spectral_gap(metric(bridged, random_lengths(rng, 3)))
        assert k1 >= PI - 1e-8
        k1, _ = spectral_gap(metric(bridgeless, random_lengths(rng, 3)))
        assert k1 >= 2 * PI - 1e-8


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_stower21():
    res = brute_force_gap(stower(2, 1)[0], 30, "max")
    assert res.gap == pytest.approx(5 * PI / 2, abs=1e-8)
    assert res.lengths.values == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)


def test_brute_force_stower12_plateau():
    res = brute_force_gap(stower(1, 2)[0], 30, "max")
    assert res.gap == pytest.approx(2 * PI, abs=1e-8)
    l2, l3 = res.lengths.values[1], res.lengths.values[2]
    assert l2 == pytest.approx(l3, abs=1e-12)
    assert l2 <= 0.25 + 1e-12
    # the plateau: another symmetric point attains the same gap
    other, _ = spectral_gap(metric(stower(1, 2)[0], np.array([0.7, 0.15, 0.15])))
    assert other == pytest.approx(2 * PI, abs=1e-8)


def test_brute_force_two_mandarin_min():
    res = brute_force_gap(mandarin(2)[0], 30, "min")
    assert res.gap == pytest.approx(2 * PI, abs=1e-8)
    # every grid point of a two-mandarin is the same circle
    mid, _ = spectral_gap(metric(mandarin(2)[0], np.array([0.5, 0.5])))
    assert mid == pytest.approx(2 * PI, abs=1e-8)


def test_brute_force_budget():
    with pytest.raises(ResourceBudgetError):
        brute_force_gap(star(3)[0], 41, "max")


# ---------------------------------------------------------------------------
# upper bound
# ---------------------------------------------------------------------------


def test_upper_bound_values():
    g, _ = stower(3, 2)  # E = 5, two leaf edges
    assert upper_bound(g) == pytest.approx(4 * PI)
    g, _ = star(3)
    assert upper_bound(g) == pytest.approx(1.5 * PI)
    k1, _ = spectral_gap(metric(*star(3)))
    assert k1 == pytest.approx(upper_bound(g), abs=1e-9)
    # three levels within 1.5e-3 of each other near 3 pi; the lowest one
    # used to be missed, putting the reported gap above the bound
    g, _ = stower(2, 2)
    lengths = [0.33335101848844, 0.33335101848844, 0.16664898151156, 0.16664898151156]
    k1, mult = spectral_gap(metric(g, np.array(lengths)))
    assert k1 == pytest.approx(9.424277951317, abs=1e-9)
    assert mult == 1
    assert upper_bound(g) == pytest.approx(3 * PI)
    assert k1 <= upper_bound(g)


def test_upper_bound_excluded_pairs():
    for g in (flower(1)[0], stower(1, 1)[0]):
        with pytest.raises(NotApplicableError):
            upper_bound(g)
    from qgraph import DiscreteGraph

    with pytest.raises(NotApplicableError):
        upper_bound(DiscreteGraph(2, [(0, 1)]))


def test_nontree_stower_realization_beats_tree_bound():
    # contracting internal edges of a non-tree graph realizes the stower gap
    # pi (2 beta + El) / 2, strictly above the tree bound pi El / 2
    rng = np.random.default_rng(8)
    for _ in range(10):
        V = int(rng.integers(2, 5))
        g = random_connected_graph(rng, V, V + int(rng.integers(0, 2)))
        if betti(g) == 0:
            continue
        n_leaves = len(g.leaf_edges())
        stower_gap = PI * (2 * betti(g) + n_leaves) / 2
        assert stower_gap > PI * n_leaves / 2
