"""Catalog, symmetrization, gap maximization/infimization, brute force, bounds."""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from qgraph import (
    DiscreteGraph,
    InvalidGroupError,
    InvalidInputError,
    LengthVector,
    NotApplicableError,
    betti,
    catalog_entry,
    full_catalog,
    infimize_gap,
    is_critical,
    maximize_gap,
    metric,
    spectral_gap,
    symmetrize,
    upper_bound,
)
from qgraph import families, optimize, spectral
from qgraph.graph import contract_with_maps
from qgraph.optimize import MaximizeOptions
from qgraph.families import (
    caterpillar,
    dumbbell,
    flower,
    mandarin,
    necklace,
    random_connected_graph,
    random_lengths,
    star,
    stower,
)

from oracles import brute_force_gap

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


@pytest.mark.parametrize("args, match", [
    (("star", 1), "star family needs E >= 2"),
    (("star", -3), "star family needs E >= 2"),
    (("flower", 0), "flower family needs E >= 1"),
    (("stower", 1, 0), "stower family needs Ep \\+ El >= 2"),
    (("stower", 0, 1), "stower family needs Ep \\+ El >= 2"),
])
def test_catalog_rejects_parameters_below_a_family_s_range(args, match):
    with pytest.raises(InvalidInputError, match=match):
        catalog_entry(*args)


@pytest.mark.parametrize(
    "args",
    [("star",), ("star", 3, 4), ("star", 2.5), ("flower", 2.0), ("stower", 1.0, 2),
     ("necklace", True), (["star"], 3)],
)
def test_catalog_needs_its_number_of_integer_parameters(args):
    # these raised ValueError or TypeError, and necklace True was read as necklace 1;
    # a family that is not a string is unknown
    with pytest.raises(InvalidInputError):
        catalog_entry(*args)


def test_catalog_entries_match_solver():
    for entry in full_catalog():
        k1, mult = spectral_gap(metric(entry.graph, entry.lengths))
        assert k1 == pytest.approx(entry.gap, abs=1e-8), entry
        if entry.multiplicity is not None:
            assert mult == entry.multiplicity, entry


# every catalog entry to the bit: family, params, edges, lengths, gap.hex()
# and multiplicity; a closed form off in its last bits changes a row
CATALOG_BITS = [
    ("star", (2,), [(0, 1), (0, 2)],
     [0.5, 0.5], "0x1.921fb54442d18p+1", 1),
    ("star", (3,), [(0, 1), (0, 2), (0, 3)],
     [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], "0x1.2d97c7f3321d2p+2", 2),
    ("star", (4,), [(0, 1), (0, 2), (0, 3), (0, 4)],
     [0.25, 0.25, 0.25, 0.25], "0x1.921fb54442d18p+2", 3),
    ("star", (5,), [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
     [0.2, 0.2, 0.2, 0.2, 0.2], "0x1.f6a7a2955385ep+2", 4),
    ("flower", (2,), [(0, 0), (0, 0)],
     [0.5, 0.5], "0x1.921fb54442d18p+2", 1),
    ("flower", (3,), [(0, 0), (0, 0), (0, 0)],
     [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], "0x1.2d97c7f3321d2p+3", 2),
    ("flower", (4,), [(0, 0), (0, 0), (0, 0), (0, 0)],
     [0.25, 0.25, 0.25, 0.25], "0x1.921fb54442d18p+3", 3),
    ("stower", (3, 2), [(0, 0), (0, 0), (0, 0), (0, 1), (0, 2)],
     [0.25, 0.25, 0.25, 0.125, 0.125], "0x1.921fb54442d18p+3", 4),
    ("stower", (2, 2), [(0, 0), (0, 0), (0, 1), (0, 2)],
     [0.3333333333333333, 0.3333333333333333, 0.16666666666666666, 0.16666666666666666], "0x1.2d97c7f3321d2p+3", 3),
    ("stower", (1, 2), [(0, 0), (0, 1), (0, 2)],
     [0.5, 0.25, 0.25], "0x1.921fb54442d18p+2", 2),
    ("stower", (1, 3), [(0, 0), (0, 1), (0, 2), (0, 3)],
     [0.4, 0.2, 0.2, 0.2], "0x1.f6a7a2955385ep+2", 3),
    ("stower", (2, 1), [(0, 0), (0, 0), (0, 1)],
     [0.4, 0.4, 0.2], "0x1.f6a7a2955385ep+2", 2),
    ("stower", (3, 1), [(0, 0), (0, 0), (0, 0), (0, 1)],
     [0.2857142857142857, 0.2857142857142857, 0.2857142857142857, 0.14285714285714285], "0x1.5fdbbe9bba775p+3", 3),
    ("mandarin", (2,), [(0, 1), (0, 1)],
     [0.5, 0.5], "0x1.921fb54442d18p+2", 2),
    ("mandarin", (3,), [(0, 1), (0, 1), (0, 1)],
     [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], "0x1.2d97c7f3321d2p+3", 3),
    ("mandarin", (4,), [(0, 1), (0, 1), (0, 1), (0, 1)],
     [0.25, 0.25, 0.25, 0.25], "0x1.921fb54442d18p+3", 4),
    ("necklace", (1,), [(0, 1), (0, 1)],
     [0.5, 0.5], "0x1.921fb54442d18p+2", None),
    ("necklace", (2,), [(0, 1), (0, 1), (1, 2), (1, 2)],
     [0.25, 0.25, 0.25, 0.25], "0x1.921fb54442d18p+2", None),
    ("necklace", (3,), [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3)],
     [0.16666666666666666, 0.16666666666666666, 0.16666666666666666,
      0.16666666666666666, 0.16666666666666666, 0.16666666666666666], "0x1.921fb54442d18p+2", None),
    ("standarin", (2, 1, 1), [(0, 1), (0, 1), (0, 2), (0, 3)],
     [0.375, 0.375, 0.125, 0.125], "0x1.921fb54442d18p+2", 1),
    ("standarin", (2, 2, 0), [(0, 1), (0, 1), (1, 2), (1, 2)],
     [0.25, 0.25, 0.25, 0.25], "0x1.921fb54442d18p+2", 1),
    ("standarin", (2, 1, 2), [(0, 1), (0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
     [0.25, 0.25, 0.125, 0.125, 0.125, 0.125], "0x1.921fb54442d18p+2", 1),
    ("standarin", (2, 2, 1), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 3), (0, 4)],
     [0.1875, 0.1875, 0.1875, 0.1875, 0.125, 0.125], "0x1.921fb54442d18p+2", 1),
    ("standarin", (2, 3, 0), [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3)],
     [0.16666666666666666, 0.16666666666666666, 0.16666666666666666,
      0.16666666666666666, 0.16666666666666666, 0.16666666666666666], "0x1.921fb54442d18p+2", 1),
]


def test_the_catalog_is_pinned_to_the_bit():
    got = [(e.family, e.params, list(e.graph.edges), e.lengths.values.tolist(), e.gap.hex(), e.multiplicity)
           for e in full_catalog()]
    assert got == CATALOG_BITS


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


@pytest.mark.parametrize(
    "v, group, match",
    [(0, [1.7, 2.2], "integer"), (0, ["1", "2"], "integer"), (0.0, [1, 2], "integer"),
     (True, [1, 2], "integer"), (0, [0, 0, 1], "repeat")],
)
def test_symmetrize_needs_integer_ids_each_edge_once(v, group, match):
    # floats were truncated to edges (1, 2), strings and v = 0.0 accepted,
    # v = True blamed the group, and a repeated edge weighted the mean twice
    m = metric(*star(4))
    with pytest.raises(InvalidGroupError, match=match):
        symmetrize(m, v, group)


@pytest.mark.parametrize("m, group, match", [
    (metric(*star(4)), [1], "needs at least two edges"),
    (metric(*star(4)), [], "needs at least two edges"),
    (metric(*star(2)), [0, 1], "requires a graph with E >= 3"),
    (metric(*flower(2)), [0, 1], "requires a graph with E >= 3"),
])
def test_symmetrize_needs_two_edges_on_three(m, group, match):
    with pytest.raises(InvalidGroupError, match=match):
        symmetrize(m, 0, group)


def test_symmetrize_takes_numpy_integers():
    g, _ = star(4)
    m = metric(g, np.array([0.4, 0.2, 0.3, 0.1]))
    lv = symmetrize(m, np.int64(0), np.array([1, 2]))
    assert lv.values.tolist() == [0.4, 0.25, 0.25, 0.1]


def _groups_by_vertex_and_edge(g):
    """`symmetrizable_groups` as a loop over every (vertex, edge) pair, kept
    as the oracle."""
    deg = g.degrees()
    groups = []
    for v in range(g.vertex_count):
        loops = tuple(e for e, (a, b) in enumerate(g.edges) if a == v and b == v)
        dangling = tuple(
            e
            for e, (a, b) in enumerate(g.edges)
            if a != b and ((a == v and deg[b] == 1) or (b == v and deg[a] == 1))
        )
        if len(loops) >= 2:
            groups.append((v, "loops", loops))
        if len(dangling) >= 2:
            groups.append((v, "dangling", dangling))
    return groups


def test_symmetrizable_groups_equal_the_vertex_edge_loop():
    rng = np.random.default_rng(76)
    graphs = [entry.graph for entry in full_catalog()]
    graphs += [caterpillar(2, {0: 2, 1: 0, 2: 3})[0], DiscreteGraph(2, [(0, 1)])]
    for _ in range(50):
        V = int(rng.integers(2, 9))
        graphs.append(random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 5))))
    kinds = []
    for g in graphs:
        groups = optimize.symmetrizable_groups(g)
        assert repr(groups) == repr(_groups_by_vertex_and_edge(g)), g.edges
        kinds += [kind for _v, kind, _edges in groups]
    assert kinds.count("loops") >= 5 and kinds.count("dangling") >= 5


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


# stower starts whose ascents stalled 3.8e-6 to 1.7e-4 below the closed
# form, where the gap's two lowest branches cross: three stower(2, 1)
# starts from default_rng(1000 + s), stower(2, 2) from default_rng(3) with
# l_min = 0.02, and four stowers from default_rng(s), s = 1, 2, 3
STOWER_RUNS = (
    [(2, 1, 1000 + s, {}, s) for s in range(3)]
    + [(2, 2, 3, {"l_min": 0.02}, 0)]
    + [(p, q, s, {}, s) for p, q in ((1, 3), (3, 1), (2, 1), (2, 2)) for s in (1, 2, 3)]
)


@pytest.mark.parametrize("petals, leaves, start, sampling, seed", STOWER_RUNS,
                         ids=[f"stower{p}{q}-{i}" for i, (p, q, *_) in enumerate(STOWER_RUNS)])
def test_stower_ascents_land_on_the_crossing(petals, leaves, start, sampling, seed):
    # the bundle step lands on the crossing, where a density matrix on the
    # double gap's eigenspace levels the energies; each run takes about
    # 0.1 s on a 2-core machine, and is given 2 s of CPU time
    g = stower(petals, leaves)[0]
    init = random_lengths(np.random.default_rng(start), g.edge_count, **sampling)
    clock = time.process_time()
    res = maximize_gap(g, init, MaximizeOptions(seed=seed))
    assert time.process_time() - clock < 2.0
    assert abs(res.gap - PI * (2 * petals + leaves) / 2) <= 1e-9
    assert res.classification == "maximizer-candidate"
    assert is_critical(metric(g, res.lengths)).critical


def test_maximize_result_gap_matches_recomputation():
    g, _ = stower(1, 2)
    rng = np.random.default_rng(5)
    res = maximize_gap(g, random_lengths(rng, 3), MaximizeOptions(seeds=2, seed=5))

    mg, _ = contract_with_maps(g, res.lengths)
    k1, _ = spectral_gap(mg)
    assert k1 == pytest.approx(res.gap, abs=1e-8)


# starts whose seeded runs reach every site of the count decision: the
# halvings of the bundle step, its landings on the stower(2, 1) crossing,
# the step expansions and the contract probes
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


# star(4) lengths 1e-11 from equilateral: the start's gap is within
# IMPROVE_TOL of its symmetrization's, so symmetrizing it is no move
NEAR_EQUILATERAL = LengthVector([0.25 + 5e-12, 0.25 - 5e-12, 0.25, 0.25])
# a flower(4) start on the face flower(3), whose bound 3 pi lies below 4 pi
FLOWER4_BOUNDARY = LengthVector([0.25, 0.25, 0.5, 0.0])


@pytest.mark.parametrize("init", [NEAR_EQUILATERAL, LengthVector([0.26, 0.24, 0.25, 0.25])])
def test_a_refused_symmetrization_searches_the_start(monkeypatch, init):
    # with a slack of -1 both star(4) starts, whose gaps lie within 1 below
    # their symmetrizations' (the second more than IMPROVE_TOL below),
    # refuse to symmetrize: the ascent searches the start beside its
    # symmetrization and compares the two gaps in full
    search = optimize._gap_search
    searched = []

    def recorded(m, *count):
        searched.append(m.lengths.tobytes())
        return (yield from search(m, *count))

    monkeypatch.setattr(optimize, "_gap_search", recorded)
    monkeypatch.setattr(optimize, "GAP_SLACK", -1.0)
    g = star(4)[0]
    res = maximize_gap(g, init, MaximizeOptions(seeds=0))
    assert init.values.tobytes() in searched
    assert "symmetrize" not in [step.move for step in res.trace]
    assert res.trace[0] == optimize.TraceStep(spectral_gap(metric(g, init))[0], 0.0, "init")


def _restart_lengths(g, seed, j):
    """The lengths of restart j (from 1) of a `maximize_gap` call with this seed."""
    rng = np.random.default_rng(seed)
    for _ in range(j):
        lv = random_lengths(rng, g.edge_count, l_min=2 * optimize.L_MIN)
    return lv


def test_the_trace_opens_with_the_winning_start_gap():
    # the given start wins on star(4), restart 4 on stower(3, 2) from
    # default_rng(2) with option seed 2, whose given start ends 7.7e-10
    # below the bound (restart 6 of stower(2, 1) from default_rng(1000)
    # with option seed 0, until its given start reached the bound alone)
    g = star(4)[0]
    init = random_lengths(np.random.default_rng(1), 4)
    res = maximize_gap(g, init, MaximizeOptions(seed=1))
    assert res.trace[0].gap == spectral_gap(metric(g, init))[0]

    g = stower(3, 2)[0]
    init = random_lengths(np.random.default_rng(2), g.edge_count)
    res = maximize_gap(g, init, MaximizeOptions(seed=2))
    assert res.trace[0].gap == spectral_gap(metric(g, _restart_lengths(g, 2, 4)))[0]
    assert res.trace[0].gap != spectral_gap(metric(g, init))[0]


def test_no_full_search_is_spent_on_a_losing_candidate(monkeypatch):
    # every ascent appends the gap it holds to its trace whenever that gap
    # changes, so the trace's last entry is the gap a candidate must beat;
    # a full search is wasted when its value neither beats it by IMPROVE_TOL
    # nor becomes the next trace entry (symmetrize and contract moves).
    # The ascents run in lockstep, so each one marks its trace as the
    # current one whenever the driver resumes it; the search of each start
    # comes before its trace opens.
    traces, searches, current = [], [], []
    ascent, full_search = optimize._single_ascent, optimize._gap_search

    def traced_ascent(state, trace, *proof):
        traces.append(trace)
        inner = ascent(state, trace, *proof)
        value = None
        while True:
            current[:] = [trace]
            try:
                request = inner.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield request

    def recorded_search(m, *count):
        result = yield from full_search(m, *count)
        if m.lengths.tobytes() == init.values.tobytes():
            starts.append(result[0])
        else:
            trace = current[0]
            searches.append((result[0], trace, len(trace)))
        return result

    monkeypatch.setattr(optimize, "_single_ascent", traced_ascent)
    monkeypatch.setattr(optimize, "_gap_search", recorded_search)
    starts = []
    # the given start of stower(3, 2) ends below the bound, so both
    # restarts run (stower(2, 1) from default_rng(1000), until its given
    # start reached the bound alone)
    g = stower(3, 2)[0]
    init = random_lengths(np.random.default_rng(2), g.edge_count)
    maximize_gap(g, init, MaximizeOptions(seeds=2, seed=1))
    assert starts == [traces[0][0].gap]
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
        root = optimize._Topology(g)
        start = optimize._AscentState(root, init.values.copy())
        if init.zero_edges():
            start = optimize._settle(start, init.zero_edges())
        starts.append((g, start))
        rng = np.random.default_rng(seed)
        lv = random_lengths(rng, g.edge_count, l_min=2 * optimize.L_MIN).values
        starts.append((g, optimize._AscentState(root, lv)))
    return starts


def _ascent_documents(together):
    starts = _ascent_starts()
    traces = [[] for _ in starts]
    ascents = [optimize._single_ascent(start, trace) for (_, start), trace in zip(starts, traces)]
    if together:
        ends = spectral._drive(ascents)
    else:
        ends = [spectral._drive([ascent])[0] for ascent in ascents]
    return [_ascent_document(g, *end, trace) for (g, _), end, trace in zip(starts, ends, traces)]


def _ascent_document(g, state, gap, trace):
    res = optimize.OptimizationResult(state.original_lengths(), gap, "", tuple(trace))
    return json.dumps(res.to_dict())


def test_ascents_driven_together_equal_ascents_driven_alone():
    alone = _ascent_documents(together=False)
    assert _ascent_documents(together=True) == alone
    # the contracting start ran on two edges; the ascents did not all agree
    assert json.loads(alone[0])["lengths"][2] == 0.0
    assert len(set(alone)) > 1


def test_probes_in_lockstep_equal_probes_one_at_a_time(monkeypatch):
    # an ascent's round of faces, its contract probes and its pinned edges,
    # takes its counts together (`_together`), as do its start and the
    # start's symmetrization; run one after another
    # instead, each to its end, they give every result and trace the same,
    # on a star, on stower(1, 2), on the stower(2, 1) stall, and on
    # necklace(3), whose faces keep their probes
    runs = []

    def one_at_a_time(searches):
        if searches and searches[0].__name__ == "_gap_above":   # a round of faces, not the start round
            runs[-1].append(len(searches))
        results = []
        for search in searches:
            results.append((yield from search))
        return results

    cases = ((star(4)[0], random_lengths(np.random.default_rng(4), 4), 4),
             (stower(1, 2)[0], random_lengths(np.random.default_rng(12), 3), 12),
             (stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3), 0),
             (necklace(3)[0], random_lengths(np.random.default_rng(0), 6), 0))

    def documents():
        docs = []
        for g, init, seed in cases:
            runs.append([])
            docs.append(json.dumps(maximize_gap(g, init, MaximizeOptions(seed=seed)).to_dict()))
        return docs

    together = documents()
    runs.clear()
    monkeypatch.setattr(optimize, "_together", one_at_a_time)
    assert documents() == together
    # the faces of star(4), stars of three edges, have bound 3 pi / 2,
    # below the 2 pi its certified ascents hold, so none is probed (four
    # each before faces were bounded); each stower keeps two of its three
    # probes; necklace(3) and its five-edge faces keep all six, its
    # four-edge faces four of five, and its flower(3) face runs no batch
    # (three before).  Its pinned edges join a round of six probes as its
    # seventh face, or make a round of one after a step: 23 rounds, where
    # 25 rounds of probes alone, sized 4 and 6, ran before the pins joined
    # them and ascents idled at the floor
    assert [sorted(set(r)) for r in runs] == [[], [2], [2], [1, 4, 6, 7]]
    assert len(runs[3]) == 23


def test_each_face_is_contracted_once_per_call(contractions, monkeypatch):
    # the five faces of star(5), one leaf edge dropped in each, are stars of
    # bound 2 pi, below its gap 5 pi / 2: none is built
    g, lengths = star(5)
    maximize_gap(g, lengths, MaximizeOptions(seeds=10))
    assert contractions.n == 0
    # the 11 starts of necklace(3) probe the same faces; the starts share one
    # topology tree, which builds every face on its first request
    child, asked = optimize._Topology.child, []

    def watched(topo, lengths):
        asked.append((topo, tuple(np.flatnonzero(lengths == 0.0).tolist())))
        return child(topo, lengths)

    monkeypatch.setattr(optimize._Topology, "child", watched)
    g = necklace(3)[0]
    maximize_gap(g, random_lengths(np.random.default_rng(0), 6), MaximizeOptions(seeds=10))
    assert 0 < contractions.n == len(set(asked)) < len(asked)


def test_new_faces_build_no_length_vector_or_metric_graph(monkeypatch):
    # a face reads no lengths: `_Topology.child` contracts the incidence
    # alone, so no LengthVector or MetricGraph is constructed for it
    built = {"LengthVector": 0, "MetricGraph": 0}
    for cls in (LengthVector, optimize.MetricGraph):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    faces = []
    child = optimize._Topology.child

    def watched(topo, lengths):
        before, new = dict(built), len(topo.children)
        out = child(topo, lengths)
        faces.append((len(topo.children) - new, before == built))
        return out

    monkeypatch.setattr(optimize._Topology, "child", watched)
    for g, init in ((star(4)[0], random_lengths(np.random.default_rng(1), 4)),
                    (stower(1, 2)[0], random_lengths(np.random.default_rng(7), 3)),
                    (necklace(3)[0], random_lengths(np.random.default_rng(0), 6))):
        maximize_gap(g, init, MaximizeOptions(seeds=3, seed=1))
    assert sum(new for new, _ in faces) >= 4
    assert all(untouched for _, untouched in faces)


def test_restart_sampler_draws_the_public_stream_unvalidated():
    # maximize_gap's restarts take successive families.random_lengths draws,
    # in one call of the generator, without the LengthVector whose checks
    # cannot fail on them: the rows are the same bits, the generator ends
    # in the same state, and LengthVector keeps every row as it is
    # (finite, positive, not renormalized)
    l_min = 2 * optimize.L_MIN
    for seed in range(200):
        public, private = np.random.default_rng(seed), np.random.default_rng(seed)
        for E in range(1, 25):
            rows = families._simplex_samples(private, E, l_min, 1 + (seed + E) % 10)
            for x in rows:
                assert x.tobytes() == random_lengths(public, E, l_min).values.tobytes(), (seed, E)
                assert np.isfinite(x).all() and (x > 0.0).all(), (seed, E)
                assert LengthVector(x).values.tobytes() == x.tobytes(), (seed, E)
        assert private.random() == public.random(), seed


def _settle_through_length_vector(state, drop):
    """`_settle` as it formed the contracted lengths through `LengthVector`,
    kept as the oracle."""
    lv = state.lengths.copy()
    lv[list(drop)] = 0.0
    lengths = LengthVector(lv / lv.sum())
    mg, edge_map = contract_with_maps(state.topo.graph, lengths)
    lv = lengths.values[lengths.values != 0.0]
    for _v, _kind, group in optimize.symmetrizable_groups(mg.graph) if mg.graph.edge_count >= 3 else []:
        lv[list(group)] = lv[list(group)].mean()
    orig_map = [None if cur is None else edge_map[cur] for cur in state.topo.edge_map]
    return mg.graph.edges, (lv / lv.sum()).tolist(), orig_map


def test_settle_equals_the_length_vector_path():
    rng = np.random.default_rng(45)
    cases = 0
    for g, _ in (star(5), flower(4), stower(1, 2), stower(2, 2), caterpillar(2, {0: 1, 1: 1, 2: 1})):
        root = optimize._Topology(g)
        for _ in range(20):
            lv = random_lengths(rng, g.edge_count, l_min=optimize.L_MIN).values
            for drop in root.probes:
                state = optimize._AscentState(root, lv.copy())
                settled = optimize._settle(state, drop)
                got = (settled.topo.graph.edges, settled.lengths.tolist(), settled.topo.edge_map)
                assert repr(got) == repr(_settle_through_length_vector(state, drop)), (g.edges, drop)
                cases += 1
    assert cases == 20 * (5 + 4 + 3 + 4 + 6)   # the caterpillar probes its two spine edges at once too


# restarts of these graphs reach the same states (stars and flowers in
# their first symmetrization), save stower (1, 2)'s, which never do
MERGE_GRAPHS = (star(4)[0], star(5)[0], flower(4)[0], stower(1, 2)[0])


def test_merged_restarts_equal_unmerged_ones(monkeypatch):
    # with no stop at the bound, every restart runs to its own end, and
    # every result is the same
    def documents():
        return [
            json.dumps(maximize_gap(g, random_lengths(np.random.default_rng(s), g.edge_count),
                                    MaximizeOptions(seeds=10, seed=s)).to_dict())
            for s, g in enumerate(MERGE_GRAPHS)
        ]

    merged = documents()
    ascent = optimize._single_ascent
    monkeypatch.setattr(optimize, "_single_ascent", lambda state, trace, *proof: ascent(state, trace))
    assert documents() == merged


def test_each_ascent_runs_as_it_would_alone():
    # with no stop at a bound, every ascent of one lockstep ends where it
    # ends driven alone, with the same trace: on the dumbbell from the
    # starts (a, b, b), where the ascent from b reaches a state of the one
    # from a in its second iteration, and on the lasso, from the starts of
    # a call with two restarts
    rng = np.random.default_rng(0)
    _, a, b = (random_lengths(rng, 3, l_min=2 * optimize.L_MIN).values for _ in range(3))
    lasso = stower(1, 1)[0]
    runs = ((dumbbell(0.5)[0], (a, b, b)),
            (lasso, [_restart_lengths(lasso, 0, j).values for j in (3, 1, 2)]))
    for g, lvs in runs:
        def starts():
            root = optimize._Topology(g)
            return [optimize._AscentState(root, lv.copy()) for lv in lvs]

        together = [_ascent_document(g, *end) for end in optimize._ascend(starts(), math.inf)]
        alone = []
        for start in starts():
            trace = []
            alone.append(_ascent_document(g, *spectral._drive([optimize._single_ascent(start, trace)])[0], trace))
        assert together == alone, g
        if g != lasso:
            assert together[1] == together[2] != together[0]


def test_restarts_that_meet_solve_each_eigenspace_once(eigenbases, count_matrices):
    # every restart of star(5) symmetrizes to the equilateral star in its
    # first iteration, where the given start holds the bound alone: no
    # restart runs
    g, lengths = star(5)
    maximize_gap(g, lengths, MaximizeOptions(seeds=10))
    assert eigenbases.n <= 5
    assert count_matrices.n <= 46


def test_each_held_state_is_searched_once_per_call(count_matrices):
    # every restart of a star or a flower symmetrizes to the canonical
    # lengths.  From there the given start holds the bound alone, and its
    # restarts never start; from the boundary of flower(4) it ends on
    # flower(3), and each of the ten restarts searches its start and the
    # canonical lengths, and ends there.  An ascent's contract probes take
    # their counts together, one stacked call per step
    #
    # 337 and 236 count matrices when each restart searched for itself, 198
    # and 160 when each start was searched; 19 and 13 stacked calls when
    # the probes took their counts one after another; 46 and 25 matrices in
    # 14 and 9 calls when the certified gap still took a count at the top
    # of a fixed window above it; 41 and 22 in 13 and 7 calls when every
    # face was probed, though its bound lies below the gap; 26 and 14 in 10
    # and 5 calls when the restarts ran beside the given start.  The
    # flower(4) boundary start took 37 in 28 calls while the restarts
    # shared one search of the canonical lengths and counts decided their
    # symmetrizations.  star(5), flower(4) and its boundary start took 9, 4
    # and 189 matrices in 9, 4 and 25 calls while a Neumann gap search took
    # a count at its cap
    for (g, lengths), tally, calls in ((star(5), 6, 6), (flower(4), 3, 3),
                                       ((flower(4)[0], FLOWER4_BOUNDARY), 151, 26)):
        count_matrices.n = count_matrices.calls = 0
        maximize_gap(g, lengths, MaximizeOptions(seeds=10))
        assert (count_matrices.n, count_matrices.calls) == (tally, calls), g


def test_a_two_level_cluster_window_matches_the_full_scan(monkeypatch):
    # the window search starts from the count just above the gap and ends at
    # k^2 = k1^2 + 2 STEP_SCALE |g|, g the gap's ascent direction; where it
    # finds a second level, that level is the one a scan of the whole
    # window from below k1 finds next, and its branch carries the energies
    # of its eigenspace trace, set to their mean on the petals
    cluster, first_level = optimize._cluster_energies, optimize._first_level
    windows = []

    def recorded_cluster(m, gap, groups):
        windows.append([m, gap, []])
        branches = yield from cluster(m, gap, groups)
        windows[-1].append(branches)
        return branches

    def recorded_level(count, lo, k_hi, at_least=None):
        found = yield from first_level(count, lo, k_hi, at_least)
        windows[-1][2].append((k_hi, found))
        return found

    monkeypatch.setattr(optimize, "_cluster_energies", recorded_cluster)
    monkeypatch.setattr(optimize, "_first_level", recorded_level)
    g = stower(2, 1)[0]
    maximize_gap(g, random_lengths(np.random.default_rng(1000), 3), MaximizeOptions(seed=0, seeds=0))
    two = [(m, gap, top, found, branches) for m, gap, [(top, found)], branches in
           (w for w in windows if w[3] is not None) if found is not None]
    assert len(two) >= 3
    for m, gap, top, level, branches in two:
        assert top == math.sqrt(gap.k**2 + 2.0 * optimize.STEP_SCALE * branches[0].norm)
        scan = spectral._eigenvalue_search(m, top, gap.k - 1e-7)
        pairs = spectral._drive([scan])[0].eigenpairs
        assert [p.multiplicity for p in pairs[:2]] == [gap.multiplicity, level.multiplicity]
        assert level.k == pytest.approx(pairs[1].k, rel=1e-12, abs=0.0)
        assert branches[1].lam == level.k**2
        trace = sum(f.energies() for f in spectral._eigenbasis(m, level.k, level.multiplicity)) / level.multiplicity
        for group in optimize._Topology(g).groups:   # the two petals, of equal length
            trace[group] = trace[group].mean()
        assert branches[1].h == pytest.approx(trace, rel=1e-12)


def test_restarts_that_never_meet_keep_their_solves(eigenbases, monkeypatch):
    # the given start contracts the loop of stower(1, 2) onto a path of
    # bound pi, below the 2 pi the restarts reach, so they run.  With no
    # stop at the bound: the gap's eigenspace in every iteration, and a
    # second level's where it lies in the window; restarts 4, 5 and 9
    # symmetrize onto a certified point in their first iteration and keep
    # its solve for the second.  From the canonical start, which now holds
    # the bound alone in one solve: 20 with no stop (21 when one stacked
    # solve took both levels, 23 when restarts 4, 5 and 9 solved their
    # point again), 4 with the restarts beside the given start.  With the
    # stop, 7: restarts 4, 5 and 9 hold the bound 2 pi after their first
    # symmetrization, and every other restart but 3 stops at the top of
    # its first iteration, before its first solve (18 when counts decided
    # each restart's first symmetrization, and six restarts passed that
    # point before the stop)
    g = stower(1, 2)[0]
    init = LengthVector([0.0, 0.5, 0.5])
    maximize_gap(g, init, MaximizeOptions(seeds=10))
    assert eigenbases.n == 5   # once a restart holds the bound 2 pi, the others stop
    ascend = optimize._ascend
    monkeypatch.setattr(optimize, "_ascend", lambda starts, bound: ascend(starts, math.inf))
    eigenbases.n = 0
    maximize_gap(g, init, MaximizeOptions(seeds=10))
    assert eigenbases.n == 21


def _rebuilt_child(topo, lengths):
    mg, edge_map = contract_with_maps(topo.graph, lengths)
    return optimize._Topology(mg.graph, [None if cur is None else edge_map[cur] for cur in topo.edge_map])


def test_shared_topologies_equal_rebuilt_ones(monkeypatch):
    catalog = full_catalog()
    runs = [
        (catalog[i].graph, random_lengths(np.random.default_rng(500 + i), catalog[i].graph.edge_count), i)
        for i in (2, 5, 9, 17, 18, 19, 20)   # star 4, flower 3, stower (1, 2), necklaces, standarins
    ]
    runs.append((stower(1, 2)[0], LengthVector([0.5, 0.5, 0.0]), 0))

    def documents():
        return [
            json.dumps(maximize_gap(g, init, MaximizeOptions(seeds=2, seed=s)).to_dict())
            for g, init, s in runs
        ]

    shared = documents()
    monkeypatch.setattr(optimize._Topology, "child", _rebuilt_child)
    assert documents() == shared


def test_cluster_energies_equal_the_eigenfunction_energies():
    # at the maximizers of star(4), flower(3) and mandarin(3) the gap is
    # multiple and its eigenspace trace, the mean energy of its
    # eigenfunctions, is level on the edges: the gap is certified with
    # rho = I/m, and no count is taken for a window above it
    for g, _ in (star(4), flower(3), mandarin(3)):
        m = metric(g)
        gap = spectral._drive([spectral._gap_search(m)])[0]
        assert gap.multiplicity > 1
        (basis,) = spectral._eigenbasis_coeffs(m, [gap.k], [gap.multiplicity])
        total = sum(f.energies() for f in spectral._eigenbasis(m, gap.k, gap.multiplicity))
        energies = optimize._trace_energies(gap.k, basis)
        assert repr(energies.tolist()) == repr((total / gap.multiplicity).tolist())
        with pytest.raises(StopIteration) as stop:
            next(optimize._cluster_energies(m, gap, []))
        assert stop.value.value is None


def _bound_graphs():
    """The catalog, two caterpillars and 200 seeded random graphs."""
    rng = np.random.default_rng(34)
    graphs = [entry.graph for entry in full_catalog()]
    graphs += [caterpillar(1, {0: 2, 1: 1})[0], caterpillar(2, {0: 1, 1: 1, 2: 1})[0]]
    for _ in range(200):
        V = int(rng.integers(2, 7))
        graphs.append(random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 4))))
    return graphs, rng


def _contracted_bound(g, drop):
    """`upper_bound` of the face `graph._contract` builds, infinite where it does not apply."""
    face, _ = optimize._contract(g, np.isin(np.arange(g.edge_count), drop))
    try:
        return upper_bound(face)
    except NotApplicableError:
        return math.inf


def test_face_bounds_equal_the_bounds_of_the_built_faces():
    # every probe's bound, and that of a random set of edges as a pin drops
    # them, read off the incidence, equals the bound of the face it names
    graphs, rng = _bound_graphs()
    probes = 0
    for g in graphs:
        assert optimize._face_bound(g, ()) == _contracted_bound(g, [])
        if g.edge_count < 2:   # the ascent probes no face of a single edge
            continue
        topo = optimize._Topology(g)
        for drop, bound in zip(topo.probes, topo.bounds):
            assert bound == _contracted_bound(g, drop), (g, drop)
            probes += 1
        drop = sorted(rng.choice(g.edge_count, int(rng.integers(1, g.edge_count)), replace=False).tolist())
        assert optimize._face_bound(g, drop) == _contracted_bound(g, drop), (g, drop)
    assert probes > 1000


def _catalog_runs():
    """A random and a boundary start of every catalog graph."""
    runs = []
    for i, entry in enumerate(full_catalog()):
        g, rng = entry.graph, np.random.default_rng(700 + i)
        boundary = random_lengths(rng, g.edge_count).values.copy()
        boundary[int(rng.integers(g.edge_count))] = 0.0
        runs.append((g, random_lengths(rng, g.edge_count), i))
        runs.append((g, LengthVector(boundary / boundary.sum()), i))
    return runs


def test_skipping_faces_by_their_bound_changes_no_result(monkeypatch):
    # with every face's bound infinite, every probe and pin is built and
    # searched: each result and trace is the same, and every probe whose
    # bound lies below its floor, run through `_gap_above`, is refused.
    # The root's bound stays, so the restarts stop at it in both runs
    def documents():
        return [json.dumps(maximize_gap(g, init, MaximizeOptions(seeds=2, seed=s)).to_dict())
                for g, init, s in _catalog_runs()]

    bounded = documents()
    face_bound, decide, below = optimize._face_bound, optimize._gap_above, []

    def recorded(m, floor):
        found = yield from decide(m, floor)
        if face_bound(m.graph, ()) < floor * (1.0 - optimize.BOUND_MARGIN):
            below.append(found)
        return found

    monkeypatch.setattr(optimize, "_face_bound", lambda g, drop: math.inf if len(drop) else face_bound(g, drop))
    monkeypatch.setattr(optimize, "_gap_above", recorded)
    assert documents() == bounded
    assert len(below) > 50 and all(found is None for found in below)


def test_a_tie_at_a_certified_point_keeps_its_probe(monkeypatch):
    # the caterpillar's ascent is certified 9e-11 below 3 pi / 2; the face
    # that contracts its spine is star(3), whose bound 3 pi / 2 is its gap:
    # it lies within 2 GAP_SLACK above the floor, so the probe runs and wins
    decide, probed = optimize._gap_above, []

    def recorded(m, floor):
        found = yield from decide(m, floor)
        probed.append((m.graph, floor, found))
        return found

    monkeypatch.setattr(optimize, "_gap_above", recorded)
    g, init = caterpillar(1, {0: 2, 1: 1})
    res = maximize_gap(g, init, MaximizeOptions(seeds=2, seed=3))
    face = star(3)[0]
    ties = [(floor, found) for graph, floor, found in probed if graph == face]
    assert ties
    for floor, found in ties:
        assert 0.0 < upper_bound(face) - floor <= 2 * optimize.GAP_SLACK
        assert found is not None and found.k == pytest.approx(1.5 * PI, abs=1e-12)
    assert res.trace[-1].move == "contract-probe"


@pytest.mark.parametrize("g, init, bound", [
    (star(4)[0], random_lengths(np.random.default_rng(1), 4), "pi \\(E - El/2\\)"),
    (*caterpillar(1, {0: 2, 1: 1}), "pi / tree_diameter"),
])
def test_a_gap_above_a_proven_bound_raises(monkeypatch, g, init, bound):
    # star(4) ends on its bound 2 pi; the caterpillar ends on star(3), whose
    # pi / diameter, 3 pi / 2, lies below the caterpillar's pi (E - El/2).
    # Both results pass their checks; 1e-7 above them, they raise
    ascend = optimize._ascend
    maximize_gap(g, init, MaximizeOptions(seeds=2, seed=3))
    monkeypatch.setattr(optimize, "_ascend",
                        lambda starts, bound: [(state, gap + 1e-7, trace)
                                               for state, gap, trace in ascend(starts, bound)])
    with pytest.raises(RuntimeError, match=bound):
        maximize_gap(g, init, MaximizeOptions(seeds=2, seed=3))


@pytest.mark.parametrize("init", [[0.5, 0.5], [0.2] * 5, LengthVector([1 / 3] * 3)])
def test_maximize_needs_one_start_length_per_edge(init):
    with pytest.raises(InvalidInputError, match="init lengths do not match the graph"):
        maximize_gap(star(4)[0], init)


def _ascents(monkeypatch, g, init, options, stop=True):
    """The bound `maximize_gap` hands `_ascend`, and the gap, original
    lengths and trace of every ascent it runs; with stop False every
    ascent is driven alone to its own end, under its own `_Proof` of the
    bound, so its floors are those of the call."""
    ascend, got = optimize._ascend, []

    def alone(starts, bound):
        ends = []
        for start in starts:
            trace = []
            ascent = optimize._single_ascent(start, trace, optimize._Proof(bound))
            ends.append((*spectral._drive([ascent])[0], trace))
        return ends

    def recorded(starts, bound):
        ends = (ascend if stop else alone)(starts, bound)
        got.append((bound, [(gap, state.original_lengths().values.tolist(), [repr(t) for t in trace])
                            for state, gap, trace in ends]))
        return ends

    monkeypatch.setattr(optimize, "_ascend", recorded)
    maximize_gap(g, init, options)
    monkeypatch.setattr(optimize, "_ascend", ascend)
    return got[0]


# the stower(2, 1) and stower(2, 2) inputs of perfbench's `maximize`, the
# stower(1, 2) boundary start of the CLI pins, whose face is a lasso, and
# stower(3, 2) from default_rng(2), whose given start ends 7.7e-10 below
# the bound
STOP_RUNS = (
    (stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3), MaximizeOptions(seed=0)),
    (stower(2, 2)[0], random_lengths(np.random.default_rng(3), 4, l_min=0.02), MaximizeOptions(seed=0)),
    (stower(1, 2)[0], LengthVector([0.5, 0.5, 0.0]), MaximizeOptions(seed=1)),
    (stower(3, 2)[0], random_lengths(np.random.default_rng(2), 5), MaximizeOptions(seed=2)),
)


def test_an_ascent_at_the_bound_ends_as_it_would_alone(monkeypatch):
    # the bound is the graph's, not that of a boundary start's face.  Once
    # an ascent holds a gap within GAP_SLACK of it, every ascent below ends
    # at its next iteration, on a prefix of the trace it takes alone; one
    # at the bound runs on to its own end, as stower(1, 2)'s boundary start
    # does to tie its face's supremizer [1, 0, 0].  Alone, each ascent
    # holds its own `_Proof` of the bound, whose floors it meets in the
    # call.  The given starts of stower(2, 1), stower(2, 2) and
    # stower(1, 2) reach the bound alone, so their restarts never start;
    # stower(3, 2)'s ends below it, and its restarts run
    stopped = 0
    for g, init, options in STOP_RUNS:
        bound, ends = _ascents(monkeypatch, g, init, options)
        assert bound == upper_bound(g)
        _, alone = _ascents(monkeypatch, g, init, options, stop=False)
        for end, own in zip(ends, alone):
            if end[0] >= bound - optimize.GAP_SLACK:
                assert end == own
            else:
                assert end[2] == own[2][:len(end[2])]
                stopped += end != own
    # stower(3, 2)'s given start runs to its own end before its restarts
    # start.  6 restarts of stower(2, 1) stopped while its given start
    # ended 6.3e-10 below the bound, and 5 of stower(2, 2)'s when every
    # ascent ran beside the given start
    assert stopped == 7   # restarts of stower(3, 2)


def test_the_stop_saves_counts_on_the_stowers(count_matrices, monkeypatch):
    # count matrices and stacked calls of perfbench's stower(2, 1) and
    # stower(2, 2) operations, with the stop and with every ascent run to
    # its own end.  The given starts of both reach the bound alone (830
    # and 100 for stower(2, 2) when the restarts ran beside it).  That of
    # stower(2, 1) took (1127, 221) while a trial had to gain IMPROVE_TOL
    # even onto the bound: it ended 6.3e-10 below it and its restarts ran
    # (963 and 122 beside it).  Every ascent searches its start beside the
    # start's symmetrization; when counts decided the restarts' first
    # symmetrization instead, and restarts merged where they met, the
    # tallies were (1009, 244) and (143, 131) with the stop, (1198, 176)
    # and (976, 131) without it.  They took (140, 127) and (142, 134) with
    # the stop, and (1323, 161) and (1111, 134) without it, while a Neumann
    # gap search took a count at its cap.  stower(2, 2) took (133, 126) and
    # (1039, 126) while regula falsi bisected onto an end whose value reads
    # rounding noise
    ascend = optimize._ascend
    for (g, init, options), stopping, running in zip(STOP_RUNS[:2], ((98, 88), (112, 105)), ((921, 117), (851, 105))):
        count_matrices.n = count_matrices.calls = 0
        maximize_gap(g, init, options)
        assert (count_matrices.n, count_matrices.calls) == stopping, g
        monkeypatch.setattr(optimize, "_ascend", lambda starts, bound: ascend(starts, math.inf))
        count_matrices.n = count_matrices.calls = 0
        maximize_gap(g, init, options)
        assert (count_matrices.n, count_matrices.calls) == running, g
        monkeypatch.setattr(optimize, "_ascend", ascend)


def test_the_stop_changes_nothing_where_no_ascent_reaches_the_bound(monkeypatch):
    # pi (E - El/2) is infinite on the lasso and not attained on necklace(3),
    # the dumbbell, a standarin chain, the leaf-digon-leaf graph and the
    # caterpillar, whose maximum 3 pi / 2 is the bound of its face star(3):
    # no ascent stops, and every result is the same to the bit
    graphs = (stower(1, 1)[0], necklace(3)[0], dumbbell(0.5)[0], families.standarin_chain(2, 1, 2)[0],
              DiscreteGraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)]), caterpillar(1, {0: 2, 1: 1})[0])

    def documents():
        return [json.dumps(maximize_gap(g, random_lengths(np.random.default_rng(100 + s), g.edge_count),
                                        MaximizeOptions(seeds=4, seed=s)).to_dict())
                for g in graphs for s in (0, 1)]

    stopping = documents()
    ascend = optimize._ascend
    monkeypatch.setattr(optimize, "_ascend", lambda starts, bound: ascend(starts, math.inf))
    assert documents() == stopping


def _requests_by_ascent(monkeypatch):
    """The count requests each ascent of a `maximize_gap` call hands up,
    keyed by the order the ascents are created in, the given start's
    first; an ascent that never starts hands up none."""
    ascent, requests = optimize._single_ascent, {}
    created = itertools.count()

    def counted(state, trace, *proof):
        inner, index = ascent(state, trace, *proof), next(created)
        value = None
        while True:
            try:
                request = inner.send(value)
            except StopIteration as stop:
                return stop.value
            requests[index] = requests.get(index, 0) + 1
            value = yield request

    monkeypatch.setattr(optimize, "_single_ascent", counted)
    return requests


@pytest.mark.parametrize("g, init, options", [
    (star(5)[0], random_lengths(np.random.default_rng(1), 5), MaximizeOptions(seed=1)),
    (flower(4)[0], random_lengths(np.random.default_rng(1), 4), MaximizeOptions(seed=1)),
    (mandarin(3)[0], random_lengths(np.random.default_rng(1), 3), MaximizeOptions(seed=1)),
    STOP_RUNS[0],   # perfbench's stower(2, 1)
    STOP_RUNS[1],   # perfbench's stower(2, 2)
    (stower(1, 3)[0], random_lengths(np.random.default_rng(2), 4), MaximizeOptions(seed=2)),
    (stower(2, 1)[0], random_lengths(np.random.default_rng(4), 3), MaximizeOptions(seed=4)),
], ids=["star5", "flower4", "mandarin3", "stower21", "stower22", "stower13-s2", "stower21-s4"])
def test_a_given_start_at_the_bound_runs_alone(monkeypatch, g, init, options):
    # the given start goes first; once its gap comes within GAP_SLACK of
    # pi (E - El/2), its restarts never start and take no count.  The
    # given starts of both stower(2, 1) runs and of stower(1, 3) ended
    # 6.3e-10, 8.5e-10 and 5.3e-10 below the bound while a trial had to
    # gain IMPROVE_TOL even onto it
    requests = _requests_by_ascent(monkeypatch)
    res = maximize_gap(g, init, options)
    assert res.gap >= upper_bound(g) - optimize.GAP_SLACK
    assert list(requests) == [0]


def test_an_ascent_within_improve_tol_of_the_bound_reaches_it():
    # stower(2, 1)'s ascent from perfbench's input climbs to 6.3e-10 below
    # 5 pi / 2 by a step of 4e-8; its next trial gains less than
    # IMPROVE_TOL, but it passes the bound less GAP_SLACK, so it moves
    g = stower(2, 1)[0]
    res = maximize_gap(g, random_lengths(np.random.default_rng(1000), 3), MaximizeOptions(seeds=0, seed=0))
    assert res.gap >= upper_bound(g) - optimize.GAP_SLACK
    assert res.trace[-1].move == "gradient"
    assert res.trace[-1].gap - res.trace[-2].gap < optimize.IMPROVE_TOL


def test_every_gradient_move_gains_and_only_one_falls_short_of_improve_tol(monkeypatch):
    # a gradient move beats the gap held before it.  It gains less than
    # IMPROVE_TOL only where it reaches the call's bound less GAP_SLACK,
    # where the ascent's floor is that threshold, so at most once a trace
    ascend, runs = optimize._ascend, []

    def recorded(starts, bound):
        ends = ascend(starts, bound)
        runs.append((bound, [trace for *_, trace in ends]))
        return ends

    monkeypatch.setattr(optimize, "_ascend", recorded)
    for g, init, options in STOP_RUNS:
        maximize_gap(g, init, options)
    for g, init, s in _catalog_runs():
        maximize_gap(g, init, MaximizeOptions(seeds=2, seed=s))
    short = 0
    for bound, traces in runs:
        for trace in traces:
            gains = [b.gap - a.gap for a, b in zip(trace, trace[1:]) if b.move == "gradient"]
            assert all(gain > 0.0 for gain in gains), trace
            ends = [b.gap for a, b in zip(trace, trace[1:])
                    if b.move == "gradient" and b.gap - a.gap < optimize.IMPROVE_TOL]
            assert len(ends) <= 1 and all(end >= bound - optimize.GAP_SLACK for end in ends), trace
            short += len(ends)
    assert short >= 1


def _digest(res):
    return hashlib.sha256(json.dumps(res.to_dict()).encode()).hexdigest()


# runs in which no ascent reaches pi (E - El/2): the sha256 of the result's
# to_dict() JSON and the count matrices of the call, as they were when every
# restart ran beside the given start, from random_lengths(default_rng(s))
# with option seed s.  The standarin's and the dumbbell's tallies were 2824
# and 1664 when counts decided each restart's first symmetrization; the
# necklace's, the standarin's and the dumbbell's were 5494, 2965 and 1816
# while ascents idled at the floor until a pin fired, and a pin took a full
# gap search apart from the probes; all four were 5561, 2924, 1728 and
# 12075 while a Neumann gap search took a count at its cap; the necklace's
# and the standarin's were 5396 and 2815 while regula falsi bisected onto an
# end whose value reads rounding noise
BELOW_BOUND_RUNS = (
    (necklace(3)[0], 1, "ba7d11d43b030df1628bf94d8d63779c4f8742b70d39014025986d62748fb604", 3787),
    (families.standarin_chain(2, 1, 2)[0], 1, "fc8af5793cf04b6bda69e1a25a46b976dda2513720ef123aff513514b975396f", 2684),
    (dumbbell(0.5)[0], 1, "921b1e509d61290dc8aa3d93c7aa046db2774510f5deb7ee655318cf7fe01b0c", 1746),
    (DiscreteGraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)]), 2,
     "ae8af9d4c7935aa7b295a9b967f5b3995c9f1ec83755d2e1e85a45b06a886238", 10816),
)


@pytest.mark.parametrize("g, s, digest, tally", BELOW_BOUND_RUNS,
                         ids=["necklace3", "standarin212", "dumbbell", "leaf-digon-leaf"])
def test_restarts_after_a_given_start_below_the_bound_change_nothing(count_matrices, g, s, digest, tally):
    # the given start ends below the bound, so every restart runs after it,
    # each sent the values it gets alone: the result and the count matrices
    # are those of the lockstep of all eleven
    res = maximize_gap(g, random_lengths(np.random.default_rng(s), g.edge_count), MaximizeOptions(seed=s))
    assert (_digest(res), count_matrices.n) == (digest, tally)


# runs whose ascents contract edges pinned at the length floor: the sha256 of
# the result's to_dict() JSON.  Every ascent of the two-edge path with a loop
# at one end stops stepping with an edge at the floor before its pin
# contracts it; the one pin of the four-edge graph is refused; necklace(3)
# from default_rng(4) has both refused pins and ascents that stop stepping
# with an edge at the floor
PINNED_RUNS = (
    (DiscreteGraph(3, [(0, 1), (1, 2), (0, 0)]),
     [0.4261927337646777, 0.0653504466286606, 0.5084568196066617], MaximizeOptions(seeds=3, seed=1),
     "57269ccbb7cab900e231566dc2bbb455508b329d8519e2e9ebc2b1facd3ad8e2"),
    (DiscreteGraph(3, [(0, 1), (1, 2), (1, 2), (0, 2)]),
     [0.1735519992293514, 0.3638002758842847, 0.18517021304673062, 0.2774775118396333],
     MaximizeOptions(seeds=3, seed=3),
     "e2c473e1b699024ba9665398850b1a000880ab3df2f3058dfb4c813010979820"),
    (necklace(3)[0], random_lengths(np.random.default_rng(4), 6), MaximizeOptions(seed=4),
     "ad20fb2d92633abc2309a83db6a1104ef8e92a3d4d43ca5fa4eb1889477c1914"),
)


@pytest.mark.parametrize("g, init, options, digest", PINNED_RUNS,
                         ids=["path-loop", "refused-pin", "necklace3-seed4"])
def test_contractions_of_pinned_edges_are_pinned(g, init, options, digest):
    assert _digest(maximize_gap(g, init, options)) == digest


def test_an_infinite_bound_keeps_one_lockstep(count_matrices):
    # no proof can end a call on the lasso, whose bound is infinite: every
    # ascent runs beside the given start.  Each ascent searches its own
    # start and first symmetrization: 633 matrices in 95 calls when counts
    # decided the restarts' first symmetrizations and restarts merged, 783
    # in 171 while ascents idled at the floor until a pin fired, 728 in 137
    # while a Neumann gap search took a count at its cap
    g = stower(1, 1)[0]
    res = maximize_gap(g, random_lengths(np.random.default_rng(1), 2), MaximizeOptions(seed=1))
    assert _digest(res) == "7a6853f24e06d45bd94db163e4bee3d62d191123c87987ed009384339f2225be"
    assert (count_matrices.n, count_matrices.calls) == (743, 132)


@pytest.mark.parametrize("s, restarts", [(2, True), (4, False), (6, True)])
def test_mandarin4_ends_on_its_bound(monkeypatch, s, restarts):
    # mandarin(4)'s ascents may end short of 4 pi (FOUND 89).  The given
    # starts of s = 2 and 6 end below the bound, so the restarts run, and
    # the first to reach it runs on to its own end; that of s = 4 reaches
    # it alone
    requests = _requests_by_ascent(monkeypatch)
    g = mandarin(4)[0]
    res = maximize_gap(g, random_lengths(np.random.default_rng(s), 4), MaximizeOptions(seed=s))
    assert abs(res.gap - 4 * PI) <= 1e-10
    assert (len(requests) > 1) == restarts


def _projection_formula(y, l_min):
    """The array formula of the simplex projection, kept as the oracle."""
    n = y.size
    budget = 1.0 - n * l_min
    z = y - l_min
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - budget
    rho = np.nonzero(u * np.arange(1, n + 1) > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(z - tau, 0.0) + l_min


def test_float_projection_equals_the_array_formula():
    rng = np.random.default_rng(19)
    l_min = optimize.L_MIN
    for n in range(1, 7):
        for trial in range(300):
            y = random_lengths(rng, n, l_min=l_min).values + rng.normal(0.0, 0.3, n)
            if trial % 3 == 0:   # ties
                y[rng.integers(n, size=2)] = y[0]
            if trial % 3 == 1:   # entries on a coarse grid, some at the floor
                y = rng.integers(0, 5, n) / 8.0
                y[rng.random(n) < 0.5] = l_min
            projected = optimize._project_simplex_lb(y, l_min)
            assert repr(projected.tolist()) == repr(_projection_formula(y, l_min).tolist()), y
    # n lower bounds that sum past 1 leave no point to project onto
    with pytest.raises(InvalidInputError, match="lower bound infeasible"):
        optimize._project_simplex_lb(np.array([0.5, 0.5]), 0.6)


def test_maximize_takes_plain_sequences_through_length_vector():
    g, _ = star(3)
    init = [0.2, 0.3, 0.5]
    opts = MaximizeOptions(seeds=0)
    expected = maximize_gap(g, LengthVector(init), opts).to_dict()
    assert maximize_gap(g, init, opts).to_dict() == expected
    assert maximize_gap(g, np.array(init), opts).to_dict() == expected
    for bad in ([0.2, 0.3, 0.6], [0.5, float("nan"), 0.5], [[0.5, 0.5]]):
        with pytest.raises(InvalidInputError):
            maximize_gap(g, bad, opts)


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


@pytest.mark.parametrize("g", [star(3)[0], mandarin(4)[0]])
def test_an_infimizer_off_its_closed_form_is_an_internal_error(monkeypatch, g):
    # a realized gap 1e-7 off pi (a bridge) or 2 pi (a circle) is the
    # library's fault, not bad input: RuntimeError, as `maximize_gap`'s
    # bound checks raise
    gap = optimize.spectral_gap
    monkeypatch.setattr(optimize, "spectral_gap", lambda m: (gap(m)[0] + 1e-7, gap(m)[1]))
    with pytest.raises(RuntimeError, match="infimize_gap: realized gap .* differs from the closed form"):
        infimize_gap(g)


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
# brute force (the oracle's own checks)
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
