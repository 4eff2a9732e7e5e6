"""Secular equation, eigenvalues/eigenfunctions, vertex residuals, Rayleigh quotients.

Derived expected values come from independent oracles: explicit secular
functions of stars (sum of tangents), exact interval/loop spectra,
closed-form Rayleigh quotients, and composite quadrature of sampled
functions for the L^2 Gram matrix.  Eigenfunctions are solved from the
vertex conditions on the edge ends; the bond-scattering matrix U(k) is
built only by the tests (here, the property tests and `oracles.py`), as
the oracle they must solve (a = U(k) a), and a guard test makes sure no
solver path builds it.
"""

import itertools
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from qgraph import (
    DIRICHLET,
    BondScattering,
    DeltaTheta,
    InvalidInputError,
    MaximizeOptions,
    NoEigenspaceError,
    NotApplicableError,
    dispersion_curve,
    eigenfunction,
    eigenvalues,
    levels,
    maximize_gap,
    metric,
    spectral_gap,
    spectral_gap_parameter,
)
from qgraph import _lockstep, dispersion, families, optimize, spectral
from qgraph.graph import NEUMANN, DiscreteGraph, MetricGraph
from qgraph.families import (
    flower,
    interval,
    loop,
    mandarin,
    path_graph,
    random_connected_graph,
    random_lengths,
    star,
    stower,
)
from qgraph.spectral import (
    _REDUCE_FROM,
    EdgeTrig,
    _HyperbolicCount,
    _TrigCount,
    _drive,
    _gram,
    _reaches,
    _signed,
    multiplicity_at,
    vertex_condition_residual,
)

from oracles import harmonic_interpolant, rayleigh_centered, secular_value

PI = math.pi


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def star_gap_oracle(lengths) -> float:
    """Smallest positive root of sum_e tan(k l_e) = 0 by pole-aware bisection."""
    poles = sorted({(0.5 + n) * PI / l for l in lengths for n in range(8)})

    def f(k):
        return sum(math.tan(k * l) for l in lengths)

    segments = [1e-9] + poles
    for a, b in zip(segments, segments[1:]):
        lo, hi = a + 1e-12, b - 1e-12
        if f(lo) * f(hi) < 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    raise AssertionError("oracle found no root")


# ---------------------------------------------------------------------------
# secular values
# ---------------------------------------------------------------------------


def test_secular_interval_at_pi_vanishes():
    m = metric(*interval())
    assert secular_value(m, PI) <= 1e-10


def test_secular_interval_at_half_pi():
    # I - U(pi/2) = [[1, -i], [-i, 1]], both singular values sqrt(2)
    m = metric(*interval())
    assert secular_value(m, PI / 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert secular_value(m, PI / 2) > 0.1


def test_secular_mandarin_multiplicity_cluster():
    # at k = 4 pi the sine-difference modes give three null directions and
    # the symmetric cosine mode a fourth (a mandarin has two distinct
    # vertices, so cos(4 pi x) on every edge is a valid eigenfunction)
    m = metric(*mandarin(4))
    bs = BondScattering(m)
    svals = bs.singular_values(4 * PI)
    assert secular_value(m, 4 * PI) <= 1e-10
    assert int((svals < 1e-7 * bs.n_bonds).sum()) == 4


NAN, INF = float("nan"), float("inf")
BAD_K_CALLS = {
    "gap_reaches-negative": lambda m: _drive([_reaches(m, -1.0)]),
    "gap_reaches-nan": lambda m: _drive([_reaches(m, NAN)]),
    "eigenvalues-kmax-nan": lambda m: eigenvalues(m, NAN),
    "eigenvalues-kmax-inf": lambda m: eigenvalues(m, INF),
    "eigenvalues-kmin-nan": lambda m: eigenvalues(m, 10.0, k_min=NAN),
    "eigenvalues-kmin-negative": lambda m: eigenvalues(m, 10.0, k_min=-1.0),
    "multiplicity-nan": lambda m: multiplicity_at(m, NAN),
    "multiplicity-inf": lambda m: multiplicity_at(m, INF),
    "eigenfunction-nan": lambda m: eigenfunction(m, NAN),
    "eigenfunction-negative": lambda m: eigenfunction(m, -1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_K_CALLS))
def test_k_that_is_not_finite_and_positive_is_rejected(case):
    with pytest.raises(InvalidInputError, match="must be finite"):
        BAD_K_CALLS[case](metric(*star(3)))


def test_unitarity_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(5):
        V = int(rng.integers(2, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(1, 3)))
        m = metric(g, random_lengths(rng, g.edge_count))
        bs = BondScattering(m)
        for k in np.linspace(0.3, 25.0, 40):
            u = bs.U(k)
            assert np.linalg.norm(u.conj().T @ u - np.eye(bs.n_bonds), 2) <= 1e-10


def _incidence_graphs(n: int):
    """Random metric graphs with loops, parallel edges, both edge directions
    and Neumann, Dirichlet and delta vertices."""
    rng = np.random.default_rng(23)
    for _ in range(n):
        V = int(rng.integers(1, 6))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, V)]
        edges += [(int(rng.integers(0, V)), int(rng.integers(0, V))) for _ in range(int(rng.integers(1, 4)))]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        choices = [NEUMANN, DeltaTheta(0.0), DIRICHLET, DeltaTheta(PI), DeltaTheta(float(rng.uniform(-3.0, 3.0)))]
        conds = [choices[int(rng.integers(0, len(choices)))] for _ in range(V)]
        yield MetricGraph(DiscreteGraph(V, edges), random_lengths(rng, len(edges)).values, conds)


def _bonds_at(m, v):
    """Bond ids leaving v: edge e from its start, its reversal E + e from its end."""
    E = m.graph.edge_count
    return [e for e, (a, _) in enumerate(m.graph.edges) if a == v] + [
        E + e for e, (_, b) in enumerate(m.graph.edges) if b == v
    ]


def test_bond_scattering_blocks_follow_the_vertex_formulas():
    for m in _incidence_graphs(60):
        bs = BondScattering(m)
        for k in (0.7, 3.3, 11.0):
            sigma = bs.sigma(k)
            assert sigma.shape == (bs.n_bonds, bs.n_bonds)
            expected = np.zeros(sigma.shape, dtype=complex)
            for v, cond in enumerate(m.conditions):
                bonds = _bonds_at(m, v)
                alpha, d = cond.alpha, len(bonds)
                w = 0.0 if math.isinf(alpha) else 2.0 / (d + 1j * alpha / k)
                expected[np.ix_(bonds, bonds)] = w - np.eye(d)
            assert np.allclose(sigma, expected, rtol=0.0, atol=1e-15), (m, k)


def test_count_coupling_is_the_scaled_incidence():
    for m in _incidence_graphs(60):
        E = m.graph.edge_count
        keep = [v for v, cond in enumerate(m.conditions) if not math.isinf(cond.alpha)]
        P, Q = np.zeros((len(keep), E)), np.zeros((len(keep), E))
        for i, v in enumerate(keep):
            for e, (a, b) in enumerate(m.graph.edges):
                P[i, e] = (a == v) + (b == v)   # a loop at v gives 2
                Q[i, e] = (a == v) - (b == v)   # and 0
        alpha = np.array([m.conditions[v].alpha for v in keep])
        s = 1.0 / np.sqrt(np.maximum(1.0, np.abs(alpha)))
        count = _TrigCount(m)
        assert np.array_equal(count.coupling, np.hstack([P, Q]) * s[:, None]), m
        assert np.array_equal(count.alpha, alpha * s * s), m


def test_neumann_count_uses_the_graph_incidence_as_it_is():
    # a Neumann count skips the row selection and scaling; those would
    # leave every bit of the coupling and of alpha as it is
    for graph in _incidence_graphs(60):
        for cond in (NEUMANN, DeltaTheta(0.0)):
            m = MetricGraph(graph.graph, graph.lengths, [cond] * graph.graph.vertex_count)
            keep = [v for v, c in enumerate(m.conditions) if not math.isinf(c.alpha)]
            alpha = np.array([m.conditions[v].alpha for v in keep])
            s = 1.0 / np.sqrt(np.maximum(1.0, np.abs(alpha)))
            coupling = m.graph.incidence[keep] * s[:, None]
            count = _TrigCount(m)
            assert count.coupling is m.graph.incidence
            assert count.coupling.shape == coupling.shape and count.coupling.tobytes() == coupling.tobytes()
            assert count.alpha.shape == alpha.shape and count.alpha.tobytes() == (alpha * s * s).tobytes()


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def test_interval_spectrum():
    spec = eigenvalues(metric(*interval()), 10.0)
    ks = [p.k for p in spec.eigenpairs]
    assert ks[0] == 0.0
    assert ks[1:] == pytest.approx([PI, 2 * PI, 3 * PI], abs=1e-9)
    assert all(p.multiplicity == 1 for p in spec.eigenpairs)


def test_equilateral_star_gap_and_multiplicity():
    spec = eigenvalues(metric(*star(3)), 6.0)
    assert spec.gap == pytest.approx(1.5 * PI, abs=1e-10)
    assert spec.eigenpairs[1].multiplicity == 2


@pytest.mark.parametrize("k_min", [0.0, 1.0])
def test_a_spectrum_without_a_positive_level_has_no_gap(k_min):
    # below the star(3) gap 3 pi / 2 only k = 0, or nothing above k_min
    spec = eigenvalues(metric(*star(3)), 4.0, k_min)
    assert [p.k for p in spec.eigenpairs] == ([0.0] if k_min == 0.0 else [])
    with pytest.raises(NoEigenspaceError, match="no positive eigenvalue in the computed range"):
        spec.gap


@pytest.mark.parametrize("graph, level, multiplicity",
                         [(star(3), 1.5 * PI, 2), (mandarin(3), 3 * PI, 3), (interval(), PI, 1)])
def test_a_level_just_above_k_min_keeps_its_multiplicity(graph, level, multiplicity):
    # with k_min at the level, or an ulp or a relative 1e-12 below it, the
    # count at k_min may hold copies of the level, split off by noise: the
    # double level 3 pi / 2 of star(3) was reported simple.  Its lower
    # count is taken at r - d, as a search from lower down takes it
    m = metric(*graph)
    (whole,) = eigenvalues(m, level + 0.5, level - 0.5).eigenpairs
    for k_min in (level, math.nextafter(level, 0.0), level * (1.0 - 1e-12)):
        (pair,) = eigenvalues(m, level + 0.5, k_min).eigenpairs
        assert pair.k == pytest.approx(level, rel=1e-13), k_min
        assert pair.multiplicity == whole.multiplicity == multiplicity, k_min


def test_loop_spectrum():
    spec = eigenvalues(metric(*loop()), 14.0)
    assert [p.k for p in spec.eigenpairs] == pytest.approx([0.0, 2 * PI, 4 * PI], abs=1e-9)
    assert [p.multiplicity for p in spec.eigenpairs] == [1, 2, 2]


def test_uneven_star_gap_matches_tangent_oracle():
    lengths = [0.5, 0.3, 0.2]
    oracle = star_gap_oracle(lengths)
    assert oracle == pytest.approx(3.771773897340111, abs=1e-10)  # frozen
    g, _ = star(3)
    k1, mult = spectral_gap(metric(g, np.array(lengths)))
    assert k1 == pytest.approx(oracle, abs=1e-9)
    assert mult == 1


def test_weyl_count_on_random_graphs():
    rng = np.random.default_rng(11)
    K = 20 * PI
    for _ in range(3):
        E = int(rng.integers(2, 6))
        V = int(rng.integers(2, E + 2))
        g = random_connected_graph(rng, V, max(E, V - 1))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        spec = eigenvalues(m, K)
        count = sum(p.multiplicity for p in spec.eigenpairs if 0 < p.k <= K)
        assert abs(count - K / PI) <= g.edge_count + 1


def test_scan_budget_error():
    from qgraph import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        eigenvalues(metric(*interval()), 1e6)


def test_levels_above_the_first_batch_are_found():
    # the first batch of a search of the whole range takes a count at every
    # pole in range, here 296 of them.  The unit interval's levels n pi sit
    # on its poles, and the path of two half edges, whose edges share their
    # poles, has every other level on one
    n = 296
    for graph in (interval(), path_graph(2)):
        k_max = n * PI
        spec = eigenvalues(metric(*graph), k_max + 0.5)
        assert [p.multiplicity for p in spec.eigenpairs] == [1] * (int(k_max / PI) + 1)
        assert np.allclose([p.k for p in spec.eigenpairs], PI * np.arange(int(k_max / PI) + 1), rtol=1e-13, atol=0)


def test_short_edge_spectrum_not_masked():
    # a nearly collapsed pair of parallel edges hides the circle eigenvalue
    # from a plain smallest-singular-value sweep
    g, _ = mandarin(3)
    m = metric(g, np.array([1e-4, 1e-4, 0.9998]))
    k1, _ = spectral_gap(m)
    assert k1 == pytest.approx(2 * PI, abs=2e-3)


def _zero_mode_interval(c):
    """The unit interval with couplings c at x = 0 and -c / (1 + c) at x = 1:
    f = 1 + c x solves -f'' = 0 and both conditions, so lambda = 0 is a level."""
    m = metric(*interval()).with_condition(0, DeltaTheta(2.0 * math.atan(c)))
    return m.with_condition(1, DeltaTheta(2.0 * math.atan(-c / (1.0 + c))))


def test_count_noise_is_no_level(independent_checks):
    # couplings alpha = 1 and -1/2 at the ends of the unit interval make
    # lambda = 0 a level, f = 1 + x, between the floors of the trig and the
    # hyperbolic searches, where their counts flip by noise; such a flip was
    # reported as the gap, of multiplicity 0, at k = 3.19e-6
    m = metric(*interval()).with_condition(0, DeltaTheta(PI / 2))
    m = m.with_condition(1, DeltaTheta(-0.9272952180016122))
    k1, mult = spectral_gap(m)
    assert mult == 1
    assert k1 == pytest.approx(3.286006599508176, rel=1e-12, abs=0.0)
    # oracle: f = cos kx + sin(kx) / k meets the coupling -1/2 at x = 1
    assert k1 * math.sin(k1) - 0.5 * math.cos(k1) + 0.5 * math.sin(k1) / k1 == pytest.approx(0.0, abs=1e-12)
    assert secular_value(m, k1) <= 1e-12
    assert all(p.multiplicity >= 1 for p in eigenvalues(m, 10.0).eigenpairs)
    assert all(p.multiplicity >= 1 for p in spectral.negative_spectrum(m))
    # alpha = 1/2 and -1/3, f = 1 + x / 2: the floors' noise made levels
    # [-1.47e-9, 1.56e-6, 3.19291] and the gap 1.56e-6; the count at lambda =
    # 0, the inertia of M0, knows the zero level and no negative one
    m = metric(*interval()).with_condition(0, DeltaTheta(0.9272952180016122))
    m = m.with_condition(1, DeltaTheta(-0.6435011087932844))
    assert levels([m], 5.0) == [[0.0, pytest.approx(3.1929069572704862, rel=1e-13, abs=0.0)]]
    assert spectral.negative_spectrum(m) == []
    assert spectral_gap(m) == (pytest.approx(3.1929069572704862, rel=1e-13, abs=0.0), 1)
    # the family f = 1 + c x, where the noise made levels from -1.9e-8 to
    # 1.6e-6; the independent count, with both couplings, finds the zero
    # level below k1 and k1 simple
    checks = independent_checks
    plain = checks.Graph(2, [(0, 1)], [1.0])
    for c in np.arange(1, 31) / 10:
        m = _zero_mode_interval(c)
        zero, k1 = levels([m], 5.0)[0]
        assert zero == 0.0 and spectral.negative_spectrum(m) == [], c
        assert spectral_gap(m) == (pytest.approx(k1, rel=1e-13, abs=0.0), 1), c
        # oracle: f = cos kx + (c / k) sin kx meets the coupling a1 at x = 1
        a1 = m.alpha[1]
        assert k1 * math.sin(k1) - (c + a1) * math.cos(k1) - a1 * c * math.sin(k1) / k1 == pytest.approx(0.0, abs=1e-12)
        assert checks.count_around(plain, k1, {0: m.alpha[0], 1: a1}) == (1, 2), c


def test_every_count_is_taken_by_the_driver(monkeypatch):
    # the searches only yield requests, and `_drive` takes every count; a
    # count inside a drive but taken by a search itself has a search's
    # frame, not the driver's, as its caller
    depth = 0
    drive = spectral._drive

    def counted_drive(searches):
        nonlocal depth
        depth += 1
        try:
            return drive(searches)
        finally:
            depth -= 1

    def taken_by_the_driver():
        frame = sys._getframe(2)
        if frame.f_code.co_name == "spectrum":   # a lone hyperbolic request's `_Count.spectrum`
            frame = frame.f_back
        # a sweep confirms its rows' levels with counts it knows in advance,
        # once no drive runs (`dispersion._confirmed`)
        if frame.f_code.co_name == "_confirmed":
            return depth == 0 and frame.f_globals is vars(dispersion)
        return depth > 0 and frame.f_code.co_name == "_drive"

    # every count matrix of either sign is built and solved by a `spectra`,
    # or alone by the trig count's `spectrum`
    classes = (spectral._TrigCount, spectral._HyperbolicCount)
    checked = set()
    for cls in classes:
        def checked_spectra(coupling, alpha, lengths, ks, cls=cls, spectra=cls.spectra):
            assert taken_by_the_driver()
            checked.add(cls)
            return spectra(coupling, alpha, lengths, ks)

        monkeypatch.setattr(cls, "spectra", staticmethod(checked_spectra))
    spectrum = spectral._TrigCount.spectrum

    def checked_spectrum(count, k):
        assert taken_by_the_driver()
        checked.add("alone")
        return spectrum(count, k)

    monkeypatch.setattr(spectral._TrigCount, "spectrum", checked_spectrum)
    for module in (spectral, optimize, dispersion):
        monkeypatch.setattr(module, "_drive", counted_drive)
    dispersion_curve(metric(*star(3)), 1, grid_size=8)
    # theta_SG past pi bisects on attractive rows, below pi on Dirichlet ones
    assert spectral_gap_parameter(metric(*interval()), 0).theta_sg > PI
    assert spectral_gap_parameter(metric(*star(3)), 0).theta_sg <= PI
    maximize_gap(*star(3), MaximizeOptions(seeds=1))
    assert depth == 0
    assert checked == {*classes, "alone"}


def test_a_none_request_raises():
    # a search yields a request or a dict of them; None is no request, and
    # the drive raises at once, alone or beside a search that asks
    m = metric(*star(3))

    def none():
        yield None

    for searches in ([none()], [spectral._gap_search(m), none()]):
        with pytest.raises(TypeError):
            spectral._drive(searches)


def test_a_none_inside_a_together_raises():
    # None inside a sub-search's dict, yielded by hand or by a `_together`
    # whose search yields it, is no request either: the drive raises at once
    m = metric(*star(3))
    count = spectral._TrigCount(m)

    def none():
        yield None

    def nested():
        yield {0: (count, 1.0), 1: None}

    for searches in ([nested()], [_lockstep._together([none(), spectral._gap_search(m)])],
                     [spectral._gap_search(m), _lockstep._together([spectral._gap_search(m), none()])]):
        with pytest.raises(TypeError):
            spectral._drive(searches)


def test_a_compound_request_is_sent_what_its_requests_get_alone(monkeypatch):
    # a search may yield a dict of single requests, of several matrix shapes,
    # and is sent the dict of their replies.  A search running sub-searches
    # (`_together`) yields one flat dict: sub-search j's request under j, each
    # entry of its dict under (j, key).  The driver stacks a dict's requests
    # with other searches' requests, one stacked call per shape, and every
    # request is sent the values its count gives it alone
    counts = _swept_counts(metric(*star(4)), 2)   # the last, Dirichlet at 2, has one row less
    requests = {
        "dict": {0: (counts[0], 3.0), 1: (counts[-1], 0.37), 2: (counts[1], 12.9), 3: (counts[-1], 3.0)},
        "inner dict": {0: (counts[2], 0.37), "x": (counts[-1], 40.1)},
        "inner single": (counts[3], 12.9),
        "single": (counts[4], 2 * PI),
    }
    sent = {}

    def asks(name):
        sent[name] = yield requests[name]
        return name

    def alone(request):
        if type(request) is dict:
            return {j: alone(r) for j, r in request.items()}
        count, k = request
        return count.spectrum(k)

    def same(got, expected):
        if type(expected) is dict:
            return type(got) is dict and got.keys() == expected.keys() and all(same(got[j], expected[j]) for j in got)
        return np.shape(got) == expected.shape and np.asarray(got).tobytes() == expected.tobytes()

    # a step of `_together`: its searches' requests, flattened one level
    assert next(_lockstep._together([asks("inner dict"), asks("inner single")])) == {
        (0, 0): requests["inner dict"][0], (0, "x"): requests["inner dict"]["x"], 1: requests["inner single"]}
    stacked = []
    spectra = _TrigCount.spectra
    monkeypatch.setattr(_TrigCount, "spectra", staticmethod(
        lambda *args: stacked.append(len(args[-1])) or spectra(*args)))
    searches = [asks("dict"), _lockstep._together([asks("inner dict"), asks("inner single")]), asks("single")]
    assert spectral._drive(searches) == ["dict", ["inner dict", "inner single"], "single"]
    assert sorted(stacked) == [2 + 1, 2 + 1 + 1 + 1]
    for name, request in requests.items():
        assert same(sent[name], alone(request)), name


def _swept_counts(m, v, rng=None, cls=_TrigCount):
    """Count objects for delta couplings at v, Dirichlet and negative theta
    included; with rng each count has random lengths of its own."""
    counts = []
    for cond in (DeltaTheta(-2.5), DeltaTheta(-0.3), DeltaTheta(0.0), DeltaTheta(0.7),
                 DeltaTheta(3.1), DIRICHLET):
        if rng is not None:
            m = MetricGraph(m.graph, random_lengths(rng, m.graph.edge_count, l_min=0.05).values, m.conditions)
        counts.append(cls(m.with_condition(v, cond)))
    return counts


def _stacked_graphs():
    rng = np.random.default_rng(7)
    out = [(metric(*flower(2)), 0), (metric(*stower(2, 1)), 1), (metric(*star(4)), 2)]
    for _ in range(3):
        g = random_connected_graph(rng, 3, 5)  # extra edges, loops among them
        m = metric(g, random_lengths(rng, 5, l_min=0.05))
        out.append((m.with_condition(2, DeltaTheta(float(rng.uniform(-3, 3)))), 0))
    # 33 rows, 32 with the vertex Dirichlet: both groups take the vertex form
    out.append((metric(*flower(16)), 0))
    # 36 rows and lengths of its own, so a stack's rows keep different
    # numbers of rows and its spectra take one eigvalsh per kept-row count
    g = random_connected_graph(rng, 8, 14)
    out.append((metric(g, random_lengths(rng, 14, l_min=0.05)), 3))
    return out


def _kept_rows(count, k):
    """The rows of the vertex form of count at k: V' and one row of each edge with |sin k l_e| < 1/2."""
    return count.alpha.size + int(np.count_nonzero(np.abs(np.sin(k * count.lengths)) < 0.5))


def test_stacked_count_matrices_equal_single_ones():
    # the rows of a stack share their lengths, as the rows of a delta sweep
    # do (passed as one row), or have lengths of their own, as the
    # optimizer's restarts do (passed per row); trig counts and the
    # hyperbolic ones of the negative branch (k is kappa there) alike; the
    # vertex form's rows keep different numbers of rows in one stack
    ks = [1e-7, 0.37, 3.0, 2 * PI, 12.9, 40.1]
    rng = np.random.default_rng(8)
    kept_counts = 1   # the most kept-row counts among the rows of one vertex-form stack
    for cls in (_TrigCount, _HyperbolicCount):
        for m, v in _stacked_graphs():
            for counts, shared in ((_swept_counts(m, v, cls=cls), True),
                                   (_swept_counts(m, v, rng, cls), False)):
                assert counts[-1].alpha.size == counts[0].alpha.size - 1  # Dirichlet drops v
                for group in (counts[:-1], counts[-1:]):
                    lengths = group[0].lengths if shared else np.stack([count.lengths for count in group])
                    for k_shift in range(len(ks)):
                        row_ks = [ks[(j + k_shift) % len(ks)] for j in range(len(group))]
                        coupling = np.stack([count.coupling for count in group])
                        alpha = np.stack([count.alpha for count in group])
                        spectra = cls.spectra(coupling, alpha, lengths, np.array(row_ks))
                        assert spectra.shape[0] == len(group)
                        if cls is _TrigCount:
                            stack = _TrigCount.matrices(coupling, alpha, lengths, np.array(row_ks))
                            if spectra.shape[1] >= _REDUCE_FROM:
                                rows = {_kept_rows(count, k) for count, k in zip(group, row_ks)}
                                kept_counts = max(kept_counts, len(rows))
                        for j, (count, k) in enumerate(zip(group, row_ks)):
                            assert np.array_equal(spectra[j], count.spectrum(k)), (cls, m, v, j, k)
                            if cls is _TrigCount:
                                assert np.array_equal(stack[j], _trig_matrix(count, k)), (m, v, j, k)
                            # below the vertex form the spectrum is the matrix's eigenvalues:
                            # the paired K's, a congruence of K, within rounding
                            if cls is _HyperbolicCount:
                                oracle = np.linalg.eigvalsh(_hyperbolic_matrix(count, k))
                                assert np.array_equal(spectra[j], oracle), (cls, m, v, j, k)
                            elif spectra.shape[1] < _REDUCE_FROM:
                                oracle = np.linalg.eigvalsh(_paired_matrix(count, k))
                                assert np.allclose(spectra[j], oracle, rtol=1e-12, atol=1e-12), (m, v, j, k)
    assert kept_counts >= 3


def _lone_graphs():
    """Graphs on both sides of _REDUCE_FROM, Neumann, with a delta vertex
    and with a Dirichlet one, and seeded random graphs with E = 16-24.  The
    couplings |alpha| = |tan(theta / 2)| > 1 scale their vertices' rows."""
    rng = np.random.default_rng(49)

    def delta():
        return DeltaTheta(float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0)))

    out = []
    for graph, v in ((star(3), 0), (flower(4), 0), (star(16), 3), (mandarin(21), 1)):
        m = metric(*graph)
        out += [m, m.with_condition(v, delta()), m.with_condition(v, DIRICHLET)]
    for E in (16, 20, 24):
        g = random_connected_graph(rng, 8, E)
        m = metric(g, random_lengths(rng, E, l_min=0.01))
        out += [m, m.with_condition(1, delta()).with_condition(5, DIRICHLET)]
    return out


def test_a_lone_count_equals_its_row_of_a_stack():
    # a lone request's spectrum is built in 2-D, apart from `spectra`, and is
    # its row of a stack to the bit, +-inf included: at points across (floor,
    # cap] and at every pole, where the vertex form's rows keep different
    # numbers of rows in one stack
    rng = np.random.default_rng(4901)
    vertex_forms = set()
    for m in _lone_graphs():
        count = _TrigCount(m)
        cap = spectral.gap_upper_bound(m)
        ks = np.concatenate([rng.uniform(count.floor, cap, 40), [cap], count.poles_in(count.floor, cap)])
        spectra = _TrigCount.spectra(np.repeat(count.coupling[None], ks.size, axis=0),
                                     np.repeat(count.alpha[None], ks.size, axis=0), count.lengths, ks)
        vertex_form = count.alpha.size + 2 * count.lengths.size >= _REDUCE_FROM
        vertex_forms.add(vertex_form)
        if vertex_form:
            assert len({_kept_rows(count, k) for k in ks}) >= 2, m
        # every vertex-form row eliminates some pivot, and the paired K none
        assert (np.isinf(spectra).any(axis=1) == vertex_form).all(), m
        for k, row in zip(ks.tolist(), spectra):
            assert np.array_equal(count.spectrum(k), row), (m, k)
    assert vertex_forms == {False, True}


def test_a_batch_is_sent_what_single_requests_get(monkeypatch):
    # a search may yield a batch, a dict of single requests of one count, and
    # is sent one spectrum per key; the driver stacks it with the single
    # requests and the other batches of its shape, a batch of one k included
    ks = np.array([1e-7, 0.37, 3.0, 2 * PI, 12.9, 40.1])
    stacked = []   # the rows of each `spectra` call
    for cls in (_TrigCount, _HyperbolicCount):
        def counted(coupling, alpha, lengths, ks, spectra=cls.spectra):
            stacked.append(len(ks))
            return spectra(coupling, alpha, lengths, ks)

        monkeypatch.setattr(cls, "spectra", staticmethod(counted))
    for cls in (_TrigCount, _HyperbolicCount):
        for m, v in _stacked_graphs():
            counts = _swept_counts(m, v, cls=cls)   # the last, Dirichlet at v, has one row less
            sent = {}

            def batch(name, count, ks):
                replies = yield dict(enumerate((count, k) for k in ks.tolist()))
                sent[name] = [replies[i] for i in range(ks.size)]

            def singles(name, count, ks):
                sent[name] = []
                for k in ks:
                    sent[name].append((yield count, k))

            requests = {"batch": (counts[0], ks), "same shape": (counts[1], ks),
                        "other shape": (counts[-1], ks[::-1]), "one k": (counts[2], ks[2:3])}
            searches = [(batch if name in ("batch", "one k") else singles)(name, *request)
                        for name, request in requests.items()]
            if cls is _TrigCount and m.graph.edge_count == 14:
                # the batch's rows keep different numbers of rows: its stack takes several eigvalsh
                assert len({_kept_rows(counts[0], k) for k in ks}) >= 2
            stacked.clear()
            assert spectral._drive(searches) == [None, None, None, None]
            # the first step stacks the batches with the single request of their shape
            assert stacked[0] == ks.size + 2, (cls, m, v)
            for name, (count, request_ks) in requests.items():
                got = np.array(sent[name])
                alone = np.array([count.spectrum(k) for k in request_ks])
                assert got.shape == alone.shape and got.tobytes() == alone.tobytes(), (cls, m, v, name)


@pytest.mark.parametrize("cls", [_TrigCount, _HyperbolicCount])
def test_a_count_with_one_coupling_changed_is_that_graph_s_count(cls):
    # a sweep row's count is the theta = 0 count with v's coupling changed,
    # built without the row's graph, in one stack (`spectral._vertex_rows`):
    # each row of finite coupling is that graph's count to the bit, with the
    # inertia of its M0, its stacked spectra are that count's, and the
    # theta = 0 count turns them into the counts of `made`.  The theta = pi
    # row keeps v's row at the scaled row's limit, coupling 0 and alpha 1,
    # where the Dirichlet graph's count drops it: at the same points its
    # trig counts are that graph's, its hyperbolic counts that graph's plus
    # one, and its M0 has that graph's inertia
    thetas = [0.0, 0.3, -0.3, 2.9, -2.9, -PI + 2 * PI / 32, PI]
    rng = np.random.default_rng(26)
    for m, v in _stacked_graphs():
        # with Dirichlet at a vertex below v, v's row is not its vertex id
        w = 0 if v else m.graph.vertex_count - 1
        for base in (m, m.with_condition(w, DIRICHLET)):
            m0 = base.with_condition(v, NEUMANN)
            count0 = cls(m0)
            stack = spectral._vertex_rows(count0, v, np.array([DeltaTheta(t).alpha for t in thetas]))
            assert stack.alpha.shape == (len(thetas), count0.alpha.size)
            for i, theta in enumerate(thetas):
                want = cls(base.with_condition(v, DeltaTheta(theta)))
                assert (count0.offset, repr(count0.floor)) == (want.offset, repr(want.floor))
                assert (stack.n_minus[i], stack.n_zero[i]) == want.zero_modes, (m, v, theta)
                ks = np.array(_count_probes(want, rng, 10))
                spectra = cls.spectra(stack.coupling[[i] * ks.size], stack.alpha[[i] * ks.size],
                                      count0.lengths, ks)
                alone = np.array([want.spectrum(k) for k in ks])
                wanted = [want.made(k, s).count for k, s in zip(ks, alone)]
                if theta == PI:
                    row = count0.row(v)
                    assert not stack.coupling[i, row].any() and stack.alpha[i, row] == 1.0
                    plus = int(cls is _HyperbolicCount)
                    assert count0.counts(ks, spectra).tolist() == [n + plus for n in wanted], (m, v)
                    continue
                for name, a in (("coupling", stack.coupling[i]), ("alpha", stack.alpha[i]),
                                ("lengths", count0.lengths)):
                    b = getattr(want, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (m, v, theta, name)
                assert spectra.tobytes() == alone.tobytes()
                assert count0.counts(ks, spectra).tolist() == wanted


def _trig_matrix(count, k):
    """The whole K(k) of a `_TrigCount`, one k at a time: the oracle of
    `_TrigCount.matrices`, whose every entry is formed by the same
    operations, in the same order."""
    nv = count.alpha.size
    n = nv + 2 * count.lengths.size
    half = 0.5 * k * count.lengths
    trig = np.concatenate([np.sin(half), np.cos(half)])
    edge = 0.5 * np.sin(2.0 * half)
    K = np.zeros((n, n))
    K[:nv, nv:] = math.sqrt(0.5 * k) * count.coupling * trig
    K[nv:, :nv] = K[:nv, nv:].T
    K.flat[:: n + 1] = np.concatenate([count.alpha, edge, -edge])
    return K


def _paired_matrix(count, k):
    """The paired K of a `_TrigCount` below _REDUCE_FROM rows, from the whole
    K by the congruence the module docstring states: each edge row whose
    own s^2 or c^2 is below sin^2(pi / 12) is scaled by 1 / (2 sqrt|K_rr|),
    and its diagonal is +-1/4 with the sign (-1)^n of sin k l_e, n =
    ceil(k l_e / pi) - 1, read with the opposite sign on a cos row."""
    K = _trig_matrix(count, k)
    nv, E = count.alpha.size, count.lengths.size
    trig = np.concatenate([np.sin(0.5 * k * count.lengths), np.cos(0.5 * k * count.lengths)])
    n = np.ceil(k * count.lengths / PI) - 1
    sign = np.concatenate([(-1.0) ** n, -((-1.0) ** n)])
    near = trig**2 < math.sin(PI / 12) ** 2
    near[:E] &= k * count.lengths / PI > 0.5   # no pole at k = 0
    for r in np.flatnonzero(near):
        d = 1.0 / (2.0 * math.sqrt(abs(K[nv + r, nv + r])))
        K[nv + r, :] *= d
        K[:, nv + r] *= d
        K[nv + r, nv + r] = 0.25 * sign[r]
    return K


def _hyperbolic_matrix(count, kappa):
    """The matrix -H(kappa) of a `_HyperbolicCount`, one kappa at a time: the
    oracle of `_HyperbolicCount.spectra`, formed by the same operations."""
    t = np.tanh(0.5 * kappa * count.lengths)
    d = 0.5 * kappa * np.concatenate([t, 1.0 / t])
    return -(np.diag(count.alpha) + (count.coupling * d) @ count.coupling.T)


def _full_count(count, k):
    """N(k) from the full (V' + 2E)-square matrix K, the oracle of the vertex form's count."""
    n_neg = int(np.count_nonzero(np.linalg.eigvalsh(_trig_matrix(count, k)) < 0.0))
    return count.poles(k) + count.offset + n_neg


def _reduced_corpus(rng, n_graphs, max_edges=30):
    """Random graphs with 16..max_edges edges, so every count takes the vertex
    form; every second graph has delta and Dirichlet vertices."""
    out = []
    while len(out) < n_graphs:
        E = int(rng.integers(16, max_edges + 1))
        V = int(rng.integers(max(2, E // 4), E // 2 + 1))
        m = metric(random_connected_graph(rng, V, E), random_lengths(rng, E))
        if len(out) % 2:
            for v in rng.choice(V, size=max(1, V // 3), replace=False):
                cond = DIRICHLET if rng.random() < 0.3 else DeltaTheta(float(rng.uniform(-3.0, 3.0)))
                m = m.with_condition(int(v), cond)
        out.append(m)
    return out


def _count_probes(count, rng, n_random):
    """Random k, and on every third edge probes at +-3e-10 and +-1e-6 relative of
    its first two poles k l_e = pi n, and at +-1e-12 relative of k l_e =
    pi / 6 + pi n and 5 pi / 6 + pi n, n = 0, 1, where |sin k l_e| = 1/2 and
    the vertex form starts or stops eliminating both rows of the edge, and
    of k l_e = pi / 2 and 3 pi / 2, where |tan(k l_e / 2)| = 1."""
    ks = list(rng.uniform(0.05, 60.0, n_random))
    for l in count.lengths[::3]:
        for n in (1, 2):
            ks += [n * PI / l * (1.0 + d) for d in (3e-10, -3e-10, 1e-6, -1e-6)]
            for switch in (n - 0.5, n - 5.0 / 6.0, n - 1.0 / 6.0):
                ks += [switch * PI / l * (1.0 + d) for d in (1e-12, -1e-12)]
    return ks


def reduced_count_mismatches(n_graphs, seed):
    """(samples, the (graph, k) whose vertex-form and full counts differ) on a
    seeded corpus.  For a larger corpus than the test's, run from the
    repository root:
    PYTHONPATH=src:tests python -c "import test_spectral as t; print(t.reduced_count_mismatches(240, 1616))"
    """
    rng = np.random.default_rng(seed)
    samples, bad = 0, []
    for m in _reduced_corpus(rng, n_graphs):
        count = _TrigCount(m)
        assert count.alpha.size + 2 * count.lengths.size >= _REDUCE_FROM
        for k in _count_probes(count, rng, 40):
            samples += 1
            if count.made(k, count.spectrum(k)).count != _full_count(count, k):
                bad.append((m, k))
    return samples, bad


def test_reduced_count_equals_the_full_count():
    # the vertex form's count equals the whole K's, near its poles and
    # where an edge's rows start or stop going included
    samples, bad = reduced_count_mismatches(24, 1616)
    assert samples >= 3000
    assert bad == []


def test_reduced_levels_equal_the_full_ones(monkeypatch):
    # the levels and multiplicities the vertex form finds are the whole K's,
    # within 1e-12 relative
    rng = np.random.default_rng(1640)
    graphs = [metric(*flower(16)), metric(*star(16)), metric(*mandarin(16))]
    graphs += _reduced_corpus(rng, 20, max_edges=40)

    def solved(reduce_from):
        monkeypatch.setattr(spectral, "_REDUCE_FROM", reduce_from)
        return [(spectral_gap(m), eigenvalues(m, 60.0).eigenpairs) for m in graphs]

    full, reduced = solved(10**9), solved(0)
    for m, (gap_f, spec_f), (gap_r, spec_r) in zip(graphs, full, reduced):
        assert gap_r[1] == gap_f[1], m
        assert gap_r[0] == pytest.approx(gap_f[0], rel=1e-12, abs=0.0), m
        assert [p.multiplicity for p in spec_r] == [p.multiplicity for p in spec_f], m
        assert [p.k for p in spec_r] == pytest.approx([p.k for p in spec_f], rel=1e-12, abs=0.0), m
    # the closed forms: pi E with multiplicity E - 1, pi E / 2 with E - 1, pi E with E
    for (k1, mult), (k_exact, mult_exact) in zip([r[0] for r in reduced[:3]],
                                                 [(16 * PI, 15), (8 * PI, 15), (16 * PI, 16)]):
        assert mult == mult_exact
        assert k1 == pytest.approx(k_exact, abs=1e-10)


@pytest.mark.parametrize("family", [star(4), mandarin(3), stower(2, 1)])
@pytest.mark.parametrize("theta", [-2.5, -0.3, 0.7, 3.1])
def test_gap_reaches_is_the_gap_comparison(family, theta):
    m = metric(*family).with_condition(0, DeltaTheta(theta))
    k1 = spectral_gap(m)[0]
    answers = []
    for k in (k1 * (1 - 1e-9), k1 - 1e-10 * k1, k1 * (1 + 1e-9)):
        answers.append(_drive([_reaches(m, k)])[0])
        assert answers[-1] == (spectral_gap(m)[0] >= k), k
    assert answers == [True, True, False]


# ---------------------------------------------------------------------------
# pole bookkeeping and the refinement budget
# ---------------------------------------------------------------------------

STEP = 1e-11   # the offsets of the probes near a pole, in k l_e / pi


def _numpy_poles(lengths, k):
    """The array formulas the pole bookkeeping once ran; the oracle of the
    loops over Python floats, which must agree with them bit for bit."""
    return int(np.ceil(k * lengths / math.pi).sum())


def _pole_counts(rng, n_graphs):
    """Counts on random graphs whose lengths are, in turn, random, all equal,
    and integer multiples of one length (so edges share poles)."""
    out = []
    for j in range(n_graphs):
        E = int(rng.integers(1, 7))
        g = random_connected_graph(rng, int(rng.integers(2, E + 2)), E)
        if j % 3 == 0:
            lengths = rng.uniform(0.05, 1.0, E)
        elif j % 3 == 1:
            lengths = np.full(E, rng.uniform(0.05, 1.0))
        else:
            lengths = rng.uniform(0.05, 0.5) * rng.integers(1, 4, E)
        out.append(_TrigCount(metric(g, lengths)))
    return out


def _pole_probes(count):
    """k at the first three poles of every edge and 1, 2, 3 and 5 STEP
    either side of each."""
    ks = []
    for l in count.edge_lengths:
        half = STEP * PI / l
        for pole in [n * PI / l for n in (1, 2, 3)]:
            ks.append(pole)
            ks += [pole + side * j * half for j in (1, 2, 3, 5) for side in (-1.0, 1.0)]
    return ks


def test_pole_bookkeeping_equals_the_array_formulas():
    rng = np.random.default_rng(1811)
    compared = 0
    for count in _pole_counts(rng, 120):
        lengths = count.lengths
        ks = _pole_probes(count) + [count.floor] + list(rng.uniform(0.01, 40.0, 8))
        for k in ks:
            assert count.poles(k) == _numpy_poles(lengths, k), (lengths, k)
            compared += 1
        assert count.counts(np.array(ks), np.zeros((len(ks), 1))).tolist() == [
            count.poles(k) + count.offset for k in ks]
    assert compared > 10_000


def test_regula_falsi_stays_within_its_count_budget(count_matrices):
    # the search floor's value is off scale, of the size of k, and a secant
    # through it creeps, so regula falsi bisects until a sample replaces it:
    # taken as values, the floor's and the edges of the pole windows the
    # search once counted at cost 5,516, 20 and 16 count matrices here
    m = metric(*star(3))
    thetas = [-PI + 2 * PI * (j + 1) / 32 for j in range(31)] + [PI]
    rows = [m.with_condition(1, DeltaTheta(t)) for t in thetas]
    spectral._drive([spectral._eigenvalue_search(row, 9 * PI, 0.0) for row in rows])
    assert count_matrices.n <= 4000
    for E, budget in ((5, 14), (16, 13)):
        count_matrices.n = 0
        k1, mult = spectral_gap(metric(*star(E)))
        assert count_matrices.n <= budget, E
        assert mult == E - 1
        assert k1 == pytest.approx(PI * E / 2, rel=1e-13, abs=0.0)


def test_regula_falsi_stop_keeps_the_closed_forms(independent_checks):
    # regula falsi stops once its next secant correction is within half the
    # bracket tolerance 4 eps k; a rule that stops at 1e-8 k ends searches
    # a whole level off, and without the early stop the worst gap here is
    # 1.13e-14 relative off its closed form
    checks = independent_checks
    for family in (star, flower, mandarin):
        for E in range(2, 25):
            g, lengths = family(E)
            m = metric(g, lengths)
            k1, mult = spectral_gap(m)
            exact, exact_mult = checks.closed_form(family.__name__, (E,))
            assert mult == exact_mult, (family, E)
            assert k1 == pytest.approx(exact, rel=2e-14, abs=0.0), (family, E)
            plain = checks.Graph(g.vertex_count, g.edges, lengths.values)
            assert checks.gap_problems(plain, k1, mult) == [], (family, E)
            # every level below 2.5 times the gap, by the independent count
            row = eigenvalues(m, 2.5 * exact).expanded()
            assert checks.levels_problems(plain, 0, [0.0], [row]) == [], (family, E)


# catalog graphs whose levels sit on poles of the count at their canonical
# lengths, swept at vertex 0
POLE_CATALOG = (("path_graph", (2,)), ("path_graph", (3,)), ("mandarin", (3,)), ("flower", (3,)),
                ("dumbbell", (0.2,)), ("dumbbell", (0.5,)), ("necklace", (2,)))
POLE_THETAS = (-2.0, 0.0, 1.0, PI)


def _full_range_cases():
    """(graph, v, thetas, k_max) of the full-range searches whose levels are
    pinned: the catalog graphs above up to 13 pi, and 50 seeded random
    graphs, E = 3-6, swept at a random vertex to a random coupling and to
    Dirichlet, up to 4 pi E."""
    cases = [(metric(*getattr(families, name)(*params)), 0, POLE_THETAS, 13 * PI) for name, params in POLE_CATALOG]
    rng = np.random.default_rng(3737)
    for _ in range(50):
        E = int(rng.integers(3, 7))
        V = int(rng.integers(2, E + 2))
        g = random_connected_graph(rng, V, E)
        m = metric(g, random_lengths(rng, E, l_min=0.05))
        cases.append((m, int(rng.integers(0, V)), (float(rng.uniform(-3.0, 3.0)), PI), 4 * PI * E))
    return cases


def _same_levels(got, want):
    """Whether two level lists hold the same levels with the same
    multiplicities, within 1e-12 relative (absolute below k = 1)."""
    if len(got) != len(want):
        return False
    runs = [[(k, len(list(run))) for k, run in itertools.groupby(row)] for row in (got, want)]
    return ([mult for _, mult in runs[0]] == [mult for _, mult in runs[1]]
            and all(abs(k - k_want) <= 1e-12 * max(1.0, abs(k_want)) for (k, _), (k_want, _) in zip(*runs)))


def test_full_range_levels_keep_their_values(independent_checks):
    # the levels of `levels` and `eigenvalues` that the search of the whole
    # range gave when it took its counts one after another, before it
    # bracketed the range in one batch (tests/data): the brackets differ, so
    # regula falsi ends elsewhere within its tolerance, 7.9e-15 relative at
    # most, but every level and multiplicity stays
    checks = independent_checks
    pinned = json.loads((pathlib.Path(__file__).parent / "data" / "full_range_levels.json").read_text())
    cases = _full_range_cases()
    assert len(pinned["levels"]) == len(cases) == 57
    for n, (m, v, thetas, k_max) in enumerate(cases):
        rows = levels([m.with_condition(v, DeltaTheta(t)) for t in thetas], k_max)
        for row, want in zip(rows, pinned["levels"][n]):
            assert _same_levels(row, want), (n, row, want)
        plain = checks.Graph(m.graph.vertex_count, m.graph.edges, m.lengths)
        assert checks.levels_problems(plain, v, thetas, rows) == [], n
        if n < len(POLE_CATALOG):
            got = [[p.k, p.multiplicity] for p in eigenvalues(m, k_max).eigenpairs]
            want = pinned["eigenvalues"][n]
            assert [mult for _, mult in got] == [mult for _, mult in want], POLE_CATALOG[n]
            assert all(abs(k - k_want) <= 1e-12 * max(1.0, k_want) for (k, _), (k_want, _) in zip(got, want))


def _poles_by_hand(count, a, b):
    """Every pole n pi / l_e in (a, b), one pole at a time, in Python floats."""
    poles = set()
    for l in count.lengths.tolist():
        n = math.floor(a * l / PI) + 1
        while n * PI / l < b:
            poles.add(n * PI / l)
            n += 1
    return sorted(k for k in poles if a < k)


@pytest.mark.parametrize("name, params", POLE_CATALOG + (("star", (4,)), ("stower", (2, 1))))
def test_a_full_range_search_first_takes_every_window_edge(name, params):
    # the search of the whole range asks first for one dict of single
    # requests keyed by index: a count at every edge of its windows, that
    # is every pole in range and the top; a first-level search asks for
    # the top alone
    m = metric(*getattr(families, name)(*params))
    for m_row in (m, m.with_condition(0, DeltaTheta(1.0))):
        count = _TrigCount(m_row)
        for k_min, k_max in ((0.0, 13 * PI), (2.9, 7 * PI), (3 * PI, 6 * PI)):
            lo = count.floor_sample() if k_min == 0.0 else count.made(k_min, count.spectrum(k_min))
            hi_k = k_max + spectral._merge_width(k_max)
            search = spectral._level_search(count, lo, k_max)
            ks = _poles_by_hand(count, lo.k, hi_k) + [hi_k]
            assert search.send(None) == {i: (count, k) for i, k in enumerate(ks)}, (name, k_min)
            first = spectral._first_level(count, lo, k_max)
            assert first.send(None) == (count, hi_k)


class _StandInCount(_TrigCount):
    """star(3)'s trig count, poles included, with a stand-in
    spectrum whose levels near the pole 3 pi of every edge are those of
    `levels`: a level at the pole where `at_pole`, and each other level L
    where the value L - k crosses zero.  Ten values, n_- of them negative,
    so that N is 2 plus the number of levels below k."""

    pole = 3 * PI
    levels: tuple = ()
    at_pole = True

    def __init__(self) -> None:
        super().__init__(metric(*star(3)))

    @classmethod
    def stand_in(cls, k):
        below = 2 + sum(level < k for level in cls.levels) + int(cls.at_pole and k > cls.pole)
        n_minus = below - 3 * math.ceil(k / (3.0 * PI)) + 6   # N = poles - 2E + n_-, each l_e = 1/3
        moving = [level - k for level in cls.levels if (level < cls.pole) == (k < cls.pole)]
        fixed = n_minus - sum(x < 0.0 for x in moving)
        return np.sort([-1.0] * fixed + moving + [1.0] * (10 - fixed - len(moving)))

    @classmethod
    def spectra(cls, coupling, alpha, lengths, ks):
        return np.array([cls.stand_in(k) for k in ks.tolist()])

    def spectrum(self, k):
        return self.stand_in(k)


@pytest.mark.parametrize("levels, at_pole, found", [
    # a level 5e-11 relative past the pole, within the merge width
    # d = 1e-10 k of the level on the pole: the count above the pole takes it
    # in, and the bracket above the pole, searched again from that count,
    # holds only the level after it
    ((3 * PI * (1 + 5e-11), 3 * PI + 0.05), True, [(3 * PI, 2), (3 * PI + 0.05, 1)]),
    # a level 5e-11 relative below the pole, whose count above takes in the
    # level on the pole: the bracket above the pole keeps only the level after it
    ((3 * PI * (1 - 5e-11), 3 * PI + 0.05), True, [(3 * PI * (1 - 5e-11), 2), (3 * PI + 0.05, 1)]),
    ((3 * PI - 0.05, 3 * PI + 0.05), False, [(3 * PI - 0.05, 1), (3 * PI + 0.05, 1)]),
])
def test_a_level_counted_with_the_one_below_is_not_found_again(levels, at_pole, found):
    # the brackets of the batch are searched apart, but a level's
    # multiplicity counts up to d past it, as a search of one level after
    # another does, whatever bracket those levels lie in
    count = type("StandIn", (_StandInCount,), {"levels": levels, "at_pole": at_pole})()
    lo = count.made(3 * PI - 0.1, count.spectrum(3 * PI - 0.1))
    got = spectral._drive([spectral._level_search(count, lo, 3 * PI + 0.1)])[0]
    assert [(level.k, level.multiplicity) for level in got] == pytest.approx(found, rel=1e-15)


def test_known_neumann_floor_saves_one_count(count_matrices, monkeypatch):
    # every search knows N at its floor without a count, and that sample
    # stands in for the count just below the gap: a Neumann graph's from the
    # inertia (0, 1) of its weighted Laplacian, with no matrix solved, any
    # other graph's from the inertia of its M0.  A Neumann gap search also
    # knows a bound on N at its cap, which its gap lies below, and takes no
    # count there.  Taken for a graph of any conditions, a Neumann graph
    # solves its M0 once, counts at the cap too and finds the same gap.
    # The Neumann searches took 7 and 4 matrices while they counted the cap
    for m, tally in ((metric(*star(16)), 6), (metric(*flower(3)), 3)):
        count_matrices.n = count_matrices.m0.n = 0
        known = spectral_gap(m)
        assert (count_matrices.n, count_matrices.m0.n) == (tally, 0), m
        with monkeypatch.context() as patch:
            patch.setattr(MetricGraph, "is_neumann_graph", lambda self: False)
            count_matrices.n = 0
            assert spectral_gap(m) == known
        assert (count_matrices.n, count_matrices.m0.n) == (tally + 1, 1), m


def _cap_count(m):
    """N where a gap search of m would count at its cap (the merge width past
    it), and N at the search's floor."""
    count, cap = _TrigCount(m), spectral.gap_upper_bound(m)
    k = cap + spectral._merge_width(cap)
    return count.made(k, count.spectrum(k)).count, count.floor_sample().count


def _neumann_shapes():
    """The catalog; the interval and the loop as one edge, and with the lasso
    at 19 splits of their length into two edges; and 320 seeded random
    connected graphs with 1-8 edges, loops and parallel edges among them."""
    shapes = [metric(e.graph, e.lengths) for e in optimize.full_catalog()]
    shapes += [metric(*interval()), metric(*loop())]
    for t in np.arange(1, 20) / 20:
        for g in (path_graph(2)[0], mandarin(2)[0], stower(1, 1)[0]):
            shapes.append(metric(g, [t, 1.0 - t]))
    rng = np.random.default_rng(45)
    for E in np.repeat(np.arange(1, 9), 40):
        V = int(rng.integers(1, E + 2))
        shapes.append(metric(random_connected_graph(rng, V, int(E)), random_lengths(rng, int(E))))
    return shapes


def test_a_neumann_gap_lies_below_its_cap():
    # a Neumann gap search takes N at its cap as floor.count + 1 without a
    # count (`_gap_search`): the bound k1 <= pi (E - El/2) / L on every
    # graph but the interval (pi / L), the loop (2 pi / L) and the lasso
    # (below 2 pi / L), all of which lie below pi (E + 2) / L.  A real
    # count there shows the level it stands for
    for m in _neumann_shapes():
        assert m.is_neumann_graph()
        at_cap, at_floor = _cap_count(m)
        assert at_floor == 1 and at_cap >= at_floor + 1, m


def _requested(monkeypatch):
    """Every k a trig count is requested at, in order of request: in a
    stacked `spectra` call, or alone in `spectrum`."""
    ks, spectra, spectrum = [], _TrigCount.spectra, _TrigCount.spectrum

    def recorded(coupling, alpha, lengths, at, spectra=spectra):
        ks.extend(at.tolist())
        return spectra(coupling, alpha, lengths, at)

    def alone(count, k):
        ks.append(k)
        return spectrum(count, k)

    monkeypatch.setattr(_TrigCount, "spectra", staticmethod(recorded))
    monkeypatch.setattr(_TrigCount, "spectrum", alone)
    return ks


def test_only_a_neumann_gap_search_skips_its_cap(monkeypatch):
    # the bound that stands in for the count at the cap holds on Neumann
    # graphs alone: with one delta or one Dirichlet vertex the search
    # counts at the cap as before
    ks = _requested(monkeypatch)
    rng = np.random.default_rng(31)
    graphs = [star(16), flower(3), (random_connected_graph(rng, 5, 8), random_lengths(rng, 8))]
    for g, lengths in graphs:
        m = metric(g, lengths)
        ks.clear()
        spectral_gap(m)
        assert ks and max(ks) < spectral.gap_upper_bound(m), m
        for condition in (DeltaTheta(0.5), DIRICHLET):
            conditions = [NEUMANN] * g.vertex_count
            conditions[0] = condition
            m = metric(g, lengths, conditions)
            ks.clear()
            spectral_gap(m)
            assert max(ks) >= spectral.gap_upper_bound(m), (m, condition)


def test_a_neumann_cap_is_counted_where_regula_falsi_reads_it(monkeypatch):
    # with the cap just above star(16)'s gap 8 pi and no pole between them,
    # the first bracket is the floor and the cap: regula falsi reads the
    # cap's value, so it requests the cap's count itself, once, and finds
    # the gap the search finds under the true cap
    m = metric(*star(16))
    count = _TrigCount(m)
    known = spectral_gap(m)
    cap = known[0] * (1.0 + 1e-3)
    at_cap = cap + spectral._merge_width(cap)
    assert count.poles(at_cap) == count.floor_sample().poles   # the first pole is 16 pi
    monkeypatch.setattr(spectral, "gap_upper_bound", lambda m: cap)
    ks, illinois, from_illinois = _requested(monkeypatch), spectral._illinois, []

    def recorded(count, lo, hi):
        search, reply = illinois(count, lo, hi), None
        try:
            while True:
                request = search.send(reply)
                from_illinois.append(request[1])
                reply = yield request
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(spectral, "_illinois", recorded)
    k, mult = spectral_gap(m)
    assert ks.count(at_cap) == 1 and from_illinois.count(at_cap) == 1
    assert k == pytest.approx(known[0], rel=1e-12) and mult == known[1] == 15


def test_levels_takes_each_m0_once(count_matrices):
    # the trig and the hyperbolic search of one graph share the inertia of
    # its M0, which `levels` solved once for each
    m = metric(*star(3)).with_condition(1, DeltaTheta(-2.0)).with_condition(2, DIRICHLET)
    row = levels([m], 10.0)[0]
    assert row[0] < 0.0 < row[1]
    assert (count_matrices.m0.n, count_matrices.m0.calls) == (1, 1)


def test_neumann_floor_count_is_one_on_catalog_and_random_graphs():
    # the premise of the known floor count, by the count itself, whole K and
    # vertex form: k = 0 is the only level of a connected Neumann graph below its
    # search floor
    graphs = [metric(entry.graph, entry.lengths) for entry in optimize.full_catalog()]
    rng = np.random.default_rng(2230)
    for _ in range(50):
        E = int(rng.integers(2, 31))
        V = int(rng.integers(2, E // 2 + 3))
        graphs.append(metric(random_connected_graph(rng, V, E), random_lengths(rng, E)))
    reduced = 0
    for m in graphs:
        count = _TrigCount(m)
        assert count.neumann
        assert count.made(count.floor, count.spectrum(count.floor)).count == 1 == count.floor_sample().count, m
        reduced += count.alpha.size + 2 * count.lengths.size >= _REDUCE_FROM
    assert len(graphs) == 74 and reduced >= 10
    # with delta and Dirichlet vertices and no level at lambda = 0, the floor
    # counts of both signs, taken, equal the inertia of M0: N = n_- below the
    # trig floor and N = V' - n_- at the hyperbolic one
    rng = np.random.default_rng(2231)
    compared = attractive = 0
    while compared < 200:
        V = int(rng.integers(2, 7))
        g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 4)))
        conditions = [[NEUMANN, DIRICHLET, DeltaTheta(float(rng.uniform(-3, 3)))][i] for i in rng.integers(0, 3, V)]
        m = MetricGraph(g, random_lengths(rng, g.edge_count).values, conditions)
        if m.is_neumann_graph() or spectral._Count(m).zero_modes[1]:
            continue
        for count in (_TrigCount(m), _HyperbolicCount(m)):
            assert count.made(count.floor, count.spectrum(count.floor)).count == count.floor_sample().count, m
        compared += 1
        attractive += spectral._Count(m).zero_modes[0] > 0
    assert attractive >= 20


def test_bracket_end_is_the_count_below_every_level(monkeypatch):
    # a level search takes the lower end of a level's bracket for N(r - d),
    # the search floor's known count included; wrapped to count N(r - d) as
    # well, `_around` finds the two equal on every level of the catalog and
    # of seeded graphs with delta and Dirichlet vertices
    around = spectral._around
    compared, stood_in = [], []

    def counted(count, r, lo=None):
        below, above = yield from around(count, r, lo)
        k = r - spectral._merge_width(r)
        exact = count.made(k, (yield count, k))
        assert below.count == exact.count, (r, below.k, exact.k)
        compared.append(r)
        stood_in.append(below is lo)
        return below, above

    monkeypatch.setattr(spectral, "_around", counted)
    for entry in optimize.full_catalog():
        m = metric(entry.graph, entry.lengths)
        eigenvalues(m, 40.0)
        spectral_gap(m)
    rng = np.random.default_rng(2323)
    for _ in range(40):
        V = int(rng.integers(2, 7))
        g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 4)))
        conditions = [[NEUMANN, DIRICHLET, DeltaTheta(float(rng.uniform(-3, 3)))][i] for i in rng.integers(0, 3, V)]
        conditions[int(rng.integers(V))] = DeltaTheta(float(rng.uniform(-3.0, 3.0)))
        m = MetricGraph(g, random_lengths(rng, g.edge_count).values, conditions)
        eigenvalues(m, 40.0)
        spectral.negative_spectrum(m)
    assert len(compared) > 600 and all(stood_in)


def test_the_count_at_zero_is_the_levels_at_and_below_zero(independent_checks):
    # on seeded delta and Dirichlet graphs, and on the intervals with a level
    # at lambda = 0 (f = 1 + c x), the inertia of M0 is what the searches
    # find: n_- negative levels, and no level within 1e-6 of k = 0 but the
    # n_0 zeros.  The independent count agrees at k = 1e-3.  An eigenvalue
    # of M0 decided zero lies well inside eigvalsh's backward error n eps
    # max |mu|, and every other one far outside it
    checks = independent_checks
    rng = np.random.default_rng(5)
    graphs = [_zero_mode_interval(c) for c in np.arange(1, 31) / 10]
    while len(graphs) < 330:
        V = int(rng.integers(2, 6))
        g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 3)))
        conditions = [[NEUMANN, DIRICHLET, DeltaTheta(float(rng.uniform(-3, 3)))][i] for i in rng.integers(0, 3, V)]
        m = MetricGraph(g, random_lengths(rng, g.edge_count).values, conditions)
        if not m.is_neumann_graph():
            graphs.append(m)
    zero, other, attractive = [], [], 0
    for m, row in zip(graphs, levels(graphs, 10.0)):
        count = spectral._Count(m)
        n_minus, n_zero = count.zero_modes
        assert sum(k < 0.0 for k in row) == n_minus, m
        assert [k for k in row if abs(k) < 1e-6] == [0.0] * n_zero, m
        plain = checks.Graph(m.graph.vertex_count, m.graph.edges, m.lengths)
        couplings = {v: a for v, a in enumerate(m.alpha.tolist()) if a != 0.0}
        assert checks.count(plain, 1e-3, couplings) == n_minus + n_zero + sum(0.0 < k < 1e-3 for k in row), m
        q = count.coupling[:, count.lengths.size :]
        mu = np.sort(np.abs(np.linalg.eigvalsh(np.diag(count.alpha) + (q / count.lengths) @ q.T)))
        bound = mu.size * np.finfo(float).eps * mu.max(initial=0.0)
        zero += list(mu[:n_zero] / bound)
        other += list(mu[n_zero:] / bound)
        attractive += n_minus > 0
    assert len(zero) == 30 and max(zero) <= 0.45 and min(other) >= 1e10
    assert attractive >= 50


def _delta_corpus() -> list[MetricGraph]:
    """150 seeded graphs, V = 2-5 and E = V - 1 to V + 1, each vertex delta
    coupled with theta ~ U(-3.1, 3.1) with probability 0.6, else Neumann."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(150):
        V = int(rng.integers(2, 6))
        E = V - 1 + int(rng.integers(0, 3))
        g = random_connected_graph(rng, V, E)
        conditions = [DeltaTheta(float(rng.uniform(-3.1, 3.1))) if rng.random() < 0.6 else NEUMANN for _ in range(V)]
        out.append(MetricGraph(g, random_lengths(rng, E).values, conditions))
    return out


def test_the_negative_range_has_its_top_without_a_count(count_matrices):
    # the top of the negative range is the first kappa = 2^j where a diagonal
    # bound makes H positive definite, taken without a count, so the range
    # search asks for the first counts.  Doubling kappa with one count per
    # step took 949 hyperbolic count matrices on this corpus, and 783 while
    # regula falsi bisected onto an end whose value reads rounding noise
    corpus = _delta_corpus()
    found = [spectral.negative_spectrum(m) for m in corpus]
    assert count_matrices.n == 781
    attractive = 0
    for m, negative in zip(corpus, found):
        count = _HyperbolicCount(m)
        top = count.top(count.vertex_alpha)
        if not count.zero_modes[0]:
            assert negative == []
            continue
        attractive += 1
        assert next(spectral._negative_search(count)) == {0: (count, top + spectral._merge_width(top))}, m
        assert all(-p.k < top for p in negative), m
        # -H(top) is negative definite: n_- = V'
        assert count.made(top, count.spectrum(top)).count == count.alpha.size, m
        # the bound holds there, and top is the first power of two where it does
        ends = m.graph.incidence[:, : m.graph.edge_count]

        def bound(kappa):
            return np.all(kappa * (ends @ np.tanh(0.5 * kappa * m.lengths)) > -m.alpha)

        assert bound(top) and (top == 1.0 or not bound(top / 2)), m
    assert attractive == 79


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_eigenfunction_is_cosine():
    m = metric(*interval())
    (f,) = eigenfunction(m, PI)
    assert abs(f.amp_cos[0]) == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert f.amp_sin[0] == pytest.approx(0.0, abs=1e-10)
    assert f.inner(f, m.lengths) == pytest.approx(1.0, abs=1e-12)


def test_star_gap_basis_vanishes_at_center():
    m = metric(*star(3))
    basis = eigenfunction(m, 1.5 * PI)
    assert len(basis) == 2
    for f in basis:
        assert np.abs(f.at_ends(m.lengths)[0][m.graph.ends == 0]).max() <= 1e-9
        assert vertex_condition_residual(m, f) <= 1e-9


def test_two_flower_gap_eigenfunction_vanishes_at_vertex():
    # the simple k1 = 2 pi eigenfunction of the equilateral two-petal flower
    # is the odd sine mode, zero at the vertex; the rotatable cosine picture
    # belongs to the circle (see the loop test below)
    m = metric(*flower(2))
    basis = eigenfunction(m, 2 * PI)
    assert len(basis) == 1
    assert np.abs(basis[0].at_ends(m.lengths)[0]).max() <= 1e-9


def test_loop_basis_rotates_to_vertex_maximum():
    m = metric(*loop())
    basis = eigenfunction(m, 2 * PI)
    assert len(basis) == 2
    amp = math.hypot(*(f.at_ends(m.lengths)[0][0] for f in basis))
    # some rotation of the basis attains its global maximum at the vertex
    assert amp == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert amp == pytest.approx(max(f.max_abs(m.lengths) for f in basis), abs=1e-6)


def test_eigenfunction_requires_eigenvalue():
    with pytest.raises(NoEigenspaceError):
        eigenfunction(metric(*interval()), 2.0)


def test_eigenfunction_at_zero_reads_the_count_at_zero():
    # k = 0 is a level where M0 is singular: a Neumann graph's eigenspace
    # there is the constants, any other graph's zero modes are not constant
    # and have no EdgeTrig form, and without a zero mode k = 0 is no level
    m = metric(*star(3))
    (f,) = eigenfunction(m, 0.0)
    assert f.k == 0.0 and np.all(f.amp_sin == 0.0)
    assert f.amp_cos == pytest.approx(np.full(3, 1.0)) and f.inner(f, m.lengths) == pytest.approx(1.0)
    with pytest.raises(NotApplicableError, match="not constant"):
        eigenfunction(_zero_mode_interval(0.5), 0.0)
    for m in (metric(*interval()).with_condition(0, DIRICHLET), metric(*star(3)).with_condition(1, DeltaTheta(0.4)),
              _zero_mode_interval(0.5).with_condition(1, DeltaTheta(-0.6))):
        with pytest.raises(NoEigenspaceError, match="k = 0"):
            eigenfunction(m, 0.0)


@pytest.mark.parametrize("n_max", [-1, 2.5, True, "3"])
def test_levels_cut_must_be_a_count(n_max):
    # -1 dropped the last level, 2.5 raised a bare TypeError, True cut at 1
    with pytest.raises(InvalidInputError, match="n_max"):
        levels([metric(*star(3))], 10.0, n_max)


def test_levels_cut_at_n_max():
    m = metric(*star(3))
    row = levels([m], 10.0)[0]
    assert [levels([m], 10.0, n)[0] for n in (0, 2, np.int64(3))] == [[], row[:2], row[:3]]


def test_amplitude_relation_and_conditions_random():
    rng = np.random.default_rng(23)
    for _ in range(6):
        V = int(rng.integers(2, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(1, 3)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        k1, _ = spectral_gap(m)
        for f in eigenfunction(m, k1):
            assert vertex_condition_residual(m, f) <= 1e-9
            assert f.inner(f, m.lengths) == pytest.approx(1.0, abs=1e-10)


def test_bond_amplitude_reversal_relation():
    # a_e^in = e^{i k l_e} a_ehat^out on every bond, and the amplitudes
    # solve the secular fixed point a = U(k) a
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 3, 4)
    m = metric(g, random_lengths(rng, 4, l_min=0.08))
    k1, _ = spectral_gap(m)
    E = g.edge_count
    for f in eigenfunction(m, k1):
        # bond b runs from its origin, end b: f = a_in e^{-iky} + a_out e^{iky}
        value, slope = f.at_ends(m.lengths)
        a_in, a_out = (value + 1j * slope / k1) / 2, (value - 1j * slope / k1) / 2
        phase = np.exp(1j * k1 * m.lengths)
        assert np.max(np.abs(a_in[:E] - phase * a_out[E:])) <= 1e-9
        assert np.max(np.abs(a_in[E:] - phase * a_out[:E])) <= 1e-9
        bs = BondScattering(m)
        assert np.max(np.abs(a_in - bs.U(k1) @ a_in)) <= 1e-8
        assert np.max(np.abs(a_out - bs.sigma(k1) @ a_in)) <= 1e-8


def test_eigenfunction_residual_by_finite_differences():
    m = metric(*star(3))
    (f, _) = eigenfunction(m, 1.5 * PI)[:2]
    k = 1.5 * PI
    h = 1e-4  # balances truncation against cancellation in the second difference
    for e in range(3):
        xs = np.linspace(2 * h, float(m.lengths[e]) - 2 * h, 9)
        below, at, above = (f.at(e, xs + d)[0] for d in (-h, 0.0, h))
        second = (above - 2 * at + below) / h**2
        assert np.abs(-second - k**2 * at).max() <= 1e-7 * k**2


def test_simple_eigenfunction_sign_is_tie_proof():
    # the simple k1 = 2 pi level of flower(2) is B = (b, -b) on the two
    # loops: its two largest coefficients tie, and the first one is positive
    m = metric(*flower(2))
    (f,) = eigenfunction(m, 2 * PI)
    assert f.amp_sin[0] > 0
    assert f.amp_sin[1] == pytest.approx(-f.amp_sin[0], rel=1e-12)
    # a tie broken by one ulp either way keeps the sign
    for other in (np.nextafter(-0.5, -1.0), np.nextafter(-0.5, 0.0)):
        for sign in (1.0, -1.0):
            assert _signed(sign * np.array([0.0, 0.5, other, 0.1]))[1] > 0, (other, sign)


@pytest.mark.parametrize("m", [
    metric(*star(3)),
    metric(*mandarin(4)),
    metric(*flower(2)),
    metric(*stower(2, 1)).with_condition(0, DIRICHLET),
    metric(*star(4)).with_condition(0, DeltaTheta(-2.0)),
], ids=["star3", "mandarin4", "flower2", "stower21-dirichlet", "star4-delta"])
def test_eigenfunction_builds_no_bond_scattering_matrix(m, monkeypatch):
    def refuse(self, graph):
        raise AssertionError("a solver path built the bond-scattering matrix")

    monkeypatch.setattr(BondScattering, "__init__", refuse)
    for p in eigenvalues(m, 2.0 * spectral_gap(m)[0]).eigenpairs:
        basis = eigenfunction(m, p.k)
        assert len(basis) == p.multiplicity, p
        if p.k > 0:
            assert max(vertex_condition_residual(m, f) for f in basis) <= 1e-10, p


def _vertex_system(m: MetricGraph, k: float) -> np.ndarray:
    """The vertex system M(k) of `spectral._vertex_matrices`, one k at a
    time and assembled entry by entry from cos and sin at the edge ends:
    the oracle of the graph's template."""
    g = m.graph
    E = g.edge_count
    end = np.arange(2 * E)
    edge, out = end % E, np.where(end < E, 1.0, -1.0)   # out: the outgoing direction
    kx = k * np.concatenate([np.zeros(E), m.lengths])    # k x at every edge end
    cos, sin = np.cos(kx), np.sin(kx)
    value, slope = np.zeros((2 * E, 2 * E)), np.zeros((2 * E, 2 * E))
    value[end, edge], value[end, E + edge] = cos, sin
    slope[end, edge], slope[end, E + edge] = -out * sin, out * cos
    first = g.first_end
    system = value - value[first[g.ends]]
    dirichlet = np.isinf(m.alpha)
    alpha_k = np.where(dirichlet, 0.0, m.alpha) / k
    kirchhoff = (g.end_at @ slope - alpha_k[:, None] * value[first]) / np.maximum(1.0, np.abs(alpha_k))[:, None]
    system[first] = np.where(dirichlet[:, None], value[first], kirchhoff)
    return system


def _vertex_system_graphs():
    """Neumann graphs, delta graphs, Dirichlet graphs, and graphs with loops
    and parallel edges, each with the k at which M(k) is compared: random
    ones, and for a delta graph |alpha|/k below, at and above 1."""
    rng = np.random.default_rng(31)
    cases = [metric(*star(5)), metric(*flower(4)), metric(*mandarin(3)), metric(*stower(2, 2)),
             metric(*star(4)).with_condition(0, DeltaTheta(-2.0)).with_condition(2, DeltaTheta(1.1)),
             metric(*stower(1, 2)).with_condition(0, DeltaTheta(2.5)),
             metric(*stower(2, 1)).with_condition(0, DIRICHLET),
             metric(*path_graph(3)).with_condition(0, DIRICHLET).with_condition(3, DIRICHLET),
             *_incidence_graphs(60)]
    for m in cases:
        ks = list(rng.uniform(0.05, 40.0, 4))
        for alpha in np.abs(m.alpha[np.isfinite(m.alpha) & (m.alpha != 0.0)]):
            ks += [0.5 * alpha, alpha, 2.0 * alpha]
        yield m, ks


def test_vertex_matrices_equal_the_entrywise_oracle_bit_for_bit():
    # the template gives every entry by the same operations as the oracle,
    # alone or stacked over k, zeros' signs included
    kinds = set()
    for m, ks in _vertex_system_graphs():
        g = m.graph
        kinds.add("dirichlet" if np.isinf(m.alpha).any() else "delta" if m.alpha.any() else "neumann")
        if any(g.is_loop(e) for e in range(g.edge_count)) or len(set(g.edges)) < g.edge_count:
            kinds.add("loops or parallel edges")
        stacked = spectral._vertex_matrices(m, ks)
        for k, got in zip(ks, stacked):
            want = _vertex_system(m, k)
            assert got.tobytes() == want.tobytes(), (m, k)
            assert spectral._vertex_matrices(m, [k])[0].tobytes() == want.tobytes(), (m, k)
    assert kinds == {"neumann", "delta", "dirichlet", "loops or parallel edges"}


def test_stacked_eigenbases_equal_the_single_level_solves():
    # one svd over a cluster's levels gives every level the basis it gets
    # alone, and the one the entrywise system gives
    for m in (metric(*star(5)), metric(*flower(3)), metric(*stower(2, 2)),
              metric(*star(4)).with_condition(0, DeltaTheta(-2.0)),
              metric(*stower(2, 1)).with_condition(0, DIRICHLET)):
        E = m.graph.edge_count
        pairs = [p for p in eigenvalues(m, 3.0 * spectral_gap(m)[0]).eigenpairs if p.k > 0]
        assert len(pairs) >= 2 and max(p.multiplicity for p in pairs) >= 2, m
        ks, mults = [p.k for p in pairs], [p.multiplicity for p in pairs]
        for k, mult, got in zip(ks, mults, spectral._eigenbasis_coeffs(m, ks, mults)):
            alone = spectral._eigenbasis_coeffs(m, [k], [mult])[0]
            null = np.linalg.svd(_vertex_system(m, k))[2][-mult:]
            evals, evecs = np.linalg.eigh(_gram(k, null[:, :E], null[:, E:], m.lengths))
            want = (evecs / np.sqrt(evals)).T @ null
            assert got.tobytes() == alone.tobytes() == want.tobytes(), (m, k)


def _star(centre: int, at_centre, at_leaves) -> MetricGraph:
    """Equilateral three-edge star on vertices 0..3 with the given centre;
    every edge runs from the centre (x = 0) to a leaf (x = 1/3)."""
    leaves = [v for v in range(4) if v != centre]
    conditions = [at_centre if v == centre else at_leaves for v in range(4)]
    return MetricGraph(DiscreteGraph(4, [(centre, v) for v in leaves]), np.full(3, 1.0 / 3.0), conditions)


# (graph, level, amplitude of edge 0 to shift).  At k l = pi/2 on the
# stars, cos(kx) shifts only the value at the centre and sin(kx) only the
# outgoing derivative there, so each star case violates one condition at
# one vertex: continuity (Dirichlet leaves), Kirchhoff (Neumann leaves,
# where f is zero at the centre) or delta.
RESIDUAL_CASES = {
    "continuity-centre-first": (_star(0, NEUMANN, DIRICHLET), 1.5 * PI, "amp_cos"),
    "continuity-centre-last": (_star(3, NEUMANN, DIRICHLET), 1.5 * PI, "amp_cos"),
    "kirchhoff-centre-first": (_star(0, NEUMANN, NEUMANN), 1.5 * PI, "amp_sin"),
    "kirchhoff-centre-last": (_star(3, NEUMANN, NEUMANN), 1.5 * PI, "amp_sin"),
    "delta-centre": (_star(1, DeltaTheta(1.0), NEUMANN), 1.5 * PI, "amp_sin"),
    # the gap eigenfunction is not zero at the delta centre, so its
    # residual is small only where alpha f enters the flux
    "delta-centre-gap": (_star(2, DeltaTheta(1.0), NEUMANN), None, "amp_cos"),
    "dirichlet-ends": (metric(*interval()).with_condition(0, DIRICHLET).with_condition(1, DIRICHLET),
                       PI, "amp_cos"),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_catches_a_shifted_amplitude(case):
    m, k, name = RESIDUAL_CASES[case]
    if k is None:
        k = spectral_gap(m)[0]
    f = eigenfunction(m, k)[0]
    assert vertex_condition_residual(m, f) <= 1e-10
    amps = {"amp_cos": f.amp_cos.copy(), "amp_sin": f.amp_sin.copy()}
    amps[name][0] += 1e-6
    assert vertex_condition_residual(m, EdgeTrig(k, amps["amp_cos"], amps["amp_sin"])) >= 1e-7


def _loop_residual(m: MetricGraph, f: EdgeTrig) -> float:
    """`vertex_condition_residual` one vertex and one edge end at a time, with
    scalar formulas: f(0), f'(0) at the start of an edge, f(l), -f'(l) at its
    end, and f at a vertex taken at its first end in `DiscreteGraph.ends`."""
    E = m.graph.edge_count
    worst = 0.0
    for v in range(m.graph.vertex_count):
        values, derivs = [], []
        for b in np.flatnonzero(m.graph.ends == v):
            e, x, out = b % E, (0.0 if b < E else float(m.lengths[b % E])), (1.0 if b < E else -1.0)
            c, s = math.cos(f.k * x), math.sin(f.k * x)
            values.append(f.amp_cos[e] * c + f.amp_sin[e] * s)
            derivs.append(out * f.k * (f.amp_sin[e] * c - f.amp_cos[e] * s))
        if m.conditions[v] == DIRICHLET:
            worst = max(worst, max(map(abs, values)))
            continue
        flux = abs(sum(derivs) - m.conditions[v].alpha * values[0]) / max(1.0, abs(f.k))
        worst = max(worst, max(values) - min(values), flux)
    return worst


def test_residual_equals_the_loop_over_vertices():
    # random coefficients violate every condition, so each term is exercised
    rng = np.random.default_rng(41)
    for _ in range(20):
        V = int(rng.integers(2, 5))
        g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 3)))
        conditions = [[NEUMANN, DIRICHLET, DeltaTheta(float(rng.uniform(-3, 3)))][i] for i in rng.integers(0, 3, V)]
        m = MetricGraph(g, random_lengths(rng, g.edge_count).values, conditions)
        f = EdgeTrig(float(rng.uniform(0.5, 20.0)), rng.normal(size=g.edge_count), rng.normal(size=g.edge_count))
        assert vertex_condition_residual(m, f) == pytest.approx(_loop_residual(m, f), rel=1e-13, abs=1e-13)


def _simpson(values: np.ndarray, length: float) -> float:
    """Composite Simpson rule over [0, length] on an odd number of samples."""
    n = values.size
    weights = np.ones(n)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return float(values @ weights) * length / (3.0 * (n - 1))


@pytest.mark.parametrize("family", [mandarin(4), star(5), flower(9)], ids=["mandarin4", "star5", "flower9"])
def test_gram_and_max_abs_agree_with_sampled_functions(family):
    m = metric(*family)
    E = m.graph.edge_count
    rng = np.random.default_rng(9)
    levels = [p for p in eigenvalues(m, 3.0 * spectral_gap(m)[0]).eigenpairs if p.k > 0]
    assert len(levels) >= 2
    for p in levels:
        basis = eigenfunction(m, p.k)
        amp_cos = np.vstack([[f.amp_cos for f in basis], rng.normal(size=(3, E))])
        amp_sin = np.vstack([[f.amp_sin for f in basis], rng.normal(size=(3, E))])
        trigs = [EdgeTrig(p.k, a, b) for a, b in zip(amp_cos, amp_sin)]
        # samples[i, e] holds trigs[i] on 2001 points of edge e
        samples = np.array([[t.at(e, np.linspace(0.0, l, 2001))[0] for e, l in enumerate(m.lengths)]
                            for t in trigs])
        quad = np.array([[sum(_simpson(s1[e] * s2[e], l) for e, l in enumerate(m.lengths))
                          for s2 in samples] for s1 in samples])
        assert np.allclose(_gram(p.k, amp_cos, amp_sin, m.lengths), quad, rtol=0.0, atol=1e-8), p
        for i, t1 in enumerate(trigs):
            for j, t2 in enumerate(trigs):
                assert t1.inner(t2, m.lengths) == pytest.approx(quad[i, j], abs=1e-8), p
            # the dense maximum misses the peak by at most (k h)^2 / 2 relative
            dense = float(np.abs(samples[i]).max())
            assert dense * (1.0 - 1e-12) <= t1.max_abs(m.lengths) <= dense * (1.0 + 1e-4), p
        assert np.allclose(_gram(p.k, amp_cos[:len(basis)], amp_sin[:len(basis)], m.lengths),
                           np.eye(len(basis)), rtol=0.0, atol=1e-12), p


# ---------------------------------------------------------------------------
# Rayleigh quotients
# ---------------------------------------------------------------------------


def test_rayleigh_centered_denominator():
    # cos(pi x / 2) on the unit interval: int f'^2 = pi^2 / 8, int f^2 = 1/2
    # and int f = 2 / pi, so R(f - <f>) = (pi^2 / 8) / (1/2 - 4 / pi^2)
    m = metric(*interval())
    f = EdgeTrig(PI / 2, [1.0], [0.0])
    assert rayleigh_centered(m, f) == pytest.approx((PI**2 / 8) / (0.5 - 4 / PI**2), abs=1e-12)


@pytest.mark.parametrize("amps", [([1.0, 2.0], [0.0]), ([[1.0]], [[0.0]])], ids=["lengths", "rank"])
def test_edge_trig_needs_two_amplitude_arrays_of_one_length(amps):
    with pytest.raises(InvalidInputError, match="one length"):
        EdgeTrig(PI, *amps)


def test_min_max_bound_random_test_functions():
    rng = np.random.default_rng(31)
    for _ in range(2):
        V = int(rng.integers(3, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(1, 3)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        k1, _ = spectral_gap(m)
        freq_cap = 0.95 * PI / float(m.lengths.max())
        for _ in range(100):
            values = rng.normal(size=g.vertex_count)
            freq = float(rng.uniform(0.2, freq_cap))
            assert k1**2 <= rayleigh_centered(m, harmonic_interpolant(m, values, freq)) + 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND 74: a level near lambda = 0 decided by the count's noise")
def test_a_level_near_zero_is_one_level_of_one_value():
    # the count matrix's eigenvalue that crosses zero at this level is below
    # eigvalsh's noise, so eigenvalues lists pairs of multiplicity 0 and the
    # three solvers disagree; the root of the vertex determinant (mpmath,
    # 50 digits) is 3.4431803929375870e-4
    g = DiscreteGraph(3, [(0, 1), (1, 2), (0, 1), (0, 2)])
    m = MetricGraph(g, [0.09755008694138771, 0.02293600978402663, 0.48034301660291323, 0.39917088667167244],
                    [DeltaTheta(-2.9772577850547908), DeltaTheta(0.9268731594337984), DIRICHLET])
    pairs = eigenvalues(m, 1.0).eigenpairs
    assert all(p.multiplicity > 0 for p in pairs), [p for p in pairs if p.multiplicity == 0]
    k1 = 3.4431803929375870e-4
    for got in (pairs[0].k, levels([m], 1.0)[0][0], spectral_gap(m)[0]):
        assert got == pytest.approx(k1, rel=1e-7, abs=0.0)


def test_a_gap_near_three_poles_stays_below_the_bound():
    # three lengths within 2.5e-12 of 1/3 put three poles pi / l_e within
    # 1.3e-10 of 3 pi; the levels, roots of sum tan(k l_e / 2) = 0 and
    # sum cot(k l_e / 2) = 0 (mpmath, 50 digits), lie 3.6e-11 apart, the
    # lowest 3.6e-11 below the bound pi (E - El/2) = 3 pi.  A count that
    # kept clear of the poles reported pi / min(l_e), 6.83e-11 above it
    g = mandarin(3)[0]
    m = MetricGraph(g, [0.3333333333309177, 0.33333333333532683, 0.33333333333375537])
    levels_near = (3 * PI - 3.6478088e-11, 3 * PI + 1.05e-15, 3 * PI + 3.648018e-11)
    gap, _ = spectral_gap(m)
    assert gap <= optimize.upper_bound(g)
    assert gap == pytest.approx(levels_near[0], rel=0.0, abs=1e-11)


# the float error of a level: a gap above the proven bound by more than
# this many ulps of the bound is an error (`optimize.LEVEL_ULPS`)
NEAR_MAXIMIZERS = [("flower", (n,)) for n in (2, 3, 4, 5)] + [("mandarin", (n,)) for n in (2, 3, 4, 5)] + [
    ("stower", p) for p in ((1, 2), (2, 1), (2, 2), (3, 2))] + [("star", (3,)), ("star", (4,))]


def test_perturbed_catalog_maximizers_stay_below_the_bound():
    # lengths of catalog maximizers scaled by 1 + s N(0, 1) and renormalized,
    # 5 draws per s in 1e-12 ... 1e-9: near a maximizer with commensurate
    # lengths, poles of one or more edges lie within about 1e-10 of the gap.
    # A count kept clear of the poles put 35 of these 280 gaps above the
    # bound, the worst by 1.2e5 ulps (2.2e-10)
    rng = np.random.default_rng(7)
    drawn = 0
    for name, params in NEAR_MAXIMIZERS:
        g, lengths = getattr(families, name)(*params)
        bound = optimize.upper_bound(g)
        for s in (1e-12, 1e-11, 1e-10, 1e-9):
            for _ in range(5):
                lv = lengths.values * (1.0 + s * rng.standard_normal(g.edge_count))
                gap, _ = spectral_gap(metric(g, lv / lv.sum()))
                assert gap <= bound + optimize.LEVEL_ULPS * math.ulp(bound), (name, params, s, lv)
                drawn += 1
    assert drawn == 280


# pi / L of the path below, L = 1 + 1.145e-16 (mpmath, 40 digits: 3.14159265358979287877...)
PATH_PI_OVER_L = 3.1415926535897927


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND 118: a path's gap lies 17.5 ulps above pi / L")
def test_a_path_s_gap_is_within_a_level_s_float_error_of_pi_over_its_length():
    # tree #67 of check_a13(0)'s corpus, a path of five edges; its gap is
    # pi / L, and spectral_gap returns 3.1415926535898007, 17.5 ulps above
    # it, past the LEVEL_ULPS ulps of a level's float error (tree #116,
    # another five-edge path, reads 15.3 ulps)
    m = metric(DiscreteGraph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5)]),
               [0.10786896868227012, 0.3839377084762581, 0.021354835296006073, 0.09133597807486639,
                0.39550250947059945])
    k1, mult = spectral_gap(m)
    assert mult == 1
    assert abs(k1 - PATH_PI_OVER_L) <= optimize.LEVEL_ULPS * math.ulp(PATH_PI_OVER_L), k1


def _pole_sweep_graphs():
    """Catalog graphs whose levels sit on poles, a stower with lengths in
    integer ratios, a graph of the vertex form, and seeded random graphs,
    half of them with lengths in integer ratios."""
    graphs = [metric(*g) for g in (mandarin(3), flower(3), star(4), path_graph(2), stower(2, 1), star(16))]
    rng = np.random.default_rng(2424)
    for j in range(24):
        E = int(rng.integers(2, 7))
        g = random_connected_graph(rng, int(rng.integers(2, E + 2)), E)
        lengths = rng.uniform(0.1, 1.0, E) if j % 2 else rng.uniform(0.1, 0.3) * rng.integers(1, 4, E)
        graphs.append(metric(g, lengths))
    return graphs


def test_the_count_at_and_next_to_every_pole_is_monotone():
    # N at k_p (1 + o), o = 0 and +-1e-15 ... +-1e-9, around every pole k_p
    # below 60: the pole term and the near-pole pivot's sign come from one
    # x_e, so they jump at one float.  Where N(k_p (1 -+ 2e-9)) show no
    # level near the pole, all 15 counts are one.  Elsewhere they never fall
    # from |o| = 1e-13 on, and each lies between the outer two: a level
    # sitting on the pole is decided by eigvalsh's noise within an ulp or two
    # of it, as the count at any level is.  A pivot whose sign is read from
    # its float value, s c, miscounts at poles with no level near
    offsets = sorted([0.0] + [side * 10.0**e for e in range(-15, -8) for side in (-1.0, 1.0)])
    quiet = loud = 0
    for m in _pole_sweep_graphs():
        count = _TrigCount(m)
        for pole in count.poles_in(count.floor, 60.0):
            ks = np.array([pole * (1.0 + o) for o in [-2e-9] + offsets + [2e-9]])
            n = count.counts(ks, _TrigCount.spectra(np.repeat(count.coupling[None], ks.size, axis=0),
                                                    np.repeat(count.alpha[None], ks.size, axis=0),
                                                    count.lengths, ks))
            if n[0] == n[-1]:
                assert (n == n[0]).all(), (m, pole, n)
                quiet += 1
            else:
                clear = np.abs(np.array([-2e-9] + offsets + [2e-9])) >= 1e-13
                assert (np.diff(n[clear]) >= 0).all() and n.min() == n[0] and n.max() == n[-1], (m, pole, n)
                loud += 1
    assert quiet > 300 and loud > 50
