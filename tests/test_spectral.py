"""Secular equation, eigenvalues/eigenfunctions, vertex residuals, Rayleigh quotients.

Derived expected values come from independent oracles: explicit secular
functions of stars (sum of tangents), exact interval/loop spectra,
closed-form Rayleigh quotients, and composite quadrature of sampled
functions for the L^2 Gram matrix.  Eigenfunctions are solved from the
vertex conditions on the edge ends; the bond-scattering matrix U(k) is
built only here and in the property tests, as the oracle they must solve
(a = U(k) a), and a guard test makes sure no solver path builds it.
"""

import math

import numpy as np
import pytest

from qgraph import (
    DIRICHLET,
    BondScattering,
    DeltaTheta,
    InvalidInputError,
    NoEigenspaceError,
    eigenfunction,
    eigenvalues,
    harmonic_interpolant,
    metric,
    rayleigh,
    rayleigh_centered,
    secular_value,
    spectral_gap,
)
from qgraph import spectral
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
    _TrigCount,
    _gram,
    _signed,
    gap_reaches,
    multiplicity_at,
    vertex_condition_residual,
)

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


def test_secular_rejects_nonpositive_k():
    with pytest.raises(InvalidInputError):
        secular_value(metric(*interval()), 0.0)


NAN, INF = float("nan"), float("inf")
BAD_K_CALLS = {
    "gap_reaches-negative": lambda m: gap_reaches(m, -1.0),
    "gap_reaches-nan": lambda m: gap_reaches(m, NAN),
    "eigenvalues-kmax-nan": lambda m: eigenvalues(m, NAN),
    "eigenvalues-kmax-inf": lambda m: eigenvalues(m, INF),
    "eigenvalues-kmin-nan": lambda m: eigenvalues(m, 10.0, k_min=NAN),
    "eigenvalues-kmin-negative": lambda m: eigenvalues(m, 10.0, k_min=-1.0),
    "multiplicity-nan": lambda m: multiplicity_at(m, NAN),
    "multiplicity-inf": lambda m: multiplicity_at(m, INF),
    "eigenfunction-nan": lambda m: eigenfunction(m, NAN),
    "eigenfunction-negative": lambda m: eigenfunction(m, -1.0),
    "secular-nan": lambda m: secular_value(m, NAN),
    "harmonic-freq-nan": lambda m: harmonic_interpolant(m, [0.0, 1.0, 1.0, 1.0], NAN),
    "harmonic-freq-inf": lambda m: harmonic_interpolant(m, [0.0, 1.0, 1.0, 1.0], INF),
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


def test_short_edge_spectrum_not_masked():
    # a nearly collapsed pair of parallel edges hides the circle eigenvalue
    # from a plain smallest-singular-value sweep
    g, _ = mandarin(3)
    m = metric(g, np.array([1e-4, 1e-4, 0.9998]))
    k1, _ = spectral_gap(m)
    assert k1 == pytest.approx(2 * PI, abs=2e-3)


def _swept_counts(m, v, rng=None):
    """Count objects for delta couplings at v, Dirichlet and negative theta
    included; with rng each count has random lengths of its own."""
    counts = []
    for cond in (DeltaTheta(-2.5), DeltaTheta(-0.3), DeltaTheta(0.0), DeltaTheta(0.7),
                 DeltaTheta(3.1), DIRICHLET):
        if rng is not None:
            m = MetricGraph(m.graph, random_lengths(rng, m.graph.edge_count, l_min=0.05).values, m.conditions)
        counts.append(_TrigCount(m.with_condition(v, cond)))
    return counts


def _stacked_graphs():
    rng = np.random.default_rng(7)
    out = [(metric(*flower(2)), 0), (metric(*stower(2, 1)), 1), (metric(*star(4)), 2)]
    for _ in range(3):
        g = random_connected_graph(rng, 3, 5)  # extra edges, loops among them
        m = metric(g, random_lengths(rng, 5, l_min=0.05))
        out.append((m.with_condition(2, DeltaTheta(float(rng.uniform(-3, 3)))), 0))
    # 33 rows, 32 with the vertex Dirichlet: both groups take the reduced form
    out.append((metric(*flower(16)), 0))
    return out


def test_stacked_count_matrices_equal_single_ones():
    # the rows of a stack share their lengths, as the rows of a delta sweep
    # do (passed as one row), or have lengths of their own, as the
    # optimizer's restarts do (passed per row)
    ks = [1e-7, 0.37, 3.0, 2 * PI, 12.9, 40.1]
    rng = np.random.default_rng(8)
    for m, v in _stacked_graphs():
        for counts, shared in ((_swept_counts(m, v), True), (_swept_counts(m, v, rng), False)):
            assert counts[-1].alpha.size == counts[0].alpha.size - 1  # Dirichlet drops v
            for group in (counts[:-1], counts[-1:]):
                lengths = group[0].lengths if shared else np.stack([count.lengths for count in group])
                for k_shift in range(len(ks)):
                    row_ks = [ks[(j + k_shift) % len(ks)] for j in range(len(group))]
                    coupling = np.stack([count.coupling for count in group])
                    alpha = np.stack([count.alpha for count in group])
                    stack = _TrigCount.matrices(coupling, alpha, lengths, np.array(row_ks))
                    spectra = _TrigCount.spectra(coupling, alpha, lengths, np.array(row_ks))
                    assert stack.shape[0] == spectra.shape[0] == len(group)
                    for j, (count, k) in enumerate(zip(group, row_ks)):
                        assert np.array_equal(stack[j], count.matrix(k)), (m, v, j, k)
                        assert np.array_equal(spectra[j], count.spectrum(k)), (m, v, j, k)


def _full_count(count, k):
    """N(k) from the full (V' + 2E)-square matrix K, the oracle of the reduced count."""
    n_neg = int(np.count_nonzero(np.linalg.eigvalsh(count.matrix(k)) < 0.0))
    return count.poles(k) + count.offset + n_neg


def _reduced_corpus(rng, n_graphs, max_edges=30):
    """Random graphs with 16..max_edges edges, so every count is reduced; every
    second graph has delta and Dirichlet vertices."""
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
    its first two poles k l_e = pi n and at +-1e-12 relative of its first two
    switch points |tan(k l_e / 2)| = 1, where the eliminated row changes."""
    ks = list(rng.uniform(0.05, 60.0, n_random))
    for l in count.lengths[::3]:
        for n in (1, 2):
            ks += [n * PI / l * (1.0 + d) for d in (3e-10, -3e-10, 1e-6, -1e-6)]
            ks += [(n - 0.5) * PI / l * (1.0 + d) for d in (1e-12, -1e-12)]
    return ks


def reduced_count_mismatches(n_graphs, seed):
    """(samples, the (graph, k) whose reduced and full counts differ) on a
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
            if count.sample(k).count != _full_count(count, k):
                bad.append((m, k))
    return samples, bad


def test_reduced_count_equals_the_full_count():
    samples, bad = reduced_count_mismatches(24, 1616)
    assert samples >= 3000
    assert bad == []


def test_reduced_levels_equal_the_full_ones(monkeypatch):
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
        answers.append(gap_reaches(m, k))
        assert answers[-1] == (spectral_gap(m)[0] >= k), k
    assert answers == [True, True, False]


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_eigenfunction_is_cosine():
    m = metric(*interval())
    (f,) = eigenfunction(m, PI)
    assert abs(f.amp_cos[0]) == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert f.amp_sin[0] == pytest.approx(0.0, abs=1e-10)
    assert f.norm_sq(m.lengths) == pytest.approx(1.0, abs=1e-12)


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


def test_amplitude_relation_and_conditions_random():
    rng = np.random.default_rng(23)
    for _ in range(6):
        V = int(rng.integers(2, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(1, 3)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        k1, _ = spectral_gap(m)
        for f in eigenfunction(m, k1):
            assert vertex_condition_residual(m, f) <= 1e-9
            assert f.norm_sq(m.lengths) == pytest.approx(1.0, abs=1e-10)


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
            assert t1.norm_sq(m.lengths) == pytest.approx(quad[i, i], abs=1e-8), p
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


def test_rayleigh_cosine_on_interval():
    m = metric(*interval())
    assert rayleigh(m, EdgeTrig(PI, [1.0], [0.0])) == pytest.approx(PI**2, abs=1e-12)


def test_rayleigh_centered_denominator():
    # cos(pi x / 2) on the unit interval: int f'^2 = pi^2 / 8, int f^2 = 1/2
    # and int f = 2 / pi, so R(f - <f>) = (pi^2 / 8) / (1/2 - 4 / pi^2)
    m = metric(*interval())
    f = EdgeTrig(PI / 2, [1.0], [0.0])
    assert rayleigh_centered(m, f) == pytest.approx((PI**2 / 8) / (0.5 - 4 / PI**2), abs=1e-12)


MALFORMED_TEST_FUNCTIONS = {
    "amplitude-count": (interval(), EdgeTrig(PI, [1.0, 1.0], [0.0, 0.0])),
    "k-nan": (interval(), EdgeTrig(NAN, [1.0], [0.0])),
    "k-inf": (interval(), EdgeTrig(INF, [1.0], [0.0])),
    "zero": (interval(), EdgeTrig(PI, [0.0], [0.0])),
    # constants 1 and 2 on the two edges of a path jump at the middle vertex
    "discontinuous": (path_graph(2), EdgeTrig(0.0, [1.0, 2.0], [0.0, 0.0])),
}


@pytest.mark.parametrize("quotient", [rayleigh, rayleigh_centered], ids=["plain", "centered"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TEST_FUNCTIONS))
def test_rayleigh_rejects_malformed_test_functions(case, quotient):
    family, f = MALFORMED_TEST_FUNCTIONS[case]
    with pytest.raises(InvalidInputError):
        quotient(metric(*family), f)


@pytest.mark.parametrize("amps", [([1.0, 2.0], [0.0]), ([[1.0]], [[0.0]])], ids=["lengths", "rank"])
def test_edge_trig_needs_two_amplitude_arrays_of_one_length(amps):
    with pytest.raises(InvalidInputError, match="one length"):
        EdgeTrig(PI, *amps)


@pytest.mark.parametrize("values", [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0, 1.0]], ids=["short", "long"])
def test_harmonic_interpolant_needs_one_value_per_vertex(values):
    with pytest.raises(InvalidInputError, match="one value per vertex"):
        harmonic_interpolant(metric(*star(3)), values, 1.0)


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
            f = harmonic_interpolant(m, values, freq)
            try:
                quotient = rayleigh_centered(m, f)
            except InvalidInputError:
                continue  # near-constant draw
            assert k1**2 <= quotient + 1e-8
