"""Energies, gradients, criticality, path decomposition, nodal counts."""

import math

import numpy as np
import pytest

from qgraph import (
    InvalidInputError,
    MultiplicityError,
    PreconditionError,
    edge_energies,
    gap_gradient,
    is_critical,
    metric,
    nodal_count,
    path_decomposition,
    spectral_gap,
)
from qgraph import full_catalog, perturbation, spectral
from qgraph.spectral import eigenfunction
from qgraph.families import (
    interval,
    loop,
    necklace,
    path_graph,
    random_connected_graph,
    random_lengths,
    standarin_chain,
    star,
)

PI = math.pi


def fd_gap_sq_gradient(g, lengths, h=1e-6):
    """Central finite differences of k1^2 under unconstrained lengthening."""
    out = []
    for e in range(g.edge_count):
        lp = np.asarray(lengths, dtype=float).copy()
        lm = lp.copy()
        lp[e] += h
        lm[e] -= h
        kp, _ = spectral_gap(metric(g, lp))
        km, _ = spectral_gap(metric(g, lm))
        out.append((kp**2 - km**2) / (2 * h))
    return np.array(out)


# ---------------------------------------------------------------------------
# energies and gradients
# ---------------------------------------------------------------------------


def test_interval_energy_is_two_pi_squared():
    m = metric(*interval())
    assert edge_energies(m) == pytest.approx([2 * PI**2], abs=1e-9)
    assert gap_gradient(m) == pytest.approx([-2 * PI**2], abs=1e-9)


def test_energy_constant_along_edges():
    # sampled energy along each edge stays within 1e-8 of its mean
    from qgraph.perturbation import gap_eigenpair

    g, _ = star(3)
    m = metric(g, np.array([0.5, 0.3, 0.2]))
    k, f = gap_eigenpair(m)
    for e in range(3):
        value, slope = f.at(e, np.linspace(0.0, float(m.lengths[e]), 32))
        vals = slope**2 + k**2 * value**2
        assert vals.std() <= 1e-8 * vals.mean()


def test_energy_weighted_sum_is_twice_k_squared():
    g, _ = star(3)
    m = metric(g, np.array([0.5, 0.3, 0.2]))
    k, _ = spectral_gap(m)
    energies = edge_energies(m)
    assert float(energies @ m.lengths) == pytest.approx(2 * k**2, rel=1e-9)


def test_gradient_matches_finite_differences_random():
    rng = np.random.default_rng(42)
    done = 0
    while done < 8:
        V = int(rng.integers(2, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(1, 3)))
        lengths = random_lengths(rng, g.edge_count, l_min=0.06)
        m = metric(g, lengths)
        _, mult = spectral_gap(m)
        if mult != 1:
            continue
        grad = gap_gradient(m)
        fd = fd_gap_sq_gradient(g, lengths.values)
        assert np.max(np.abs((fd - grad) / grad)) <= 1e-5
        done += 1


def test_symmetric_two_star_components_equal():
    g, _ = star(2)
    m = metric(g, np.array([0.5, 0.5]))
    grad = gap_gradient(m)
    assert grad[0] == pytest.approx(grad[1], rel=1e-9)


def test_uneven_star_longest_edge_has_largest_energy():
    g, _ = star(3)
    m = metric(g, np.array([0.5, 0.3, 0.2]))
    energies = edge_energies(m)
    assert int(np.argmax(energies)) == 0


def test_multiplicity_error_on_equilateral_star():
    with pytest.raises(MultiplicityError):
        edge_energies(metric(*star(3)))


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


def test_standarin_with_short_leaves_is_critical():
    g, l = standarin_chain(2, 1, 1, leaf_length=0.1)
    rep = is_critical(metric(g, l))
    assert rep.critical
    assert rep.k == pytest.approx(2 * PI, abs=1e-9)
    assert not rep.odd_vertex_violations
    assert not rep.even_vertex_violations


def test_uneven_star_not_critical():
    g, _ = star(3)
    rep = is_critical(metric(g, np.array([0.5, 0.3, 0.2])))
    assert not rep.critical
    assert rep.spread > 0.1
    # the center has odd degree and a nonvanishing derivative there
    assert 0 in rep.odd_vertex_violations


def test_criticality_agrees_with_energy_spread():
    rng = np.random.default_rng(5)
    for _ in range(10):
        V = int(rng.integers(2, 4)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 3)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        try:
            rep = is_critical(m, tol=1e-6)
        except MultiplicityError:
            continue
        energies = np.array(rep.energies)
        spread = (energies.max() - energies.min()) / energies.mean()
        assert rep.critical == (spread <= 1e-6)


def test_is_critical_certifies_every_catalog_maximizer():
    # 15 of the 24 closed-form maximizers have a multiple gap, which the
    # criticality test raised MultiplicityError on; a density matrix on the
    # eigenspace now levels their energies, so all 24 are certified
    reports = [(entry, is_critical(metric(entry.graph, entry.lengths))) for entry in full_catalog()]
    assert sum(rep.multiplicity > 1 for _, rep in reports) == 15
    assert [entry.family + str(entry.params) for entry, rep in reports if not rep.critical] == []
    for entry, rep in reports:
        assert rep.k == pytest.approx(entry.gap, abs=1e-9)
        assert rep.spread <= 1e-12
        assert len(rep.weights) == rep.multiplicity
        assert min(rep.weights) >= 0.0 and sum(rep.weights) == pytest.approx(1.0, abs=1e-12)
    # stower(2, 1) needs rho of rank 2: no single eigenfunction levels it
    (rep,) = [rep for entry, rep in reports if (entry.family, entry.params) == ("stower", (2, 1))]
    assert rep.weights == pytest.approx((0.25, 0.75), abs=1e-9)


def test_a_multiple_gap_off_the_maximizer_is_not_critical():
    # star(4) with three leaves of 0.3: the gap 5 pi / 3 is double, and no
    # density matrix gives the short leaf the others' energy
    rep = is_critical(metric(star(4)[0], np.array([0.3, 0.3, 0.3, 0.1])))
    assert (rep.critical, rep.multiplicity) == (False, 2)
    assert rep.k == pytest.approx(5 * PI / 3, abs=1e-9)
    assert rep.spread > 1.0
    assert rep.odd_vertex_violations == rep.even_vertex_violations == ()


def test_density_certificate_keeps_a_level_trace():
    # where the equal-weight trace is level, rho = I/m as it is
    g, l = star(5)
    m = metric(g, l)
    k, mult = spectral_gap(m)
    (coeffs,) = spectral._eigenbasis_coeffs(m, [k], [mult])
    rho, energies, spread = perturbation.density_certificate(perturbation.energy_matrices(k, coeffs))
    assert rho == pytest.approx(np.eye(mult) / mult, abs=1e-12)
    assert spread <= 1e-12
    assert energies == pytest.approx(np.full(5, energies.mean()), rel=1e-12)


# ---------------------------------------------------------------------------
# path decomposition
# ---------------------------------------------------------------------------


def test_interval_decomposition():
    pd = path_decomposition(metric(*interval()))
    assert len(pd.parts) == 1
    part = pd.parts[0]
    assert part.kind == "path"
    assert part.zero_count == 1
    assert pd.k * part.length == pytest.approx(PI * part.zero_count, abs=1e-9)


def test_symmetric_two_necklace_single_cycle():
    # two mandarins chained with equal parallel lengths: one Eulerian cycle
    g, l = standarin_chain(2, 2, 0)
    pd = path_decomposition(metric(g, l))
    assert [p.kind for p in pd.parts] == ["cycle"]
    assert pd.parts[0].zero_count == 2
    assert pd.k == pytest.approx(2 * PI, abs=1e-9)


def test_standarin_with_two_stars_paths_end_at_leaves():
    g, l = standarin_chain(2, 1, 2)
    m = metric(g, l)
    pd = path_decomposition(m)
    assert all(p.kind == "path" for p in pd.parts)
    assert pd.k == pytest.approx(PI * pd.total_zero_count, abs=1e-8)
    for part in pd.parts:
        assert pd.k * part.length == pytest.approx(PI * part.zero_count, abs=1e-8)
    # parts partition the edges
    used = sorted(e for p in pd.parts for e in p.edges)
    assert used == list(range(g.edge_count))


def test_decomposition_total_length_and_zero_relation():
    g, l = standarin_chain(2, 3, 0)
    pd = path_decomposition(metric(g, l))
    assert sum(p.length for p in pd.parts) == pytest.approx(1.0, abs=1e-12)
    assert pd.k == pytest.approx(PI * pd.total_zero_count, abs=1e-8)


def test_three_copy_chain_is_critical_at_three_pi():
    # chains of 3-mandarins share the closed-form gap n pi, stay simple and
    # critical, including with uneven per-mandarin lengths
    for n, M, S in ((3, 2, 0), (3, 1, 1), (3, 1, 2)):
        g, l = standarin_chain(n, M, S)
        m = metric(g, l)
        k1, mult = spectral_gap(m)
        assert k1 == pytest.approx(3 * PI, abs=1e-8)
        assert mult == 1
        assert is_critical(m).critical
    g, l = standarin_chain(2, 2, 1, leaf_length=0.05, mandarin_lengths=[0.25, 0.20])
    m = metric(g, l)
    k1, mult = spectral_gap(m)
    assert k1 == pytest.approx(2 * PI, abs=1e-8)
    assert mult == 1
    assert is_critical(m).critical


def _corpus():
    yield "interval", interval()
    for n in (2, 3, 4):
        yield f"path({n})", path_graph(n)
    for cells in (2, 3):
        yield f"necklace({cells})", necklace(cells)
    for n in (2, 3, 4):
        for M in (1, 2, 3):
            for S in (0, 1, 2):
                if M + S >= 2:
                    yield f"standarin_chain({n},{M},{S})", standarin_chain(n, M, S)


DECOMPOSITION_CORPUS = dict(_corpus())


def _walk_ends(g, edges):
    """(first, last) edge end of each way to walk the edges in this order."""
    walks = []
    for end in (0, 1):
        v, last = g.edges[edges[0]][1 - end], (edges[0], 1 - end)
        for e in edges[1:]:
            a, b = g.edges[e]
            if v not in (a, b):
                break
            v, last = (b, (e, 1)) if a == v else (a, (e, 0))
        else:
            walks.append(((edges[0], end), last))
    return walks


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CORPUS))
def test_decomposition_corpus(name):
    from qgraph.perturbation import DERIV_MATCH, gap_eigenpair

    m = metric(*DECOMPOSITION_CORPUS[name])
    pd = path_decomposition(m)
    assert sorted(e for p in pd.parts for e in p.edges) == list(range(m.graph.edge_count))
    for part in pd.parts:
        assert pd.k * part.length == pytest.approx(PI * part.zero_count, abs=1e-8)
    _, f = gap_eigenpair(m)
    match_tol = DERIV_MATCH * math.sqrt(f.energies().mean())
    slope = f.at_ends(m.lengths)[1]
    E = m.graph.edge_count
    for part in pd.parts:
        walks = _walk_ends(m.graph, part.edges)
        assert walks, f"{part.edges} is not a walk"
        if part.kind == "path":
            assert any(
                all(abs(slope[e + E * end]) <= match_tol for e, end in ends)
                for ends in walks
            ), f"path {part.edges} does not end where f' = 0"


def test_decomposition_solves_the_gap_once(monkeypatch):
    import qgraph.perturbation as pert

    calls = {"spectral_gap": 0, "_eigenbasis": 0, "_zero_layout": 0}
    for name in calls:
        original = getattr(pert, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(pert, name, counted)
    pd = path_decomposition(metric(*standarin_chain(2, 1, 2)))
    assert len(pd.parts) == 2
    assert calls == {"spectral_gap": 1, "_eigenbasis": 1, "_zero_layout": 1}


def test_decomposition_requires_critical_point():
    g, _ = star(3)
    with pytest.raises(PreconditionError):
        path_decomposition(metric(g, np.array([0.5, 0.3, 0.2])))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, True])
@pytest.mark.parametrize("check", [is_critical, path_decomposition])
def test_a_tolerance_that_is_not_a_finite_nonnegative_number_is_rejected(check, tol):
    # standarin_chain(2, 1, 1) is critical: a NaN or negative tol would report
    # it not critical, and path_decomposition would blame the point
    m = metric(*standarin_chain(2, 1, 1))
    with pytest.raises(InvalidInputError, match="tol must be a finite number >= 0"):
        check(m, tol)


def test_a_zero_tolerance_is_accepted():
    # with tol 0 only an exact spread is critical; the rounding of the
    # energies leaves one, so the decomposition refuses the point itself
    m = metric(*standarin_chain(2, 1, 1))
    rep = is_critical(m, 0.0)
    assert rep.critical == (rep.spread == 0.0)
    assert rep.k == is_critical(m).k
    with pytest.raises(PreconditionError):
        path_decomposition(m, 0.0)


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------


def test_interval_two_nodal_domains():
    assert nodal_count(metric(*interval())) == 2


def test_standarin_two_nodal_domains():
    g, l = standarin_chain(2, 1, 1)
    assert nodal_count(metric(g, l)) == 2


def test_random_simple_gaps_have_two_domains():
    rng = np.random.default_rng(6)
    counted = 0
    while counted < 12:
        V = int(rng.integers(2, 5)); g = random_connected_graph(rng, V, V - 1 + int(rng.integers(0, 3)))
        m = metric(g, random_lengths(rng, g.edge_count, l_min=0.05))
        try:
            n = nodal_count(m)
        except MultiplicityError:
            continue
        assert n == 2
        counted += 1


def _count_with(monkeypatch, m, k, f):
    # nodal_count reads the eigenfunction from gap_eigenpair; hand it a higher one
    monkeypatch.setattr(perturbation, "gap_eigenpair", lambda _m: (k, f))
    return nodal_count(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_higher_eigenfunctions_have_n_plus_one_domains(monkeypatch, n):
    m = metric(*interval())
    (f,) = eigenfunction(m, n * PI)
    assert _count_with(monkeypatch, m, n * PI, f) == n + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_loop_eigenfunctions_have_two_n_domains(monkeypatch, n):
    m = metric(*loop())
    basis = eigenfunction(m, 2 * PI * n)
    assert len(basis) == 2
    for f in basis:
        assert _count_with(monkeypatch, m, 2 * PI * n, f) == 2 * n
