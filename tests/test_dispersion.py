"""Delta sweeps, dispersion curves, SGP classification, gluing."""

import math

import numpy as np
import pytest

from qgraph import (
    DeltaTheta,
    InvalidInputError,
    all_levels,
    dispersion_curve,
    glue,
    gluing_bound_check,
    identify_vertices,
    levels_theta,
    levels_thetas,
    metric,
    negative_spectrum,
    spectral_gap,
    spectral_gap_parameter,
    spectrum_theta,
)
from qgraph import spectral
from qgraph.dispersion import multiplicity_at, _with_theta
from qgraph.families import (
    flower,
    interval,
    loop,
    mandarin,
    necklace,
    random_connected_graph,
    random_lengths,
    standarin_chain,
    star,
    stower,
)

PI = math.pi


# ---------------------------------------------------------------------------
# spectra under the delta condition
# ---------------------------------------------------------------------------


def test_interval_dirichlet_end():
    spec = spectrum_theta(metric(*interval()), 0, PI, 12.0)
    ks = [p.k for p in spec.eigenpairs]
    assert ks[:3] == pytest.approx([PI / 2, 3 * PI / 2, 5 * PI / 2], abs=1e-9)


def test_interval_theta_zero_is_neumann():
    spec = spectrum_theta(metric(*interval()), 0, 0.0, 10.0)
    assert [p.k for p in spec.eigenpairs] == pytest.approx([0.0, PI, 2 * PI, 3 * PI], abs=1e-9)


def test_delta_limits_match_neumann_and_dirichlet():
    # DeltaTheta(0) == Neumann and DeltaTheta(pi) == Dirichlet, exactly
    m = metric(*star(3))
    near_zero = levels_theta(m, 0, 1e-9, 8.0, n_max=3)
    neumann = all_levels(m, 8.0, n_max=3)
    assert near_zero == pytest.approx(neumann, abs=1e-3)
    exact_pi = [p.k for p in spectrum_theta(m, 0, PI, 8.0).eigenpairs]
    cond = m.with_condition(0, DeltaTheta(PI))
    delta_pi = [p.k for p in spectrum_theta(cond, 0, PI, 8.0).eigenpairs]
    assert delta_pi == pytest.approx(exact_pi, abs=1e-12)


def test_loop_dirichlet_lowest_is_pi():
    ks = [p.k for p in spectrum_theta(metric(*loop()), 0, PI, 10.0).eigenpairs]
    assert ks[0] == pytest.approx(PI, abs=1e-9)
    # cross-check: interval of length one with Dirichlet at both ends
    assert ks[:3] == pytest.approx([PI, 2 * PI, 3 * PI], abs=1e-9)


def test_attractive_coupling_has_one_negative_level():
    lv = levels_theta(metric(*interval()), 0, -2.0, 10.0, n_max=3)
    assert lv[0] < 0
    assert lv[1] > 0
    # oracle: lambda0 = -kappa^2 with kappa tanh(kappa) = -alpha = -tan(-1)
    alpha = math.tan(-1.0)
    kappa = 1.0
    for _ in range(100):
        kappa = kappa - (kappa * math.tanh(kappa) + alpha) / (
            math.tanh(kappa) + kappa / math.cosh(kappa) ** 2
        )
    assert lv[0] == pytest.approx(-kappa, abs=1e-9)


def test_deep_attractive_level_beyond_sinh_overflow():
    # theta = -pi + 1e-4 at the centre of star(3) binds one level -kappa with
    # 3 kappa tanh(kappa / 3) = -tan(theta / 2): kappa ~ 6667, so kappa l ~ 2222,
    # far past where sinh(kappa l) overflows
    theta = -PI + 1e-4
    (level,) = negative_spectrum(_with_theta(metric(*star(3)), 0, theta))
    kappa = -level.k
    assert level.multiplicity == 1
    assert 3 * kappa * math.tanh(kappa / 3) == pytest.approx(-math.tan(theta / 2), rel=1e-12)


def test_close_delta_level_not_missed():
    # 12.8230972 lies 0.26 above the double level 4 pi; a log|det| scan
    # stepped over it
    lv = levels_theta(metric(*flower(2)), 0, 2.552544031041707, 6 * PI)
    assert len(lv) == 6
    assert any(abs(k - 12.8230972395) <= 1e-9 for k in lv)


SWEEP = [-3.0, -PI / 2, -0.2, 0.0, 0.9, 2.5, PI]


@pytest.mark.parametrize("family, v", [
    (star(3), 0), (star(3), 1), (flower(2), 0), (stower(2, 1), 1), (mandarin(3), 0),
    (necklace(2), 0), (interval(), 0), (loop(), 0),
])
def test_lockstep_rows_equal_single_rows(family, v):
    m = metric(*family)
    k_max = 7 * PI
    rows = levels_thetas(m, v, SWEEP, k_max, n_max=8)
    assert rows == [levels_theta(m, v, t, k_max, n_max=8) for t in SWEEP]


@pytest.mark.parametrize("v", [-1, 4])
def test_vertex_outside_the_graph_is_rejected(v):
    m = metric(*star(3))  # vertices 0..3
    with pytest.raises(InvalidInputError, match="no vertex"):
        m.with_condition(v, DeltaTheta(1.0))
    with pytest.raises(InvalidInputError, match="no vertex"):
        dispersion_curve(m, v, grid_size=8)
    with pytest.raises(InvalidInputError, match="no vertex"):
        spectral_gap_parameter(m, v)


# ---------------------------------------------------------------------------
# dispersion curves
# ---------------------------------------------------------------------------


def test_loop_curve_flat_band_at_two_pi():
    curve = dispersion_curve(metric(*loop()), 0, grid_size=16, n_levels=4)
    assert any(abs(fb.k - 2 * PI) <= 1e-7 for fb in curve.flat_bands)
    assert np.all(np.diff(curve.branch_values) > 0)


def test_star_curve_flat_band_with_multiplicity():
    curve = dispersion_curve(metric(*star(3)), 0, grid_size=12, n_levels=4)
    hits = [fb for fb in curve.flat_bands if abs(fb.k - 1.5 * PI) <= 1e-7]
    assert hits and hits[0].multiplicity == 2


@pytest.mark.parametrize(
    "graph, expected",
    [
        # sin(k x) along the petals vanishes at the vertex: one mode at
        # k = 2 pi and 6 pi, one per petal at 4 pi and 8 pi
        (flower(2), [(2 * PI, 1), (4 * PI, 2), (6 * PI, 1), (8 * PI, 2)]),
        # flat multiplicities above two and of mixed size in one curve
        (standarin_chain(2, 1, 2), [(4 * PI, 4), (8 * PI, 1)]),
    ],
)
def test_flat_bands_are_exact(graph, expected):
    curve = dispersion_curve(metric(*graph), 0, grid_size=16)
    assert [fb.multiplicity for fb in curve.flat_bands] == [mult for _, mult in expected]
    for fb, (k, _) in zip(curve.flat_bands, expected):
        assert abs(fb.k - k) <= 1e-9
    assert np.all(np.diff(curve.branch_values) > 0)


def test_interval_curve_has_no_flat_bands():
    curve = dispersion_curve(metric(*interval()), 0, grid_size=12, n_levels=3, k_max=4 * PI)
    assert curve.flat_bands == ()


def test_curve_interlacing_and_wrap_continuity():
    g, lv = stower(1, 1)
    m = metric(g, lv)
    curve = dispersion_curve(m, 0, grid_size=16, n_levels=4)
    assert curve.interlacing_slack(3) >= -1e-8
    # k_n(pi) = lim k_{n+1}(theta -> -pi): approach the limit explicitly
    at_pi = levels_theta(m, 0, PI, 8 * PI, n_max=4)
    near = levels_theta(m, 0, -PI + 1e-4, 9 * PI, n_max=5)
    for n in range(3):
        assert near[n + 1] >= at_pi[n] - 1e-8
        assert near[n + 1] - at_pi[n] <= 1e-2


def test_flat_band_present_at_many_thetas():
    # two-spectra membership implies membership at every theta
    m = metric(*star(3))
    k_flat = 1.5 * PI
    thetas = [-2.5, -1.0, -0.3, 0.4, 1.1, 1.9, 2.6, PI]
    for theta in thetas:
        assert multiplicity_at(_with_theta(m, 0, theta), k_flat) >= 2


def test_multiplicity_at_crossing():
    # equilateral star at its center: multiplicity E - 1 away from the
    # crossing and E at theta = pi
    m = metric(*star(3))
    for theta in (0.5, -1.0, 2.0):
        assert multiplicity_at(_with_theta(m, 0, theta), 1.5 * PI) == 2
    assert multiplicity_at(_with_theta(m, 0, PI), 1.5 * PI) == 3
    # one count decides multiplicities everywhere
    assert multiplicity_at is spectral.multiplicity_at


def test_interlacing_random_graph_with_negative_branch():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 3, 4)
    m = metric(g, random_lengths(rng, 4, l_min=0.1))
    thetas = [-2.8, -1.4, 0.0, 1.4, 2.8, PI]
    rows = [levels_theta(m, 1, t, 7 * PI, n_max=6) for t in thetas]
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            lo, hi = np.array(rows[i]), np.array(rows[j])
            assert float((hi[:-1] - lo[:-1]).min()) >= -1e-8
            assert float((lo[1:] - hi[:-1]).min()) >= -1e-8


def test_gluing_interlacing_opposite_deltas():
    # delta couplings alpha and -alpha merging into a Neumann vertex
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 4, 5)
    lv = random_lengths(rng, 5, l_min=0.1)
    theta = 1.1
    alpha = math.tan(theta / 2)
    m = metric(g, lv)
    split = m.with_condition(0, DeltaTheta(theta)).with_condition(
        2, DeltaTheta(2 * math.atan(-alpha))
    )
    merged = identify_vertices(split, 0, 2)
    assert merged.conditions[0].__class__.__name__ == "Neumann"
    a = np.array(all_levels(split, 9 * PI, n_max=6))
    b = np.array(all_levels(merged, 9 * PI, n_max=6))
    n = min(a.size, b.size)
    assert n >= 5
    a, b = a[:n], b[:n]
    assert float((b[:-1] - a[:-1]).min()) >= -1e-8
    assert float((a[1:] - b[:-1]).min()) >= -1e-8


# ---------------------------------------------------------------------------
# spectral gap parameter
# ---------------------------------------------------------------------------


def test_star_center_is_strong():
    # star(4) used to stop short of pi (3.13837, "obeys"): near theta = pi
    # the solver skipped the lowest delta level
    for E in (3, 4):
        rep = spectral_gap_parameter(metric(*star(E)), 0)
        assert rep.classification == "strong"
        assert rep.theta_sg == pytest.approx(PI, abs=1e-6)
        assert rep.k1_multiplicity == E - 1
        assert rep.dirichlet_multiplicity == E
        assert rep.k1_is_flat_band


def test_uneven_two_flower_violates():
    g, _ = flower(2)
    rep = spectral_gap_parameter(metric(g, np.array([0.6, 0.4])), 0)
    assert rep.classification == "violates"
    assert rep.dirichlet_k0 == pytest.approx(PI / 0.6, abs=1e-9)
    assert rep.theta_sg > PI


def test_equilateral_two_flower_is_strong():
    rep = spectral_gap_parameter(metric(*flower(2)), 0)
    assert rep.classification == "strong"
    assert rep.k1_multiplicity == 1
    assert rep.dirichlet_multiplicity == 2


def test_interval_endpoint_sgp_is_two_pi():
    rep = spectral_gap_parameter(metric(*interval()), 0)
    assert rep.classification == "violates"
    assert rep.theta_sg == pytest.approx(2 * PI, abs=1e-6)
    assert not rep.k1_is_flat_band


def test_circle_vertex_gap_is_flat_band():
    # mandarin(2) is the circle with two marked points: theta_SG reaches
    # 2 pi at a vertex, and sin(2 pi x) keeps k1 = 2 pi at every theta
    rep = spectral_gap_parameter(metric(*mandarin(2)), 0)
    assert rep.classification == "violates"
    assert rep.theta_sg == pytest.approx(2 * PI, abs=1e-6)
    assert rep.k1_is_flat_band


def test_sgp_value_meets_branch():
    # K(theta_sg) = k1 within 1e-8: check via the saturated branch value
    m = metric(*star(3))
    rep = spectral_gap_parameter(m, 0)
    branch = spectrum_theta(m, 0, rep.theta_sg, 6.0).eigenpairs[0].k
    assert branch == pytest.approx(rep.k1, abs=1e-8)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def test_glue_flowers_gives_five_flower():
    glued = glue(metric(*flower(2)), 0, metric(*flower(3)), 0, 2.0 / 5.0)
    assert glued.graph.edge_count == 5
    k1, _ = spectral_gap(glued)
    assert k1 == pytest.approx(5 * PI, abs=1e-9)


def test_glue_stars_gives_four_star():
    glued = glue(metric(*star(2)), 0, metric(*star(2)), 0, 0.5)
    k1, _ = spectral_gap(glued)
    assert k1 == pytest.approx(2 * PI, abs=1e-9)


def test_spectrum_theta_domain():
    from qgraph import InvalidInputError

    with pytest.raises(InvalidInputError):
        spectrum_theta(metric(*interval()), 0, 4.0, 5.0)


def test_glue_rejects_bad_length():
    from qgraph import InvalidInputError

    m = metric(*interval())
    with pytest.raises(InvalidInputError):
        glue(m, 0, m, 0, 1.5)


@pytest.mark.parametrize("v1, v2, L, bad", [(0, 5, 0.5, 5), (-1, 0, 0.5, -1), (2, 0, 1.0, 2)])
def test_glue_rejects_unknown_vertex(v1, v2, L, bad):
    from qgraph import InvalidInputError

    m = metric(*interval())
    with pytest.raises(InvalidInputError, match=f"no vertex {bad} in a graph with 2 vertices"):
        glue(m, v1, m, v2, L)


def test_glue_degenerate_ends():
    m1 = metric(*star(2))
    m2 = metric(*flower(2))
    assert glue(m1, 0, m2, 0, 0.0) is m2
    assert glue(m1, 0, m2, 0, 1.0) is m1


def test_gluing_equality_for_flowers():
    rep = gluing_bound_check(metric(*flower(2)), 0, metric(*flower(3)), 0)
    assert rep.subadditive
    assert rep.equality
    assert rep.sgp_condition
    assert rep.consistent
    assert rep.k1_glued == pytest.approx(5 * PI, abs=1e-8)
    # necessity consequences at equality
    assert all(rep.parts_flat)
    assert rep.glued_multiplicity > 1


def test_gluing_strict_for_intervals():
    m = metric(*interval())
    rep = gluing_bound_check(m, 0, m, 0)
    assert rep.subadditive
    assert not rep.equality
    assert not rep.sgp_condition          # both SGPs are 2 pi
    assert rep.consistent
    assert rep.k1_glued == pytest.approx(PI, abs=1e-8)
    assert min(rep.theta_sg) > PI


def test_gluing_equality_iff_sgp_condition():
    # the subadditive bound is tight exactly when both SGPs fit below 2 pi;
    # random gluings are generically strict, symmetric catalog ones tight
    rng = np.random.default_rng(100)
    for _ in range(6):
        V1 = int(rng.integers(2, 4))
        g1 = random_connected_graph(rng, V1, V1 - 1 + int(rng.integers(0, 2)))
        V2 = int(rng.integers(2, 4))
        g2 = random_connected_graph(rng, V2, V2 - 1 + int(rng.integers(0, 2)))
        m1 = metric(g1, random_lengths(rng, g1.edge_count, l_min=0.05))
        m2 = metric(g2, random_lengths(rng, g2.edge_count, l_min=0.05))
        v1 = int(rng.integers(0, g1.vertex_count))
        v2 = int(rng.integers(0, g2.vertex_count))
        rep = gluing_bound_check(m1, v1, m2, v2)
        assert rep.subadditive
        assert rep.consistent
        if rep.equality:
            assert all(rep.parts_flat)
            assert rep.glued_multiplicity > 1


def test_gluing_star_with_flower_gives_stower_gap():
    rep = gluing_bound_check(metric(*star(3)), 0, metric(*flower(2)), 0)
    assert rep.equality
    assert rep.k1_glued == pytest.approx(3.5 * PI, abs=1e-8)  # stower(2,3)


def test_gluing_stowers_adds_petals_and_leaves():
    # stower(1,2) glued with a 2-star at the centers gives the equilateral
    # stower(1,4) with gap 3 pi
    m1 = metric(*stower(1, 2))
    m2 = metric(*star(2))
    rep = gluing_bound_check(m1, 0, m2, 0)
    assert rep.equality
    assert rep.k1_glued == pytest.approx(3 * PI, abs=1e-8)
    glued = glue(m1, 0, m2, 0, rep.optimal_L)
    target = metric(*stower(1, 4))
    assert sorted(np.round(glued.lengths, 12)) == pytest.approx(
        sorted(np.round(target.lengths, 12)), abs=1e-12
    )
