"""Delta sweeps, dispersion curves, SGP classification, gluing."""

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qgraph import (
    DIRICHLET,
    NEUMANN,
    DeltaTheta,
    InvalidInputError,
    dispersion_curve,
    eigenvalues,
    glue,
    gluing_bound_check,
    identify_vertices,
    levels,
    metric,
    negative_spectrum,
    spectral_gap,
    spectral_gap_parameter,
)
from qgraph import dispersion, families, spectral
from qgraph.graph import DiscreteGraph, MetricGraph
from qgraph.dispersion import _with_theta
from qgraph.spectral import multiplicity_at
from qgraph.families import (
    flower,
    interval,
    loop,
    mandarin,
    necklace,
    path_graph,
    random_connected_graph,
    random_lengths,
    standarin_chain,
    star,
    stower,
)

PI = math.pi


def _row(m, v, theta, k_max, n_max=None):
    """The levels of m with the coupling theta at v, searched alone."""
    return levels([_with_theta(m, v, theta)], k_max, n_max)[0]


# ---------------------------------------------------------------------------
# spectra under the delta condition
# ---------------------------------------------------------------------------


def test_interval_dirichlet_end():
    spec = eigenvalues(_with_theta(metric(*interval()), 0, PI), 12.0)
    ks = [p.k for p in spec.eigenpairs]
    assert ks[:3] == pytest.approx([PI / 2, 3 * PI / 2, 5 * PI / 2], abs=1e-9)


def test_interval_theta_zero_is_neumann():
    spec = eigenvalues(_with_theta(metric(*interval()), 0, 0.0), 10.0)
    assert [p.k for p in spec.eigenpairs] == pytest.approx([0.0, PI, 2 * PI, 3 * PI], abs=1e-9)


def test_delta_limits_match_neumann_and_dirichlet():
    # DeltaTheta(0) == Neumann and DeltaTheta(pi) == Dirichlet, exactly
    m = metric(*star(3))
    near_zero = _row(m, 0, 1e-9, 8.0, n_max=3)
    neumann = levels([m], 8.0, n_max=3)[0]
    assert near_zero == pytest.approx(neumann, abs=1e-3)
    exact_pi = [p.k for p in eigenvalues(_with_theta(m, 0, PI), 8.0).eigenpairs]
    cond = m.with_condition(0, DeltaTheta(PI))
    delta_pi = [p.k for p in eigenvalues(_with_theta(cond, 0, PI), 8.0).eigenpairs]
    assert delta_pi == pytest.approx(exact_pi, abs=1e-12)


def test_loop_dirichlet_lowest_is_pi():
    ks = [p.k for p in eigenvalues(_with_theta(metric(*loop()), 0, PI), 10.0).eigenpairs]
    assert ks[0] == pytest.approx(PI, abs=1e-9)
    # cross-check: interval of length one with Dirichlet at both ends
    assert ks[:3] == pytest.approx([PI, 2 * PI, 3 * PI], abs=1e-9)


def test_attractive_coupling_has_one_negative_level():
    lv = _row(metric(*interval()), 0, -2.0, 10.0, n_max=3)
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
    lv = _row(metric(*flower(2)), 0, 2.552544031041707, 6 * PI)
    assert len(lv) == 6
    assert any(abs(k - 12.8230972395) <= 1e-9 for k in lv)


SWEEP = [-3.0, -PI / 2, -0.2, 0.0, 0.9, 2.5, PI]


@pytest.mark.parametrize("family, v", [
    (star(3), 0), (star(3), 1), (flower(2), 0), (stower(2, 1), 1), (mandarin(3), 0),
    (necklace(2), 0), (interval(), 0), (loop(), 0), (flower(16), 0),
])
def test_lockstep_rows_equal_single_rows(family, v):
    m = metric(*family)
    # flower(16) has 33 rows, so its counts take the vertex form; its petals are 1/16
    # long, and its levels lie correspondingly higher
    k_max = 7 * PI * max(1, m.graph.edge_count // 4)
    rows = levels([_with_theta(m, v, t) for t in SWEEP], k_max, n_max=8)
    assert rows == [_row(m, v, t, k_max, n_max=8) for t in SWEEP]


def test_levels_agree_with_an_independent_count(independent_checks):
    # every positive level against the number of levels listed below it,
    # negative ones included, so the negative branch is checked too
    checks = independent_checks
    rng = np.random.default_rng(2021)
    thetas = [-3.0, -1.2, -0.3, 0.0, 0.5, 1.7, PI]
    for _ in range(20):
        V = int(rng.integers(2, 5))
        E = int(rng.integers(V - 1, 7))
        g = random_connected_graph(rng, V, E)
        lengths = random_lengths(rng, E, l_min=0.05).values
        v = int(rng.integers(0, V))
        rows = levels([_with_theta(metric(g, lengths), v, t) for t in thetas], 4 * PI * E)
        assert all(row[0] < 0.0 for row in rows[:3])
        problems = checks.levels_problems(checks.Graph(V, g.edges, lengths), v, thetas, rows)
        assert problems == [], (g.edges, lengths, v)


@pytest.mark.parametrize("v", [-1, 4])
def test_vertex_outside_the_graph_is_rejected(v):
    m = metric(*star(3))  # vertices 0..3
    with pytest.raises(InvalidInputError, match="no vertex"):
        m.with_condition(v, DeltaTheta(1.0))
    with pytest.raises(InvalidInputError, match="no vertex"):
        dispersion_curve(m, v, grid_size=8)
    with pytest.raises(InvalidInputError, match="no vertex"):
        spectral_gap_parameter(m, v)
    for pair in ((v, 0), (0, v)):
        with pytest.raises(InvalidInputError, match=f"no vertex {v} in a graph with 4 vertices"):
            identify_vertices(m, *pair)


# ---------------------------------------------------------------------------
# dispersion curves
# ---------------------------------------------------------------------------


# the delta sweeps of perfbench's theta_sweep workload: (family, parameters, vertex)
THETA_SWEEPS = (
    ("star", (3,), 0), ("star", (4,), 0), ("star", (5,), 0),
    ("star", (3,), 1), ("star", (4,), 1), ("star", (5,), 1),
    ("flower", (2,), 0), ("flower", (3,), 0), ("flower", (4,), 0),
    ("stower", (1, 2), 0), ("stower", (1, 2), 1), ("stower", (2, 1), 0), ("stower", (2, 1), 1),
    ("stower", (2, 2), 0), ("stower", (2, 2), 1),
    ("mandarin", (2,), 0), ("mandarin", (3,), 0), ("mandarin", (4,), 0),
    ("path_graph", (1,), 0), ("path_graph", (2,), 1), ("path_graph", (2,), 0),
    ("path_graph", (3,), 1), ("necklace", (2,), 0), ("necklace", (2,), 1),
    ("dumbbell", (0.2,), 0), ("dumbbell", (0.5,), 0),
)


def _sweep_graph(name, params):
    return metric(*getattr(families, name)(*params))


def _random_sweep(rng, deltas):
    """A random graph with E = 3-6, a vertex v, and (where deltas) delta and
    Dirichlet conditions at some other vertices."""
    E = int(rng.integers(3, 7))
    V = int(rng.integers(2, E + 2))
    g = random_connected_graph(rng, V, E)
    m = metric(g, random_lengths(rng, E, l_min=0.05))
    v = int(rng.integers(0, V))
    for w in range(V):
        if deltas and w != v and rng.random() < 0.4:
            m = m.with_condition(w, DeltaTheta(PI if rng.random() < 0.3 else float(rng.uniform(-3.0, 3.0))))
    return m, v


def _counts(m, ks):
    """N(k) of m's count at every k of ks, in one stacked eigvalsh."""
    count = spectral._TrigCount(m)
    b = len(ks)
    values = count.spectra(np.broadcast_to(count.coupling, (b, *count.coupling.shape)),
                           np.broadcast_to(count.alpha, (b, count.alpha.size)), count.lengths, np.array(ks))
    return [count.made(k, ev).count for k, ev in zip(ks, values)]


def _identity_mismatches(m, v, thetas, ks):
    """The (theta, k) where N0(k) + [1/alpha + g(k) > 0] - [alpha > 0], alpha the
    coupling of the row at v, differs from the row's own count (theta = 0 is
    the count N0 itself)."""
    m0 = _with_theta(m, v, 0.0)
    count = spectral._TrigCount(m0)
    g = count.vertex_function(count.row(v), np.array(ks))[0]
    base = _counts(m0, ks)
    bad = []
    for theta in (t for t in thetas if t != 0.0):
        alpha = DeltaTheta(theta).alpha
        inverse = 0.0 if math.isinf(alpha) else 1.0 / alpha
        expected = [n + int(inverse + gk > 0.0) - int(alpha > 0.0) for n, gk in zip(base, g)]
        bad += [(theta, k) for k, n, e in zip(ks, _counts(_with_theta(m, v, theta), ks), expected) if n != e]
    return bad


def _probes(m, v, rng, k_max):
    """Random k up to k_max, and k 1e-10 relative off every edge pole n pi / l_e
    and every theta = 0 level below k_max."""
    poles = [n * PI / l for l in m.lengths for n in range(1, int(k_max * l / PI) + 1)]
    zero = [k for k in levels([_with_theta(m, v, 0.0)], k_max)[0] if k > 0.0]
    near = [k * (1.0 + s * 1e-10) for k in poles + zero for s in (-1.0, 1.0)]
    return sorted(list(rng.uniform(0.05, k_max, 8)) + near)


@pytest.mark.parametrize("name, params, v", THETA_SWEEPS)
def test_count_identity_on_sweep_rows(name, params, v):
    # one solve of the theta = 0 count matrix counts every row: by Haynsworth's
    # inertia additivity, N_alpha(k) = N0(k) + [1/alpha + g(k) > 0] - [alpha > 0]
    m = _sweep_graph(name, params)
    k_max = 9 * PI / m.total_length
    curve_thetas = dispersion_curve(m, v, grid_size=32).thetas
    ks = _probes(m, v, np.random.default_rng(24), k_max)
    assert _identity_mismatches(m, v, [float(t) for t in curve_thetas], ks) == []


def test_count_identity_with_delta_and_dirichlet_vertices():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        m, v = _random_sweep(rng, deltas=True)
        ks = _probes(m, v, rng, 6 * PI / m.total_length)
        thetas = [-3.0, -1.2, -0.2, 0.4, 2.1, PI]
        assert _identity_mismatches(m, v, thetas, ks) == [], (m, v)


def _grouped(row):
    """A row's levels as (k, multiplicity), equal values grouped."""
    return [(k, len(list(same))) for k, same in itertools.groupby(row)]


def _assert_rows_match_levels(m, v, grid, every=1):
    """Every row of the curve (every `every`-th one) against `levels` of that row alone."""
    curve = dispersion_curve(m, v, grid_size=grid)
    _assert_each_row_is_its_levels(m, v, curve.thetas[::every], curve.levels[::every])


def _assert_each_row_is_its_levels(m, v, thetas, rows):
    oracle = levels([_with_theta(m, v, float(t)) for t in thetas], 9 * PI / m.total_length)
    for theta, row, expected in zip(thetas, rows, oracle):
        got, want = _grouped(row), _grouped(expected)
        assert [mult for _, mult in got] == [mult for _, mult in want], (m, v, theta)
        # relative above k = 1; near k = 0 a count-based level is only as good
        # as 1e-12 absolute (tested against mpmath on a level at k = 0.017)
        for (k, _), (k_want, _) in zip(got, want):
            assert abs(k - k_want) <= 1e-12 * max(1.0, abs(k_want)), (m, v, theta, k, k_want)


@pytest.mark.parametrize("name, params, v", THETA_SWEEPS)
def test_dispersion_rows_equal_per_row_levels(name, params, v):
    _assert_rows_match_levels(_sweep_graph(name, params), v, 32)


def _curve_digest(curve):
    """The sha256 of a dispersion curve's levels, flat bands and branch."""
    doc = {"levels": curve.levels, "flat_bands": [(fb.k, fb.multiplicity) for fb in curve.flat_bands],
           "branch_thetas": curve.branch_thetas.tolist(), "branch_values": curve.branch_values.tolist()}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# the sha256 of dispersion_curve(m, v, grid_size=32) (`_curve_digest`) and of
# the fields of spectral_gap_parameter(m, v) on the theta_sweep graphs.
# Every curve's digest changed, in the last bits of its levels, when the
# roots started from a model of the vertex function instead of the secant
# point of their branch; the one it had before is in its comment.
# path_graph(2)'s curves were c665dd80... (v = 1) and 1ce917d9... (v = 0)
# while regula falsi bisected onto its theta = 0 level 7 pi, whose value
# reads rounding noise there: it came out 21.991148575128555, and is now
# the bracket's end, fl(7 pi) = 21.991148575128552
SWEEP_DIGESTS = {
    ("star", (3,), 0): ("196df0837e14a246698c00569140efd62d20f98746c8bc482eecc73ce0936cd4",  # was 49dad18ff12a...
        "a45b3130ef882a3a69f46ec236ad1014dd1405a70c4126bb83101f9d94d5195f"),
    ("star", (4,), 0): ("30d5a1749d0434497bf3db9d158fc2895b621795cad006eb8079269867364978",  # was 6c2f426cb4e5...
        "c91a2662f879e5943080f2e34e1e50e2406a70610e81b1e51b6e71e0b6877e48"),
    ("star", (5,), 0): ("22c2a9b17fde12fb0c909e6a9f06ca38f4e567d26a969ca78f9880ec52b2ff99",  # was 11f95543e367...
        "01ef5f7cd457a2ac204ff25b77ca2772e50a61b55e6485c792e885b158bb4daf"),
    ("star", (3,), 1): ("a95bcb8caeb0799836f4576f7e2558cfd7b135c6ffd51442caa802991a048282",  # was 55ef3b54a00f...
        "9aabe27bdc7afe49419f5702a76a964e8e7a12de2fd684d676cb848eeac7a9cc"),
    ("star", (4,), 1): ("88214b4eca37b2281ad1b4c01ab2fa600d6d4cf24223d871acde8b3723bfae11",  # was 5ffcd0a82b55...
        "bd5123f675b78cd2d7db988491e85c2161050bd9e3a19ee3889b30163dc3b746"),
    ("star", (5,), 1): ("4d9455d62a54dba6c78b11a787ceb35642a6e60d6daacf89601405f21794b1df",  # was f1165e0f4e48...
        "afbcb01b4e1c330364c3a172b775f6d6dcf2a3145fbc165522d3628df5462a17"),
    ("flower", (2,), 0): ("7e3c843ec3c8266d8ebfbcb51e4e2ddd7d67fbabc16d752d11474d7595a9bc3c",  # was 648eb3d37797...
        "ec4978482ea1dad473c2a13b88a7ae10ce1ec69b472e323332a9735fac190d8f"),
    ("flower", (3,), 0): ("26109bfe97503c03cfb5f2ca36d5a21b5388da128db56e8e18b59f9911f1867b",  # was 9c05e0465d5b...
        "bdb945c67279f6d0163d78ab7940f70bcc4d4ae39941a44c66a1d04671f9a465"),
    ("flower", (4,), 0): ("dab67299e94390932ba6aa2554aab2963c6f3f9ffdc2f31fd356cf4cdaa1755a",  # was b076fd2e3907...
        "d9f1f9dab53cf877151957b1a42d7082979bc5c5ec51229f7ecd7b29933cbab4"),
    ("stower", (1, 2), 0): ("ad432e4e1c84ca22ecbbac7723ffc43693fc696b8f1f4e9ea7949201cfc565b2",  # was 875844896862...
        "aaab5765f21549bf3d7e956d5ecc751782ed9babb7a1fb11d0d78e8c5c3f04a2"),
    ("stower", (1, 2), 1): ("9dd4db928fa156920f8db2fad9be77f544b0b522ab8519331636116a626852ce",  # was aa201efe27b8...
        "b365dff5b32642b90afd6647fe6ccdbf6645237d463ff924aa6ba7b8da3ca729"),
    ("stower", (2, 1), 0): ("aa43b9030926b5dfad57ac7682bd89a769609a2a7601efdd4598379b81d4b4a4",  # was 80061da70981...
        "4e92b22c52878a2c45eda2fee1f41019b629b7731583481d489c4c88c1873268"),
    ("stower", (2, 1), 1): ("eb9456c9fb6f247c0f6e9cadb40afe182914f7a205613966ee9ab2a428ec13a2",  # was 3f8d2044f19c...
        "ad2228232063d17124d70315e97cb4b83fded2a6b94e94bda1b925de2e36dd64"),
    ("stower", (2, 2), 0): ("2cf82d538abd660439e91b359b28cd5a82d8e74a591fa3da3848162ee11c1690",  # was 37caef04672f...
        "21dcdbae8153fdecca6c172dcc7dafc5c74d25a6845e345efaf6831eeb90f75f"),
    ("stower", (2, 2), 1): ("26a48fd0ab93baf3979a096a873ecba90805a8af7720e36370991386e1cc574b",  # was f6e9d547d6f5...
        "7d84209d677fdaaca1003d7ce583fc3484e86e9a0ac3bcc78985be887ee45db7"),
    ("mandarin", (2,), 0): ("391b94965b468406116c78569fc8e25ef985c27a61694abf3c687a69c10ab6a2",  # was fb63e03c8058...
        "757c97efcd81be95e31725e4c8224ae6d735c17aaeb16a7cbd060f9448d53f1f"),
    ("mandarin", (3,), 0): ("b5c460cb1487b832e3f75b18ee44c9a433c9c6259248829dcf669da4ccc5fe9f",  # was 13b3b67f1877...
        "07827e3098290a2aa2aa67f93fad7b090e57a3df2b3e9f291d66f2f607e6d816"),
    ("mandarin", (4,), 0): ("8574d595b7b63e8d20a17e42636b75d093ea2101fb8897e5ae6a3ceed4774eaf",  # was 2dc0f643a206...
        "a957001f2508f05dc63c5e5d976a11affaf14b037c80cba3f28d2221d9054bb4"),
    ("path_graph", (1,), 0): ("662db7ee9c2a1f2541397277bcb9e82636c01350771b29a07d217d1398bd2542",  # was 42a611b2ec6b...
        "e030a59b9ba679b9ee3fd06121523320d5155602cbc539603826cc244dfa720b"),
    ("path_graph", (2,), 1): ("9254f1f705e57178fac7e2c9f5b85c445b6760dc0efbb13ef8d4f38e45f7f95f",  # was a228de4336ee...
        "a23af14ae64520a1164a8c7dcee44b01be61cc80b6da3fd9fd260839524d2bbb"),
    ("path_graph", (2,), 0): ("bcd22e53666664a2b5dd3cc15e29951eddb000ebaa014d1157c928ed166b9d8e",  # was e9cc1b5fd4e4...
        "edc63b81a76fafeba7b360f080215b593b5070a71a647205111d77b97dbc72b9"),
    ("path_graph", (3,), 1): ("935aac889e7349fc7957a34e501dd4dcb04e1e015373a8afde6f87fbdc2fdf34",  # was 2d0bf119b720...
        "6602fa08f496c7b99d35cc402fa0fa8ca30688835867bfba055e6310cd5c4506"),
    ("necklace", (2,), 0): ("064ffdb7cd7465ae6bf1b6d24d442da1ad62baf702efcacc5f0dbb41f2964d93",  # was 9d7dbc1123e8...
        "b3381c37a6d672f5c93d5abddc2a39f50cb891c473fe9fca2bd0a7236ce14384"),
    ("necklace", (2,), 1): ("4e19fb7a898f2465ce451be24489c36cca1194dd71ed935abbe0903ebd8c6c30",  # was e18a251ddf89...
        "7759fdacdfaac8b2377797d4a1a20d6d8ff160faf8465770a90e8df7b4690b03"),
    ("dumbbell", (0.2,), 0): ("b39f0fbab5e4f701cd1b1e4044f743f7c47ed90aa381a62caba4e5adff988f9c",  # was 3a6186e9d40a...
        "2f408ceeff089b55f44863ce98f9990d351ff37ea70ea18198d493354dbeee4f"),
    ("dumbbell", (0.5,), 0): ("7d16a9777891f9338d42828a38107ecd9b61f3d2b9bc45d5ad6febe7762b5609",  # was 0b044110ced0...
        "5c06e1d41dab4b8d88b1790c3a9d65cf33bc371a6d87586b348df98cd4438cec"),
}


@pytest.mark.parametrize("name, params, v", THETA_SWEEPS)
def test_sweep_results_are_pinned(name, params, v):
    # every value of a sweep and of theta_SG, to the bit
    m = _sweep_graph(name, params)
    sgp = hashlib.sha256(json.dumps(dataclasses.asdict(spectral_gap_parameter(m, v))).encode()).hexdigest()
    assert (_curve_digest(dispersion_curve(m, v, grid_size=32)), sgp) == SWEEP_DIGESTS[name, params, v]


def test_dispersion_rows_equal_per_row_levels_on_random_graphs():
    rng = np.random.default_rng(1608)
    for n in range(100):
        m, v = _random_sweep(rng, deltas=n % 2 == 1)
        _assert_rows_match_levels(m, v, 16)


@pytest.mark.parametrize("grid", [22, 26])
def test_rows_of_a_grid_with_a_rounded_zero_theta(grid):
    # these grids place a row at theta = +-4.4e-16 instead of 0: its roots sit
    # within ulps of the poles of the vertex function, and its ground state
    # near k = 0
    assert min(abs(-PI + 2 * PI * (j + 1) / grid) for j in range(grid)) == pytest.approx(4.4e-16, rel=0.01)
    for graph, v in ((flower(16), 0), (loop(), 0), (path_graph(3), 1), (star(4), 1)):
        _assert_rows_match_levels(metric(*graph), v, grid)


def test_a_pole_too_weak_to_see_does_not_stall_the_roots():
    # g has a pole of residue about 1e-15 at the theta = 0 level 15.7156130579:
    # g(r -+ d) at the merge width d do not show it, and Newton's steps toward
    # it shrank without end; the rows' levels lie within 1e-11 of it
    g = DiscreteGraph(10, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 6), (0, 7), (1, 8), (3, 9), (0, 3)])
    thetas = [0.0, 0.0, 0.0, 2.6551718317258866, -0.8168072920787282, 0.0, 0.0, 1.3428942879566907,
              -0.04039496747566895, 0.048073642687490814]
    m = MetricGraph(g, [0.1] * 10, [DeltaTheta(t) for t in thetas])
    _assert_rows_match_levels(m, 1, 32)


def test_the_vertex_form_reads_the_inertia_of_whole_k(monkeypatch):
    # a row's confirming counts read N alone, from the vertex form at every
    # size (`spectral._TrigInertia`): its n_- is that of the whole K at every
    # point the rows of the theta_sweep graphs take, the theta = pi row,
    # whose v row is the scaled row's limit, and the points next to a pole
    # included; and at random points and 1e-9 relative either side of every
    # pole of seeded random rows
    stacks = []
    vertex_form = spectral._TrigInertia.spectra

    def recorded(coupling, alpha, lengths, ks):
        stacks.append((coupling, alpha, lengths, ks))
        return vertex_form(coupling, alpha, lengths, ks)

    monkeypatch.setattr(spectral._TrigInertia, "spectra", staticmethod(recorded))
    for name, params, v in THETA_SWEEPS:
        dispersion_curve(_sweep_graph(name, params), v, grid_size=32)
    # the theta = pi rows: v's row has coupling 0 and alpha 1
    assert any(((coupling == 0.0).all(axis=-1) & (alpha == 1.0)).any() for coupling, alpha, _, _ in stacks)
    swept = len(stacks)
    rng = np.random.default_rng(3701)
    for _ in range(40):
        m, v = _random_sweep(rng, deltas=True)
        for theta in (float(rng.uniform(-3.0, 3.0)), PI):
            count = spectral._TrigCount(_with_theta(m, v, theta))
            poles = np.array(count.poles_in(0.1, 30.0))
            ks = np.concatenate([rng.uniform(0.1, 30.0, 16), poles * (1.0 - 1e-9), poles * (1.0 + 1e-9)])
            stacks.append((np.repeat(count.coupling[None], ks.size, axis=0),
                           np.repeat(count.alpha[None], ks.size, axis=0), count.lengths, ks))
    # the points of the sweeps within twice the merge width of a pole, and those
    # of the random rows within 2e-9 relative of one
    near = []
    for n, (coupling, alpha, lengths, ks) in enumerate(stacks):
        whole = np.linalg.eigvalsh(spectral._TrigCount.matrices(coupling, alpha, lengths, ks))
        n_minus = np.count_nonzero(spectral._TrigCount.vertex_form(coupling, alpha, lengths, ks) < 0.0, axis=1)
        assert n_minus.tolist() == np.count_nonzero(whole < 0.0, axis=1).tolist()
        x = ks[:, None] * lengths / PI
        width = (2e-9 if n >= swept else 2.0 * spectral._MULT_PROBE) * x
        near.append(np.count_nonzero((np.abs(x - np.rint(x)) < width).any(axis=-1)))
    assert sum(near[:swept]) > 100 and sum(near[swept:]) > 100


def test_the_newton_stop_keeps_the_rows_near_weak_poles():
    # a root stops once two Newton steps in a row show quadratic convergence,
    # one solve before its step falls within the tolerance.  The rows still
    # equal per-row `levels` next to a pole too weak to see
    # (`test_a_pole_too_weak_to_see_does_not_stall_the_roots`), and at vertex
    # 0 of the graph whose k1 moves by 3.6e-9 with theta there
    # (`test_a_gap_that_barely_moves_is_no_flat_band`)
    g = DiscreteGraph(10, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 6), (0, 7), (1, 8), (3, 9), (0, 3)])
    thetas = [0.0, 0.0, 0.0, 2.6551718317258866, -0.8168072920787282, 0.0, 0.0, 1.3428942879566907,
              -0.04039496747566895, 0.048073642687490814]
    _assert_rows_match_levels(MetricGraph(g, [0.1] * 10, [DeltaTheta(t) for t in thetas]), 1, 64)
    g = DiscreteGraph(5, [(0, 1), (0, 2), (1, 3), (0, 4), (4, 0), (3, 0)])
    lengths = [0.27897272518906796, 0.09363122950234717, 0.10444261575365064, 0.25756361418192236,
               0.1956411131132068, 0.06974870225980508]
    _assert_rows_match_levels(metric(g, lengths), 0, 64)


def test_a_quadratic_stop_needs_a_step_in_the_quadratic_regime(monkeypatch):
    # the theta = pi row's second level: from the secant point of its
    # branch, a Newton step d_n = 1.42e-6 after d_{n-1} = 0.418 once stopped
    # the root by |d_n|^3 / d_{n-1}^2 = 1.6e-17, below the tolerance, while
    # the level was 4e-12 off (4.2e-13 relative): the far step d_{n-1} was
    # not in the quadratic regime, and the change of phi' across it shows
    # that.  The level is the root of the vertex matrix's determinant with
    # Dirichlet at vertex 2, by mpmath at 50 digits; it must hold from the
    # model's start and from the secant point
    g = DiscreteGraph(5, [(0, 1), (1, 2), (0, 3), (2, 4), (0, 3), (1, 2), (0, 2), (2, 4)])
    lengths = [0.05719796652051301, 0.32981025198553815, 0.17003942283187218, 0.1259895641543155,
               0.05292149365200627, 0.06461465584883219, 0.097529767388563, 0.10189687761835967]
    m = MetricGraph(g, lengths, [NEUMANN, DeltaTheta(-0.6571406545531211), NEUMANN, NEUMANN, NEUMANN])
    exact = 9.171794467120502042
    assert abs(dispersion_curve(m, 2, grid_size=32).levels[-1][1] - exact) <= 1e-14 * exact

    def secant_starts(G, lo, hi, at_ends, poles, residues, branch, fa, fb, w):
        return lo[branch], hi[branch], fa, fb, lo[branch]

    monkeypatch.setattr(dispersion, "_model_starts", secant_starts)
    assert abs(dispersion_curve(m, 2, grid_size=32).levels[-1][1] - exact) <= 1e-14 * exact


@pytest.mark.parametrize("name, params, v", [("star", (4,), 1), ("path_graph", (2,), 0), ("dumbbell", (0.5,), 0),
                                             ("stower", (2, 1), 1)])
def test_the_roots_do_not_depend_on_their_starts(monkeypatch, name, params, v):
    # a poor start costs steps, never a root: started at either end of each
    # branch (where `_branch_roots` takes the secant point), near either end
    # and at the middle, instead of at the model's start, with the brackets
    # of the whole branch, every root is the one found
    brackets, roots = [], []
    model_starts, branch_roots = dispersion._model_starts, dispersion._branch_roots

    def starts(G, lo, hi, at_ends, poles, residues, branch, fa, fb, w):
        brackets.append((G, lo[branch], hi[branch], fa, fb, w))
        return model_starts(G, lo, hi, at_ends, poles, residues, branch, fa, fb, w)

    def solved(*args):
        roots.append(branch_roots(*args))
        return roots[-1]

    monkeypatch.setattr(dispersion, "_model_starts", starts)
    monkeypatch.setattr(dispersion, "_branch_roots", solved)
    dispersion_curve(_sweep_graph(name, params), v, grid_size=32)
    ((G, a, b, fa, fb, w),), (found,) = brackets, roots
    assert found.size > 50
    for start in (a, b, a + 1e-6 * (b - a), b - 1e-6 * (b - a), 0.5 * (a + b)):
        k = branch_roots(G, a, b, fa, fb, w, start)
        assert (np.abs(k - found) <= 1e-13 * np.maximum(1.0, np.abs(found))).all()


def test_a_vertex_function_that_skips_a_branch_raises(monkeypatch):
    # g shifted far up between its first two poles has no root there for any
    # row: the rows' own counts must refuse the levels found, not return short rows
    m = metric(*star(3))
    first, second = sorted({k for k in _row(m, 1, 0.0, 9 * PI) if k > 0.0})[:2]
    solve = spectral._TrigCount.vertex_function

    def skipping(count, row, ks):
        g, dg = solve(count, row, ks)
        return np.where((first < ks) & (ks < second), g + 1e9, g), dg

    monkeypatch.setattr(spectral._TrigCount, "vertex_function", skipping)
    with pytest.raises(RuntimeError, match="theta = .*: count"):
        dispersion_curve(m, 1, grid_size=16)


def _attractive_elsewhere():
    """star(3) with an attractive coupling at leaf 2, swept at leaf 1: the
    theta = 0 graph has one negative level, a pole of the vertex function on
    s < 0, so the negative branch has two pieces."""
    return metric(*star(3)).with_condition(2, DeltaTheta(-2.5)), 1


def test_negative_levels_on_both_sides_of_a_pole():
    # the strongly attractive rows have a level on either side of the pole,
    # the weakly attractive ones below it only and the repulsive ones above it
    m, v = _attractive_elsewhere()
    (pole,) = negative_spectrum(_with_theta(m, v, 0.0))
    assert pole.multiplicity == 1
    curve = dispersion_curve(m, v, grid_size=32)
    below = [[k for k in row if k < 0.0] for row in curve.levels]
    assert len(below[0]) == 2 and {len(b) for b in below} == {1, 2}
    for theta, b in zip(curve.thetas, below):
        assert b == sorted(b) and len(b) in (1, 2)
        if len(b) == 2:
            assert b[0] < pole.k < b[1]
        else:
            assert b[0] < pole.k if theta < 0.0 else b[0] >= pole.k
    _assert_rows_match_levels(m, v, 32)
    # two attractive couplings put two poles on s < 0
    g = DiscreteGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    m2 = MetricGraph(g, [0.15, 0.2, 0.25, 0.3, 0.1], [NEUMANN, DeltaTheta(-3.0), DeltaTheta(0.5), DeltaTheta(-3.0)])
    assert len(negative_spectrum(m2)) == 2
    for w in (0, 2):
        _assert_rows_match_levels(m2, w, 32)


def test_the_hyperbolic_vertex_function_at_a_star_centre():
    # at the centre of a star with Neumann leaves h(kappa) = 1 / sum_e kappa
    # tanh(kappa l_e), the inverse of the centre's Dirichlet-to-Neumann map,
    # and dG/ds = -h'(kappa): the bordered solve keeps both to 1e-14 from
    # kappa = 1e-7, where h ~ 1e14 nears the pole at lambda = 0, to kappa = 300
    lengths = np.array([0.2, 0.3, 0.5])
    m = metric(star(3)[0], lengths)
    kappas = np.array([1e-7, 1e-5, 1e-3, 0.02, 0.1, 1.0, 10.0, 300.0])
    G, dh = spectral._HyperbolicCount(m).vertex_function(0, kappas)
    dtn = np.array([np.sum(k * np.tanh(k * lengths)) for k in kappas])
    slope = np.array([np.sum(np.tanh(k * lengths) + k * lengths / np.cosh(k * lengths) ** 2) for k in kappas])
    assert G == pytest.approx(1.0 / dtn, rel=1e-14, abs=0.0)
    assert -dh == pytest.approx(slope / dtn**2, rel=1e-14, abs=0.0)
    # on the unit interval with Dirichlet at the far end g(k) = tan k / k,
    # the inverse of k cot k, and g'(k) = (k sec^2 k - tan k) / k^2
    ks = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 10.0])
    g, dg = spectral._TrigCount(metric(*interval()).with_condition(1, DIRICHLET)).vertex_function(0, ks)
    assert g == pytest.approx(np.tan(ks) / ks, rel=1e-14, abs=0.0)
    assert dg == pytest.approx((ks / np.cos(ks) ** 2 - np.tan(ks)) / ks**2, rel=1e-13, abs=0.0)
    # on random graphs, loops, delta and Dirichlet vertices included, the
    # derivative of each count is the slope of its vertex function: the
    # hyperbolic one's in kappa, the trig one's in k away from the poles of
    # g, the theta = 0 levels with an eigenfunction that does not vanish at v
    rng = np.random.default_rng(29)
    for _ in range(20):
        m, v = _random_sweep(rng, deltas=True)
        m0 = _with_theta(m, v, 0.0)
        kappas = rng.uniform(0.05, 20.0, 6)
        poles = np.array([k for k in levels([m0], 21.0)[0] if k > 0.0])
        ks = kappas[np.abs(kappas[:, None] - poles).min(axis=1, initial=np.inf) > 0.05]
        for count, s in ((spectral._HyperbolicCount(m0), kappas), (spectral._TrigCount(m0), ks)):
            row = count.row(v)
            step = 1e-6 * s
            G, dG = count.vertex_function(row, s)
            up = count.vertex_function(row, s + step)[0]
            down = count.vertex_function(row, s - step)[0]
            assert dG == pytest.approx((up - down) / (2.0 * step), rel=1e-5, abs=1e-8 * np.abs(G).max()), m


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND 68: the terms of the trig count's -x^T K' x cancel near k = 0")
def test_the_trig_slope_near_zero_is_that_of_tan_k_over_k():
    # on the path of two edges of length 1/2 with Dirichlet at its far end,
    # g(k) = tan k / k at vertex 0, of slope 2k/3 + O(k^3); the vertex
    # function's dG is 0, 0 and 6.7055e-8 at k = 1e-9, 1e-8 and 1e-7
    m = metric(*path_graph(2)).with_condition(2, DIRICHLET)
    ks = np.array([1e-9, 1e-8, 1e-7])
    count = spectral._TrigCount(m)
    dg = count.vertex_function(count.row(0), ks)[1]
    assert dg == pytest.approx(2.0 * ks / 3.0, rel=1e-6, abs=0.0)


def test_a_nonsingular_m0_makes_the_vertex_function_continuous_at_zero():
    # with Dirichlet at one end of a path, M0 is positive definite: the
    # vertex function at v meets (M0^-1)_vv from both sides of s = 0, and
    # the row where 1/alpha + G(0) = 0 has its level cross lambda = 0
    m = metric(*path_graph(2)).with_condition(2, DIRICHLET)
    v = 0
    m0 = _with_theta(m, v, 0.0)
    count = spectral._TrigCount(m0)
    hyperbolic = spectral._HyperbolicCount(m0)
    q = count.coupling[:, count.lengths.size :]
    g0 = np.linalg.inv(np.diag(count.alpha) + (q / count.lengths) @ q.T)[v, v]
    s = np.array([-1e-3, -1e-9, 1e-9, 1e-3])
    v_row = count.row(v)
    h, dh = hyperbolic.vertex_function(v_row, -s[:2])   # G(s) = h(-s), so dG/ds = -h'(-s)
    g, dg = count.vertex_function(v_row, s[2:])
    G, dG = np.concatenate([h, g]), np.concatenate([-dh, dg])
    assert G == pytest.approx(g0, rel=1e-5)
    assert dG[0] > 0.0 and dG[-1] > 0.0
    assert abs(G[2] - G[1]) <= 1e-12 * abs(g0)
    curve = dispersion_curve(m, v, grid_size=32)
    signs = [np.sign(row[0]) for row in curve.levels]
    assert signs[0] == -1.0 and signs[-1] == 1.0
    _assert_rows_match_levels(m, v, 32)


def test_a_row_with_a_level_at_zero_on_the_found_49_family():
    # f = 1 + c x on the unit interval, with the coupling c at x = 0 and
    # -c / (1 + c) at x = 1: the row at theta = 2 atan(c) at vertex 0 has the
    # level lambda = 0, and the theta = 0 graph has a negative level (a pole
    # of G on s < 0) and a nonsingular M0.  For c > 0 the row has no negative
    # level; for c < -1 both couplings attract, and it has one.  There the
    # vertex function may put the zero level just below the hyperbolic
    # floor, by noise, and M0, which counts it as zero, decides
    grid = 16
    for j in (1, 2, 8, 10, 12):   # theta = -3 pi/4, -5 pi/8, pi/4, pi/2, 3 pi/4 on the grid
        theta = -PI + 2 * PI * (j + 1) / grid
        c = DeltaTheta(theta).alpha
        m = metric(*interval()).with_condition(1, DeltaTheta(2.0 * math.atan(-c / (1.0 + c))))
        curve = dispersion_curve(m, 0, grid_size=grid)
        row = curve.levels[j]
        assert curve.thetas[j] == theta
        assert row.count(0.0) == 1 and sum(k < 0.0 for k in row) == int(c < -1.0), c
        assert len(negative_spectrum(_with_theta(m, 0, 0.0))) == 1
        _assert_rows_match_levels(m, 0, grid)


def test_a_level_within_the_rounding_of_m0_counts_as_zero():
    # the unit interval with Dirichlet at 0, swept at 1: on a grid of 44 the
    # row at theta = -pi/2 - 2.2e-16 has alpha = -1 - 2.2e-16, and M0 = 1 + alpha
    # = -2.2e-16 is the rounding of its two terms.  The level sits at
    # lambda ~ -7e-16, where the hyperbolic count and the vertex function each
    # place it by rounding (kappa 2.8e-8 and 8.4e-9, mpmath 2.58e-8), and the
    # row's counts refused the vertex function's.  M0 counts it as zero, in
    # the sweep as in `levels`
    m = metric(*interval()).with_condition(0, DIRICHLET)
    theta = -PI + 2 * PI * 11 / 44
    assert DeltaTheta(theta).alpha == -1.0000000000000002
    assert spectral._Count(_with_theta(m, 1, theta)).zero_modes == (0, 1)
    curve = dispersion_curve(m, 1, grid_size=44)
    assert curve.thetas[10] == theta and curve.levels[10][0] == 0.0
    _assert_rows_match_levels(m, 1, 44)


@pytest.mark.parametrize("graph, v", [(star(3), 0), (star(3), 1), (interval(), 0), (flower(2), 0)],
                         ids=["star3-centre", "star3-leaf", "interval", "flower2"])
def test_a_row_whose_level_sits_on_the_trig_floor(monkeypatch, graph, v):
    # a tiny repulsive coupling lifts the constant mode of a Neumann graph to
    # lambda ~ alpha / L, by the floor.  At the theta found below, phi =
    # arg((1 + i g) w) of `_sweep_levels` is exactly 0 at the trig floor: the
    # row's root sits on the floor, where the first branch does not search
    # it, so the floor count must take it.  Counted only where phi > 0, the
    # level was neither counted nor found, and the row's counts raised
    # RuntimeError
    m = metric(*graph)
    k_max = 9 * PI / m.total_length
    at_floor, vertex_samples = [], dispersion._vertex_samples

    def spied(G, at, ks):
        sampled = vertex_samples(G, at, ks)
        at_floor.append(float(sampled[0][2]))
        return sampled

    monkeypatch.setattr(dispersion, "_vertex_samples", spied)
    dispersion._sweep_levels(m, v, np.array([1.0]), k_max)
    g = at_floor[0]
    assert g < -1e12   # the constant mode's pole at k = 0

    def phi(theta):
        w = complex(abs(math.sin(0.5 * theta)), math.copysign(math.cos(0.5 * theta), theta))
        return float(np.angle((1.0 + 1j * np.array([g])) * w)[0])

    near = -2.0 / g   # phi = 0 where tan(theta / 2) = -1 / g
    theta = next(t for t in (near + j * math.ulp(near) for j in range(-2000, 2000)) if phi(t) == 0.0)
    rows, _ = dispersion._sweep_levels(m, v, np.array([theta]), k_max)
    assert at_floor[1] == g
    _assert_each_row_is_its_levels(m, v, [theta], rows)


def test_a_deep_negative_level_of_a_fine_grid(recwarn):
    # star(3) at its centre on a grid of 2048: the first row, alpha = -652,
    # binds kappa = 217 with 3 kappa tanh(kappa / 3) = -alpha; no step of the
    # vertex function overflows or warns
    m = metric(*star(3))
    curve = dispersion_curve(m, 0, grid_size=2048)
    alpha = DeltaTheta(float(curve.thetas[0])).alpha
    kappa = -curve.levels[0][0]
    assert alpha == pytest.approx(-652.0, abs=1.0) and kappa == pytest.approx(217.0, abs=1.0)
    assert 3 * kappa * math.tanh(kappa / 3) == pytest.approx(-alpha, rel=1e-13)
    assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
    _assert_rows_match_levels(m, 0, 2048, every=61)


def test_a_hyperbolic_vertex_function_that_skips_a_branch_raises(monkeypatch):
    # h shifted far up beyond the pole of the theta = 0 graph's negative level
    # has no root there for any attractive row: each row's own hyperbolic
    # counts must refuse the levels found, not return short rows
    m, v = _attractive_elsewhere()
    (pole,) = negative_spectrum(_with_theta(m, v, 0.0))
    solve = spectral._HyperbolicCount.vertex_function

    def skipping(count, row, kappas):
        h, dh = solve(count, row, kappas)
        return np.where(kappas > -pole.k, h + 1e9, h), dh

    monkeypatch.setattr(spectral._HyperbolicCount, "vertex_function", skipping)
    thetas = [-PI + 2 * PI * (j + 1) / 16 for j in range(16)]
    for theta in thetas[:7]:
        with pytest.raises(RuntimeError, match="theta = .*: count"):
            dispersion._sweep_levels(m, v, np.array([theta]), 9 * PI)
    # the repulsive rows have no level on that branch
    for theta in thetas[8:]:
        dispersion._sweep_levels(m, v, np.array([theta]), 9 * PI)
    with pytest.raises(RuntimeError, match="theta = .*: count"):
        dispersion_curve(m, v, grid_size=16)


def test_a_kappa_top_below_a_negative_level_raises(monkeypatch):
    # the negative branches end at kappa_top, where every row's hyperbolic
    # count must be V'; one below the level of an attractive row leaves that
    # level to no branch, and the row's count there must refuse it
    m = metric(*star(3))
    monkeypatch.setattr(spectral._HyperbolicCount, "top", lambda count, vertex_alpha: 1.0)
    with pytest.raises(RuntimeError, match="theta = .*: count 3 at k = 1.0, expected 4"):
        dispersion_curve(m, 0, grid_size=16)


def test_dispersion_count_budget(count_matrices, monkeypatch):
    # one theta = 0 search, one solve per step for all roots of both signs,
    # then each row's counts around its levels; the flat bands are the
    # theta = 0 levels without a pole of the vertex function, and take no
    # count: the 32 per-row searches took 2,542, and a search of each row's
    # negative branch 479.  No row counts at its floor: each takes the
    # inertia of its M0, all rows in one stacked solve (31 solves before),
    # save the theta = 0 row, a Neumann graph whose floor count is known
    calls = [0]   # the `spectra` calls, and the trig counts' lone `spectrum` calls, of each drive
    for cls in (spectral._TrigCount, spectral._TrigInertia, spectral._HyperbolicCount):
        def counted(coupling, alpha, lengths, ks, spectra=cls.spectra):
            calls[-1] += 1
            return spectra(coupling, alpha, lengths, ks)

        monkeypatch.setattr(cls, "spectra", staticmethod(counted))
    spectrum = spectral._TrigCount.spectrum

    def alone(count, k):
        calls[-1] += 1
        return spectrum(count, k)

    monkeypatch.setattr(spectral._TrigCount, "spectrum", alone)
    drive = dispersion._drive

    def tallied(searches):
        calls.append(0)
        return drive(searches)

    points = [0]   # the points of every call of the vertex function
    vertex_function = spectral._Count.vertex_function

    def sampled(count, row, s):
        points[0] += s.size
        return vertex_function(count, row, s)

    monkeypatch.setattr(spectral._Count, "vertex_function", sampled)
    rounds = []   # the solves of each Newton lockstep
    roots = dispersion._branch_roots

    def solved(g, *args):
        rounds.append(0)

        def counted_g(ss):
            rounds[-1] += 1
            return g(ss)

        return roots(counted_g, *args)

    confirms = []   # the `spectra` calls that confirm the rows' levels of each sign
    confirmed = dispersion._confirmed

    def confirming(*args, **kwargs):
        calls.append(0)
        try:
            return confirmed(*args, **kwargs)
        finally:
            confirms.append(calls.pop())

    monkeypatch.setattr(dispersion, "_drive", tallied)
    monkeypatch.setattr(dispersion, "_branch_roots", solved)
    monkeypatch.setattr(dispersion, "_confirmed", confirming)
    dispersion_curve(metric(*star(4)), 1, grid_size=32)
    # 330 when the theta = 0 search took its counts one after another, 325
    # when its first batch took both window edges of each pole and a count
    # was never taken near one
    assert count_matrices.n == 329
    assert (count_matrices.m0.n, count_matrices.m0.calls) == (31, 1)
    # the theta = 0 search brackets its range in one batch, then searches
    # the brackets in lockstep: 10 stacked calls, 21 one after another
    # before, 6 while the batch took both window edges of each pole; it is
    # the one drive
    assert len(calls) == 2 and calls[1] == 10
    # each root starts from a model of the vertex function on its branch
    # (`_model_starts`) and stops once two Newton steps show quadratic
    # convergence: 2 solves; 6 from the secant point of each branch, 7 when
    # each root waited for a step within the tolerance there
    assert rounds == [2]
    # the vertex function's points: samples around the theta = 0 levels and
    # at the ends, nodes of the model and lockstep points, 354 in all; 357
    # while the theta = 0 levels came from counts kept off the poles, 732
    # from the secant points, 720 of them in the lockstep
    assert points == [354]
    # the rows confirm their levels last, with no drive: one stacked call
    # for the trig counts of every row, the theta = pi row included, and
    # one for the hyperbolic counts of the attractive rows; level by level
    # they took 18
    assert confirms == [1, 1]


def test_a_sweep_s_memory_grows_as_its_roots_do():
    # each root's model of the vertex function keeps a fixed number of
    # poles (`_model_starts`), so twice the levels take about twice the
    # memory: on star(3) at a leaf, 159 levels a row at k_max = 500 and 318
    # at 1000, the traced peak went 6.5 -> 12.9 MB, where a model with every
    # pole in every root's went 13.0 -> 47.3 MB
    peaks = []
    for k_max in (500.0, 1000.0):
        tracemalloc.start()
        try:
            dispersion_curve(metric(*star(3)), 1, grid_size=32, k_max=k_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


@pytest.mark.parametrize("call", [
    lambda m: dispersion_curve(m, 1.0, grid_size=8),
    lambda m: spectral_gap_parameter(m, 1.0),
    lambda m: dispersion_curve(m, True, grid_size=8),
    lambda m: dispersion_curve(m, 0, grid_size=4.5),
    lambda m: glue(m, 1.0, m, 0, 0.5),
    lambda m: identify_vertices(m, 0, np.float64(1.0)),
])
def test_vertex_ids_and_grid_size_must_be_integers(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call(metric(*star(3)))


@pytest.mark.parametrize("n_levels", [2.5, "3", -3])
def test_n_levels_must_be_a_positive_integer(n_levels):
    # 2.5 was taken as it is, "3" raised a TypeError, and -3 was rejected
    # for the k_max it gave
    with pytest.raises(InvalidInputError, match="n_levels"):
        dispersion_curve(metric(*star(3)), 0, grid_size=8, n_levels=n_levels)


@pytest.mark.parametrize("n, match", [(0, "at least 1"), (-1, "at least 1"), (1.5, "an integer"),
                                      (True, "an integer")])
def test_a_curve_s_level_counts_must_be_positive_integers(n, match):
    # 0 and -1 raised numpy's ValueErrors, 1.5 a TypeError, and True was taken as 1
    curve = dispersion_curve(metric(*star(3)), 0, grid_size=8)
    for call in (curve.level_array, curve.interlacing_slack):
        with pytest.raises(InvalidInputError, match=f"n_levels must be {match}"):
            call(n)
    assert curve.level_array(1).shape == (8, 1) and curve.interlacing_slack(1) >= -1e-8


def test_dispersion_input_checks():
    m = metric(*star(3))
    for grid_size in (3, 0, -4):
        with pytest.raises(InvalidInputError, match="grid_size too small"):
            dispersion_curve(m, 0, grid_size=grid_size)
    # no row holds 50 levels up to the default k_max
    curve = dispersion_curve(m, 0, grid_size=8)
    with pytest.raises(InvalidInputError, match="k_max too small for the requested level count"):
        curve.level_array(50)
    with pytest.raises(InvalidInputError, match="defined for Neumann graphs"):
        spectral_gap_parameter(_with_theta(m, 1, 0.5), 0)
    with pytest.raises(InvalidInputError, match="defined for Neumann graphs"):
        spectral_gap_parameter(m.with_condition(2, DIRICHLET), 0)
    # the unnormalized graphs of `MetricGraph`: total length 2 on either side
    long = MetricGraph(m.graph, [2 / 3] * 3)
    for parts in ((long, m), (m, long)):
        with pytest.raises(InvalidInputError, match="gluing expects total length one on both graphs"):
            glue(parts[0], 0, parts[1], 0, 0.5)


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
    at_pi = _row(m, 0, PI, 8 * PI, n_max=4)
    near = _row(m, 0, -PI + 1e-4, 9 * PI, n_max=5)
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


def test_interlacing_random_graph_with_negative_branch():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 3, 4)
    m = metric(g, random_lengths(rng, 4, l_min=0.1))
    thetas = [-2.8, -1.4, 0.0, 1.4, 2.8, PI]
    rows = [_row(m, 1, t, 7 * PI, n_max=6) for t in thetas]
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
    assert merged.conditions[0] == NEUMANN
    a = np.array(levels([split], 9 * PI, n_max=6)[0])
    b = np.array(levels([merged], 9 * PI, n_max=6)[0])
    n = min(a.size, b.size)
    assert n >= 5
    a, b = a[:n], b[:n]
    assert float((b[:-1] - a[:-1]).min()) >= -1e-8
    assert float((a[1:] - b[:-1]).min()) >= -1e-8


def test_identifying_a_vertex_with_itself_keeps_the_graph():
    m = metric(*star(3)).with_condition(1, DeltaTheta(0.7))
    assert identify_vertices(m, 1, 1) is m


@pytest.mark.parametrize("other", [NEUMANN, DeltaTheta(-1.0), DIRICHLET])
def test_a_dirichlet_vertex_makes_the_merged_vertex_dirichlet(other):
    # identifying the leaves 1 and 3 of star(3), Dirichlet at either of
    # them: f = 0 there, whatever the coupling of the other
    for pair in ((DIRICHLET, other), (other, DIRICHLET)):
        m = metric(*star(3)).with_condition(1, pair[0]).with_condition(3, pair[1])
        merged = identify_vertices(m, 1, 3)
        assert merged.conditions[1] == DIRICHLET
        assert merged.graph.vertex_count == 3 and merged.graph.edges == ((0, 1), (0, 2), (0, 1))
        assert (merged.conditions[0], merged.conditions[2]) == (NEUMANN, NEUMANN)


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


@pytest.mark.parametrize("graph, v", [(star(3), 0), (star(4), 0), (stower(1, 2), 0), (path_graph(2), 1)],
                         ids=["star3", "star4", "stower12", "path2"])
def test_sign_change_without_pole_gives_pi_exactly(graph, v):
    # g(k1) = 0 at these vertices: g rises across k1 with no pole, so
    # K(pi) = k1 and theta_SG is pi itself, not a value set by the
    # distance from k1 at which g is sampled
    rep = spectral_gap_parameter(metric(*graph), v)
    assert rep.theta_sg == math.pi
    assert rep.classification == "strong"


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
    assert rep.theta_sg == 2 * PI
    assert not rep.k1_is_flat_band


def test_circle_vertex_gap_is_flat_band():
    # mandarin(2) is the circle with two marked points: theta_SG reaches
    # 2 pi at a vertex, and sin(2 pi x) keeps k1 = 2 pi at every theta
    rep = spectral_gap_parameter(metric(*mandarin(2)), 0)
    assert rep.classification == "violates"
    assert rep.theta_sg == 2 * PI
    assert rep.k1_is_flat_band


def test_sgp_of_random_graphs_agrees_with_an_independent_count(independent_checks):
    checks = independent_checks
    rng = np.random.default_rng(1608)
    for _ in range(40):
        E = int(rng.integers(2, 7))
        V = int(rng.integers(2, E + 2))
        g = random_connected_graph(rng, V, E)
        lengths = random_lengths(rng, E, l_min=0.05).values
        v = int(rng.integers(0, V))
        rep = spectral_gap_parameter(metric(g, lengths), v)
        problems = checks.sgp_problems(checks.Graph(V, g.edges, lengths), v, rep.theta_sg, rep.classification,
                                       rep.k1, rep.k1_multiplicity, rep.dirichlet_k0)
        assert problems == [], (g.edges, lengths, v)


def test_a_gap_that_barely_moves_is_no_flat_band():
    # k1 moves by 3.6e-9 between theta = -2.5 and 2.0: its eigenfunction
    # nearly vanishes at v, and the least multiplicity under two couplings
    # called it flat.  g has a weak pole at k1, so theta_SG is 2 pi exactly,
    # not a value set by how far below k1 g is taken
    g = DiscreteGraph(5, [(0, 1), (0, 2), (1, 3), (0, 4), (4, 0), (3, 0)])
    lengths = [0.27897272518906796, 0.09363122950234717, 0.10444261575365064, 0.25756361418192236,
               0.1956411131132068, 0.06974870225980508]
    rep = spectral_gap_parameter(metric(g, lengths), 0)
    assert not rep.k1_is_flat_band
    assert rep.theta_sg == 2 * PI


@pytest.mark.parametrize("lengths, pinned", [
    ((0.4, 0.4, 0.2), 3.640289371351311),
    ((0.45, 0.45, 0.1), 3.3493813678),
    ((0.35, 0.35, 0.3), 4.6883288200),
])
def test_theta_sg_off_a_pole_and_a_sign_change_is_read_below_k1(lengths, pinned, independent_checks):
    # the star with edges a, a, b from its centre 0 to the leaves 1, 2, 3.
    # Its gap k1 = pi / (2a) is the mode odd in the two equal edges, which
    # vanishes on edge b: a flat band at leaf 3, where g has no pole and no
    # sign change, so theta_SG = 2 atan2(1, -g(k1 - d)).  On the mode even in
    # the equal edges, the row with coupling alpha at leaf 3 has a level at k
    # where alpha = k (cot(ka) sin(kb) + 2 cos(kb)) / (cot(ka) cos(kb) - 2 sin(kb)),
    # so -1/g(k) is that alpha, and theta_SG is 2 pi + 2 atan(alpha) at
    # k1 - d.  At k1 + d it differs by 3e-10 to 4e-9
    a, _, b = lengths
    g = DiscreteGraph(4, [(0, 1), (0, 2), (0, 3)])
    rep = spectral_gap_parameter(metric(g, list(lengths)), 3)
    k = rep.k1 - spectral._merge_width(rep.k1)
    cot = math.cos(k * a) / math.sin(k * a)
    alpha = k * (cot * math.sin(k * b) + 2.0 * math.cos(k * b)) / (cot * math.cos(k * b) - 2.0 * math.sin(k * b))
    assert rep.theta_sg == pytest.approx(2.0 * PI + 2.0 * math.atan(alpha), rel=0.0, abs=1e-13)
    assert rep.theta_sg == pytest.approx(pinned, rel=0.0, abs=1e-10)
    assert (rep.classification, rep.k1_multiplicity, rep.k1_is_flat_band) == ("violates", 1, True)
    assert independent_checks.sgp_problems(independent_checks.Graph(4, g.edges, lengths), 3,
                                           rep.theta_sg, rep.classification, rep.k1, rep.k1_multiplicity,
                                           rep.dirichlet_k0) == []


def test_a_vertex_function_that_disagrees_with_the_dirichlet_gap_raises(monkeypatch):
    # g flipped in sign puts theta_SG past pi at the star's centre, where
    # Dirichlet keeps the gap: the Dirichlet gap's own search must refuse it
    solve = spectral._TrigCount.vertex_function

    def flipped(count, row, ks):
        g, dg = solve(count, row, ks)
        return -g, -dg

    monkeypatch.setattr(spectral._TrigCount, "vertex_function", flipped)
    with pytest.raises(RuntimeError, match="Dirichlet gap"):
        spectral_gap_parameter(metric(*star(4)), 0)


def test_sgp_count_budget(count_matrices):
    # the gap searches with Neumann and with Dirichlet at v; theta_SG, the
    # flat band and the Dirichlet multiplicity come from one solve of the
    # vertex function: the bisection on theta took 80, and 14 while the
    # Neumann search took a count at its cap.  The Dirichlet search knows
    # its floor count from one M0
    spectral_gap_parameter(metric(*star(4)), 0)
    assert count_matrices.n == 13
    assert count_matrices.m0.n == 1


def test_sgp_value_meets_branch():
    # K(theta_sg) = k1 within 1e-8: check via the saturated branch value
    m = metric(*star(3))
    rep = spectral_gap_parameter(m, 0)
    branch = eigenvalues(_with_theta(m, 0, rep.theta_sg), 6.0).eigenpairs[0].k
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
        eigenvalues(_with_theta(metric(*interval()), 0, 4.0), 5.0)


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


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="CHANGES.md FOUND 75: a sweep row's negative level near lambda = 0 fails its counts")
@pytest.mark.parametrize("length, grid", [(0.999999999999969, 64), (1.000000000000001, 64),
                                          (1.000000000000025, 64), (1.000000000000027, 32)])
def test_a_sweep_row_with_a_negative_level_near_zero_returns(length, grid):
    # at theta = -pi/2 the row's negative level has kappa about 3e-7, where
    # its confirming hyperbolic counts are noise.  Whether a length within
    # 1e-13 of 1 raises turns on the last bits of the roots: 1.0000000000000318
    # on the grid of 64 raised until the roots started from a model of the
    # vertex function.  These lengths raise with either start
    m = MetricGraph(DiscreteGraph(2, [(0, 1)]), [length], [DIRICHLET, NEUMANN])
    curve = dispersion_curve(m, 1, grid_size=grid)
    assert len(curve.thetas) == grid
