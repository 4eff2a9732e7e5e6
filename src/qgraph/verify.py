"""Acceptance criteria A1-A16: closed-form catalog, bounds, and invariants.

Each criterion is a deterministic check (seeded randomness) returning a
pass/fail result with per-case details; `run_suite` aggregates them for
the CLI `verify` command and for the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import families
from .dispersion import glue, interlacing_margin
from .errors import InvalidInputError, MultiplicityError, NotApplicableError
from .graph import DeltaTheta, LengthVector, MetricGraph, metric, tree_diameter
from .optimize import (
    CatalogEntry,
    LEVEL_ULPS,
    MaximizeOptions,
    full_catalog,
    infimize_gap,
    maximize_gap,
    symmetrizable_groups,
    symmetrize,
    upper_bound,
)
from .perturbation import gap_eigenpair, is_critical, nodal_count, path_decomposition
from .spectral import (
    EdgeTrig,
    eigenvalues,
    levels,
    spectral_gap,
    vertex_condition_residual,
)

PI = math.pi


@dataclass
class CriterionResult:
    name: str
    passed: bool
    summary: str
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0


class _Check:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)

    def close(self, value: float, target: float, tol: float, label: str) -> None:
        self.expect(
            abs(value - target) <= tol,
            f"{label}: got {value!r}, want {target!r} within {tol:g}",
        )


# ---------------------------------------------------------------------------
# shared random corpus
# ---------------------------------------------------------------------------


def _random_instances(seed: int, count: int, v_range=(2, 5), extra_edges=(0, 2), l_min=0.03):
    """Deterministic list of (graph, lengths) over small random topologies."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        V = int(rng.integers(v_range[0], v_range[1] + 1))
        E = V - 1 + int(rng.integers(extra_edges[0], extra_edges[1] + 1))
        if E < 1 or E > 5:
            continue
        g = families.random_connected_graph(rng, V, E)
        lengths = families.random_lengths(rng, E, l_min=l_min)
        out.append((g, lengths))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _closed_form(c: _Check, entry: CatalogEntry) -> MetricGraph:
    """The solver's gap of a `full_catalog` entry against its closed form,
    and its multiplicity where the closed form gives one; returns the
    entry's metric graph."""
    m = metric(entry.graph, entry.lengths)
    k1, mult = spectral_gap(m)
    c.close(k1, entry.gap, 1e-8, f"{entry.family} {entry.params}: computed gap vs closed form")
    if entry.multiplicity is not None:
        c.expect(mult == entry.multiplicity,
                 f"{entry.family} {entry.params}: multiplicity {mult}, closed form {entry.multiplicity}")
    return m


def _catalog(family: str | None) -> list[CatalogEntry]:
    """The `full_catalog` entries of a family, or all of them where None."""
    return [entry for entry in full_catalog() if family in (None, entry.family)]


def _catalog_check(family: str | None, seed: int) -> _Check:
    """`_closed_form` of each catalog entry of a family, or of every entry."""
    c = _Check()
    for entry in _catalog(family):
        _closed_form(c, entry)
    return c


def check_a4(seed: int) -> _Check:
    # Edge e runs over x in [0, 1/E] from vertex 0 to vertex 1, with
    # f_e = A_e cos kx + B_e sin kx.  Continuity at vertex 0 gives A_e = a.
    # If sin(k/E) != 0, continuity at vertex 1 makes all B_e equal, Kirchhoff
    # at vertex 0 then forces B_e = 0 and Kirchhoff at vertex 1 forces a = 0,
    # so the gap is k = pi E.  There f_e(1/E) = -a on every edge, continuity
    # holds for any (a, B), and both Kirchhoff conditions reduce to
    # sum_e B_e = 0: the eigenspace has dimension 1 + (E - 1) = E, spanned by
    # the symmetric mode cos(pi E x) and the E - 1 sine differences.  The
    # closed-form modes certify that count independently of the solver.
    c = _Check()
    for entry in _catalog("mandarin"):
        m, (E,) = _closed_form(c, entry), entry.params
        zeros = (0.0,) * E
        modes = [EdgeTrig(PI * E, (1.0,) * E, zeros)]
        for i in range(E - 1):
            b = np.zeros(E)
            b[i], b[i + 1] = 1.0, -1.0
            modes.append(EdgeTrig(PI * E, zeros, tuple(b)))
        for j, f in enumerate(modes):
            res = vertex_condition_residual(m, f)
            c.expect(res <= 1e-10, f"mandarin {E} closed-form mode {j}: residual {res:.3e}")
        gram = np.array([[f1.inner(f2, m.lengths) for f2 in modes] for f1 in modes])
        rank = int(np.linalg.matrix_rank(gram))
        c.expect(rank == E, f"mandarin {E} closed-form modes: Gram rank {rank}, want {E}")
    return c


def check_a5(seed: int) -> _Check:
    c = _Check()
    h = 1e-6
    tested = 0
    for g, lengths in _random_instances(seed + 5, 400, (2, 4), (0, 2), l_min=0.05):
        if tested == 50:
            break
        m = metric(g, lengths)
        k1, mult = spectral_gap(m)
        if mult != 1:
            continue
        _, f = gap_eigenpair(m)
        energies = f.energies()
        for e in range(g.edge_count):
            lp = lengths.values.copy()
            lm = lengths.values.copy()
            lp[e] += h
            lm[e] -= h
            kp, _ = spectral_gap(metric(g, lp))
            km, _ = spectral_gap(metric(g, lm))
            fd = (kp**2 - km**2) / (2 * h)
            rel = abs(fd + energies[e]) / abs(energies[e])
            c.expect(
                rel <= 1e-4,
                f"graph #{tested} edge {e}: fd {fd:.8f} vs -energy {-energies[e]:.8f} (rel {rel:.2e})",
            )
        tested += 1
    c.expect(tested == 50, f"only {tested} simple-gap graphs generated")
    return c


def check_a6(seed: int) -> _Check:
    c = _Check()
    rng = np.random.default_rng(seed + 6)
    bridged, _ = families.dumbbell(0.2)
    bridgeless, _ = families.mandarin(3)
    for g, bound, label in ((bridged, PI, "bridged dumbbell"), (bridgeless, 2 * PI, "bridgeless mandarin")):
        worst = math.inf
        for _ in range(500):
            lengths = families.random_lengths(rng, g.edge_count, l_min=0.01)
            k1, _ = spectral_gap(metric(g, lengths))
            worst = min(worst, k1)
        c.expect(worst >= bound - 1e-8, f"{label}: min sampled gap {worst:.9f} below {bound:.9f}")
    for g, target, label in ((bridged, PI, "dumbbell"), (bridgeless, 2 * PI, "mandarin"),
                             (families.star(3)[0], PI, "tree")):
        res = infimize_gap(g)
        c.close(res.gap, target, 1e-8, f"infimize {label}")
    return c


def check_a7(seed: int) -> _Check:
    c = _Check()
    for M, S in ((1, 1), (2, 0), (1, 2), (2, 1), (3, 0)):
        g, l = families.standarin_chain(2, M, S, leaf_length=0.11 / 2 if S else None)
        m = metric(g, l)
        k1, mult = spectral_gap(m)
        c.close(k1, 2 * PI, 1e-8, f"standarin(2,{M},{S}) gap")
        c.expect(mult == 1, f"standarin(2,{M},{S}) multiplicity {mult} != 1")
        rep = is_critical(m)
        c.expect(rep.critical, f"standarin(2,{M},{S}) not critical (spread {rep.spread:.2e})")
        pd = path_decomposition(m)
        for i, part in enumerate(pd.parts):
            c.expect(
                abs(pd.k * part.length - PI * part.zero_count) <= 1e-8,
                f"standarin(2,{M},{S}) part {i}: k L = {pd.k * part.length:.9f} vs pi mu = {PI * part.zero_count:.9f}",
            )
        used = sorted(e for part in pd.parts for e in part.edges)
        c.expect(used == list(range(g.edge_count)), f"standarin(2,{M},{S}) parts do not partition edges")
    return c


def check_a8(seed: int) -> _Check:
    c = _Check()
    rng = np.random.default_rng(seed + 8)
    thetas = [-PI + 2 * PI * (j + 1) / 12 for j in range(12)]
    n_levels = 6
    for idx in range(20):
        V = int(rng.integers(2, 4))
        E = V - 1 + int(rng.integers(0, 2))
        if E < 1:
            continue
        g = families.random_connected_graph(rng, V, E)
        lengths = families.random_lengths(rng, E, l_min=0.08)
        m = metric(g, lengths)
        v = int(rng.integers(0, g.vertex_count))
        k_max = PI * (n_levels + 3)
        rows = levels([m.with_condition(v, DeltaTheta(t)) for t in thetas], k_max, n_max=n_levels + 1)
        for i in range(len(thetas)):
            for j in range(i + 1, len(thetas)):
                lo = np.array(rows[i][: n_levels + 1])
                hi = np.array(rows[j][: n_levels + 1])
                slack = interlacing_margin(lo, hi)
                c.expect(
                    slack >= -1e-8,
                    f"graph #{idx} v={v} thetas ({thetas[i]:.3f},{thetas[j]:.3f}): slack {slack:.2e}",
                )
    return c


def check_a9(seed: int) -> _Check:
    c = _Check()
    m2 = metric(*families.flower(2))
    m3 = metric(*families.flower(3))
    glued = glue(m2, 0, m3, 0, 2.0 / 5.0)
    k1, _ = spectral_gap(glued)
    c.close(k1, 5 * PI, 1e-8, "flower(2) + flower(3) at L = 2/5")

    rng = np.random.default_rng(seed + 9)
    for idx in range(50):
        inst = _random_instances(int(rng.integers(0, 2**31)), 2, v_range=(2, 4), extra_edges=(0, 1))
        (g1, l1), (g2, l2) = inst
        ma = metric(g1, l1)
        mb = metric(g2, l2)
        k1a, _ = spectral_gap(ma)
        k1b, _ = spectral_gap(mb)
        L = k1a / (k1a + k1b)
        va = int(rng.integers(0, g1.vertex_count))
        vb = int(rng.integers(0, g2.vertex_count))
        kg, _ = spectral_gap(glue(ma, va, mb, vb, L))
        c.expect(
            kg <= k1a + k1b + 1e-8,
            f"gluing #{idx}: k1 {kg:.9f} exceeds {k1a:.9f} + {k1b:.9f}",
        )
    return c


def check_a10(seed: int) -> _Check:
    c = _Check()
    g, _ = families.star(4)
    bound = upper_bound(g)
    rng = np.random.default_rng(seed + 10)
    for i in range(10):
        init = families.random_lengths(rng, 4, l_min=0.02)
        res = maximize_gap(g, init, MaximizeOptions(seeds=0, seed=seed + i))
        c.expect(res.gap >= 2 * PI - 1e-6, f"star-4 init #{i}: reached {res.gap:.9f}")
        # no reported gap may exceed a proven bound, pi (E - El/2) and
        # pi / diameter for trees, by more than a level's float error
        c.expect(
            res.gap <= bound + LEVEL_ULPS * math.ulp(bound),
            f"star-4 init #{i}: gap {res.gap:.9f} above the bound {bound:.9f}",
        )
        diameter_bound = PI / tree_diameter(metric(g, res.lengths))
        c.expect(
            res.gap <= diameter_bound + LEVEL_ULPS * math.ulp(diameter_bound),
            f"star-4 init #{i}: gap {res.gap:.9f} above pi / diameter {diameter_bound:.9f}",
        )
    g, _ = families.stower(1, 1)
    init = families.random_lengths(rng, 2, l_min=0.05)
    res = maximize_gap(g, init, MaximizeOptions(seeds=2, seed=seed))
    c.expect(res.gap >= 2 * PI - 1e-6, f"stower(1,1): reached {res.gap:.9f}")
    c.expect(
        res.lengths.zero_edges() == [1],
        f"stower(1,1): leaf not contracted (lengths {res.lengths.values.tolist()})",
    )
    return c


def check_a11(seed: int) -> _Check:
    c = _Check()
    rng = np.random.default_rng(seed + 11)
    done = 0
    attempts = 0
    while done < 200 and attempts < 2000:
        attempts += 1
        kind = int(rng.integers(0, 3))
        if kind == 0:
            g, _ = families.stower(int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        elif kind == 1:
            g = families.random_tree(rng, int(rng.integers(4, 6)))
        else:
            g, _ = families.stower(int(rng.integers(2, 4)), int(rng.integers(0, 2)))
        if g.edge_count < 3:
            continue
        groups = symmetrizable_groups(g)
        if not groups:
            continue
        v, _kind, group = groups[int(rng.integers(0, len(groups)))]
        pair = tuple(rng.choice(group, size=2, replace=False).tolist())
        lengths = families.random_lengths(rng, g.edge_count, l_min=0.02)
        m = metric(g, lengths)
        before, _ = spectral_gap(m)
        lv = symmetrize(m, v, pair)
        after, _ = spectral_gap(metric(g, lv))
        c.expect(
            after >= before - 1e-10,
            f"attempt {attempts}: symmetrize pair {pair} dropped gap {before:.9f} -> {after:.9f}",
        )
        done += 1
    c.expect(done == 200, f"only {done} symmetrization instances generated")
    return c


def check_a12(seed: int) -> _Check:
    c = _Check()
    for idx, (g, lengths) in enumerate(_random_instances(seed + 12, 60)):
        try:
            bound = upper_bound(g)
        except NotApplicableError:
            continue
        k1, _ = spectral_gap(metric(g, lengths))
        c.expect(k1 <= bound + LEVEL_ULPS * math.ulp(bound), f"instance #{idx}: k1 {k1!r} above bound {bound!r}")
    # near the maximizers, whose commensurate lengths put poles within 1e-10
    # of the gap: each length scaled by 1 + s N(0, 1), renormalized
    rng = np.random.default_rng(seed + 24)
    for name, params in (("flower", (3,)), ("mandarin", (3,)), ("mandarin", (4,)), ("stower", (2, 1)), ("star", (4,))):
        g, base = getattr(families, name)(*params)
        bound = upper_bound(g)
        for s in (1e-12, 1e-11, 1e-10, 1e-9):
            lv = base.values * (1.0 + s * rng.standard_normal(g.edge_count))
            k1, _ = spectral_gap(metric(g, lv / lv.sum()))
            c.expect(k1 <= bound + LEVEL_ULPS * math.ulp(bound),
                     f"{name}{params} at s = {s}: k1 {k1!r} above bound {bound!r}")
    g, l = families.stower(3, 2)
    k1, _ = spectral_gap(metric(g, l))
    c.close(k1, upper_bound(g), 1e-8, "stower(3,2) attains the bound")
    return c


def check_a13(seed: int) -> _Check:
    c = _Check()
    rng = np.random.default_rng(seed + 13)
    for idx in range(200):
        V = int(rng.integers(3, 8))
        g = families.random_tree(rng, V)
        lengths = families.random_lengths(rng, g.edge_count, l_min=0.02)
        m = metric(g, lengths)
        d = tree_diameter(m)
        n_leaves = len(g.leaf_vertices())
        c.expect(
            d >= 2.0 / n_leaves - 1e-12,
            f"tree #{idx}: diameter {d:.9f} below 2/{n_leaves}",
        )
        k1, _ = spectral_gap(m)
        c.expect(
            k1 <= PI / d + 1e-8,
            f"tree #{idx}: k1 {k1:.9f} above pi/diameter {PI / d:.9f}",
        )
    return c


def _stower11_secular(k: float, leaf: float) -> float:
    return 2 * math.cos(k * leaf) * math.sin(k * (1 - leaf) / 2) + math.sin(k * leaf) * math.cos(
        k * (1 - leaf) / 2
    )


def _function_roots(fn, k_lo: float, k_hi: float, n_grid: int = 20000) -> list[float]:
    ks = np.linspace(k_lo, k_hi, n_grid)
    vals = np.array([fn(k) for k in ks])
    roots = []
    for i in range(n_grid - 1):
        if vals[i] == 0.0:
            roots.append(float(ks[i]))
        elif vals[i] * vals[i + 1] < 0:
            a, b = float(ks[i]), float(ks[i + 1])
            fa = fn(a)
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = fn(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return roots


def check_a14(seed: int) -> _Check:
    c = _Check()
    for leaf in (0.1, 0.2, 1.0 / 3.0):
        g = families.stower(1, 1)[0]
        lengths = LengthVector([1.0 - leaf, leaf])
        m = metric(g, lengths)
        spec = eigenvalues(m, 12.0)
        computed = [p.k for p in spec.eigenpairs if p.k > 1e-9]
        f_roots = _function_roots(lambda k: _stower11_secular(k, leaf), 1e-3, 12.0)
        for r in f_roots:
            c.expect(
                any(abs(r - k) <= 1e-8 for k in computed),
                f"leaf {leaf:.4f}: secular-function root {r:.9f} missing from the spectrum",
            )
        # below 2 pi the spectra agree exactly (the sine branch starts higher)
        for k in computed:
            if k <= 2 * PI - 1e-6:
                c.expect(
                    any(abs(r - k) <= 1e-8 for r in f_roots),
                    f"leaf {leaf:.4f}: eigenvalue {k:.9f} below 2 pi is not a secular-function root",
                )
        k1 = computed[0]
        c.expect(k1 < 2 * PI, f"leaf {leaf:.4f}: k1 {k1:.9f} not below 2 pi")
    return c


# ---------------------------------------------------------------------------
# composite vertex formed by shrinking an edge (contraction limit)
# ---------------------------------------------------------------------------


def _composite_reflection(k: float, l_e: float, d1: int, d2: int) -> complex:
    """Reflection amplitude at a composite vertex holding an edge of length l_e.

    Trajectory sum through an edge joining Neumann vertices of degrees d1,
    d2; converges to the merged Neumann entry as l_e -> 0.
    """
    denom = np.exp(-2j * k * l_e) * d1 * d2 - (2 - d1) * (2 - d2)
    return -1.0 + (2.0 / d1) * (1.0 + (4.0 - 2.0 * d2) / denom)


def _composite_transmission(k: float, l_e: float, d1: int, d2: int) -> complex:
    denom = np.exp(-1j * k * l_e) * d1 * d2 - np.exp(1j * k * l_e) * (2 - d1) * (2 - d2)
    return 4.0 / denom


def _merged_neumann_entry(d1: int, d2: int, diagonal: bool) -> float:
    d = d1 + d2 - 2
    return 2.0 / d - (1.0 if diagonal else 0.0)


def check_a15(seed: int) -> _Check:
    c = _Check()
    eight, _ = spectral_gap(metric(*families.flower(2)))
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        k1, _ = spectral_gap(metric(*families.dumbbell(eps)))
        gaps.append(abs(k1 - eight))
    c.expect(gaps[0] > gaps[1] > gaps[2], f"dumbbell gaps to figure-eight not decreasing: {gaps}")
    c.expect(gaps[2] <= 0.05, f"dumbbell at eps=1e-4 differs by {gaps[2]:.4f} > 0.05")
    for d1, d2 in ((3, 3), (3, 4), (2, 5)):
        for k in (1.0, 2.7):
            r = _composite_reflection(k, 1e-8, d1, d2)
            t = _composite_transmission(k, 1e-8, d1, d2)
            c.expect(
                abs(r - _merged_neumann_entry(d1, d2, diagonal=True)) <= 1e-6,
                f"reflection (d1={d1}, d2={d2}, k={k}) off by {abs(r - _merged_neumann_entry(d1, d2, True)):.2e}",
            )
            c.expect(
                abs(t - _merged_neumann_entry(d1, d2, diagonal=False)) <= 1e-6,
                f"transmission (d1={d1}, d2={d2}, k={k}) off by {abs(t - _merged_neumann_entry(d1, d2, False)):.2e}",
            )
    return c


def check_a16(seed: int) -> _Check:
    c = _Check()
    instances = _random_instances(seed + 16, 40)
    instances.append((families.stower(1, 1)[0], LengthVector([0.8, 0.2])))
    instances.append(families.standarin_chain(2, 1, 1))
    counted = 0
    for idx, (g, lengths) in enumerate(instances):
        m = metric(g, lengths)
        try:
            n = nodal_count(m)
        except MultiplicityError:
            continue
        counted += 1
        c.expect(n == 2, f"instance #{idx}: {n} nodal domains")
    c.expect(counted >= 20, f"only {counted} simple-gap instances in the corpus")
    return c


CRITERIA: dict[str, tuple[str, object]] = {
    "A1": ("equilateral stars: gap pi E / 2, multiplicity E - 1", partial(_catalog_check, "star")),
    "A2": ("equilateral flowers: gap pi E", partial(_catalog_check, "flower")),
    "A3": ("equilateral stowers incl. small cases", partial(_catalog_check, "stower")),
    "A4": ("equilateral mandarins: gap pi E, multiplicity E", check_a4),
    "A5": ("gap gradient matches central finite differences", check_a5),
    "A6": ("infimum bounds pi / 2 pi and exact infimizers", check_a6),
    "A7": ("standarin chains: gap 2 pi, critical, path decomposition", check_a7),
    "A8": ("delta-sweep eigenvalue interlacing", check_a8),
    "A9": ("gluing equality and subadditivity", check_a9),
    "A10": ("optimizer reaches star-4 and stower(1,1) suprema", check_a10),
    "A11": ("symmetrization never lowers the gap", check_a11),
    "A12": ("global upper bound pi (E - El/2)", check_a12),
    "A13": ("tree diameter bounds", check_a13),
    "A14": ("lasso secular function roots and gap below 2 pi", check_a14),
    "A15": ("contraction continuity and composite scattering limits", check_a15),
    "A16": ("two nodal domains for simple gaps", check_a16),
    "CAT": ("closed-form catalog gaps reproduced by the solver", partial(_catalog_check, None)),
}

SUITES: dict[str, list[str]] = {
    "all": list(CRITERIA),
    "catalog": ["CAT"],
    "bounds": ["A6", "A12", "A13"],
    "optimize": ["A10", "A11"],
    "dispersion": ["A8", "A9"],
}


def run_criterion(name: str, seed: int = 0) -> CriterionResult:
    if name not in CRITERIA:
        raise InvalidInputError(f"unknown criterion {name}")
    description, fn = CRITERIA[name]
    start = time.perf_counter()
    check = fn(seed)
    elapsed = time.perf_counter() - start
    passed = not check.failures
    summary = description if passed else f"{description}: {len(check.failures)} failure(s)"
    return CriterionResult(name, passed, summary, check.failures[:20], elapsed)


def run_suite(suite: str = "all", seed: int = 0) -> list[CriterionResult]:
    if suite in SUITES:
        names = SUITES[suite]
    elif suite in CRITERIA:
        names = [suite]
    else:
        raise InvalidInputError(f"unknown suite {suite}; choose from {sorted(SUITES)} or a criterion id")
    return [run_criterion(name, seed=seed) for name in names]
