"""Delta-coupling sweeps at a marked vertex: dispersion, SGP, flat bands, gluing.

Sweeping the delta parameter theta in (-pi, pi] at one vertex moves each
eigenvalue monotonically and interlaces consecutive levels; negative
theta (attractive coupling) pulls one eigenvalue below zero, reported as
a negative k.  The union of all sweeps organizes into a strictly
increasing dispersion branch K(theta) on (-pi, 3pi] plus theta-independent
flat bands whose eigenfunctions vanish at the marked vertex.

Multiplicities here are differences of the eigenvalue count around a
level (`spectral._around`), or follow from them by the count identity
below; no level is matched to another by a tolerance.

The positive levels of all rows of a sweep come from one vertex
function.  A row differs from the coupling theta = 0 at v only in the
diagonal entry alpha = tan(theta/2) of v in the count matrix K0(k) of
`spectral`, a rank-one change (Berkolaiko-Kuchment, Introduction to
Quantum Graphs, 2013, ch. 3).  Bordering K0 by e_v and -1/alpha and
taking the inertia of both Schur complements (Haynsworth's inertia
additivity: E. V. Haynsworth, Linear Algebra Appl. 1, 1968) counts the
row from one factorization of K0:

    N_alpha(k) = N_0(k) + [1/alpha + g(k) > 0] - [alpha > 0],   g(k) = (K0(k)^-1)_vv,

with 1/alpha = 0 at theta = pi, where v's row of K goes.  g is the vv
entry of the inverse vertex Dirichlet-to-Neumann matrix.  It rises with
k between its poles, which are the theta = 0 levels with an
eigenfunction that does not vanish at v; g falls across a theta = 0
level only where it has a pole there, and that is how a pole is told
from a flat band.  So on each branch between two poles atan g rises
from -pi/2 to pi/2, and every row has exactly one level on it, where
phi = atan g + atan(1/alpha) = 0; the first branch starts at the search
floor and the last ends at the k_max + d of `_level_search`, each with g
taken there.  The rest of a theta = 0 level, its eigenfunctions that
vanish at v, is a flat band of every row: the level's multiplicity, less
one at a pole.  A dispersion curve removes its flat bands from every row
within the count's merge width.

`dispersion_curve` searches the theta = 0 row with the count, and the
negative branch of every row with its own search, all in one drive.  It
then finds the roots of all rows on all branches in lockstep by Newton's
method on phi (`_branch_roots`), each step one stacked solve of
K0(k) x = e_v.  Every row confirms its levels with its own counts: each
level's multiplicity is the row's count difference around it, at the
points of `spectral._around`, and the count at k_max + d must equal the
levels found.  The levels fix every point of those counts in advance,
so each row takes them as one batch, and the driver stacks the batches
of all rows of one matrix shape into one eigvalsh.  A row whose counts
disagree raises RuntimeError, an internal error, instead of being
searched again.  A row's counts, trig and hyperbolic, are the theta = 0
counts with v's coupling changed (`_Count.with_vertex`); no row builds a
graph.  The rows equal `spectral.levels` of each row within 1e-12
relative (absolute below k = 1), with equal multiplicities.

The spectral gap parameter theta_SG solves K(theta_SG) = k1(Neumann); it
lies in [0, 2pi], equals at most pi exactly when imposing Dirichlet at
the vertex keeps the gap (Dirichlet criterion), and controls when gluing
two graphs at marked vertices achieves the subadditive bound
k1(glued) = k1(G1) + k1(G2).  The count identity gives it in closed form
from g at k1 (`spectral_gap_parameter`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph import DIRICHLET, NEUMANN, DeltaTheta, MetricGraph, _integer, _quotient
from .spectral import (
    _level_search,
    _negative_search,
    _HyperbolicCount,
    _Search,
    _TrigCount,
    _drive,
    _MULT_PROBE,
    _merge_width,
    _require_k,
    spectral_gap,
)

_CLEAR = 1e-12   # atan g this far from a root's target puts a sample on one side of it
_MAX_STEPS = 128  # a root still open after this many steps is left to its row's counts

STRONG_TOL = 1e-6
GLUE_K_TOL = 1e-8  # the glued gap meets the bound k1(G1) + k1(G2) within this


def _with_theta(m: MetricGraph, v: int, theta: float) -> MetricGraph:
    return m.with_condition(v, DeltaTheta(theta))


# ---------------------------------------------------------------------------
# dispersion curve over the theta grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatBand:
    k: float
    multiplicity: int  # generic multiplicity away from branch crossings


@dataclass(frozen=True)
class DispersionCurve:
    vertex: int
    thetas: np.ndarray                     # grid in (-pi, pi]
    levels: tuple[tuple[float, ...], ...]  # per-theta eigenvalues, negatives included
    flat_bands: tuple[FlatBand, ...]
    branch_thetas: np.ndarray              # theta and theta + 2 pi grid points
    branch_values: np.ndarray              # K on those points

    def level_array(self, n_levels: int) -> np.ndarray:
        rows = []
        for lv in self.levels:
            if len(lv) < n_levels:
                raise InvalidInputError("k_max too small for the requested level count")
            rows.append(lv[:n_levels])
        return np.array(rows)

    def interlacing_slack(self, n_levels: int) -> float:
        """min over grid pairs of `interlacing_margin`; >= -tol passes."""
        arr = self.level_array(n_levels + 1)
        pairs = itertools.combinations(range(arr.shape[0]), 2)  # thetas[i] < thetas[j]
        return min((interlacing_margin(arr[i], arr[j]) for i, j in pairs), default=math.inf)


def interlacing_margin(lo: np.ndarray, hi: np.ndarray) -> float:
    """The smaller of the two interlacing margins min_n (hi_n - lo_n) and
    min_n (lo_{n+1} - hi_n) of the first n + 1 levels at two couplings,
    lo at the smaller theta; interlacing holds when it is >= -tol."""
    return min(float((hi[:-1] - lo[:-1]).min()), float((lo[1:] - hi[:-1]).min()))


def _remove_flats(levels: list[float], flats: list[FlatBand]) -> list[float]:
    out = list(levels)
    for fb in flats:
        removed = 0
        i = 0
        while i < len(out) and removed < fb.multiplicity:
            if abs(out[i] - fb.k) <= _merge_width(fb.k):
                out.pop(i)
                removed += 1
            else:
                i += 1
    return out


def _vertex_function(count: _TrigCount, row: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(k) = (K(k)^-1)_vv and g'(k) = -x^T K'(k) x, x = K(k)^-1 e_v, at every
    k of ks, with K the count's whole matrix (`_TrigCount.matrices`) and v
    its row `row`: one stacked solve."""
    b, nv = ks.size, count.alpha.size
    E = count.lengths.size
    K = _TrigCount.matrices(count.coupling[None], np.broadcast_to(count.alpha, (b, nv)), count.lengths, ks)
    unit = np.zeros((b, nv + 2 * E, 1))
    unit[:, row] = 1.0
    try:
        x = np.linalg.solve(K, unit)[:, :, 0]
    except np.linalg.LinAlgError:   # singular to working precision, within ulps of a pole of g
        return _vertex_function(count, row, np.nextafter(ks, np.inf))
    # K' has the vertex-edge block C d/dk [sqrt(k/2) (sin, cos)(k l/2)] and the
    # edge diagonal +-(l/2) cos(k l)
    root = np.sqrt(0.5 * ks)[:, None]
    half = (0.5 * ks)[:, None] * count.lengths
    s, c = np.sin(half), np.cos(half)
    dl = 0.5 * count.lengths * root
    dtrig = np.concatenate([s / (4.0 * root) + dl * c, c / (4.0 * root) - dl * s], axis=1)
    xe = x[:, nv:]
    edge = 0.5 * count.lengths * np.cos(2.0 * half) * (xe[:, :E] ** 2 - xe[:, E:] ** 2)
    return x[:, row], -2.0 * ((x[:, :nv] @ count.coupling) * dtrig * xe).sum(axis=1) - edge.sum(axis=1)


def _vertex_samples(count: _TrigCount, row: int, at: list[float],
                    ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g of `_vertex_function` at the points of at, at k -+ d around every
    theta = 0 level k of ks (d the merge width), and whether g has a pole at
    k, from one stacked solve: g rises between its poles, so it falls across
    a level, g(k - d) > g(k + d), only at a pole."""
    width = np.array([_merge_width(k) for k in ks])
    values = _vertex_function(count, row, np.concatenate([at, ks - width, ks + width]))[0]
    n = len(at)
    below, above = values[n : n + ks.size], values[n + ks.size :]
    return values[:n], below, above, below > above


def _branch_roots(g, branch: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """The root of phi(k) = arg((1 + i g(k)) w) in every bracket (a, b), where
    phi rises from fa <= 0 to fb >= 0 and (a, b) lies on the given branch of g.

    phi is atan g + arg w, taken as one argument so that it keeps its
    relative accuracy near the root where the two terms cancel.  The roots
    are found in lockstep, each step one call g(ks), which gives g and g'
    at the current point of every root still open.  Every root starts at
    the secant point of its bracket.  A step's samples narrow the bracket
    of every root on their branch, where they lie clearly on one side of
    it: atan g is the same function for all of them.  Then each point
    takes its Newton step on phi, phi' = g' / (1 + g^2), where that stays
    in the narrowed bracket and at least halves the move before (as in
    Numerical Recipes' rtsafe); else the secant point of the bracket, or
    its midpoint after a secant point.  Near a pole of g too weak for
    `_sweep_levels` to see, Newton's steps would shrink without end.  A
    root is found when its Newton step is within half the tolerance
    4 eps k of `spectral._illinois`, or has stopped shrinking within 64
    times it, at the noise of g; or when its bracket is narrower than the
    tolerance.  A root still open after _MAX_STEPS steps keeps its point,
    and its row's counts judge it.
    """
    ends = a.copy(), b.copy()
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    target = -np.angle(w)   # where atan g meets each root
    k = (a * fb - b * fa) / (fb - fa)
    last = np.full(k.size, np.inf)   # the size of the move that led to k
    bisect = np.zeros(k.size, dtype=bool)   # whether the next fallback bisects
    tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    # a start on an end, where fa or fb is 0, is the root: g is not taken there
    i = np.flatnonzero((a < k) & (k < b))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            if not i.size:
                break
            ki, bi = k[i], branch[i]
            gk, dg = g(ki)
            f = np.angle((1.0 + 1j * gk) * w[i])
            a[i], fa[i] = np.where(f < 0.0, ki, a[i]), np.where(f < 0.0, f, fa[i])
            b[i], fb[i] = np.where(f > 0.0, ki, b[i]), np.where(f > 0.0, f, fb[i])
            # the samples clear of their branch's ends, ascending by (branch, atan g),
            # so by k too; |atan g| and |target| are below 2
            clear = np.flatnonzero((ki - ends[0][i] > _MULT_PROBE * ki) & (ends[1][i] - ki > _MULT_PROBE * ki))
            if clear.size:
                phi = np.arctan(gk[clear])
                order = np.lexsort((phi, bi[clear]))
                sk, sb, sphi = ki[clear][order], bi[clear][order], phi[order]
                above = np.searchsorted(4.0 * sb + sphi, 4.0 * bi + target[i])
                below = np.maximum(above - 1, 0)
                above = np.minimum(above, sk.size - 1)
                gap = sphi[below] - target[i]
                up = (sb[below] == bi) & (gap < -_CLEAR) & (sk[below] > a[i])
                a[i], fa[i] = np.where(up, sk[below], a[i]), np.where(up, gap, fa[i])
                gap = sphi[above] - target[i]
                down = (sb[above] == bi) & (gap > _CLEAR) & (sk[above] < b[i])
                b[i], fb[i] = np.where(down, sk[above], b[i]), np.where(down, gap, fb[i])

            step = f * (1.0 + gk * gk) / dg
            new = ki - step
            size = np.abs(step)
            found = (size <= 0.5 * tol[i]) | ((size >= 0.5 * last[i]) & (size <= 64.0 * tol[i]))
            narrow = b[i] - a[i] <= tol[i]
            # Newton where it stays in the bracket and at least halves the move
            # before (Numerical Recipes' rtsafe); else the secant point of the
            # bracket, or its midpoint after a secant point
            newton = (a[i] < new) & (new < b[i]) & (size <= 0.5 * last[i])
            secant = (a[i] * fb[i] - b[i] * fa[i]) / (fb[i] - fa[i])
            fallback = np.where(bisect[i], 0.5 * (a[i] + b[i]), secant)
            k[i] = np.where(f == 0.0, ki, np.where(found, np.clip(new, a[i], b[i]),
                            np.where(narrow, 0.5 * (a[i] + b[i]), np.where(newton, new, fallback))))
            bisect[i] = ~newton & ~bisect[i]
            last[i] = np.abs(k[i] - ki)
            i = i[~(found | narrow | (f == 0.0))]
    return k


def _row_search(count: _TrigCount, theta: float, candidates: list[tuple[float, int]],
                floor_count: int, hi_k: float) -> _Search:
    """The positive levels of one sweep row, with multiplicity, from its
    candidates (k, multiplicity) ascending, and the counts that confirm them.

    Candidates closer than the merge width are one level, as in
    `_level_search`.  Each level's multiplicity is the row's own count
    difference around it, as `_around` takes it: the count just below the
    first level, then the count just above each level, which is the count
    below the next.  The count at hi_k must equal the last one.  These
    points are fixed before any count, and the row takes them as one
    batch.  A level the candidates miss breaks one of the counts, and the
    row raises RuntimeError instead of being searched again.
    """
    rs, mults, ks = [], [], []
    i = 0
    while i < len(candidates):
        r = candidates[i][0]
        top = count.off_pole(r + _merge_width(r), 1.0)   # where `_around` takes its upper count
        j, mult = i, 0
        while j < len(candidates) and candidates[j][0] < top:
            mult += candidates[j][1]
            j += 1
        rs.append(r)
        mults.append(mult)
        ks.append(top)
        i = j
    if rs:
        ks.insert(0, count.off_pole(rs[0] - _merge_width(rs[0]), -1.0))
    ks.append(hi_k)
    ks = np.array(ks)
    counts = count.counts(ks, (yield count, ks))
    expected = np.cumsum([floor_count] + mults)   # below each level, and above the last
    wrong = np.flatnonzero(counts[:-1] != expected) if rs else []
    if len(wrong):
        n = max(int(wrong[0]) - 1, 0)   # the first level with a wrong count around it
        raise RuntimeError(f"theta = {theta}: counts {counts[n]}, {counts[n + 1]} around the level "
                           f"{rs[n]} of the vertex function, expected {expected[n]}, {expected[n + 1]}")
    if counts[-1] != expected[-1]:
        raise RuntimeError(f"theta = {theta}: count {counts[-1]} at k = {hi_k}, but {expected[-1]} levels found")
    return [r for r, mult in zip(rs, mults) for _ in range(mult)]


def _sweep_levels(m: MetricGraph, v: int, thetas: np.ndarray,
                  k_max: float) -> tuple[list[list[float]], list[tuple[float, int]]]:
    """Every row's levels up to k_max, as `levels` gives them, and the flat
    bands up to k_max as (k, multiplicity) pairs (module docstring)."""
    m0 = _with_theta(m, v, 0.0)
    count = _TrigCount(m0)
    v_row = _row_of(m0, v)
    # a row's counts are the theta = 0 ones with the coupling at v changed
    alphas = [DeltaTheta(float(t)).alpha for t in thetas]
    hyperbolic = _HyperbolicCount(m0)
    rows = [hyperbolic.with_vertex(v_row, alpha) for alpha in alphas]
    floor = count.floor_sample()
    zero, *negative = _drive([_level_search(count, floor, k_max)] + [_negative_search(row) for row in rows])
    hi_k = count.off_pole(k_max + _merge_width(k_max), 1.0)

    def g(ks):
        return _vertex_function(count, v_row, ks)

    ks = np.array([lvl.k for lvl in zero])
    (at_floor, at_hi), _, _, pole = _vertex_samples(count, v_row, [count.floor, hi_k], ks)
    flats = [(lvl.k, lvl.multiplicity - int(p)) for lvl, p in zip(zero, pole) if lvl.multiplicity > p]
    poles = ks[pole]

    # branch n runs from ends[n] to ends[n + 1]: between two poles atan g rises
    # from -pi/2 to pi/2, and every row has one root there; w carries the
    # coupling, phi = arg((1 + i g) w) = atan g + atan(1 / alpha)
    moving = [j for j, t in enumerate(thetas) if t != 0.0]
    w = np.array([complex(abs(math.sin(0.5 * t)), math.copysign(math.cos(0.5 * t), t)) for t in thetas[moving]])
    ends = np.concatenate([[count.floor], poles, [hi_k]])
    branch = np.arange(poles.size + 1)
    fa = np.repeat(np.angle(w)[:, None] - 0.5 * math.pi, branch.size, axis=1)
    fb = fa + math.pi
    fa[:, 0] = np.angle((1.0 + 1j * at_floor) * w)
    fb[:, -1] = np.angle((1.0 + 1j * at_hi) * w)
    # a root on a branch between two poles is there for every row; rounding
    # may put it on a pole, where fa or fb is 0
    live = ((fa < 0.0) | (branch > 0)) & ((fb > 0.0) | (branch < poles.size))
    roots = _branch_roots(g, np.broadcast_to(branch, fa.shape)[live], np.broadcast_to(ends[:-1], fa.shape)[live],
                          np.broadcast_to(ends[1:], fa.shape)[live], fa[live], fb[live],
                          np.broadcast_to(w[:, None], fa.shape)[live])
    per_row = np.split(roots, np.cumsum(live.sum(axis=1))[:-1])

    searches, unresolved = [], []
    for n, (j, r) in enumerate(zip(moving, per_row)):
        theta = float(thetas[j])
        floor_count = floor.count + int(fa[n, 0] > 0.0) - int(theta > 0.0)
        # levels below the row's floor beyond its n_- + n_0 lie in (0, floor]: `levels` reports them there
        unresolved.append([count.floor] * (floor_count - sum(rows[j].zero_modes)))
        candidates = sorted([(float(k), 1) for k in r] + flats)
        searches.append(_row_search(count.with_vertex(v_row, alphas[j]), theta, candidates, floor_count, hi_k))
    positive = {j: low + found for j, low, found in zip(moving, unresolved, _drive(searches))}
    zero_levels = [lvl.k for lvl in zero for _ in range(lvl.multiplicity)]
    out = []
    for j, found in enumerate(negative):
        below = [p.k for p in found for _ in range(p.multiplicity)]
        out.append(below + [0.0] * rows[j].zero_modes[1] + positive.get(j, zero_levels))
    return out, flats


def _row_of(m: MetricGraph, v: int) -> int:
    """v's row among the non-Dirichlet vertices of a count of m."""
    return int(np.count_nonzero(np.isfinite(m.alpha[:v])))


def dispersion_curve(
    m: MetricGraph,
    v: int,
    grid_size: int = 64,
    k_max: float | None = None,
    n_levels: int = 6,
) -> DispersionCurve:
    """Sample the theta sweep and extract flat bands and the K branch.

    The branch glues the lowest non-flat level on (-pi, pi] with the
    second non-flat level shifted to (pi, 3pi]; flat bands are removed at
    their generic multiplicity so the branch stays strictly increasing
    through crossings.  The rows come from one vertex function (module
    docstring); RuntimeError, an internal error, means a row's own counts
    disagree with the levels found.
    """
    if _integer(grid_size, "grid_size", InvalidInputError) < 4:
        raise InvalidInputError("grid_size too small")
    if _integer(n_levels, "n_levels", InvalidInputError) < 1:
        raise InvalidInputError(f"n_levels must be at least 1, not {n_levels}")
    if k_max is None:
        k_max = math.pi * (n_levels + 3) / m.total_length
    _require_k("k_max", k_max)
    thetas = np.array([-math.pi + 2 * math.pi * (j + 1) / grid_size for j in range(grid_size)])
    thetas[-1] = math.pi
    level_lists, flat_pairs = _sweep_levels(m, v, thetas, k_max)
    flats = [FlatBand(k, mult) for k, mult in flat_pairs if 1e-9 < k <= k_max - math.pi / m.total_length]
    nonflat = [_remove_flats(lv, flats) for lv in level_lists]

    branch_th = [float(t) for t, lv in zip(thetas, nonflat) if len(lv) >= 1]
    branch_val = [lv[0] for lv in nonflat if len(lv) >= 1]
    branch_th += [float(t) + 2 * math.pi for t, lv in zip(thetas, nonflat) if len(lv) >= 2]
    branch_val += [lv[1] for lv in nonflat if len(lv) >= 2]

    return DispersionCurve(
        vertex=v,
        thetas=thetas,
        levels=tuple(tuple(lv) for lv in level_lists),
        flat_bands=tuple(flats),
        branch_thetas=np.array(branch_th),
        branch_values=np.array(branch_val),
    )


# ---------------------------------------------------------------------------
# spectral gap parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgpReport:
    vertex: int
    theta_sg: float
    classification: str        # "obeys" | "strong" | "violates"
    k1: float                  # Neumann spectral gap
    k1_multiplicity: int
    dirichlet_k0: float        # gap after imposing Dirichlet at the vertex
    dirichlet_multiplicity: int
    k1_is_flat_band: bool


def spectral_gap_parameter(m: MetricGraph, v: int) -> SgpReport:
    """theta_SG at v in closed form from the vertex function g of m.

    Just below the gap k1 the count of m is 1, so the count identity (module
    docstring) puts the branch K, the lowest level on (0, pi] and the second
    at theta - 2pi past pi, below k1 exactly when cot(theta/2) + g(k1-) > 0.
    cot(theta/2) falls with theta on both, so theta_SG = 2 atan2(1, -g(k1-)):
    in (0, pi] where g(k1-) <= 0, the Dirichlet criterion, and in (pi, 2pi)
    otherwise.  g(k1-) is taken 1e-10 max(1, k1) below k1, clear of the
    solver noise (~1e-14 relative) yet within the strong-classification
    window for flat dispersion slopes.  k1 is a flat band when its
    multiplicity exceeds the one level a pole of g at k1 moves; with
    Dirichlet at v (1/alpha = 0) k1's multiplicity gains
    [g(k1 + d) > 0] - [g(k1 - d) > 0], d the merge width.
    RuntimeError, an internal error, means that the Dirichlet gap's own
    search disagrees with the sign of g(k1-).
    """
    if not m.is_neumann_graph():
        raise InvalidInputError("spectral gap parameter is defined for Neumann graphs")
    m_dir = _with_theta(m, v, math.pi)
    k1, k1_mult = spectral_gap(m)
    dirichlet_k0 = spectral_gap(m_dir)[0]
    tol_k = 1e-10 * max(1.0, k1)
    (g_gap,), below, above, pole = _vertex_samples(_TrigCount(m), _row_of(m, v), [k1 - tol_k], np.array([k1]))
    dirichlet_holds = dirichlet_k0 >= k1 - tol_k
    if dirichlet_holds != (g_gap <= 0.0):
        raise RuntimeError(f"Dirichlet gap {dirichlet_k0} at vertex {v} against k1 = {k1}, "
                           f"but the vertex function is {g_gap} there")
    theta_sg = 2.0 * math.atan2(1.0, -g_gap)
    dir_mult = k1_mult + int(above[0] > 0.0) - int(below[0] > 0.0) if dirichlet_holds else 0
    if theta_sg > math.pi + STRONG_TOL:
        classification = "violates"
    elif abs(theta_sg - math.pi) <= STRONG_TOL and dir_mult > k1_mult:
        classification = "strong"
    else:
        classification = "obeys"

    return SgpReport(
        vertex=v,
        theta_sg=theta_sg,
        classification=classification,
        k1=k1,
        k1_multiplicity=k1_mult,
        dirichlet_k0=dirichlet_k0,
        dirichlet_multiplicity=dir_mult,
        k1_is_flat_band=k1_mult > int(pole[0]),
    )


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def glue(m1: MetricGraph, v1: int, m2: MetricGraph, v2: int, L: float) -> MetricGraph:
    """Scale m1 by L and m2 by 1-L, identify v1 with v2, Neumann at the joint.

    Both inputs must have total length one; so does the result.
    """
    if not 0.0 <= L <= 1.0:
        raise InvalidInputError("gluing parameter L must lie in [0, 1]")
    v1, v2 = (_integer(v, "a vertex id", InvalidInputError) for v in (v1, v2))
    for m, v in ((m1, v1), (m2, v2)):
        if abs(m.total_length - 1.0) > 1e-9:
            raise InvalidInputError("gluing expects total length one on both graphs")
        if not 0 <= v < m.graph.vertex_count:
            raise InvalidInputError(f"no vertex {v} in a graph with {m.graph.vertex_count} vertices")
    if L == 0.0:
        return m2
    if L == 1.0:
        return m1
    # m1 keeps its vertex ids, m2's follow them; then v2 is merged into v1
    V1 = m1.graph.vertex_count
    edges = list(m1.graph.edges) + [(u + V1, w + V1) for u, w in m2.graph.edges]
    lengths = np.concatenate([m1.lengths * L, m2.lengths * (1.0 - L)])
    return _merged(edges, lengths, m1.conditions + m2.conditions, v1, V1 + v2, NEUMANN)


def identify_vertices(m: MetricGraph, v1: int, v2: int) -> MetricGraph:
    """Merge v2 into v1; delta coefficients add, so opposite ones give Neumann."""
    v1, v2 = (_integer(v, "a vertex id", InvalidInputError) for v in (v1, v2))
    for v in (v1, v2):
        if not 0 <= v < m.graph.vertex_count:
            raise InvalidInputError(f"no vertex {v} in a graph with {m.graph.vertex_count} vertices")
    if v1 == v2:
        return m
    a1, a2 = m.alpha[[v1, v2]].tolist()
    if math.isinf(a1) or math.isinf(a2):
        merged = DIRICHLET
    else:
        total = a1 + a2
        merged = NEUMANN if total == 0.0 else DeltaTheta(2.0 * math.atan(total))
    return _merged(m.graph.edges, m.lengths, m.conditions, v1, v2, merged)


def _merged(edges, lengths, conditions, v1: int, v2: int, joint: DeltaTheta) -> MetricGraph:
    """The metric graph on these edges with vertex v2 merged into v1, which
    takes the condition joint; the other vertices keep theirs."""
    vertex_map = [w - (w > v2) for w in range(len(conditions))]
    vertex_map[v2] = vertex_map[v1]
    graph, _ = _quotient(edges, vertex_map, [True] * len(edges))
    conds = [NEUMANN] * graph.vertex_count
    for w, cond in enumerate(conditions):
        conds[vertex_map[w]] = cond
    conds[vertex_map[v1]] = joint
    return MetricGraph(graph, lengths, conds)


@dataclass(frozen=True)
class GluingReport:
    k1_parts: tuple[float, float]
    theta_sg: tuple[float, float]
    optimal_L: float
    k1_glued: float
    glued_multiplicity: int
    subadditive: bool
    equality: bool
    sgp_condition: bool          # theta1 + theta2 <= 2 pi
    consistent: bool             # equality matches the SGP condition
    parts_flat: tuple[bool, bool]


def gluing_bound_check(m1: MetricGraph, v1: int, m2: MetricGraph, v2: int) -> GluingReport:
    """Evaluate the gluing at the optimal length split and test the bound.

    Checks k1(glued) <= k1(G1) + k1(G2), with equality exactly when
    theta_SG(G1) + theta_SG(G2) <= 2 pi, and the necessity consequences
    (flat-band membership of the part gaps, non-simple glued gap).
    """
    rep1 = spectral_gap_parameter(m1, v1)
    rep2 = spectral_gap_parameter(m2, v2)
    k1a, k1b = rep1.k1, rep2.k1
    L = k1a / (k1a + k1b)
    glued = glue(m1, v1, m2, v2, L)
    k1_glued, glued_mult = spectral_gap(glued)
    total = k1a + k1b
    equality = abs(k1_glued - total) <= GLUE_K_TOL
    sgp_ok = rep1.theta_sg + rep2.theta_sg <= 2 * math.pi + STRONG_TOL
    return GluingReport(
        k1_parts=(k1a, k1b),
        theta_sg=(rep1.theta_sg, rep2.theta_sg),
        optimal_L=L,
        k1_glued=k1_glued,
        glued_multiplicity=glued_mult,
        subadditive=k1_glued <= total + GLUE_K_TOL,
        equality=equality,
        sgp_condition=sgp_ok,
        consistent=equality == sgp_ok,
        parts_flat=(rep1.k1_is_flat_band, rep2.k1_is_flat_band),
    )
