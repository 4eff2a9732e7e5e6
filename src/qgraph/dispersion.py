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

The levels of all rows of a sweep come from one vertex function.  A row
differs from the coupling theta = 0 at v only in the diagonal entry
alpha = tan(theta/2) of v in the count matrix K0(k) of `spectral`, a
rank-one change (Berkolaiko-Kuchment, Introduction to Quantum Graphs,
2013, ch. 3).  Bordering K0 by e_v and -1/alpha and taking the inertia
of both Schur complements (Haynsworth's inertia additivity: E. V.
Haynsworth, Linear Algebra Appl. 1, 1968) counts the row from one
factorization of K0:

    N_alpha(k) = N_0(k) + [1/alpha + g(k) > 0] - [alpha > 0],   g(k) = (K0(k)^-1)_vv,

with 1/alpha = 0 at theta = pi, where v's row of K goes.  Below zero the
same holds for the hyperbolic vertex matrix H0(kappa) of
`spectral._HyperbolicCount`, whose n_- is the number of levels below
-kappa^2, with h(kappa) = (H0(kappa)^-1)_vv in place of g.  So one
vertex function G of the signed variable s, k = s for lambda = s^2 and
kappa = -s for lambda = -s^2, counts every row on both sides: G(s) is
g(s) for s > 0 and h(-s) for s < 0, and both sides meet M0 of
`spectral` at s = 0.  G is the vv entry of the inverse vertex
Dirichlet-to-Neumann matrix.  It rises with s between its poles, which
are the theta = 0 levels with an eigenfunction that does not vanish at
v; G falls across a theta = 0 level only where it has a pole there, and
that is how a pole is told from a flat band.  So on each branch between
two poles atan G rises from -pi/2 to pi/2, and every row has exactly one
level on it, where phi = atan G + atan(1/alpha) = 0.  The branches end
at four points, with G taken there: the negative ones run from
-kappa_top, where G lies below the -1/alpha of every attractive row
(`_kappa_top`), to the hyperbolic floor, and the positive ones from the
trig floor to the k_max + d of `_level_search`.  The rest of a theta = 0
level, its eigenfunctions that vanish at v, is a flat band of every
row: the level's multiplicity, less one at a pole.  A dispersion curve
removes its positive flat bands from every row within the count's merge
width.

`dispersion_curve` searches the theta = 0 row with the count, and its
negative levels with the hyperbolic count, in one drive.  It then finds
the roots of all rows on all branches of both signs in lockstep by
Newton's method on phi (`_branch_roots`), each step one stacked solve
of each count's vertex function (`spectral._Count.vertex_function`).
A root stops one solve before its step falls within the tolerance once
two Newton steps in a row show quadratic convergence (`_branch_roots`).
Every row confirms its levels with its own counts, trig above zero and
hyperbolic below: each level's multiplicity is the row's count
difference around it, at the points of `spectral._around`; the trig
count at k_max + d must equal the levels found, and the hyperbolic one
at kappa_top must be V', every level found.  The levels fix every point
of those counts in advance, so each row takes them as one batch of each
kind, and `_drive` stacks the batches of all rows of one kind and
matrix shape into one `spectra` call.  Those counts are read for N
alone, so the trig ones take the vertex form at every size
(`spectral._TrigInertia`), which on such stacks costs less than the
whole K's eigvalsh.  A row whose counts disagree raises
RuntimeError, an internal error, instead of being searched again.  As
`levels` does, a row takes the number of its levels below and at zero
from the inertia of its M0, the M0 of all rows in one stacked eigvalsh
(`spectral._take_zero_modes`): its negative levels are the n_- lowest of
its vertex function's, any further one lies within M0's noise of
lambda = 0, and the levels between a floor and zero are reported at that
floor.  A row's counts, trig and hyperbolic, are the theta = 0 counts
with v's coupling changed (`_Count.with_vertex`); no row builds a graph.
The rows equal `spectral.levels` of each row within 1e-12 relative
(absolute below k = 1), with equal multiplicities.

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
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .graph import DIRICHLET, NEUMANN, DeltaTheta, MetricGraph, _integer, _quotient
from .spectral import (
    _level_search,
    _negative_search,
    _take_zero_modes,
    _Count,
    _HyperbolicCount,
    _Search,
    _TrigCount,
    _TrigInertia,
    _drive,
    _MULT_FLOOR,
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


def _vertex_samples(G, at: list[float], ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vertex function G (`spectral._Count.vertex_function`, or the signed
    one of `_sweep_levels`) at the points of at, at s -+ d around every
    theta = 0 level s of ks (d the merge width of |s|), and whether G has a
    pole at s, from one call of G: G rises between its poles, so it falls
    across a level, G(s - d) > G(s + d), only at a pole."""
    width = np.array([_merge_width(abs(k)) for k in ks])
    values = G(np.concatenate([at, ks - width, ks + width]))[0]
    n = len(at)
    below, above = values[n : n + ks.size], values[n + ks.size :]
    return values[:n], below, above, below > above


def _branch_roots(g, branch: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """The root of phi(s) = arg((1 + i g(s)) w) in every bracket (a, b), where
    phi rises from fa <= 0 to fb >= 0 and (a, b) lies on the given branch of g.

    phi is atan g + arg w, taken as one argument so that it keeps its
    relative accuracy near the root where the two terms cancel.  The roots
    are found in lockstep, each step one call g(ss), which gives g and g'
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
    4 eps |s| of `spectral._illinois`, or has stopped shrinking within 64
    times it, at the noise of g; or when its bracket is narrower than the
    tolerance.  It is also found when its step d_n follows a Newton step
    d_{n-1} and shows quadratic convergence, |d_n| <= 0.01 |d_{n-1}|, with
    the move after it, about |d_n|^3 / d_{n-1}^2, within half the
    tolerance.  A found root takes k - d_n, clamped to its bracket.  A root
    still open after _MAX_STEPS steps keeps its point, and its row's
    counts judge it.
    """
    ends = a.copy(), b.copy()
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    target = -np.angle(w)   # where atan g meets each root
    k = (a * fb - b * fa) / (fb - fa)
    last = np.full(k.size, np.inf)   # the size of the move that led to k
    led = np.zeros(k.size, dtype=bool)   # whether that move was a Newton step
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
            # so by s too; |atan g| and |target| are below 2
            probe = _MULT_PROBE * np.abs(ki)
            clear = np.flatnonzero((ki - ends[0][i] > probe) & (ends[1][i] - ki > probe))
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
            # past this step a quadratic convergence, shown by the two Newton steps,
            # moves by about size^3 / last^2
            quadratic = led[i] & (size <= 0.01 * last[i]) & (size**3 <= 0.5 * tol[i] * last[i] ** 2)
            found = (size <= 0.5 * tol[i]) | ((size >= 0.5 * last[i]) & (size <= 64.0 * tol[i])) | quadratic
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
            last[i], led[i] = np.abs(k[i] - ki), newton
            i = i[~(found | narrow | (f == 0.0))]
    return k


class _Check(NamedTuple):
    """One row's levels of one sign and the points of the row's own counts
    that confirm them (`_row_check`, `_confirmed`)."""

    theta: float
    count: _Count
    levels: list[float]    # ascending, each once
    mults: list[int]
    points: np.ndarray     # just below the first level, just above each level, and at the top
    floor_count: int       # the count expected just below the first level
    total: int | None      # the count expected at the top, where it is known


def _row_check(count: _Count, theta: float, ks: list[float], mults: list[int], below: list[float],
               above: list[float], floor_count: int, hi_k: float, total: int | None = None) -> _Check:
    """The levels of one sweep row, from its candidates ks ascending with
    their multiplicities mults, and the points of the counts that confirm
    them: the positive levels with the row's trig count, or the negative
    ones, in kappa, with its hyperbolic count.

    Candidates closer than the merge width are one level, as in
    `_level_search`.  Each level's multiplicity is the row's own count
    difference around it, as `_around` takes it: the count just below the
    first level, then the count just above each level, which is the count
    below the next.  below and above hold those points for every
    candidate k, k -+ d moved out of any pole window (`_Count.off_poles`).
    The count at hi_k must equal the last one, and total where it is
    given.
    """
    levels, counted, points = [], [], []
    i = 0
    while i < len(ks):
        top = above[i]   # where `_around` takes its upper count
        j, mult = i, 0
        while j < len(ks) and ks[j] < top:
            mult += mults[j]
            j += 1
        levels.append(ks[i])
        counted.append(mult)
        points.append(top)
        i = j
    if levels:
        points.insert(0, below[0])
    points.append(hi_k)
    return _Check(theta, count, levels, counted, np.array(points), floor_count, total)


def _batch(count: _Count, ks: np.ndarray) -> _Search:
    """The count's spectra at every k of ks, taken as one batch."""
    return (yield count, ks)


def _confirmed(checks: list[_Check]) -> list[list[float]]:
    """The levels of every check with multiplicity, each confirmed by its
    row's own counts.

    Every check's points are fixed before any count, so each takes them as
    one batch, and one drive stacks the batches of all rows of one kind
    and matrix shape into one `spectra` call, the vertex form's for the
    trig counts (`spectral._TrigInertia`).  The rows of a sweep share their
    lengths, so the count of any one turns all their spectra of one shape
    into N at once.  A level the candidates miss breaks one of a row's
    counts, and the row raises RuntimeError, an internal error, instead of
    being searched again.
    """
    spectra = _drive([_batch(check.count, check.points) for check in checks])
    groups: dict[tuple, list[int]] = {}
    for i, (check, values) in enumerate(zip(checks, spectra)):
        groups.setdefault((type(check.count), values.shape[1]), []).append(i)
    counts: list = [None] * len(checks)
    for group in groups.values():
        n = checks[group[0]].count.counts(np.concatenate([checks[i].points for i in group]),
                                          np.concatenate([spectra[i] for i in group])).tolist()
        at = 0
        for i in group:
            counts[i], at = n[at : at + checks[i].points.size], at + checks[i].points.size
    out = []
    for check, n in zip(checks, counts):
        theta, levels = check.theta, check.levels
        # the counts expected below each level, and above the last
        expected = list(itertools.accumulate([check.floor_count] + check.mults))
        if levels and n[:-1] != expected:
            j = max(next(j for j, (got, want) in enumerate(zip(n, expected)) if got != want) - 1, 0)
            raise RuntimeError(f"theta = {theta}: counts {n[j]}, {n[j + 1]} around the level {levels[j]} "
                               f"of the vertex function, expected {expected[j]}, {expected[j + 1]}")
        top = check.points[-1]
        if n[-1] != expected[-1]:
            raise RuntimeError(f"theta = {theta}: count {n[-1]} at k = {top}, but {expected[-1]} levels found")
        if check.total is not None and n[-1] != check.total:
            raise RuntimeError(f"theta = {theta}: count {n[-1]} at k = {top}, expected {check.total}")
        out.append([r for r, mult in zip(levels, check.mults) for _ in range(mult)])
    return out


def _kappa_top(count: _HyperbolicCount, v: int, alpha: float) -> float:
    """The first kappa = 2^j, j >= 0, where the hyperbolic vertex matrix H with
    the coupling alpha at vertex v, and so with any weaker one, is positive
    definite.  Each edge adds (kappa/2)(tanh p p^T + coth q q^T) to H, p and
    q its unsigned and signed incidence, and as coth >= tanh that is at
    least kappa tanh(kappa l/2) on the diagonal at each of its ends; so H
    is positive definite where every alpha_u + kappa sum tanh(kappa l/2)
    over the edge ends at u is positive."""
    alphas = count.vertex_alpha.copy()   # inf at the Dirichlet vertices, which have no row
    alphas[v] = alpha
    ends = count.graph.incidence[:, : count.lengths.size]
    kappa = 1.0
    while np.any(kappa * (ends @ np.tanh(0.5 * kappa * count.lengths)) <= -alphas):
        kappa *= 2.0
    return kappa


def _sweep_levels(m: MetricGraph, v: int, thetas: np.ndarray,
                  k_max: float) -> tuple[list[list[float]], list[tuple[float, int]]]:
    """Every row's levels up to k_max, as `levels` gives them, and the flat
    bands in (0, k_max] as (k, multiplicity) pairs (module docstring)."""
    m0 = _with_theta(m, v, 0.0)
    count = _TrigCount(m0)
    hyperbolic = _HyperbolicCount(m0, count.zero_modes)
    v_row = _row_of(m0, v)
    alphas = [DeltaTheta(float(t)).alpha for t in thetas]
    floor = count.floor_sample()
    zero, negative = _drive([_level_search(count, floor, k_max), _negative_search(hyperbolic)])
    hi_k = count.off_pole(k_max + _merge_width(k_max), 1.0)
    kappa_top = _kappa_top(hyperbolic, v, min(alphas + [0.0]))

    def G(ss):
        """G(s) and dG/ds: g(s) of the count for s > 0, else h(-s) of the hyperbolic one."""
        up = ss > 0.0
        g, dg = np.empty(ss.size), np.empty(ss.size)
        for side, counter, sign in ((up, count, 1.0), (~up, hyperbolic, -1.0)):
            if side.any():
                g[side], d = counter.vertex_function(v_row, sign * ss[side])
                dg[side] = sign * d
        return g, dg

    # the theta = 0 levels in s, ascending: k = -kappa below 0 (`negative_spectrum`), then the count's
    ks = np.array([p.k for p in negative] + [lvl.k for lvl in zero])
    mults = [p.multiplicity for p in negative] + [lvl.multiplicity for lvl in zero]
    at = [-kappa_top, -hyperbolic.floor, count.floor, hi_k]
    sampled, _, _, pole = _vertex_samples(G, at, ks)
    flats = [(float(k), mult - int(p)) for k, mult, p in zip(ks, mults, pole) if mult > p]
    up_flats = [(k, mult) for k, mult in flats if k > 0.0]
    down_flats = [(-k, mult) for k, mult in flats if k < 0.0]   # in kappa
    poles = ks[pole]

    # a branch runs from an end or a pole to the next: between two poles atan G
    # rises from -pi/2 to pi/2, and every row has one root there.  The
    # negative branches run from -kappa_top to the hyperbolic floor, the
    # positive ones from the trig floor to hi_k, each with G taken at those
    # ends.  w carries the coupling, phi = arg((1 + i G) w) = atan G + atan(1 / alpha)
    n_neg = int(np.count_nonzero(poles < 0.0))
    lo = np.concatenate([[-kappa_top], poles[:n_neg], [count.floor], poles[n_neg:]])
    hi = np.concatenate([poles[:n_neg], [-hyperbolic.floor], poles[n_neg:], [hi_k]])
    branch = np.arange(lo.size)
    opens, closes = np.zeros(branch.size, dtype=bool), np.zeros(branch.size, dtype=bool)
    opens[[0, n_neg + 1]] = closes[[n_neg, -1]] = True   # the branches that start, end at an end
    moving = [j for j, t in enumerate(thetas) if t != 0.0]
    w = np.array([complex(abs(math.sin(0.5 * t)), math.copysign(math.cos(0.5 * t), t)) for t in thetas[moving]])
    fa = np.repeat(np.angle(w)[:, None] - 0.5 * math.pi, branch.size, axis=1)
    fb = fa + math.pi
    fa[:, opens] = np.angle((1.0 + 1j * sampled[[0, 2]]) * w[:, None])
    fb[:, closes] = np.angle((1.0 + 1j * sampled[[1, 3]]) * w[:, None])
    # a root on a branch between two poles is there for every row; rounding
    # may put it on a pole, where fa or fb is 0
    live = ((fa < 0.0) | ~opens) & ((fb > 0.0) | ~closes)
    roots = _branch_roots(G, np.broadcast_to(branch, fa.shape)[live], np.broadcast_to(lo, fa.shape)[live],
                          np.broadcast_to(hi, fa.shape)[live], fa[live], fb[live],
                          np.broadcast_to(w[:, None], fa.shape)[live])
    per_row = np.split(roots, np.cumsum(live.sum(axis=1))[:-1])
    below_zero = live[:, : n_neg + 1].sum(axis=1)

    # every row's counts at the floors by the count identity (module
    # docstring), and its candidates, positive ones in k and negative ones in
    # kappa, both ascending
    reader = _TrigInertia(m0)   # the rows' counts read N alone
    rows = [reader.with_vertex(v_row, alphas[j]) for j in moving]
    _take_zero_modes(rows)
    sides, floors = ([], []), []
    for n, j in enumerate(moving):
        repels = int(thetas[j] > 0.0)
        r, n_minus = per_row[n], rows[n].zero_modes[0]
        floor_count = floor.count + int(fa[n, n_neg + 1] > 0.0) - repels
        below_count = count.zero_modes[0] + int(fb[n, n_neg] > 0.0) - repels   # below the hyperbolic floor
        sides[0].append(sorted([(float(k), 1) for k in r[below_zero[n]:]] + up_flats))
        down = sorted([(-float(k), 1) for k in r[: below_zero[n]]] + down_flats)
        # M0 counts the levels below 0, as in `levels`: they are the n_- lowest
        # of the vertex function's, and any more lie within M0's noise of
        # lambda = 0, where they count as zero
        dropped = 0
        while dropped < below_count - n_minus and down:
            dropped += down.pop(0)[1]
        sides[1].append(down if n_minus else [])
        floors.append((floor_count, below_count - dropped))
    # the points of the counts around each candidate, in arrays
    points = []
    for side, counter in zip(sides, (count, hyperbolic)):
        cands = np.array([k for c in side for k, _ in c])
        width = np.maximum(_MULT_PROBE * cands, _MULT_FLOOR)
        below = counter.off_poles(cands - width, -1.0).tolist()
        above = counter.off_poles(cands + width, 1.0).tolist()
        at = np.cumsum([0] + [len(c) for c in side]).tolist()
        points.append([([k for k, _ in c], [mult for _, mult in c], below[i:j], above[i:j])
                       for c, i, j in zip(side, at, at[1:])])

    checks, low = {}, {}
    for n, (j, (floor_count, below_count)) in enumerate(zip(moving, floors)):
        theta = float(thetas[j])
        n_minus, n_zero = rows[n].zero_modes
        # the levels between a floor and lambda = 0 beyond M0's count there,
        # n_- below zero and n_- + n_0 up to it: `levels` reports them at
        # that floor
        low[j] = ([-hyperbolic.floor] * (n_minus - below_count) + [0.0] * n_zero
                  + [count.floor] * (floor_count - n_minus - n_zero))
        checks[j, 1] = _row_check(rows[n], theta, *points[0][n], floor_count, hi_k)
        if n_minus:
            V = rows[n].alpha.size
            checks[j, -1] = _row_check(hyperbolic.with_vertex(v_row, alphas[j]), theta, *points[1][n],
                                       V - below_count, kappa_top, total=V)
    found = dict(zip(checks, _confirmed(list(checks.values()))))
    base = [p.k for p in negative for _ in range(p.multiplicity)] + [0.0] * count.zero_modes[1]
    base += [lvl.k for lvl in zero for _ in range(lvl.multiplicity)]
    return [[-k for k in reversed(found.get((j, -1), []))] + low[j] + found[j, 1] if j in low else base
            for j in range(len(thetas))], up_flats


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
    count, row = _TrigCount(m), _row_of(m, v)
    (g_gap,), below, above, pole = _vertex_samples(lambda ks: count.vertex_function(row, ks), [k1 - tol_k],
                                                   np.array([k1]))
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
