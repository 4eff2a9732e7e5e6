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
that is how a pole is told from a flat band.  So between two poles
atan G rises from -pi/2 to pi/2, and every row has exactly one level
there, where phi = atan G + atan(1/alpha) = 0.  The sweep cuts each
sign's range at the theta = 0 levels into pieces, none of which holds a
pole, and each row's level lies on one of them; the ranges end at four
points: the negative one runs from -kappa_top, where G lies below the
-1/alpha of every attractive row (`spectral._HyperbolicCount.top` of
the theta = 0 count with the most attractive row's coupling at v, a
diagonal bound that takes no count), to the hyperbolic floor, and the
positive one from the trig floor to the top of the theta = 0 row's
search up to k_max (`spectral._range_top`).  Each piece end reads phi
one way: the limit atan(1/alpha) -+ pi/2 at a pole, else G there, taken
at the four ends and as the mean of its two samples around a level.
The rest of a theta = 0 level, its eigenfunctions that vanish at v, is
a flat band of every row: the level's multiplicity, less one at a pole.
A dispersion curve takes its positive flat bands out of every row at
their multiplicity: the merge of the row's candidates (below) says how
much of each of its levels they hold.

`dispersion_curve` searches the theta = 0 row with the count, and its
negative levels with the hyperbolic count, in one drive.  It then finds
the roots of all rows on all pieces of both signs in lockstep by
Newton's method on phi (`_branch_roots`), each step one stacked solve
of each count's vertex function (`spectral._Count.vertex_function`).
Each root starts from a model of G on its piece (`_model_starts`).  In
lambda = s |s| G is the diagonal Green's function G(v, v; lambda) of the
theta = 0 graph, a Herglotz function whose simple poles are the theta = 0
levels, with residues |phi_j(v)|^2 (Berkolaiko-Kuchment, ch. 3).  So on
a piece G is R / (lambda_p - lambda) of its end poles and of the _NEAR
levels beyond each, plus a part analytic across the piece, which takes
in the poles further away.  The residues come from the samples around
each level (`_vertex_samples`), the one at lambda = 0 from G at the trig
floor, and the analytic part is the polynomial through the rest of G at
_NODES Chebyshev nodes of each piece.  The pieces are known before G is
called, so the one call of `_vertex_samples` takes every node with the
samples around the levels and at the ends, and a root's model costs the
same however many levels the sweep has.  The nodes narrow each root's
bracket, and _MODEL_STEPS Newton steps on the model give its start.  A
root stops once a bound proves its Newton step within half the
tolerance: G is Herglotz, so |G''| <= 2 G' / delta in lambda, delta the
distance to the nearest pole, which is at least the distance to the
nearer end of the piece (`_branch_roots`).  On the theta_sweep graphs of
perfbench 3,466 of the 3,567 roots that take a step are proven after
their first; 79 of the others start more than 1e-8 relative off, 30
of them on the last piece, which the poles above the search's top bend.
A sweep's rows are one stack: the theta = 0 count's coupling and alpha
with v's row set to each row's scaled coupling, at theta = pi its limit,
coupling 0 and alpha s^2 = 1 (`spectral._vertex_rows`); no row builds a
graph or a count.  As `levels` does, a row takes the number of its levels
below and at zero from the inertia of its M0, one stacked eigvalsh for
all rows: its negative levels are the n_- lowest of its vertex
function's, any further one lies within M0's noise of lambda = 0, and the
levels between a floor and zero are reported at that floor.  Every row
confirms its levels with its own counts, trig above zero and hyperbolic
below (`_confirmed`): each level's multiplicity is the row's count
difference around it, at the points of `spectral._around`; the trig
count at k_max + d must equal the levels found, and the hyperbolic one
at kappa_top must be V', every level found.  The theta = pi row's
decoupled row of diagonal 1 adds a negative eigenvalue to -H and none to
K, so its hyperbolic count there is V' too.  The levels fix every point
of those counts in advance, so the rows take theirs of one kind in one
direct stacked `spectra` call, and `counts` turns them into N in arrays,
as the merging of a row's candidates and its expected counts are.  Those
counts are read for N alone, so the trig ones take the vertex form at
every size (`spectral._TrigInertia`), which on such stacks costs less
than the whole K's eigvalsh.  A row whose counts disagree raises
RuntimeError, an internal error, instead of being searched again.  The
rows equal `spectral.levels` of each row within 1e-12 relative (absolute
below k = 1), with equal multiplicities.

The spectral gap parameter theta_SG solves K(theta_SG) = k1(Neumann); it
lies in [0, 2pi], equals at most pi exactly when imposing Dirichlet at
the vertex keeps the gap (Dirichlet criterion), and controls when gluing
two graphs at marked vertices achieves the subadditive bound
k1(glued) = k1(G1) + k1(G2).  The count identity gives it in closed form
from g just below k1, and as 2pi where g has a pole at k1
(`spectral_gap_parameter`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import InvalidInputError
from .graph import DIRICHLET, NEUMANN, DeltaTheta, MetricGraph, _integer, _quotient
from .spectral import (
    _gap_search,
    _level_search,
    _negative_search,
    _vertex_rows,
    _Count,
    _HyperbolicCount,
    _TrigCount,
    _TrigInertia,
    _VertexRows,
    _drive,
    _MULT_FLOOR,
    _MULT_PROBE,
    _merge_width,
    _range_top,
    _require_k,
    spectral_gap,
)

_MAX_STEPS = 128  # a root still open after this many steps is left to its row's counts
_NODES = 8        # the Chebyshev nodes in lambda of each branch's model of G
_NEAR = 2         # the poles on each side of a branch, beyond its end poles, in its model of G
_MODEL_STEPS = 2  # the bracketed Newton steps on the model toward each root's start
_NODE_X = np.cos((np.arange(_NODES, 0, -1) - 0.5) * math.pi / _NODES)   # ascending in (-1, 1)
# values at _NODE_X @ _FIT: the Chebyshev coefficients of the polynomial through them,
# c_m = (2 / n) sum_j f_j T_m(x_j), c_0 halved
_FIT = 2.0 / _NODES * chebyshev.chebvander(_NODE_X, _NODES - 1)
_FIT[:, 0] *= 0.5
_SLOPE = chebyshev.chebder(np.eye(_NODES)).T   # Chebyshev coefficients @ _SLOPE: those of the derivative

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
        """The first n_levels levels of every row, n_levels an integer >= 1."""
        n_levels = _level_count(n_levels)
        rows = []
        for lv in self.levels:
            if len(lv) < n_levels:
                raise InvalidInputError("k_max too small for the requested level count")
            rows.append(lv[:n_levels])
        return np.array(rows)

    def interlacing_slack(self, n_levels: int) -> float:
        """min over grid pairs of `interlacing_margin` of the first n_levels + 1
        levels, n_levels an integer >= 1; >= -tol passes."""
        arr = self.level_array(_level_count(n_levels) + 1)
        pairs = itertools.combinations(range(arr.shape[0]), 2)  # thetas[i] < thetas[j]
        return min((interlacing_margin(arr[i], arr[j]) for i, j in pairs), default=math.inf)


def _level_count(n_levels) -> int:
    """n_levels as an int; it must be an integer (no bool) of at least 1."""
    if _integer(n_levels, "n_levels", InvalidInputError) < 1:
        raise InvalidInputError(f"n_levels must be at least 1, not {n_levels}")
    return int(n_levels)


def interlacing_margin(lo: np.ndarray, hi: np.ndarray) -> float:
    """The smaller of the two interlacing margins min_n (hi_n - lo_n) and
    min_n (lo_{n+1} - hi_n) of the first n + 1 levels at two couplings,
    lo at the smaller theta; interlacing holds when it is >= -tol."""
    return min(float((hi[:-1] - lo[:-1]).min()), float((lo[1:] - hi[:-1]).min()))


def _vertex_samples(G, at: np.ndarray | list[float], ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vertex function G (`spectral._Count.vertex_function`, or the signed
    one of `_sweep_levels`) at the points of at, at s -+ d around every
    theta = 0 level s of ks (d the merge width of |s|), whether G has a
    pole at s, and its residue there in lambda = s |s|, from one call of G:
    G rises between its poles, so it falls across a level, G(s - d) >
    G(s + d), only at a pole.  Near a pole G = R / (lambda_s - lambda) plus
    a part that stays finite, so R = G^2 / (dG / dlambda), dlambda / ds =
    2 |s|; that holds for the G computed at a pole rounding has moved too,
    and the mean of the two sides is taken."""
    width = np.maximum(_MULT_PROBE * np.abs(ks), _MULT_FLOOR)
    values, slopes = G(np.concatenate([at, ks - width, ks + width]))
    n = len(at)
    below, above = values[n : n + ks.size], values[n + ks.size :]
    with np.errstate(divide="ignore", invalid="ignore"):
        residue = 2.0 * np.abs(ks) * (values[n:] ** 2 / slopes[n:]).reshape(2, ks.size).mean(axis=0)
    return values[:n], below, above, below > above, residue


def _branch_roots(g, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray, w: np.ndarray,
                  start: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of phi(s) = arg((1 + i g(s)) w) in every bracket (a, b) of a
    piece (lo, hi) free of poles of g, where phi rises from fa <= 0 to fb >= 0.

    phi is atan g + arg w, taken as one argument so that it keeps its
    relative accuracy near the root where the two terms cancel.  The roots
    are found in lockstep, each step one call g(ss), which gives g and g'
    at the current point of every root still open.  A root whose fa or fb
    is 0 is that end, and takes no step; every other one starts at start,
    or at the secant point of its bracket where start does not lie inside
    it.  A step's sample narrows its root's bracket.  Then each point
    takes its Newton step d on phi, phi' = g' / (1 + g^2), where that stays
    in the bracket and at least halves the move before (as in Numerical
    Recipes' rtsafe); else the secant point of the bracket, or its
    midpoint after a secant point.  A root is found when the root lies
    within half the tolerance 4 eps |s| of `spectral._illinois` past its
    Newton step, by a bound: the move after the step is at most C d^2,
    C the bound on |phi''| / (2 phi') over the step.  In lambda = s |s| g
    is a Herglotz function (module docstring), so |g''| <= 2 g' / delta in
    lambda, delta the distance to its nearest pole, at least the distance
    to the nearer end of the piece less the step's own move; carried
    through lambda = s |s| and phi = atan g + arg w, that gives C = (4 |s|
    / delta + 1 / |s| + |dg / ds|) / 2.  A root is also found when its step
    is within half the tolerance, or has stopped shrinking within 64 times
    it, at the noise of g, as next to a pole of g too weak for
    `_sweep_levels` to see, where Newton's steps would shrink without end;
    or when its bracket is narrower than the tolerance.  A found root
    takes s - d, clamped to its bracket.  A root still open after
    _MAX_STEPS steps keeps its point, and its row's counts judge it.
    """
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = (a * fb - b * fa) / (fb - fa)
    k = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.where((a < start) & (start < b), start, secant)))
    last = np.full(k.size, np.inf)   # the size of the move that led to k
    bisect = np.zeros(k.size, dtype=bool)   # whether the next fallback bisects
    tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    lo, hi = lo * np.abs(lo), hi * np.abs(hi)
    i = np.flatnonzero((a < k) & (k < b))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            if not i.size:
                break
            ki = k[i]
            gk, dg = g(ki)
            f = np.angle((1.0 + 1j * gk) * w[i])
            a[i], fa[i] = np.where(f < 0.0, ki, a[i]), np.where(f < 0.0, f, fa[i])
            b[i], fb[i] = np.where(f > 0.0, ki, b[i]), np.where(f > 0.0, f, fb[i])

            step = f / (dg / (1.0 + gk * gk))
            new = ki - step
            size = np.abs(step)
            lam = ki * np.abs(ki)
            delta = np.maximum(np.minimum(lam - lo[i], hi[i] - lam) - np.abs(new * np.abs(new) - lam), 0.0)
            bound = 0.5 * (4.0 * np.abs(ki) / delta + 1.0 / np.abs(ki) + np.abs(dg))
            found = (size <= 0.5 * tol[i]) | ((size >= 0.5 * last[i]) & (size <= 64.0 * tol[i])) | (
                bound * size**2 <= 0.5 * tol[i])
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


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each piece (lo, hi) in lambda = s |s|: its ends, middle and half
    width, and its _NODES Chebyshev nodes, in lambda and in s."""
    ends = np.stack([lo * np.abs(lo), hi * np.abs(hi)])
    mid, half = 0.5 * (ends[1] + ends[0]), 0.5 * (ends[1] - ends[0])
    lam = mid[:, None] + half[:, None] * _NODE_X
    return ends, mid, half, lam, np.sign(lam) * np.sqrt(np.abs(lam))


def _model_starts(lo: np.ndarray, hi: np.ndarray, at_nodes: np.ndarray, at_ends: np.ndarray, poles: np.ndarray,
                  residues: np.ndarray, piece: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                  w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bracket (a, b) of each root for `_branch_roots`, with phi at its
    ends, and its start, from a model of G on every piece (lo, hi): each
    root's phi = arg((1 + i G) w) rises on its piece from fa to fb.

    The model works in lambda = s |s|, where G has simple poles: poles[j],
    with residues[j] (0 where G has no pole there), lies between pieces j
    and j + 1, at_ends holds G at each end of a piece that is no pole, and
    at_nodes G at its `_nodes`.  On each piece the model is R / (p -
    lambda) of its end poles and of the _NEAR poles beyond each of them,
    plus the polynomial of degree _NODES - 1 in lambda through the rest of
    G at the nodes; the poles further away are analytic across the piece,
    and the polynomial takes them in.  So the model of a root costs the
    same however many poles there are.  G at the nodes narrows every
    bracket of the piece to the two nodes around its root.  A root of phi
    = arg((1 + i G) w) is one of F = (Re w G + Im w) q, q the product of
    |lambda - p| over the poles at the piece's ends, where F has none: the
    start is the secant point of F between those two nodes, followed by
    _MODEL_STEPS bracketed Newton steps on the model's F.
    """
    ends, mid, half, lam, nodes = _nodes(lo, hi)
    # each piece's poles: pole j - 1 at the lo of piece j, pole j at its hi,
    # and _NEAR more on each side, none (at infinity, residue 0) past the last
    near = np.arange(lo.size)[:, None] + np.arange(-1 - _NEAR, 1 + _NEAR)
    inside, clipped = (near >= 0) & (near < poles.size), np.clip(near, 0, poles.size - 1)
    near_poles, near_residues = np.where(inside, poles[clipped], np.inf), np.where(inside, residues[clipped], 0.0)
    fit = (at_nodes - (near_residues[:, None] / (near_poles[:, None] - lam[:, :, None])).sum(axis=2)) @ _FIT
    lo_pole, hi_pole = near_poles[piece, _NEAR : _NEAR + 2].T
    lo_residue, hi_residue = near_residues[piece, _NEAR : _NEAR + 2].T
    has_lo, has_hi = lo_residue > 0.0, hi_residue > 0.0
    others = np.r_[:_NEAR, _NEAR + 2 : 2 * _NEAR + 2]
    r, p = near_residues[piece][:, others], near_poles[piece][:, others]

    def ends_part(x):
        """q, dq / dlambda, and the end poles' part of G q, R_hi d_lo - R_lo d_hi, with
        its slope, at each root's x; d_lo and d_hi are the factors of q."""
        d_lo, d_hi = np.where(has_lo, x - lo_pole, 1.0), np.where(has_hi, hi_pole - x, 1.0)
        return (d_lo * d_hi, has_lo * d_hi - has_hi * d_lo, hi_residue * d_lo - lo_residue * d_hi,
                hi_residue * has_lo + lo_residue * has_hi)

    # each root's bracket: the nodes just below it and above it, as phi rises
    # along the piece; point j of the piece is its end lo, its nodes, its end hi
    f = np.angle((1.0 + 1j * at_nodes[piece]) * w[:, None])
    n = np.count_nonzero(f < 0.0, axis=1)
    each, up = np.arange(n.size), np.minimum(n, _NODES - 1)
    # a node out of order, as by a pole too weak to see, leaves the bracket as it was
    below = (n > 0) & (f[each, n - 1] < 0.0) & ((n == _NODES) | (f[each, up] >= 0.0))
    above = (n < _NODES) & (f[each, up] >= 0.0) & ((n == 0) | (f[each, n - 1] < 0.0))
    a, fa = np.where(below, nodes[piece, n - 1], lo[piece]), np.where(below, f[each, n - 1], fa)
    b, fb = np.where(above, nodes[piece, up], hi[piece]), np.where(above, f[each, up], fb)
    points = np.concatenate([ends[0, :, None], lam, ends[1, :, None]], axis=1)[piece]
    values = np.concatenate([at_ends[:, :1], at_nodes, at_ends[:, 1:]], axis=1)[piece]
    wr, wi = w.real, w.imag

    def F_at(j):
        """F at point j of each root's piece, from G there, or from the end poles' part at a pole, where q = 0."""
        q, _, part, _ = ends_part(points[each, j])
        return wr * np.where(q == 0.0, part, values[each, j] * q) + wi * q

    low, high, F_low, F_high = points[each, n], points[each, n + 1], F_at(n), F_at(n + 1)
    m, h, c, dc = mid[piece], half[piece], fit[piece].T, (fit @ _SLOPE)[piece].T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = low + (high - low) * F_low / (F_low - F_high)
        for _ in range(_MODEL_STEPS):
            u, inverse = (x - m) / h, 1.0 / (p - x[:, None])
            S = chebyshev.chebval(u, c, tensor=False) + (r * inverse).sum(axis=1)
            dS = chebyshev.chebval(u, dc, tensor=False) / h + (r * inverse * inverse).sum(axis=1)
            q, dq, part, dpart = ends_part(x)
            F = wr * (S * q + part) + wi * q
            dF = wr * (dS * q + S * dq + dpart) + wi * dq
            low, high = np.where(F < 0.0, x, low), np.where(F > 0.0, x, high)
            new = x - F / dF
            x = np.where((low <= new) & (new <= high), new, 0.5 * (low + high))
    return a, b, fa, fb, np.sign(x) * np.sqrt(np.abs(x))


def _row_sums(row: np.ndarray, values: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The running sum of values within each of rows rows, row ascending,
    each row's total, and where each row starts, with the end last."""
    starts = np.searchsorted(row, np.arange(rows + 1))
    sums = np.concatenate([[0], np.cumsum(values)])
    return sums[1:] - sums[starts[row]], sums[starts[1:]] - sums[starts[:-1]], starts


def _confirmed(counter: _Count, spectra, stack: _VertexRows, checked: np.ndarray,
               candidates: tuple[np.ndarray, ...], floor_count: np.ndarray, top: float,
               total: int | None = None) -> tuple[tuple[np.ndarray, ...], tuple[int, str] | None]:
    """The levels of one sign of a sweep's rows, confirmed by the checked
    rows' own counts: the positive levels with their trig counts, or the
    negative ones, in kappa, with their hyperbolic counts.  candidates are
    (row, k, multiplicity, flat) ascending, flat the share of the
    multiplicity that a flat band of the curve holds.

    Candidates closer than the merge width are one level, as in
    `_level_search`, and their multiplicities and flat shares add.  Each
    level's multiplicity is the row's own count
    difference around it, as `_around` takes it: the count just below the
    first level (floor_count), then the count just above each level, which
    is the count below the next, at k -+ d.  The count at top must equal
    the last one, and total where it is given.  Every point is known before
    any count, so the rows (stack) take theirs in one call of spectra, and
    counter turns them into N: the rows of a sweep share their lengths.
    Returns the levels as (row, k, multiplicity, flat), and the first row
    whose counts disagree with what they say, or None.
    """
    row, ks, mults, flats = candidates
    rows = floor_count.size
    width = np.maximum(_MULT_PROBE * ks, _MULT_FLOOR)
    below, above = ks - width, ks + width
    starts = np.ones(ks.size, dtype=bool)
    # the rows where candidates merge, as `_level_search` merges them
    for r in set(row[:-1][(row[1:] == row[:-1]) & (ks[1:] < above[:-1])].tolist()):
        i, end = np.searchsorted(row, [r, r + 1])
        while i < end:
            j = i + 1
            while j < end and ks[j] < above[i]:
                starts[j], j = False, j + 1
            i = j
    first = np.flatnonzero(starts)
    level_row, levels = row[first], ks[first]
    level_mults, level_flats = np.add.reduceat(np.stack([mults, flats]), first, axis=1)
    running, sums, at = _row_sums(level_row, level_mults, rows)
    # each checked row's points, below its first level, above each level
    # and at top, with the counts expected there
    n_levels = np.diff(at)
    size = np.where(checked, n_levels + 1 + (n_levels > 0), 0)
    end = np.cumsum(size)
    start, point_row = end - size, np.repeat(np.arange(rows), size)
    points, expected = np.empty(point_row.size), np.empty(point_row.size, dtype=int)
    lead = checked & (n_levels > 0)
    points[start[lead]], expected[start[lead]] = below[first[at[:-1][lead]]], floor_count[lead]
    place = start[level_row] + 1 + np.arange(first.size) - at[level_row]
    points[place], expected[place] = above[first], floor_count[level_row] + running
    last = end[checked] - 1
    points[last], expected[last] = top, floor_count[checked] + sums[checked]
    got = counter.counts(points, spectra(stack.coupling[point_row], stack.alpha[point_row], counter.lengths, points))
    bad = got != expected
    if total is not None:
        bad[last] |= got[last] != total
    if not bad.any():
        return (level_row, levels, level_mults, level_flats), None
    r = int(point_row[bad][0])
    found = levels[level_row == r].tolist()
    n, want = got[start[r] : end[r]].tolist(), expected[start[r] : end[r]].tolist()
    if found and n[:-1] != want[:-1]:
        j = max(next(j for j, (a, b) in enumerate(zip(n, want)) if a != b) - 1, 0)
        return (), (r, f"counts {n[j]}, {n[j + 1]} around the level {found[j]} of the vertex function, "
                       f"expected {want[j]}, {want[j + 1]}")
    if n[-1] != want[-1]:
        return (), (r, f"count {n[-1]} at k = {top}, but {want[-1]} levels found")
    return (), (r, f"count {n[-1]} at k = {top}, expected {total}")


def _by_row(row: np.ndarray, values: np.ndarray, rows: int) -> list[list[float]]:
    """values, row ascending, as one list for each of rows rows."""
    values, ends = values.tolist(), np.searchsorted(row, np.arange(rows), side="right").tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


def _sweep_levels(m: MetricGraph, v: int, thetas: np.ndarray,
                  k_max: float) -> tuple[list[list[float]], list[list[float]], list[tuple[float, int]]]:
    """Every row's levels up to k_max, as `levels` gives them, each row's
    levels left once the curve's flat bands are taken out at their
    multiplicity, and those flat bands as (k, multiplicity) pairs: the
    ones in (1e-9, k_max - pi / L], whose top takes the merge width past
    it as the top of a search's range does (`spectral._range_top`), so
    that a band on it is decided by the merge and not by the last bits
    of its level (module docstring)."""
    m0 = _with_theta(m, v, 0.0)
    count = _TrigCount(m0)
    hyperbolic = _HyperbolicCount(m0, count.zero_modes)
    v_row = count.row(v)   # of both counts
    alphas = np.array([DeltaTheta(float(t)).alpha for t in thetas])
    floor = count.floor_sample()
    zero, negative = _drive([_level_search(count, floor, k_max), _negative_search(hyperbolic)])
    hi_k = _range_top(k_max)
    # above the negative levels of the most attractive row, and so of every
    # row: the theta = 0 couplings with that row's at v, where it is below 0
    most_attractive = hyperbolic.vertex_alpha.copy()
    most_attractive[v] = min(0.0, alphas.min())
    kappa_top = hyperbolic.top(most_attractive)

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
    mults = np.array([p.multiplicity for p in negative] + [lvl.multiplicity for lvl in zero], dtype=int)
    n_neg = len(negative)
    # each sign's range cut at its theta = 0 levels into pieces, each free of
    # poles of G: the negative ones from -kappa_top to the hyperbolic floor,
    # the positive ones from the trig floor to hi_k.  One call of G takes the
    # four ends, both sides of every level and the nodes of every piece
    edges = [0, n_neg, n_neg, ks.size]   # where the ends go among the levels
    points = np.insert(ks, edges, [-kappa_top, -hyperbolic.floor, count.floor, hi_k])
    piece = np.delete(np.arange(points.size - 1), n_neg + 1)   # each piece's lo; no piece spans the floors
    lo, hi = points[piece], points[piece + 1]
    nodes = _nodes(lo, hi)[-1]
    at = np.concatenate([points[edges + np.arange(4)], nodes.ravel()])
    sampled, below, above, pole, residue = _vertex_samples(G, at, ks)
    flat = mults > pole
    # the multiplicity of each level that is the curve's flat band
    shares = np.where(flat & (1e-9 < ks) & (ks <= _range_top(k_max - math.pi / m.total_length)), mults - pole, 0)

    # between two poles atan G rises from -pi/2 to pi/2, and every row has
    # one root there, on one of its pieces: where phi = arg((1 + i G) w) =
    # atan G + atan(1 / alpha) rises through 0.  Each piece end reads phi
    # from the limit at a pole, or from G there: the mean of its sides at a
    # level, with w carrying the coupling
    moving = np.flatnonzero(thetas != 0.0)
    w = np.array([complex(abs(math.sin(0.5 * t)), math.copysign(math.cos(0.5 * t), t)) for t in thetas[moving]])
    at_points = np.insert(np.where(pole, 0.0, 0.5 * (below + above)), edges, sampled[:4])
    is_pole = np.insert(pole, edges, False)
    phi = np.angle((1.0 + 1j * at_points) * w[:, None])
    fa = np.where(is_pole[piece], np.angle(w)[:, None] - 0.5 * math.pi, phi[:, piece])
    fb = np.where(is_pole[piece + 1], np.angle(w)[:, None] + 0.5 * math.pi, phi[:, piece + 1])
    # a root between two pieces is on neither where phi = 0 at a level, a
    # point of measure zero; at a floor or at hi_k it is counted there
    live = (fa < 0.0) & (fb > 0.0)
    # G's poles in lambda = s |s| between the pieces, with the one at lambda = 0 between
    # the floors (R = -lambda G at the trig floor, 0 where M0 has no null vector
    # nonzero at v), and their residues, 0 at a level that is no pole
    model_poles = np.insert(ks * np.abs(ks), n_neg, 0.0)
    residues = np.insert(np.where(pole, residue, 0.0), n_neg, max(-sampled[2] * count.floor**2, 0.0))
    root_row, root_piece = np.nonzero(live)
    at_ends = np.stack([at_points[piece], at_points[piece + 1]], axis=1)
    *brackets, start = _model_starts(lo, hi, sampled[4:].reshape(nodes.shape), at_ends, model_poles, residues,
                                     root_piece, fa[live], fb[live], w[root_row])
    roots = _branch_roots(G, *brackets, w[root_row], start, lo[root_piece], hi[root_piece])

    # every row's counts, one stack with the inertia of their M0, and its
    # counts at the floors by the count identity (module docstring)
    rows = moving.size
    stack = _vertex_rows(count, v, alphas[moving])
    n_minus, n_zero, V = stack.n_minus, stack.n_zero, count.alpha.size
    repels = (thetas[moving] > 0.0).astype(int)
    # phi = 0 at the floor puts a root there, off the first piece (not
    # live): it counts below the floor, as `levels` reports it
    floor_count = floor.count + (fa[:, n_neg + 1] >= 0.0) - repels
    below_count = count.zero_modes[0] + (fb[:, n_neg] > 0.0) - repels   # below the hyperbolic floor
    # every row's candidates, positive ones in k and negative ones in kappa,
    # ascending by (row, k, multiplicity): its roots, then the flat bands
    sides = []
    for side, sign in ((root_piece > n_neg, 1.0), (root_piece <= n_neg, -1.0)):
        band = flat & (sign * ks > 0.0)
        every = (rows, np.count_nonzero(band))   # each flat band in every row
        row = np.concatenate([root_row[side], np.repeat(np.arange(rows), every[1])])
        k = np.concatenate([sign * roots[side], np.broadcast_to(sign * ks[band], every).ravel()])
        mult, share = (np.concatenate([np.full(np.count_nonzero(side), n), np.broadcast_to(x[band], every).ravel()])
                       for n, x in ((1, mults - pole), (0, shares)))
        order = np.lexsort((mult, k, row))
        sides.append((row[order], k[order], mult[order], share[order]))
    # M0 counts the levels below 0, as in `levels`: they are the n_- lowest of
    # the vertex function's, and any more lie within M0's noise of lambda = 0,
    # where they count as zero
    row, kappa, mult, share = sides[1]
    dropped = _row_sums(row, mult, rows)[0] - mult < (below_count - n_minus)[row]
    below_count = below_count - _row_sums(row, np.where(dropped, mult, 0), rows)[1]
    keep = ~dropped & (n_minus[row] > 0)

    up, up_bad = _confirmed(count, _TrigInertia.spectra, stack, np.ones(rows, dtype=bool), sides[0],
                            floor_count, hi_k)
    down, down_bad = _confirmed(hyperbolic, _HyperbolicCount.spectra, stack, n_minus > 0,
                                (row[keep], kappa[keep], mult[keep], share[keep]), V - below_count, kappa_top,
                                total=V)
    bad = [b for b in (up_bad, down_bad) if b is not None]
    if bad:
        r, message = min(bad, key=lambda b: b[0])
        raise RuntimeError(f"theta = {float(thetas[moving[r]])}: {message}")
    # the levels between a floor and lambda = 0 beyond M0's count there, n_-
    # below zero and n_- + n_0 up to it: `levels` reports them at that floor.
    # A row's levels run from its negative ones, in kappa downward, through
    # those to its positive ones, the copies of its levels that are flat
    # bands last
    low = np.array([np.maximum(n_minus - below_count, 0), n_zero,
                    np.maximum(floor_count - n_minus - n_zero, 0)]).T.ravel()
    row, values = (np.concatenate(parts) for parts in zip(
        (np.repeat(down[0], down[2])[::-1], np.repeat(-down[1], down[2])[::-1]),
        (np.repeat(np.arange(rows), 3).repeat(low),
         np.broadcast_to([-hyperbolic.floor, 0.0, count.floor], (rows, 3)).ravel().repeat(low)),
        (np.repeat(up[0], up[2] - up[3]), np.repeat(up[1], up[2] - up[3])),
        (np.repeat(up[0], up[3]), np.repeat(up[1], up[3]))))
    left = np.arange(row.size) < row.size - up[3].sum()
    order = np.lexsort((values, row))
    row, values, left = row[order], values[order], left[order]
    found, kept = iter(_by_row(row, values, rows)), iter(_by_row(row[left], values[left], rows))
    base = [p.k for p in negative for _ in range(p.multiplicity)] + [0.0] * count.zero_modes[1]
    base_left = base + [lvl.k for lvl, n in zip(zero, shares[n_neg:]) for _ in range(lvl.multiplicity - n)]
    base += [lvl.k for lvl in zero for _ in range(lvl.multiplicity)]
    rows_left = [(next(found), next(kept)) if t != 0.0 else (base, base_left) for t in thetas]
    return [lv for lv, _ in rows_left], [lv for _, lv in rows_left], [
        (float(k), int(n)) for k, n in zip(ks[shares > 0], shares[shares > 0])]


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
    n_levels = _level_count(n_levels)
    if k_max is None:
        k_max = math.pi * (n_levels + 3) / m.total_length
    _require_k("k_max", k_max)
    thetas = np.array([-math.pi + 2 * math.pi * (j + 1) / grid_size for j in range(grid_size)])
    thetas[-1] = math.pi
    level_lists, left, flat_pairs = _sweep_levels(m, v, thetas, k_max)
    # the branch: the lowest level left in each row, then the second at theta + 2 pi
    branch = [(t + 2 * math.pi * n, lv[n]) for n in (0, 1) for t, lv in zip(thetas, left) if len(lv) > n]

    return DispersionCurve(
        vertex=v,
        thetas=thetas,
        levels=tuple(tuple(lv) for lv in level_lists),
        flat_bands=tuple(FlatBand(k, mult) for k, mult in flat_pairs),
        branch_thetas=np.array([t for t, _ in branch]),
        branch_values=np.array([k for _, k in branch]),
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

    The gap searches with Neumann and with Dirichlet at v run in one drive,
    and g is read from the Neumann search's count.  g is taken at k1 -+ d,
    d the merge width, as `_vertex_samples` takes it around every level,
    and that one pair of samples decides everything below.  Just below the
    gap k1 the count of m is 1, so the count identity (module docstring)
    puts the branch K, the lowest level on (0, pi] and the second at
    theta - 2pi past pi, below k1 exactly when cot(theta/2) + g(k1-) > 0.  Where g has a pole at k1, g falls across it
    and k1 is the second level of theta = 0, so K(2pi) = k1 and theta_SG =
    2pi, however weak the pole.  Where g rises across k1 from
    g(k1 - d) <= 0 to g(k1 + d) > 0 with no pole, g vanishes at k1 within
    the merge width, so K(pi) = k1 and theta_SG = pi exactly: the same
    sign change that raises k1's Dirichlet multiplicity.  Elsewhere
    cot(theta/2) falls with theta on both, so theta_SG =
    2 atan2(1, -g(k1 - d)): in (0, pi] where g(k1 - d) <= 0, the
    Dirichlet criterion, and in (pi, 2pi) otherwise.
    k1 is a flat band when its multiplicity exceeds the one level a pole
    of g at k1 moves; with Dirichlet at v (1/alpha = 0) k1's multiplicity
    gains [g(k1 + d) > 0] - [g(k1 - d) > 0].  RuntimeError, an internal
    error, means that the Dirichlet gap's own search disagrees with the
    sign of g(k1 - d): it keeps the gap, reaching k1 - d, exactly when
    g(k1 - d) <= 0.
    """
    if not m.is_neumann_graph():
        raise InvalidInputError("spectral gap parameter is defined for Neumann graphs")
    count = _TrigCount(m)
    (k1, k1_mult, _), (dirichlet_k0, _, _) = _drive([_gap_search(m, count),
                                                     _gap_search(_with_theta(m, v, math.pi))])
    _, (below,), (above,), (pole,), _ = _vertex_samples(lambda ks: count.vertex_function(count.row(v), ks), [],
                                                        np.array([k1]))
    dirichlet_holds = dirichlet_k0 >= k1 - _merge_width(k1)
    if dirichlet_holds != (below <= 0.0):
        raise RuntimeError(f"Dirichlet gap {dirichlet_k0} at vertex {v} against k1 = {k1}, "
                           f"but the vertex function is {below} below it")
    if pole:
        theta_sg = 2.0 * math.pi
    elif below <= 0.0 < above:
        theta_sg = math.pi
    else:
        theta_sg = 2.0 * math.atan2(1.0, -below)
    dir_mult = k1_mult + int(above > 0.0) - int(below > 0.0) if dirichlet_holds else 0
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
        k1_is_flat_band=k1_mult > int(pole),
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
