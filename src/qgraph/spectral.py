"""Eigenvalues and eigenfunctions of metric graphs.

Eigenvalues come from an exact count.  By the Dirichlet-to-Neumann
counting argument (L. Friedlander, Arch. Rational Mech. Anal. 116, 1991;
Berkolaiko-Kuchment, Introduction to Quantum Graphs, 2013) the number of
eigenvalues lambda < k^2, negative ones included, is

    N(k) = sum_e ceil(k l_e / pi) - 2E + n_-(K(k))

where n_- counts the negative eigenvalues of the symmetric
(V' + 2E)-square matrix

    K(k) = [[diag alpha, sqrt(k/2) P diag sin(k l/2), sqrt(k/2) Q diag cos(k l/2)],
            [.,          diag(sin(k l) / 2),          0                          ],
            [.,          0,                           -diag(sin(k l) / 2)        ]].

V' are the non-Dirichlet vertices, alpha their delta couplings, P the
unsigned and Q the signed vertex-edge incidence matrix (a loop has P = 2,
Q = 0; each graph builds [P | Q] once, `DiscreteGraph.incidence`).  The
Schur complement of the two edge blocks is the vertex matrix
with diagonal sum_e k cot(k l_e) + alpha_v and off-diagonal -k csc(k l_e);
K keeps every entry analytic in k, so no pole cancels.  The first term
jumps at the poles k l_e / pi in Z, and the count is never taken within
_POLE_WINDOW of one.

A count of _REDUCE_FROM rows or more eliminates one row of every edge
first.  With s, c = sin, cos(k l_e / 2), the sin row of edge e has
diagonal s c and coupling sqrt(k/2) s P_e, the cos row diagonal -s c and
coupling sqrt(k/2) c Q_e, and the two rows do not touch.  Where
|s| <= |c| the sin row goes, with pivot s c, and the vertex block gains
-(k/2) tan(k l_e / 2) P_e P_e^T; otherwise the cos row goes, with pivot
-s c, and the vertex block gains (k/2) cot(k l_e / 2) Q_e Q_e^T.  The
choice is made at every k, so |tan| and |cot| never pass 1 and every
entry of the reduced (V' + E)-square matrix stays bounded.  By
Sylvester's law of inertia n_-(K) is the number of negative pivots plus
n_- of the reduced matrix.  Below _REDUCE_FROM rows the elimination
costs more than the eigvalsh it saves, and K is taken whole; the
constant comes from a timing sweep of spectral_gap over flowers, stars
and random graphs (CHANGES.md).

One level finder serves every spectrum.  It bisects on N until a bracket
holds levels and no pole, then runs regula falsi (Illinois) on the value
of the count's spectrum (below) that crosses zero in it; a bracket that
shrinks inside a pole window is reported as the pole itself.  The
multiplicity of a level r is N(r + d) - N(r - d) with
d = max(1e-10 r, 1e-9), with no threshold on any matrix; levels closer
than d merge into one.  Negative eigenvalues lambda = -kappa^2 of
attractive delta couplings go through the same finder with the
hyperbolic vertex matrix, see `negative_spectrum`.

The finder is a generator, `_level_search`: it yields a request, the
count and a k where it needs that count, and is sent the count's spectrum
there, V' + 2E ascending values with the inertia of K.  A whole K sends
its eigenvalues.  A reduced count sends the reduced matrix's eigenvalues
between -inf for each negative pivot and +inf for each positive one.  So
the count, and the index n_- that regula falsi follows across a bracket,
are those of K; where a bracket end's value is infinite the secant is nan
and the finder bisects.  Every search built on it (`_gap_search`,
`_reaches`, `_eigenvalue_search`, `_around`) is a generator of the same
kind, and one driver, `_drive`, runs any number of them together.  At
each step it groups the pending requests by matrix shape (V', E); a group
of several costs one stacked build with `_TrigCount.spectra` and one
stacked eigvalsh, and a lone request takes `spectrum`.  The stacked build
forms every entry as the single one does (a single reduced count is the
stack of one), so each search is sent the same values alone or in
company.  The public functions drive one search each; the rows of a delta
sweep (`eigenvalues_lockstep`) and the restarts of the optimizer drive
theirs together.

Eigenfunctions come from the vertex conditions on the edge ends
(Berkolaiko-Kuchment, cited above).  On edge e an eigenfunction is
f = A_e cos kx + B_e sin kx, and each vertex of degree d imposes d real
linear conditions on the 2E coefficients: d - 1 continuity conditions,
and the Kirchhoff/delta condition sum f' = alpha f (f' the outgoing
derivative) or, at a Dirichlet vertex, f = 0.  They form the real
2E x 2E matrix M(k) of `_vertex_system`, whose null space is the
eigenspace at k > 0, poles of the count included.  At a level of counted
multiplicity m the last m right singular vectors of M(k) span it; one
m x m L^2 Gram matrix (`_gram`) orthonormalizes them.  The k = 0
eigenvalue of a Neumann graph (constant eigenfunction) is handled
symbolically.

`EdgeTrig` is the one representation of such functions.  It also serves
the Rayleigh quotients, whose test functions have one frequency on every
edge (`harmonic_interpolant`): the norm is `_gram`, and the Dirichlet
energy follows from the per-edge energies f'^2 + k^2 f^2, constant along
each edge.  The vertex conditions are read from the values and outgoing
derivatives at the 2E edge ends, `EdgeTrig.at_ends`.

`BondScattering` is on no solver path.  It is the independent oracle
behind `secular_value` and the tests: on bond b the solution of
-f'' = k^2 f is a^in e^{-ikx} + a^out e^{ikx}, and the vertex conditions
force a = U(k) a with the unitary U(k) = e^{ikL} J Sigma(k), where L is
the diagonal of bond lengths, J the bond-reversal permutation and Sigma
the block-diagonal vertex scattering matrix:
    Neumann           2/d - delta_{ee'}
    Dirichlet         -delta_{ee'}
    delta-type        -delta_{ee'} + 2/(d + i alpha/k), alpha = tan(theta/2)
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NoEigenspaceError,
    ResourceBudgetError,
)
from .graph import MetricGraph

_POLE_WINDOW = 1e-11   # the count is never taken this close (in k l_e / pi) to a pole
_MULT_PROBE = 1e-10    # relative offset of the two counts whose difference is a multiplicity,
_MULT_FLOOR = 1e-9     # and its least absolute value, for levels near k = 0
_MAX_LEVELS = 10_000   # most levels one search resolves
_REDUCE_FROM = 32      # counts of this many rows (V' + 2E) and more eliminate one row per edge

# a level search yields a request, a count and a k where it needs that count,
# and is sent the count's spectrum there (`_Count.spectrum`); it returns its result
_Search = Generator[tuple["_Count", float], np.ndarray, object]


# ---------------------------------------------------------------------------
# bond scattering matrix (oracle)
# ---------------------------------------------------------------------------


class BondScattering:
    """The bond-scattering matrix U(k) of a metric graph, kept as an oracle.

    No solver path builds it: `secular_value` and the tests check the
    counted levels and the eigenfunctions against it (module docstring).
    Bonds 0..E-1 run along the stored edge direction, bonds E..2E-1 are
    their reversals; J swaps the two halves.
    """

    def __init__(self, m: MetricGraph) -> None:
        g = m.graph
        E = g.edge_count
        self.m = m
        self.n_bonds = 2 * E
        self.bond_lengths = np.concatenate([m.lengths, m.lengths])
        self.jperm = np.concatenate([np.arange(E, 2 * E), np.arange(0, E)])
        self.bond_origin = g.ends
        self.same_origin = g.ends[:, None] == g.ends[None, :]
        # (degree, alpha) per vertex; a Python int degree keeps 2 / (d + i alpha / k)
        # in Python's complex division, which rounds differently from numpy's
        self.vertex_terms = list(zip(g.degrees().tolist(), m.alpha.tolist()))

    def sigma(self, k: float) -> np.ndarray:
        """w_v on every pair of bonds leaving the same vertex v, minus I; real
        unless a delta vertex makes w_v complex (module docstring)."""
        w = np.array([
            2.0 / d if alpha == 0.0 else 0.0 if math.isinf(alpha) else 2.0 / (d + 1j * alpha / k)
            for d, alpha in self.vertex_terms
        ])
        return np.where(self.same_origin, w[self.bond_origin][:, None], 0.0) - np.eye(self.n_bonds)

    def U(self, k: float) -> np.ndarray:
        phases = np.exp(1j * k * self.bond_lengths)
        return phases[:, None] * self.sigma(k)[self.jperm, :]

    def singular_values(self, k: float) -> np.ndarray:
        """All singular values of I - U(k), ascending."""
        a = np.eye(self.n_bonds) - self.U(k)
        return np.sort(np.linalg.svd(a, compute_uv=False))

    # no solver path calls these two; they stay because the benchmark's
    # layer tracer (perfbench/layers.py) wraps them by name
    def log_abs_det(self, k: float) -> float:
        a = np.eye(self.n_bonds) - self.U(k)
        return float(np.linalg.slogdet(a)[1])

    def log_abs_det_batch(self, ks: np.ndarray) -> np.ndarray:
        return np.array([self.log_abs_det(k) for k in ks])


def _require_k(name: str, k: float, zero_ok: bool = False) -> None:
    """Reject a k that is not finite and positive (or zero, where zero_ok)."""
    if not math.isfinite(k) or k < 0 or (k == 0 and not zero_ok):
        raise InvalidInputError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, not {k}")


def secular_value(m: MetricGraph, k: float) -> float:
    """Smallest singular value of I - U(k), k > 0; zero exactly at eigenvalues
    (k = 0 is handled symbolically)."""
    _require_k("k", k)
    return float(BondScattering(m).singular_values(k)[0])


# ---------------------------------------------------------------------------
# eigenvalue count and the level finder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sample:
    """The count at one point: N, its pole term, and the count matrix's spectrum."""

    k: float
    count: int
    poles: int
    evals: np.ndarray


class _Count:
    """N(k) = poles(k) + offset + n_-(matrix(k)), nondecreasing in k, counted
    from spectrum(k), which has the inertia of matrix(k).

    Both counts couple the non-Dirichlet vertices to the edges through the
    incidence C = diag(s) [P | Q] (module docstring) and the couplings
    alpha s^2.  The congruence diag(s), s = 1 / sqrt(max(1, |alpha|)),
    keeps the inertia and stops a near-Dirichlet coupling from swamping
    the other entries.  [P | Q] is the graph's own `incidence`, built once
    per graph: a count takes its non-Dirichlet rows and scales them, and
    on a Neumann graph (every s = 1, every alpha = 0) uses it as it is.
    """

    offset = 0
    shape = None   # `_drive` stacks the requests of counts of one shape; None: each alone

    def __init__(self, m: MetricGraph) -> None:
        g = m.graph
        self.graph = g
        self.neumann = m.is_neumann_graph()
        if self.neumann:
            self.coupling = g.incidence
            self.alpha = m.alpha
        else:
            keep = np.isfinite(m.alpha)
            alpha = m.alpha[keep]
            s = 1.0 / np.sqrt(np.maximum(1.0, np.abs(alpha)))
            self.coupling = g.incidence[keep] * s[:, None]
            self.alpha = alpha * s * s
        self.lengths = np.asarray(m.lengths, dtype=float)

    def matrix(self, k: float) -> np.ndarray:
        raise NotImplementedError

    def poles(self, k: float) -> int:
        return 0

    def pole_near(self, k: float) -> tuple[float, float] | None:
        """(pole, half-width of its window) when k lies inside that window."""
        return None

    def lone_pole(self, a: float, b: float) -> tuple[float, float] | None:
        """(pole, half-width of its window) when (a, b) holds one pole only."""
        return None

    def spectrum(self, k: float) -> np.ndarray:
        """Ascending values with the inertia of matrix(k); here its eigenvalues."""
        return np.linalg.eigvalsh(self.matrix(k))

    def made(self, k: float, evals: np.ndarray) -> _Sample:
        """The sample at k, from spectrum(k)."""
        poles = self.poles(k)
        return _Sample(k, poles + self.offset + int(np.count_nonzero(evals < 0.0)), poles, evals)

    def sample(self, k: float) -> _Sample:
        return self.made(k, self.spectrum(k))

    def off_pole(self, k: float, direction: float) -> float:
        """k itself, or the first point past its pole window in the given direction."""
        hit = self.pole_near(k)
        while hit is not None:
            pole, half = hit
            k = pole + direction * 2.0 * half
            hit = self.pole_near(k)
        return k


class _TrigCount(_Count):
    """The count of the eigenvalues lambda < k^2, k > 0 (module docstring).

    `matrix` is the whole K.  Its spectrum is K's eigenvalues below
    _REDUCE_FROM rows, and from there on the stand-in spectrum of the
    reduced matrix (`spectra`).
    """

    def __init__(self, m: MetricGraph) -> None:
        super().__init__(m)
        self.offset = -2 * self.lengths.size
        self.shape = (self.alpha.size, self.lengths.size)

    def matrix(self, k: float) -> np.ndarray:
        nv = self.alpha.size
        n = nv + 2 * self.lengths.size
        half = 0.5 * k * self.lengths
        trig = np.concatenate([np.sin(half), np.cos(half)])
        edge = 0.5 * np.sin(2.0 * half)
        K = np.zeros((n, n))
        K[:nv, nv:] = math.sqrt(0.5 * k) * self.coupling * trig
        K[nv:, :nv] = K[:nv, nv:].T
        K.flat[:: n + 1] = np.concatenate([self.alpha, edge, -edge])
        return K

    @staticmethod
    def matrices(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """counts[j].matrix(ks[j]) for counts of one shape, stacked; coupling[j],
        alpha[j] and lengths[j] are those of counts[j], and lengths may be one
        row that every count shares.

        Every entry is formed by the same operations, in the same order, as
        in `matrix`, so the two agree bit for bit.
        """
        b, nv = alpha.shape
        n = nv + 2 * lengths.shape[-1]
        half = (0.5 * ks)[:, None] * lengths
        trig = np.concatenate([np.sin(half), np.cos(half)], axis=1)
        edge = 0.5 * np.sin(2.0 * half)
        K = np.zeros((b, n, n))
        K[:, :nv, nv:] = np.sqrt(0.5 * ks)[:, None, None] * coupling * trig[:, None, :]
        K[:, nv:, :nv] = K[:, :nv, nv:].transpose(0, 2, 1)
        K.reshape(b, n * n)[:, :: n + 1] = np.concatenate([alpha, edge, -edge], axis=1)
        return K

    def spectrum(self, k: float) -> np.ndarray:
        if self.alpha.size + 2 * self.lengths.size < _REDUCE_FROM:
            return super().spectrum(k)
        return self.spectra(self.coupling[None], self.alpha[None], self.lengths, np.array([k]))[0]

    @staticmethod
    def spectra(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """counts[j].spectrum(ks[j]) for counts of one shape, stacked; the
        arguments are those of `matrices`.

        Below _REDUCE_FROM rows they are the eigenvalues of `matrices`.  From
        there on one row of every edge is eliminated (module docstring): the
        sin row where |tan(k l_e / 2)| <= 1, the cos row otherwise.  The
        reduced matrix's eigenvalues stand between -inf for each negative
        pivot and +inf for each positive one.  A single count is the stack
        of one, so the two agree bit for bit.
        """
        b, nv = alpha.shape
        E = lengths.shape[-1]
        if nv + 2 * E < _REDUCE_FROM:
            return np.linalg.eigvalsh(_TrigCount.matrices(coupling, alpha, lengths, ks))
        half_k = 0.5 * ks
        half = half_k[:, None] * lengths
        s, c = np.sin(half), np.cos(half)
        cut = np.abs(s) <= np.abs(c)   # the sin row goes; else the cos row
        keep = np.where(cut, c, s)     # |keep| >= 1 / sqrt(2)
        diag = np.where(cut, -s, s) * c   # of the kept row; the pivot of the row that goes is -diag
        w = half_k[:, None] * diag / (keep * keep)   # -(k/2) tan, or (k/2) cot
        # rows [P_e; Q_e] of the cut edges, [Q_e; P_e] of the others: the incidence that goes, that stays
        CT = coupling.transpose(0, 2, 1).reshape(b, 2, E, nv)
        gone_kept = np.where(cut[:, None, :, None], CT, CT[:, ::-1])
        n = nv + E
        R = np.zeros((b, n, n))   # eigvalsh reads the lower triangle; the upper right stays 0
        R[:, :nv, :nv] = (gone_kept[:, 0].transpose(0, 2, 1) * w[:, None, :]) @ gone_kept[:, 0]
        R[:, nv:, :nv] = (np.sqrt(half_k)[:, None] * keep)[:, :, None] * gone_kept[:, 1]
        R.reshape(b, n * n)[:, :: n + 1] += np.concatenate([alpha, diag], axis=1)
        stand_ins = np.where(diag > 0.0, -np.inf, np.inf)
        return np.sort(np.concatenate([np.linalg.eigvalsh(R), stand_ins], axis=1), axis=1)

    def poles(self, k: float) -> int:
        return int(np.ceil(k * self.lengths / math.pi).sum())

    def pole_near(self, k: float) -> tuple[float, float] | None:
        x = k * self.lengths / math.pi
        n = np.rint(x)
        near = (np.abs(x - n) < _POLE_WINDOW) & (n > 0)
        if not near.any():
            return None
        e = int(np.argmax(near))
        l = float(self.lengths[e])
        return float(n[e]) * math.pi / l, _POLE_WINDOW * math.pi / l

    def lone_pole(self, a: float, b: float) -> tuple[float, float] | None:
        first = np.ceil(a * self.lengths / math.pi)
        inside = np.ceil(b * self.lengths / math.pi) - first
        if inside.max() != 1.0:
            return None
        at = inside == 1.0
        poles = first[at] * math.pi / self.lengths[at]
        half = _POLE_WINDOW * math.pi / float(self.lengths[at].min())
        # equal lengths, or lengths in integer ratios, share their poles
        if poles.max() - poles.min() > half:
            return None
        return float(poles.min()), half


def _split(count: _Count, a: float, b: float) -> tuple[float | None, float | None]:
    """(point, None) with the point inside (a, b) and clear of every pole
    window, or (None, pole) when the bracket has shrunk onto a pole.

    A bracket holding a single pole is split at the edges of that pole's
    window, so a level sitting on the pole costs two counts.  Otherwise
    the midpoint splits it, moved out of any pole window.
    """
    mid = 0.5 * (a + b)
    hit = count.lone_pole(a, b) or count.pole_near(mid)
    if hit is None:
        return mid, None
    pole, half = hit
    edges = (count.off_pole(pole - 2.0 * half, -1.0), count.off_pole(pole + 2.0 * half, 1.0))
    for k in sorted(edges, key=lambda x: abs(x - mid)):
        if a < k < b:
            return k, None
    return None, pole


def _illinois(count: _Count, lo: _Sample, hi: _Sample) -> _Search:
    """The lowest level of a pole-free bracket.

    With i = n_- at lo, the i-th value of the count's spectrum is
    nonnegative at lo, negative at hi and changes sign exactly at the
    lowest level in between.  A reduced count's value may be infinite; the
    secant is then nan, and the step bisects.  Python floats carry that
    arithmetic, so it raises no numpy warning.
    """
    i = int(np.count_nonzero(lo.evals < 0.0))
    a, fa, b, fb = float(lo.k), float(lo.evals[i]), float(hi.k), float(hi.evals[i])
    tol = 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
    side = 0
    while b - a > tol:
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = float((yield count, c)[i])
        if fc > 0.0:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        elif fc < 0.0:
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            return c
    return 0.5 * (a + b)


def _lowest_level(count: _Count, lo: _Sample, hi: _Sample, seen: list[_Sample]) -> _Search:
    """The lowest level in (lo.k, hi.k]; needs hi.count > lo.count.

    Every count taken is added to seen, for the brackets of later levels.
    """
    while lo.poles != hi.poles:
        mid, pole = _split(count, lo.k, hi.k)
        if pole is not None:
            return pole
        s = count.made(mid, (yield count, mid))
        seen.append(s)
        if s.count > lo.count:
            hi = s
        else:
            lo = s
    return (yield from _illinois(count, lo, hi))


def _merge_width(r: float) -> float:
    """Levels closer than this to r count as r."""
    return max(_MULT_PROBE * r, _MULT_FLOOR)


def _around(count: _Count, r: float, lo: _Sample | None = None) -> _Search:
    """The counts just below and just above r; their difference is r's multiplicity.

    lo, the lower end of the search, stands in for the lower count when
    it lies above it.
    """
    width = _merge_width(r)
    below_k = count.off_pole(r - width, -1.0)
    below = lo if lo is not None and below_k <= lo.k else count.made(below_k, (yield count, below_k))
    above_k = count.off_pole(r + width, 1.0)
    return below, count.made(above_k, (yield count, above_k))


def _level_search(count: _Count, k_lo: float, k_hi: float, first_only: bool = False) -> _Search:
    """Levels in (k_lo, k_hi] with their multiplicities, ascending."""
    lo_k = count.off_pole(k_lo, -1.0)
    lo = count.made(lo_k, (yield count, lo_k))
    # a level sitting on k_hi belongs to the range
    hi_k = count.off_pole(k_hi + _merge_width(k_hi), 1.0)
    hi = count.made(hi_k, (yield count, hi_k))
    if hi.count - lo.count > _MAX_LEVELS:
        raise ResourceBudgetError(
            f"{hi.count - lo.count} eigenvalues in ({k_lo}, {k_hi}], more than {_MAX_LEVELS}"
        )
    seen = [lo, hi]
    out: list[tuple[float, int]] = []
    while lo.count < hi.count:
        # the tightest bracket above lo among the counts taken so far
        lo = max((s for s in seen if s.count == lo.count), key=lambda s: s.k)
        upper = min((s for s in seen if s.count > lo.count), key=lambda s: s.k)
        r = yield from _lowest_level(count, lo, upper, seen)
        below, above = yield from _around(count, r, lo)
        out.append((r, above.count - below.count))
        if first_only:
            break
        seen.append(above)
        lo = above
    return out


def _drive(searches: list[_Search]) -> list:
    """The results of searches advanced together, in their order.

    At each step the pending requests are grouped by matrix shape (V', E);
    a group of several trig counts costs one stacked build and one stacked
    eigvalsh, and any other request takes its count's `spectrum`.  Either
    way a search is sent the values it would be sent alone.  A group of the
    same counts as the last one of its shape reuses their stacked
    couplings, alphas and lengths; searches take several steps per count.
    """
    results: list = [None] * len(searches)
    pending: dict[int, tuple[_Count, float]] = {}
    stacked: dict[tuple[int, int], tuple] = {}   # shape -> (counts, coupling, alpha, lengths)

    def send(j: int, value) -> None:
        try:
            pending[j] = searches[j].send(value)
        except StopIteration as stop:
            results[j] = stop.value
            pending.pop(j, None)

    for j in range(len(searches)):
        send(j, None)
    while pending:
        groups: dict[object, list[int]] = {}
        for j, (count, _) in pending.items():
            groups.setdefault(-1 - j if count.shape is None else count.shape, []).append(j)
        for shape, js in groups.items():
            if len(js) == 1:
                count, k = pending[js[0]]
                send(js[0], count.spectrum(k))
                continue
            counts = [pending[j][0] for j in js]
            if shape not in stacked or stacked[shape][0] != counts:
                stacked[shape] = (
                    counts,
                    np.array([c.coupling for c in counts]),
                    np.array([c.alpha for c in counts]),
                    np.array([c.lengths for c in counts]),
                )
            values = _TrigCount.spectra(*stacked[shape][1:], np.array([pending[j][1] for j in js]))
            for j, v in zip(js, values):
                send(j, v)
    return results


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigenpair:
    k: float
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Sorted nonnegative k-eigenvalues with multiplicities."""

    eigenpairs: tuple[Eigenpair, ...]

    def expanded(self) -> list[float]:
        return [p.k for p in self.eigenpairs for _ in range(p.multiplicity)]

    @property
    def gap(self) -> float:
        for p in self.eigenpairs:
            if p.k > 1e-12:
                return p.k
        raise NoEigenspaceError("no positive eigenvalue in the computed range")


def _k_floor(m: MetricGraph) -> float:
    """Where the positive search starts; far below the lowest level pi / (2 L) of
    any graph without attractive couplings or tiny repulsive ones."""
    return 1e-6 * math.pi / (16.0 * m.total_length * m.graph.edge_count)


def _eigenvalue_search(m: MetricGraph, k_max: float, k_min: float) -> _Search:
    """`eigenvalues` as a search."""
    _require_k("k_max", k_max)
    _require_k("k_min", k_min, zero_ok=True)
    levels = yield from _level_search(_TrigCount(m), max(k_min, _k_floor(m)), k_max)
    pairs = [Eigenpair(k, mult) for k, mult in levels]
    if m.is_neumann_graph() and k_min == 0.0:
        pairs.insert(0, Eigenpair(0.0, 1))
    return Spectrum(tuple(pairs))


def eigenvalues(m: MetricGraph, k_max: float, k_min: float = 0.0) -> Spectrum:
    """All eigenvalues in (k_min, k_max], prepending k = 0 for Neumann graphs."""
    return _drive([_eigenvalue_search(m, k_max, k_min)])[0]


def eigenvalues_lockstep(ms: list[MetricGraph], k_max: float) -> list[Spectrum]:
    """eigenvalues(m, k_max) for every m, searched in lockstep."""
    return _drive([_eigenvalue_search(m, k_max, 0.0) for m in ms])


def multiplicity_at(m: MetricGraph, k: float) -> int:
    """The number of eigenvalues at k > 0, counted as N(k + d) - N(k - d) with
    d the merge width; zero when k is not an eigenvalue."""
    _require_k("k", k)
    below, above = _drive([_around(_TrigCount(m), k)])[0]
    return above.count - below.count


def gap_upper_bound(m: MetricGraph) -> float:
    """Safe search cap: pi E / L (equilateral flower) plus 2 pi / L for the circle."""
    return math.pi * (m.graph.edge_count + 2) / m.total_length


def _gap_search(m: MetricGraph) -> _Search:
    """`spectral_gap` as a search."""
    levels = yield from _level_search(_TrigCount(m), _k_floor(m), gap_upper_bound(m), first_only=True)
    if not levels:
        raise NoEigenspaceError("no eigenvalue found below the universal bound")
    return levels[0]


def spectral_gap(m: MetricGraph) -> tuple[float, int]:
    """Smallest positive eigenvalue and its multiplicity, searched below the
    universal gap bound."""
    return _drive([_gap_search(m)])[0]


def _floor_count(m: MetricGraph, count: _TrigCount) -> int:
    """N at the search floor, moved below any pole window it sits in.

    On a Neumann graph it is 1 without a count: the graph is connected, so
    k = 0 is its only level below k_1 >= pi / L (Nicaise), far above the
    floor.  Other graphs may have levels of any size there and are counted.
    """
    if count.neumann:
        return 1
    return count.sample(count.off_pole(_k_floor(m), -1.0)).count


def _reaches(m: MetricGraph, k: float) -> _Search:
    """`gap_reaches` as a search: it requests N(k), and `_floor_count` takes
    N(k_floor) itself where it is not known."""
    _require_k("k", k)
    count = _TrigCount(m)
    below_k = count.off_pole(k, -1.0)
    below = count.made(below_k, (yield count, below_k))
    return below.count <= _floor_count(m, count)


def gap_reaches(m: MetricGraph, k: float) -> bool:
    """spectral_gap(m)[0] >= k, decided by at most two counts.

    The gap reaches k when no level lies between the point where
    `spectral_gap` starts its search and k: N(k) <= N(k_floor), k moved
    below any pole window it sits in.  On a Neumann graph N(k_floor) = 1
    is known and only N(k) is counted (`_floor_count`).  `spectral_gap`
    still takes its own floor sample: the eigenvalues of that count
    matrix seed its first regula falsi bracket.
    """
    return _drive([_reaches(m, k)])[0]


# ---------------------------------------------------------------------------
# eigenfunctions from the vertex conditions
# ---------------------------------------------------------------------------


def _trig_integrals(k: float, l):
    """The integrals of cos^2(kx), sin^2(kx) and cos(kx) sin(kx) over [0, l],
    elementwise in l."""
    if k == 0.0:
        return l, 0.0 * l, 0.0 * l
    osc = np.sin(2.0 * k * l) / (4.0 * k)
    return l / 2.0 + osc, l / 2.0 - osc, np.sin(k * l) ** 2 / (2.0 * k)


@dataclass(frozen=True, eq=False)
class EdgeTrig:
    """Real function A_e cos(kx) + B_e sin(kx) on each edge (x along the edge):
    an eigenfunction, or a test function of the Rayleigh quotients.

    amp_cos and amp_sin are read-only float arrays of length E.
    """

    k: float
    amp_cos: np.ndarray
    amp_sin: np.ndarray

    def __post_init__(self) -> None:
        for name in ("amp_cos", "amp_sin"):
            amps = np.array(getattr(self, name), dtype=float)
            amps.setflags(write=False)
            object.__setattr__(self, name, amps)
        if self.amp_cos.ndim != 1 or self.amp_cos.shape != self.amp_sin.shape:
            raise InvalidInputError("amp_cos and amp_sin must be arrays of one length")

    def at(self, e, x) -> tuple[np.ndarray, np.ndarray]:
        """f and f' at the points x of the edges e (arrays that broadcast)."""
        kx = self.k * np.asarray(x, dtype=float)
        cos, sin = np.cos(kx), np.sin(kx)
        a, b = self.amp_cos[e], self.amp_sin[e]
        return a * cos + b * sin, self.k * (b * cos - a * sin)

    def at_ends(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and its outgoing derivative (pointing from the vertex into the
        edge) at the 2E edge ends, in the order of `DiscreteGraph.ends`:
        end e is x = 0 of edge e and end E + e is x = l_e."""
        E = self.amp_cos.size
        value, slope = self.at(np.tile(np.arange(E), 2), np.concatenate([np.zeros(E), lengths]))
        return value, np.concatenate([slope[:E], -slope[E:]])

    def norm_sq(self, lengths: np.ndarray) -> float:
        return float(_gram(self.k, self.amp_cos[None], self.amp_sin[None], lengths)[0, 0])

    def inner(self, other: "EdgeTrig", lengths: np.ndarray) -> float:
        amp_cos = np.stack([self.amp_cos, other.amp_cos])
        amp_sin = np.stack([self.amp_sin, other.amp_sin])
        return float(_gram(self.k, amp_cos, amp_sin, lengths)[0, 1])

    def energies(self) -> np.ndarray:
        """Per-edge f'^2 + k^2 f^2 (constant along each edge)."""
        return self.k**2 * (self.amp_cos**2 + self.amp_sin**2)

    def max_abs(self, lengths: np.ndarray) -> float:
        a, b, kl = self.amp_cos, self.amp_sin, self.k * np.asarray(lengths, dtype=float)
        ends = np.abs(self.at_ends(lengths)[0])
        if self.k == 0.0:
            return float(ends.max())
        # interior extrema of R cos(kx - phi) sit at kx - phi = m pi
        phi = np.arctan2(b, a)
        peak = np.ceil(-phi / math.pi) <= np.floor((kl - phi) / math.pi)
        return float(max(ends.max(), np.hypot(a, b)[peak].max(initial=0.0)))


def _gram(k: float, amp_cos: np.ndarray, amp_sin: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The L^2 Gram matrix of the functions EdgeTrig(k, amp_cos[i], amp_sin[i])."""
    cc, ss, cs = _trig_integrals(k, np.asarray(lengths, dtype=float))
    cross = (amp_cos * cs) @ amp_sin.T
    return (amp_cos * cc) @ amp_cos.T + cross + cross.T + (amp_sin * ss) @ amp_sin.T


def _vertex_system(m: MetricGraph, k: float) -> np.ndarray:
    """The real 2E x 2E matrix M(k), k > 0, whose null space is the eigenspace at k.

    Column e holds A_e and column E + e holds B_e of f = A_e cos kx +
    B_e sin kx on edge e.  Row j belongs to edge end j of
    `DiscreteGraph.ends`.  At each vertex the first end carries the
    Kirchhoff/delta row sum f'/k - (alpha/k) f, scaled by 1/max(1, |alpha|/k),
    or at a Dirichlet vertex the value row f; each other end carries the
    continuity row f(end) - f(first end).  f'/k is the outgoing derivative.
    """
    g = m.graph
    E = g.edge_count
    end = np.arange(2 * E)
    edge, out = end % E, np.where(end < E, 1.0, -1.0)   # out: the outgoing direction
    kx = k * np.concatenate([np.zeros(E), m.lengths])    # k x at every edge end
    cos, sin = np.cos(kx), np.sin(kx)
    value, slope = np.zeros((2 * E, 2 * E)), np.zeros((2 * E, 2 * E))
    value[end, edge], value[end, E + edge] = cos, sin
    slope[end, edge], slope[end, E + edge] = -out * sin, out * cos
    first = np.unique(g.ends, return_index=True)[1]
    system = value - value[first[g.ends]]
    dirichlet = np.isinf(m.alpha)
    alpha_k = np.where(dirichlet, 0.0, m.alpha) / k
    at = (g.ends == np.arange(g.vertex_count)[:, None]).astype(float)
    kirchhoff = (at @ slope - alpha_k[:, None] * value[first]) / np.maximum(1.0, np.abs(alpha_k))[:, None]
    system[first] = np.where(dirichlet[:, None], value[first], kirchhoff)
    return system


def _signed(coeffs: np.ndarray) -> np.ndarray:
    """coeffs or -coeffs, whichever makes positive the first entry whose
    magnitude is within a relative 1e-9 of the largest (a tie-proof sign)."""
    mag = np.abs(coeffs)
    lead = coeffs[np.argmax(mag >= (1.0 - 1e-9) * mag.max())]
    return -coeffs if lead < 0 else coeffs


def eigenfunction(m: MetricGraph, k: float) -> list[EdgeTrig]:
    """Orthonormal real basis of the eigenspace at k.

    The dimension is the counted multiplicity at k; raises
    NoEigenspaceError when the count finds no eigenvalue there.
    """
    E = m.graph.edge_count
    if abs(k) <= 1e-12:
        if not m.is_neumann_graph():
            raise NoEigenspaceError("k = 0 is only an eigenvalue of Neumann graphs")
        return [EdgeTrig(0.0, np.full(E, 1.0 / math.sqrt(m.total_length)), np.zeros(E))]
    mult = multiplicity_at(m, k)
    if mult <= 0:
        raise NoEigenspaceError(f"k = {k} is not an eigenvalue")
    return _eigenbasis(m, k, mult)


def _eigenbasis(m: MetricGraph, k: float, mult: int) -> list[EdgeTrig]:
    """The eigenspace at a level k > 0 whose multiplicity mult has been
    counted: the last mult right singular vectors of `_vertex_system`,
    orthonormalized in L^2 through their Gram matrix."""
    E = m.graph.edge_count
    null = np.linalg.svd(_vertex_system(m, k))[2][-mult:]
    evals, evecs = np.linalg.eigh(_gram(k, null[:, :E], null[:, E:], m.lengths))
    basis = (evecs / np.sqrt(evals)).T @ null
    return [EdgeTrig(k, coeffs[:E], coeffs[E:]) for coeffs in map(_signed, basis)]


def vertex_condition_residual(m: MetricGraph, f: EdgeTrig) -> float:
    """Worst violation of the vertex conditions, scaled for unit-norm f.

    At a Dirichlet vertex it is the largest |f| at its edge ends;
    elsewhere the larger of the spread of f over its edge ends and
    |sum f' - alpha f| / max(1, |k|), f' the outgoing derivatives and f
    taken at the vertex's first end.
    """
    g = m.graph
    value, slope = f.at_ends(m.lengths)
    low, high = g.end_range(value)
    dirichlet = np.isinf(m.alpha)
    alpha = np.where(dirichlet, 0.0, m.alpha)
    first = np.unique(g.ends, return_index=True)[1]
    flux = np.bincount(g.ends, weights=slope, minlength=g.vertex_count) - alpha * value[first]
    free = np.maximum(high - low, np.abs(flux) / max(1.0, abs(f.k)))
    return float(np.where(dirichlet, np.maximum(high, -low), free).max())


# ---------------------------------------------------------------------------
# Rayleigh quotients of test functions
# ---------------------------------------------------------------------------


def harmonic_interpolant(m: MetricGraph, vertex_values, freq: float) -> EdgeTrig:
    """The unique f with f'' + freq^2 f = 0 on edges matching the vertex values.

    Needs freq * l_e < pi on every edge so the interpolation is well posed.
    """
    _require_k("freq", freq)
    if freq * float(m.lengths.max()) >= math.pi:
        raise InvalidInputError("need 0 < freq < pi / max edge length")
    vals = np.asarray(vertex_values, dtype=float)
    if vals.shape != (m.graph.vertex_count,):
        raise InvalidInputError("need one value per vertex")
    start, end = vals[m.graph.ends].reshape(2, m.graph.edge_count)
    kl = freq * m.lengths
    return EdgeTrig(freq, start, (end - start * np.cos(kl)) / np.sin(kl))


def _energy_and_norm(m: MetricGraph, f: EdgeTrig) -> tuple[float, float]:
    """The Dirichlet energy int f'^2 and the squared L^2 norm of a test function.

    f must be finite, nonzero and continuous at every vertex (its values
    at the ends there agree within 1e-8 max(1, max |f|)).  On each edge
    f'^2 + k^2 f^2 is the constant energy, so int f'^2 = sum_e energy_e l_e
    - k^2 ||f||^2.
    """
    E = m.graph.edge_count
    if f.amp_cos.size != E:
        raise InvalidInputError(f"test function needs one amplitude pair on each of the {E} edges")
    if not (math.isfinite(f.k) and np.isfinite(f.amp_cos).all() and np.isfinite(f.amp_sin).all()):
        raise InvalidInputError("test function must be finite")
    value = f.at_ends(m.lengths)[0]
    low, high = m.graph.end_range(value)
    jumps = np.flatnonzero(high - low > 1e-8 * max(float(np.abs(value).max()), 1.0))
    if jumps.size:
        raise InvalidInputError(f"test function discontinuous at vertex {jumps[0]}")
    norm_sq = f.norm_sq(m.lengths)
    if norm_sq <= 1e-300:
        raise InvalidInputError("test function is zero")
    return float(f.energies() @ m.lengths) - f.k**2 * norm_sq, norm_sq


def rayleigh(m: MetricGraph, f: EdgeTrig) -> float:
    """Rayleigh quotient int f'^2 / int f^2 of a continuous test function."""
    energy, norm_sq = _energy_and_norm(m, f)
    return energy / norm_sq


def rayleigh_centered(m: MetricGraph, f: EdgeTrig) -> float:
    """Rayleigh quotient of f minus its best constant (zero-mean shift)."""
    energy, norm_sq = _energy_and_norm(m, f)
    if f.k == 0.0:
        integral = float(f.amp_cos @ m.lengths)
    else:
        kl = f.k * m.lengths
        integral = float(f.amp_cos @ np.sin(kl) + f.amp_sin @ (1.0 - np.cos(kl))) / f.k
    denom = norm_sq - integral**2 / m.total_length
    if denom <= 1e-300:
        raise InvalidInputError("test function is constant")
    return energy / denom


# ---------------------------------------------------------------------------
# negative spectrum (attractive delta couplings)
# ---------------------------------------------------------------------------


class _HyperbolicCount(_Count):
    """Negative levels lambda = -kappa^2 in the variable kappa > 0.

    The hyperbolic vertex matrix H(kappa) = diag alpha + (kappa/2) C
    diag(tanh(kappa l/2), coth(kappa l/2)) C^T (diagonal sum_e kappa
    coth(kappa l_e) + alpha_v, off-diagonal -kappa csch(kappa l_e), a loop
    2 kappa tanh(kappa l/2)) grows with kappa and has n_-(H) = number of
    eigenvalues below -kappa^2, so n_-(-H(kappa)) counts, up to a
    constant, the levels with kappa_j < kappa.  There are no poles.
    """

    def matrix(self, kappa: float) -> np.ndarray:
        t = np.tanh(0.5 * kappa * self.lengths)
        d = 0.5 * kappa * np.concatenate([t, 1.0 / t])
        return -(np.diag(self.alpha) + (self.coupling * d) @ self.coupling.T)


def negative_spectrum(m: MetricGraph) -> list[Eigenpair]:
    """Negative-eigenvalue branch, reported as k = -kappa (so lambda = -kappa^2).

    The levels are those of the hyperbolic count between kappa = 1e-9 and
    a kappa where the hyperbolic vertex matrix is positive definite.
    """
    if (m.alpha >= 0).all():
        return []
    count = _HyperbolicCount(m)
    kappa_hi = 1.0
    for _ in range(80):
        if count.sample(kappa_hi).count == count.alpha.size:
            break
        kappa_hi *= 2.0
    levels = _drive([_level_search(count, 1e-9, kappa_hi)])[0]
    return [Eigenpair(-kappa, mult) for kappa, mult in reversed(levels)]
