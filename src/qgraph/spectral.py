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
Q = 0).  The Schur complement of the two edge blocks is the vertex matrix
with diagonal sum_e k cot(k l_e) + alpha_v and off-diagonal -k csc(k l_e);
K keeps every entry analytic in k, so no pole cancels.  The first term
jumps at the poles k l_e / pi in Z, and the count is never taken within
_POLE_WINDOW of one.

One level finder serves every spectrum.  It bisects on N until a bracket
holds levels and no pole, then runs regula falsi (Illinois) on the
eigenvalue of K that crosses zero in it; a bracket that shrinks inside a
pole window is reported as the pole itself.  The multiplicity of a level
r is N(r + d) - N(r - d) with d = max(1e-10 r, 1e-9), with no threshold
on any matrix; levels closer than d merge into one.  Negative
eigenvalues lambda = -kappa^2 of attractive delta couplings go through
the same finder with the hyperbolic vertex matrix, see `negative_spectrum`.

The finder is a generator, `_level_search`: it yields each k whose count
matrix it needs and is sent that matrix's eigenvalues.  Two drivers run
it.  `_run` evaluates one matrix at a time and serves single spectra.
`_run_lockstep` advances many searches of one graph that differ in their
vertex conditions, as the rows of a delta sweep do; at each step it
builds their matrices at once with `_TrigCount.matrices` and calls one
stacked eigvalsh.  The stacked build forms every entry as `matrix` does,
so each search sees the same values under either driver.

Eigenfunctions come from the bond-scattering secular equation.  Every
edge contributes two directed bonds; on bond b the solution of
-f'' = k^2 f is a^in e^{-ikx} + a^out e^{ikx}.  Collecting the incoming
amplitudes into a vector a of size 2E, the vertex conditions force
a = U(k) a with the unitary U(k) = e^{ikL} J Sigma(k), where L is the
diagonal of bond lengths, J the bond-reversal permutation and Sigma the
block-diagonal vertex scattering matrix.  At a level of multiplicity m
the eigenspace is spanned by the m smallest singular vectors of I - U(k).

Vertex scattering blocks:
    Neumann           2/d - delta_{ee'}
    Dirichlet         -delta_{ee'}
    delta-type        -delta_{ee'} + 2/(d + i alpha/k), alpha = tan(theta/2)

The k = 0 eigenvalue of a Neumann graph (constant eigenfunction) is
handled symbolically; U(0) is degenerate and never evaluated.
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
from .graph import (
    MetricGraph,
    condition_alpha,
    is_dirichlet,
    is_neumann,
)

_POLE_WINDOW = 1e-11   # the count is never taken this close (in k l_e / pi) to a pole
_MULT_PROBE = 1e-10    # relative offset of the two counts whose difference is a multiplicity,
_MULT_FLOOR = 1e-9     # and its least absolute value, for levels near k = 0
_MAX_LEVELS = 10_000   # most levels one search resolves

# a level search yields each k whose count matrix it needs and is sent that
# matrix's eigenvalues, ascending; it returns its result
_Search = Generator[float, np.ndarray, object]


# ---------------------------------------------------------------------------
# bond scattering matrix
# ---------------------------------------------------------------------------


class BondScattering:
    """Precomputed bond structure of a metric graph.

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

        origin = np.empty(2 * E, dtype=int)
        for e, (u, v) in enumerate(g.edges):
            origin[e] = u
            origin[e + E] = v
        self.bond_origin = origin

        deg = g.degrees()
        base = np.zeros((2 * E, 2 * E))
        delta_terms: list[tuple[float, int, np.ndarray]] = []
        for v in range(g.vertex_count):
            bonds = np.nonzero(origin == v)[0]
            d = len(bonds)
            assert d == deg[v]
            cond = m.conditions[v]
            if is_neumann(cond):
                base[np.ix_(bonds, bonds)] += 2.0 / d
                base[bonds, bonds] -= 1.0
            elif is_dirichlet(cond):
                base[bonds, bonds] -= 1.0
            else:
                base[bonds, bonds] -= 1.0
                mask = np.zeros((2 * E, 2 * E))
                mask[np.ix_(bonds, bonds)] = 1.0
                delta_terms.append((condition_alpha(cond), d, mask))
        self.sigma_base = base
        self.delta_terms = delta_terms

    def sigma(self, k: float) -> np.ndarray:
        if not self.delta_terms:
            return self.sigma_base
        out = self.sigma_base.astype(complex)
        for alpha, d, mask in self.delta_terms:
            out = out + (2.0 / (d + 1j * alpha / k)) * mask
        return out

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


def secular_value(m: MetricGraph, k: float) -> float:
    """Smallest singular value of I - U(k); zero exactly at eigenvalues."""
    if k <= 0:
        raise InvalidInputError("secular_value needs k > 0; k = 0 is handled symbolically")
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
    """N(k) = poles(k) + offset + n_-(matrix(k)), nondecreasing in k.

    Both counts couple the non-Dirichlet vertices to the edges through the
    incidence C = diag(s) [P | Q] (module docstring) and the couplings
    alpha s^2.  The congruence diag(s), s = 1 / sqrt(max(1, |alpha|)),
    keeps the inertia and stops a near-Dirichlet coupling from swamping
    the other entries.
    """

    offset = 0

    def __init__(self, m: MetricGraph) -> None:
        g = m.graph
        self.graph = g
        keep = [v for v in range(g.vertex_count) if not is_dirichlet(m.conditions[v])]
        row = {v: i for i, v in enumerate(keep)}
        E = g.edge_count
        # columns 0..E-1 hold P, columns E..2E-1 hold Q
        coupling = np.zeros((len(keep), 2 * E))
        for e, (u, v) in enumerate(g.edges):
            for w, sign in ((u, 1.0), (v, -1.0)):
                if w in row:
                    coupling[row[w], e] += 1.0
                    coupling[row[w], E + e] += sign
        alpha = np.array([condition_alpha(m.conditions[v]) for v in keep])
        s = 1.0 / np.sqrt(np.maximum(1.0, np.abs(alpha)))
        self.coupling = coupling * s[:, None]
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

    def made(self, k: float, evals: np.ndarray) -> _Sample:
        """The sample at k, from the eigenvalues of matrix(k)."""
        poles = self.poles(k)
        return _Sample(k, poles + self.offset + int(np.count_nonzero(evals < 0.0)), poles, evals)

    def sample(self, k: float) -> _Sample:
        return self.made(k, np.linalg.eigvalsh(self.matrix(k)))

    def off_pole(self, k: float, direction: float) -> float:
        """k itself, or the first point past its pole window in the given direction."""
        hit = self.pole_near(k)
        while hit is not None:
            pole, half = hit
            k = pole + direction * 2.0 * half
            hit = self.pole_near(k)
        return k


class _TrigCount(_Count):
    """The count of the eigenvalues lambda < k^2, k > 0 (module docstring)."""

    def __init__(self, m: MetricGraph) -> None:
        super().__init__(m)
        self.offset = -2 * self.lengths.size

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
        """counts[j].matrix(ks[j]) for counts sharing their lengths, stacked;
        coupling[j] and alpha[j] are those of counts[j].

        Every entry is formed by the same operations, in the same order, as
        in `matrix`, so the two agree bit for bit.
        """
        b, nv = alpha.shape
        n = nv + 2 * lengths.size
        half = (0.5 * ks)[:, None] * lengths
        trig = np.concatenate([np.sin(half), np.cos(half)], axis=1)
        edge = 0.5 * np.sin(2.0 * half)
        K = np.zeros((b, n, n))
        K[:, :nv, nv:] = np.sqrt(0.5 * ks)[:, None, None] * coupling * trig[:, None, :]
        K[:, nv:, :nv] = K[:, :nv, nv:].transpose(0, 2, 1)
        K.reshape(b, n * n)[:, :: n + 1] = np.concatenate([alpha, edge, -edge], axis=1)
        return K

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


def _illinois(lo: _Sample, hi: _Sample) -> _Search:
    """The lowest level of a pole-free bracket.

    With i = n_-(matrix) at lo, the i-th eigenvalue is positive at lo,
    negative at hi and changes sign exactly at the lowest level in between.
    """
    i = int(np.count_nonzero(lo.evals < 0.0))
    a, fa, b, fb = lo.k, float(lo.evals[i]), hi.k, float(hi.evals[i])
    tol = 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
    side = 0
    while b - a > tol:
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = float((yield c)[i])
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
        s = count.made(mid, (yield mid))
        seen.append(s)
        if s.count > lo.count:
            hi = s
        else:
            lo = s
    return (yield from _illinois(lo, hi))


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
    below = lo if lo is not None and below_k <= lo.k else count.made(below_k, (yield below_k))
    above_k = count.off_pole(r + width, 1.0)
    return below, count.made(above_k, (yield above_k))


def _level_search(count: _Count, k_lo: float, k_hi: float, first_only: bool = False) -> _Search:
    """Levels in (k_lo, k_hi] with their multiplicities, ascending."""
    lo_k = count.off_pole(k_lo, -1.0)
    lo = count.made(lo_k, (yield lo_k))
    # a level sitting on k_hi belongs to the range
    hi_k = count.off_pole(k_hi + _merge_width(k_hi), 1.0)
    hi = count.made(hi_k, (yield hi_k))
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


def _run(count: _Count, search: _Search):
    """The result of a search, evaluating its count matrices one at a time."""
    k = next(search)
    while True:
        try:
            k = search.send(np.linalg.eigvalsh(count.matrix(k)))
        except StopIteration as stop:
            return stop.value


def _run_lockstep(jobs: list[tuple[_TrigCount, _Search]]) -> list:
    """The results of many searches on one graph, advanced in lockstep.

    The searches may differ in their vertex conditions only.  At each step
    the points they wait for are grouped by matrix size (a Dirichlet vertex
    drops its row), and each group costs one stacked build and one stacked
    eigvalsh.  Every search is sent the eigenvalues `_run` would send it.
    """
    if not jobs:
        return []
    counts = [count for count, _ in jobs]
    lengths, graph = counts[0].lengths, counts[0].graph
    assert all(c.graph == graph and np.array_equal(c.lengths, lengths) for c in counts)
    by_size: dict[int, list[int]] = {}
    for j, c in enumerate(counts):
        by_size.setdefault(c.alpha.size, []).append(j)
    groups = [
        (js, np.stack([counts[j].coupling for j in js]), np.stack([counts[j].alpha for j in js]))
        for js in by_size.values()
    ]
    pending = {j: next(search) for j, (_, search) in enumerate(jobs)}
    results: list = [None] * len(jobs)
    while pending:
        for js, coupling, alpha in groups:
            rows = [i for i, j in enumerate(js) if j in pending]
            if not rows:
                continue
            ks = np.array([pending[js[i]] for i in rows])
            evals = np.linalg.eigvalsh(_TrigCount.matrices(coupling[rows], alpha[rows], lengths, ks))
            for i, ev in zip(rows, evals):
                j = js[i]
                try:
                    pending[j] = jobs[j][1].send(ev)
                except StopIteration as stop:
                    results[j] = stop.value
                    del pending[j]
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

    def expanded(self, n_max: int | None = None) -> list[float]:
        out: list[float] = []
        for p in self.eigenpairs:
            out.extend([p.k] * p.multiplicity)
            if n_max is not None and len(out) >= n_max:
                return out[:n_max]
        return out

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


def _positive_search(m: MetricGraph, k_max: float, k_min: float) -> tuple[_TrigCount, _Search]:
    if k_max <= 0:
        raise InvalidInputError("k_max must be positive")
    count = _TrigCount(m)
    return count, _level_search(count, max(k_min, _k_floor(m)), k_max)


def _spectrum(m: MetricGraph, levels: list[tuple[float, int]], k_min: float) -> Spectrum:
    pairs = [Eigenpair(k, mult) for k, mult in levels]
    if m.is_neumann_graph() and k_min == 0.0:
        pairs.insert(0, Eigenpair(0.0, 1))
    return Spectrum(tuple(pairs))


def eigenvalues(m: MetricGraph, k_max: float, k_min: float = 0.0) -> Spectrum:
    """All eigenvalues in (k_min, k_max], prepending k = 0 for Neumann graphs."""
    return _spectrum(m, _run(*_positive_search(m, k_max, k_min)), k_min)


def eigenvalues_lockstep(ms: list[MetricGraph], k_max: float) -> list[Spectrum]:
    """eigenvalues(m, k_max) for every m, searched in lockstep.

    The graphs share their edges and lengths and differ in vertex
    conditions only, as the rows of a delta sweep do.
    """
    levels = _run_lockstep([_positive_search(m, k_max, 0.0) for m in ms])
    return [_spectrum(m, lv, 0.0) for m, lv in zip(ms, levels)]


def multiplicity_at(m: MetricGraph, k: float) -> int:
    """The number of eigenvalues at k > 0, counted as N(k + d) - N(k - d) with
    d the merge width; zero when k is not an eigenvalue."""
    if k <= 0:
        raise InvalidInputError("multiplicities are counted for k > 0 only")
    count = _TrigCount(m)
    below, above = _run(count, _around(count, k))
    return above.count - below.count


def gap_upper_bound(m: MetricGraph) -> float:
    """Safe search cap: pi E / L (equilateral flower) plus 2 pi / L for the circle."""
    return math.pi * (m.graph.edge_count + 2) / m.total_length


def spectral_gap(m: MetricGraph) -> tuple[float, int]:
    """Smallest positive eigenvalue and its multiplicity, searched below the
    universal gap bound."""
    count = _TrigCount(m)
    levels = _run(count, _level_search(count, _k_floor(m), gap_upper_bound(m), first_only=True))
    if not levels:
        raise NoEigenspaceError("no eigenvalue found below the universal bound")
    return levels[0]


def gap_reaches(m: MetricGraph, k: float) -> bool:
    """spectral_gap(m)[0] >= k, decided by two counts.

    The gap reaches k when no level lies between the point where
    `spectral_gap` starts its search and k: N(k) <= N(k_floor), both
    points moved below any pole window they sit in.
    """
    count = _TrigCount(m)
    floor = count.sample(count.off_pole(_k_floor(m), -1.0))
    below = count.sample(count.off_pole(k, -1.0))
    return below.count <= floor.count


# ---------------------------------------------------------------------------
# eigenfunctions: real trigonometric form per edge
# ---------------------------------------------------------------------------


def _int_cc(k: float, l: float) -> float:
    if k == 0.0:
        return l
    return l / 2.0 + math.sin(2.0 * k * l) / (4.0 * k)


def _int_ss(k: float, l: float) -> float:
    if k == 0.0:
        return 0.0
    return l / 2.0 - math.sin(2.0 * k * l) / (4.0 * k)


def _int_cs(k: float, l: float) -> float:
    if k == 0.0:
        return 0.0
    return math.sin(k * l) ** 2 / (2.0 * k)


@dataclass(frozen=True)
class EdgeTrig:
    """Real function A_e cos(kx) + B_e sin(kx) on each edge (x along the edge)."""

    k: float
    amp_cos: tuple[float, ...]
    amp_sin: tuple[float, ...]

    def value(self, e: int, x: float) -> float:
        return self.amp_cos[e] * math.cos(self.k * x) + self.amp_sin[e] * math.sin(self.k * x)

    def derivative(self, e: int, x: float) -> float:
        return self.k * (
            -self.amp_cos[e] * math.sin(self.k * x) + self.amp_sin[e] * math.cos(self.k * x)
        )

    def end_value(self, e: int, end: int, lengths: np.ndarray) -> float:
        return self.value(e, 0.0 if end == 0 else float(lengths[e]))

    def outgoing_derivative(self, e: int, end: int, lengths: np.ndarray) -> float:
        """Derivative pointing from the vertex into the edge."""
        if end == 0:
            return self.derivative(e, 0.0)
        return -self.derivative(e, float(lengths[e]))

    def vertex_value(self, m: MetricGraph, v: int) -> float:
        ends = m.graph.incident_ends(v)
        return self.end_value(*ends[0], m.lengths)

    def norm_sq(self, lengths: np.ndarray) -> float:
        total = 0.0
        for e, l in enumerate(lengths):
            a, b = self.amp_cos[e], self.amp_sin[e]
            total += (
                a * a * _int_cc(self.k, l)
                + b * b * _int_ss(self.k, l)
                + 2.0 * a * b * _int_cs(self.k, l)
            )
        return total

    def inner(self, other: "EdgeTrig", lengths: np.ndarray) -> float:
        total = 0.0
        for e, l in enumerate(lengths):
            a1, b1 = self.amp_cos[e], self.amp_sin[e]
            a2, b2 = other.amp_cos[e], other.amp_sin[e]
            total += (
                a1 * a2 * _int_cc(self.k, l)
                + (a1 * b2 + b1 * a2) * _int_cs(self.k, l)
                + b1 * b2 * _int_ss(self.k, l)
            )
        return total

    def energies(self) -> np.ndarray:
        """Per-edge f'^2 + k^2 f^2 (constant along each edge)."""
        a = np.asarray(self.amp_cos)
        b = np.asarray(self.amp_sin)
        return self.k**2 * (a * a + b * b)

    def max_abs(self, lengths: np.ndarray) -> float:
        best = 0.0
        for e, l in enumerate(lengths):
            l = float(l)
            a, b = self.amp_cos[e], self.amp_sin[e]
            best = max(best, abs(self.value(e, 0.0)), abs(self.value(e, l)))
            if self.k > 0:
                # interior extrema of R cos(kx - phi) sit at kx - phi = m pi
                phi = math.atan2(b, a)
                m_lo = math.ceil(-phi / math.pi)
                m_hi = math.floor((self.k * l - phi) / math.pi)
                if m_hi >= m_lo:
                    best = max(best, math.hypot(a, b))
        return best

    def sample(self, e: int, length: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(0.0, length, n)
        vals = self.amp_cos[e] * np.cos(self.k * xs) + self.amp_sin[e] * np.sin(self.k * xs)
        return xs, vals

    def bond_amplitudes(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex (a_in, a_out) over the 2E directed bonds.

        Forward bonds carry a_in = (A + iB)/2 and a_out = (A - iB)/2; the
        reversed-bond amplitudes follow from a_in(rev) = e^{ikl} a_out.
        """
        A = np.asarray(self.amp_cos, dtype=complex)
        B = np.asarray(self.amp_sin, dtype=complex)
        fwd_in = (A + 1j * B) / 2.0
        fwd_out = (A - 1j * B) / 2.0
        phase = np.exp(1j * self.k * np.asarray(lengths))
        rev_in = phase * fwd_out
        rev_out = np.conj(phase) * fwd_in
        return np.concatenate([fwd_in, rev_in]), np.concatenate([fwd_out, rev_out])


def constant_eigenfunction(m: MetricGraph) -> EdgeTrig:
    c = 1.0 / math.sqrt(m.total_length)
    E = m.graph.edge_count
    return EdgeTrig(0.0, (c,) * E, (0.0,) * E)


def eigenfunction(m: MetricGraph, k: float) -> list[EdgeTrig]:
    """Orthonormal real basis of the eigenspace at k.

    The dimension is the counted multiplicity at k; raises
    NoEigenspaceError when the count finds no eigenvalue there.
    """
    if abs(k) <= 1e-12:
        if not m.is_neumann_graph():
            raise NoEigenspaceError("k = 0 is only an eigenvalue of Neumann graphs")
        return [constant_eigenfunction(m)]
    if k < 0:
        raise InvalidInputError("eigenfunctions are built for k > 0 only")
    mult = multiplicity_at(m, k)
    if mult <= 0:
        raise NoEigenspaceError(f"k = {k} is not an eigenvalue")
    bs = BondScattering(m)
    a = np.eye(bs.n_bonds) - bs.U(k)
    _, _, vh = np.linalg.svd(a)
    null = [row.conj() for row in vh[-mult:]]

    E = m.graph.edge_count
    sigma = bs.sigma(k)
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    for a_in in null:
        a_out = sigma @ a_in
        fwd_in, fwd_out = a_in[:E], a_out[:E]
        candidates.append((np.real(fwd_in + fwd_out), np.imag(fwd_in - fwd_out)))
        candidates.append((np.imag(fwd_in + fwd_out), np.real(fwd_out - fwd_in)))

    # the real and imaginary parts span the real eigenspace: keep its mult
    # leading Gram directions
    trigs = [EdgeTrig(k, tuple(A), tuple(B)) for A, B in candidates]
    gram = np.array([[t1.inner(t2, m.lengths) for t2 in trigs] for t1 in trigs])
    evals, evecs = np.linalg.eigh(gram)
    basis: list[EdgeTrig] = []
    for lam, vec in zip(evals[-mult:], evecs[:, -mult:].T):
        A = sum(c * np.asarray(t.amp_cos) for c, t in zip(vec, trigs)) / math.sqrt(lam)
        B = sum(c * np.asarray(t.amp_sin) for c, t in zip(vec, trigs)) / math.sqrt(lam)
        coeffs = np.concatenate([A, B])
        lead = coeffs[np.argmax(np.abs(coeffs))]
        if lead < 0:
            A, B = -A, -B
        basis.append(EdgeTrig(k, tuple(A), tuple(B)))
    return basis


def vertex_condition_residual(m: MetricGraph, f: EdgeTrig) -> float:
    """Worst violation of the vertex conditions, scaled for unit-norm f."""
    worst = 0.0
    for v in range(m.graph.vertex_count):
        ends = m.graph.incident_ends(v)
        values = [f.end_value(e, end, m.lengths) for e, end in ends]
        derivs = [f.outgoing_derivative(e, end, m.lengths) for e, end in ends]
        cond = m.conditions[v]
        if is_dirichlet(cond):
            worst = max(worst, max(abs(x) for x in values))
            continue
        worst = max(worst, max(values) - min(values))
        alpha = condition_alpha(cond)
        scale = max(1.0, abs(f.k))
        worst = max(worst, abs(sum(derivs) - alpha * values[0]) / scale)
    return worst


# ---------------------------------------------------------------------------
# piecewise trigonometric test functions and Rayleigh quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPiece:
    """amp_cos cos(freq (x - x0)) + amp_sin sin(freq (x - x0)) + offset on [x0, x1]."""

    x0: float
    x1: float
    amp_cos: float
    amp_sin: float
    freq: float
    offset: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    def value(self, x: float) -> float:
        u = x - self.x0
        if self.freq == 0.0:
            return self.amp_cos + self.offset
        return (
            self.amp_cos * math.cos(self.freq * u)
            + self.amp_sin * math.sin(self.freq * u)
            + self.offset
        )

    def integral(self) -> float:
        h = self.width
        if self.freq == 0.0:
            return (self.amp_cos + self.offset) * h
        w = self.freq
        return (
            self.amp_cos / w * math.sin(w * h)
            + self.amp_sin / w * (1.0 - math.cos(w * h))
            + self.offset * h
        )

    def integral_sq(self) -> float:
        h = self.width
        if self.freq == 0.0:
            return (self.amp_cos + self.offset) ** 2 * h
        a, b, c, w = self.amp_cos, self.amp_sin, self.offset, self.freq
        osc = a / w * math.sin(w * h) + b / w * (1.0 - math.cos(w * h))
        return (
            a * a * _int_cc(w, h)
            + b * b * _int_ss(w, h)
            + 2.0 * a * b * _int_cs(w, h)
            + 2.0 * c * osc
            + c * c * h
        )

    def integral_deriv_sq(self) -> float:
        h = self.width
        if self.freq == 0.0:
            return 0.0
        a, b, w = self.amp_cos, self.amp_sin, self.freq
        return w * w * (
            a * a * _int_ss(w, h) + b * b * _int_cc(w, h) - 2.0 * a * b * _int_cs(w, h)
        )


@dataclass(frozen=True)
class PiecewiseTrig:
    """Per-edge lists of trig pieces; continuous test functions on the graph."""

    pieces: tuple[tuple[TrigPiece, ...], ...]

    def edge_value(self, e: int, x: float) -> float:
        for piece in self.pieces[e]:
            if piece.x0 - 1e-12 <= x <= piece.x1 + 1e-12:
                return piece.value(x)
        raise InvalidInputError(f"x = {x} outside the pieces of edge {e}")

    def integral(self) -> float:
        return sum(p.integral() for edge in self.pieces for p in edge)

    def norm_sq(self) -> float:
        return sum(p.integral_sq() for edge in self.pieces for p in edge)

    def dirichlet_energy(self) -> float:
        return sum(p.integral_deriv_sq() for edge in self.pieces for p in edge)


def from_eigenfunction(f: EdgeTrig, lengths: np.ndarray) -> PiecewiseTrig:
    pieces = tuple(
        (TrigPiece(0.0, float(l), f.amp_cos[e], f.amp_sin[e], f.k, 0.0),)
        for e, l in enumerate(lengths)
    )
    return PiecewiseTrig(pieces)


def harmonic_interpolant(m: MetricGraph, vertex_values, freq: float) -> PiecewiseTrig:
    """The unique f with f'' + freq^2 f = 0 on edges matching the vertex values.

    Needs freq * l_e < pi on every edge so the interpolation is well posed.
    """
    if freq <= 0.0 or freq * float(m.lengths.max()) >= math.pi:
        raise InvalidInputError("need 0 < freq < pi / max edge length")
    vals = np.asarray(vertex_values, dtype=float)
    pieces = []
    for e, (u, v) in enumerate(m.graph.edges):
        l = float(m.lengths[e])
        a = vals[u]
        b = (vals[v] - vals[u] * math.cos(freq * l)) / math.sin(freq * l)
        pieces.append((TrigPiece(0.0, l, a, b, freq, 0.0),))
    return PiecewiseTrig(tuple(pieces))


def _check_admissible(m: MetricGraph, f: PiecewiseTrig, tol: float = 1e-8) -> None:
    if len(f.pieces) != m.graph.edge_count:
        raise InvalidInputError("test function must cover every edge")
    scale = 0.0
    for e, edge_pieces in enumerate(f.pieces):
        if not edge_pieces:
            raise InvalidInputError(f"edge {e} has no pieces")
        x = 0.0
        for piece in edge_pieces:
            if abs(piece.x0 - x) > 1e-10:
                raise InvalidInputError(f"pieces on edge {e} do not tile [0, l]")
            x = piece.x1
            scale = max(scale, abs(piece.value(piece.x0)), abs(piece.value(piece.x1)))
        if abs(x - float(m.lengths[e])) > 1e-10:
            raise InvalidInputError(f"pieces on edge {e} do not reach the edge length")
        for p1, p2 in zip(edge_pieces, edge_pieces[1:]):
            if abs(p1.value(p1.x1) - p2.value(p2.x0)) > tol * max(scale, 1.0):
                raise InvalidInputError(f"discontinuity inside edge {e}")
    for v in range(m.graph.vertex_count):
        ends = m.graph.incident_ends(v)
        vals = []
        for e, end in ends:
            x = 0.0 if end == 0 else float(m.lengths[e])
            vals.append(f.edge_value(e, x))
        if max(vals) - min(vals) > tol * max(scale, 1.0):
            raise InvalidInputError(f"test function discontinuous at vertex {v}")


def rayleigh(m: MetricGraph, f: PiecewiseTrig) -> float:
    """Rayleigh quotient of a continuous piecewise-trig test function."""
    _check_admissible(m, f)
    denom = f.norm_sq()
    if denom <= 1e-300:
        raise InvalidInputError("test function is zero")
    return f.dirichlet_energy() / denom


def rayleigh_centered(m: MetricGraph, f: PiecewiseTrig) -> float:
    """Rayleigh quotient of f minus its best constant (zero-mean shift)."""
    _check_admissible(m, f)
    mean_sq = f.integral() ** 2 / m.total_length
    denom = f.norm_sq() - mean_sq
    if denom <= 1e-300:
        raise InvalidInputError("test function is constant")
    return f.dirichlet_energy() / denom


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
    if all(condition_alpha(c) >= 0 for c in m.conditions if not is_dirichlet(c)):
        return []
    count = _HyperbolicCount(m)
    kappa_hi = 1.0
    for _ in range(80):
        if count.sample(kappa_hi).count == count.alpha.size:
            break
        kappa_hi *= 2.0
    levels = _run(count, _level_search(count, 1e-9, kappa_hi))
    return [Eigenpair(-kappa, mult) for kappa, mult in reversed(levels)]
