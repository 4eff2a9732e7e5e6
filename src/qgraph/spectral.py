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

A count of _REDUCE_FROM rows or more takes the vertex form, which
eliminates edge rows first.  With s, c = sin, cos(k l_e / 2), the sin row
of edge e has diagonal s c and coupling sqrt(k/2) s P_e, the cos row
diagonal -s c and coupling sqrt(k/2) c Q_e, and the two rows do not
touch.  The sin row goes with pivot s c and adds -(k/2) tan(k l_e / 2)
P_e P_e^T to the vertex block, the cos row with pivot -s c and adds
(k/2) cot(k l_e / 2) Q_e Q_e^T.  A row stays only where its s^2 or c^2
passes cos^2(pi / 12): one row of each edge near a pole, |sin k l_e| <
1/2, where the other row's |tan| or |cot| is below 2 - sqrt 3.  Both rows
of every other edge go; their |tan| and |cot| are at most 2 + sqrt 3,
and their pivots +-(1/2) sin k l_e are one of each sign.  The choice is
made at every k, so every entry stays bounded, and V' + (edges near a
pole) rows are left.  By Sylvester's law of inertia n_-(K) is the number
of negative pivots plus n_- of what is left.  Below _REDUCE_FROM rows the
elimination costs more than the eigvalsh it saves on the single counts
and small stacks a search steers by, and K is taken whole; the constant
comes from a timing sweep of spectral_gap over flowers, stars and random
graphs (CHANGES.md).  A large stack read for n_- alone, as a sweep's
confirming counts are, takes the vertex form at every size
(`_TrigInertia`): on six catalog graphs with 9-16 rows it costs
0.35-0.6 of the eigvalsh of the whole K on stacks of 128 points, 0.3-0.45
on 512, and 0.55-1.55 times it on 16 (timeit, 2-core machine).  Its
values are unsorted and steer no secant.

The trig count's pole term and pole-window tests (`poles`, `pole_near`,
`lone_pole`, `off_scale`) loop over the lengths as a tuple of Python
floats, built once per count: on a handful of edges that costs less than
numpy's ufuncs, and each value is formed by the same operations, in the
same order, as the array formulas, so it is the same to the bit.

One level finder serves every spectrum.  A range up to k ends at its
top, k plus the merge width (below), moved off any pole window
(`_range_top`), so a level sitting on k belongs to it.  A search of the
whole range (`_level_search`), as `eigenvalues`, `levels` and a sweep's
theta = 0 row take it, first takes one batch of counts: the top and
both window edges of every pole below it, the points where `_split`
would take them.  Each bracket between two of them where N rises is
then searched on its own, all of them in lockstep.  A search of the
first level alone (`_first_level`), as the gap searches and the
optimizer's window above a gap take it, takes the top only, or not even
that where a bound on N there stands in for the count, which bisection
on N never needs: a Neumann graph's gap lies below the cap
(`gap_upper_bound`), so N there is at least one more than at the floor.
Regula falsi takes such a top's spectrum where it reads it.  A search
bisects on N until a bracket holds levels and no pole, then runs regula
falsi on the value of the count's spectrum (below) that crosses zero in
it; a bracket that shrinks inside a pole window is reported as the pole
itself.  Regula falsi scales the value at the end it keeps by
Anderson-Bjorck's m = 1 - f_c / f_old (1/2 where m <= 0) when two steps
in a row replace the same end.  At the
search floor, and within 4 _POLE_WINDOW of a pole, where `off_pole` and
`_split` put their samples, the value it follows is of the size of k or
of the window, and a secant through it creeps along that end; such an
end enters as an infinite value, +inf below the level and -inf above, so
the step bisects until a sample replaces it.  Regula falsi stops once the
secant correction through its last two samples of finite value is within
half the bracket tolerance 4 eps k: past that point the value it follows
is eigvalsh's noise, and a further step only drags the far end in.  A
search knows N at its floor without a count (`_below`).  The form
sum int f'^2 + sum alpha_v f(v)^2 splits orthogonally into the
edgewise-linear interpolant of the vertex values, of energy x^T M0 x with
M0 = diag alpha + Q diag(1/l) Q^T, and a remainder of positive energy
vanishing at every vertex (Berkolaiko-Kuchment, ch. 1): n_-(M0) levels
are negative and lambda = 0 has multiplicity n_0(M0) (`_Count.zero_modes`).
M0 is both vertex matrices' limit at k -> 0, so N = n_- + n_0 at the trig
floor and V' - n_- at the hyperbolic one; a level with 0 < |lambda|
below the floors' scale (k_floor^2 ~ 1e-14) is reported at its floor.  The
multiplicity of a level r is N(r + d) - N(r - d) with d = max(1e-10 r,
1e-9), with no threshold on any matrix; levels closer than d merge into
one.  r is the lowest level of its bracket, so the count at the
bracket's lower end is N(r - d) and is not taken again (`_around`),
save a search's start within d of r, which may hold copies of r.  The
count N(r + d) starts the search of the next level, and a search's
`_Level`s carry it, so a later search of the levels above r starts
there.  In a search of the whole range it may take in levels of the
brackets above r's: they are not reported again, and a bracket it
reaches into is searched again from it (`_level_search`).  Negative
eigenvalues lambda = -kappa^2 of attractive delta couplings go through
the same finder with the hyperbolic vertex matrix (`_negative_search`),
searched as a whole range from its floor to a top that a diagonal bound
on that matrix gives in closed form, with no count (`_HyperbolicCount.top`).
A delta sweep's rows take theirs from the vertex function of the theta
= 0 hyperbolic count (below) instead, in one Newton lockstep with their
positive levels, and confirm them with their own hyperbolic counts
(`dispersion`); the theta = 0 row still searches its negative levels
here.

Each finder is a generator: it yields a request, the count and a k
where it needs that count, and is sent the count's spectrum there,
V' + 2E ascending values with the inertia of K.  A whole K sends its
eigenvalues.  The vertex form sends its matrix's
eigenvalues between -inf for each negative pivot and +inf for each
positive one, one of each for an edge whose rows both go.  So the count,
and the index n_- that regula falsi follows across a bracket, are those
of K; the value at that index jumps where an edge's rows start or stop
going, but its sign does not.  Where a bracket end's value is infinite,
a stand-in or an off-scale end, the secant is nan and the finder
bisects.  Every search built on them (`_gap_search`, `_reaches`,
`_eigenvalue_search`, `_negative_search`, `_around`) is a generator of
the same kind, and one driver runs any number of them together and takes
every count any of them needs, a group of one matrix shape in one
stacked `spectra` (`_lockstep`).  A search that knows points in advance
asks for them as one batch, as a search of the whole range asks for its
first points.  The public functions drive one search each; the graphs of
`levels`, the restarts of the optimizer and each ascent's contract probes
drive theirs together.  The counts that confirm the levels of a
dispersion curve's rows are all known before any is taken, so they go
through no search: the rows of one matrix shape take them in one direct
`spectra` call (`_vertex_rows`, `dispersion`), and `_Count.counts` turns
them into N in arrays.

Each count also gives the vertex function G = (M^-1)_vv of a vertex v
and its derivative dG = -x^T M' x, x = M^-1 e_v, in the count's own
variable, from one stacked solve with its bordered matrix M
(`_Count.vertex_function`, `bordered`).  The trig count's M is K, and
K' has the vertex-edge block C d/dk [sqrt(k/2) (sin, cos)(k l/2)] and
the edge diagonal +-(l/2) cos(k l).  The hyperbolic count's vertex
matrix H (`_HyperbolicCount`) is the Schur complement of the edge block
-diag(t, t), t = tanh(kappa l/2), of

    B = [[diag alpha, sqrt(kappa/2) C diag(t, 1)], [., -diag(t, t)]],

so h = (H^-1)_vv is (B^-1)_vv.  Near kappa = 0 the kappa^2 part of H,
which sets h near a pole at lambda = 0, is below the rounding of H's
entries, but B keeps it in entries of its own, as K does for g.  For a y
whose edge rows of B y vanish, as y = B^-1 e_v, y^T B' y = sum_e y_e^2
times (t + z sech^2 z) / kappa on the P half and (t - z sech^2 z) /
kappa on the Q half, z = kappa l/2.

Eigenfunctions come from the vertex conditions on the edge ends
(Berkolaiko-Kuchment, cited above).  On edge e an eigenfunction is
f = A_e cos kx + B_e sin kx, and each vertex of degree d imposes d real
linear conditions on the 2E coefficients: d - 1 continuity conditions,
and the Kirchhoff/delta condition sum f' = alpha f (f' the outgoing
derivative) or, at a Dirichlet vertex, f = 0.  They form the real
2E x 2E matrix M(k) of `_vertex_matrices`, read from the graph's
template, whose null space is the eigenspace at k > 0, poles of the count
included.  At a level of counted multiplicity m the last m right singular
vectors of M(k) span it; one m x m L^2 Gram matrix (`_gram`)
orthonormalizes them (`_eigenbasis_coeffs`).  The optimizer's edge
energies read these rows as they are, since the energies do not depend
on a basis function's sign.  At k = 0 a Neumann graph's eigenspace, the
constants, is given symbolically; any other graph's zero modes are not
constant on some edge.

`EdgeTrig` is the one representation of such functions.  The vertex
conditions are read from the values and outgoing derivatives at the 2E
edge ends, `EdgeTrig.at_ends`.

`BondScattering` is on no solver path.  It stays here as the tests'
independent oracle and as a target of the benchmark's layer tracer
(perfbench/layers.py), which wraps it by name: on bond b the solution
of -f'' = k^2 f is a^in e^{-ikx} + a^out e^{ikx}, and the vertex
conditions force a = U(k) a with the unitary U(k) = e^{ikL} J Sigma(k),
where L is the diagonal of bond lengths, J the bond-reversal permutation
and Sigma the block-diagonal vertex scattering matrix:
    Neumann           2/d - delta_{ee'}
    Dirichlet         -delta_{ee'}
    delta-type        -delta_{ee'} + 2/(d + i alpha/k), alpha = tan(theta/2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidInputError,
    NoEigenspaceError,
    NotApplicableError,
    ResourceBudgetError,
)
from ._lockstep import _drive, _Search, _together
from .graph import MetricGraph, _integer

_POLE_WINDOW = 1e-11   # the count is never taken this close (in k l_e / pi) to a pole
_MULT_PROBE = 1e-10    # relative offset of the two counts whose difference is a multiplicity,
_MULT_FLOOR = 1e-9     # and its least absolute value, for levels near k = 0
_MAX_LEVELS = 10_000   # most levels one search resolves
_REDUCE_FROM = 32      # counts of this many rows (V' + 2E) and more take the vertex form
_BATCH_POLES = 256     # most poles whose window edges a level search takes in its first batch


# ---------------------------------------------------------------------------
# bond scattering matrix (oracle)
# ---------------------------------------------------------------------------


class BondScattering:
    """The bond-scattering matrix U(k) of a metric graph, kept as an oracle.

    No solver path builds it: the tests check the counted levels and the
    eigenfunctions against it, and the benchmark's layer tracer wraps it
    by name (module docstring).
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


# ---------------------------------------------------------------------------
# eigenvalue count and the level finder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sample:
    """The count at one point: N, its pole term, and the count matrix's spectrum."""

    k: float
    count: int
    poles: int
    # None where the count is known without a matrix: a search's floor
    # (`floor_sample`), and a first-level search's top where a lower bound
    # stands in for it (`_first_level`)
    evals: np.ndarray | None


def _zero_inertia(q: np.ndarray, alpha: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n_-, n_0) of every M0 = diag alpha[j] + q[j] diag(1/l) q[j]^T of a stack,
    in one eigvalsh.  An eigenvalue counts as zero within n eps times the
    larger of max |mu| and the largest |alpha_v| + sum_e q_ve^2 / l_e: within
    eigvalsh's backward error, or within the rounding of M0's own entries
    where their terms cancel, as in a 1 x 1 M0 = 1/l + alpha with alpha one
    ulp from -1/l."""
    b, nv = alpha.shape
    M = (q / lengths) @ q.transpose(0, 2, 1)
    terms = np.abs(alpha) + M.reshape(b, nv * nv)[:, :: nv + 1]
    M.reshape(b, nv * nv)[:, :: nv + 1] += alpha
    mu = np.linalg.eigvalsh(M)
    scale = np.maximum(np.abs(mu).max(axis=1, initial=0.0), terms.max(axis=1, initial=0.0))
    noise = (nv * np.finfo(float).eps * scale)[:, None]
    return np.count_nonzero(mu < -noise, axis=1), np.count_nonzero(np.abs(mu) <= noise, axis=1)


def _scaled(incidence: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coupling and alpha of non-Dirichlet vertices with these incidence
    rows and couplings, a row or a stack of rows (`_Count`)."""
    s = 1.0 / np.sqrt(np.maximum(1.0, np.abs(alpha)))
    return incidence * s[..., None], alpha * s * s


class _Count:
    """N(k) = poles(k) + offset + n_-(K(k)), nondecreasing in k, counted
    from spectrum(k), which has the inertia of the count matrix K(k).

    Both counts couple the non-Dirichlet vertices to the edges through the
    incidence C = diag(s) [P | Q] (module docstring) and the couplings
    alpha s^2.  The congruence diag(s), s = 1 / sqrt(max(1, |alpha|)),
    keeps the inertia and stops a near-Dirichlet coupling from swamping
    the other entries.  [P | Q] is the graph's own `incidence`, built once
    per graph: a count takes its non-Dirichlet rows and scales them, and
    on a Neumann graph (every s = 1, every alpha = 0) uses it as it is.
    Each count defines the stacked `spectra` that every count request goes
    through, and `bordered`, the matrix of its `vertex_function`.  The
    rows of a delta sweep share one count's arrays with one vertex's
    coupling changed, one stack per matrix shape (`_vertex_rows`).
    """

    offset = 0
    floor = math.nan   # where a search of all the count's levels starts; set by each count

    def __init__(self, m: MetricGraph, zero_modes: tuple[int, int] | None = None) -> None:
        g = m.graph
        if zero_modes is not None:   # taken by another count of m
            self.zero_modes = zero_modes
        self.graph = g
        self.vertex_alpha = m.alpha   # of every vertex, inf at the Dirichlet ones, which have no row
        self.neumann = m.is_neumann_graph()
        if self.neumann:
            self.coupling, self.alpha = g.incidence, m.alpha
        else:
            keep = np.isfinite(m.alpha)
            self.coupling, self.alpha = _scaled(g.incidence[keep], m.alpha[keep])
        self.lengths = np.asarray(m.lengths, dtype=float)

    def row(self, v: int) -> int:
        """The row of vertex v among the count's non-Dirichlet vertices."""
        return int(np.count_nonzero(np.isfinite(self.vertex_alpha[:v])))

    def vertex_function(self, row: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = (M^-1)_vv and dG/ds = -x^T M' x, x = M^-1 e_v, at every s of s,
        the count's own variable (k or kappa), with M its `bordered` matrix
        and v its row `row` (module docstring): one stacked solve."""
        M, form = self.bordered(s)
        unit = np.zeros((s.size, M.shape[1], 1))
        unit[:, row] = 1.0
        try:
            x = np.linalg.solve(M, unit)[:, :, 0]
        except np.linalg.LinAlgError:   # singular to working precision, within ulps of a pole of G
            return self.vertex_function(row, np.nextafter(s, np.inf))
        return x[:, row], -form(x)

    @cached_property
    def zero_modes(self) -> tuple[int, int]:
        """(n_-, n_0) of M0 (module docstring), scaled as the count is; a Neumann graph's is (0, 1)."""
        if self.neumann:
            return 0, 1
        n_minus, n_zero = _zero_inertia(self.coupling[None, :, self.lengths.size :], self.alpha[None], self.lengths)
        return int(n_minus[0]), int(n_zero[0])

    def poles(self, k: float) -> int:
        return 0

    def pole_near(self, k: float) -> tuple[float, float] | None:
        """(pole, half-width of its window) when k lies inside that window."""
        return None

    def off_scale(self, k: float) -> bool:
        """Whether the spectrum at k is too small to steer a secant: at the
        search floor, and within 4 _POLE_WINDOW of a pole (`_illinois`)."""
        return k == self.floor

    def spectrum(self, k: float) -> np.ndarray:
        """Ascending values with the inertia of K(k): `spectra` of the stack
        of this count alone."""
        return self.spectra(self.coupling[None], self.alpha[None], self.lengths, np.array([k]))[0]

    def made(self, k: float, evals: np.ndarray) -> _Sample:
        """The sample at k, from spectrum(k)."""
        poles = self.poles(k)
        return _Sample(k, poles + self.offset + int(np.count_nonzero(evals < 0.0)), poles, evals)

    def counts(self, ks: np.ndarray, spectra: np.ndarray) -> np.ndarray:
        """N at every k of ks, from the spectra there stacked: `made(k,
        spectra[j]).count` in arrays."""
        return self.offset + np.count_nonzero(spectra < 0.0, axis=1)

    def off_pole(self, k: float, direction: float) -> float:
        """k itself, or the first point past its pole window in the given direction."""
        hit = self.pole_near(k)
        while hit is not None:
            pole, half = hit
            k = pole + direction * 2.0 * half
            hit = self.pole_near(k)
        return k

    def off_poles(self, ks: np.ndarray, direction: float) -> np.ndarray:
        """`off_pole` at every k of ks."""
        return ks

    def window_edges(self, a: float, b: float) -> np.ndarray:
        """Both window edges of each of the lowest _BATCH_POLES poles in
        (a, b), where `_split` takes them, those inside (a, b), ascending."""
        return np.empty(0)


class _VertexRows(NamedTuple):
    """The counts of a delta sweep's rows of one matrix shape (`_vertex_rows`)."""

    at: np.ndarray         # the index of each row among the couplings
    coupling: np.ndarray   # (rows, V', 2E)
    alpha: np.ndarray      # (rows, V')
    n_minus: np.ndarray    # n_- and n_0 of each row's M0 (`_Count.zero_modes`)
    n_zero: np.ndarray


def _vertex_rows(count: _Count, v: int, alphas: np.ndarray) -> list[_VertexRows]:
    """The count with the coupling alphas[j] at its non-Dirichlet vertex v,
    as a delta sweep's rows are, one stack per matrix shape: the rows of
    finite alphas, then those of infinite ones, where that row goes.  Each
    is the count of the graph with that vertex's condition changed, built
    without the graph: only that row changes, so every other entry keeps
    its bits.  The M0 of each stack take one `_zero_inertia`."""
    row = count.row(v)
    finite = np.isfinite(alphas)
    out = []
    for at in (np.flatnonzero(finite), np.flatnonzero(~finite)):
        if not at.size:
            continue
        coupling, alpha = count.coupling, count.alpha
        if not finite[at[0]]:
            coupling, alpha = np.delete(coupling, row, axis=0), np.delete(alpha, row)
        coupling, alpha = np.repeat(coupling[None], at.size, axis=0), np.repeat(alpha[None], at.size, axis=0)
        if finite[at[0]]:
            coupling[:, row], alpha[:, row] = _scaled(count.graph.incidence[v], alphas[at])
        q = coupling[:, :, count.lengths.size :]   # the Q half
        out.append(_VertexRows(at, coupling, alpha, *_zero_inertia(q, alpha, count.lengths)))
    return out


class _TrigCount(_Count):
    """The count of the eigenvalues lambda < k^2, k > 0 (module docstring).

    Its spectrum is the whole K's eigenvalues below _REDUCE_FROM rows, and
    from there on the stand-in spectrum of the vertex form (`spectra`).
    """

    def __init__(self, m: MetricGraph) -> None:
        super().__init__(m)
        self.offset = -2 * self.lengths.size
        self.floor = _k_floor(m)
        self.edge_lengths = tuple(self.lengths.tolist())   # for the pole bookkeeping

    @staticmethod
    def matrices(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """The whole K of counts[j] at ks[j] for counts of one shape, stacked;
        coupling[j], alpha[j] and lengths[j] are those of counts[j], and
        lengths may be one row that every count shares."""
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

    def bordered(self, ks: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """This count's K at every k of ks, stacked, and x -> x^T K'(k) x for a
        stack x of one vector at each k (module docstring)."""
        b, nv = ks.size, self.alpha.size
        E = self.lengths.size

        def form(x: np.ndarray) -> np.ndarray:
            root = np.sqrt(0.5 * ks)[:, None]
            half = (0.5 * ks)[:, None] * self.lengths
            s, c = np.sin(half), np.cos(half)
            dl = 0.5 * self.lengths * root
            dtrig = np.concatenate([s / (4.0 * root) + dl * c, c / (4.0 * root) - dl * s], axis=1)
            xe = x[:, nv:]
            edge = 0.5 * self.lengths * np.cos(2.0 * half) * (xe[:, :E] ** 2 - xe[:, E:] ** 2)
            return 2.0 * ((x[:, :nv] @ self.coupling) * dtrig * xe).sum(axis=1) + edge.sum(axis=1)

        return self.matrices(self.coupling[None], np.broadcast_to(self.alpha, (b, nv)), self.lengths, ks), form

    @staticmethod
    def spectra(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """counts[j].spectrum(ks[j]) for counts of one shape, stacked; the
        arguments are those of `matrices`.

        Below _REDUCE_FROM rows they are the eigenvalues of `matrices`, from
        there on the `vertex_form`'s values, sorted.  Each row is built as it
        is built alone: a single count is the stack of one, so the two agree
        bit for bit.
        """
        b, nv = alpha.shape
        E = lengths.shape[-1]
        if nv + 2 * E < _REDUCE_FROM:
            return np.linalg.eigvalsh(_TrigCount.matrices(coupling, alpha, lengths, ks))
        return np.sort(_TrigCount.vertex_form(coupling, alpha, lengths, ks), axis=1)[:, : nv + 2 * E]

    @staticmethod
    def vertex_form(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Values with the inertia of K at every k, unsorted, from the vertex
        form (module docstring) at any size; the arguments are those of
        `matrices`.

        It keeps V' rows and one of each edge with |sin k l_e| < 1/2.  A row
        holds its matrix's eigenvalues, then nan, then -inf for each negative
        pivot and +inf for each positive one, nan where an edge row stays:
        sorted, the V' + 2E values before the nans.  The rows of a stack are
        grouped by their kept-row count, one eigvalsh per group, and each is
        built as it is built alone.
        """
        b, nv = alpha.shape
        E = lengths.shape[-1]
        half_k = 0.5 * ks[:, None]
        half = half_k * lengths
        trig = np.concatenate([np.sin(half), np.cos(half)], axis=1)   # s of the sin rows, c of the cos rows
        sc = trig[:, :E] * trig[:, E:]
        pivot = np.concatenate([sc, -sc], axis=1)   # their diagonal
        square = trig * trig
        kept = square > 0.9330127018922193   # cos^2(pi / 12) = (2 + sqrt 3) / 4
        w = -half_k * square / pivot   # a row r that goes adds w_r C_r C_r^T: -(k/2) tan, (k/2) cot
        w[kept] = 0.0
        block = (coupling * w[:, None]) @ coupling.transpose(0, 2, 1)
        block.reshape(b, nv * nv)[:, :: nv + 1] += alpha
        edges = (coupling * (np.sqrt(half_k) * trig)[:, None]).transpose(0, 2, 1)
        values = np.full((b, nv + 3 * E), np.nan)
        values[:, nv + E :] = np.where(kept, np.nan, pivot * np.inf)   # no pivot is 0
        groups = [slice(None)]   # rows of one kept-row count, each group taking one eigvalsh
        if b > 1:
            sizes = kept.sum(axis=1)
            groups = [sizes == size for size in set(sizes.tolist())]
        for j in groups:
            mask = kept[j]
            g, n = len(mask), nv + int(np.count_nonzero(mask[0]))
            R = np.zeros((g, n, n))   # eigvalsh reads the lower triangle; the upper right stays 0
            R[:, :nv, :nv] = block[j]
            R[:, nv:, :nv] = edges[j][mask].reshape(g, n - nv, nv)
            R.reshape(g, n * n)[:, nv * (n + 1) :: n + 1] = pivot[j][mask].reshape(g, -1)
            values[j, :n] = np.linalg.eigvalsh(R)
        return values

    def floor_sample(self) -> _Sample:
        return _Sample(self.floor, sum(self.zero_modes), self.poles(self.floor), None)   # lambda <= 0

    def poles(self, k: float) -> int:
        return sum(math.ceil(k * l / math.pi) for l in self.edge_lengths)

    def counts(self, ks: np.ndarray, spectra: np.ndarray) -> np.ndarray:
        poles = np.ceil(ks[:, None] * self.lengths / math.pi).sum(axis=1).astype(int)
        return poles + super().counts(ks, spectra)

    def _pole_within(self, k: float, window: float) -> tuple[int, float] | None:
        """(n, l_e) of the first edge with k l_e / pi within window of an
        integer n > 0 (round is numpy's rint: half to even)."""
        for l in self.edge_lengths:
            x = k * l / math.pi
            n = round(x)
            if 0 < n and abs(x - n) < window:
                return n, l
        return None

    def pole_near(self, k: float) -> tuple[float, float] | None:
        hit = self._pole_within(k, _POLE_WINDOW)
        if hit is None:
            return None
        n, l = hit
        return n * math.pi / l, _POLE_WINDOW * math.pi / l

    def lone_pole(self, a: float, b: float) -> tuple[float, float] | None:
        """(pole, half-width of its window) when (a, b) holds one pole only."""
        poles, shortest = [], math.inf
        for l in self.edge_lengths:
            first = math.ceil(a * l / math.pi)
            inside = math.ceil(b * l / math.pi) - first
            if inside > 1:
                return None
            if inside == 1:
                poles.append(first * math.pi / l)
                shortest = min(shortest, l)
        if not poles:
            return None
        half = _POLE_WINDOW * math.pi / shortest
        # equal lengths, or lengths in integer ratios, share their poles
        if max(poles) - min(poles) > half:
            return None
        return min(poles), half

    def off_scale(self, k: float) -> bool:
        return k == self.floor or self._pole_within(k, 4.0 * _POLE_WINDOW) is not None

    def off_poles(self, ks: np.ndarray, direction: float) -> np.ndarray:
        """`off_pole` in arrays, to the bit: each k moves past the window of the
        first edge whose pole it lies in, until it lies in none."""
        ks = np.array(ks, dtype=float)
        while True:
            x = ks[:, None] * self.lengths / math.pi
            n = np.rint(x)
            inside = (n > 0.0) & (np.abs(x - n) < _POLE_WINDOW)
            hit = np.flatnonzero(inside.any(axis=1))
            if not hit.size:
                return ks
            first = inside[hit].argmax(axis=1)
            l = self.lengths[first]
            ks[hit] = n[hit, first] * math.pi / l + direction * 2.0 * (_POLE_WINDOW * math.pi / l)

    def window_edges(self, a: float, b: float) -> np.ndarray:
        # each edge's poles n pi / l_e above a, n > a l_e / pi, as many as fit in (a, b)
        span = min(_BATCH_POLES, math.ceil((b - a) * max(self.edge_lengths) / math.pi) + 1)
        n = np.floor(a * self.lengths / math.pi)[:, None] + np.arange(1.0, span + 1.0)
        poles = (n * math.pi / self.lengths[:, None]).ravel()
        order = np.argsort(poles)
        order = order[poles[order] < b][:_BATCH_POLES]
        half = _POLE_WINDOW * math.pi / self.lengths[order // span]
        edges = np.sort(np.concatenate([self.off_poles(poles[order] - 2.0 * half, -1.0),
                                        self.off_poles(poles[order] + 2.0 * half, 1.0)]))
        edges = edges[np.diff(edges, prepend=-np.inf) > 0.0]   # poles of equal lengths share their edges
        return edges[(a < edges) & (edges < b)]


class _TrigInertia(_TrigCount):
    """The trig count read for N alone, as the counts that confirm a delta
    sweep's rows are (`dispersion`): its spectra are the `vertex_form`'s
    values at every size, unsorted, so they steer no secant.  On the large
    stacks those counts take, the elimination costs less than the eigvalsh
    of the whole K it saves, below _REDUCE_FROM rows too (module docstring)."""

    spectra = staticmethod(_TrigCount.vertex_form)


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
    """The lowest level of a pole-free bracket, by regula falsi.

    With i = n_- at lo, the i-th value of the count's spectrum is
    nonnegative at lo, negative at hi and changes sign exactly at the
    lowest level in between.  An end where that value is off scale
    (`off_scale`: the search floor and the edges of a pole window, where
    it is of the size of k or of the window) enters as +inf at lo and -inf
    at hi, as the vertex form's stand-ins do: the secant is then nan, and
    the step bisects until a sample replaces that end.  When a step
    replaces the same end as the step before, the value of the end it
    keeps is scaled by m = 1 - f_c / f_old, f_old the value it replaces,
    or by 1/2 where m <= 0 (Anderson-Bjorck; Illinois takes 1/2 always).

    It stops when the bracket is narrower than tol = 4 eps max(|a|, |b|),
    or sooner, once the secant correction through the last two samples of
    finite value, step = f_c (c - c_prev) / (f_c - f_prev), unscaled, is
    at most tol / 2: the followed value has then reached eigvalsh's noise
    floor, and further steps would only drag the far end of the bracket
    in.  It returns c - step, clamped to the bracket.  Python floats carry
    that arithmetic, so it raises no numpy warning.
    """
    i = lo.count - lo.poles - count.offset   # n_- at lo
    a, b = float(lo.k), float(hi.k)
    fa = math.inf if count.off_scale(a) else float(lo.evals[i])
    if count.off_scale(b):
        fb = -math.inf
    else:   # a top known by a bound has no spectrum until it is read here (`_first_level`)
        fb = float((hi.evals if hi.evals is not None else (yield count, b))[i])
    tol = 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
    side = 0
    last = None   # (c, f_c) of the last sample whose value is finite
    while b - a > tol:
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = float((yield count, c)[i])
        if fc > 0.0:
            if side == 1:
                m = 1.0 - fc / fa
                fb *= m if m > 0.0 else 0.5
            a, fa = c, fc
            side = 1
        elif fc < 0.0:
            if side == -1:
                m = 1.0 - fc / fb
                fa *= m if m > 0.0 else 0.5
            b, fb = c, fc
            side = -1
        else:
            return c
        if math.isfinite(fc):
            if last is not None and fc != last[1]:
                step = fc * (c - last[0]) / (fc - last[1])
                if abs(step) <= 0.5 * tol:
                    return min(max(c - step, a), b)
            last = c, fc
    return a if a == count.floor else 0.5 * (a + b)   # a level never lifted off the floor lies below it


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
    lo, the lower end of the bracket r is the lowest level of, stands in for
    the lower count: no level lies between it and r - d."""
    width = _merge_width(r)
    if lo is None:
        below_k = count.off_pole(r - width, -1.0)
        lo = count.made(below_k, (yield count, below_k))
    above_k = count.off_pole(r + width, 1.0)
    return lo, count.made(above_k, (yield count, above_k))


def _below(count: _Count, k: float) -> _Search:
    """The sample at k, moved below any pole window it sits in; at the floor
    `floor_sample`, whose spectrum regula falsi never reads (off scale)."""
    if k == count.floor:
        return count.floor_sample()
    k = count.off_pole(k, -1.0)
    return count.made(k, (yield count, k))


class _Level(NamedTuple):
    """A level, its multiplicity and the count just above it, at r + d
    (`_around`), where a search of the levels above it can start."""

    k: float
    multiplicity: int
    above: _Sample


def _next_level(count: _Count, lo: _Sample, hi: _Sample, seen: list[_Sample], start: bool = False) -> _Search:
    """The lowest level in (lo.k, hi.k] as a `_Level`; needs hi.count >
    lo.count.  Every count taken is added to seen (`_lowest_level`); with
    start, lo is the start of the search, which may lie within the merge
    width of the level (`_around`)."""
    r = yield from _lowest_level(count, lo, hi, seen)
    if start and lo.k > max(r - _merge_width(r), count.floor):
        lo = yield from _below(count, max(r - _merge_width(r), count.floor))
    below, above = yield from _around(count, r, lo)
    return _Level(r, above.count - below.count, above)


def _levels_in(count: _Count, lo: _Sample, hi: _Sample, start: bool = False) -> _Search:
    """The levels in (lo.k, hi.k] as `_Level`s, ascending, searched up from
    the sample lo, the start of the search where start (`_next_level`)."""
    seen = [lo, hi]
    out: list[_Level] = []
    while lo.count < hi.count:
        # the tightest bracket above lo among the counts taken so far
        lo = max((s for s in seen if s.count == lo.count), key=lambda s: s.k)
        upper = min((s for s in seen if s.count > lo.count), key=lambda s: s.k)
        out.append((yield from _next_level(count, lo, upper, seen, start and not out)))
        seen.append(out[-1].above)
        lo = out[-1].above
    return out


def _range_top(count: _Count, k: float) -> float:
    """Where a search of the levels up to k takes its top count: the merge
    width past k, so that a level sitting on k belongs to the range, moved
    off any pole window."""
    return count.off_pole(k + _merge_width(k), 1.0)


def _first_level(count: _Count, lo: _Sample, k_hi: float, at_least: int | None = None) -> _Search:
    """The lowest level in (lo.k, k_hi] as a `_Level`, searched up from the
    start lo, or None where the range holds none.

    It takes the count at the top of the range alone.  at_least, a lower
    bound on N there, stands in for that count where it is given: bisection
    on N never needs more, and regula falsi takes the top's spectrum only
    where it reads it (`_illinois`).
    """
    top = _range_top(count, k_hi)
    if at_least is None:
        hi = count.made(top, (yield count, top))
    else:
        hi = _Sample(top, at_least, count.poles(top), None)
    if hi.count == lo.count:
        return None
    return (yield from _next_level(count, lo, hi, [lo, hi], start=True))


def _level_search(count: _Count, lo: _Sample, k_hi: float) -> _Search:
    """The levels in (lo.k, k_hi] as `_Level`s, ascending, searched up from
    the sample lo.

    It takes, in one batch, the top of the range (`_range_top`) and both
    window edges of every pole in between, the points where `_split` would
    take them (`window_edges`, those of the lowest _BATCH_POLES poles).
    Every bracket between neighbouring points where the count rises is
    then searched on its own, all of them in lockstep.  A level's
    multiplicity is counted up to d past it (`_around`), and may take in
    levels of the brackets above: those go, and a bracket of which it took
    some but not all is searched again from the count above the level, as
    a search of the range one level after another would go on from there.
    """
    top = _range_top(count, k_hi)
    ks = np.append(count.window_edges(lo.k, top), top)
    samples = [lo] + [count.made(k, evals) for k, evals in zip(ks.tolist(), (yield count, ks))]
    hi = samples[-1]
    if hi.count - lo.count > _MAX_LEVELS:
        raise ResourceBudgetError(
            f"{hi.count - lo.count} eigenvalues in ({lo.k}, {k_hi}], more than {_MAX_LEVELS}"
        )
    brackets = [(a, b) for a, b in zip(samples, samples[1:]) if b.count > a.count]
    found = yield from _together([_levels_in(count, a, b, start=a is lo) for a, b in brackets])
    out: list[_Level] = []
    below = lo   # the count above the last level kept
    for (a, b), levels in zip(brackets, found):
        if below.count >= b.count:   # every level of the bracket counted with the level below
            continue
        if below.count > a.count:   # some of them
            levels = yield from _levels_in(count, below, b)
        out += levels
        below = levels[-1].above
    return out


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
            if p.k > 0.0:
                return p.k
        raise NoEigenspaceError("no positive eigenvalue in the computed range")


def _k_floor(m: MetricGraph) -> float:
    """Where the positive search starts; far below the lowest level pi / (2 L) of
    any graph without attractive couplings or tiny repulsive ones."""
    return 1e-6 * math.pi / (16.0 * m.total_length * m.graph.edge_count)


def _eigenvalue_search(m: MetricGraph, k_max: float, k_min: float, count: _TrigCount | None = None) -> _Search:
    """`eigenvalues` as a search, with m's count where the caller has built it."""
    _require_k("k_max", k_max)
    _require_k("k_min", k_min, zero_ok=True)
    count = count if count is not None else _TrigCount(m)
    lo = yield from _below(count, max(k_min, count.floor))
    levels = yield from _level_search(count, lo, k_max)
    pairs = [Eigenpair(k, mult) for k, mult, _ in levels]
    if k_min == 0.0 and (zeros := count.zero_modes[1]):
        pairs.insert(0, Eigenpair(0.0, zeros))
    return Spectrum(tuple(pairs))


def eigenvalues(m: MetricGraph, k_max: float, k_min: float = 0.0) -> Spectrum:
    """All eigenvalues in (k_min, k_max], k = 0 included where k_min = 0."""
    return _drive([_eigenvalue_search(m, k_max, k_min)])[0]


def multiplicity_at(m: MetricGraph, k: float) -> int:
    """The number of eigenvalues at k > 0, counted as N(k + d) - N(k - d) with
    d the merge width; zero when k is not an eigenvalue."""
    _require_k("k", k)
    below, above = _drive([_around(_TrigCount(m), k)])[0]
    return above.count - below.count


def gap_upper_bound(m: MetricGraph) -> float:
    """Safe search cap: pi E / L (equilateral flower) plus 2 pi / L for the circle.

    On a Neumann graph the gap lies strictly below it: k1 <= pi (E - El/2) / L,
    El counting leaf edges (Band-Levy, arXiv 1608.00520; `optimize.upper_bound`),
    on every graph but the three that bound excludes, the interval (pi / L),
    the loop (2 pi / L) and the lasso (below 2 pi / L).  So a Neumann gap
    search knows N at the cap is at least one more than at its floor, and
    takes no count there (`_gap_search`).  A delta or Dirichlet vertex voids
    that bound, and such a graph's search counts at the cap."""
    return math.pi * (m.graph.edge_count + 2) / m.total_length


def _gap_search(m: MetricGraph, count: _TrigCount | None = None) -> _Search:
    """`spectral_gap` as a search, on m's count where the caller built one;
    it returns the gap's `_Level`, from whose count above it a search can
    go on.  A Neumann graph's gap lies below the cap (`gap_upper_bound`),
    so N there is at least one more than at the floor, and that bound
    stands in for the count there (`_first_level`)."""
    count = count if count is not None else _TrigCount(m)
    floor = count.floor_sample()
    gap = yield from _first_level(count, floor, gap_upper_bound(m), floor.count + 1 if count.neumann else None)
    if gap is None:
        raise NoEigenspaceError("no eigenvalue found below the universal bound")
    return gap


def spectral_gap(m: MetricGraph) -> tuple[float, int]:
    """Smallest positive eigenvalue and its multiplicity, searched below the
    universal gap bound."""
    k, mult, _ = _drive([_gap_search(m)])[0]
    return k, mult


def _reaches(m: MetricGraph, k: float, count: _TrigCount | None = None) -> _Search:
    """Whether spectral_gap(m)[0] >= k, as a search of one count: N(k) <=
    N(k_floor), the known count at the floor where `spectral_gap` starts,
    with k at least that floor and moved below any pole window it sits in;
    m's count is the caller's where it has built one."""
    _require_k("k", k)
    count = count if count is not None else _TrigCount(m)
    below = yield from _below(count, max(k, count.floor))
    return below.count <= count.floor_sample().count


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
    """Real function A_e cos(kx) + B_e sin(kx) on each edge (x along the edge),
    such as an eigenfunction.

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


def _vertex_matrices(m: MetricGraph, ks) -> np.ndarray:
    """The real 2E x 2E matrices M(k), k > 0 in ks, whose null spaces are the eigenspaces.

    Column e holds A_e and column E + e holds B_e of f = A_e cos kx +
    B_e sin kx on edge e.  Row j belongs to edge end j of
    `DiscreteGraph.ends`.  At each vertex the first end carries the
    Kirchhoff/delta row sum f'/k - (alpha/k) f, scaled by 1/max(1, |alpha|/k),
    or at a Dirichlet vertex the value row f; each other end carries the
    continuity row f(end) - f(first end).  f'/k is the outgoing derivative.
    The rows are read from the graph's `_vertex_template`, alpha on top.
    """
    g = m.graph
    plus, minus, at_first = g._vertex_template()
    kl = np.multiply.outer(ks, np.concatenate([[0.0], m.lengths]))   # at x = 0, then at each x = l_e
    x = np.concatenate([np.sin(kl), np.cos(kl)], axis=1)
    system = x[:, plus] - x[:, minus]
    if m.alpha.any():   # with every alpha = 0 the template's rows are M(k) as they are
        first, value = g.first_end, x[:, at_first]
        dirichlet = np.isinf(m.alpha)
        alpha_k = np.where(dirichlet, 0.0, m.alpha)[:, None] / np.asarray(ks)[:, None, None]
        kirchhoff = (system[:, first] - alpha_k * value) / np.maximum(1.0, np.abs(alpha_k))
        system[:, first] = np.where(dirichlet[:, None], value, kirchhoff)
    return system


def _signed(coeffs: np.ndarray) -> np.ndarray:
    """coeffs or -coeffs, whichever makes positive the first entry whose
    magnitude is within a relative 1e-9 of the largest (a tie-proof sign)."""
    mag = np.abs(coeffs)
    lead = coeffs[np.argmax(mag >= (1.0 - 1e-9) * mag.max())]
    return -coeffs if lead < 0 else coeffs


def eigenfunction(m: MetricGraph, k: float) -> list[EdgeTrig]:
    """Orthonormal real basis of the eigenspace at k.

    The dimension is the counted multiplicity at k; raises NoEigenspaceError
    when the count finds no eigenvalue there, NotApplicableError at a k = 0
    whose eigenfunctions are not constant."""
    E = m.graph.edge_count
    if abs(k) <= 1e-12:
        if not _Count(m).zero_modes[1]:
            raise NoEigenspaceError("k = 0 is not an eigenvalue")
        if not m.is_neumann_graph():
            raise NotApplicableError("the eigenfunctions at k = 0 are not constant: EdgeTrig cannot carry a + b x")
        return [EdgeTrig(0.0, np.full(E, 1.0 / math.sqrt(m.total_length)), np.zeros(E))]
    mult = multiplicity_at(m, k)
    if mult <= 0:
        raise NoEigenspaceError(f"k = {k} is not an eigenvalue")
    return _eigenbasis(m, k, mult)


def _eigenbasis_coeffs(m: MetricGraph, ks: list[float], mults: list[int]) -> list[np.ndarray]:
    """The eigenspaces at levels ks > 0 of counted multiplicities mults, each
    as mult rows [A | B] of coefficients: the last mult right singular
    vectors of its `_vertex_matrices` (one stacked svd), orthonormalized in
    L^2 through their Gram matrix.  Each row's sign is as the SVD gives it."""
    E = m.graph.edge_count
    nulls = [vt[-mult:] for mult, vt in zip(mults, np.linalg.svd(_vertex_matrices(m, ks))[2])]
    grams = [np.linalg.eigh(_gram(k, null[:, :E], null[:, E:], m.lengths)) for k, null in zip(ks, nulls)]
    return [(evecs / np.sqrt(evals)).T @ null for (evals, evecs), null in zip(grams, nulls)]


def _eigenbasis(m: MetricGraph, k: float, mult: int) -> list[EdgeTrig]:
    """`_eigenbasis_coeffs` as functions, each with its tie-proof sign (`_signed`)."""
    E = m.graph.edge_count
    basis = map(_signed, _eigenbasis_coeffs(m, [k], [mult])[0])
    return [EdgeTrig(k, coeffs[:E], coeffs[E:]) for coeffs in basis]


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
    flux = np.bincount(g.ends, weights=slope, minlength=g.vertex_count) - alpha * value[g.first_end]
    free = np.maximum(high - low, np.abs(flux) / max(1.0, abs(f.k)))
    return float(np.where(dirichlet, np.maximum(high, -low), free).max())


# ---------------------------------------------------------------------------
# negative spectrum (attractive delta couplings) and signed levels
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

    floor = 1e-9

    def floor_sample(self) -> _Sample:
        return _Sample(self.floor, self.alpha.size - self.zero_modes[0], 0, None)   # n_+ of -M0

    def top(self) -> float:
        """The first kappa = 2^j, j >= 0, where H is positive definite by a
        diagonal bound, so above every negative level; no count is taken.
        Each edge adds (kappa/2)(tanh p p^T + coth q q^T) to H, p and q its
        unsigned and signed incidence, and as coth >= tanh that is at least
        kappa tanh(kappa l/2) on the diagonal at each of its ends; so H is
        positive definite where every alpha_u + kappa sum tanh(kappa l/2)
        over the edge ends at u is positive."""
        ends = self.graph.incidence[:, : self.lengths.size]
        kappa = 1.0
        # vertex_alpha is inf at the Dirichlet vertices, which have no row
        while np.any(kappa * (ends @ np.tanh(0.5 * kappa * self.lengths)) <= -self.vertex_alpha):
            kappa *= 2.0
        return kappa

    @staticmethod
    def spectra(coupling: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, kappas: np.ndarray) -> np.ndarray:
        """counts[j].spectrum(kappas[j]) for counts of one shape, stacked: the
        eigenvalues of each count's H; the arguments are those of
        `_TrigCount.matrices`."""
        b, nv = alpha.shape
        half = (0.5 * kappas)[:, None]
        t = np.tanh(half * lengths)
        d = half * np.concatenate([t, 1.0 / t], axis=1)
        H = np.zeros((b, nv, nv))
        H.reshape(b, nv * nv)[:, :: nv + 1] = alpha
        return np.linalg.eigvalsh(-(H + (coupling * d[:, None, :]) @ coupling.transpose(0, 2, 1)))

    def bordered(self, kappas: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """This count's bordered form B of H at every kappa of kappas, stacked,
        and y -> y^T B'(kappa) y for a stack y of one vector at each kappa
        whose edge rows of B y vanish, as y = B^-1 e_v (module docstring)."""
        b, nv = kappas.size, self.alpha.size
        E = self.lengths.size
        n = nv + 2 * E
        z = (0.5 * kappas)[:, None] * self.lengths
        t = np.tanh(z)
        scale = np.sqrt(0.5 * kappas)[:, None] * np.concatenate([t, np.ones_like(t)], axis=1)
        B = np.zeros((b, n, n))
        B[:, :nv, nv:] = self.coupling * scale[:, None, :]
        B[:, nv:, :nv] = B[:, :nv, nv:].transpose(0, 2, 1)
        B.reshape(b, n * n)[:, :: n + 1] = np.concatenate([np.broadcast_to(self.alpha, (b, nv)), -t, -t], axis=1)

        def form(y: np.ndarray) -> np.ndarray:
            zs = z * (1.0 - t * t)
            ye = y[:, nv:]
            return (ye[:, :E] ** 2 * (t + zs) + ye[:, E:] ** 2 * (t - zs)).sum(axis=1) / kappas

        return B, form


def _negative_search(count: _HyperbolicCount) -> _Search:
    """`negative_spectrum` as a search: the n_-(M0) levels of the hyperbolic
    count between its floor, kappa = 1e-9, and its `top`, where the diagonal
    bound makes the hyperbolic vertex matrix positive definite.  The top
    takes no count, so the search of the range asks for the first ones."""
    if not count.zero_modes[0]:
        return []
    found = yield from _level_search(count, count.floor_sample(), count.top())
    return [Eigenpair(-kappa, mult) for kappa, mult, _ in reversed(found)]


def negative_spectrum(m: MetricGraph) -> list[Eigenpair]:
    """Negative-eigenvalue branch, reported as k = -kappa (so lambda = -kappa^2)."""
    return _drive([_negative_search(_HyperbolicCount(m))])[0]


def _levels_search(m: MetricGraph, k_max: float, n_max: int | None) -> _Search:
    """One graph's `levels` as a search.  The nonnegative spectrum goes
    first, so the trig counts of a sweep's rows stack from the first step."""
    count = _TrigCount(m)
    spectrum = yield from _eigenvalue_search(m, k_max, 0.0, count)
    negative = yield from _negative_search(_HyperbolicCount(m, count.zero_modes))
    return ([p.k for p in negative for _ in range(p.multiplicity)] + spectrum.expanded())[:n_max]


def levels(ms: list[MetricGraph], k_max: float, n_max: int | None = None) -> list[list[float]]:
    """Every eigenvalue of each graph up to k_max, with multiplicity, ascending:
    the negative branch as k = -kappa first, then the nonnegative spectrum,
    cut at the first n_max >= 0.  All graphs are searched in lockstep, each
    with the values a search of it alone would see."""
    if n_max is not None and _integer(n_max, "n_max", InvalidInputError) < 0:
        raise InvalidInputError(f"n_max must be at least 0, not {n_max}")
    return _drive([_levels_search(m, k_max, n_max) for m in ms])
