"""Edge energies, spectral-gap gradients, critical points and nodal structure.

For a simple spectral gap k with unit-norm eigenfunction f, the per-edge
energy f'^2 + k^2 f^2 is constant along each edge and equals minus the
derivative of k^2 with respect to that edge length.  A length vector is
a critical point of the gap on the simplex exactly when all edge
energies agree; the eigenfunction then decomposes the graph into
edge-disjoint Eulerian paths and cycles on which k L_i = pi mu_i, with
mu_i counting eigenfunction zeros (vertex zeros weighted by half the
vertex degree inside the part).

The decomposition comes from one fixed pairing of edge ends.  At a
critical point the outgoing derivatives at each vertex come in pairs d
and -d, and an end left over has f' = 0.  Each end is paired with the
first unpaired end at its vertex whose derivative is its negative; the
paths run from the unpaired ends along edge, far end, partner, and the
remaining edges close into cycles.  An unpaired end with f' != 0 means
the point is not critical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidInputError, MultiplicityError, PreconditionError
from .graph import MetricGraph, _components
from .spectral import EdgeTrig, _eigenbasis, _eigenbasis_coeffs, spectral_gap

ZERO_SCALE = 1e-8       # |f| below this * max|f| counts as a zero
VERTEX_SNAP = 1e-8      # zeros this close to an endpoint belong to the vertex
DERIV_MATCH = 1e-6      # pairing tolerance for f' at a vertex, relative to sqrt(mean energy)


def gap_eigenpair(m: MetricGraph) -> tuple[float, EdgeTrig]:
    """Spectral gap and its unit-norm eigenfunction; gap must be simple.

    The eigenspace takes the multiplicity the gap search counted.
    """
    k1, mult = spectral_gap(m)
    if mult != 1:
        raise MultiplicityError(f"spectral gap k1 = {k1:.9f} has multiplicity {mult}")
    return k1, _eigenbasis(m, k1, 1)[0]


def edge_energies(m: MetricGraph) -> np.ndarray:
    """Per-edge energy f'^2 + k1^2 f^2 of the unit-norm gap eigenfunction."""
    _, f = gap_eigenpair(m)
    return f.energies()


def gap_gradient(m: MetricGraph) -> np.ndarray:
    """d(k1^2)/dl_e for unconstrained lengthening of each edge: -energy_e."""
    return -edge_energies(m)


@dataclass(frozen=True)
class CriticalityReport:
    critical: bool
    k: float
    energies: tuple[float, ...]         # h_e = <G_e, rho>; f's energies for a simple gap
    spread: float                       # (max - min) / mean energy
    odd_vertex_violations: tuple[int, ...]
    even_vertex_violations: tuple[int, ...]
    multiplicity: int = 1
    weights: tuple[float, ...] = (1.0,)   # the eigenvalues of rho, ascending


def _require_tol(tol) -> None:
    """Reject a tolerance that is not a finite number >= 0, bools included."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not math.isfinite(tol) or tol < 0:
        raise InvalidInputError(f"tol must be a finite number >= 0, not {tol!r}")


def is_critical(m: MetricGraph, tol: float = 1e-6) -> CriticalityReport:
    """Critical point of the gap on the length simplex: equal edge energies.

    For a simple gap the energies are its eigenfunction's, and equivalently
    the eigenfunction derivative vanishes at odd-degree vertices and has
    equal magnitude on all edges at even-degree ones; both
    characterizations are reported.  A multiple gap is critical when a
    density matrix rho on its eigenspace makes the energies <G_e, rho>
    equal (`density_certificate`); its report carries rho's eigenvalues
    and no vertex violations, which speak of one eigenfunction.  tol must
    be a finite number >= 0 (`InvalidInputError` otherwise).
    """
    _require_tol(tol)
    k, mult = spectral_gap(m)
    if mult == 1:
        return _criticality(m, k, _eigenbasis(m, k, 1)[0], tol)
    coeffs = _eigenbasis_coeffs(m, [k], [mult])[0]
    rho, energies, spread = density_certificate(energy_matrices(k, coeffs))
    return CriticalityReport(
        critical=spread <= tol,
        k=k,
        energies=tuple(energies.tolist()),
        spread=spread,
        odd_vertex_violations=(),
        even_vertex_violations=(),
        multiplicity=mult,
        weights=tuple(np.linalg.eigvalsh(rho).tolist()),
    )


def _criticality(m: MetricGraph, k: float, f: EdgeTrig, tol: float) -> CriticalityReport:
    """`is_critical` for the gap eigenpair (k, f) of m, already solved."""
    energies = f.energies()
    mean = float(energies.mean())
    spread = float((energies.max() - energies.min()) / mean)
    slope = np.abs(f.at_ends(m.lengths)[1])
    low, high = m.graph.end_range(slope)
    bar = tol * max(float(slope.max()), tol)
    odd = m.graph.degrees() % 2 == 1
    return CriticalityReport(
        critical=spread <= tol,
        k=k,
        energies=tuple(float(x) for x in energies),
        spread=spread,
        odd_vertex_violations=tuple(np.flatnonzero(odd & (high > bar)).tolist()),
        even_vertex_violations=tuple(np.flatnonzero(~odd & (high - low > bar)).tolist()),
    )


def _project_simplex_lb(y: np.ndarray, l_min: float) -> np.ndarray:
    """Euclidean projection onto { x >= l_min, sum x = 1 }.

    The sort, the running sums and the clamp run on Python floats, by the
    same IEEE operations in the same order as the array formula
    z = y - l_min, u = sort(z) descending, css = cumsum(u) - budget,
    rho = the last i with u_i (i + 1) > css_i, tau = css_rho / (rho + 1),
    max(z - tau, 0) + l_min; on a handful of entries that is the cheaper way.
    """
    n = y.size
    budget = 1.0 - n * l_min
    if budget < 0:
        raise InvalidInputError("lower bound infeasible")
    z = [x - l_min for x in y.tolist()]
    u = sorted(z, reverse=True)
    css = [s - budget for s in accumulate(u)]
    rho = max(i for i in range(n) if u[i] * (i + 1) > css[i])
    tau = css[rho] / (rho + 1.0)
    return np.array([max(x - tau, 0.0) + l_min for x in z])


def energy_matrices(k: float, coeffs: np.ndarray) -> np.ndarray:
    """The per-edge energy matrices G_e[i, j] = k^2 (A_ie A_je + B_ie B_je),
    shape (E, m, m), of an eigenspace at k given as m orthonormal rows
    [A | B] (`_eigenbasis_coeffs`).  For eigenfunctions f_i' f_j' + k^2
    f_i f_j is constant along each edge, and G_e[i, i] is f_i's energy."""
    E = coeffs.shape[1] // 2
    a, b = coeffs[:, :E].T, coeffs[:, E:].T
    return k * k * (a[:, :, None] * a[:, None, :] + b[:, :, None] * b[:, None, :])


def density_certificate(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The density matrix rho (symmetric, PSD, trace 1) that levels the
    energies h_e = <G_e, rho> best, those energies and their spread
    (max - min) / mean.

    The gap is critical on the simplex exactly when some rho makes every
    h_e equal (M. Overton, SIAM J. Optim. 2, 1992; A. Lewis and M. Overton,
    Acta Numerica, 1996), and mean(h) - h is then the steepest ascent
    direction of the multiple level.  rho is I/m plus the least-norm
    trace-0 correction that minimizes the squared deviation of h from its
    mean (a least-squares solve in Frobenius coordinates, so a symmetry
    of the eigenspace carries over to rho), projected onto the
    spectraplex where it is not PSD.
    """
    E, m, _ = G.shape
    iu = np.triu_indices(m)
    trace = (iu[0] == iu[1]).astype(float)
    scale = np.where(trace == 1.0, 1.0, math.sqrt(2.0))   # Frobenius coordinates
    cols = G[:, iu[0], iu[1]] * scale
    cols = cols - cols.mean(axis=0)
    basis = np.linalg.svd(trace[None, :])[2][1:].T   # orthonormal, of trace 0
    v = trace / m
    v = v - basis @ np.linalg.lstsq(cols @ basis, cols @ v, rcond=None)[0]
    rho = np.zeros((m, m))
    rho[iu] = v / scale
    rho = rho + np.triu(rho, 1).T
    weights, vectors = np.linalg.eigh(rho)
    if weights[0] < 0.0:
        rho = (vectors * _project_simplex_lb(weights, 0.0)) @ vectors.T
    h = np.einsum("eij,ij->e", G, rho)
    return rho, h, float((h.max() - h.min()) / h.mean())


# ---------------------------------------------------------------------------
# zeros of the eigenfunction
# ---------------------------------------------------------------------------


def edge_zeros(f: EdgeTrig, e: int, length: float, max_abs: float) -> list[float]:
    """Zero positions of f on edge e, snapped to endpoints when close."""
    a, b = f.amp_cos[e], f.amp_sin[e]
    amp = math.hypot(a, b)
    if amp <= ZERO_SCALE * max_abs:
        raise InvalidInputError(f"eigenfunction vanishes identically on edge {e}")
    # f = amp * cos(k x - phi), zeros at k x = phi + pi/2 + m pi
    phi = math.atan2(b, a)
    zeros = []
    m_lo = math.floor((-phi - math.pi / 2) / math.pi) - 1
    m_hi = math.ceil((f.k * length - phi - math.pi / 2) / math.pi) + 1
    for m in range(m_lo, m_hi + 1):
        x = (phi + math.pi / 2 + m * math.pi) / f.k
        if -VERTEX_SNAP <= x <= length + VERTEX_SNAP:
            zeros.append(min(max(x, 0.0), length))
    return sorted(zeros)


def _zero_layout(m: MetricGraph, f: EdgeTrig):
    """Interior zeros per edge and the set of vertices where f vanishes."""
    scale = f.max_abs(m.lengths)
    interior: list[list[float]] = []
    zero_vertices: set[int] = set()
    for e, (u, v) in enumerate(m.graph.edges):
        length = float(m.lengths[e])
        inner = []
        for x in edge_zeros(f, e, length, scale):
            if x <= VERTEX_SNAP:
                zero_vertices.add(u)
            elif x >= length - VERTEX_SNAP:
                zero_vertices.add(v)
            else:
                inner.append(x)
        interior.append(inner)
    # vertex zeros are also caught directly (robust for loops), from f at
    # each vertex's first edge end
    value = f.at_ends(m.lengths)[0][m.graph.first_end]
    zero_vertices.update(np.flatnonzero(np.abs(value) <= ZERO_SCALE * scale).tolist())
    return interior, zero_vertices


def nodal_count(m: MetricGraph) -> int:
    """Number of connected sign domains of the gap eigenfunction (simple gap)."""
    _, f = gap_eigenpair(m)
    interior, zero_vertices = _zero_layout(m, f)

    # split edges at zeros into signed pieces, numbered V, V + 1, ...; a
    # piece touching a non-zero vertex merges into that vertex's domain
    V = m.graph.vertex_count
    pairs: list[tuple[int, int]] = []
    n = V
    for e, (u, v) in enumerate(m.graph.edges):
        cuts = [0.0] + interior[e] + [float(m.lengths[e])]
        for i in range(len(cuts) - 1):
            if cuts[i + 1] - cuts[i] <= 2 * VERTEX_SNAP:
                continue
            if i == 0 and u not in zero_vertices:
                pairs.append((n, u))
            if i == len(cuts) - 2 and v not in zero_vertices:
                pairs.append((n, v))
            n += 1
    return len(set(_components(n, pairs)[V:]))


# ---------------------------------------------------------------------------
# Eulerian path decomposition at critical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPart:
    kind: str                      # "path" or "cycle"
    edges: tuple[int, ...]         # walk order, each edge exactly once
    length: float
    zero_count: float              # mu_i, vertex zeros weighted d_v/2 in the part


@dataclass(frozen=True)
class PathDecomposition:
    parts: tuple[PathPart, ...]
    k: float

    @property
    def total_zero_count(self) -> float:
        return sum(p.zero_count for p in self.parts)


def path_decomposition(m: MetricGraph, tol: float = 1e-6) -> PathDecomposition:
    """Edge-disjoint Eulerian paths and cycles traced along the gap eigenfunction.

    The edge ends are paired as `_pair_ends` describes.  Paths run from
    each unpaired end, in vertex order, along edge, far end, partner until
    they reach another unpaired end; the edges no path reaches close into
    cycles, each started at the first end of the lowest vertex left.  tol
    is `is_critical`'s.
    """
    _require_tol(tol)
    k, f = gap_eigenpair(m)
    if not _criticality(m, k, f, tol).critical:
        raise PreconditionError("path decomposition requires a critical point (equal energies)")
    g = m.graph
    partner = _pair_ends(m, f)
    interior, zero_vertices = _zero_layout(m, f)
    ends = [a for v in range(g.vertex_count) for a in g.incident_ends(v)]
    starts = [("path", a) for a in ends if partner[a] is None] + [("cycle", a) for a in ends]
    used: set[int] = set()
    parts: list[PathPart] = []
    for kind, start in starts:
        if start[0] in used:
            continue
        order, (e, end) = [start[0]], start
        while partner[(e, 1 - end)] not in (None, start):
            e, end = partner[(e, 1 - end)]
            order.append(e)
        used.update(order)
        # interior zeros, plus half a zero for each end at a vertex zero
        mu = sum(len(interior[e]) + 0.5 * sum(v in zero_vertices for v in g.edges[e]) for e in order)
        parts.append(PathPart(kind, tuple(order), float(sum(m.lengths[e] for e in order)), mu))
    return PathDecomposition(tuple(parts), k)


def _pair_ends(m: MetricGraph, f: EdgeTrig) -> dict[tuple[int, int], tuple[int, int] | None]:
    """Partner of every edge end (edge, end) at its vertex, or None.

    At a critical point the outgoing derivatives at a vertex come in
    pairs d, -d.  In `incident_ends` order each end is paired with the
    first unpaired end whose derivative is its negative within DERIV_MATCH
    times sqrt(mean energy), which bounds |f'| on every edge when the
    energies agree.  An end left over must have f' = 0 within that
    tolerance.
    """
    match_tol = DERIV_MATCH * math.sqrt(float(f.energies().mean()))
    slope = f.at_ends(m.lengths)[1]
    E = m.graph.edge_count
    partner: dict[tuple[int, int], tuple[int, int] | None] = {}
    for v in range(m.graph.vertex_count):
        ends = m.graph.incident_ends(v)
        derivs = [slope[e + E * end] for e, end in ends]
        for i, a in enumerate(ends):
            if a in partner:
                continue
            partner[a] = next((b for j, b in enumerate(ends[i + 1:], i + 1)
                               if b not in partner and abs(derivs[i] + derivs[j]) <= match_tol), None)
            if partner[a] is not None:
                partner[partner[a]] = a
            elif abs(derivs[i]) > match_tol:
                raise PreconditionError("derivative pairing failed; point is not critical enough")
    return partner
