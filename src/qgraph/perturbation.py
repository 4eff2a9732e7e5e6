"""Edge energies, spectral-gap gradients, critical points and nodal structure.

For a simple spectral gap k with unit-norm eigenfunction f, the per-edge
energy f'^2 + k^2 f^2 is constant along each edge and equals minus the
derivative of k^2 with respect to that edge length.  A length vector is
a critical point of the gap on the simplex exactly when all edge
energies agree; the eigenfunction then decomposes the graph into
edge-disjoint Eulerian paths and cycles on which k L_i = pi mu_i, with
mu_i counting eigenfunction zeros (vertex zeros weighted by half the
vertex degree inside the part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MultiplicityError, PreconditionError
from .graph import MetricGraph
from .spectral import EdgeTrig, spectral_gap, eigenfunction

ZERO_SCALE = 1e-8       # |f| below this * max|f| counts as a zero
VERTEX_SNAP = 1e-8      # zeros this close to an endpoint belong to the vertex
DERIV_MATCH = 1e-6      # relative tolerance for pairing f' values at a vertex


def gap_eigenpair(m: MetricGraph) -> tuple[float, EdgeTrig]:
    """Spectral gap and its unit-norm eigenfunction; gap must be simple."""
    k1, mult = spectral_gap(m)
    if mult != 1:
        raise MultiplicityError(f"spectral gap k1 = {k1:.9f} has multiplicity {mult}")
    return k1, eigenfunction(m, k1)[0]


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
    energies: tuple[float, ...]
    spread: float                       # (max - min) / mean energy
    odd_vertex_violations: tuple[int, ...]
    even_vertex_violations: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "critical": self.critical,
            "k": self.k,
            "energies": {str(e): x for e, x in enumerate(self.energies)},
            "spread": self.spread,
            "odd_vertex_violations": list(self.odd_vertex_violations),
            "even_vertex_violations": list(self.even_vertex_violations),
        }


def is_critical(m: MetricGraph, tol: float = 1e-6) -> CriticalityReport:
    """Critical point of the gap on the length simplex: equal edge energies.

    Equivalently the eigenfunction derivative vanishes at odd-degree
    vertices and has equal magnitude on all edges at even-degree ones;
    both characterizations are reported.
    """
    k, f = gap_eigenpair(m)
    energies = f.energies()
    mean = float(energies.mean())
    spread = float((energies.max() - energies.min()) / mean)

    deriv_scale = max(abs(f.outgoing_derivative(e, end, m.lengths))
                      for e in range(m.graph.edge_count) for end in (0, 1))
    deriv_scale = max(deriv_scale, tol)
    odd_bad = []
    even_bad = []
    for v in range(m.graph.vertex_count):
        ends = m.graph.incident_ends(v)
        derivs = [abs(f.outgoing_derivative(e, end, m.lengths)) for e, end in ends]
        if len(ends) % 2 == 1:
            if max(derivs) > tol * deriv_scale:
                odd_bad.append(v)
        else:
            if max(derivs) - min(derivs) > tol * deriv_scale:
                even_bad.append(v)
    return CriticalityReport(
        critical=spread <= tol,
        k=k,
        energies=tuple(float(x) for x in energies),
        spread=spread,
        odd_vertex_violations=tuple(odd_bad),
        even_vertex_violations=tuple(even_bad),
    )


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
    # vertex zeros are also caught directly (robust for loops)
    for v in range(m.graph.vertex_count):
        if abs(f.vertex_value(m, v)) <= ZERO_SCALE * scale:
            zero_vertices.add(v)
    return interior, zero_vertices


def nodal_count(m: MetricGraph) -> int:
    """Number of connected sign domains of the gap eigenfunction (simple gap)."""
    _, f = gap_eigenpair(m)
    interior, zero_vertices = _zero_layout(m, f)

    # split edges at zeros into signed pieces; pieces touching a non-zero
    # vertex merge into that vertex's domain
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    pieces = []
    for e, (u, v) in enumerate(m.graph.edges):
        length = float(m.lengths[e])
        cuts = [0.0] + interior[e] + [length]
        for i in range(len(cuts) - 1):
            lo, hi = cuts[i], cuts[i + 1]
            if hi - lo <= 2 * VERTEX_SNAP:
                continue
            piece = ("piece", e, i)
            parent.setdefault(piece, piece)
            pieces.append(piece)
            if i == 0 and u not in zero_vertices:
                union(piece, ("vertex", u))
            if i == len(cuts) - 2 and v not in zero_vertices:
                union(piece, ("vertex", v))
    return len({find(p) for p in pieces})


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
    """Edge-disjoint Eulerian paths/cycles traced along the gap eigenfunction.

    At even vertices the walk continues on an unused edge whose outgoing
    derivative is minus the arriving one (ties broken by lowest edge id);
    paths start and end at odd-degree vertices, cycles close when the
    derivative matching holds at the start.
    """
    report = is_critical(m, tol)
    if not report.critical:
        raise PreconditionError("path decomposition requires a critical point (equal energies)")
    k, f = gap_eigenpair(m)
    g = m.graph

    unused: list[set[int]] = [set() for _ in range(g.vertex_count)]
    remaining_deg = [0] * g.vertex_count
    used_edges = [False] * g.edge_count
    end_of: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edges):
        unused[u].add(e)
        unused[v].add(e)
        remaining_deg[u] += 1
        remaining_deg[v] += 1
        end_of[(e, 0)] = u
        end_of[(e, 1)] = v

    deriv_scale = max(
        (abs(f.outgoing_derivative(e, end, m.lengths)) for e in range(g.edge_count) for end in (0, 1)),
        default=0.0,
    )
    match_tol = DERIV_MATCH * max(deriv_scale, 1e-12)

    def leave(v: int, incoming_deriv: float | None) -> tuple[int, int] | None:
        """Pick the unused edge-end at v continuing the walk; None if stuck."""
        candidates = []
        for e in sorted(unused[v]):
            for end in (0, 1):
                if end_of[(e, end)] == v:
                    d = f.outgoing_derivative(e, end, m.lengths)
                    candidates.append((e, end, d))
                    if not g.is_loop(e):
                        break
        if not candidates:
            return None
        if incoming_deriv is None:
            e, end, _ = candidates[0]
            return e, end
        for e, end, d in candidates:
            if abs(d + incoming_deriv) <= match_tol:
                return e, end
        return None

    def walk(start: int, as_cycle: bool) -> tuple[list[int], int]:
        """Trace a path/cycle from start; returns edge order and final vertex."""
        order: list[int] = []
        v = start
        incoming: float | None = None
        while True:
            choice = leave(v, incoming)
            if choice is None:
                break
            e, end = choice
            unused[end_of[(e, 0)]].discard(e)
            unused[end_of[(e, 1)]].discard(e)
            used_edges[e] = True
            remaining_deg[end_of[(e, 0)]] -= 1
            remaining_deg[end_of[(e, 1)]] -= 1
            order.append(e)
            other = (e, 1 - end)
            v = end_of[other]
            incoming = f.outgoing_derivative(e, 1 - end, m.lengths)
            if not as_cycle and degree_parity[v] == 1:
                break
            if as_cycle and v == start:
                # close when the start edge pairs with the arrival
                d0 = f.outgoing_derivative(order[0], start_end, m.lengths)
                if abs(d0 + incoming) <= match_tol or not unused[v]:
                    break
        return order, v

    parts: list[PathPart] = []
    while not all(used_edges):
        degree_parity = [d % 2 for d in remaining_deg]
        odd = [v for v in range(g.vertex_count) if degree_parity[v] == 1 and unused[v]]
        if odd:
            start = odd[0]
            first = leave(start, None)
            assert first is not None
            start_end = first[1]
            order, _ = walk(start, as_cycle=False)
            kind = "path"
        else:
            start = min(v for v in range(g.vertex_count) if unused[v])
            first = leave(start, None)
            assert first is not None
            start_end = first[1]
            order, _ = walk(start, as_cycle=True)
            kind = "cycle"
        if not order:
            raise PreconditionError("derivative pairing failed; point is not critical enough")
        parts.append(_finish_part(m, f, kind, order))

    return PathDecomposition(tuple(parts), k)


def _finish_part(m: MetricGraph, f: EdgeTrig, kind: str, order: list[int]) -> PathPart:
    g = m.graph
    length = float(sum(m.lengths[e] for e in order))
    interior, zero_vertices = _zero_layout(m, f)
    part_deg: dict[int, int] = {}
    mu = 0.0
    for e in order:
        mu += len(interior[e])
        u, v = g.edges[e]
        part_deg[u] = part_deg.get(u, 0) + 1
        part_deg[v] = part_deg.get(v, 0) + 1
    for v, d in part_deg.items():
        if v in zero_vertices:
            mu += d / 2.0
    return PathPart(kind, tuple(order), length, mu)
