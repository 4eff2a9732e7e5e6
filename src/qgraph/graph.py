"""Combinatorial and metric graph model.

A discrete graph is a connected multigraph: loops (petals) and parallel
edges are allowed, vertex degrees count loops twice.  A metric graph
attaches a positive length to every edge and a matching condition to
every vertex.  Length vectors live on the closed simplex (total length
one, zero entries mark contracted edges); contraction identifies the
endpoints of every zero-length edge.

Edges are stored once, with a fixed direction (u, v) that defines the
coordinate x in [0, l_e] used everywhere else.  The spectral machinery
views each edge as the pair of directed bonds (e, e_hat) with
x_hat = l_e - x.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGraphError,
    GraphStructureError,
    InvalidInputError,
    UnsupportedTopologyError,
)

SIMPLEX_EXACT_TOL = 1e-12
SIMPLEX_RENORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# vertex conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Neumann:
    """Continuity plus vanishing sum of outgoing derivatives."""

    def __repr__(self) -> str:
        return "Neumann()"


@dataclass(frozen=True)
class Dirichlet:
    """The function vanishes at the vertex."""

    def __repr__(self) -> str:
        return "Dirichlet()"


@dataclass(frozen=True)
class DeltaTheta:
    """Continuity plus cos(theta/2) * sum of derivatives = sin(theta/2) * value.

    theta = 0 is Neumann, theta = pi is Dirichlet; the coupling strength is
    alpha = tan(theta/2).
    """

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise InvalidInputError(f"delta parameter theta={self.theta} is not finite")
        if not (-math.pi < self.theta <= math.pi):
            raise InvalidInputError(f"delta parameter theta={self.theta} outside (-pi, pi]")


Condition = Neumann | Dirichlet | DeltaTheta

NEUMANN = Neumann()
DIRICHLET = Dirichlet()


def is_neumann(cond: Condition) -> bool:
    """Neumann, including the equivalent DeltaTheta(0)."""
    return isinstance(cond, Neumann) or (isinstance(cond, DeltaTheta) and cond.theta == 0.0)


def is_dirichlet(cond: Condition) -> bool:
    """Dirichlet, including the equivalent DeltaTheta(pi)."""
    return isinstance(cond, Dirichlet) or (
        isinstance(cond, DeltaTheta) and cond.theta == math.pi
    )


def condition_alpha(cond: Condition) -> float:
    """Delta coupling strength alpha = tan(theta/2); infinite for Dirichlet."""
    if is_neumann(cond):
        return 0.0
    if is_dirichlet(cond):
        return math.inf
    assert isinstance(cond, DeltaTheta)
    return math.tan(cond.theta / 2.0)


# ---------------------------------------------------------------------------
# discrete graph
# ---------------------------------------------------------------------------


class DiscreteGraph:
    """Connected multigraph with stable edge indices 0..E-1."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges) -> None:
        if vertex_count < 1:
            raise GraphStructureError("graph needs at least one vertex")
        edge_list = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphStructureError(f"edge ({u}, {v}) has a vertex outside 0..{vertex_count - 1}")
            edge_list.append((u, v))
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(self, "edges", tuple(edge_list))
        if not self._connected():
            raise GraphStructureError("graph is not connected")

    def __setattr__(self, name, value) -> None:
        raise AttributeError("DiscreteGraph is immutable")

    def _connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * self.vertex_count
        stack = [0]
        seen[0] = True
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        return all(seen)

    # -- basic queries ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def degrees(self) -> np.ndarray:
        """Vertex degrees; a loop contributes two."""
        deg = np.zeros(self.vertex_count, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def degree(self, v: int) -> int:
        return int(self.degrees()[v])

    def incident_ends(self, v: int) -> list[tuple[int, int]]:
        """(edge id, end) pairs at v; end 0 is x=0, end 1 is x=l_e. Loops give both."""
        out = []
        for e, (u, w) in enumerate(self.edges):
            if u == v:
                out.append((e, 0))
            if w == v:
                out.append((e, 1))
        return out

    def leaf_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d == 1]

    def leaf_edges(self) -> list[int]:
        """Edges attached to a degree-one vertex."""
        deg = self.degrees()
        return [e for e, (u, v) in enumerate(self.edges) if deg[u] == 1 or deg[v] == 1]

    def is_tree(self) -> bool:
        return betti(self) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"DiscreteGraph({self.vertex_count}, {list(self.edges)})"


def betti(g: DiscreteGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    return g.edge_count - g.vertex_count + 1


def find_bridges(g: DiscreteGraph) -> set[int]:
    """Edges whose removal disconnects the graph.

    Lowlink DFS over the multigraph; parallel edges are distinguished by
    edge id, so only a genuinely single connection counts as a bridge.
    Loops are never bridges.
    """
    order = [-1] * g.vertex_count
    low = [-1] * g.vertex_count
    bridges: set[int] = set()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        adj[u].append((v, e))
        adj[v].append((u, e))
    counter = 0
    # iterative DFS: (vertex, incoming edge id, iterator index)
    stack: list[list[int]] = []

    def push(v: int, via: int) -> None:
        nonlocal counter
        order[v] = low[v] = counter
        counter += 1
        stack.append([v, via, 0])

    push(0, -1)
    while stack:
        v, via, idx = stack[-1]
        if idx < len(adj[v]):
            stack[-1][2] += 1
            w, e = adj[v][idx]
            if e == via:
                continue
            if order[w] == -1:
                push(w, e)
            else:
                low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > order[parent]:
                    bridges.add(via)
    return bridges


# ---------------------------------------------------------------------------
# length vectors on the simplex
# ---------------------------------------------------------------------------


class LengthVector:
    """Nonnegative edge lengths summing to one (closure of the simplex)."""

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("length vector must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("edge lengths must be finite")
        if np.any(arr < -1e-15):
            raise InvalidInputError("edge lengths must be nonnegative")
        arr[arr < 0] = 0.0
        total = float(arr.sum())
        if abs(total - 1.0) > SIMPLEX_EXACT_TOL:
            if abs(total - 1.0) <= SIMPLEX_RENORM_TOL:
                arr = arr / total
            else:
                raise InvalidInputError(f"edge lengths sum to {total}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("LengthVector is immutable")

    @property
    def size(self) -> int:
        return self.values.size

    def is_interior(self) -> bool:
        return bool(np.all(self.values > 0))

    def zero_edges(self) -> list[int]:
        return [int(e) for e in np.nonzero(self.values == 0.0)[0]]

    def __eq__(self, other) -> bool:
        return isinstance(other, LengthVector) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"LengthVector({self.values.tolist()})"


def equilateral(E: int) -> LengthVector:
    return LengthVector(np.full(E, 1.0 / E))


# ---------------------------------------------------------------------------
# metric graph
# ---------------------------------------------------------------------------


class MetricGraph:
    """Discrete graph with strictly positive edge lengths and vertex conditions.

    Lengths need not sum to one here; normalized graphs come from
    `contract_zero_edges` / `metric`.  Instances are immutable values.
    """

    __slots__ = ("graph", "lengths", "conditions")

    def __init__(self, graph: DiscreteGraph, lengths, conditions=None) -> None:
        arr = np.asarray(lengths, dtype=float).copy()
        if arr.shape != (graph.edge_count,):
            raise InvalidInputError("need one length per edge")
        if graph.edge_count == 0:
            raise DegenerateGraphError("metric graph needs at least one edge")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("metric graph lengths must be finite")
        if np.any(arr <= 0):
            raise InvalidInputError("metric graph lengths must be strictly positive")
        if conditions is None:
            conds = tuple(NEUMANN for _ in range(graph.vertex_count))
        else:
            conds = tuple(conditions)
            if len(conds) != graph.vertex_count:
                raise InvalidInputError("need one condition per vertex")
        arr.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lengths", arr)
        object.__setattr__(self, "conditions", conds)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("MetricGraph is immutable")

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    def is_neumann_graph(self) -> bool:
        return all(is_neumann(c) for c in self.conditions)

    def with_condition(self, v: int, cond: Condition) -> "MetricGraph":
        if not 0 <= v < self.graph.vertex_count:
            raise InvalidInputError(f"no vertex {v} in a graph with {self.graph.vertex_count} vertices")
        conds = list(self.conditions)
        conds[v] = cond
        return MetricGraph(self.graph, self.lengths, conds)

    def __repr__(self) -> str:
        return f"MetricGraph({self.graph!r}, {self.lengths.tolist()})"


def metric(g: DiscreteGraph, lengths=None, conditions=None) -> MetricGraph:
    """Metric graph on g; default lengths are equilateral, conditions Neumann.

    Zero entries in a LengthVector are contracted away first; contraction
    keeps Neumann conditions only.
    """
    if lengths is None:
        lengths = equilateral(g.edge_count)
    if isinstance(lengths, LengthVector):
        if lengths.is_interior():
            return MetricGraph(g, lengths.values, conditions)
        if conditions is not None and (
            len(conditions) != g.vertex_count or not all(is_neumann(c) for c in conditions)
        ):
            raise InvalidInputError("cannot carry vertex conditions through contraction")
        return contract_zero_edges(g, lengths)
    return MetricGraph(g, lengths, conditions)


def contract_zero_edges(g: DiscreteGraph, l: LengthVector) -> MetricGraph:
    """Identify endpoints of zero-length edges; zero loops vanish entirely."""
    mg, _, _ = contract_with_maps(g, l)
    return mg


def contract_with_maps(
    g: DiscreteGraph, l
) -> tuple[MetricGraph, np.ndarray, list[int | None]]:
    """Contraction plus the vertex map and per-original-edge new index (None if gone)."""
    if not isinstance(l, LengthVector):
        arr = np.asarray(l, dtype=float)
        if arr.size and np.all(arr == 0.0):
            raise DegenerateGraphError("all edge lengths are zero")
        l = LengthVector(arr)
    if l.size != g.edge_count:
        raise InvalidInputError("length vector does not match edge count")
    values = l.values
    if np.all(values == 0.0):
        raise DegenerateGraphError("all edge lengths are zero")

    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, (u, v) in enumerate(g.edges):
        if values[e] == 0.0:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(g.vertex_count)})
    root_index = {r: i for i, r in enumerate(roots)}
    vertex_map = np.array([root_index[find(v)] for v in range(g.vertex_count)], dtype=int)

    new_edges = []
    new_lengths = []
    edge_map: list[int | None] = []
    for e, (u, v) in enumerate(g.edges):
        if values[e] == 0.0:
            edge_map.append(None)
            continue
        edge_map.append(len(new_edges))
        new_edges.append((int(vertex_map[u]), int(vertex_map[v])))
        new_lengths.append(float(values[e]))

    new_graph = DiscreteGraph(len(roots), new_edges)
    return MetricGraph(new_graph, new_lengths), vertex_map, edge_map


def smooth_degree_two(m: MetricGraph) -> MetricGraph:
    """Optional normalization: absorb redundant Neumann vertices of degree two.

    A degree-two Neumann vertex joining two distinct edges is metrically
    invisible; the edges merge into one of combined length.  Off by
    default everywhere -- user topology is otherwise preserved.
    """
    while True:
        g = m.graph
        deg = g.degrees()
        target = None
        for v in range(g.vertex_count):
            if deg[v] != 2 or not is_neumann(m.conditions[v]):
                continue
            ends = g.incident_ends(v)
            if len(ends) != 2 or ends[0][0] == ends[1][0]:
                continue  # a loop at v is not smoothable
            if g.vertex_count == 1:
                continue
            target = (v, ends)
            break
        if target is None:
            return m
        v, ((e1, end1), (e2, end2)) = target
        # the merged edge runs from the far end of e1 to the far end of e2
        a = g.edges[e1][1 - end1]
        b = g.edges[e2][1 - end2]
        new_edges = []
        new_lengths = []
        for e, (x, y) in enumerate(g.edges):
            if e in (e1, e2):
                continue
            new_edges.append((x, y))
            new_lengths.append(float(m.lengths[e]))
        new_edges.append((a, b))
        new_lengths.append(float(m.lengths[e1] + m.lengths[e2]))
        keep = [w for w in range(g.vertex_count) if w != v]
        remap = {w: i for i, w in enumerate(keep)}
        edges = [(remap[x], remap[y]) for x, y in new_edges]
        conds = [m.conditions[w] for w in keep]
        m = MetricGraph(DiscreteGraph(len(keep), edges), new_lengths, conds)


# ---------------------------------------------------------------------------
# distances on a metric tree
# ---------------------------------------------------------------------------


def vertex_distances(m: MetricGraph, source: int) -> np.ndarray:
    """Dijkstra distances from a vertex along the metric graph."""
    g = m.graph
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        w = float(m.lengths[e])
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.full(g.vertex_count, np.inf)
    dist[source] = 0.0
    queue = [(0.0, source)]
    while queue:
        d, v = heapq.heappop(queue)
        if d > dist[v]:
            continue
        for w, ln in adj[v]:
            nd = d + ln
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(queue, (nd, w))
    return dist


def tree_diameter(m: MetricGraph) -> float:
    """Largest distance between two points of a metric tree.

    For trees the diameter is attained at a pair of leaves; general graphs
    can attain it at edge-interior points and are not supported.
    """
    if betti(m.graph) != 0:
        raise UnsupportedTopologyError("diameter is only computed for metric trees")
    leaves = m.graph.leaf_vertices()
    if len(leaves) < 2:
        raise UnsupportedTopologyError("tree diameter needs at least two leaves")
    best = 0.0
    for v in leaves:
        dist = vertex_distances(m, v)
        best = max(best, float(dist[leaves].max()))
    return best


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------


def _condition_to_json(cond: Condition):
    if isinstance(cond, Neumann):
        return "neumann"
    if isinstance(cond, Dirichlet):
        return "dirichlet"
    assert isinstance(cond, DeltaTheta)
    return {"delta_theta": cond.theta}


def _condition_from_json(value) -> Condition:
    if value == "neumann":
        return NEUMANN
    if value == "dirichlet":
        return DIRICHLET
    if isinstance(value, dict) and set(value) == {"delta_theta"}:
        return DeltaTheta(float(value["delta_theta"]))
    raise InvalidInputError(f"unknown vertex condition {value!r}")


def graph_to_dict(g: DiscreteGraph, lengths: LengthVector | None = None, conditions=None) -> dict:
    doc: dict = {"vertices": g.vertex_count, "edges": [[u, v] for u, v in g.edges]}
    if lengths is not None:
        doc["lengths"] = [float(x) for x in lengths.values]
    if conditions is not None:
        nontrivial = {
            str(v): _condition_to_json(c)
            for v, c in enumerate(conditions)
            if not isinstance(c, Neumann)
        }
        doc["conditions"] = nontrivial
    return doc


def graph_from_dict(doc: dict) -> tuple[DiscreteGraph, LengthVector, tuple[Condition, ...]]:
    try:
        g = DiscreteGraph(doc["vertices"], [tuple(e) for e in doc["edges"]])
    except KeyError as exc:
        raise InvalidInputError(f"graph document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"graph document has a malformed vertex or edge: {exc}") from exc
    if "lengths" in doc:
        lengths = LengthVector(doc["lengths"])
        if lengths.size != g.edge_count:
            raise InvalidInputError("lengths do not match edge count")
    else:
        lengths = equilateral(g.edge_count)
    conds = [NEUMANN] * g.vertex_count
    for key, value in doc.get("conditions", {}).items():
        v = int(key)
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError(f"condition for unknown vertex {v}")
        conds[v] = _condition_from_json(value)
    return g, lengths, tuple(conds)


def save_graph(path, g: DiscreteGraph, lengths: LengthVector | None = None, conditions=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g, lengths, conditions), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> tuple[DiscreteGraph, LengthVector, tuple[Condition, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read graph file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"graph file {path} is not valid JSON: {exc}") from exc
    return graph_from_dict(doc)
