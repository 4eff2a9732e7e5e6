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

Every incidence comes from one array, `DiscreteGraph.ends`, of length 2E:
ends[e] is the start of edge e and ends[E + e] its end, which is also the
origin of bond e and of its reversal E + e.  Degrees, the incident ends
of a vertex, the eigenfunctions' vertex-condition system and the
bond-scattering matrix are read from it, and contraction and vertex
identification (`_quotient`) rename its entries.  The graph also builds
from it, once, the V x 2E end-vertex matrix `end_at` (1 where end j lies
at vertex v), each vertex's first end `first_end`, and the V x 2E
incidence [P | Q] that both eigenvalue counts couple through: P unsigned,
Q signed (start +1, end -1), so a loop has P = 2 and Q = 0.

Connectivity has two primitives: `_spanning_tree`, a breadth-first search
over `adjacency()` (read from `edges`) in edge-id order, for connectedness,
the infimizer's cycle edge and tree distances; and `_components`, a
union-find, for bridges (the edges without which it leaves more than one
class), contraction and nodal domains.
"""

from __future__ import annotations

import json
import math
import numbers
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
class DeltaTheta:
    """Continuity plus cos(theta/2) * sum of derivatives = sin(theta/2) * value.

    The one vertex condition type: theta = 0 is Neumann (Kirchhoff),
    theta = pi is Dirichlet.
    """

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise InvalidInputError(f"delta parameter theta={self.theta} is not finite")
        if not (-math.pi < self.theta <= math.pi):
            raise InvalidInputError(f"delta parameter theta={self.theta} outside (-pi, pi]")

    @property
    def alpha(self) -> float:
        """The coupling strength tan(theta/2); infinite at theta = pi (Dirichlet)."""
        if self.theta == math.pi:
            return math.inf
        return math.tan(self.theta / 2.0) + 0.0   # + 0.0: theta = -0.0 gives alpha = 0.0


NEUMANN = DeltaTheta(0.0)
DIRICHLET = DeltaTheta(math.pi)


def _alphas(conditions) -> np.ndarray:
    """The coupling of every vertex condition; each must be a DeltaTheta."""
    for cond in conditions:
        if not isinstance(cond, DeltaTheta):
            raise InvalidInputError(f"vertex condition {cond!r} is not a DeltaTheta")
    return np.array([cond.alpha for cond in conditions], dtype=float)


# ---------------------------------------------------------------------------
# discrete graph
# ---------------------------------------------------------------------------


def _integer(value, what: str, error: type[Exception] = GraphStructureError) -> int:
    """A vertex count or vertex id: an integer (numpy's included), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, not {value!r}")
    return int(value)


class DiscreteGraph:
    """Connected multigraph with stable edge indices 0..E-1.

    `ends` holds the start of every edge, then the end of every edge;
    `end_at`, `first_end` and `incidence` are read-only arrays built from
    it (module docstring).
    """

    __slots__ = ("vertex_count", "edges", "ends", "end_at", "first_end", "incidence", "_template")

    def __init__(self, vertex_count: int, edges) -> None:
        vertex_count = _integer(vertex_count, "vertex count")
        if vertex_count < 1:
            raise GraphStructureError("graph needs at least one vertex")
        edge_list = []
        for u, v in edges:
            u, v = _integer(u, "edge end"), _integer(v, "edge end")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphStructureError(f"edge ({u}, {v}) has a vertex outside 0..{vertex_count - 1}")
            edge_list.append((u, v))
        if not edge_list:
            raise GraphStructureError("graph needs at least one edge")
        self._set_ends(vertex_count, edge_list)
        # a connected graph has at least V - 1 edges; checked first, so a
        # huge vertex count is refused before anything of size V is built
        if vertex_count > len(edge_list) + 1 or len(_spanning_tree(self)[0]) < vertex_count:
            raise GraphStructureError("graph is not connected")
        self._set_incidence()

    @classmethod
    def _trusted(cls, vertex_count: int, edges: list[tuple[int, int]]) -> DiscreteGraph:
        """The graph on edges, plain ints in 0..vertex_count-1 that connect
        every vertex, built without the checks of `__init__`: a quotient of
        a connected graph (`_quotient`) cannot fail them."""
        g = object.__new__(cls)
        g._set_ends(vertex_count, edges)
        g._set_incidence()
        return g

    def _set_ends(self, vertex_count: int, edge_list: list[tuple[int, int]]) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(edge_list))
        ends = np.array([u for u, _ in edge_list] + [v for _, v in edge_list], dtype=int)
        ends.setflags(write=False)
        object.__setattr__(self, "ends", ends)

    def _set_incidence(self) -> None:
        E, ends = len(self.edges), self.ends
        at = (np.arange(self.vertex_count)[:, None] == ends).astype(float)
        first = at.argmax(axis=1)   # every vertex has an end: the graph is connected
        tail, head = at[:, :E], at[:, E:]
        incidence = np.concatenate([tail + head, tail - head], axis=1)
        for name, arr in (("end_at", at), ("first_end", first), ("incidence", incidence)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("DiscreteGraph is immutable")

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """(neighbour, edge id) pairs at each vertex in edge-id order; loops are left out."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            if u != v:
                adj[u].append((v, e))
                adj[v].append((u, e))
        return adj

    def _vertex_template(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays p, q (2E x 2E) and r (V x 2E) into x = [sin 0, sin kl,
        cos 0, cos kl], built once: x[p] - x[q], one subtraction an entry as
        in an entrywise build, is the vertex system M(k) of
        `spectral._vertex_matrices` with Neumann conditions, and x[r] holds
        the value rows f at each vertex's first end."""
        if not hasattr(self, "_template"):
            E, first = self.edge_count, self.first_end
            e, at = np.arange(E), self.end_at.astype(int)
            value = np.zeros((2 * E, 2 * E), dtype=int)   # f at every end: cos 0, cos kl, sin kl
            value[e, e], value[E + e, e], value[E + e, E + e] = E + 1, E + 2 + e, 1 + e
            plus, minus = value.copy(), value[first[self.ends]]
            # the outgoing f'/k: cos 0 at x = 0 (sin 0 is 0), sin kl and -cos kl at x = l
            plus[first] = np.concatenate([at[:, E:] * (1 + e), at[:, :E] * (E + 1)], axis=1)
            minus[first] = np.concatenate([0 * at[:, E:], at[:, E:] * (E + 2 + e)], axis=1)
            object.__setattr__(self, "_template", (plus, minus, value[first]))
        return self._template

    # -- basic queries ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def degrees(self) -> np.ndarray:
        """Vertex degrees; a loop contributes two."""
        return np.bincount(self.ends, minlength=self.vertex_count)

    def degree(self, v: int) -> int:
        return int(self.degrees()[v])

    def incident_ends(self, v: int) -> list[tuple[int, int]]:
        """(edge id, end) pairs at v; end 0 is x=0, end 1 is x=l_e. Loops give both."""
        E = self.edge_count
        return sorted((b % E, b // E) for b in np.flatnonzero(self.ends == v).tolist())

    def end_range(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest entry of x, an array over the edge ends in the
        order of `ends`, at each vertex."""
        at = self.end_at != 0.0
        return np.where(at, x, np.inf).min(axis=1), np.where(at, x, -np.inf).max(axis=1)

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


def _spanning_tree(g: DiscreteGraph, source: int = 0) -> tuple[list[int], list[int]]:
    """Breadth-first spanning tree from source, neighbours in edge-id order:
    the vertices in visit order and the edge that reached each vertex (-1
    at the source and at any vertex not reached)."""
    adj = g.adjacency()
    via = [-1] * g.vertex_count
    order = [source]
    for v in order:   # order grows while it is read: a FIFO queue
        for w, e in adj[v]:
            if w != source and via[w] == -1:
                via[w] = e
                order.append(w)
    return order, via


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(n: int, pairs) -> list[int]:
    """Union-find over nodes 0..n-1 joined by pairs: each node's label is
    the least node of its component."""
    parent = list(range(n))
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        parent[max(ra, rb)] = min(ra, rb)
    return [_find(parent, x) for x in range(n)]


def find_bridges(g: DiscreteGraph) -> set[int]:
    """Edges whose removal disconnects the graph: those without which
    `_components` leaves more than one class, so loops and parallel edges
    never are.  O(E (V + E)): only the infimizer calls it."""
    return {e for e in range(g.edge_count) if any(_components(g.vertex_count, g.edges[:e] + g.edges[e + 1:]))}


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
    `contract_zero_edges` / `metric`.  `alpha` is the read-only coupling
    of every vertex, infinite at Dirichlet vertices.  Instances are
    immutable values.
    """

    __slots__ = ("graph", "lengths", "conditions", "alpha")

    def __init__(self, graph: DiscreteGraph, lengths, conditions=None) -> None:
        arr = np.asarray(lengths, dtype=float).copy()
        if arr.shape != (graph.edge_count,):
            raise InvalidInputError("need one length per edge")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("metric graph lengths must be finite")
        if np.any(arr <= 0):
            raise InvalidInputError("metric graph lengths must be strictly positive")
        if conditions is None:
            conds = (NEUMANN,) * graph.vertex_count
            alpha = np.zeros(graph.vertex_count)
        else:
            conds = tuple(conditions)
            if len(conds) != graph.vertex_count:
                raise InvalidInputError("need one condition per vertex")
            alpha = _alphas(conds)
        arr.flags.writeable = False
        alpha.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lengths", arr)
        object.__setattr__(self, "conditions", conds)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("MetricGraph is immutable")

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    def is_neumann_graph(self) -> bool:
        return not np.count_nonzero(self.alpha)

    def with_condition(self, v: int, cond: DeltaTheta) -> "MetricGraph":
        v = _integer(v, "a vertex id", InvalidInputError)
        if not 0 <= v < self.graph.vertex_count:
            raise InvalidInputError(f"no vertex {v} in a graph with {self.graph.vertex_count} vertices")
        conds = list(self.conditions)
        conds[v] = cond
        return MetricGraph(self.graph, self.lengths, conds)

    def __repr__(self) -> str:
        return f"MetricGraph({self.graph!r}, {self.lengths.tolist()})"


def _trusted_metric(graph: DiscreteGraph, lengths: np.ndarray) -> MetricGraph:
    """MetricGraph(graph, lengths) with Neumann conditions, without the copy
    and the checks: lengths must already be a float array of one finite,
    positive length per edge, as the optimizer's projected candidates are.
    The array itself becomes the graph's read-only lengths.
    """
    m = object.__new__(MetricGraph)
    alpha = np.zeros(graph.vertex_count)
    lengths.flags.writeable = False
    alpha.flags.writeable = False
    object.__setattr__(m, "graph", graph)
    object.__setattr__(m, "lengths", lengths)
    object.__setattr__(m, "conditions", (NEUMANN,) * graph.vertex_count)
    object.__setattr__(m, "alpha", alpha)
    return m


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
        if conditions is not None and (len(conditions) != g.vertex_count or _alphas(conditions).any()):
            raise InvalidInputError("cannot carry vertex conditions through contraction")
        return contract_zero_edges(g, lengths)
    return MetricGraph(g, lengths, conditions)


def contract_zero_edges(g: DiscreteGraph, l: LengthVector) -> MetricGraph:
    """Identify endpoints of zero-length edges; zero loops vanish entirely."""
    return contract_with_maps(g, l)[0]


def contract_with_maps(g: DiscreteGraph, l) -> tuple[MetricGraph, list[int | None]]:
    """Contraction plus every original edge's new index (None if gone)."""
    if not isinstance(l, LengthVector):
        arr = np.asarray(l, dtype=float)
        if arr.size and np.all(arr == 0.0):
            raise DegenerateGraphError("all edge lengths are zero")
        l = LengthVector(arr)
    if l.size != g.edge_count:
        raise InvalidInputError("length vector does not match edge count")
    new_graph, edge_map = _contract(g, l.values == 0.0)
    return MetricGraph(new_graph, l.values[l.values != 0.0]), edge_map


def _contract(g: DiscreteGraph, zero: np.ndarray) -> tuple[DiscreteGraph, list[int | None]]:
    """The quotient of g by the edges where zero is true, and every edge's
    index in it (None if contracted), from the incidence alone."""
    # a class is named by its least vertex, so numbering the classes in order
    # of first appearance numbers them in the order of their least vertices
    labels: dict[int, int] = {}
    classes = _components(g.vertex_count, (uv for uv, z in zip(g.edges, zero) if z))
    vertex_map = [labels.setdefault(c, len(labels)) for c in classes]
    return _quotient(g.edges, vertex_map, (~zero).tolist())


def _quotient(edges, vertex_map: list[int], keep) -> tuple[DiscreteGraph, list[int | None]]:
    """The graph on the kept edges with vertex w renamed vertex_map[w], and
    every edge's index in it (None for a dropped edge).

    vertex_map takes the vertices of a connected graph onto 0..n-1, each
    one reached, and keep holds at least one edge: the quotient is
    connected and its ends are in range, so it is built unchecked
    (`DiscreteGraph._trusted`)."""
    new_edges: list[tuple[int, int]] = []
    edge_map: list[int | None] = []
    for (u, v), kept in zip(edges, keep):
        edge_map.append(len(new_edges) if kept else None)
        if kept:
            new_edges.append((vertex_map[u], vertex_map[v]))
    return DiscreteGraph._trusted(max(vertex_map) + 1, new_edges), edge_map


# ---------------------------------------------------------------------------
# distances on a metric tree
# ---------------------------------------------------------------------------


def tree_diameter(m: MetricGraph) -> float:
    """Largest distance between two points of a metric tree.

    For trees the diameter is attained at a pair of leaves; general graphs
    can attain it at edge-interior points and are not supported.
    """
    if betti(m.graph) != 0:
        raise UnsupportedTopologyError("diameter is only computed for metric trees")
    leaves = m.graph.leaf_vertices()   # at least two: a tree has an edge and no loop
    far = leaves[0]
    for _ in range(2):   # two sweeps: the leaf farthest from any vertex ends a longest path
        # on a tree the breadth-first tree is the tree itself: each vertex
        # lies one edge beyond the vertex that reached it
        order, via = _spanning_tree(m.graph, far)
        dist = np.zeros(m.graph.vertex_count)
        for w in order[1:]:
            a, b = m.graph.edges[via[w]]
            dist[w] = dist[a + b - w] + float(m.lengths[via[w]])
        far = leaves[int(dist[leaves].argmax())]
    return float(dist[far])


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------


def _condition_to_json(cond: DeltaTheta):
    return "dirichlet" if cond == DIRICHLET else {"delta_theta": cond.theta}


def _json_number(value, what: str) -> float:
    """A length or delta parameter of a graph document: a number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{what} must be a number, not {value!r}")
    return float(value)


def _condition_from_json(value) -> DeltaTheta:
    if value == "neumann":
        return NEUMANN
    if value == "dirichlet":
        return DIRICHLET
    if isinstance(value, dict) and set(value) == {"delta_theta"}:
        return DeltaTheta(_json_number(value["delta_theta"], "delta_theta"))
    raise InvalidInputError(f"unknown vertex condition {value!r}")


def graph_to_dict(g: DiscreteGraph, lengths: LengthVector | None = None, conditions=None) -> dict:
    """The JSON graph document of g; InvalidInputError unless the lengths
    are one per edge and the conditions one DeltaTheta per vertex."""
    doc: dict = {"vertices": g.vertex_count, "edges": [[u, v] for u, v in g.edges]}
    if lengths is not None:
        if lengths.size != g.edge_count:
            raise InvalidInputError("lengths do not match edge count")
        doc["lengths"] = [float(x) for x in lengths.values]
    if conditions is not None:
        conditions = tuple(conditions)
        if len(_alphas(conditions)) != g.vertex_count:
            raise InvalidInputError("need one condition per vertex")
        doc["conditions"] = {
            str(v): _condition_to_json(c) for v, c in enumerate(conditions) if c != NEUMANN
        }
    return doc


def graph_from_dict(doc: dict) -> tuple[DiscreteGraph, LengthVector, tuple[DeltaTheta, ...]]:
    """The graph, lengths and conditions of a JSON graph document.

    Vertex ids and the vertex count must be integers, lengths and delta
    parameters numbers, condition keys vertex ids in decimal digits; JSON
    true and false are none of these.  Anything else raises
    InvalidInputError.
    """
    try:
        vertices, edges = doc["vertices"], doc["edges"]
    except KeyError as exc:
        raise InvalidInputError(f"graph document missing field {exc}") from exc
    except TypeError as exc:
        raise InvalidInputError("graph document must be a JSON object") from exc
    try:
        g = DiscreteGraph(
            _integer(vertices, "vertices", InvalidInputError),
            [tuple(_integer(v, "a vertex id", InvalidInputError) for v in e) for e in edges],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"graph document has a malformed vertex or edge: {exc}") from exc
    if "lengths" in doc:
        if not isinstance(doc["lengths"], list):
            raise InvalidInputError("lengths must be a list of numbers")
        lengths = LengthVector([_json_number(x, "a length") for x in doc["lengths"]])
        if lengths.size != g.edge_count:
            raise InvalidInputError("lengths do not match edge count")
    else:
        lengths = equilateral(g.edge_count)
    conditions = doc.get("conditions", {})
    if not isinstance(conditions, dict):
        raise InvalidInputError("conditions must be an object keyed by vertex id")
    conds = [NEUMANN] * g.vertex_count
    for key, value in conditions.items():
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            raise InvalidInputError(f"condition key {key!r} is not a vertex id")
        v = int(key)
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError(f"condition for unknown vertex {v}")
        conds[v] = _condition_from_json(value)
    return g, lengths, tuple(conds)


def save_graph(path, g: DiscreteGraph, lengths: LengthVector | None = None, conditions=None) -> None:
    # the document is built before the file is opened, so bad input leaves it as it was
    text = json.dumps(graph_to_dict(g, lengths, conditions), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_graph(path) -> tuple[DiscreteGraph, LengthVector, tuple[DeltaTheta, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read graph file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"graph file {path} is not valid JSON: {exc}") from exc
    return graph_from_dict(doc)
