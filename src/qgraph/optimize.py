"""Spectral-gap optimization over the length simplex.

Maximization runs a simplex-projected ascent on the exact derivatives of
k1^2 (minus the edge energies), symmetrizes dangling edges and loops
(provably non-decreasing), contracts edges pinned at the lower length
bound, after a few iterations or at once when the ascent cannot step, so
boundary supremizers are reached exactly, and reduces over random
restarts.  Infimization is constructive: all length onto one bridge (unit
interval, gap pi) or onto one cycle edge (circle, gap 2 pi).

The maximizers sit where the gap is multiple: its lowest branches cross.
Each step of the ascent takes the gap and, where its linear model can meet
the next level's within the step, that level as a second branch, and
steps by the bundle of their linear models (`_bundle_step`): a gradient
step while the other branch stays above, else onto the hyperplane where
the models meet, so the ascent lands on the crossing instead of halving
across it.  Where the branches have merged into one multiple level, the
density matrix of `perturbation.density_certificate` gives the steepest
ascent direction, and certifies the point critical where it levels the
edge energies (M. Overton, SIAM J. Optim. 2, 1992; A. Lewis and M.
Overton, Acta Numerica, 1996).  A certified ascent takes no step; its
contract probes then keep a face whose gap ties it within GAP_SLACK, so
on a plateau of maximizers the supremizer on the face is reported.

Each iteration ends with one round of faces, counted together: the
contract probes where no step moved, and the face of the edges pinned at
the length floor.  Every face is first held against the global bound
k1 <= pi (E' - E'_l/2) of the quotient it lands on (`_face_bound`), read
off the incidence; a face whose bound lies below the floor its gap must
reach is neither built, settled nor counted (BOUND_MARGIN).  The star,
flower and mandarin maximizers attain the bound, so a certified star or
flower ends without building a face.  An ascent ends at the first
iteration where neither a step nor a face moves.

Most trial points of the ascent lose.  A gradient step, its expansion and
a contract probe must beat the held gap plus IMPROVE_TOL, or only the
bound less GAP_SLACK where that is lower (`_Proof.floor`), so a trial
that proves the optimum moves however little it gains; a pinned face must
tie the gap within GAP_SLACK.  A candidate is decided by the eigenvalue
count at its floor against the count at the search floor
(`spectral._reaches`), and only a kept move gets the full gap search.
The count at the search floor is known, so that decision costs one
count; each count couples through the incidence its graph built once.
A trial whose linear models do not expect it to beat that floor is not
counted: it ends the step search, as does one the length floor clips to
the lengths.

The restarts run in lockstep.  An ascent is a generator that hands up
the count requests of its level searches (`_lockstep._drive`), and
`_ascend` drives the restarts together, after the given start where the
bound applies (below): at each step the pending counts of one matrix
shape cost one stacked eigvalsh.  An ascent searches its start and that
start's symmetrization together, and each round of faces too
(`_lockstep._together`).  Every ascent is sent the values it would get
alone, so unless a stop at the bound (below) cuts it short, an ascent's
result and trace do not depend on its company.  Eigenspaces are solved
inside each ascent with the multiplicity its level search counted, and
candidate metric graphs take the projected lengths as they are
(`graph._trusted_metric`).  An ascent holds its gap as the `_Level` of
its gap search, with the count just above the gap: the window of the
second branch (`_cluster_energies`) is searched up from that count, so
one count at the window's top shows when the gap is alone in it.

The restarts also share the topologies they reach.  `maximize_gap` builds
one `_Topology` for its graph, holding its symmetrizable groups, its
contract probes and their faces' bounds, and every start begins there.  A
contraction that passes its bound is asked of the topology it leaves, by
the edges it drops; the first request builds
the quotient from the incidence (`graph._contract`) and its `_Topology`,
and every later one, from any start, takes them as they are.  The tree
lives for one call, so its size is bounded by the faces that call probes.

The restarts stop at a proven optimum.  An ascent whose gap comes
within GAP_SLACK of the bound pi (E - El/2) of the call's graph holds
the global maximum, which every other restart can at best tie.  So the
given start runs first, and where it reaches the bound the restarts
never start, as from every interior start of a star or a flower, in its
first symmetrization.  Otherwise the restarts run after it; an ascent
that reaches the bound runs on to its own end, and every ascent still
below it then ends at the top of its next iteration (`_Proof`).  A stopped ascent
ends below the bound, so it never wins, and its trace is the head of the
one it takes alone.  Where the bound is infinite (the lasso) no proof
can end the call, and all the ascents run in one lockstep; where it is
not attained (necklaces, standarins, the dumbbell) no ascent stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidGroupError,
    InvalidInputError,
    NotApplicableError,
)
from ._lockstep import _together
from ._parallel import parallel_map
from .graph import (
    DiscreteGraph,
    LengthVector,
    MetricGraph,
    _components,
    _contract,
    _integer,
    _spanning_tree,
    _trusted_metric,
    contract_zero_edges,
    find_bridges,
    tree_diameter,
)
from . import families
from .spectral import (
    _Level,
    _Search,
    _TrigCount,
    _drive,
    _eigenbasis_coeffs,
    _first_level,
    _gap_search,
    _reaches,
    spectral_gap,
)
from .perturbation import _project_simplex_lb, density_certificate, energy_matrices

GAP_SLACK = 1e-10   # moves must not lose more than this
MAX_ITERS = 120     # ascent iterations per start
L_MIN = 1e-4        # length floor of the ascent
PIN_ITERS = 5       # iterations at the floor before a pin, while steps move
STEP_SCALE = 0.1    # length of the first trial gradient step
IMPROVE_TOL = 1e-9  # least gain that counts as a move, save one onto the bound (`_Proof.floor`)
# A face's gap is at most its proven bound (`_face_bound`), and a level is
# found to within its float error, LEVEL_ULPS ulps; so a face whose bound
# lies this far below a floor cannot reach it, whatever its lengths.  The
# margin is far above that error, so skipping such faces stays exact, and
# also above GAP_SLACK, which a floor may lie below the gap it came from;
# it is not tuned to any graph.
BOUND_MARGIN = 1e-9
LEVEL_ULPS = 16     # the float error of a level, in ulps of k: no gap lies further above a proven bound


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    params: tuple[int, ...]
    graph: DiscreteGraph
    lengths: LengthVector
    gap: float
    multiplicity: int | None


class _Family(NamedTuple):
    """A row of the catalog: the family's builder, the least sum of its
    parameters with the name of that sum (None where the builder checks
    its own range), its closed-form (gap, multiplicity), and the parameters
    `full_catalog` takes, whose length is the family's number of parameters."""

    build: Callable[..., tuple[DiscreteGraph, LengthVector]]
    least: tuple[int, str] | None
    closed_form: Callable[..., tuple[float, int | None]]
    listed: tuple[tuple[int, ...], ...]


_CATALOG = {
    "star": _Family(families.star, (2, "E"), lambda E: (math.pi * E / 2.0, E - 1), ((2,), (3,), (4,), (5,))),
    "flower": _Family(families.flower, (1, "E"),
                      lambda E: (math.pi * E, E - 1) if E > 1 else (2 * math.pi, 2), ((2,), (3,), (4,))),
    "stower": _Family(families.stower, (2, "Ep + El"), lambda Ep, El: (math.pi * (2 * Ep + El) / 2.0, Ep + El - 1),
                      ((3, 2), (2, 2), (1, 2), (1, 3), (2, 1), (3, 1))),
    # the sine-difference modes span E-1 dimensions and the symmetric
    # cosine mode adds one, so the gap pi E carries multiplicity E
    "mandarin": _Family(families.mandarin, None, lambda E: (math.pi * E, E), ((2,), (3,), (4,))),
    "necklace": _Family(families.necklace, None, lambda B: (2 * math.pi, None), ((1,), (2,), (3,))),
    "standarin": _Family(families.standarin_chain, None, lambda n, M, S: (math.pi * n, 1),
                         ((2, 1, 1), (2, 2, 0), (2, 1, 2), (2, 2, 1), (2, 3, 0))),
}


def catalog_entry(family: str, *params: int) -> CatalogEntry:
    """Canonical lengths and closed-form gap for a named family of `_CATALOG`.

    Families: star E, flower E, stower (Ep, El), mandarin E, necklace B,
    standarin (n, M, S).  The stower (1, 1) has no equilateral maximizer
    (its supremizer is a single loop) and is rejected, as are a wrong
    number of parameters and parameters that are not integers.
    """
    if not isinstance(family, str) or family not in _CATALOG:
        raise InvalidInputError(f"unknown catalog family {family!r}")
    row = _CATALOG[family]
    arity = len(row.listed[0])
    if len(params) != arity:
        raise InvalidInputError(f"{family} family takes {arity} parameter(s), not {len(params)}")
    params = tuple(_integer(p, f"{family} parameter", InvalidInputError) for p in params)
    if row.least is not None and sum(params) < row.least[0]:
        raise InvalidInputError(f"{family} family needs {row.least[1]} >= {row.least[0]}")
    if family == "stower" and params == (1, 1):
        raise InvalidInputError("stower (1,1) has no equilateral maximizer; its supremizer is a single loop")
    g, l = row.build(*params)
    return CatalogEntry(family, params, g, l, *row.closed_form(*params))


def full_catalog() -> list[CatalogEntry]:
    return [catalog_entry(family, *params) for family, row in _CATALOG.items() for params in row.listed]


def upper_bound(g: DiscreteGraph) -> float:
    """Global bound k1 <= pi (E - El/2), El counting leaf edges.

    Not applicable for (E, El) in {(1,1), (1,0), (2,1)} (single interval,
    single loop, lasso), where the bound fails or degenerates.  The bound
    is attained by the star, flower and mandarin maximizers; the ascent
    skips every contraction whose face's bound (`_face_bound`) lies below
    the gap it must reach, and `maximize_gap` starts no restart where its
    given start reaches the bound, and stops its restarts once one does.
    """
    bound = _face_bound(g, ())
    if bound == math.inf:
        raise NotApplicableError(f"bound excluded for (E, El) = ({g.edge_count}, {len(g.leaf_edges())})")
    return bound


def _face_bound(g: DiscreteGraph, drop) -> float:
    """The bound pi (E' - E'_l/2) of the quotient of g by the edges in drop,
    infinite for the pairs `upper_bound` excludes, from the incidence
    alone: the dropped edges' components are the quotient's vertices, a
    loop counts twice in a degree, and a leaf edge has an end of degree
    one."""
    dropped = set(drop)
    classes = _components(g.vertex_count, (g.edges[e] for e in dropped))
    kept = [(classes[u], classes[v]) for e, (u, v) in enumerate(g.edges) if e not in dropped]
    degree = [0] * g.vertex_count
    for u, v in kept:
        degree[u] += 1
        degree[v] += 1
    E, El = len(kept), sum(degree[u] == 1 or degree[v] == 1 for u, v in kept)
    if (E, El) in ((1, 1), (1, 0), (2, 1)):
        return math.inf
    return math.pi * (E - El / 2.0)


# ---------------------------------------------------------------------------
# symmetrization of dangling edges and loops
# ---------------------------------------------------------------------------


def symmetrizable_groups(g: DiscreteGraph) -> list[tuple[int, str, tuple[int, ...]]]:
    """(vertex, kind, edge ids) for every group of >= 2 dangling edges or loops,
    by vertex, a vertex's loops before its dangling edges, edge ids ascending."""
    deg = g.degrees().tolist()
    loops: dict[int, list[int]] = {}
    dangling: dict[int, list[int]] = {}
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            loops.setdefault(a, []).append(e)
            continue
        if deg[b] == 1:
            dangling.setdefault(a, []).append(e)
        if deg[a] == 1:
            dangling.setdefault(b, []).append(e)
    groups = []
    for v in sorted(loops.keys() | dangling.keys()):
        for kind, edges in (("loops", loops.get(v, ())), ("dangling", dangling.get(v, ()))):
            if len(edges) >= 2:
                groups.append((v, kind, tuple(edges)))
    return groups


def symmetrize(m: MetricGraph, v: int, group) -> LengthVector:
    """Replace the group's lengths by their mean; the gap cannot decrease.

    The group must lie within one of the `symmetrizable_groups` at v:
    all dangling edges at v or all loops at v, each edge once.  The graph
    must have at least three edges.  v and the edge ids must be integers
    (numpy's included), not bools, floats or strings.
    """
    g = m.graph
    v = _integer(v, "symmetrization vertex", InvalidGroupError)
    group = tuple(sorted(_integer(e, "symmetrization edge id", InvalidGroupError) for e in group))
    if len(set(group)) < len(group):
        raise InvalidGroupError(f"edges {group} repeat an edge")
    if len(group) < 2:
        raise InvalidGroupError("symmetrization needs at least two edges")
    if g.edge_count < 3:
        raise InvalidGroupError("symmetrization requires a graph with E >= 3")
    if not any(w == v and set(group) <= set(edges) for w, _kind, edges in symmetrizable_groups(g)):
        raise InvalidGroupError(f"edges {group} are not all loops or all dangling edges at {v}")
    lengths = m.lengths.copy()
    lengths[list(group)] = lengths[list(group)].mean()
    return LengthVector(lengths / lengths.sum())


# ---------------------------------------------------------------------------
# optimization results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    gap: float
    step: float
    move: str


@dataclass(frozen=True)
class OptimizationResult:
    lengths: LengthVector           # original edge indexing; zeros = contracted
    gap: float
    classification: str
    trace: tuple[TraceStep, ...]

    def to_dict(self) -> dict:
        return {
            "lengths": [float(x) for x in self.lengths.values],
            "gap": self.gap,
            "classification": self.classification,
            "trace": [{"gap": t.gap, "step": t.step, "move": t.move} for t in self.trace],
        }


@dataclass
class MaximizeOptions:
    seeds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("seeds", "seed"):
            if _integer(getattr(self, name), name, InvalidInputError) < 0:
                raise InvalidInputError(f"{name} must be nonnegative, not {getattr(self, name)}")


class _Topology:
    """A graph the ascent reaches and what the ascent reads of it.

    `edge_map` maps each edge of the graph `maximize_gap` was called on to
    its index here (None if contracted).  `groups` are the edge lists of its `symmetrizable_groups`
    (none below three edges, where `symmetrize` does not apply) and
    `probes` the edge sets its contract probes drop: each edge alone, and
    every internal edge at once when there are at least two and the graph
    has other edges.  `bounds` holds each probe's `_face_bound`, read off
    the incidence, so a probe whose face cannot reach the floor is skipped
    before its face is built.  `children` holds the contractions asked for
    so far, keyed by the edges they drop, so a face and its edge map are
    built once per `maximize_gap` call, and only for a probe or a pin that
    passes its bound.
    """

    __slots__ = ("graph", "edge_map", "groups", "probes", "bounds", "children")

    def __init__(self, g: DiscreteGraph, edge_map: list[int | None] | None = None):
        E = g.edge_count
        self.graph = g
        self.edge_map = list(range(E)) if edge_map is None else edge_map
        groups = symmetrizable_groups(g) if E >= 3 else []
        self.groups = [list(edges) for _v, _kind, edges in groups]
        leaf_edges = set(g.leaf_edges())
        internal = [e for e in range(E) if e not in leaf_edges and not g.is_loop(e)]
        self.probes = [[e] for e in range(E)] + ([internal] if 1 < len(internal) < E else [])
        self.bounds = [_face_bound(g, drop) for drop in self.probes]
        self.children: dict[tuple[int, ...], _Topology] = {}

    def child(self, lengths: np.ndarray) -> _Topology:
        """The quotient by the zero edges of lengths, with the call's edges
        mapped onto it, from the incidence alone: a face reads no lengths,
        so no `LengthVector` or `MetricGraph` is built."""
        zero = lengths == 0.0
        key = tuple(np.flatnonzero(zero).tolist())
        if key not in self.children:
            graph, edge_map = _contract(self.graph, zero)
            self.children[key] = _Topology(graph, [None if cur is None else edge_map[cur] for cur in self.edge_map])
        return self.children[key]


class _AscentState:
    """Lengths on a (possibly contracted) topology, and each edge's
    iterations at the length floor."""

    def __init__(self, topo: _Topology, lengths: np.ndarray):
        self.topo = topo
        self.lengths = lengths
        self.pin_count = np.zeros(topo.graph.edge_count, dtype=int)

    def metric(self) -> MetricGraph:
        return _trusted_metric(self.topo.graph, self.lengths)

    def asymmetric(self) -> bool:
        """Whether symmetrizing moves the lengths: a group's np.ptp, on Python floats, exceeds 1e-13."""
        lv = self.lengths.tolist()
        return any(max(x) - min(x) > 1e-13 for x in ([lv[e] for e in group] for group in self.topo.groups))

    def original_lengths(self) -> LengthVector:
        """The lengths on the call's edges, zero where contracted."""
        out = np.zeros(len(self.topo.edge_map))
        for orig, cur in enumerate(self.topo.edge_map):
            if cur is not None:
                out[orig] = self.lengths[cur]
        return LengthVector(out)


def _settle(state: _AscentState, drop=()) -> _AscentState:
    """Contract the edges in drop, set every symmetrizable group to its mean
    and renormalize.

    Symmetrizing never lowers the gap.  Groups share no edges and a mean
    keeps their sum, so all of them are set in one move.  Without drop the
    topology and the pin counts carry over.  The ascent's lengths are
    positive, so the contracted lengths need none of `LengthVector`'s
    checks; `_Topology.child` builds a new face, and its edge map, from
    the incidence.
    """
    topo, lv = state.topo, state.lengths.copy()
    if drop:
        lv[list(drop)] = 0.0
        lv = lv / lv.sum()
        topo = topo.child(lv)
        lv = lv[lv != 0.0]
    for group in topo.groups:
        lv[group] = lv[group].mean()
    settled = _AscentState(topo, lv / lv.sum())
    if not drop:
        settled.pin_count = state.pin_count
    return settled


class _Branch(NamedTuple):
    """A level that steers the ascent: k^2, its edge energies h, and the
    ascent direction g = mean(h) - h of its linear model k^2 + g . dl on
    the simplex, with |g|."""

    lam: float
    h: np.ndarray
    g: np.ndarray
    norm: float


def _branch(k: float, h: np.ndarray, groups: list[list[int]]) -> _Branch:
    """The branch of energies h at level k, h set to its mean on each group
    of edges of equal length that a symmetry of the graph permutes: there
    the energies of an eigenspace trace, or of an invariant density
    matrix, are equal, and the mean drops the eigenbasis's rounding, which
    a step would otherwise carry off the symmetric lengths."""
    for group in groups:
        h[group] = h[group].sum() / len(group)
    g = h.sum() / h.size - h
    return _Branch(k * k, h, g, math.sqrt(g @ g))


def _trace_energies(k: float, basis: np.ndarray) -> np.ndarray:
    """The edge energies k^2 (A_e^2 + B_e^2) averaged over the rows of an
    eigenspace basis (`_eigenbasis_coeffs`), summed row by row: the trace
    of the energy matrices over the multiplicity.  A square does not see a
    row's sign."""
    E = basis.shape[1] // 2
    return sum(k**2 * (basis[:, :E] ** 2 + basis[:, E:] ** 2)) / len(basis)


def _is_level(b: _Branch) -> bool:
    """Whether a branch's energies are level: no ascent direction is left."""
    return b.norm <= 1e-12 * (b.h.sum() / b.h.size)


def _cluster_energies(m: MetricGraph, gap: _Level, groups: list[list[int]]) -> _Search:
    """The `_Branch`es that steer the ascent from m: the gap, and the next
    level where its model can reach the gap's within a step of STEP_SCALE;
    None where the gap is certified critical.

    The gap's energies are the trace of its eigenspace (`_trace_energies`);
    where they are level, a simple gap is critical and a multiple one too,
    with rho = I/m, and nothing else is solved.  A multiple gap whose trace
    is not level takes the density matrix of `density_certificate`, which
    certifies it where it levels the energies and otherwise gives the
    steepest ascent direction of the multiple level.  The next level joins
    as a second branch where it lies below k^2 = k1^2 + 2 STEP_SCALE |g|,
    |g| the gap's slope: where its model, had it a slope no steeper, could
    meet the gap's within the step.  That window is searched up from the
    count just above k1 that the gap search took, so one count at its top
    shows when the gap is alone in it.
    """
    (basis,) = _eigenbasis_coeffs(m, [gap.k], [gap.multiplicity])
    first = _branch(gap.k, _trace_energies(gap.k, basis), groups)
    if not _is_level(first) and gap.multiplicity > 1:
        first = _branch(gap.k, density_certificate(energy_matrices(gap.k, basis))[1], groups)
    if _is_level(first):
        return None
    top = math.sqrt(first.lam + 2.0 * STEP_SCALE * first.norm)
    branches = [first]
    second = yield from _first_level(_TrigCount(m), gap.above, top)
    if second is not None:
        (basis,) = _eigenbasis_coeffs(m, [second.k], [second.multiplicity])
        branches.append(_branch(second.k, _trace_energies(second.k, basis), groups))
    return branches


def _bundle_step(branches: list[_Branch], radius: float) -> tuple[np.ndarray, float]:
    """A step dl tangent to the simplex that maximizes the least of the
    branches' linear models k_i^2 + g_i . dl, and its length, or radius
    where a ball of that radius bounds it.

    With one branch it is the gradient step (radius / |g_1|) g_1.  With two
    the dual is min over w in [0, 1] of the models' w-mix plus radius times
    the mix's gradient norm, and the step is solved in closed form: one
    branch's gradient step where the other's model stays above it there
    (w = 0 or 1), else the point nearest the lengths of the hyperplane
    where the models meet, plus (radius / |g_1|) times the gradient the two
    share along it.  That ridge part scales as a gradient step does, so an
    eigenbasis's rounding along a ridge of zero slope moves nothing.
    """
    one, *rest = branches
    step = (radius / one.norm) * one.g
    if not rest:
        return step, radius
    two = rest[0]
    if two.lam + two.g @ step >= one.lam + one.g @ step:
        return step, radius
    step2 = (radius / two.norm) * two.g if two.norm else step
    if one.lam + one.g @ step2 >= two.lam + two.g @ step2:
        return step2, radius
    c = one.g - two.g
    cc = float(c @ c)
    step = ((two.lam - one.lam) / cc) * c + (radius / one.norm) * (one.g - ((one.g @ c) / cc) * c)
    return step, math.sqrt(step @ step)


def _model_gap(branches: list[_Branch], step: np.ndarray) -> float:
    """The gap the branches' linear models k_i^2 - h_i . step predict."""
    return math.sqrt(max(min(b.lam - b.h @ step for b in branches), 0.0))


def _gap_above(m: MetricGraph, floor: float) -> _Search:
    """The `_Level` of m's gap when the gap exceeds floor, else None.

    `_reaches` settles a candidate below floor with one count of m's one
    `_TrigCount`; only one that reaches floor gets the full search.
    """
    count = _TrigCount(m)
    if not (yield from _reaches(m, floor, count)):
        return None
    gap = yield from _gap_search(m, count)
    return gap if gap.k > floor else None


def _no_move(cand: np.ndarray, lengths: np.ndarray, atol: float) -> bool:
    """Whether every length of cand lies within atol of lengths."""
    return bool((np.abs(cand - lengths) <= atol).all())


class _Proof:
    """Whether the ascents of one call have proven their optimum: `at` is
    the bound pi (E - El/2) of the call's graph less GAP_SLACK, infinite
    where the bound does not apply, and `reached` is set once an ascent
    holds a gap at or above it.  Stopping the others, or not starting the
    restarts once the given start has set it (`_ascend`), then gives up
    at most GAP_SLACK of the maximum, the loss a move may take.

    `floor(k)` is the gap a trial must beat to move an ascent holding k:
    k + IMPROVE_TOL, but no higher than `at` while k lies below it, so a
    trial that reaches `at` moves, and proves the optimum, however little
    it gains.  The floor lies above k, so every move gains."""

    __slots__ = ("at", "reached")

    def __init__(self, bound: float):
        self.at = bound - GAP_SLACK
        self.reached = False

    def floor(self, k: float) -> float:
        return min(k + IMPROVE_TOL, self.at) if k < self.at else k + IMPROVE_TOL


def _single_ascent(state: _AscentState, trace: list[TraceStep], proof: _Proof | None = None) -> _Search:
    """One ascent from state, appending its moves to trace; returns (state, gap).

    The ascent holds its gap as the `_Level` of its search, whose count
    above k1 `_cluster_energies` starts from.  Its first round searches
    the start and, where the start is asymmetric, its symmetrization
    together.  With proof, the ascents of one call share the stop at
    their bound: at the top of each iteration, after its symmetrization,
    an ascent whose gap has reached `proof.at` sets `proof.reached` and
    goes on, and one below it returns (state, gap) once it is set.
    Without it the bound is taken as infinite.

    Each iteration symmetrizes, then steps by the bundle of
    `_cluster_energies`' branches (`_bundle_step`) within a trust radius
    of STEP_SCALE, halved after a refused trial, and doubled while a step
    the ball bounds keeps improving.  A trial, its expansion and, off a
    certified point, a contract probe must beat `proof.floor` of the gap
    they would replace.  A gradient step's trace entry records its length
    over the gap's slope |g|, the step size of a plain gradient step.  An
    iteration whose gap is certified critical takes no step.

    The iteration ends with one round of faces, each decided by
    `_gap_above` at its floor: the contract probes where no step moved,
    and the face of the edges at the length floor, pinned after PIN_ITERS
    iterations there while steps move and at once when none moved, which
    must tie the gap within GAP_SLACK.  The best probe wins before the
    pin; a refused pin backs its edges off.  The ascent ends at the first
    iteration where neither a step nor a face moves: a symmetrization
    only brings the iteration to its iterate.
    """
    proof = proof or _Proof(math.inf)
    # the start's symmetrization, if it has one, is searched beside it
    sym = [_settle(state)] if state.asymmetric() else []
    gap, *sym_gap = yield from _together([_gap_search(x.metric()) for x in [state, *sym]])
    trace.append(TraceStep(gap.k, 0.0, "init"))

    for it in range(MAX_ITERS):
        # symmetrization moves are non-decreasing whenever they apply
        if state.asymmetric():
            if it == 0:
                cand, cand_gap = sym[0], sym_gap[0]
            else:
                cand = _settle(state)
                cand_gap = yield from _gap_search(cand.metric())
            if cand_gap.k >= gap.k - GAP_SLACK:
                state, gap = cand, cand_gap
                trace.append(TraceStep(gap.k, 0.0, "symmetrize"))

        # a gap at the proven bound is the call's optimum: that ascent runs on
        # to its end, and once one has, every ascent below it ends here
        if gap.k >= proof.at:
            proof.reached = True
        elif proof.reached:
            return state, gap.k

        # ascent step of the branches' bundle (`_bundle_step`), unless the gap
        # is certified critical; gradient moves must strictly improve (the
        # slack is reserved for the provably non-decreasing moves, otherwise
        # slack-sized losses can accumulate).  A trial the linear models do
        # not expect to beat the floor ends the search
        branches = yield from _cluster_energies(
            state.metric(), gap, [] if state.asymmetric() else state.topo.groups)
        stepped = False
        if branches is not None:
            radius, accepted, floor = STEP_SCALE, None, proof.floor(gap.k)
            for halving in range(40):
                step, length = _bundle_step(branches, radius)
                cand = _project_simplex_lb(state.lengths + step, L_MIN)
                if _model_gap(branches, cand - state.lengths) <= floor:
                    break
                cand_gap = yield from _gap_above(_trusted_metric(state.topo.graph, cand), floor)
                if cand_gap is not None:
                    accepted = (cand, cand_gap, length)
                    break
                radius = 0.5 * min(radius, length)
            # expand a step the ball bounds while it keeps improving and the
            # floor does not clip it away; after a halving, the first
            # expansion is the trial just refused
            while accepted is not None and halving == 0 and accepted[2] == radius:
                radius *= 2.0
                step, length = _bundle_step(branches, radius)
                cand = _project_simplex_lb(state.lengths + step, L_MIN)
                if _no_move(cand, accepted[0], 1e-15):
                    break
                cand_gap = yield from _gap_above(_trusted_metric(state.topo.graph, cand), proof.floor(accepted[1].k))
                if cand_gap is None:
                    break
                accepted = (cand, cand_gap, length)
            if accepted is not None:
                state.lengths, gap = accepted[0], accepted[1]
                trace.append(TraceStep(gap.k, accepted[2] / branches[0].norm, "gradient"))
                stepped = True

        # one round of faces, symmetrized and counted together: the contract
        # probes drop one edge at a time, or every internal edge at once
        # (the stower realization, which is how the closed-form supremizers
        # of trees and of non-tree graphs arise), and the pin the edges at
        # the floor.  A face whose bound lies below its floor is skipped
        # unbuilt: its gap could not reach the floor (BOUND_MARGIN)
        at_floor = state.lengths <= L_MIN * (1 + 1e-9)
        state.pin_count[at_floor] += 1
        state.pin_count[~at_floor] = 0
        E = state.topo.graph.edge_count
        faces = []
        if not stepped and E >= 2:
            floor = gap.k - GAP_SLACK if branches is None else proof.floor(gap.k)
            faces = [(drop, bound, floor, "contract-probe")
                     for drop, bound in zip(state.topo.probes, state.topo.bounds)]
        pinned = [int(e) for e in np.flatnonzero(state.pin_count >= (PIN_ITERS if stepped else 1))]
        if 0 < len(pinned) < E:
            faces.append((pinned, _face_bound(state.topo.graph, pinned), gap.k - GAP_SLACK, "contract"))
        faces = [(_settle(state, drop), floor, move) for drop, bound, floor, move in faces
                 if bound >= floor * (1.0 - BOUND_MARGIN)]
        gaps = yield from _together([_gap_above(face.metric(), floor) for face, floor, _ in faces])
        found = [(face, cand_gap, move) for (face, _, move), cand_gap in zip(faces, gaps) if cand_gap is not None]
        if found:
            state, gap, move = max(found, key=lambda face: (face[2] == "contract-probe", face[1].k))
            trace.append(TraceStep(gap.k, 0.0, move))
        elif 0 < len(pinned) < E:
            state.pin_count[pinned] = -10 * PIN_ITERS  # back off
        if not stepped and not found:
            break

    return state, gap.k


def _ascend(starts: list[_AscentState], bound: float) -> list[tuple[_AscentState, float, list[TraceStep]]]:
    """The end state, gap and trace of the ascent from every start that
    runs, in the order of the starts.

    bound is the proven bound of the graph the starts come from, infinite
    where none applies.  Where it is finite, the first start's ascent runs
    first; if its gap comes within GAP_SLACK of the bound (`_Proof`), it
    is the only ascent that runs.  Otherwise the restarts run after it,
    and once one of them reaches the bound, every one still below ends at
    its next iteration, so its end is not the one it reaches alone; every
    other ascent's is.  Where the bound is infinite no proof can end the
    call, and every ascent runs at once.  The ascents of a drive run in
    lockstep, every pending count of a matrix shape in one stacked
    eigvalsh.
    """
    traces: list[list[TraceStep]] = [[] for _ in starts]
    proof = _Proof(bound)
    ascents = parallel_map(lambda j: _single_ascent(starts[j], traces[j], proof), range(len(starts)))
    # the given start goes first where its end can prove the optimum
    lead, rest = (ascents, []) if bound == math.inf else (ascents[:1], ascents[1:])
    ends = _drive(lead)
    if rest and not proof.reached:
        ends += _drive(rest)
    return [(*end, trace) for end, trace in zip(ends, traces)]


def maximize_gap(
    g: DiscreteGraph, init: LengthVector, options: MaximizeOptions | None = None
) -> OptimizationResult:
    """Search for the maximal spectral gap over the closed length simplex.

    Runs the ascent from the given lengths and from random restarts,
    reducing by best gap, a tie within 1e-12 going to the earlier start;
    the result's lengths live on the original edge index set with zeros
    for contracted edges.  init is a LengthVector or anything
    `LengthVector` accepts.  The ascent from init runs first where the
    bound pi (E - El/2) applies, and where its gap comes within GAP_SLACK
    of the bound no restart runs.  Otherwise, once one ascent reaches the
    bound, it runs on to its end and every one still below stops at its
    next iteration, so it cannot win.  The winning trace opens with the
    gap of its start.  A result above the bound pi (E - El/2) where it
    applies, or on a tree above pi / diameter at the returned lengths, by
    more than the float error of a level, LEVEL_ULPS ulps, is an internal
    error (RuntimeError).
    """
    opts = options or MaximizeOptions()
    if not isinstance(init, LengthVector):
        init = LengthVector(init)
    if init.size != g.edge_count:
        raise InvalidInputError("init lengths do not match the graph")
    rng = np.random.default_rng(opts.seed)

    # every start shares one topology tree, so each face is contracted once
    root = _Topology(g)
    starts = [_AscentState(root, init.values.copy())]
    if init.zero_edges():
        # honor a boundary start by contracting it first
        starts[0] = _settle(starts[0], init.zero_edges())
    # the restarts draw random_lengths' stream, whose checks cannot fail on it
    for lv in families._simplex_samples(rng, g.edge_count, 2 * L_MIN, opts.seeds):
        starts.append(_AscentState(root, lv))

    # the root's bound: a boundary start is settled onto a face of lower bound
    bound = _face_bound(g, ())
    best: tuple[float, _AscentState, list[TraceStep]] | None = None
    for state, gap, trace in _ascend(starts, bound):
        if best is None or gap > best[0] + 1e-12:
            best = (gap, state, trace)

    gap, state, trace = best
    # a reported gap never exceeds a proven bound, within a level's float error
    if gap > bound + LEVEL_ULPS * math.ulp(bound):
        raise RuntimeError(f"maximize_gap: gap {gap!r} above the bound pi (E - El/2) = {bound!r}")
    if g.is_tree():
        bound = math.pi / tree_diameter(state.metric())
        if gap > bound + LEVEL_ULPS * math.ulp(bound):
            raise RuntimeError(f"maximize_gap: gap {gap!r} above the bound pi / tree_diameter = {bound!r}")
    lengths = state.original_lengths()
    classification = "maximizer-candidate" if lengths.is_interior() else "supremizer-candidate"
    return OptimizationResult(lengths, gap, classification, tuple(trace))


# ---------------------------------------------------------------------------
# infimization: constructive boundary realizations
# ---------------------------------------------------------------------------


def infimize_gap(g: DiscreteGraph) -> OptimizationResult:
    """Realize the infimal gap: unit interval (pi) on a bridge, else a circle (2 pi).

    With a bridge, all length goes onto the lowest-indexed bridge and both
    sides contract to its endpoints.  A bridgeless graph contracts every
    other edge, and the lowest-indexed edge off its breadth-first
    spanning tree (`_spanning_tree`) keeps length one and closes into a
    single cycle, the shortest symmetric necklace.  A realized gap off its
    closed form by more than 1e-8 is an internal error (RuntimeError).
    """
    bridges = find_bridges(g)
    values = np.zeros(g.edge_count)
    if bridges:
        values[min(bridges)] = 1.0
        expected = math.pi
    else:
        non_tree = set(range(g.edge_count)).difference(_spanning_tree(g)[1])
        values[min(non_tree)] = 1.0
        expected = 2 * math.pi

    lengths = LengthVector(values)
    mg = contract_zero_edges(g, lengths)
    gap, _ = spectral_gap(mg)
    if abs(gap - expected) > 1e-8:
        raise RuntimeError(f"infimize_gap: realized gap {gap!r} differs from the closed form {expected!r}")
    trace = (TraceStep(gap, 0.0, "construct"),)
    return OptimizationResult(lengths, gap, "infimizer", trace)
