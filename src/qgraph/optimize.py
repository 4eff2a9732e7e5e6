"""Spectral-gap optimization over the length simplex.

Maximization runs simplex-projected ascent on the exact gradient of k1^2
(minus the edge energies) while the gap is simple, symmetrizes dangling
edges and loops (provably non-decreasing) when it is not, pins edges that
hit the lower length bound and contracts them after a few iterations so
boundary supremizers are reached exactly, and reduces over random
restarts.  Infimization is constructive: all length onto one bridge (unit
interval, gap pi) or onto one cycle edge (circle, gap 2 pi).  A simplex
grid brute force serves as ground truth on small instances.

Most trial points of the ascent lose.  A gradient step, its expansion, the
equalize probe and a contract probe must beat the held gap plus
IMPROVE_TOL; a candidate that does not is decided by the eigenvalue count
at that floor against the count at the search floor (`gap_reaches`), and
only a kept move gets the full gap search.  The brute force skips its
grid points that cannot win the same way.  Every graph either builds is
Neumann, so the count at the search floor is known to be 1 and
`gap_reaches` costs one count; each count couples through the incidence
its graph built once.  A trial point within NO_MOVE_RTOL (relative) of
the lengths it would replace is no move and ends the step search.

The restarts run in lockstep.  An ascent is a generator that hands up
the count requests of its level searches (`spectral._drive`), and
`maximize_gap` drives all of them together: at each step the pending
counts of one matrix shape cost one stacked eigvalsh.  Every ascent is
sent the values it would get alone, so its result and trace do not
depend on its company.  Eigenspaces are solved inside each ascent with
the multiplicity its level search counted, and candidate metric graphs
take the projected lengths as they are (`graph._trusted_metric`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidGroupError,
    InvalidInputError,
    NotApplicableError,
    ResourceBudgetError,
)
from ._parallel import parallel_map
from .graph import (
    DiscreteGraph,
    LengthVector,
    MetricGraph,
    _integer,
    _spanning_tree,
    _trusted_metric,
    contract_with_maps,
    contract_zero_edges,
    find_bridges,
)
from . import families
from .spectral import (
    _Search,
    _drive,
    _eigenbasis,
    _eigenvalue_search,
    _gap_search,
    _reaches,
    gap_reaches,
    spectral_gap,
)

GAP_SLACK = 1e-10   # moves must not lose more than this
CLUSTER_WINDOW = 2e-4   # branches within k1 * (1 + this) steer the ascent together
MAX_ITERS = 120     # ascent iterations per start
L_MIN = 1e-4        # length floor of the ascent
PIN_ITERS = 5       # iterations at the floor before an edge is contracted
STEP_SCALE = 0.1    # length of the first trial gradient step
IMPROVE_TOL = 1e-9  # least gain that counts as a move
NO_MOVE_RTOL = 1e-5  # a trial point this close, relative, to the lengths is no move


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


def catalog_entry(family: str, *params: int) -> CatalogEntry:
    """Canonical lengths and closed-form gap for a named family.

    Families: star E, flower E, stower (Ep, El), mandarin E, necklace B,
    standarin (n, M, S).  The stower (1, 1) has no equilateral maximizer
    (its supremizer is a single loop) and is rejected.
    """
    if family == "star":
        (E,) = params
        if E < 2:
            raise InvalidInputError("star family needs E >= 2")
        g, l = families.star(E)
        return CatalogEntry(family, params, g, l, math.pi * E / 2.0, E - 1)
    if family == "flower":
        (E,) = params
        if E < 1:
            raise InvalidInputError("flower family needs E >= 1")
        g, l = families.flower(E)
        return CatalogEntry(family, params, g, l, math.pi * E if E > 1 else 2 * math.pi,
                            E - 1 if E > 1 else 2)
    if family == "stower":
        Ep, El = params
        if Ep + El < 2:
            raise InvalidInputError("stower family needs Ep + El >= 2")
        if (Ep, El) == (1, 1):
            raise InvalidInputError(
                "stower (1,1) has no equilateral maximizer; its supremizer is a single loop"
            )
        g, l = families.stower(Ep, El)
        return CatalogEntry(family, params, g, l, math.pi * (2 * Ep + El) / 2.0, Ep + El - 1)
    if family == "mandarin":
        (E,) = params
        g, l = families.mandarin(E)
        # the sine-difference modes span E-1 dimensions and the symmetric
        # cosine mode adds one, so the gap pi E carries multiplicity E
        return CatalogEntry(family, params, g, l, math.pi * E, E)
    if family == "necklace":
        (B,) = params
        g, l = families.necklace(B)
        return CatalogEntry(family, params, g, l, 2 * math.pi, None)
    if family == "standarin":
        n, M, S = params
        g, l = families.standarin_chain(n, M, S)
        return CatalogEntry(family, params, g, l, math.pi * n, 1)
    raise InvalidInputError(f"unknown catalog family {family!r}")


def full_catalog() -> list[CatalogEntry]:
    entries = []
    for E in (2, 3, 4, 5):
        entries.append(catalog_entry("star", E))
    for E in (2, 3, 4):
        entries.append(catalog_entry("flower", E))
    for Ep, El in ((3, 2), (2, 2), (1, 2), (1, 3), (2, 1), (3, 1)):
        entries.append(catalog_entry("stower", Ep, El))
    for E in (2, 3, 4):
        entries.append(catalog_entry("mandarin", E))
    for B in (1, 2, 3):
        entries.append(catalog_entry("necklace", B))
    for n, M, S in ((2, 1, 1), (2, 2, 0), (2, 1, 2), (2, 2, 1), (2, 3, 0)):
        entries.append(catalog_entry("standarin", n, M, S))
    return entries


def upper_bound(g: DiscreteGraph) -> float:
    """Global bound k1 <= pi (E - El/2), El counting leaf edges.

    Not applicable for (E, El) in {(1,1), (1,0), (2,1)} (single interval,
    single loop, lasso), where the bound fails or degenerates.
    """
    E = g.edge_count
    El = len(g.leaf_edges())
    if (E, El) in ((1, 1), (1, 0), (2, 1)):
        raise NotApplicableError(f"bound excluded for (E, El) = ({E}, {El})")
    return math.pi * (E - El / 2.0)


# ---------------------------------------------------------------------------
# symmetrization of dangling edges and loops
# ---------------------------------------------------------------------------


def symmetrizable_groups(g: DiscreteGraph) -> list[tuple[int, str, tuple[int, ...]]]:
    """(vertex, kind, edge ids) for every group of >= 2 dangling edges or loops."""
    deg = g.degrees()
    groups = []
    for v in range(g.vertex_count):
        loops = tuple(e for e, (a, b) in enumerate(g.edges) if a == v and b == v)
        dangling = tuple(
            e
            for e, (a, b) in enumerate(g.edges)
            if a != b and ((a == v and deg[b] == 1) or (b == v and deg[a] == 1))
        )
        if len(loops) >= 2:
            groups.append((v, "loops", loops))
        if len(dangling) >= 2:
            groups.append((v, "dangling", dangling))
    return groups


def symmetrize(m: MetricGraph, v: int, group) -> LengthVector:
    """Replace the group's lengths by their mean; the gap cannot decrease.

    The group must lie within one of the `symmetrizable_groups` at v:
    all dangling edges at v or all loops at v.  The graph must have at
    least three edges.
    """
    g = m.graph
    group = tuple(sorted(int(e) for e in group))
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


def _project_simplex_lb(y: np.ndarray, l_min: float) -> np.ndarray:
    """Euclidean projection onto { x >= l_min, sum x = 1 }."""
    n = y.size
    budget = 1.0 - n * l_min
    if budget < 0:
        raise InvalidInputError("lower bound infeasible")
    z = y - l_min
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - budget
    rho = np.nonzero(u * np.arange(1, n + 1) > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(z - tau, 0.0) + l_min


class _AscentState:
    """Lengths on a (possibly contracted) topology plus the original indexing."""

    def __init__(self, g: DiscreteGraph, lengths: np.ndarray, orig_map: list[int | None]):
        self.graph = g
        self.lengths = lengths
        self.orig_map = orig_map          # original edge -> current index or None
        self.pin_count = np.zeros(g.edge_count, dtype=int)

    def metric(self) -> MetricGraph:
        return _trusted_metric(self.graph, self.lengths)

    def original_lengths(self, n_orig: int) -> LengthVector:
        out = np.zeros(n_orig)
        for orig, cur in enumerate(self.orig_map):
            if cur is not None:
                out[orig] = self.lengths[cur]
        return LengthVector(out)


def _settle(state: _AscentState, drop=()) -> _AscentState:
    """Contract the edges in drop, set every symmetrizable group to its mean
    and renormalize.

    Symmetrizing never lowers the gap.  Groups share no edges and a mean
    keeps their sum, so all of them are set in one move.  Without drop the
    topology and the pin counts carry over.
    """
    g, lv, orig_map = state.graph, state.lengths.copy(), state.orig_map
    if drop:
        lv[list(drop)] = 0.0
        mg, edge_map = contract_with_maps(g, LengthVector(lv / lv.sum()))
        g, lv = mg.graph, mg.lengths.copy()
        orig_map = [None if cur is None else edge_map[cur] for cur in orig_map]
    if g.edge_count >= 3:
        for _v, _kind, group in symmetrizable_groups(g):
            lv[list(group)] = lv[list(group)].mean()
    settled = _AscentState(g, lv / lv.sum(), orig_map)
    if not drop:
        settled.pin_count = state.pin_count
    return settled


def _cluster_energies(m: MetricGraph, k1: float) -> _Search:
    """Edge energies averaged over the eigenspaces near the gap k1 of m.

    Near-degenerate gaps make single-branch gradients zigzag across the
    eigenvalue crossing; averaging the energies over every branch within
    a relative window of k1 gives a stable ascent direction (for a truly
    multiple gap this is the basis-independent eigenspace trace).  Each
    eigenspace takes the multiplicity the window's search counted.
    """
    cluster = (yield from _eigenvalue_search(m, k1 * (1.0 + CLUSTER_WINDOW), k1 - 1e-7)).eigenpairs
    total = np.zeros(m.graph.edge_count)
    dims = 0
    for p in cluster:
        for f in _eigenbasis(m, p.k, p.multiplicity):
            total += f.energies()
            dims += 1
    return total / dims


def _gap_above(m: MetricGraph, floor: float) -> _Search:
    """spectral_gap(m)[0] when it exceeds floor, else None.

    `gap_reaches` settles a candidate below floor with two counts; only one
    that reaches floor gets the full search, whose value is compared again.
    """
    if not (yield from _reaches(m, floor)):
        return None
    gap = (yield from _gap_search(m))[0]
    return gap if gap > floor else None


def _no_move(cand: np.ndarray, lengths: np.ndarray, atol: float) -> bool:
    """np.allclose(cand, lengths, rtol=NO_MOVE_RTOL, atol=atol) for finite
    lengths of one shape, without its overhead."""
    return bool((np.abs(cand - lengths) <= atol + NO_MOVE_RTOL * np.abs(lengths)).all())


def _single_ascent(state: _AscentState, trace: list[TraceStep]) -> _Search:
    """One ascent from state, appending its moves to trace; returns (state, gap)."""
    gap = (yield from _gap_search(state.metric()))[0]
    trace.append(TraceStep(gap, 0.0, "init"))

    for _ in range(MAX_ITERS):
        moved = False

        # symmetrization moves are non-decreasing whenever they apply
        if state.graph.edge_count >= 3 and any(
            np.ptp(state.lengths[list(group)]) > 1e-13
            for _v, _kind, group in symmetrizable_groups(state.graph)
        ):
            cand = _settle(state)
            cand_gap = (yield from _gap_search(cand.metric()))[0]
            if cand_gap >= gap - GAP_SLACK:
                if cand_gap > gap + IMPROVE_TOL:
                    moved = True
                state, gap = cand, cand_gap
                trace.append(TraceStep(gap, 0.0, "symmetrize"))

        # ascent step along the eigenspace-averaged energy gradient; gradient
        # moves must strictly improve (the slack is reserved for the provably
        # non-decreasing moves, otherwise slack-sized losses can accumulate)
        energies = yield from _cluster_energies(state.metric(), gap)
        direction = energies.mean() - energies
        norm = float(np.linalg.norm(direction))
        if norm > 1e-12 * energies.mean():
            eta = STEP_SCALE / norm
            accepted = None
            for _halving in range(40):
                cand = _project_simplex_lb(state.lengths + eta * direction, L_MIN)
                if _no_move(cand, state.lengths, 1e-15):
                    break
                cand_gap = yield from _gap_above(_trusted_metric(state.graph, cand), gap + IMPROVE_TOL)
                if cand_gap is not None:
                    accepted = (cand, cand_gap, eta)
                    break
                eta *= 0.5
            # expand the step while it keeps improving
            while accepted is not None:
                eta2 = accepted[2] * 2.0
                cand = _project_simplex_lb(state.lengths + eta2 * direction, L_MIN)
                if _no_move(cand, accepted[0], 1e-15):
                    break
                cand_gap = yield from _gap_above(_trusted_metric(state.graph, cand), accepted[1] + IMPROVE_TOL)
                if cand_gap is not None:
                    accepted = (cand, cand_gap, eta2)
                else:
                    break
            if accepted is not None:
                state.lengths, gap = accepted[0], accepted[1]
                trace.append(TraceStep(gap, accepted[2], "gradient"))
                moved = True

        # nonsmooth stalls (gap maximum at an eigenvalue crossing): probe
        # boundary moves, symmetrized, keeping the best strictly improving
        # one.  Candidates: drop one edge at a time, or contract every
        # internal edge at once (the stower realization, which is how the
        # closed-form supremizers of trees and of non-tree graphs arise).
        if not moved and state.graph.edge_count >= 2:
            # the fully equilateral point first: exact maximizer for mandarin
            # topologies, where no dangling/loop symmetrization applies
            cand = np.full(state.graph.edge_count, 1.0 / state.graph.edge_count)
            if not _no_move(cand, state.lengths, 1e-14):
                cand_gap = yield from _gap_above(_trusted_metric(state.graph, cand), gap + IMPROVE_TOL)
                if cand_gap is not None:
                    state.lengths, gap = cand, cand_gap
                    trace.append(TraceStep(gap, 0.0, "equalize"))
                    moved = True

        if not moved and state.graph.edge_count >= 2:
            probes: list[list[int]] = [[e] for e in range(state.graph.edge_count)]
            leaf_edges = set(state.graph.leaf_edges())
            loops = {e for e in range(state.graph.edge_count) if state.graph.is_loop(e)}
            internal = [
                e for e in range(state.graph.edge_count)
                if e not in leaf_edges and e not in loops
            ]
            if 1 < len(internal) < state.graph.edge_count:
                probes.append(internal)
            best_probe = None
            for drop in probes:
                if len(drop) >= state.graph.edge_count:
                    continue
                cand_state = _settle(state, drop)
                cand_gap = yield from _gap_above(cand_state.metric(), gap + IMPROVE_TOL)
                if cand_gap is not None and (best_probe is None or cand_gap > best_probe[1]):
                    best_probe = (cand_state, cand_gap)
            if best_probe is not None:
                state, gap = best_probe
                trace.append(TraceStep(gap, 0.0, "contract-probe"))
                moved = True

        # pin bookkeeping and boundary contraction; contraction is evaluated
        # together with the symmetrization of any groups it creates, which
        # often lands exactly on the closed-form supremizer
        at_floor = state.lengths <= L_MIN * (1 + 1e-9)
        state.pin_count[at_floor] += 1
        state.pin_count[~at_floor] = 0
        to_zero = [int(e) for e in np.nonzero(state.pin_count >= PIN_ITERS)[0]]
        if to_zero and len(to_zero) < state.graph.edge_count:
            cand_state = _settle(state, to_zero)
            cand_gap = (yield from _gap_search(cand_state.metric()))[0]
            if cand_gap >= gap - GAP_SLACK:
                state, gap = cand_state, cand_gap
                trace.append(TraceStep(gap, 0.0, "contract"))
                moved = True
            else:
                state.pin_count[to_zero] = -10 * PIN_ITERS  # back off

        pin_pending = bool(
            np.any((state.pin_count > 0) & (state.pin_count < PIN_ITERS))
        )
        if not moved and not pin_pending:
            break

    return state, gap


def maximize_gap(
    g: DiscreteGraph, init: LengthVector, options: MaximizeOptions | None = None
) -> OptimizationResult:
    """Search for the maximal spectral gap over the closed length simplex.

    Runs the ascent from the given lengths and from random restarts,
    reducing by best gap; the result's lengths live on the original edge
    index set with zeros for contracted edges.
    """
    opts = options or MaximizeOptions()
    if init.size != g.edge_count:
        raise InvalidInputError("init lengths do not match the graph")
    rng = np.random.default_rng(opts.seed)

    starts = [_AscentState(g, init.values.copy(), list(range(g.edge_count)))]
    if init.zero_edges():
        # honor a boundary start by contracting it first
        starts[0] = _settle(starts[0], init.zero_edges())
    for _ in range(opts.seeds):
        lv = families.random_lengths(rng, g.edge_count, l_min=2 * L_MIN).values
        starts.append(_AscentState(g, lv, list(range(g.edge_count))))

    # the ascents run in lockstep: each step of the driver takes every
    # ascent's pending count in one stacked eigvalsh per matrix shape
    traces: list[list[TraceStep]] = [[] for _ in starts]
    ascents = parallel_map(lambda j: _single_ascent(starts[j], traces[j]), range(len(starts)))
    best: tuple[float, _AscentState, list[TraceStep]] | None = None
    for (state, gap), trace in zip(_drive(ascents), traces):
        if best is None or gap > best[0] + 1e-12:
            best = (gap, state, trace)

    gap, state, trace = best
    lengths = state.original_lengths(g.edge_count)
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
    single cycle, the shortest symmetric necklace.
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
        raise InvalidInputError(
            f"infimizer realization gap {gap} differs from the closed form {expected}"
        )
    trace = (TraceStep(gap, 0.0, "construct"),)
    return OptimizationResult(lengths, gap, "infimizer", trace)


# ---------------------------------------------------------------------------
# brute force over a simplex grid
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_gap(g: DiscreteGraph, resolution: int, mode: str = "max") -> OptimizationResult:
    """Exhaustive scan of the simplex grid { c / resolution }; small instances only."""
    if mode not in ("max", "min"):
        raise InvalidInputError("mode must be 'max' or 'min'")
    E = g.edge_count
    if E > 5 or resolution > 40:
        raise ResourceBudgetError("brute force supports E <= 5 and resolution <= 40")
    n_points = math.comb(resolution + E - 1, E - 1)
    if n_points > 300_000:
        raise ResourceBudgetError(f"grid of {n_points} points exceeds the budget")

    best_gap = None
    best_lengths = None
    sign = 1.0 if mode == "max" else -1.0
    for comp in _compositions(resolution, E):
        lengths = LengthVector(np.array(comp, dtype=float) / resolution)
        mg = contract_zero_edges(g, lengths)
        # a max winner reaches best + 1e-12, a min winner does not reach
        # best - 1e-12; two counts rule out every other point
        if best_gap is not None and gap_reaches(mg, best_gap + sign * 1e-12) != (mode == "max"):
            continue
        gap, _ = spectral_gap(mg)
        if best_gap is None or sign * gap > sign * best_gap + 1e-12:
            best_gap = gap
            best_lengths = lengths
    assert best_gap is not None and best_lengths is not None
    label = "maximizer" if mode == "max" else "minimizer"
    classification = f"{label}-candidate" if best_lengths.is_interior() else (
        "supremizer-candidate" if mode == "max" else "infimizer-candidate"
    )
    trace = (TraceStep(best_gap, 0.0, f"brute-{mode}"),)
    return OptimizationResult(best_lengths, best_gap, classification, trace)
