"""Canonical graph families and random instances for tests and optimization.

Builders return (DiscreteGraph, LengthVector) with the canonical length
assignment of the family: equilateral for stars, flowers and mandarins,
petals twice as long as leaves for stowers, matched parallel lengths for
necklaces and standarin chains.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .graph import DiscreteGraph, LengthVector, equilateral


def interval() -> tuple[DiscreteGraph, LengthVector]:
    return DiscreteGraph(2, [(0, 1)]), LengthVector([1.0])


def path_graph(n_edges: int) -> tuple[DiscreteGraph, LengthVector]:
    if n_edges < 1:
        raise InvalidInputError("path needs at least one edge")
    g = DiscreteGraph(n_edges + 1, [(i, i + 1) for i in range(n_edges)])
    return g, equilateral(n_edges)


def star(n_edges: int) -> tuple[DiscreteGraph, LengthVector]:
    """Center vertex 0 joined to n leaves."""
    if n_edges < 1:
        raise InvalidInputError("star needs at least one edge")
    g = DiscreteGraph(n_edges + 1, [(0, i + 1) for i in range(n_edges)])
    return g, equilateral(n_edges)


def flower(n_petals: int) -> tuple[DiscreteGraph, LengthVector]:
    """Single vertex with n loops."""
    if n_petals < 1:
        raise InvalidInputError("flower needs at least one petal")
    g = DiscreteGraph(1, [(0, 0)] * n_petals)
    return g, equilateral(n_petals)


def loop() -> tuple[DiscreteGraph, LengthVector]:
    return flower(1)


def stower(n_petals: int, n_leaves: int) -> tuple[DiscreteGraph, LengthVector]:
    """n_petals loops and n_leaves dangling edges at a common vertex.

    Canonical lengths: petals 2/(2p + l), leaves 1/(2p + l).  Petal edges
    come first in the edge order.
    """
    if n_petals < 0 or n_leaves < 0 or n_petals + n_leaves < 1:
        raise InvalidInputError("stower needs at least one edge")
    edges = [(0, 0)] * n_petals + [(0, i + 1) for i in range(n_leaves)]
    g = DiscreteGraph(n_leaves + 1, edges)
    denom = 2 * n_petals + n_leaves
    lengths = [2.0 / denom] * n_petals + [1.0 / denom] * n_leaves
    return g, LengthVector(lengths)


def mandarin(n_edges: int) -> tuple[DiscreteGraph, LengthVector]:
    """Two vertices joined by n parallel edges."""
    if n_edges < 2:
        raise InvalidInputError("mandarin needs at least two parallel edges")
    g = DiscreteGraph(2, [(0, 1)] * n_edges)
    return g, equilateral(n_edges)


def necklace(n_cells: int) -> tuple[DiscreteGraph, LengthVector]:
    """Chain of n two-edge cells; symmetric (equal parallel lengths)."""
    if n_cells < 1:
        raise InvalidInputError("necklace needs at least one cell")
    edges = []
    for i in range(n_cells):
        edges.append((i, i + 1))
        edges.append((i, i + 1))
    g = DiscreteGraph(n_cells + 1, edges)
    return g, equilateral(2 * n_cells)


def dumbbell(bridge_length: float) -> tuple[DiscreteGraph, LengthVector]:
    """Loop - bridge - loop; the loops share the remaining length equally."""
    if not 0 < bridge_length < 1:
        raise InvalidInputError("bridge length must be in (0, 1)")
    g = DiscreteGraph(2, [(0, 0), (0, 1), (1, 1)])
    half = (1.0 - bridge_length) / 2.0
    return g, LengthVector([half, bridge_length, half])


def standarin_chain(
    n: int,
    n_mandarins: int,
    n_stars: int,
    leaf_length: float | None = None,
    mandarin_lengths=None,
) -> tuple[DiscreteGraph, LengthVector]:
    """Serial chain of M n-mandarins with S in {0, 1, 2} n-stars at the ends.

    All edges of one mandarin share a length, all star edges share the
    leaf length, which must stay below 1/(2n) for the closed-form gap
    n*pi to hold.  Defaults: equal mandarins, leaf length 1/(4n).
    """
    if n < 2 or n_mandarins < 1 or n_stars not in (0, 1, 2):
        raise InvalidInputError("standarin chain needs n >= 2, M >= 1, S in {0,1,2}")
    if n_mandarins + n_stars < 2:
        raise InvalidInputError("standarin chain needs M + S >= 2")
    copy_length = 1.0 / n  # each of the n parallel interval copies
    if leaf_length is None:
        leaf_length = 1.0 / (4 * n) if n_stars else 0.0
    leaf_length = float(leaf_length)   # double precision, as the mandarin lengths take
    if n_stars and not 0 < leaf_length < 1.0 / (2 * n):
        raise InvalidInputError("leaf length must lie in (0, 1/(2n))")
    # positive: two leaves below copy_length / 2 sum exactly to less than it
    mandarin_total = copy_length - n_stars * leaf_length
    if mandarin_lengths is None:
        mandarin_lengths = [mandarin_total / n_mandarins] * n_mandarins
    mandarin_lengths = [float(x) for x in mandarin_lengths]
    if len(mandarin_lengths) != n_mandarins or any(x <= 0 for x in mandarin_lengths):
        raise InvalidInputError("need one positive length per mandarin")
    if abs(sum(mandarin_lengths) - mandarin_total) > 1e-12:
        raise InvalidInputError("mandarin lengths must fill the chain")

    chain = list(range(n_mandarins + 1))  # chain vertices 0..M
    edges: list[tuple[int, int]] = []
    lengths: list[float] = []
    for i in range(n_mandarins):
        for _ in range(n):
            edges.append((chain[i], chain[i + 1]))
            lengths.append(mandarin_lengths[i])
    next_vertex = n_mandarins + 1
    star_at = [chain[0], chain[-1]][:n_stars]
    for center in star_at:
        for _ in range(n):
            edges.append((center, next_vertex))
            lengths.append(leaf_length)
            next_vertex += 1
    g = DiscreteGraph(next_vertex, edges)
    return g, LengthVector(lengths)


def caterpillar(spine_edges: int, legs_at) -> tuple[DiscreteGraph, LengthVector]:
    """Path of spine_edges with extra leaves; legs_at maps spine vertex -> count."""
    edges = [(i, i + 1) for i in range(spine_edges)]
    next_vertex = spine_edges + 1
    for v, count in sorted(legs_at.items()):
        for _ in range(count):
            edges.append((v, next_vertex))
            next_vertex += 1
    g = DiscreteGraph(next_vertex, edges)
    return g, equilateral(len(edges))


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_lengths(rng: np.random.Generator, n_edges: int, l_min: float = 0.02) -> LengthVector:
    """Uniform-ish simplex sample with every entry at least l_min."""
    return LengthVector(_simplex_samples(rng, n_edges, l_min, 1)[0])


def _simplex_samples(rng: np.random.Generator, n_edges: int, l_min: float, count: int) -> np.ndarray:
    """count successive `random_lengths` draws, as rows, in one generator call."""
    if n_edges * l_min >= 1.0:
        raise InvalidInputError("l_min too large for this many edges")
    raw = rng.dirichlet(np.ones(n_edges), size=count)
    return l_min + (1.0 - n_edges * l_min) * raw


def random_tree(rng: np.random.Generator, n_vertices: int) -> DiscreteGraph:
    """Uniform random attachment tree."""
    if n_vertices < 2:
        raise InvalidInputError("tree needs at least two vertices")
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    return DiscreteGraph(n_vertices, edges)


def random_connected_graph(rng: np.random.Generator, n_vertices: int, n_edges: int) -> DiscreteGraph:
    """Random spanning tree plus random extra edges (loops/parallels allowed)."""
    if n_edges < n_vertices - 1:
        raise InvalidInputError("too few edges for a connected graph")
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    while len(edges) < n_edges:
        u = int(rng.integers(0, n_vertices))
        v = int(rng.integers(0, n_vertices))
        edges.append((min(u, v), max(u, v)))
    return DiscreteGraph(n_vertices, edges)
