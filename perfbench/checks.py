"""Output checks made apart from qgraph: eigenvalue count, closed forms, bounds.

Nothing here imports qgraph.  A graph is described by plain data: the
vertex count, a list of (u, v) edges and a list of edge lengths, plus an
optional map from vertex to its delta coupling alpha (math.inf for
Dirichlet; vertices left out are Neumann, alpha = 0).

The eigenvalue count is the Dirichlet-to-Neumann identity (L. Friedlander,
Arch. Rational Mech. Anal. 116, 1991; Berkolaiko-Kuchment, Introduction to
Quantum Graphs, 2013):

    N(k) = sum_e (ceil(k l_e / pi) - 1) + n_-(M(k))

N(k) is the number of eigenvalues lambda < k^2, negative ones included.
The first term counts the edges' Dirichlet eigenvalues; M(k) is the vertex
matrix with diagonal sum_e k cot(k l_e) + alpha_v, off-diagonal
-k csc(k l_e), loops adding -2 k tan(k l / 2) to their vertex, and
Dirichlet vertices dropped.  It shares no code with qgraph's log|det|
scan, so it can judge that scan's output.
"""

from __future__ import annotations

import math

import numpy as np

# Relative offset at which the count is taken on either side of a level:
# far above the solver's 1e-12 bracket width and its 1e-9 cluster merge,
# far below the spacing of distinct eigenvalues of the graphs benchmarked.
DELTA = 1e-7
CLOSED_FORM_TOL = 1e-8
LEVEL_TOL = 1e-8
SGP_STRONG_TOL = 1e-6
# theta offset used to test that the dispersion branch reaches k1 at theta_SG
SGP_THETA_PROBE = 1e-3


class Graph:
    """Plain description of a metric graph, independent of qgraph's types."""

    def __init__(self, n_vertices: int, edges, lengths) -> None:
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.lengths = [float(x) for x in lengths]
        if len(self.edges) != len(self.lengths):
            raise ValueError("need one length per edge")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def leaf_edge_count(self) -> int:
        deg = self.degrees()
        return sum(1 for u, v in self.edges if u != v and (deg[u] == 1 or deg[v] == 1))

    def is_bridgeless(self) -> bool:
        """True when removing any single edge leaves the graph connected."""
        return all(_connected(self.n_vertices, self.edges[:e] + self.edges[e + 1:])
                   for e in range(self.edge_count))

    def contracted(self) -> "Graph":
        """Drop zero-length edges and identify their endpoints."""
        parent = list(range(self.n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for (u, v), l in zip(self.edges, self.lengths):
            if l == 0.0:
                ru, rv = find(u), find(v)
                parent[max(ru, rv)] = min(ru, rv)
        roots = sorted({find(v) for v in range(self.n_vertices)})
        index = {r: i for i, r in enumerate(roots)}
        kept = [(e, l) for e, l in zip(self.edges, self.lengths) if l != 0.0]
        return Graph(len(roots), [(index[find(u)], index[find(v)]) for (u, v), _ in kept],
                     [l for _, l in kept])


def _connected(n_vertices: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_vertices


def count(g: Graph, k: float, alpha: dict[int, float] | None = None) -> int:
    """N(k): the number of eigenvalues lambda < k^2 (k > 0, off the Dirichlet poles)."""
    alpha = alpha or {}
    keep = [v for v in range(g.n_vertices) if not math.isinf(alpha.get(v, 0.0))]
    index = {v: i for i, v in enumerate(keep)}
    M = np.zeros((len(keep), len(keep)))
    n_dirichlet = 0
    for (u, v), l in zip(g.edges, g.lengths):
        x = k * l
        n_dirichlet += math.ceil(x / math.pi) - 1
        if u == v:
            if u in index:
                M[index[u], index[u]] -= 2.0 * k * math.tan(x / 2.0)
            continue
        cot = k / math.tan(x)
        csc = k / math.sin(x)
        for w in (u, v):
            if w in index:
                M[index[w], index[w]] += cot
        if u in index and v in index:
            M[index[u], index[v]] -= csc
            M[index[v], index[u]] -= csc
    for v in keep:
        M[index[v], index[v]] += alpha.get(v, 0.0)
    n_negative = int(np.count_nonzero(np.linalg.eigvalsh(M) < 0.0)) if keep else 0
    return n_dirichlet + n_negative


def count_around(g: Graph, k: float, alpha=None) -> tuple[int, int]:
    """(N just below k, N just above k), at the relative offset DELTA."""
    return count(g, k * (1.0 - DELTA), alpha), count(g, k * (1.0 + DELTA), alpha)


# ---------------------------------------------------------------------------
# the paper's closed forms and theorem bounds
# ---------------------------------------------------------------------------


def closed_form(family: str, params: tuple[int, ...]) -> tuple[float, int | None]:
    """Maximal gap of the family, with the multiplicity at its equilateral point.

    star: pi E / 2, multiplicity E - 1; flower: pi E, E - 1; mandarin: pi E, E;
    stower (Ep petals, El leaves): pi (2 Ep + El) / 2, multiplicity not checked.
    """
    if family == "star":
        (E,) = params
        return math.pi * E / 2.0, E - 1
    if family == "flower":
        (E,) = params
        return math.pi * E, E - 1
    if family == "mandarin":
        (E,) = params
        return math.pi * E, E
    if family == "stower":
        Ep, El = params
        return math.pi * (2 * Ep + El) / 2.0, None
    raise ValueError(f"no closed form for {family!r}")


def bound_problems(g: Graph, k1: float) -> list[str]:
    """Theorem bounds on the gap of a graph of total length one.

    k1 >= pi always; k1 >= 2 pi without bridges; k1 <= pi (E - El/2) except
    for (E, El) in {(1,1), (1,0), (2,1)}, where that bound does not hold.
    """
    out = []
    slack = 1e-9 * max(1.0, k1)
    if k1 < math.pi - slack:
        out.append(f"gap {k1!r} below pi")
    if g.is_bridgeless() and k1 < 2.0 * math.pi - slack:
        out.append(f"gap {k1!r} of a bridgeless graph below 2 pi")
    E, El = g.edge_count, g.leaf_edge_count()
    if (E, El) not in ((1, 1), (1, 0), (2, 1)):
        top = math.pi * (E - El / 2.0)
        if k1 > top + slack:
            out.append(f"gap {k1!r} above the bound pi (E - El/2) = {top!r}")
    return out


# ---------------------------------------------------------------------------
# checks of one operation's output; each returns a list of problems
# ---------------------------------------------------------------------------


def gap_problems(g: Graph, k1: float, mult: int) -> list[str]:
    """A Neumann gap passes when N(k1^-) = 1 (the constant) and
    N(k1^+) - N(k1^-) equals the reported multiplicity; bounds apply too."""
    out = bound_problems(g, k1)
    below, above = count_around(g, k1)
    if below != 1:
        out.append(f"N(k1^-) = {below}, expected 1: an eigenvalue lies below k1 = {k1!r}")
    if above - below != mult:
        out.append(f"count multiplicity {above - below} differs from reported {mult}")
    return out


def closed_form_problems(family: str, params, k1: float, mult: int | None = None) -> list[str]:
    expect_k, expect_mult = closed_form(family, tuple(params))
    out = []
    if abs(k1 - expect_k) > CLOSED_FORM_TOL:
        out.append(f"{family}{tuple(params)} gap {k1!r} differs from closed form {expect_k!r} "
                   f"by {k1 - expect_k:.3e}")
    if mult is not None and expect_mult is not None and mult != expect_mult:
        out.append(f"{family}{tuple(params)} multiplicity {mult} differs from closed form {expect_mult}")
    return out


def levels_problems(g: Graph, v: int, thetas, levels) -> list[str]:
    """Delta sweep at vertex v: every positive level agrees with the count, each
    level is non-decreasing in theta, and the first and last grid points
    interlace (the tightest of all pairs once each level is monotone)."""
    out = []
    for theta, lv in zip(thetas, levels):
        alpha = {v: _theta_alpha(theta)}
        for k in lv:
            if k <= LEVEL_TOL:
                continue
            k_below = k * (1.0 - DELTA)
            listed = sum(1 for x in lv if x < k_below)
            n = count(g, k_below, alpha)
            if n != listed:
                out.append(f"theta={theta!r}: N({k!r}^-) = {n}, {listed} levels listed below")
                break
    for i in range(len(levels) - 1):
        lo, hi = levels[i], levels[i + 1]
        for n in range(min(len(lo), len(hi))):
            if hi[n] < lo[n] - LEVEL_TOL * max(1.0, abs(lo[n])):
                out.append(f"level {n} decreases from theta={thetas[i]!r} to {thetas[i + 1]!r}")
                break
    first, last = levels[0], levels[-1]
    for n in range(min(len(last), len(first) - 1)):
        if last[n] > first[n + 1] + LEVEL_TOL * max(1.0, abs(first[n + 1])):
            out.append(f"level {n} at theta={thetas[-1]!r} passes level {n + 1} at {thetas[0]!r}")
            break
    return out


def _theta_alpha(theta: float) -> float:
    if theta == math.pi:
        return math.inf
    return math.tan(theta / 2.0)


def sgp_problems(g: Graph, v: int, theta_sg: float, classification: str, k1: float,
                 k1_mult: int, dirichlet_k0: float) -> list[str]:
    """Spectral gap parameter at v, judged by the count.

    k1 must be the Neumann gap with its multiplicity, and dirichlet_k0 the
    gap with Dirichlet at v.  The Dirichlet criterion (theta_SG <= pi exactly
    when Dirichlet at v keeps the gap) and the classification follow from
    counts, and the dispersion branch must have reached k1 just after theta_SG.
    """
    out = gap_problems(g, k1, k1_mult)
    dirichlet = {v: math.inf}
    d_below, d_above = count_around(g, dirichlet_k0, dirichlet)
    if d_below != 0 or d_above < 1:
        out.append(f"Dirichlet gap {dirichlet_k0!r} disagrees with the count ({d_below}, {d_above})")
    if not 0.0 <= theta_sg <= 2.0 * math.pi:
        out.append(f"theta_SG = {theta_sg!r} outside [0, 2 pi]")
        return out

    keeps_gap = count(g, k1 * (1.0 - DELTA), dirichlet) == 0
    if keeps_gap != (theta_sg <= math.pi + SGP_STRONG_TOL):
        out.append(f"theta_SG = {theta_sg!r} contradicts the Dirichlet criterion ({keeps_gap})")
    dir_mult = count(g, k1 * (1.0 + DELTA), dirichlet) - count(g, k1 * (1.0 - DELTA), dirichlet)
    if theta_sg > math.pi + SGP_STRONG_TOL:
        expect = "violates"
    elif abs(theta_sg - math.pi) <= SGP_STRONG_TOL and dir_mult > k1_mult:
        expect = "strong"
    else:
        expect = "obeys"
    if classification != expect:
        out.append(f"classification {classification!r}, count gives {expect!r}")

    # branch K: lowest level on (0, pi], second level at theta - 2 pi beyond.
    # It must have reached k1 just after theta_SG; probe no further than
    # halfway to pi, so that a theta_SG stopped short of pi by more than the
    # strong tolerance is caught.  (Just before theta_SG the branch sits
    # below k1 by a margin proportional to f(v)^2, too small to resolve for
    # vertices where the gap eigenfunction nearly vanishes.)
    rank = 0 if theta_sg <= math.pi else 1
    base = theta_sg if theta_sg <= math.pi else theta_sg - 2.0 * math.pi
    to_pi = math.pi - base
    after = base + min(SGP_THETA_PROBE, to_pi / 2.0)
    if to_pi > SGP_STRONG_TOL and count(g, k1 * (1.0 - DELTA), {v: _theta_alpha(after)}) > rank:
        out.append(f"branch still below k1 at theta = {after!r}, after theta_SG = {theta_sg!r}")
    return out
