"""Delta-coupling sweeps at a marked vertex: dispersion, SGP, flat bands, gluing.

Sweeping the delta parameter theta in (-pi, pi] at one vertex moves each
eigenvalue monotonically and interlaces consecutive levels; negative
theta (attractive coupling) pulls one eigenvalue below zero, reported as
a negative k.  The union of all sweeps organizes into a strictly
increasing dispersion branch K(theta) on (-pi, 3pi] plus theta-independent
flat bands whose eigenfunctions vanish at the marked vertex.

Multiplicities here are differences of the eigenvalue count, as in
`spectral.multiplicity_at`; no level is matched to another by a
tolerance.  The flat multiplicity at k is the least counted multiplicity
at k under the couplings theta = 1.2 and -0.7, and k is a flat band when
it is positive.  A dispersion curve takes its flat bands from the levels
of its first grid row and removes them from every row within the
count's merge width.  The rows of a theta grid are searched in lockstep
(`spectral.eigenvalues_lockstep`), each with the values a search of that
row alone would see.

The spectral gap parameter theta_SG solves K(theta_SG) = k1(Neumann); it
lies in [0, 2pi], equals at most pi exactly when imposing Dirichlet at
the vertex keeps the gap (Dirichlet criterion), and controls when gluing
two graphs at marked vertices achieves the subadditive bound
k1(glued) = k1(G1) + k1(G2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph import (
    DIRICHLET,
    NEUMANN,
    DeltaTheta,
    DiscreteGraph,
    MetricGraph,
    condition_alpha,
)
from .spectral import (
    Spectrum,
    _merge_width,
    eigenvalues,
    eigenvalues_lockstep,
    gap_reaches,
    multiplicity_at,
    negative_spectrum,
    spectral_gap,
)

SGP_THETA_TOL = 1e-8
STRONG_TOL = 1e-6
GLUE_K_TOL = 1e-8  # the glued gap meets the bound k1(G1) + k1(G2) within this


def _with_theta(m: MetricGraph, v: int, theta: float) -> MetricGraph:
    return m.with_condition(v, DeltaTheta(theta))


def spectrum_theta(m: MetricGraph, v: int, theta: float, k_max: float) -> Spectrum:
    """Nonnegative spectrum with the delta condition at v, Neumann elsewhere."""
    return eigenvalues(_with_theta(m, v, theta), k_max)


def _with_negative(m: MetricGraph, spectrum: Spectrum, n_max: int | None) -> list[float]:
    """The negative branch of m followed by its nonnegative spectrum, cut at n_max."""
    out: list[float] = []
    for p in negative_spectrum(m):
        out.extend([p.k] * p.multiplicity)
    out.extend(spectrum.expanded())
    return out if n_max is None else out[:n_max]


def all_levels(m: MetricGraph, k_max: float, n_max: int | None = None) -> list[float]:
    """Sorted eigenvalue list of any metric graph, negative branch included."""
    return _with_negative(m, eigenvalues(m, k_max), n_max)


def levels_theta(m: MetricGraph, v: int, theta: float, k_max: float, n_max: int | None = None) -> list[float]:
    """Eigenvalue list including the negative branch for attractive coupling."""
    return all_levels(_with_theta(m, v, theta), k_max, n_max)


def levels_thetas(m: MetricGraph, v: int, thetas, k_max: float, n_max: int | None = None) -> list[list[float]]:
    """levels_theta at every theta; the nonnegative spectra are searched in lockstep."""
    ms = [_with_theta(m, v, float(t)) for t in thetas]
    return [_with_negative(mt, spec, n_max) for mt, spec in zip(ms, eigenvalues_lockstep(ms, k_max))]


def flat_multiplicity(m: MetricGraph, v: int, k: float) -> int:
    """Multiplicity of the flat band at k > 0 for couplings at v; 0 off flat bands.

    The least counted multiplicity at k under the couplings theta = 1.2 and
    -0.7.  Off the flat bands every level moves strictly with theta, so the
    moving branch meets k under one of them at most.
    """
    return min(multiplicity_at(_with_theta(m, v, theta), k) for theta in (1.2, -0.7))


def is_flat_band(m: MetricGraph, v: int, k: float) -> bool:
    """k > 0 stays an eigenvalue under every delta coupling at v."""
    return flat_multiplicity(m, v, k) > 0


# ---------------------------------------------------------------------------
# dispersion curve over the theta grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatBand:
    k: float
    multiplicity: int  # generic multiplicity away from branch crossings


@dataclass(frozen=True)
class DispersionCurve:
    vertex: int
    thetas: np.ndarray                     # grid in (-pi, pi]
    levels: tuple[tuple[float, ...], ...]  # per-theta eigenvalues, negatives included
    flat_bands: tuple[FlatBand, ...]
    branch_thetas: np.ndarray              # theta and theta + 2 pi grid points
    branch_values: np.ndarray              # K on those points

    def level_array(self, n_levels: int) -> np.ndarray:
        rows = []
        for lv in self.levels:
            if len(lv) < n_levels:
                raise InvalidInputError("k_max too small for the requested level count")
            rows.append(lv[:n_levels])
        return np.array(rows)

    def interlacing_slack(self, n_levels: int) -> float:
        """min over grid pairs and n of both interlacing margins; >= -tol passes."""
        arr = self.level_array(n_levels + 1)
        worst = math.inf
        n_grid = arr.shape[0]
        for i in range(n_grid):
            for j in range(i + 1, n_grid):
                lo, hi = arr[i], arr[j]  # thetas[i] < thetas[j]
                worst = min(worst, float((hi[:-1] - lo[:-1]).min()))
                worst = min(worst, float((lo[1:] - hi[:-1]).min()))
        return worst


def _detect_flat_bands(m: MetricGraph, v: int, levels: list[float], k_cut: float) -> list[FlatBand]:
    """The flat bands among the positive levels up to k_cut of one spectrum."""
    flats = []
    for k in sorted(set(levels)):
        if 1e-9 < k <= k_cut:
            mult = flat_multiplicity(m, v, k)
            if mult > 0:
                flats.append(FlatBand(k, mult))
    return flats


def _remove_flats(levels: list[float], flats: list[FlatBand]) -> list[float]:
    out = list(levels)
    for fb in flats:
        removed = 0
        i = 0
        while i < len(out) and removed < fb.multiplicity:
            if abs(out[i] - fb.k) <= _merge_width(fb.k):
                out.pop(i)
                removed += 1
            else:
                i += 1
    return out


def dispersion_curve(
    m: MetricGraph,
    v: int,
    grid_size: int = 64,
    k_max: float | None = None,
    n_levels: int = 6,
) -> DispersionCurve:
    """Sample the theta sweep and extract flat bands and the K branch.

    The branch glues the lowest non-flat level on (-pi, pi] with the
    second non-flat level shifted to (pi, 3pi]; flat bands are removed at
    their generic multiplicity so the branch stays strictly increasing
    through crossings.
    """
    if grid_size < 4:
        raise InvalidInputError("grid_size too small")
    if k_max is None:
        k_max = math.pi * (n_levels + 3) / m.total_length
    thetas = np.array([-math.pi + 2 * math.pi * (j + 1) / grid_size for j in range(grid_size)])
    thetas[-1] = math.pi
    level_lists = levels_thetas(m, v, thetas, k_max)
    flats = _detect_flat_bands(m, v, level_lists[0], k_cut=k_max - math.pi / m.total_length)
    nonflat = [_remove_flats(lv, flats) for lv in level_lists]

    branch_th = [float(t) for t, lv in zip(thetas, nonflat) if len(lv) >= 1]
    branch_val = [lv[0] for lv in nonflat if len(lv) >= 1]
    branch_th += [float(t) + 2 * math.pi for t, lv in zip(thetas, nonflat) if len(lv) >= 2]
    branch_val += [lv[1] for lv in nonflat if len(lv) >= 2]

    return DispersionCurve(
        vertex=v,
        thetas=thetas,
        levels=tuple(tuple(lv) for lv in level_lists),
        flat_bands=tuple(flats),
        branch_thetas=np.array(branch_th),
        branch_values=np.array(branch_val),
    )


# ---------------------------------------------------------------------------
# spectral gap parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgpReport:
    vertex: int
    theta_sg: float
    classification: str        # "obeys" | "strong" | "violates"
    k1: float                  # Neumann spectral gap
    k1_multiplicity: int
    dirichlet_k0: float        # gap after imposing Dirichlet at the vertex
    dirichlet_multiplicity: int
    k1_is_flat_band: bool


def spectral_gap_parameter(m: MetricGraph, v: int) -> SgpReport:
    """Locate theta_SG in [0, 2pi] by monotone bisection on the K branch.

    On [0, pi] the branch is the lowest delta eigenvalue; past pi it is
    the second eigenvalue at theta - 2pi.  In both regimes the branch is
    nondecreasing and saturates at k1 exactly from theta_SG on, so the
    smallest theta reaching k1 is the parameter.  Each step only asks
    whether the gap at the trial coupling reaches k1, which two counts
    answer (`spectral.gap_reaches`).
    """
    if not m.is_neumann_graph():
        raise InvalidInputError("spectral gap parameter is defined for Neumann graphs")
    k1, k1_mult = spectral_gap(m)
    # small enough that theta_sg lands within the strong-classification
    # window even for flat dispersion slopes, large enough to sit clear of
    # the eigenvalue solver noise (~1e-14 relative)
    tol_k = 1e-10 * max(1.0, k1)

    m_dir = _with_theta(m, v, math.pi)
    dirichlet_k0 = spectral_gap(m_dir)[0]
    # the Dirichlet criterion puts theta_SG in (0, pi]; otherwise it lies in
    # (pi, 2pi], where the k1 branch is followed at theta - 2pi
    dirichlet_holds = dirichlet_k0 >= k1 - tol_k
    shift = 0.0 if dirichlet_holds else math.pi
    lo, hi = shift, shift + math.pi
    while hi - lo > SGP_THETA_TOL:
        mid = 0.5 * (lo + hi)
        if gap_reaches(_with_theta(m, v, mid - 2 * shift), k1 - tol_k):
            hi = mid
        else:
            lo = mid
    # hi is the smallest theta known to reach k1
    theta_sg = hi

    dir_mult = multiplicity_at(m_dir, k1) if dirichlet_holds else 0
    if theta_sg > math.pi + STRONG_TOL:
        classification = "violates"
    elif abs(theta_sg - math.pi) <= STRONG_TOL and dir_mult > k1_mult:
        classification = "strong"
    else:
        classification = "obeys"

    return SgpReport(
        vertex=v,
        theta_sg=theta_sg,
        classification=classification,
        k1=k1,
        k1_multiplicity=k1_mult,
        dirichlet_k0=dirichlet_k0,
        dirichlet_multiplicity=dir_mult,
        k1_is_flat_band=is_flat_band(m, v, k1),
    )


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def glue(m1: MetricGraph, v1: int, m2: MetricGraph, v2: int, L: float) -> MetricGraph:
    """Scale m1 by L and m2 by 1-L, identify v1 with v2, Neumann at the joint.

    Both inputs must have total length one; so does the result.
    """
    if not 0.0 <= L <= 1.0:
        raise InvalidInputError("gluing parameter L must lie in [0, 1]")
    for m, v in ((m1, v1), (m2, v2)):
        if abs(m.total_length - 1.0) > 1e-9:
            raise InvalidInputError("gluing expects total length one on both graphs")
        if not 0 <= v < m.graph.vertex_count:
            raise InvalidInputError(f"no vertex {v} in a graph with {m.graph.vertex_count} vertices")
    if L == 0.0:
        return m2
    if L == 1.0:
        return m1
    g1, g2 = m1.graph, m2.graph
    # m1 keeps its vertex ids; m2's vertices map to v1 / fresh ids
    offset_map = {}
    nxt = g1.vertex_count
    for w in range(g2.vertex_count):
        if w == v2:
            offset_map[w] = v1
        else:
            offset_map[w] = nxt
            nxt += 1
    edges = list(g1.edges) + [(offset_map[u], offset_map[w]) for u, w in g2.edges]
    graph = DiscreteGraph(nxt, edges)
    lengths = np.concatenate([m1.lengths * L, m2.lengths * (1.0 - L)])
    conds = [NEUMANN] * nxt
    for w in range(g1.vertex_count):
        if w != v1:
            conds[w] = m1.conditions[w]
    for w in range(g2.vertex_count):
        if w != v2:
            conds[offset_map[w]] = m2.conditions[w]
    return MetricGraph(graph, lengths, conds)


def identify_vertices(m: MetricGraph, v1: int, v2: int) -> MetricGraph:
    """Merge v2 into v1; delta coefficients add, so opposite ones give Neumann."""
    if v1 == v2:
        return m
    g = m.graph
    a1 = condition_alpha(m.conditions[v1])
    a2 = condition_alpha(m.conditions[v2])
    mapping = [w - (1 if w > v2 else 0) for w in range(g.vertex_count)]
    mapping[v2] = mapping[v1]
    edges = [(mapping[u], mapping[w]) for u, w in g.edges]
    graph = DiscreteGraph(g.vertex_count - 1, edges)
    conds = [NEUMANN] * graph.vertex_count
    for w in range(g.vertex_count):
        if w not in (v1, v2):
            conds[mapping[w]] = m.conditions[w]
    if math.isinf(a1) or math.isinf(a2):
        merged = DIRICHLET
    else:
        total = a1 + a2
        merged = NEUMANN if total == 0.0 else DeltaTheta(2.0 * math.atan(total))
    conds[mapping[v1]] = merged
    return MetricGraph(graph, m.lengths, conds)


@dataclass(frozen=True)
class GluingReport:
    k1_parts: tuple[float, float]
    theta_sg: tuple[float, float]
    optimal_L: float
    k1_glued: float
    glued_multiplicity: int
    subadditive: bool
    equality: bool
    sgp_condition: bool          # theta1 + theta2 <= 2 pi
    consistent: bool             # equality matches the SGP condition
    parts_flat: tuple[bool, bool]


def gluing_bound_check(m1: MetricGraph, v1: int, m2: MetricGraph, v2: int) -> GluingReport:
    """Evaluate the gluing at the optimal length split and test the bound.

    Checks k1(glued) <= k1(G1) + k1(G2), with equality exactly when
    theta_SG(G1) + theta_SG(G2) <= 2 pi, and the necessity consequences
    (flat-band membership of the part gaps, non-simple glued gap).
    """
    rep1 = spectral_gap_parameter(m1, v1)
    rep2 = spectral_gap_parameter(m2, v2)
    k1a, k1b = rep1.k1, rep2.k1
    L = k1a / (k1a + k1b)
    glued = glue(m1, v1, m2, v2, L)
    k1_glued, glued_mult = spectral_gap(glued)
    total = k1a + k1b
    equality = abs(k1_glued - total) <= GLUE_K_TOL
    sgp_ok = rep1.theta_sg + rep2.theta_sg <= 2 * math.pi + STRONG_TOL
    return GluingReport(
        k1_parts=(k1a, k1b),
        theta_sg=(rep1.theta_sg, rep2.theta_sg),
        optimal_L=L,
        k1_glued=k1_glued,
        glued_multiplicity=glued_mult,
        subadditive=k1_glued <= total + GLUE_K_TOL,
        equality=equality,
        sgp_condition=sgp_ok,
        consistent=equality == sgp_ok,
        parts_flat=(rep1.k1_is_flat_band, rep2.k1_is_flat_band),
    )
