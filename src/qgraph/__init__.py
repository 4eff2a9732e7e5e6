"""Metric graph spectra and spectral-gap optimization."""

from .errors import (
    DegenerateGraphError,
    GraphStructureError,
    InvalidGroupError,
    InvalidInputError,
    MultiplicityError,
    NoEigenspaceError,
    NotApplicableError,
    PreconditionError,
    QGraphError,
    ResourceBudgetError,
    UnsupportedTopologyError,
)
from .graph import (
    DIRICHLET,
    NEUMANN,
    DeltaTheta,
    DiscreteGraph,
    LengthVector,
    MetricGraph,
    betti,
    contract_zero_edges,
    equilateral,
    find_bridges,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    metric,
    save_graph,
    tree_diameter,
)
from .spectral import (
    BondScattering,
    EdgeTrig,
    Eigenpair,
    Spectrum,
    eigenfunction,
    eigenvalues,
    harmonic_interpolant,
    levels,
    negative_spectrum,
    rayleigh,
    rayleigh_centered,
    secular_value,
    spectral_gap,
)
from .perturbation import (
    CriticalityReport,
    PathDecomposition,
    PathPart,
    edge_energies,
    gap_eigenpair,
    gap_gradient,
    is_critical,
    nodal_count,
    path_decomposition,
)
from .dispersion import (
    DispersionCurve,
    GluingReport,
    SgpReport,
    dispersion_curve,
    glue,
    gluing_bound_check,
    identify_vertices,
    spectral_gap_parameter,
)
from .optimize import (
    CatalogEntry,
    MaximizeOptions,
    OptimizationResult,
    brute_force_gap,
    catalog_entry,
    full_catalog,
    infimize_gap,
    maximize_gap,
    symmetrize,
    upper_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
