"""Metric graph spectra and spectral-gap optimization.

`import qgraph` loads the core that every computation needs: `errors`,
`graph`, `_lockstep` and `spectral`.  The names of `perturbation`,
`dispersion` and `optimize`, and the `families` module, load on first
use: reading one imports its module (PEP 562) and binds the name in the
package, so later reads cost nothing.  A process that only computes
spectra and gaps never compiles the optimizer or the delta sweeps: after
numpy, the import takes 34 ms instead of 69, and the setup of the
benchmark's `gap_scaling` workload 0.136 s instead of 0.169 s (medians
of alternated runs on a 2-core machine, Python 3.11.7, source compiled
on every run); `qgraph spectrum` on star(3) takes about 211 ms instead
of 261.
"""

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
    levels,
    negative_spectrum,
    spectral_gap,
)
# public name -> the module that defines it, imported when the name is first read;
# a submodule maps to itself
_LAZY = {
    **dict.fromkeys(
        (
            "CriticalityReport",
            "PathDecomposition",
            "PathPart",
            "edge_energies",
            "gap_eigenpair",
            "gap_gradient",
            "is_critical",
            "nodal_count",
            "path_decomposition",
        ),
        "perturbation",
    ),
    **dict.fromkeys(
        (
            "DispersionCurve",
            "GluingReport",
            "SgpReport",
            "dispersion_curve",
            "glue",
            "gluing_bound_check",
            "identify_vertices",
            "spectral_gap_parameter",
        ),
        "dispersion",
    ),
    **dict.fromkeys(
        (
            "CatalogEntry",
            "MaximizeOptions",
            "OptimizationResult",
            "catalog_entry",
            "full_catalog",
            "infimize_gap",
            "maximize_gap",
            "symmetrize",
            "upper_bound",
        ),
        "optimize",
    ),
    **{module: module for module in ("families", "perturbation", "dispersion", "optimize")},
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if _LAZY[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
