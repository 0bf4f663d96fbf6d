"""Spectral radii and limit points of deformed Laplacians on trees.

For a graph G with adjacency matrix A and degree matrix D, the matrix
studied here is M(s) = I - s*A + s^2*(D - I). At s = 1 it is the
Laplacian, at s = -1 the signless Laplacian. On trees M(s) admits an
O(n) congruence diagonalization, which this package exploits to count
eigenvalues, bracket spectral radii, and generate extremal
caterpillar sequences whose radii converge to prescribed limit points.

All arithmetic runs at a user-chosen decimal precision (default 50
digits) on exact bigfloat values; see :mod:`deflap.scalar`.
"""

from .scalar import (
    BracketingError,
    DomainError,
    NegativeRootError,
    PrecisionContext,
    PrecisionError,
    PrecisionMixingError,
    Scalar,
    context_from_env,
    find_root,
    infer_context,
)
from .trees import (
    Caterpillar,
    Tree,
    caterpillar_to_tree,
    free_trees,
    starlike_t1nn,
)
from .diagonalize import (
    DiagOutcome,
    RadiusEstimate,
    approximate_radius,
    count_eigenvalues,
    diagonalize_tree,
)
from .recurrence import OrbitReport, RecurrenceParams, classify_orbit, phi, recurrence_params
from .shearer import (
    ConvergenceReport,
    EpsilonBound,
    InvalidRunError,
    ShearerRun,
    beta_sequence,
    convergence_report,
    counts_cell,
    epsilon_k,
    format_counts,
    generate,
)
from .limits import (
    ConsistencyError,
    convergence_margin,
    laplacian_closed_form,
    s_star,
    tau0,
    tau0_quartic_residual,
)
from .properties import (
    PROPERTY_IDS,
    PropertyReport,
    SweepResult,
    check_property,
    sweep,
)
from .reproduce import (
    TABLE_IDS,
    ReproducedRow,
    ReproducedTable,
    reproduce_table,
)

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "Caterpillar",
    "ConsistencyError",
    "ConvergenceReport",
    "DiagOutcome",
    "DomainError",
    "EpsilonBound",
    "InvalidRunError",
    "NegativeRootError",
    "OrbitReport",
    "PROPERTY_IDS",
    "PrecisionContext",
    "PrecisionError",
    "PrecisionMixingError",
    "PropertyReport",
    "RadiusEstimate",
    "RecurrenceParams",
    "ReproducedRow",
    "ReproducedTable",
    "Scalar",
    "ShearerRun",
    "SweepResult",
    "TABLE_IDS",
    "Tree",
    "approximate_radius",
    "beta_sequence",
    "caterpillar_to_tree",
    "check_property",
    "classify_orbit",
    "context_from_env",
    "convergence_margin",
    "convergence_report",
    "count_eigenvalues",
    "counts_cell",
    "diagonalize_tree",
    "epsilon_k",
    "find_root",
    "format_counts",
    "free_trees",
    "generate",
    "infer_context",
    "laplacian_closed_form",
    "phi",
    "recurrence_params",
    "reproduce_table",
    "s_star",
    "starlike_t1nn",
    "sweep",
    "tau0",
    "tau0_quartic_residual",
    "__version__",
]
