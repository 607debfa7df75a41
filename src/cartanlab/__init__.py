"""Numerical tensor calculus and verification for momentum-space
Hamiltonian geometry on the slit cotangent bundle.

The package is organized bottom-up:

* :mod:`cartanlab.jets` -- truncated multivariate Taylor arithmetic and
  finite-difference oracles.
* :mod:`cartanlab.cartan` -- Hamiltonian structures (quadratic duals,
  Randers-type duals, expression-defined).
* :mod:`cartanlab.geometry` -- the per-point jet pipeline: fundamental and
  Cartan tensors, nonlinear connection, Berwald coefficients, Landsberg
  tensors, curvature arrays, adapted frame.
* :mod:`cartanlab.berwald` -- distinguished tensors and their covariant
  derivatives, finite-difference oracles for N and the h-curvature.
* :mod:`cartanlab.kahler` -- deformed bundle metric, almost complex
  structure, canonical two-form, integrability diagnostics.
* :mod:`cartanlab.levicivita` -- Levi-Civita connection of the bundle
  metric in closed form and its curvature, one table each over the
  adapted basis, a Koszul oracle, a curvature-definition oracle, the
  Ricci trace and Einstein diagnostics.
* :mod:`cartanlab.operators` -- divergence, gradient and Laplacian in
  the adapted frame.
* :mod:`cartanlab.formulas` -- the anchor index tying verification
  records to formula statements.
* :mod:`cartanlab.manifest`, :mod:`cartanlab.checks`,
  :mod:`cartanlab.cli` -- the batch verification front end.
"""

from .errors import (
    CartanLabError,
    ConditioningError,
    EvaluationDomainError,
    ManifestError,
    RegularityError,
    ValenceError,
)
from .jets import ChartPoint, Jet, fd_derivative, fd_partial, jet_eval
from .cartan import (
    CartanStructure,
    conformal_structure,
    expression_structure,
    flat_structure,
    randers_dual,
    riemannian_dual,
    sample_points,
)
from .geometry import PointGeometry, frame_block, lie_brackets
from .kahler import (
    BundleMetric,
    DeformationParams,
    nijenhuis_table,
    theta_matrix,
    tube_predicate,
)
from .levicivita import (
    CURVATURE_BLOCKS,
    connection_defects,
    curvature_closed,
    curvature_defn,
    lc_closed_form,
    ricci,
)
from .operators import (
    divergence,
    gradient,
    laplacian,
    operator_context,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CartanLabError",
    "ConditioningError",
    "EvaluationDomainError",
    "ManifestError",
    "RegularityError",
    "ValenceError",
    "ChartPoint",
    "Jet",
    "fd_derivative",
    "fd_partial",
    "jet_eval",
    "CartanStructure",
    "conformal_structure",
    "expression_structure",
    "flat_structure",
    "randers_dual",
    "riemannian_dual",
    "sample_points",
    "PointGeometry",
    "frame_block",
    "lie_brackets",
    "BundleMetric",
    "DeformationParams",
    "nijenhuis_table",
    "theta_matrix",
    "tube_predicate",
    "CURVATURE_BLOCKS",
    "connection_defects",
    "curvature_closed",
    "curvature_defn",
    "lc_closed_form",
    "ricci",
    "divergence",
    "gradient",
    "laplacian",
    "operator_context",
]
