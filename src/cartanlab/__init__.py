"""Numerical tensor calculus and verification for momentum-space
Hamiltonian geometry on the slit cotangent bundle.

The package root holds only ``__version__``; every public name is imported
from its one home module, ``cartanlab.<module>.<name>``. Bottom-up:

* :mod:`cartanlab.errors` -- the typed errors.
* :mod:`cartanlab.jets` -- truncated multivariate Taylor arithmetic and
  finite-difference oracles.
* :mod:`cartanlab.geometry` -- the per-point jet pipeline: fundamental and
  Cartan tensors, nonlinear connection, Berwald coefficients, Landsberg
  tensors, curvature arrays, adapted frame and its calculus.
* :mod:`cartanlab.cartan` -- Hamiltonian structures (quadratic duals,
  Randers-type duals, expression-defined) and point sampling.
* :mod:`cartanlab.kahler` -- deformed bundle metric, almost complex
  structure, canonical two-form, Nijenhuis tensor, positivity tube.
* :mod:`cartanlab.berwald` -- distinguished tensors and the
  finite-difference oracles for N and the h-curvature.
* :mod:`cartanlab.levicivita` -- Levi-Civita connection of the bundle
  metric and its curvature, their oracles, Ricci and Einstein diagnostics.
* :mod:`cartanlab.operators` -- divergence, gradient and Laplacian in
  the adapted frame.
* :mod:`cartanlab.formulas` -- the anchor index tying verification
  records to formula statements.
* :mod:`cartanlab.manifest`, :mod:`cartanlab.checks`,
  :mod:`cartanlab.cli` -- the batch verification front end.
"""

__version__ = "0.1.0"
