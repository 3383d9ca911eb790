"""Exception taxonomy shared by all qlqg modules.

Two families matter to callers: :class:`ValidationError` for rejected
inputs (bad shapes, non-physical parameters, malformed files) and
:class:`NumericalError` for failures arising during computation
(divergence, positivity loss, non-convergence).  The CLI maps the first
family to exit code 2 and the second to exit code 3.

Where a value came from decides: a state or start covariance given past
its bound is :class:`InvalidParameter`, one the flows compute past it is
:class:`PositivityLoss` or :class:`UncertaintyViolation`.
"""

from __future__ import annotations

__all__ = [
    "QlqgError",
    "ValidationError",
    "NumericalError",
    "DimensionMismatch",
    "NonRealCoefficient",
    "InvalidParameter",
    "GridMismatch",
    "ConfigError",
    "NotAProjectorFamily",
    "NotUnitary",
    "EmptyEnsemble",
    "UncertaintyViolation",
    "NonFinite",
    "NoConvergence",
    "PositivityLoss",
]


class QlqgError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QlqgError):
    """Input rejected before any computation ran."""


class NumericalError(QlqgError):
    """Computation started but produced an unusable result."""


class DimensionMismatch(ValidationError):
    """Array shape is inconsistent with the declared dimensions."""


class NonRealCoefficient(ValidationError):
    """A derived coefficient matrix kept a non-negligible imaginary part."""


class InvalidParameter(ValidationError):
    """Scalar or structural parameter outside its admissible range."""


class GridMismatch(ValidationError):
    """Two objects that must share a time grid do not."""


class ConfigError(ValidationError):
    """Malformed scenario or configuration input."""


class NotAProjectorFamily(ValidationError):
    """Operators fail to be an orthogonal, complete projector family."""


class NotUnitary(ValidationError):
    """Matrix expected to be unitary is not."""


class EmptyEnsemble(ValidationError):
    """Statistics requested over zero trajectories."""


class UncertaintyViolation(NumericalError):
    """A computed covariance broke the Heisenberg bound."""


class NonFinite(NumericalError):
    """A quantity left the finite range (overflow or finite-time escape)."""


class NoConvergence(NumericalError):
    """Iteration ended without meeting its convergence criterion."""


class PositivityLoss(NumericalError):
    """A computed density matrix has a negative eigenvalue beyond tolerance."""
