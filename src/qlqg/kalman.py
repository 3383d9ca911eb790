"""Posterior-mean propagation driven by measurement increments.

The covariance never depends on the measurement record; it comes from
the Riccati flow and is supplied to each step.  What this module owns is
the mean update, :func:`filter_step`: the gain, the innovation and the
Euler step in one checked call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._readers import _asarray, _frozen, _positive
from .errors import DimensionMismatch
from .phase_space import GaussianBelief, LinearCoefficients

__all__ = ["MeasurementIncrement", "filter_step"]


@dataclass(frozen=True)
class MeasurementIncrement:
    """Raw output increment ``dY`` observed over a step of length ``dt``."""

    dY: NDArray[np.float64]
    dt: float

    def __post_init__(self) -> None:
        dY = _asarray(self.dY, float, (None,), "dY")
        object.__setattr__(self, "dY", _frozen(dY))
        object.__setattr__(self, "dt", _positive(self.dt, "dt"))

    @property
    def d(self) -> int:
        return self.dY.shape[0]


def filter_step(
    belief: GaussianBelief,
    u: NDArray[np.float64],
    increment: MeasurementIncrement,
    coeffs: LinearCoefficients,
    Sigma_next: NDArray[np.float64],
) -> GaussianBelief:
    """One Euler step of the conditional mean.

    ``Xhat + (A Xhat + B u) dt + K (dY - C Xhat dt)`` with the gain
    ``K = Sigma C' + M`` at the current covariance; under the model the
    innovation ``dY - C Xhat dt`` is a Wiener increment.  The closed loop
    folds its feedback into one precomputed map per step instead, and is
    checked against this step by replaying its record through it.

    Parameters
    ----------
    belief : GaussianBelief
        Current posterior; its covariance feeds the gain.
    u : (k,) array
        Control held over the step.
    increment : MeasurementIncrement
    coeffs : LinearCoefficients
    Sigma_next : (m, m) array
        Covariance at the end of the step, taken from the Riccati path
        that owns the deterministic part of the posterior.

    Returns
    -------
    GaussianBelief
        Updated mean with ``Sigma_next`` attached.
    """
    if belief.m != coeffs.m:
        raise DimensionMismatch(
            f"belief has dimension {belief.m}, coefficients {coeffs.m}"
        )
    if increment.d != coeffs.d:
        raise DimensionMismatch(
            f"increment has {increment.d} channels, coefficients {coeffs.d}"
        )
    u = _asarray(u, float, (coeffs.k,), "u")
    Xhat, dt = belief.mean, increment.dt
    gain = belief.cov @ coeffs.C.T + coeffs.M
    dY_tilde = increment.dY - (coeffs.C @ Xhat) * dt
    mean = Xhat + (Xhat @ coeffs.A.T + u @ coeffs.B.T) * dt + dY_tilde @ gain.T
    return GaussianBelief(mean=mean, cov=Sigma_next)
