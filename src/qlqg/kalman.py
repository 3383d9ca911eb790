"""Posterior-mean propagation driven by measurement increments.

The covariance never depends on the measurement record; it comes from
the Riccati flow and is supplied to each step.  What this module owns is
the gain, the innovation and the linear mean update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, InvalidParameter
from .phase_space import GaussianBelief, LinearCoefficients, _asarray, _finite, _frozen

__all__ = ["MeasurementIncrement", "filter_gain", "innovation", "mean_step", "filter_step"]


@dataclass(frozen=True)
class MeasurementIncrement:
    """Raw output increment ``dY`` observed over a step of length ``dt``."""

    dY: NDArray[np.float64]
    dt: float

    def __post_init__(self) -> None:
        dY = _finite(np.array(self.dY, dtype=float), "dY")
        if dY.ndim != 1:
            raise DimensionMismatch(f"dY must be a vector, got shape {dY.shape}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InvalidParameter(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "dY", _frozen(dY))

    @property
    def d(self) -> int:
        return self.dY.shape[0]


def filter_gain(
    Sigma: NDArray[np.float64], coeffs: LinearCoefficients
) -> NDArray[np.float64]:
    """Measurement gain ``Sigma C' + M`` for the current covariance."""
    Sigma = _asarray(Sigma, float, (coeffs.m, coeffs.m), "Sigma")
    return Sigma @ coeffs.C.T + coeffs.M


def innovation(
    increment: MeasurementIncrement,
    Xhat: NDArray[np.float64],
    coeffs: LinearCoefficients,
) -> NDArray[np.float64]:
    """Surprise part of the output: ``dY - C Xhat dt``.

    Under the model this is a Wiener increment; its statistics are what
    closed-loop simulations feed back in place of raw records.
    """
    if increment.d != coeffs.d:
        raise DimensionMismatch(
            f"increment has {increment.d} channels, coefficients {coeffs.d}"
        )
    Xhat = _asarray(Xhat, float, (coeffs.m,), "Xhat")
    return increment.dY - (coeffs.C @ Xhat) * increment.dt


def mean_step(
    Xhat: NDArray[np.float64],
    u: NDArray[np.float64],
    dY_tilde: NDArray[np.float64],
    gain: NDArray[np.float64],
    coeffs: LinearCoefficients,
    dt: float,
) -> NDArray[np.float64]:
    """Euler step ``Xhat + (A Xhat + B u) dt + gain dY_tilde`` of the
    conditional mean, row by row on stacked ``(..., m)`` means; unchecked,
    as the inner step of :func:`filter_step`.  The closed loop folds its
    feedback into one precomputed map per step instead, and is checked
    against this step by replaying its record through :func:`filter_step`."""
    return Xhat + (Xhat @ coeffs.A.T + u @ coeffs.B.T) * dt + dY_tilde @ gain.T


def filter_step(
    belief: GaussianBelief,
    u: NDArray[np.float64],
    increment: MeasurementIncrement,
    coeffs: LinearCoefficients,
    Sigma_next: NDArray[np.float64],
) -> GaussianBelief:
    """One Euler step of the conditional mean.

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
    u = _asarray(u, float, (coeffs.k,), "u")
    gain = filter_gain(belief.cov, coeffs)
    dY_tilde = innovation(increment, belief.mean, coeffs)
    mean = mean_step(belief.mean, u, dY_tilde, gain, coeffs, increment.dt)
    return GaussianBelief(mean=mean, cov=Sigma_next)
