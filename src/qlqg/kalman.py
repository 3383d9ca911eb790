"""Posterior-mean propagation driven by measurement increments.

The covariance never depends on the measurement record; it comes from
the Riccati flow and is supplied to each step.  What this module owns is
the mean update, :func:`filter_step`: the gain, the innovation and the
Euler step in one checked call.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from ._readers import _asarray, _of_kind, _positive
from .errors import DimensionMismatch
from .phase_space import GaussianBelief, LinearCoefficients

__all__ = ["filter_step"]


def filter_step(
    belief: GaussianBelief,
    u: NDArray[np.float64],
    dY: NDArray[np.float64],
    dt: float,
    coeffs: LinearCoefficients,
    Sigma_next: NDArray[np.float64],
) -> GaussianBelief:
    """One Euler step of the conditional mean.

    ``Xhat + (A Xhat + B u) dt + K (dY - C Xhat dt)`` with the gain
    ``K = Sigma C' + M`` at the current covariance; under the model the
    innovation ``dY - C Xhat dt`` is a Wiener increment.  The record is
    read as :func:`qlqg.sme.sme_step` reads its own.  The closed loop
    folds its feedback into block maps per 256-step noise window instead,
    and is checked against this step by replaying its record through it.

    Parameters
    ----------
    belief : GaussianBelief
        Current posterior; its covariance feeds the gain.
    u : (k,) array
        Control held over the step.
    dY : (d,) array
        Output increment observed over the step, one entry per channel.
    dt : float
        Step length; must be positive.
    coeffs : LinearCoefficients
    Sigma_next : (m, m) array
        Covariance at the end of the step, taken from the Riccati path
        that owns the deterministic part of the posterior.

    Returns
    -------
    GaussianBelief
        Updated mean with ``Sigma_next`` attached.
    """
    _of_kind(belief, GaussianBelief, "belief")
    _of_kind(coeffs, LinearCoefficients, "coeffs")
    dt = _positive(dt, "dt")
    dY = _asarray(dY, float, (coeffs.d,), "dY")
    if belief.m != coeffs.m:
        raise DimensionMismatch(
            f"belief has dimension {belief.m}, coefficients {coeffs.m}"
        )
    u = _asarray(u, float, (coeffs.k,), "u")
    Xhat = belief.mean
    gain = belief.cov @ coeffs.C.T + coeffs.M
    dY_tilde = dY - (coeffs.C @ Xhat) * dt
    mean = Xhat + (Xhat @ coeffs.A.T + u @ coeffs.B.T) * dt + dY_tilde @ gain.T
    return GaussianBelief(mean=mean, cov=Sigma_next)
