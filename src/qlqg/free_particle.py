"""Presets and closed forms for the continuously measured free particle.

The free particle is the one model in the package with a complete
analytic solution: the posterior dispersions relax to a stationary
point, the value matrix of the quadratic tracking cost has a stationary
point of its own, and the unconditional covariance grows as an exact
cubic polynomial.  Everything here is used as an oracle against the
numerical solvers, both in the test suite and in ``qlqg validate``.

Conventions: coordinates ``(Q, P)``, kinetic drift ``A = [[0, 1/mass],
[0, 0]]``, a single position output of strength 2 and a single
momentum-kick actuator of strength 2.  The running cost penalizes
position only, ``F = diag(beta, 0)``, with no state-control cross term.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from ._readers import _asarray, _positive
from .errors import InvalidParameter
from .phase_space import LinearCoefficients, build_coefficients, free_particle_model
from .riccati import CostSpec


def feedback_coefficients(mass: float = 1.0, hbar: float = 1.0) -> LinearCoefficients:
    """Linear coefficients of the monitored free particle with actuation.

    Identical to ``build_coefficients(free_particle_model(mass, hbar))``
    except for the control column: the bare model couples the actuator
    through the canonical pair with unit strength, while the feedback
    preset doubles it so that the stationary gain at ``beta = mass = 1``
    is exactly ``(1, 1)``.
    """
    base = build_coefficients(free_particle_model(mass, hbar))
    return LinearCoefficients(A=base.A, B=2.0 * base.B, C=base.C, N=base.N, M=base.M)


def position_tracking_cost(
    beta: float = 1.0,
    Omega_T: NDArray[np.float64] | None = None,
) -> CostSpec:
    """Quadratic cost that penalizes position excursions and control effort.

    ``beta`` weights the position component of the running cost; the
    terminal weight defaults to the identity.
    """
    beta = float(_asarray(beta, float, (), "beta"))
    if beta < 0:
        raise InvalidParameter(f"beta must be nonnegative, got {beta}")
    if Omega_T is None:
        Omega_T = np.eye(2)
    return CostSpec(
        F=np.array([[beta, 0.0], [0.0, 0.0]]),
        G=np.zeros((1, 2)),
        Omega_T=Omega_T,
    )


def stationary_dispersions(mass: float = 1.0, hbar: float = 1.0) -> NDArray[np.float64]:
    """Fixed point of the filter Riccati flow, as a 2x2 covariance.

    The entries are ``sigma_Q = sqrt(hbar / mass) / 2``,
    ``sigma_QP = hbar / 2`` and ``sigma_P = hbar sqrt(hbar mass)``,
    the unique positive root of the algebraic Riccati system.
    """
    mass = _positive(mass, "mass")
    hbar = _positive(hbar, "hbar")
    sq = 0.5 * np.sqrt(hbar / mass)
    sqp = 0.5 * hbar
    sp = hbar * np.sqrt(hbar * mass)
    return np.array([[sq, sqp], [sqp, sp]])


def stationary_value_matrix(beta: float = 1.0, mass: float = 1.0) -> NDArray[np.float64]:
    """Fixed point of the backward value-matrix flow for the tracking cost.

    Solves the stationary system ``omega_QP = sqrt(beta) / 2``,
    ``omega_P = sqrt(omega_QP / (2 mass))`` and
    ``omega_Q = 4 mass omega_QP omega_P``.  Independent of ``hbar``:
    the noise enters the optimal cost only through the scalar term.
    """
    beta = _positive(beta, "beta")
    mass = _positive(mass, "mass")
    wqp = 0.5 * np.sqrt(beta)
    wp = np.sqrt(wqp / (2.0 * mass))
    wq = 4.0 * mass * wqp * wp
    return np.array([[wq, wqp], [wqp, wp]])


def stationary_feedback_gain(beta: float = 1.0, mass: float = 1.0) -> NDArray[np.float64]:
    """Feedback row ``B' Omega + G`` evaluated at the stationary value matrix."""
    omega = stationary_value_matrix(beta, mass)
    return np.array([[2.0 * omega[0, 1], 2.0 * omega[1, 1]]])


def spread_covariance(
    Sigma0: NDArray[np.float64],
    t: float | NDArray[np.float64],
    mass: float = 1.0,
    hbar: float = 1.0,
) -> NDArray[np.float64]:
    """Unconditional covariance of the unmonitored free particle at time ``t``.

    The Lyapunov flow closes on polynomials: momentum dispersion grows
    linearly, the cross term quadratically and position dispersion
    cubically.  Scalar ``t`` gives a 2x2 array, an array of times gives
    a stacked ``(..., 2, 2)`` array.
    """
    mass = _positive(mass, "mass")
    hbar = _positive(hbar, "hbar")
    Sigma0 = _asarray(Sigma0, float, None, "Sigma0", copy=False)
    if Sigma0.shape != (2, 2):
        raise InvalidParameter(f"Sigma0 must be 2x2, got shape {Sigma0.shape}")
    t = _asarray(t, float, None, "t", copy=False)
    sq0, sqp0, sp0 = Sigma0[0, 0], Sigma0[0, 1], Sigma0[1, 1]
    # products, not ** on these floats, which raises OverflowError
    hbar2, mass2 = hbar * hbar, mass * mass
    with np.errstate(over="ignore", invalid="ignore"):
        sp = sp0 + hbar2 * t
        sqp = sqp0 + sp0 * t / mass + hbar2 * t**2 / (2.0 * mass)
        sq = (
            sq0
            + 2.0 * sqp0 * t / mass
            + sp0 * t**2 / mass2
            + hbar2 * t**3 / (3.0 * mass2)
        )
    out = np.empty(t.shape + (2, 2))
    out[..., 0, 0] = sq
    out[..., 0, 1] = sqp
    out[..., 1, 0] = sqp
    out[..., 1, 1] = sp
    return out
