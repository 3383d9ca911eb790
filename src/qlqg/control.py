"""Feedback gains, filtering/control duality and value-function checks.

The controller side mirrors the filter: the backward value flow plays
the covariance's role under transposition and time reversal.  That
correspondence is exposed as a map on the ``(coefficients, cost)`` pair
the solvers already take, so the two solvers can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, GridMismatch, InvalidParameter
from .phase_space import LinearCoefficients, _asarray, _count, _frozen, _symmetrize
from .riccati import (
    CostSpec,
    MatrixPath,
    ScalarPath,
    TimeGrid,
    _require_matching_cost,
    _require_same_grid,
    integrate_filter_riccati,
)

__all__ = [
    "ControlGainPath",
    "control_gain_path",
    "duality_map",
    "control_path_via_duality",
    "hjb_residual",
]


@dataclass(frozen=True)
class ControlGainPath:
    """Feedback gain at every grid point; ``u = -gain @ mean``."""

    grid: TimeGrid
    gains: NDArray[np.float64]

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 3:
            raise DimensionMismatch(
                f"gains must have shape (n_points, k, m), got {gains.shape}"
            )
        if gains.shape[0] != self.grid.n_points:
            raise GridMismatch(
                f"gain path has {gains.shape[0]} entries for a grid of "
                f"{self.grid.n_points} points"
            )
        object.__setattr__(self, "gains", _frozen(gains))

    def at(self, index: int) -> NDArray[np.float64]:
        return self.gains[index]


def control_gain_path(
    Omega_path: MatrixPath,
    coeffs: LinearCoefficients,
    cost: CostSpec,
) -> ControlGainPath:
    """Feedback gain ``B' Omega_t + G`` at every grid point."""
    if Omega_path.m != coeffs.m:
        raise DimensionMismatch(
            f"value path has dimension {Omega_path.m}, coefficients {coeffs.m}"
        )
    gains = np.matmul(coeffs.B.T, Omega_path.values) + cost.G
    return ControlGainPath(grid=Omega_path.grid, gains=gains)


def duality_map(
    coeffs: LinearCoefficients,
    cost: CostSpec,
    permutation=None,
) -> tuple[LinearCoefficients, CostSpec]:
    """Exchange estimation and regulation data.

    ``(A, B, C, N, M; F, G, Omega_T)`` maps to
    ``(A^T, C^T, B^T, F, G^T; N, M^T, Omega_T)``: the dual's filter flow
    run forward from ``Omega_T`` is the value flow read backward, and
    applying the map twice returns the original data exactly.  The
    optional ``permutation`` relabels the state coordinates of the
    result (index array, applied to every state axis), which some
    concrete pairs such as position/momentum interchange require.
    """
    _require_matching_cost(coeffs, cost)
    A, B, C, N, M = coeffs.A.T, coeffs.C.T, coeffs.B.T, cost.F, cost.G.T
    F, G, Omega_T = coeffs.N, coeffs.M.T, cost.Omega_T
    if permutation is not None:
        p = np.asarray(permutation, dtype=int)
        if sorted(p.tolist()) != list(range(coeffs.m)):
            raise InvalidParameter(
                f"permutation must rearrange range({coeffs.m}), got {permutation}"
            )
        pp = np.ix_(p, p)
        A, N, F, Omega_T = A[pp], N[pp], F[pp], Omega_T[pp]
        B, M, C, G = B[p], M[p], C[:, p], G[:, p]
    return (
        LinearCoefficients(A=A, B=B, C=C, N=N, M=M),
        CostSpec(F=F, G=G, Omega_T=Omega_T),
    )


def control_path_via_duality(
    coeffs: LinearCoefficients,
    cost: CostSpec,
    grid: TimeGrid,
    permutation=None,
) -> MatrixPath:
    """Solve the backward value flow through its dual forward flow.

    The dual's filter flow is integrated forward from its terminal
    weight, read backward and relabelled back.  Its lift is the value
    flow's lift, relabelled, so this reproduces
    :func:`integrate_control_riccati`; it exists so the two routes can be
    compared.
    """
    dual_coeffs, dual_cost = duality_map(coeffs, cost, permutation)
    sigma = integrate_filter_riccati(dual_coeffs, dual_cost.Omega_T, grid)
    values = sigma.values[::-1]
    if permutation is not None:
        inv = np.argsort(permutation)
        values = values[:, inv][:, :, inv]
    return MatrixPath(grid=grid, values=np.ascontiguousarray(values))


def hjb_residual(
    Omega_path: MatrixPath,
    alpha_path: ScalarPath,
    index: int,
    Xhat: NDArray[np.float64],
    Sigma: NDArray[np.float64],
    coeffs: LinearCoefficients,
    cost: CostSpec,
) -> float:
    """Bellman-equation residual of the quadratic value ansatz.

    Every term is evaluated literally at the Gaussian point
    ``(Xhat, Sigma)``: the running cost at the minimizing control, the
    mean and covariance drifts against the value gradients, and the
    innovation term against ``half the mean Hessian minus the covariance
    gradient`` (identically zero on this ansatz, kept in the sum as a
    consistency check).  The time derivative is a central finite
    difference on the stored paths: five-point at interior points,
    three-point next to the ends and one-sided at the ends themselves,
    with the corresponding loss of order.

    Returns the signed residual; an exact solution gives zero up to
    discretization error.
    """
    grid = _require_same_grid(Omega_path.grid, alpha_path.grid)
    n = grid.n_steps
    index = _count(index, "index", 0)
    if index > n:
        raise InvalidParameter(f"index {index} outside grid of {n + 1} points")
    m = coeffs.m
    Xhat = _asarray(Xhat, float, (m,), "Xhat")
    Sigma = _symmetrize(_asarray(Sigma, float, (m, m), "Sigma"), "Sigma")

    def value(j: int) -> float:
        # the quadratic ansatz Xhat' Omega Xhat + tr[Omega Sigma] + alpha
        Omega = Omega_path.at(j)
        return float(Xhat @ Omega @ Xhat + np.trace(Omega @ Sigma) + alpha_path.values[j])

    dt = grid.dt
    if 2 <= index <= n - 2:
        dS_dt = (
            value(index - 2) - 8 * value(index - 1)
            + 8 * value(index + 1) - value(index + 2)
        ) / (12 * dt)
    elif 1 <= index <= n - 1:
        dS_dt = (value(index + 1) - value(index - 1)) / (2 * dt)
    elif index == 0:
        dS_dt = (value(1) - value(0)) / dt
    else:
        dS_dt = (value(n) - value(n - 1)) / dt

    Omega = Omega_path.at(index)
    grad_mean = 2.0 * Omega @ Xhat
    hess_mean = 2.0 * Omega
    grad_cov = Omega
    u_star = -(coeffs.B.T @ Omega @ Xhat + cost.G @ Xhat)
    gain = Sigma @ coeffs.C.T + coeffs.M

    running = float(
        Xhat @ cost.F @ Xhat + np.trace(cost.F @ Sigma)
        + 2.0 * u_star @ cost.G @ Xhat + u_star @ u_star
    )
    mean_drift = float((coeffs.A @ Xhat + coeffs.B @ u_star) @ grad_mean)
    cov_flow = coeffs.A @ Sigma + Sigma @ coeffs.A.T + coeffs.N
    cov_drift = float(np.trace(cov_flow @ grad_cov))
    innovation_term = float(
        np.trace(gain @ gain.T @ (0.5 * hess_mean - grad_cov))
    )
    return dS_dt + running + mean_drift + cov_drift + innovation_term
