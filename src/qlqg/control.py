"""Feedback gains, filtering/control duality and value-function checks.

The controller side mirrors the filter: the backward value flow plays
the covariance's role under transposition and time reversal.  That
correspondence is exposed as a first-class map on problem data so the
two solvers can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, GridMismatch, InvalidParameter
from .phase_space import (
    LinearCoefficients, _asarray, _finite, _frozen, _positive, _symmetrize,
)
from .riccati import (
    CostSpec,
    MatrixPath,
    ScalarPath,
    TimeGrid,
    _require_same_grid,
    integrate_filter_riccati,
)

__all__ = [
    "ControlGainPath",
    "FilterProblem",
    "ControlProblem",
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


@dataclass(frozen=True)
class FilterProblem:
    """Estimation-side data ``(A, C, N, M)`` with a horizon."""

    A: NDArray[np.float64]
    C: NDArray[np.float64]
    N: NDArray[np.float64]
    M: NDArray[np.float64]
    horizon: float

    def __post_init__(self) -> None:
        A = _finite(np.array(self.A, dtype=float), "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        m = A.shape[0]
        C = _finite(np.array(self.C, dtype=float), "C")
        if C.ndim != 2 or C.shape[1] != m:
            raise DimensionMismatch(f"C must have shape (d, {m}), got {C.shape}")
        N = _symmetrize(_asarray(self.N, float, (m, m), "N"), "N")
        M = _asarray(self.M, float, (m, C.shape[0]), "M")
        _positive(self.horizon, "horizon")
        for name, arr in (("A", A), ("C", C), ("N", N), ("M", M)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ControlProblem:
    """Regulation-side data ``(A, B, F, G)`` with a horizon."""

    A: NDArray[np.float64]
    B: NDArray[np.float64]
    F: NDArray[np.float64]
    G: NDArray[np.float64]
    horizon: float

    def __post_init__(self) -> None:
        A = _finite(np.array(self.A, dtype=float), "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        m = A.shape[0]
        B = _finite(np.array(self.B, dtype=float), "B")
        if B.ndim != 2 or B.shape[0] != m:
            raise DimensionMismatch(f"B must have shape ({m}, k), got {B.shape}")
        F = _symmetrize(_asarray(self.F, float, (m, m), "F"), "F")
        G = _asarray(self.G, float, (B.shape[1], m), "G")
        _positive(self.horizon, "horizon")
        for name, arr in (("A", A), ("B", B), ("F", F), ("G", G)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def m(self) -> int:
        return self.A.shape[0]


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


def _permutation_matrix_indices(permutation, m: int) -> np.ndarray:
    perm = np.asarray(permutation, dtype=int)
    if sorted(perm.tolist()) != list(range(m)):
        raise InvalidParameter(
            f"permutation must rearrange range({m}), got {permutation}"
        )
    return perm


def duality_map(
    problem: FilterProblem | ControlProblem,
    permutation=None,
) -> ControlProblem | FilterProblem:
    """Exchange estimation and regulation data.

    A filter problem ``(A, C, N, M)`` maps to the control problem
    ``(A', B', F', G') = (A^T, C^T, N, M^T)`` and back; applying the map
    twice returns the original data exactly.  The optional
    ``permutation`` relabels the state coordinates of the result (index
    array, applied to every state axis), which some concrete pairs such
    as position/momentum interchange require.  Horizons carry over
    unchanged; solution paths correspond under time reversal.
    """
    if isinstance(problem, FilterProblem):
        A, B, F, G = problem.A.T, problem.C.T, problem.N, problem.M.T
        if permutation is not None:
            p = _permutation_matrix_indices(permutation, problem.m)
            A, B, F, G = A[np.ix_(p, p)], B[p, :], F[np.ix_(p, p)], G[:, p]
        return ControlProblem(A=A, B=B, F=F, G=G, horizon=problem.horizon)
    if isinstance(problem, ControlProblem):
        A, C, N, M = problem.A.T, problem.B.T, problem.F, problem.G.T
        if permutation is not None:
            p = _permutation_matrix_indices(permutation, problem.m)
            A, C, N, M = A[np.ix_(p, p)], C[:, p], N[np.ix_(p, p)], M[p, :]
        return FilterProblem(A=A, C=C, N=N, M=M, horizon=problem.horizon)
    raise InvalidParameter(
        f"expected FilterProblem or ControlProblem, got {type(problem).__name__}"
    )


def control_path_via_duality(
    problem: ControlProblem,
    Omega_T: NDArray[np.float64],
    grid: TimeGrid,
    permutation=None,
) -> MatrixPath:
    """Solve the backward value flow through its dual forward flow.

    The dual filter problem is integrated forward from the (relabelled)
    terminal weight and the result is read backward and relabelled back.
    Up to roundoff this equals direct backward integration; it exists so
    the two routes can be compared.
    """
    if abs(grid.t1 - grid.t0 - problem.horizon) > 1e-12:
        raise GridMismatch(
            f"grid spans {grid.t1 - grid.t0!r}, problem horizon is {problem.horizon!r}"
        )
    m = problem.m
    Omega_T = _symmetrize(_asarray(Omega_T, float, (m, m), "Omega_T"), "Omega_T")
    dual = duality_map(problem, permutation)
    start = Omega_T
    if permutation is not None:
        p = _permutation_matrix_indices(permutation, m)
        start = Omega_T[np.ix_(p, p)]
    dual_coeffs = LinearCoefficients(
        A=dual.A, B=np.zeros((m, 1)), C=dual.C, N=dual.N, M=dual.M
    )
    sigma = integrate_filter_riccati(dual_coeffs, start, grid)
    values = sigma.values[::-1]
    if permutation is not None:
        inv = np.argsort(p)
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
    if not 0 <= index <= n:
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
