"""Covariance and value flows: Riccati, Lyapunov and scalar cost terms.

Each matrix flow ``dS/dt = H21 + H22 S - S H11 - S H12 S`` is the image
of the linear flow ``d[X; Y]/dt = H [X; Y]`` under ``S = Y X^-1``
(Davison & Maki, IEEE TAC 18 (1973)); the filter, control (in reversed
time) and Lyapunov flows differ only in their ``2m x 2m`` lift ``H``.
One stepper serves them all: classical Runge-Kutta on the lift, i.e. the
constant map ``Phi = sum_{k<=4} (dt H)^k / k!`` (order four), applied in
blocks re-anchored at ``[I; S]`` (Kenney & Leipnik, IEEE TAC 30
(1985)).  Precomputed powers ``Phi^j`` give a whole block from one
GEMM, one batched determinant and one batched solve.  A block spans
``ln 2 / ln rho`` steps for the spectral radius ``rho`` of ``Phi``, so
it does not depend on units, and its powers hold at most ``2^12``
entries (256 steps at m = 2, 113 at m = 3, 64 at m = 4).  A pole of ``S``
between grid points (``det X_j <= 0``, or, for a pair of poles in one
step, an eigenvalue of that step's ``X`` part on the negative real
axis) raises :class:`NonFinite`, as do entries beyond ``ESCAPE_LIMIT``;
the error names the step and its grid time.
The stationary filter covariance is read from the same lift without
stepping it: the flow's limit is ``Y X^-1`` on the invariant subspace of
the lift's dominant eigenvalues.

Fixed steps keep runs bit-reproducible, make the convergence order
testable and let filter and control paths share one grid, which the
cost assembly relies on.  Paths are dense: one symmetrized matrix per
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._readers import (
    _asarray,
    _count,
    _fits_in_memory,
    _frozen,
    _positive,
    _semidefinite,
    _square,
    _symmetrize,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    InvalidParameter,
    NoConvergence,
    NonFinite,
    UncertaintyViolation,
    ValidationError,
)
from .phase_space import (
    UNCERTAINTY_TOL,
    LinearCoefficients,
    check_uncertainty,
    _heisenberg_margin,
)

__all__ = [
    "TimeGrid",
    "CostSpec",
    "MatrixPath",
    "ScalarPath",
    "integrate_filter_riccati",
    "integrate_control_riccati",
    "integrate_alpha",
    "stationary_filter_covariance",
    "lyapunov_unconditional",
    "total_minimal_cost",
]

#: entries beyond this magnitude abort integration (finite-time escape)
ESCAPE_LIMIT = 1e12

#: entries in the powers of one block of lift steps, at most: 256 steps at
#: m = 2, 113 at m = 3, 64 at m = 4
_POWER_ENTRIES = 2**12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps + 1`` points on ``[t0, t1]``; the
    endpoints are kept as floats, and the step must be a positive float."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        for name in ("t0", "t1"):
            value = _asarray(getattr(self, name), float, (), name)
            object.__setattr__(self, name, float(value))
        if not self.t1 > self.t0:
            raise InvalidParameter(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        n_steps = _count(self.n_steps, "n_steps", 1)
        object.__setattr__(self, "n_steps", n_steps)
        # a step count past the float range does not read as a float
        _positive((self.t1 - self.t0) / _asarray(n_steps, float, (), "n_steps"),
                  "grid step dt")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    def times(self, stride: int = 1) -> NDArray[np.float64]:
        """Every ``stride``-th grid point, both endpoints included when
        ``stride`` divides ``n_steps``.

        Only those points are computed, with ``np.linspace``'s arithmetic,
        so each equals its entry of ``np.linspace(t0, t1, n_steps + 1)`` to
        the last bit.
        """
        stride = _count(stride, "stride", 1)
        times = np.arange(0, self.n_steps + 1, stride, dtype=float)
        times *= self.dt
        times += self.t0
        if (len(times) - 1) * stride == self.n_steps:
            times[-1] = self.t1
        return times

    @property
    def n_points(self) -> int:
        return self.n_steps + 1


@dataclass(frozen=True)
class CostSpec:
    """Quadratic running cost and terminal weight.

    The running cost of a control ``u`` at state ``x`` is
    ``x' F x + 2 u' G x + u' u``; the terminal cost is
    ``x' Omega_T x``.  ``F`` and ``Omega_T`` must be symmetric positive
    semidefinite.
    """

    F: NDArray[np.float64]
    G: NDArray[np.float64]
    Omega_T: NDArray[np.float64]

    def __post_init__(self) -> None:
        F = _semidefinite(_symmetrize(_square(self.F, float, "F"), "F"), "F")
        m = F.shape[0]
        G = _asarray(self.G, float, (None, m), "G")
        Omega_T = _asarray(self.Omega_T, float, (m, m), "Omega_T")
        Omega_T = _semidefinite(_symmetrize(Omega_T, "Omega_T"), "Omega_T")
        object.__setattr__(self, "F", _frozen(F))
        object.__setattr__(self, "G", _frozen(G))
        object.__setattr__(self, "Omega_T", _frozen(Omega_T))

    @property
    def m(self) -> int:
        return self.F.shape[0]

    @property
    def k(self) -> int:
        return self.G.shape[0]


def _on_grid(grid: TimeGrid, values, rank: int, name: str) -> np.ndarray:
    """A path's ``values`` of the given rank, read in place and frozen;
    GridMismatch unless it has one entry per point of ``grid``."""
    if not isinstance(grid, TimeGrid):
        raise ConfigError(f"grid must be a TimeGrid, got {grid!r}")
    vals = _asarray(values, float, (None,) * rank, name, copy=False)
    if len(vals) != grid.n_points:
        raise GridMismatch(
            f"{name} has {len(vals)} entries for a grid of {grid.n_points} points"
        )
    return _frozen(vals)


@dataclass(frozen=True)
class MatrixPath:
    """Dense symmetric-matrix path on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        vals = _on_grid(self.grid, self.values, 3, "values")
        if vals.shape[1] != vals.shape[2]:
            raise DimensionMismatch(f"values must be square matrices, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    def at(self, index: int) -> NDArray[np.float64]:
        """Matrix at grid point ``index``."""
        return self.values[index]

    @property
    def final(self) -> NDArray[np.float64]:
        return self.values[-1]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScalarPath:
    """Dense scalar path on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _on_grid(self.grid, self.values, 1, "values"))


def _require_same_grid(*grids: TimeGrid) -> TimeGrid:
    first = grids[0]
    for other in grids[1:]:
        if (other.t0, other.t1, other.n_steps) != (first.t0, first.t1, first.n_steps):
            raise GridMismatch(f"grids differ: {first} vs {other}")
    return first


def _require_matching_cost(coeffs: LinearCoefficients, cost: CostSpec) -> None:
    if cost.m != coeffs.m:
        raise DimensionMismatch(
            f"cost is for dimension {cost.m}, coefficients for {coeffs.m}"
        )
    if cost.k != coeffs.k:
        raise ValidationError(
            f"cost expects {cost.k} controls, coefficients have {coeffs.k}"
        )


def _filter_lift(coeffs: LinearCoefficients) -> np.ndarray:
    """Lift of S -> A S + S A' + N - (S C' + M)(S C' + M)'."""
    C, M = coeffs.C, coeffs.M
    A = coeffs.A - M @ C
    return np.block([[-A.T, C.T @ C], [coeffs.N - M @ M.T, A]])


def _control_lift(coeffs: LinearCoefficients, cost: CostSpec) -> np.ndarray:
    """Lift of the control Riccati flow in reversed time."""
    B, G = coeffs.B, cost.G
    A = coeffs.A - B @ G
    return np.block([[-A, B @ B.T], [cost.F - G.T @ G, A.T]])


def _lift_drift(H: np.ndarray, S: np.ndarray) -> float:
    """Largest entry of the flow derivative ``[-S, I] H [I; S]``."""
    I = np.eye(S.shape[0])
    return float(np.abs(np.hstack([-S, I]) @ H @ np.vstack([I, S])).max())


def _rk4_map(A: np.ndarray) -> np.ndarray:
    """``sum_{k<=4} A^k / k!``: the RK4 step of the linear flow whose
    generator times the step is ``A``."""
    term, step = A, np.eye(len(A)) + A
    for k in range(2, 5):
        term = term @ A
        term /= k
        step += term
    return step


def _lift_powers(H: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """Powers ``Phi^1 .. Phi^L`` of the RK4 map of ``d[X; Y]/dt = H [X; Y]``.

    ``L = floor(ln 2 / ln rho)`` for the spectral radius ``rho`` of
    ``Phi``: the dominant mode grows at most twofold over a block, in any
    units.  ``L`` is at least 1 and at most ``n_steps`` and
    ``_POWER_ENTRIES / (2m)^2``, which also bounds it when ``rho <= 1``.
    """
    phi = _rk4_map(dt * H)
    length = min(n_steps, max(1, _POWER_ENTRIES // phi.size))
    # a map past the float range has no spectrum; it escapes at step 1
    rho = np.abs(np.linalg.eigvals(phi)).max() if np.isfinite(phi).all() else np.inf
    if rho > 1:
        length = max(1, min(length, int(np.log(2.0) / np.log(rho))))
    powers = np.empty((length,) + phi.shape)
    powers[0] = phi
    for j in range(1, length):
        np.matmul(powers[j - 1], phi, out=powers[j])
    return powers


def _lift_block(powers: np.ndarray, S: np.ndarray, out: np.ndarray, at) -> None:
    """Flow at the ``len(powers)`` grid points after ``S``, written to ``out``.

    Each point is ``Y_j X_j^-1``, symmetrized, with
    ``[X_j; Y_j] = Phi^j [I; S]``.  Raises NonFinite on an escape, naming
    its point j (from 1) by ``at(j)``.  Each temporary is dropped once spent, so those alive at once take at
    most three quarters of the powers' memory.
    """
    n, m = len(powers), S.shape[0]
    Z = (powers.reshape(-1, 2 * m) @ np.vstack([np.eye(m), S])).reshape(n, 2 * m, m)
    Xt = Z[:, :m].transpose(0, 2, 1)
    # the solve factorizes the same matrices as det, so a positive
    # determinant rules out a singular pivot there
    det = np.linalg.det(Xt)
    _raise_first(~(np.isfinite(det) & (det > 0)), "crossed a pole", at)
    del det
    T = np.linalg.solve(Xt, Z[:, m:].transpose(0, 2, 1))
    del Z, Xt
    T += T.transpose(0, 2, 1)
    T *= 0.5
    # A pair of poles inside one step leaves det X_j positive, but puts
    # eigenvalues of that step's X part, Phi11 + Phi12 S_{j-1}, on the
    # negative real axis.  None can be there while every entry of the X
    # parts is within 1/m of I's.  (Transposed and less I here, each
    # step's product in one GEMM.)
    phi11_t, phi12_t = powers[0, :m, :m].T - np.eye(m), powers[0, :m, m:].T
    steps = np.empty_like(T)
    np.matmul(S, phi12_t, out=steps[0])
    np.matmul(T[:-1].reshape(-1, m), phi12_t, out=steps[1:].reshape(-1, m))
    steps += phi11_t
    if m * max(steps.max(), -steps.min()) >= 1:
        ev = np.linalg.eigvals(steps + np.eye(m))
        _raise_first((np.abs(ev.imag) <= -ev.real).any(axis=1), "crossed a pole", at)
    size = np.maximum(T.max(axis=(1, 2)), -T.min(axis=(1, 2)))
    _raise_first(~(size <= ESCAPE_LIMIT), f"passed {ESCAPE_LIMIT:.0e}", at)
    out[...] = T


def _raise_first(bad: np.ndarray, what: str, at) -> None:
    hits = np.flatnonzero(bad)
    if hits.size:
        raise NonFinite(f"flow {what} at {at(int(hits[0]) + 1)} (finite-time escape)")


def _lift_path(H: np.ndarray, S0: np.ndarray, grid: TimeGrid,
               backward: bool = False) -> np.ndarray:
    """Flow of lift ``H`` from ``S0`` at every grid point, ``S0`` included.

    With ``backward`` the flow is written from the last grid point to the
    first, straight into the path it returns, so that path reads forward
    in time and ends at ``S0``.  An escape names the flow's step N and its
    time, ``t0 + N dt``, or ``t1 - N dt`` backward.
    """
    n_steps, dt = grid.n_steps, grid.dt
    origin, step_dt = (grid.t1, -dt) if backward else (grid.t0, dt)
    powers = _lift_powers(H, dt, n_steps)
    with _fits_in_memory(f"n_steps {n_steps} needs a path"):
        values = np.empty((n_steps + 1,) + S0.shape)
    path = values[::-1] if backward else values
    path[0] = S0
    for i in range(0, n_steps, len(powers)):
        n = min(len(powers), n_steps - i)
        _lift_block(powers[:n], path[i], path[i + 1 : i + 1 + n],
                    lambda j: f"step {i + j}, t={origin + (i + j) * step_dt:.6g}")
    return values


def _require_heisenberg(Sigma0, J, hbar: float) -> None:
    """InvalidParameter (rejected input) unless the start covariance
    ``Sigma0`` meets the Heisenberg bound of ``(J, hbar)``."""
    report = check_uncertainty(Sigma0, J, hbar)
    if not report.passed:
        raise InvalidParameter(
            f"Sigma0 violates the Heisenberg bound "
            f"(min eigenvalue {report.min_eigenvalue:.3e})"
        )


def integrate_filter_riccati(
    coeffs: LinearCoefficients,
    Sigma0: NDArray[np.float64],
    grid: TimeGrid,
    uncertainty: tuple[NDArray[np.float64], float] | None = None,
) -> MatrixPath:
    """Propagate the posterior covariance forward in time.

    Parameters
    ----------
    coeffs : LinearCoefficients
    Sigma0 : (m, m) array
        Symmetric initial covariance.
    grid : TimeGrid
    uncertainty : (J, hbar) or None
        When given, ``Sigma0`` and every point of the computed path are
        checked against the Heisenberg bound: a ``Sigma0`` below it raises
        :class:`InvalidParameter`, a computed point below it
        :class:`UncertaintyViolation` naming the first failing time.
        Without it the flow is treated as a classical Riccati equation
        and no bound is enforced.

    Returns
    -------
    MatrixPath
        Covariance at every grid point, ``Sigma0`` included.
    """
    Sigma0 = _symmetrize(_asarray(Sigma0, float, (coeffs.m, coeffs.m), "Sigma0"), "Sigma0")
    if uncertainty is not None:
        J, hbar = uncertainty
        _require_heisenberg(Sigma0, J, hbar)
    values = _lift_path(_filter_lift(coeffs), Sigma0, grid)
    if uncertainty is not None:
        # the same bound along the whole path, in one batched margin
        worst = _heisenberg_margin(values, J, hbar)
        bad = np.nonzero(worst < UNCERTAINTY_TOL)[0]
        if bad.size:
            k = int(bad[0])
            raise UncertaintyViolation(
                f"covariance broke the Heisenberg bound at t={grid.times()[k]:.6g} "
                f"(min eigenvalue {worst[k]:.3e})"
            )
    return MatrixPath(grid=grid, values=values)


def integrate_control_riccati(
    coeffs: LinearCoefficients,
    cost: CostSpec,
    grid: TimeGrid,
) -> MatrixPath:
    """Propagate the value matrix backward from its terminal weight.

    The flow runs backward from ``cost.Omega_T`` at ``grid.t1``; the
    returned path is indexed by forward time, so ``path.at(k)`` is the
    value matrix at ``grid.times()[k]`` and ``path.final`` equals
    ``Omega_T``.
    """
    _require_matching_cost(coeffs, cost)
    values = _lift_path(_control_lift(coeffs, cost), cost.Omega_T, grid, backward=True)
    return MatrixPath(grid=grid, values=values)


def lyapunov_unconditional(
    coeffs: LinearCoefficients,
    Sigma0: NDArray[np.float64],
    grid: TimeGrid,
) -> MatrixPath:
    """Second moments without measurement conditioning (linear flow): the
    filter flow S -> A S + S A' + N of the same model with no output."""
    m = coeffs.m
    Sigma0 = _symmetrize(_asarray(Sigma0, float, (m, m), "Sigma0"), "Sigma0")
    unmeasured = LinearCoefficients(A=coeffs.A, B=coeffs.B, C=np.zeros((0, m)),
                                    N=coeffs.N, M=np.zeros((m, 0)))
    values = _lift_path(_filter_lift(unmeasured), Sigma0, grid)
    return MatrixPath(grid=grid, values=values)


def stationary_filter_covariance(coeffs: LinearCoefficients) -> NDArray[np.float64]:
    """Long-time limit of the filter covariance.

    The flow ``Sigma = Y X^-1`` of the filter lift ``d[X; Y]/dt = H [X; Y]``
    turns toward the invariant subspace of the ``m`` eigenvalues of ``H``
    with the largest real parts, so its limit is ``Y X^-1`` on their
    eigenvectors (Laub, IEEE TAC 24 (1979)), symmetrized.

    Raises
    ------
    NoConvergence
        If fewer than ``m`` eigenvalues of ``H`` have a positive real part,
        or the algebraic residual is not below 1e-8 (the flow never settles).
    NonFinite
        If ``X`` is singular or the limit passes ``ESCAPE_LIMIT`` (escape).
    """
    m = coeffs.m
    H = _filter_lift(coeffs)
    ev, vectors = np.linalg.eig(H)
    top = np.argsort(ev.real)[m:]
    if not ev.real[top].min() > 0:
        raise NoConvergence(f"the lift has fewer than {m} eigenvalues with positive real part")
    X, Y = vectors[:m, top], vectors[m:, top]
    try:
        # X' S' = Y' gives the transpose of Y X^-1, equal once symmetrized
        S = np.linalg.solve(X.T, Y.T).real
    except np.linalg.LinAlgError:
        raise NonFinite("flow escapes: X is singular on the stationary subspace") from None
    S = 0.5 * (S + S.T)
    if not np.abs(S).max() <= ESCAPE_LIMIT:
        raise NonFinite(f"flow escapes: the stationary point passed {ESCAPE_LIMIT:.0e}")
    residual = _lift_drift(H, S)
    if not residual < 1e-8:
        raise NoConvergence(f"stationary residual {residual:.3e} exceeds 1e-8")
    return S


def integrate_alpha(
    Omega_path: MatrixPath,
    Sigma_path: MatrixPath,
    coeffs: LinearCoefficients,
    cost: CostSpec,
) -> ScalarPath:
    """Scalar value term, integrated backward from zero at the horizon.

    The integrand is ``tr[gain' gain Sigma] + tr[Omega N]`` with the
    feedback gain ``B' Omega + G``; quadrature is trapezoidal on the
    shared grid, matching the convention used by the cost assembly.
    """
    grid = _require_same_grid(Omega_path.grid, Sigma_path.grid)
    if Omega_path.m != coeffs.m or Sigma_path.m != coeffs.m:
        raise DimensionMismatch("paths and coefficients disagree on dimension")
    f = _cost_integrands(Omega_path.values, Sigma_path.values, coeffs, cost)
    forward = _cumulative_trapezoid(f, grid.dt)
    return ScalarPath(grid=grid, values=forward[-1] - forward)


def _cumulative_trapezoid(f: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integrals of the samples ``f`` of a grid of step ``dt``,
    from its first point to each point; the first is 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * dt * (f[:-1] + f[1:]))))


def _cost_integrands(
    Omega: np.ndarray, Sigma: np.ndarray, coeffs: LinearCoefficients, cost: CostSpec
) -> np.ndarray:
    """Pointwise ``tr[gain' gain Sigma] + tr[Omega N]`` along the paths."""
    gains = np.matmul(coeffs.B.T, Omega) + cost.G
    noise_term = np.einsum("tab,ba->t", Omega, coeffs.N)
    control_term = np.einsum("tka,tkb,tab->t", gains, gains, Sigma)
    return control_term + noise_term


def total_minimal_cost(
    Xbar: NDArray[np.float64],
    Sigma0: NDArray[np.float64],
    Omega_path: MatrixPath,
    Sigma_path: MatrixPath,
    coeffs: LinearCoefficients,
    cost: CostSpec,
) -> float:
    """Expected optimal cost from initial mean ``Xbar`` and covariance ``Sigma0``.

    Four terms: the quadratic form of the initial value matrix at
    ``Xbar``, its trace against ``Sigma0``, and the trapezoid integrals
    of the noise term and the feedback term (together the scalar value
    term of :func:`integrate_alpha` at ``t0``).
    """
    grid = _require_same_grid(Omega_path.grid, Sigma_path.grid)
    m = coeffs.m
    Xbar = _asarray(Xbar, float, (m,), "Xbar")
    Sigma0 = _symmetrize(_asarray(Sigma0, float, (m, m), "Sigma0"), "Sigma0")
    if not np.allclose(Sigma_path.at(0), Sigma0, rtol=0.0, atol=1e-12):
        raise ValidationError("Sigma_path does not start from Sigma0")

    Omega0 = Omega_path.at(0)
    static = float(Xbar @ Omega0 @ Xbar + np.trace(Omega0 @ Sigma0))

    f = _cost_integrands(Omega_path.values, Sigma_path.values, coeffs, cost)
    return static + float(np.trapezoid(f, dx=grid.dt))
