"""Monte Carlo simulation of the innovations-driven feedback loop.

The loop is simulated in innovations representation: the innovation
increments are exogenous Wiener draws, which is exact for the
conditional dynamics and sidesteps any notion of a hidden point state.
Each trajectory owns a counter-based random stream derived from
``(seed, trajectory index)``, so ensembles are reproducible and
independent of thread scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .control import control_gain_path
from .errors import ConfigError, EmptyEnsemble, InvalidParameter, NonFinite
from .kalman import mean_step
from .phase_space import GaussianBelief, LinearCoefficients, _asarray, _frozen
from .riccati import (
    CostSpec,
    MatrixPath,
    TimeGrid,
    integrate_control_riccati,
    integrate_filter_riccati,
)

__all__ = [
    "SimConfig",
    "TrajectoryRecord",
    "ClosedLoopEnsemble",
    "simulate_closed_loop",
    "running_posterior_cost",
    "monte_carlo_expected_cost",
    "trajectory_to_csv",
]

#: trajectories per batch; fixed so results never depend on thread count
_CHUNK = 1024

_ESCAPE = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, time grid, seeding and recording density."""

    grid: TimeGrid
    n_traj: int
    seed: int
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.grid.n_steps % self.record_stride != 0:
            raise ConfigError(
                f"record_stride {self.record_stride} does not divide "
                f"n_steps {self.grid.n_steps}"
            )

    @property
    def n_records(self) -> int:
        """Recorded points per trajectory, initial state included."""
        return self.grid.n_steps // self.record_stride + 1


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated trajectory at the recorded times.

    ``outputs`` and ``innovations`` hold the increments accumulated over
    the interval ending at each row's time (first row zero); controls
    are the instantaneous feedback at that time; ``running_cost`` is the
    cumulative posterior cost integral, excluding the terminal term.
    """

    times: NDArray[np.float64]
    means: NDArray[np.float64]
    controls: NDArray[np.float64]
    outputs: NDArray[np.float64]
    innovations: NDArray[np.float64]
    running_cost: NDArray[np.float64]
    total_cost: float


@dataclass(frozen=True)
class ClosedLoopEnsemble:
    """Stacked trajectory records, per-trajectory total costs and the
    covariance and value flows the loop ran on."""

    config: SimConfig
    cost: CostSpec
    Sigma_path: MatrixPath
    Omega_path: MatrixPath
    times: NDArray[np.float64]
    means: NDArray[np.float64]
    controls: NDArray[np.float64]
    outputs: NDArray[np.float64]
    innovations: NDArray[np.float64]
    running_costs: NDArray[np.float64]
    total_costs: NDArray[np.float64]

    def __len__(self) -> int:
        return self.total_costs.shape[0]

    def __getitem__(self, i: int) -> TrajectoryRecord:
        return TrajectoryRecord(
            times=self.times,
            means=self.means[i],
            controls=self.controls[i],
            outputs=self.outputs[i],
            innovations=self.innovations[i],
            running_cost=self.running_costs[i],
            total_cost=float(self.total_costs[i]),
        )


def running_posterior_cost(
    Xhat: NDArray[np.float64],
    Sigma: NDArray[np.float64],
    u: NDArray[np.float64],
    cost: CostSpec,
) -> float:
    """Posterior expectation of the running cost at one instant.

    For a Gaussian belief this is
    ``Xhat' F Xhat + tr[F Sigma] + 2 u' G Xhat + u' u``; it is
    guaranteed nonnegative when ``F - G'G`` is PSD.
    """
    m = cost.m
    Xhat = _asarray(Xhat, float, (m,), "Xhat")
    Sigma = _asarray(Sigma, float, (m, m), "Sigma")
    u = _asarray(u, float, (cost.k,), "u")
    return float(
        Xhat @ cost.F @ Xhat + np.trace(cost.F @ Sigma)
        + 2.0 * u @ cost.G @ Xhat + u @ u
    )


def _worker_count() -> int:
    """Worker threads from ``QLQG_THREADS``; one when unset or empty."""
    raw = os.environ.get("QLQG_THREADS") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"QLQG_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _at(config: SimConfig, index: int, step: int) -> str:
    """Where a failure happened, enough to replay it from (seed, index)."""
    t = config.grid.t0 + step * config.grid.dt
    return f"trajectory {index} of seed {config.seed} at step {step}, t={t:.6g}"


def _run_chunks(config: SimConfig, d: int, run_chunk, zero_noise: bool = False):
    """The results of ``run_chunk(start, stop, noise)`` over fixed chunks.

    The one chunk loop of every Monte Carlo simulator.  ``noise`` holds the
    chunk's (B, n_steps, d) Wiener increments; row i comes from the
    Philox stream of ``(seed, start + i)`` (zeros under ``zero_noise``).
    Up to ``QLQG_THREADS`` chunks run at once; no chunk's work depends
    on that, so neither do the results.
    """
    n_steps, sqrt_dt = config.grid.n_steps, math.sqrt(config.grid.dt)
    workers = _worker_count()

    def chunk(start: int):
        stop = min(start + _CHUNK, config.n_traj)
        noise = np.zeros((stop - start, n_steps, d))
        if not zero_noise:
            for i in range(stop - start):
                key = np.random.SeedSequence(config.seed, spawn_key=(start + i,))
                rng = np.random.Generator(np.random.Philox(key))
                noise[i] = rng.standard_normal((n_steps, d)) * sqrt_dt
        return run_chunk(start, stop, noise)

    starts = range(0, config.n_traj, _CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(chunk, starts))
    return [chunk(s) for s in starts]


def simulate_closed_loop(
    coeffs: LinearCoefficients,
    cost: CostSpec,
    config: SimConfig,
    initial: GaussianBelief,
    gain_offset: NDArray[np.float64] | None = None,
    zero_noise: bool = False,
) -> ClosedLoopEnsemble:
    """Run the filter/controller loop over an ensemble of noise draws.

    The covariance and value flows are integrated once on the grid; each
    trajectory then propagates the posterior mean with Euler-Maruyama
    steps driven by its own innovation stream, applying the feedback
    ``u = -(B' Omega_t + G) Xhat`` and accumulating the posterior
    running cost by trapezoid.  The per-trajectory total adds the
    terminal cost at the horizon.

    Parameters
    ----------
    coeffs, cost, config : model, cost weights, ensemble layout.
    initial : GaussianBelief
        Mean and covariance shared by all trajectories at ``grid.t0``.
    gain_offset : (k, m) array, optional
        Added to the optimal gain at every instant (suboptimality
        probes).
    zero_noise : bool
        Replace all innovation draws by zero (test hook); the mean then
        follows the deterministic closed-loop recursion.

    Notes
    -----
    Trajectories are processed in fixed-size chunks.  The environment
    variable ``QLQG_THREADS`` caps how many chunks run concurrently
    (default 1); results are bit-identical for any setting because every
    trajectory owns its own counter-based stream and lands in a
    preallocated slot.
    """
    if initial.m != coeffs.m:
        raise InvalidParameter(
            f"initial belief has dimension {initial.m}, coefficients {coeffs.m}"
        )
    grid = config.grid
    Sigma_path = integrate_filter_riccati(coeffs, initial.cov, grid)
    Omega_path = integrate_control_riccati(coeffs, cost, grid)
    gains = control_gain_path(Omega_path, coeffs, cost).gains
    if gain_offset is not None:
        gains = gains + _asarray(gain_offset, float, gains.shape[1:], "gain_offset")
    # measurement gain at every grid point, from the covariance flow
    kgains = np.matmul(Sigma_path.values, coeffs.C.T) + coeffs.M

    m, d, k = coeffs.m, coeffs.d, coeffs.k
    n_steps, dt = grid.n_steps, grid.dt
    stride = config.record_stride
    n_rec = config.n_records
    n_traj = config.n_traj

    means = np.empty((n_traj, n_rec, m))
    controls = np.empty((n_traj, n_rec, k))
    outputs = np.zeros((n_traj, n_rec, d))
    innovations = np.zeros((n_traj, n_rec, d))
    running = np.empty((n_traj, n_rec))
    totals = np.empty(n_traj)

    trace_F = np.einsum("ab,tba->t", cost.F, Sigma_path.values)
    terminal_trace = float(np.trace(cost.Omega_T @ Sigma_path.final))
    G, F, Omega_T = cost.G, cost.F, cost.Omega_T

    def batch_cost(X: np.ndarray, u: np.ndarray, step: int) -> np.ndarray:
        c = np.einsum("bi,ij,bj->b", X, F, X) + trace_F[step]
        c += 2.0 * np.einsum("bk,bk->b", u, X @ G.T)
        c += np.einsum("bk,bk->b", u, u)
        return c

    def run_chunk(start: int, stop: int, noise: np.ndarray) -> None:
        B = stop - start
        X = np.tile(initial.mean, (B, 1))
        u = -X @ gains[0].T
        c_prev = batch_cost(X, u, 0)
        acc = np.zeros(B)
        block_dY = np.zeros((B, d))
        block_dYt = np.zeros((B, d))
        sl = slice(start, stop)
        means[sl, 0] = X
        controls[sl, 0] = u
        running[sl, 0] = 0.0
        row = 1
        for step in range(n_steps):
            dYt = noise[:, step]
            block_dYt += dYt
            block_dY += (X @ coeffs.C.T) * dt + dYt
            X = mean_step(X, u, dYt, kgains[step], coeffs, dt)
            u = -X @ gains[step + 1].T
            c_new = batch_cost(X, u, step + 1)
            acc += 0.5 * dt * (c_prev + c_new)
            c_prev = c_new
            if not np.abs(X).max() <= _ESCAPE:
                b = int(np.argmin((np.abs(X) <= _ESCAPE).all(axis=1)))
                raise NonFinite(f"posterior mean passed {_ESCAPE:.0e} in "
                                f"{_at(config, start + b, step + 1)}")
            if (step + 1) % stride == 0:
                means[sl, row] = X
                controls[sl, row] = u
                outputs[sl, row] = block_dY
                innovations[sl, row] = block_dYt
                running[sl, row] = acc
                block_dY = np.zeros((B, d))
                block_dYt = np.zeros((B, d))
                row += 1
        totals[sl] = acc + np.einsum("bi,ij,bj->b", X, Omega_T, X) + terminal_trace

    _run_chunks(config, d, run_chunk, zero_noise)
    rec_times = grid.times()[::stride].copy()
    for arr in (means, controls, outputs, innovations, running, totals):
        _frozen(arr)
    return ClosedLoopEnsemble(
        config=config, cost=cost, Sigma_path=Sigma_path, Omega_path=Omega_path,
        times=_frozen(rec_times), means=means, controls=controls, outputs=outputs,
        innovations=innovations, running_costs=running, total_costs=totals,
    )


def monte_carlo_expected_cost(
    ensemble: ClosedLoopEnsemble, cost: CostSpec | None = None
) -> tuple[float, float]:
    """Sample mean and standard error of the per-trajectory total cost.

    ``cost``, when given, must be the CostSpec the ensemble was
    simulated with; passing a different one is a configuration error
    since totals cannot be re-derived from thinned records.  With one
    trajectory the standard error is NaN.
    """
    totals = ensemble.total_costs
    n = totals.shape[0]
    if n == 0:
        raise EmptyEnsemble("ensemble holds no trajectories")
    if cost is not None and not (
        np.array_equal(cost.F, ensemble.cost.F)
        and np.array_equal(cost.G, ensemble.cost.G)
        and np.array_equal(cost.Omega_T, ensemble.cost.Omega_T)
    ):
        raise ConfigError("cost differs from the one the ensemble was run with")
    # Welford accumulation; trajectory order is fixed, so this is
    # deterministic no matter how the simulation was scheduled
    mean = 0.0
    m2 = 0.0
    for i, x in enumerate(totals, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
    if n == 1:
        return float(mean), float("nan")
    return float(mean), math.sqrt(m2 / (n - 1) / n)


def trajectory_to_csv(record: TrajectoryRecord, file) -> None:
    """Write one trajectory as CSV: time, mean, control, output and
    innovation increments (intervals ending at each row's time)."""
    m = record.means.shape[1]
    k = record.controls.shape[1]
    d = record.outputs.shape[1]
    header = ",".join(
        ["t"]
        + [f"Xhat_{i}" for i in range(m)]
        + [f"u_{i}" for i in range(k)]
        + [f"dY_{i}" for i in range(d)]
        + [f"dYtilde_{i}" for i in range(d)]
    )
    data = np.column_stack([
        record.times, record.means, record.controls,
        record.outputs, record.innovations,
    ])
    np.savetxt(file, data, delimiter=",", header=header, comments="", fmt="%.17g")
