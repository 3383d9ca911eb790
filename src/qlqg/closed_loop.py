"""Monte Carlo simulation of the innovations-driven feedback loop.

The loop is simulated in innovations representation: the innovation
increments are exogenous Wiener draws, which is exact for the
conditional dynamics and sidesteps any notion of a hidden point state.
Each trajectory owns a counter-based random stream derived from
``(seed, trajectory index)``, so ensembles are reproducible,
independent of thread scheduling and independent of batch layout: a
chunk is held one trajectory per column in a multiple of 8 columns, so
a trajectory's results do not depend on ``n_traj`` or on the chunk that
carries it.  Streams draw in blocks of steps, so memory does not grow
with ``n_steps`` beyond the per-step covariance and gain paths.
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
from .phase_space import (
    GaussianBelief, LinearCoefficients, _asarray, _fits_in_memory, _frozen,
)
from .riccati import (
    ESCAPE_LIMIT,
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
    "monte_carlo_expected_cost",
]

#: trajectories per batch; fixed so results never depend on thread count
_CHUNK = 1024
#: steps of noise each stream draws at a time; bounds a chunk's noise
#: buffer whatever ``n_steps`` is
_BLOCK = 256
#: a chunk has a multiple of this many columns: OpenBLAS rounds the
#: columns of a last, partial block of 8 apart from those of full blocks,
#: and a one-row or one-column product goes to GEMV
_COLUMN_BLOCK = 8


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, time grid, seeding and recording density."""

    grid: TimeGrid
    n_traj: int
    seed: int
    record_stride: int = 1

    def __post_init__(self) -> None:
        for name in ("n_traj", "seed", "record_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
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


def _chunk_width(rows: int) -> int:
    """Columns of a chunk of ``rows`` trajectories: the next multiple of
    ``_COLUMN_BLOCK``."""
    return -(-rows // _COLUMN_BLOCK) * _COLUMN_BLOCK


def _increments(config: SimConfig, start: int, stop: int, d: int):
    """Per-step (d, B) Wiener increments of trajectories ``start..stop-1``,
    B = ``_chunk_width(stop - start)``, each a view valid until the next
    is drawn.

    Column i comes from the Philox stream of ``(seed, start + i)``; the
    pad columns are zero.  The streams stay alive and draw ``_BLOCK``
    steps at a time into one buffer; a counter-based stream yields the
    same numbers however its draws are split, so the bytes are those of
    one bulk draw.
    """
    rows, n_steps = stop - start, config.grid.n_steps
    sqrt_dt = math.sqrt(config.grid.dt)
    streams = [
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(config.seed, spawn_key=(i,))))
        for i in range(start, stop)
    ]
    block = np.empty((rows, _BLOCK, d))
    steps = np.zeros((_BLOCK, d, _chunk_width(rows)))
    for step0 in range(0, n_steps, _BLOCK):
        width = min(_BLOCK, n_steps - step0)
        for stream, draws in zip(streams, block):
            stream.standard_normal(out=draws[:width])
        np.multiply(block[:, :width].transpose(1, 2, 0), sqrt_dt,
                    out=steps[:width, :, :rows])
        yield from steps[:width]


def _run_chunks(config: SimConfig, d: int, run_chunk, first: int = 0):
    """The results of ``run_chunk(start, stop, noise)`` over fixed chunks.

    The one chunk loop of every Monte Carlo simulator.  Chunks of up to
    ``_CHUNK`` trajectories cover the indices ``first`` to
    ``first + n_traj - 1``; ``noise`` yields the chunk's (d, B) Wiener
    increments step by step, one trajectory per column, column i from the
    Philox stream of ``(seed, start + i)``, so no buffer grows with
    ``n_steps``.  Up to ``QLQG_THREADS`` chunks run at once.

    B = ``_chunk_width(stop - start)`` is the chunk's trajectory count
    rounded up to a multiple of ``_COLUMN_BLOCK``, and the pad columns'
    noise is zero.  A simulator holds its chunk in B columns, so every
    product rounds a trajectory alike in every chunk, and its results
    depend only on ``(seed, index)``: not on ``QLQG_THREADS``, not on
    the chunk it lands in, and not on ``first``.  Any trajectory of an
    ensemble can be run alone.
    """
    workers = _worker_count()

    def chunk(start: int):
        stop = min(start + _CHUNK, first + config.n_traj)
        return run_chunk(start, stop, _increments(config, start, stop, d))

    starts = range(first, first + config.n_traj, _CHUNK)
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
) -> ClosedLoopEnsemble:
    """Run the filter/controller loop over an ensemble of noise draws.

    The covariance and value flows are integrated once on the grid; each
    trajectory then propagates the posterior mean with Euler-Maruyama
    steps driven by its own innovation stream, applying the feedback
    ``u = -(B' Omega_t + G) Xhat`` and accumulating the posterior
    running cost by trapezoid.  The per-trajectory total adds the
    terminal cost at the horizon.

    Under certainty-equivalent feedback ``u = -L_n Xhat`` the step is
    linear: ``Xhat <- Phi_n Xhat + K_n dW`` with
    ``Phi_n = I + (A - B L_n) dt`` and the filter gain ``K_n``, and the
    running cost is ``Xhat' Q_n Xhat + tr(F Sigma_n)`` with
    ``Q_n = F - L_n'G - G'L_n + L_n'L_n``.  Both are precomputed per
    step, so a step is one product ``[Phi_n | K_n] @ [Xhat; dW]`` on a
    chunk held one trajectory per column; controls and outputs are formed
    only at recorded rows.

    Parameters
    ----------
    coeffs, cost, config : model, cost weights, ensemble layout.
    initial : GaussianBelief
        Mean and covariance shared by all trajectories at ``grid.t0``.
    gain_offset : (k, m) array, optional
        Added to the optimal gain at every instant (suboptimality
        probes).

    Notes
    -----
    Trajectories are processed in fixed-size chunks.  The environment
    variable ``QLQG_THREADS`` caps how many chunks run concurrently
    (default 1).  Every trajectory owns its own counter-based stream and
    lands in a preallocated slot, and its arithmetic does not depend on
    the chunk it shares, so results are bit-identical for any thread
    count and any ``n_traj``: trajectory i is the same in every ensemble
    of the seed that holds it.
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

    m, d, k = coeffs.m, coeffs.d, coeffs.k
    n_steps, dt = grid.n_steps, grid.dt
    stride = config.record_stride
    n_rec = config.n_records
    n_traj = config.n_traj

    # the per-step arrays, built _BLOCK steps at a time so that no
    # temporary spans the grid: step maps [Phi_n | K_n], applied to the
    # column [Xhat; dW], and running-cost weights
    # Q_n = F - L_n'G - G'L_n + L_n'L_n
    step_maps = np.empty((n_steps, m, m + d))
    Q = np.empty((n_steps + 1, m, m))
    for s in range(0, n_steps + 1, _BLOCK):
        L = gains[s:s + _BLOCK]
        LtG = L.swapaxes(1, 2) @ cost.G
        Q[s:s + _BLOCK] = cost.F - LtG - LtG.swapaxes(1, 2) + L.swapaxes(1, 2) @ L
        span = slice(s, min(s + _BLOCK, n_steps))
        step_maps[span, :, :m] = np.eye(m) + (coeffs.A - coeffs.B @ gains[span]) * dt
        K = np.matmul(Sigma_path.values[span], coeffs.C.T)
        step_maps[span, :, m:] = K + coeffs.M
    trace_F = np.einsum("ab,tba->t", cost.F, Sigma_path.values)
    terminal_trace = float(np.trace(cost.Omega_T @ Sigma_path.final))
    C_dt, half_dt = coeffs.C * dt, 0.5 * dt

    with _fits_in_memory(f"n_traj {n_traj} needs result arrays"):
        means = np.empty((n_traj, n_rec, m))
        controls = np.empty((n_traj, n_rec, k))
        outputs = np.zeros((n_traj, n_rec, d))
        innovations = np.zeros((n_traj, n_rec, d))
        running = np.empty((n_traj, n_rec))
        totals = np.empty(n_traj)

    def run_chunk(start: int, stop: int, noise) -> None:
        # the chunk is held transposed, one trajectory per column, so
        # every elementwise pass runs over contiguous rows of length B
        rows, sl = stop - start, slice(start, stop)
        B = _chunk_width(rows)  # zero pad columns stay zero
        # [Xhat; dW] of this step and the next, alternating
        XW = np.zeros((2, m + d, B))
        XW[0, :m, :rows] = initial.mean[:, None]
        block = np.zeros((m + d, B))  # [Xhat; dW] summed over a record block
        acc, trap = np.zeros(B), np.empty(B)
        c_prev, c_next = np.empty(B), np.empty(B)
        QX, absX = np.empty((m, B)), np.empty((m, B))

        def quadratic_cost(X, W, trace, out):
            # X' W X + trace for every column X
            np.matmul(W, X, out=QX)
            np.multiply(QX, X, out=QX)
            QX.sum(axis=0, out=out)
            out += trace

        def record(row, X, n):
            means[sl, row] = X[:, :rows].T
            # -L_n X as the last rows of a GEMM: with one control, a
            # one-row product would go to GEMV, which sums its terms in
            # another order and moves the recorded controls by an ulp
            controls[sl, row] = (np.vstack((np.eye(m), -gains[n])) @ X)[m:, :rows].T
            running[sl, row] = acc[:rows]

        X = XW[0, :m]
        quadratic_cost(X, Q[0], trace_F[0], c_prev)
        record(0, X, 0)
        row = 1
        for step, dW in enumerate(noise):
            XW_now, XW_next = XW[step % 2], XW[(step + 1) % 2]
            XW_now[m:] = dW
            block += XW_now
            X = XW_next[:m]
            np.matmul(step_maps[step], XW_now, out=X)
            np.abs(X, out=absX)
            if not absX.max() <= ESCAPE_LIMIT:
                b = int(np.argmin((absX[:, :rows] <= ESCAPE_LIMIT).all(axis=0)))
                raise NonFinite(f"posterior mean passed {ESCAPE_LIMIT:.0e} in "
                                f"{_at(config, start + b, step + 1)}")
            quadratic_cost(X, Q[step + 1], trace_F[step + 1], c_next)
            np.add(c_prev, c_next, out=trap)
            trap *= half_dt
            acc += trap
            c_prev, c_next = c_next, c_prev
            if (step + 1) % stride == 0:
                record(row, X, step + 1)
                outputs[sl, row] = (C_dt @ block[:m])[:, :rows].T + block[m:, :rows].T
                innovations[sl, row] = block[m:, :rows].T
                block[:] = 0.0
                row += 1
        quadratic_cost(X, cost.Omega_T, terminal_trace, c_next)
        totals[sl] = (acc + c_next)[:rows]

    _run_chunks(config, d, run_chunk)
    for arr in (means, controls, outputs, innovations, running, totals):
        _frozen(arr)
    return ClosedLoopEnsemble(
        config=config, Sigma_path=Sigma_path, Omega_path=Omega_path,
        times=_frozen(grid.times(stride)), means=means,
        controls=controls, outputs=outputs, innovations=innovations,
        running_costs=running, total_costs=totals,
    )


def monte_carlo_expected_cost(ensemble: ClosedLoopEnsemble) -> tuple[float, float]:
    """Sample mean and standard error of the per-trajectory total cost.

    With one trajectory the standard error is NaN.
    """
    totals = ensemble.total_costs
    n = totals.shape[0]
    if n == 0:
        raise EmptyEnsemble("ensemble holds no trajectories")
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
