"""Monte Carlo simulation of the innovations-driven feedback loop.

The loop is simulated in innovations representation: the innovation
increments are exogenous Wiener draws, which is exact for the
conditional dynamics and sidesteps any notion of a hidden point state.
Each trajectory owns a counter-based random stream derived from
``(seed, trajectory index)``, so ensembles are reproducible and
independent of batch layout: a chunk is held one trajectory per column
in a multiple of 8 columns, so a trajectory's results do not depend on
``n_traj`` or on the chunk that carries it.  Streams draw in blocks of
steps into one noise block per chunk, one trajectory per row, and each
step reads its increments as a view into it, valid until the next block
is drawn; so memory does not grow with ``n_steps`` beyond the per-step
covariance and gain paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .control import control_gain_path
from .errors import ConfigError, EmptyEnsemble, InvalidParameter, NonFinite
from .phase_space import (
    GaussianBelief, LinearCoefficients, _asarray, _count, _fits_in_memory, _frozen,
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

#: trajectories per batch
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
        if not isinstance(self.grid, TimeGrid):
            raise ConfigError(f"grid must be a TimeGrid, got {self.grid!r}")
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
    covariance and value flows the loop ran on.

    ``total_costs`` covers every trajectory; the paths (``means`` to
    ``running_costs``) cover the first ``len(means)`` of them, those the
    simulation recorded.
    """

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
        """Row ``i`` of the ensemble; IndexError unless its paths were
        recorded."""
        j = i + len(self) if i < 0 else i
        if not 0 <= j < self.means.shape[0]:
            raise IndexError(f"trajectory {i} of {len(self)} has no recorded paths "
                             f"({self.means.shape[0]} recorded)")
        return TrajectoryRecord(
            times=self.times,
            means=self.means[j],
            controls=self.controls[j],
            outputs=self.outputs[j],
            innovations=self.innovations[j],
            running_cost=self.running_costs[j],
            total_cost=float(self.total_costs[j]),
        )


def _at(config: SimConfig, index: int, step: int) -> str:
    """Where a failure happened, enough to replay it from (seed, index)."""
    t = config.grid.t0 + step * config.grid.dt
    return f"trajectory {index} of seed {config.seed} at step {step}, t={t:.6g}"


def _chunk_width(rows: int) -> int:
    """Columns of a chunk of ``rows`` trajectories: the next multiple of
    ``_COLUMN_BLOCK``."""
    return -(-rows // _COLUMN_BLOCK) * _COLUMN_BLOCK


#: constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
#: words in a SeedSequence pool
_POOL = 4


def _hasher(init: int, mult: int):
    """SeedSequence's hash with a running multiplier: each call of the
    returned function hashes uint32 values with the next constant."""
    const = init

    def hash_words(value):
        nonlocal const
        xor, const = np.uint32(const), const * mult & _MASK32
        value = (value ^ xor) * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into a pool word ``x``."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _stream_keys(seed: int, start: int, stop: int) -> NDArray[np.uint64]:
    """Philox keys of the streams of trajectories ``start..stop-1``, one
    row each: row i is ``np.random.SeedSequence(seed, spawn_key=(start +
    i,)).generate_state(2, np.uint64)``, for every row at once.

    It is numpy's SeedSequence hash in uint32 arithmetic.  The entropy
    is the seed's 32-bit words, padded to the pool size because a spawn
    key follows, then the index's words.  A seed below 2^64, as
    :class:`SimConfig` requires, fits the pool, so the pool and its
    mixing depend on the seed only and are computed once; each index
    word then mixes into every pool word, one round per word, and an
    index with fewer words leaves its pool as it is in the later rounds.
    The index has no upper bound.
    """
    rows = stop - start
    # the index words, least significant first, carried across 32 bits
    # so that indices of any size are exact
    index_words, rest, carry = [], start, np.arange(rows, dtype=np.uint64)
    while True:
        total = carry + np.uint64(rest & _MASK32)
        index_words.append((total & _MASK32).astype(np.uint32))
        carry, rest = total >> 32, rest >> 32
        if not rest and not carry.any():
            break
    # the word count of each index: 1 + the position of its top nonzero word
    n_words = np.ones(rows, dtype=np.intp)
    for j, w in enumerate(index_words[1:], start=2):
        n_words[w != 0] = j
    hashmix = _hasher(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):
        pool = [hashmix(np.uint32((seed >> 32 * i) & _MASK32)) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for j, w in enumerate(index_words):
            mixed = [_mix(p, hashmix(w)) for p in pool]
            pool = [np.where(n_words > j, q, p) for p, q in zip(pool, mixed)]
        state = _hasher(_INIT_B, _MULT_B)
        words = [state(p).astype(np.uint64) for p in pool]
    # the four state words read as two little-endian uint64
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


@functools.cache
def _key_type() -> type:
    """The class of a precomputed Philox key, handed over as the seed
    sequence that would generate it.  Built on first use, so that a
    program that draws no noise does not import numpy.random."""

    class _Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: NDArray[np.uint64]) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key
    return _Key


def _increments(config: SimConfig, start: int, stop: int, d: int):
    """Per-step (d, B) Wiener increments of trajectories ``start..stop-1``,
    B = ``_chunk_width(stop - start)``, each a view into the chunk's one
    noise block, valid until the next block is drawn.

    Column i comes from numpy's Philox stream keyed by
    ``SeedSequence(seed, spawn_key=(start + i,))``; the pad columns are
    zero.  The chunk's keys are computed together by
    :func:`_stream_keys`, with no SeedSequence object per trajectory.
    The streams stay alive and draw ``_BLOCK`` steps at a time, each
    straight into its own row of one (B, ``_BLOCK``, d) block, which is
    scaled by sqrt(dt) in place; a step's increments are the block's
    column of that step, read in place.  A counter-based stream yields
    the same numbers however its draws are split, so the bytes are those
    of one bulk draw.
    """
    rows, n_steps = stop - start, config.grid.n_steps
    sqrt_dt = math.sqrt(config.grid.dt)
    key = _key_type()
    streams = [np.random.Generator(np.random.Philox(key(k)))
               for k in _stream_keys(int(config.seed), start, stop)]
    block = np.zeros((_chunk_width(rows), _BLOCK, d))
    for step0 in range(0, n_steps, _BLOCK):
        width = min(_BLOCK, n_steps - step0)
        drawn = block[:rows, :width]
        for stream, draws in zip(streams, drawn):
            stream.standard_normal(out=draws)
        drawn *= sqrt_dt
        yield from block[:, :width].transpose(1, 2, 0)


def _run_chunks(config: SimConfig, d: int, run_chunk, first: int = 0) -> None:
    """Call ``run_chunk(start, stop, noise)`` on fixed chunks, in index order.

    The one chunk loop of every Monte Carlo simulator.  Chunks of up to
    ``_CHUNK`` trajectories cover the indices ``first`` to
    ``first + n_traj - 1``; ``noise`` yields the chunk's (d, B) Wiener
    increments step by step, one trajectory per column, each a view into
    the chunk's one noise block that stays valid until the next block is
    drawn, ``_BLOCK`` steps on; no buffer grows with ``n_steps``.  Column
    i comes from numpy's Philox stream keyed by ``SeedSequence(seed,
    spawn_key=(start + i,))``, and the keys of a chunk are computed
    together (:func:`_increments`).

    B = ``_chunk_width(stop - start)`` is the chunk's trajectory count
    rounded up to a multiple of ``_COLUMN_BLOCK``, and the pad columns'
    noise is zero.  A simulator holds its chunk in B columns, so every
    product rounds a trajectory alike in every chunk, and its results
    depend only on ``(seed, index)``: not on the chunk it lands in, and
    not on ``first``.  Any trajectory of an ensemble can be run alone.
    """
    for start in range(first, first + config.n_traj, _CHUNK):
        stop = min(start + _CHUNK, first + config.n_traj)
        run_chunk(start, stop, _increments(config, start, stop, d))


def simulate_closed_loop(
    coeffs: LinearCoefficients,
    cost: CostSpec,
    config: SimConfig,
    initial: GaussianBelief,
    gain_offset: NDArray[np.float64] | None = None,
    first: int = 0,
    record: int | None = None,
) -> ClosedLoopEnsemble:
    """Run the filter/controller loop over trajectories ``first`` to
    ``first + n_traj - 1`` of a seed.

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
    first : int
        Index of the first trajectory; row i of the result is trajectory
        ``first + i``, and ``n_traj=1, first=i`` replays trajectory i
        alone.
    record : int, optional
        Keep the paths of the first ``record`` trajectories only, so the
        paths take ``min(record, n_traj)`` rows; ``None`` keeps them all.
        Total costs cover every trajectory either way, and a recorded
        row is the same bit for bit whatever ``record`` is.

    Notes
    -----
    Trajectories are processed in fixed-size chunks, one after another.
    Every trajectory owns its own counter-based stream and lands in a
    preallocated slot, and its arithmetic does not depend on the chunk
    it shares, so results are bit-identical for any ``n_traj``:
    trajectory i is the same in every ensemble of the seed that holds
    it.
    """
    first = _count(first, "first", 0)
    n_traj = config.n_traj
    n_kept = n_traj if record is None else min(_count(record, "record", 0), n_traj)
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
        means = np.empty((n_kept, n_rec, m))
        controls = np.empty((n_kept, n_rec, k))
        outputs = np.zeros((n_kept, n_rec, d))
        innovations = np.zeros((n_kept, n_rec, d))
        running = np.empty((n_kept, n_rec))
        totals = np.empty(n_traj)

    def run_chunk(start: int, stop: int, noise) -> None:
        # the chunk is held transposed, one trajectory per column, so
        # every elementwise pass runs over contiguous rows of length B
        rows, sl = stop - start, slice(start - first, stop - first)
        # its first `kept` columns are recorded trajectories, rows `kept_sl`
        kept = max(0, min(rows, first + n_kept - start))
        kept_sl = slice(start - first, start - first + kept)
        B = _chunk_width(rows)  # zero pad columns stay zero
        # [Xhat; dW] of this step and the next, alternating
        XW = np.zeros((2, m + d, B))
        XW[0, :m, :rows] = initial.mean[:, None]
        block = np.zeros((m + d, B))  # [Xhat; dW] summed over a record block
        acc, trap = np.zeros(B), np.empty(B)
        c_prev, c_next = np.empty(B), np.empty(B)
        QX, absX = np.empty((m, B)), np.empty((m, B))
        QX_rows = list(QX)

        def quadratic_cost(X, W, trace, out):
            # X' W X + trace for every column X.  The rows of W X * X are
            # added one by one, in the order sum(axis=0) adds them on B >= 8
            # columns, through row views bound once per chunk: that costs
            # less than half of the reduction call
            np.matmul(W, X, out=QX)
            np.multiply(QX, X, out=QX)
            if m == 1:
                np.copyto(out, QX_rows[0])
            else:
                np.add(QX_rows[0], QX_rows[1], out=out)
                for row in QX_rows[2:]:
                    out += row
            out += trace

        def record_row(row, X, n):
            # products run over all B columns, so each recorded column
            # rounds as in a chunk that records them all
            means[kept_sl, row] = X[:, :kept].T
            # -L_n X as the last rows of a GEMM: with one control, a
            # one-row product would go to GEMV, which sums its terms in
            # another order and moves the recorded controls by an ulp
            controls[kept_sl, row] = (np.vstack((np.eye(m), -gains[n])) @ X)[m:, :kept].T
            running[kept_sl, row] = acc[:kept]

        X = XW[0, :m]
        quadratic_cost(X, Q[0], trace_F[0], c_prev)
        if kept:
            record_row(0, X, 0)
        row = 1
        for step, dW in enumerate(noise):
            XW_now, XW_next = XW[step % 2], XW[(step + 1) % 2]
            XW_now[m:] = dW  # gathers the step's column of the noise block
            if kept:
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
            if kept and (step + 1) % stride == 0:
                record_row(row, X, step + 1)
                outputs[kept_sl, row] = ((C_dt @ block[:m])[:, :kept].T
                                         + block[m:, :kept].T)
                innovations[kept_sl, row] = block[m:, :kept].T
                block[:] = 0.0
                row += 1
        quadratic_cost(X, cost.Omega_T, terminal_trace, c_next)
        totals[sl] = (acc + c_next)[:rows]

    _run_chunks(config, d, run_chunk, first=first)
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
    # Welford accumulation in trajectory order
    mean = 0.0
    m2 = 0.0
    for i, x in enumerate(totals, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
    if n == 1:
        return float(mean), float("nan")
    return float(mean), math.sqrt(m2 / (n - 1) / n)
