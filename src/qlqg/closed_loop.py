"""Monte Carlo simulation of the innovations-driven feedback loop.

The loop is simulated in innovations representation: the innovation
increments are exogenous Wiener draws, which is exact for the
conditional dynamics and sidesteps any notion of a hidden point state.
Trajectories run through :mod:`qlqg.ensemble`'s chunk loop: each owns
the SFC64 stream of ``(seed, trajectory index)``, and a chunk is
held one trajectory per column in a multiple of 8 columns, so a
trajectory's results do not depend on ``n_traj`` or on the chunk that
carries it.

Under certainty-equivalent feedback the Euler step is linear, so the
states after L consecutive steps are one product of a block map with
the state before them and the L steps' increments.  The block maps of a
256-step noise window are built when the window is drawn, and one GEMM
steps a whole chunk L steps; running costs, the trapezoid sum and the
escape check then run once per block.  Memory does not grow with
``n_steps`` beyond the per-step covariance and gain paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._readers import _asarray, _count, _fits_in_memory, _frozen
from .control import control_gain_path
from .ensemble import _BLOCK, _at, _chunk_width, _noise_blocks, _run_chunks, SimConfig
from .errors import EmptyEnsemble, InvalidParameter, NonFinite
from .phase_space import GaussianBelief, LinearCoefficients
from .riccati import (
    ESCAPE_LIMIT,
    CostSpec,
    MatrixPath,
    _cumulative_trapezoid,
    integrate_control_riccati,
    integrate_filter_riccati,
    total_minimal_cost,
)

__all__ = [
    "TrajectoryRecord",
    "ClosedLoopEnsemble",
    "simulate_closed_loop",
    "monte_carlo_expected_cost",
    "expected_cost_z",
]

#: entries of one block map at most; sets the steps per product
_MAP_ENTRIES = 2**9


def _steps_per_product(m: int, d: int) -> int:
    """Steps L that one product advances a chunk, for m states and d
    channels.

    The block map of L steps is (L m, L d + m): a product costs
    m (L d + m) multiply-adds per trajectory-step against m (d + m) for
    one step at a time, and a chunk holds about 2 L (m + d) rows of
    per-block buffers, while the dozen numpy calls of a step are paid
    once per L steps.  L is the largest power of two whose map has at
    most ``_MAP_ENTRIES`` entries: 8 steps at m = 2, d = 1, one step
    once m (m + 2 d) passes 256.  A power of two up to ``_BLOCK``
    divides the noise window, so no block straddles two windows.
    """
    L = 1
    while 2 * L <= _BLOCK and 2 * L * m * (m + 2 * L * d) <= _MAP_ENTRIES:
        L *= 2
    return L


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
    Under certainty-equivalent feedback ``u = -L_n Xhat`` the step is
    linear: ``Xhat_{n+1} = Phi_n Xhat_n + K_n dW_n`` with
    ``Phi_n = I + (A - B L_n) dt`` and the filter gain ``K_n``, and the
    running cost is ``Xhat' Q_n Xhat + tr(F Sigma_n)`` with
    ``Q_n = F - L_n'G - G'L_n + L_n'L_n``.  So the states of the L steps
    from s are one product::

        [Xhat_{s+1}; ...; Xhat_{s+L}] = T_s [dW_s; ...; dW_{s+L-1}; Xhat_s]

    with T_s block lower-triangular: row block j holds
    ``Phi_{s+j}...Phi_s`` against ``Xhat_s`` and
    ``Phi_{s+j}...Phi_{i+1} K_i`` against ``dW_i``.  L is set by the
    model's dimensions alone (:func:`_steps_per_product`) and divides
    the 256-step noise window; a window's T_s and Q_n are built when it
    is drawn, its short last block padded with identity steps.  A block
    of L steps is then one GEMM on the chunk, one max/min check of every
    state it made against the escape limit, which looks back to name
    the first failing step and the lowest failing trajectory in it, as
    a check after every step would, one batched Q_n product and multiply
    for its running costs, and one product of trapezoid weights that
    adds them to the cost integral.  The trace term is the same in every
    trajectory and is integrated once.  Controls and outputs are formed
    only at recorded steps.

    Trajectories are processed in fixed-size chunks, one after another.
    Every trajectory owns its own SFC64 stream, seeded by ``(seed,
    index)``, and lands in a preallocated slot, and its arithmetic does
    not depend on the chunk it shares, so results are bit-identical for
    any ``n_traj``: trajectory i is the same in every ensemble of the
    seed that holds it.
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
    dt = grid.dt
    stride = config.record_stride
    n_rec = config.n_records
    L = _steps_per_product(m, d)
    # a block's noise rows, then its start state: the columns of T_s
    Ld = L * d

    def running_weights(G):
        # Q_n of the gains G_n, one per row
        LtG = G.swapaxes(1, 2) @ cost.G
        return cost.F - LtG - LtG.swapaxes(1, 2) + G.swapaxes(1, 2) @ G

    # the maps of one noise window's blocks, rebuilt when a window is
    # drawn: T_s, and Q_n of the states after each step
    n_blocks = _BLOCK // L
    T = np.zeros((n_blocks, L, m, Ld + m))
    Q = np.zeros((_BLOCK, m, m))

    def window_maps(s0: int, width: int) -> None:
        # steps s0..s0+width-1; the steps that pad the last block are
        # identity steps with no noise and no cost
        Phi = np.tile(np.eye(m), (_BLOCK, 1, 1))
        K = np.zeros((_BLOCK, m, d))
        span, after = slice(s0, s0 + width), slice(s0 + 1, s0 + width + 1)
        Phi[:width] += (coeffs.A - coeffs.B @ gains[span]) * dt
        K[:width] = np.matmul(Sigma_path.values[span], coeffs.C.T) + coeffs.M
        Q[:width] = running_weights(gains[after])
        Q[width:] = 0.0
        Phi, K = Phi.reshape(n_blocks, L, m, m), K.reshape(n_blocks, L, m, d)
        T[:, 0, :, :d] = K[:, 0]
        T[:, 0, :, Ld:] = Phi[:, 0]
        for j in range(1, L):
            np.matmul(Phi[:, j], T[:, j - 1], out=T[:, j])
            T[:, j, :, j * d:(j + 1) * d] = K[:, j]

    T_blocks = T.reshape(n_blocks, L * m, Ld + m)
    Q_blocks = Q.reshape(n_blocks, L, m, m)
    # the running cost's tr(F Sigma_n) is the same in every trajectory:
    # its trapezoid integral up to each step is added to the quadratic
    # part's where a cost is read out
    trace_F = np.einsum("ab,tba->t", cost.F, Sigma_path.values)
    trace_integral = _cumulative_trapezoid(trace_F, dt)
    terminal_trace = float(np.trace(cost.Omega_T @ Sigma_path.final))
    Q0 = running_weights(gains[:1])[0]
    # row j: the trapezoid weights over the first j steps of a block of
    # the rows of Q_n Xhat * Xhat at its start and after each step, whose
    # sum over a state's m rows is the state's quadratic cost
    trapezoid = np.zeros((L + 1, L + 1))
    for j in range(1, L + 1):
        trapezoid[j, :j + 1] = dt
        trapezoid[j, [0, j]] = 0.5 * dt
    trapezoid = np.repeat(trapezoid, m, axis=1)
    C_dt = coeffs.C * dt

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
        # [dW_s; ...; dW_{s+L-1}; Xhat_s; Xhat_{s+1}; ...; Xhat_{s+L}]: the
        # first Ld + m rows are a block's product input, the last L m its
        # output, and the L + 1 states from Xhat_s are rows Ld on
        U = np.zeros((Ld + (L + 1) * m, B))
        U[Ld:Ld + m, :rows] = initial.mean[:, None]
        Z, states, Y = U[:Ld + m], U[Ld:], U[Ld + m:]
        Y3 = Y.reshape(L, m, B)
        # Q_n Xhat * Xhat at the block's L + 1 states: row block j sums to
        # Xhat' Q_n Xhat after the block's first j steps, the running-cost
        # rate less its trace
        QY = np.zeros((L + 1, m, B))
        costs = QY.reshape((L + 1) * m, B)
        # the integral of the quadratic part of the running cost
        acc = np.zeros(B)
        # [Xhat; dW] summed over the steps of a record interval
        sums = np.zeros((m + d, B) if kept else (0, 0))

        def weighted(W, X, out):
            # W X * X for a state or a stack of states X
            np.matmul(W, X, out=out)
            out *= X

        def record_row(row, j, n, cost_integral):
            # the state after the block's first j steps, step n; products
            # run over all B columns, so each recorded column rounds as in
            # a chunk that records them all
            X = states[j * m:(j + 1) * m]
            means[kept_sl, row] = X[:, :kept].T
            # -L_n X as the last rows of a GEMM: with one control, a
            # one-row product would go to GEMV, which sums its terms in
            # another order and moves the recorded controls by an ulp
            controls[kept_sl, row] = (np.vstack((np.eye(m), -gains[n])) @ X)[m:, :kept].T
            running[kept_sl, row] = cost_integral[:kept]

        def add_steps(a, b):
            # the states before steps a..b-1 of the block and their noise
            if b > a:
                sums[:m] += states[a * m:b * m].reshape(b - a, m, B).sum(axis=0)
                sums[m:] += U[a * d:b * d].reshape(b - a, d, B).sum(axis=0)

        weighted(Q0, Z[Ld:], QY[0])
        if kept:
            record_row(0, 0, 0, acc)
        row = 1
        # a block's noise rows go step-major into the first rows of U
        for s, w in _noise_blocks(config, noise, U, d, L):
            if s % _BLOCK == 0:
                window_maps(s, min(_BLOCK, grid.n_steps - s))
            b = s % _BLOCK // L
            if w < L:
                U[w * d:Ld] = 0.0
            np.matmul(T_blocks[b], Z, out=Y)
            if not (Y.max() <= ESCAPE_LIMIT and Y.min() >= -ESCAPE_LIMIT):
                # the first failing step, and its lowest failing column
                bad = ~(np.abs(Y3[:, :, :rows]) <= ESCAPE_LIMIT).all(axis=1)
                j, i = divmod(int(np.argmax(bad)), rows)
                raise NonFinite(f"posterior mean passed {ESCAPE_LIMIT:.0e} in "
                                f"{_at(config, start + i, s + j + 1)}")
            weighted(Q_blocks[b], Y3, QY[1:])
            if kept:
                done = 0
                for j in range(stride - s % stride, w + 1, stride):
                    add_steps(done, j)
                    outputs[kept_sl, row] = ((C_dt @ sums[:m])[:, :kept].T
                                             + sums[m:, :kept].T)
                    innovations[kept_sl, row] = sums[m:, :kept].T
                    record_row(row, j, s + j,
                               acc + trapezoid[j] @ costs + trace_integral[s + j])
                    sums[:] = 0.0
                    row, done = row + 1, j
                add_steps(done, w)
            acc += trapezoid[w] @ costs
            QY[0] = QY[w]
            states[:m] = states[w * m:(w + 1) * m]
        weighted(cost.Omega_T, states[:m], QY[0])
        terminal = QY[0].sum(axis=0) + (terminal_trace + trace_integral[-1])
        totals[sl] = (acc + terminal)[:rows]
        # a cost that overflowed while every state stayed in range
        if not np.isfinite(totals[sl]).all():
            i = int(np.argmin(np.isfinite(totals[sl])))
            raise NonFinite(f"total cost is not finite in "
                            f"{_at(config, start + i, grid.n_steps)}")

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


def expected_cost_z(
    ensemble: ClosedLoopEnsemble,
    initial: GaussianBelief,
    coeffs: LinearCoefficients,
    cost: CostSpec,
) -> tuple[float, float, float, float]:
    """The analytic expected cost of the loop an ensemble ran, and its
    Monte Carlo estimate against it: ``(analytic, mean, stderr, z)``.

    ``analytic`` is :func:`total_minimal_cost` on the ensemble's own
    covariance and value flows, ``mean`` and ``stderr`` are
    :func:`monte_carlo_expected_cost`'s, and ``z = (mean - analytic) /
    stderr``, NaN when the standard error is zero or NaN.
    """
    analytic = total_minimal_cost(initial.mean, initial.cov, ensemble.Omega_path,
                                  ensemble.Sigma_path, coeffs, cost)
    mean, stderr = monte_carlo_expected_cost(ensemble)
    z = (mean - analytic) / stderr if stderr and np.isfinite(stderr) else float("nan")
    return analytic, mean, stderr, z
