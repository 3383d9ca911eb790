"""Reference implementations the tests check the package against.

Each is written the plain way, independent of the coordinate maps the
package steps with: the Lindblad generators in commutator form on
complex matrices, one master-flow step taken through the public
:func:`qlqg.sme.evolve_master` on a one-step grid, a trajectory's noise
as one plain numpy draw of its stream, and the closed loop's Euler
scheme and the loop run on it, one step at a time.
"""

from __future__ import annotations

import math

import numpy as np

from qlqg._readers import _positive, _symmetrize
from qlqg.control import control_gain_path
from qlqg.errors import DimensionMismatch
from qlqg.riccati import TimeGrid, integrate_control_riccati, integrate_filter_riccati
from qlqg.sme import DensityMatrix, FiniteModel, evolve_master


def lindblad_heisenberg(X, model: FiniteModel, u=None) -> np.ndarray:
    """Heisenberg-picture generator on an observable.

    (i/hbar)[H,X] + sum_i (Li' X Li - (Li'Li X + X Li'Li)/2) on the exact
    Hermitian part of ``X``; the output is Hermitized, and pairing with
    any state matches the state-picture generator (adjoint identity).
    """
    n = model.dim
    X = np.asarray(X, dtype=complex)
    if X.shape != (n, n):
        raise DimensionMismatch(f"observable shape {X.shape}, model dim {n}")
    X = _symmetrize(X, "observable")
    H = model.hamiltonian(u)
    out = (1j / model.hbar) * (H @ X - X @ H)
    for L in model.L_list:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL)
    return 0.5 * (out + out.conj().T)


def lindblad_schrodinger(rho, model: FiniteModel, u=None) -> np.ndarray:
    """State-picture generator, the adjoint of :func:`lindblad_heisenberg`.

    -(i/hbar)[H,rho] + sum_i (Li rho Li' - (Li'Li rho + rho Li'Li)/2).
    Operates on raw arrays so flows can stay unnormalized mid-scheme.
    """
    n = model.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise DimensionMismatch(f"state shape {rho.shape}, model dim {n}")
    H = model.hamiltonian(u)
    out = (-1j / model.hbar) * (H @ rho - rho @ H)
    for L in model.L_list:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def master_step(rho: DensityMatrix, model: FiniteModel, u, dt: float) -> DensityMatrix:
    """One RK4 step of the unconditional flow: :func:`evolve_master` over
    one step of ``dt``."""
    grid = TimeGrid(0.0, _positive(dt, "dt"), 1)
    return DensityMatrix(evolve_master(rho, model, grid, u)[1][-1])


def trajectory_noise(seed: int, index: int, n_steps: int, d: int,
                     dt: float) -> np.ndarray:
    """The (n_steps, d) Wiener increments of trajectory ``index`` of
    ``seed``: column ``index % 8`` of one bulk draw of shape (n_steps, d,
    8) from numpy's SFC64 seeded by ``SeedSequence(seed,
    spawn_key=(index // 8,))``, the stream its block of 8 trajectories
    shares, times sqrt(dt)."""
    stream = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(index // 8,))))
    return stream.standard_normal((n_steps, d, 8))[:, :, index % 8] * math.sqrt(dt)


def scheme_step(coeffs, cost, gains, Sigma, n: int):
    """``(Phi_n, K_n, Q_n)`` of the closed loop's Euler scheme at step
    ``n``: ``Phi_n = I + (A - B L_n) dt`` and ``K_n = Sigma_n C' + M``
    move ``Xhat_n`` to ``Xhat_{n+1} = Phi_n Xhat_n + K_n dW_n``, and
    ``Q_n = F - L_n'G - G'L_n + L_n'L_n`` weighs ``Xhat_n`` in the running
    cost, for the (n_points, k, m) gains ``L_n`` and the covariance path
    ``Sigma`` on the loop's grid."""
    Ln = gains[n]
    Phi = np.eye(coeffs.m) + (coeffs.A - coeffs.B @ Ln) * Sigma.grid.dt
    K = Sigma.values[n] @ coeffs.C.T + coeffs.M
    Q = cost.F - Ln.T @ cost.G - cost.G.T @ Ln + Ln.T @ Ln
    return Phi, K, Q


def closed_loop_steps(coeffs, cost, config, initial) -> dict:
    """The closed loop of :func:`qlqg.closed_loop.simulate_closed_loop`,
    one step at a time, for the trajectories of ``config``.

    Each step is ``Xhat <- [Phi_n | K_n] @ [Xhat; dW]`` with the maps of
    :func:`scheme_step`, on each trajectory's :func:`trajectory_noise`;
    the running cost ``Xhat' Q_n Xhat + tr(F Sigma_n)`` is summed by
    trapezoid step by step, and increments are summed over each record
    interval.  Returns the ensemble's fields by name, trajectory first.
    """
    grid, d = config.grid, coeffs.d
    n, dt, stride = grid.n_steps, grid.dt, config.record_stride
    Sigma = integrate_filter_riccati(coeffs, initial.cov, grid)
    Omega = integrate_control_riccati(coeffs, cost, grid)
    gains = control_gain_path(Omega, coeffs, cost).gains
    dW = np.stack([trajectory_noise(config.seed, i, n, d, dt)
                   for i in range(config.n_traj)], axis=-1)

    def rate(X, step):
        Q = scheme_step(coeffs, cost, gains, Sigma, step)[2]
        return np.einsum("it,ij,jt->t", X, Q, X) + np.trace(cost.F @ Sigma.values[step])

    X = np.repeat(initial.mean[:, None], config.n_traj, axis=1)
    acc, c = np.zeros(config.n_traj), rate(X, 0)
    rec = {"means": [X], "controls": [-gains[0] @ X], "running_costs": [acc],
           "outputs": [np.zeros((d, config.n_traj))],
           "innovations": [np.zeros((d, config.n_traj))]}
    Xsum, Wsum = np.zeros_like(X), np.zeros((d, config.n_traj))
    for step in range(n):
        Phi, K, _ = scheme_step(coeffs, cost, gains, Sigma, step)
        Xsum, Wsum = Xsum + X, Wsum + dW[step]
        X = np.hstack([Phi, K]) @ np.vstack([X, dW[step]])
        c_next = rate(X, step + 1)
        acc = acc + 0.5 * dt * (c + c_next)
        c = c_next
        if (step + 1) % stride == 0:
            rec["means"].append(X)
            rec["controls"].append(-gains[step + 1] @ X)
            rec["running_costs"].append(acc)
            rec["outputs"].append(coeffs.C @ Xsum * dt + Wsum)
            rec["innovations"].append(Wsum)
            Xsum, Wsum = np.zeros_like(X), np.zeros_like(Wsum)
    terminal = np.einsum("it,ij,jt->t", X, cost.Omega_T, X) + np.trace(
        cost.Omega_T @ Sigma.final)
    out = {name: np.moveaxis(np.array(rows), -1, 0) for name, rows in rec.items()}
    out["total_costs"] = acc + terminal
    return out
