"""Reference implementations the tests check the package against.

Each is written the plain way, independent of the coordinate maps the
package steps with: the Lindblad generators in commutator form on
complex matrices, and one master-flow step taken through the public
:func:`qlqg.sme.evolve_master` on a one-step grid.
"""

from __future__ import annotations

import numpy as np

from qlqg.errors import DimensionMismatch, InvalidParameter
from qlqg.phase_space import _positive
from qlqg.riccati import TimeGrid
from qlqg.sme import HERMITICITY_TOL, DensityMatrix, FiniteModel, evolve_master


def lindblad_heisenberg(X, model: FiniteModel, u=None) -> np.ndarray:
    """Heisenberg-picture generator on an observable.

    (i/hbar)[H,X] + sum_i (Li' X Li - (Li'Li X + X Li'Li)/2); the output
    is Hermitized, and pairing with any state matches the state-picture
    generator (adjoint identity).
    """
    n = model.dim
    X = np.asarray(X, dtype=complex)
    if X.shape != (n, n):
        raise DimensionMismatch(f"observable shape {X.shape}, model dim {n}")
    if np.abs(X - X.conj().T).max() > HERMITICITY_TOL:
        raise InvalidParameter("observable is not Hermitian")
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
