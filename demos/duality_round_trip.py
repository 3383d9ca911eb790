"""Solve the backward value flow by running its dual filter forward.

Coefficients (A, B, C, N, M) and cost (F, G, Omega_T) map to
(A^T, C^T, B^T, F, G^T) and (N, M^T, Omega_T): regulation data become
estimation data, and the two Riccati solutions coincide after time
reversal.  For the free particle the correspondence also swaps position
with momentum.
"""

import numpy as np

from qlqg import free_particle as fp
from qlqg.control import control_path_via_duality, duality_map
from qlqg.riccati import CostSpec, TimeGrid, integrate_control_riccati
from qlqg.phase_space import LinearCoefficients


def gap(direct, via_dual):
    return np.abs(direct.values - via_dual.values).max()


def main():
    coeffs = fp.feedback_coefficients()
    cost = fp.position_tracking_cost()
    grid = TimeGrid(0.0, 5.0, 1000)

    dual, _ = duality_map(coeffs, cost, permutation=[1, 0])
    print("free particle, regulation side:")
    print(f"  A = {coeffs.A.tolist()}   B^T = {coeffs.B.T.tolist()}")
    print("its estimation dual (coordinates swapped):")
    print(f"  A = {dual.A.tolist()}   C = {dual.C.tolist()}")

    direct = integrate_control_riccati(coeffs, cost, grid)
    roundabout = control_path_via_duality(coeffs, cost, grid, permutation=[1, 0])
    print(f"  route mismatch {gap(direct, roundabout):.2e}")
    print()

    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(10):
        A = 0.5 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        Fh = rng.standard_normal((4, 4))
        Wh = rng.standard_normal((4, 4))
        c = CostSpec(
            F=Fh @ Fh.T,
            G=0.3 * rng.standard_normal((2, 4)),
            Omega_T=Wh @ Wh.T + 0.1 * np.eye(4),
        )
        lc = LinearCoefficients(
            A=A, B=B, C=np.zeros((1, 4)), N=np.eye(4), M=np.zeros((4, 1))
        )
        g = TimeGrid(0.0, 1.0, 500)
        worst = max(
            gap(
                integrate_control_riccati(lc, c, g),
                control_path_via_duality(lc, c, g),
            ),
            worst,
        )
    print(f"10 random four-dimensional systems: worst mismatch {worst:.2e}")


if __name__ == "__main__":
    main()
