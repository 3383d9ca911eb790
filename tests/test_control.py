"""Gains, duality and value-function verification."""

import io

import numpy as np
import pytest

from qlqg import (
    GaussianBelief, LinearCoefficients, build_coefficients, free_particle_model,
)
from qlqg.cli import gain_path_to_csv
from qlqg.closed_loop import SimConfig, simulate_closed_loop
from qlqg.control import (
    ControlProblem,
    FilterProblem,
    control_gain_path,
    control_path_via_duality,
    duality_map,
    hjb_residual,
)
from qlqg.errors import DimensionMismatch, GridMismatch, InvalidParameter
from qlqg.riccati import (
    CostSpec,
    MatrixPath,
    TimeGrid,
    integrate_alpha,
    integrate_control_riccati,
    integrate_filter_riccati,
)


def feedback_coefficients():
    return LinearCoefficients(
        A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [2.0]], C=[[2.0, 0.0]],
        N=[[0.0, 0.0], [0.0, 1.0]], M=[[0.0], [0.0]])


def random_control_problem(rng, m=4, k=2, horizon=1.0):
    """Random problem with a finite value function on the horizon."""
    A = 0.5 * rng.standard_normal((m, m))
    B = rng.standard_normal((m, k))
    G = 0.2 * rng.standard_normal((k, m))
    Q = 0.5 * rng.standard_normal((m, m))
    F = G.T @ G + Q @ Q.T  # keeps the running cost bounded below
    return ControlProblem(A=A, B=B, F=F, G=G, horizon=horizon)


class TestGainPath:
    def test_stationary_free_particle_gain(self):
        coeffs = feedback_coefficients()
        cost = CostSpec(F=[[1.0, 0.0], [0.0, 0.0]], G=[[0.0, 0.0]], Omega_T=np.eye(2))
        path = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 15.0, 15000))
        gains = control_gain_path(path, coeffs, cost)
        np.testing.assert_allclose(gains.at(0), [[1.0, 1.0]], atol=1e-6)

    def test_matches_pointwise_formula(self):
        rng = np.random.default_rng(8)
        coeffs = feedback_coefficients()
        cost = CostSpec(F=np.eye(2), G=[[0.3, -0.2]], Omega_T=np.eye(2))
        path = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 1.0, 50))
        gains = control_gain_path(path, coeffs, cost)
        for k in (0, 17, 50):
            np.testing.assert_allclose(
                gains.at(k), coeffs.B.T @ path.at(k) + cost.G, atol=1e-14)

    def test_csv_round_trip(self):
        coeffs = feedback_coefficients()
        cost = CostSpec(F=np.eye(2), G=[[0.0, 0.0]], Omega_T=np.eye(2))
        path = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 1.0, 10))
        gains = control_gain_path(path, coeffs, cost)
        buf = io.StringIO()
        gain_path_to_csv(gains, buf)
        buf.seek(0)
        assert buf.readline().strip() == "t,L_00,L_01"
        data = np.loadtxt(buf, delimiter=",")
        np.testing.assert_allclose(data[:, 1:].reshape(-1, 1, 2), gains.gains)


class TestOptimalControl:
    # the certainty-equivalent control -L_t Xhat, as the closed loop forms it;
    # C = M = 0 makes the filter gain zero, so the mean ignores the noise

    cost = CostSpec(F=np.eye(2), G=[[0.0, 0.0]], Omega_T=np.eye(2))
    coeffs = LinearCoefficients(
        A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [2.0]], C=[[0.0, 0.0]],
        N=[[0.0, 0.0], [0.0, 1.0]], M=[[0.0], [0.0]])

    def run(self, **kwargs):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.1, 10), n_traj=1, seed=0, record_stride=10)
        belief = GaussianBelief(mean=[3.0, 4.0], cov=np.eye(2))
        return simulate_closed_loop(self.coeffs, self.cost, cfg, belief, **kwargs)

    def test_hand_value(self):
        ens = self.run()
        gain0 = control_gain_path(ens.Omega_path, self.coeffs, self.cost).at(0)
        np.testing.assert_allclose(ens.controls[0, 0], -gain0 @ [3.0, 4.0], rtol=1e-14)
        # at the horizon the gain is B' Omega_T + G = [0, 2]
        np.testing.assert_allclose(ens.controls[0, -1], [-2.0 * ens.means[0, -1, 1]],
                                   rtol=1e-15)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            self.run(gain_offset=np.zeros((1, 3)))


class TestDualityMap:
    def test_filter_to_control_contents(self):
        rng = np.random.default_rng(1)
        N = rng.standard_normal((4, 4))
        fp = FilterProblem(A=rng.standard_normal((4, 4)),
                           C=rng.standard_normal((2, 4)),
                           N=N @ N.T, M=rng.standard_normal((4, 2)), horizon=2.0)
        cp = duality_map(fp)
        np.testing.assert_array_equal(cp.A, fp.A.T)
        np.testing.assert_array_equal(cp.B, fp.C.T)
        np.testing.assert_array_equal(cp.F, fp.N)
        np.testing.assert_array_equal(cp.G, fp.M.T)
        assert cp.horizon == fp.horizon

    def test_involution_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cp = random_control_problem(rng)
            back = duality_map(duality_map(cp))
            np.testing.assert_array_equal(back.A, cp.A)
            np.testing.assert_array_equal(back.B, cp.B)
            np.testing.assert_array_equal(back.F, cp.F)
            np.testing.assert_array_equal(back.G, cp.G)

    def test_permutation_round_trip(self):
        rng = np.random.default_rng(3)
        cp = random_control_problem(rng)
        perm = [2, 0, 3, 1]
        fp = duality_map(cp, permutation=perm)
        # applying the map back with the inverse relabelling restores data
        cp2 = duality_map(fp, permutation=np.argsort(perm))
        np.testing.assert_allclose(cp2.A, cp.A)
        np.testing.assert_allclose(cp2.B, cp.B)
        np.testing.assert_allclose(cp2.F, cp.F)
        np.testing.assert_allclose(cp2.G, cp.G)

    def test_free_particle_pair_with_coordinate_swap(self):
        # the position-monitored particle and its regulator problem are
        # images of each other once position and momentum are swapped
        measurement = build_coefficients(free_particle_model())
        cp = ControlProblem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [2.0]],
                            F=[[1.0, 0.0], [0.0, 0.0]], G=[[0.0, 0.0]], horizon=5.0)
        fp = duality_map(cp, permutation=[1, 0])
        np.testing.assert_array_equal(fp.A, measurement.A)
        np.testing.assert_array_equal(fp.C, measurement.C)
        np.testing.assert_array_equal(fp.N, measurement.N)
        np.testing.assert_array_equal(fp.M, np.zeros((2, 1)))

    def test_rejects_bad_permutation(self):
        cp = random_control_problem(np.random.default_rng(4))
        with pytest.raises(InvalidParameter):
            duality_map(cp, permutation=[0, 1, 1, 2])

    def test_rejects_unknown_type(self):
        with pytest.raises(InvalidParameter):
            duality_map(object())


class TestDualRoute:
    def test_random_systems_agree_with_direct_integration(self):
        rng = np.random.default_rng(9)
        grid = TimeGrid(0.0, 1.0, 1000)
        for _ in range(5):
            cp = random_control_problem(rng, m=4, k=2, horizon=1.0)
            W = 0.3 * rng.standard_normal((4, 4))
            Omega_T = W @ W.T
            coeffs = LinearCoefficients(A=cp.A, B=cp.B, C=np.zeros((1, 4)),
                                        N=np.zeros((4, 4)), M=np.zeros((4, 1)))
            cost = CostSpec(F=cp.F, G=cp.G, Omega_T=Omega_T)
            direct = integrate_control_riccati(coeffs, cost, grid)
            dual = control_path_via_duality(cp, Omega_T, grid)
            assert np.abs(direct.values - dual.values).max() < 1e-8

    def test_free_particle_with_swap(self):
        grid = TimeGrid(0.0, 5.0, 5000)
        cp = ControlProblem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [2.0]],
                            F=[[1.0, 0.0], [0.0, 0.0]], G=[[0.0, 0.0]], horizon=5.0)
        coeffs = feedback_coefficients()
        cost = CostSpec(F=cp.F, G=cp.G, Omega_T=np.eye(2))
        direct = integrate_control_riccati(coeffs, cost, grid)
        dual = control_path_via_duality(cp, np.eye(2), grid, permutation=[1, 0])
        assert np.abs(direct.values - dual.values).max() < 1e-8

    def test_horizon_must_match_grid(self):
        cp = random_control_problem(np.random.default_rng(5), horizon=2.0)
        with pytest.raises(GridMismatch):
            control_path_via_duality(cp, np.eye(4), TimeGrid(0.0, 1.0, 100))


class TestHjbResidual:
    def build_paths(self):
        coeffs = feedback_coefficients()
        # terminal weight near the stationary value matrix keeps the
        # terminal layer mild enough for the finite-difference stencil
        cost = CostSpec(F=[[1.0, 0.0], [0.0, 0.0]], G=[[0.0, 0.0]],
                        Omega_T=[[1.05, 0.5], [0.5, 0.55]])
        grid = TimeGrid(0.0, 5.0, 5000)
        Om = integrate_control_riccati(coeffs, cost, grid)
        Si = integrate_filter_riccati(coeffs, [[0.6, 0.5], [0.5, 1.1]], grid)
        al = integrate_alpha(Om, Si, coeffs, cost)
        return coeffs, cost, grid, Om, Si, al

    def test_residual_small_on_solution(self):
        coeffs, cost, grid, Om, Si, al = self.build_paths()
        rng = np.random.default_rng(77)
        for _ in range(30):
            k = int(rng.integers(2, grid.n_steps - 1))
            X = rng.uniform(-2.0, 2.0, size=2)
            r = hjb_residual(Om, al, k, X, Si.at(k), coeffs, cost)
            assert abs(r) < 1e-6

    def test_perturbed_value_matrix_breaks_equation(self):
        coeffs, cost, grid, Om, Si, al = self.build_paths()
        bad = MatrixPath(grid=grid, values=Om.values + 0.01 * np.eye(2))
        rng = np.random.default_rng(77)
        worst = max(
            abs(hjb_residual(bad, al, int(rng.integers(2, grid.n_steps - 1)),
                             rng.uniform(-2.0, 2.0, size=2),
                             Si.at(2500), coeffs, cost))
            for _ in range(30)
        )
        assert worst > 1e-3

    def test_boundary_points_use_one_sided_differences(self):
        coeffs, cost, grid, Om, Si, al = self.build_paths()
        X = np.array([1.0, -1.0])
        for k in (0, 1, grid.n_steps - 1, grid.n_steps):
            r = hjb_residual(Om, al, k, X, Si.at(k), coeffs, cost)
            assert np.isfinite(r)
            assert abs(r) < 5e-2  # first-order ends are allowed to be coarse

    def test_index_range_checked(self):
        coeffs, cost, grid, Om, Si, al = self.build_paths()
        with pytest.raises(InvalidParameter):
            hjb_residual(Om, al, grid.n_steps + 1, np.zeros(2), Si.at(0),
                         coeffs, cost)

    def test_minimizer_matches_grid_search(self):
        # the control entering the residual must be the true pointwise
        # minimizer of cost plus mean drift
        rng = np.random.default_rng(13)
        coeffs = feedback_coefficients()
        W = rng.standard_normal((2, 2))
        Omega = W @ W.T
        G = np.array([[0.4, -0.7]])
        X = rng.uniform(-1.5, 1.5, size=2)
        u_star = -(coeffs.B.T @ Omega @ X + G @ X).item()
        cross = (G @ X).item()

        def objective(u):
            return u**2 + 2.0 * u * cross + (coeffs.B[:, 0] * u) @ (2.0 * Omega @ X)

        grid_u = np.linspace(u_star - 1.0, u_star + 1.0, 4001)
        best = grid_u[np.argmin([objective(u) for u in grid_u])]
        assert abs(best - u_star) <= (grid_u[1] - grid_u[0])
