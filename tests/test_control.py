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
    control_gain_path,
    control_path_via_duality,
    duality_map,
    hjb_residual,
)
from qlqg.errors import DimensionMismatch, InvalidParameter, ValidationError
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


def random_system(rng, m=4, k=2, d=2):
    """Random coefficients and cost with a finite value function on [0, 1]."""
    A = 0.5 * rng.standard_normal((m, m))
    B = rng.standard_normal((m, k))
    G = 0.2 * rng.standard_normal((k, m))
    Q = 0.5 * rng.standard_normal((m, m))
    W = 0.3 * rng.standard_normal((m, m))
    R = rng.standard_normal((m, m))
    coeffs = LinearCoefficients(A=A, B=B, C=rng.standard_normal((d, m)), N=R @ R.T,
                                M=rng.standard_normal((m, d)))
    # F - G'G >= 0 keeps the running cost bounded below
    cost = CostSpec(F=G.T @ G + Q @ Q.T, G=G, Omega_T=W @ W.T)
    return coeffs, cost


def free_particle_regulator():
    return feedback_coefficients(), CostSpec(F=[[1.0, 0.0], [0.0, 0.0]],
                                             G=[[0.0, 0.0]], Omega_T=np.eye(2))


FIELDS = ["A", "B", "C", "N", "M", "F", "G", "Omega_T"]


def fields(coeffs, cost):
    """The eight arrays of a (coefficients, cost) pair, in FIELDS order."""
    return [coeffs.A, coeffs.B, coeffs.C, coeffs.N, coeffs.M, cost.F, cost.G, cost.Omega_T]


def assert_same_fields(got, want):
    for name, g, w in zip(FIELDS, got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)


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
        coeffs, cost = random_system(np.random.default_rng(1), m=4, k=3, d=2)
        dual = duality_map(coeffs, cost)
        want = [coeffs.A.T, coeffs.C.T, coeffs.B.T, cost.F, cost.G.T,
                coeffs.N, coeffs.M.T, cost.Omega_T]
        assert_same_fields(fields(*dual), want)
        assert (dual[0].k, dual[0].d) == (coeffs.d, coeffs.k)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pair = random_system(rng)
            assert_same_fields(fields(*duality_map(*duality_map(*pair))), fields(*pair))

    def test_permutation_round_trip(self):
        pair = random_system(np.random.default_rng(3))
        perm = [2, 0, 3, 1]
        dual = duality_map(*pair, permutation=perm)
        # applying the map back with the inverse relabelling restores data
        back = duality_map(*dual, permutation=np.argsort(perm))
        assert_same_fields(fields(*back), fields(*pair))

    def test_free_particle_pair_with_coordinate_swap(self):
        # the position-monitored particle and its regulator problem are
        # images of each other once position and momentum are swapped
        measurement = build_coefficients(free_particle_model())
        dual, _ = duality_map(*free_particle_regulator(), permutation=[1, 0])
        np.testing.assert_array_equal(dual.A, measurement.A)
        np.testing.assert_array_equal(dual.C, measurement.C)
        np.testing.assert_array_equal(dual.N, measurement.N)
        np.testing.assert_array_equal(dual.M, np.zeros((2, 1)))

    def test_rejects_bad_permutation(self):
        pair = random_system(np.random.default_rng(4))
        with pytest.raises(InvalidParameter):
            duality_map(*pair, permutation=[0, 1, 1, 2])

    def test_rejects_cost_of_other_shape(self):
        coeffs, cost = random_system(np.random.default_rng(6), m=4, k=2)
        _, other = random_system(np.random.default_rng(6), m=3, k=2)
        with pytest.raises(DimensionMismatch):
            duality_map(coeffs, other)
        _, other = random_system(np.random.default_rng(6), m=4, k=1)
        with pytest.raises(ValidationError, match="controls"):
            duality_map(coeffs, other)


class TestDualRoute:
    def test_random_systems_agree_with_direct_integration(self):
        # the dual's filter lift is the value flow's lift, entry for entry
        rng = np.random.default_rng(9)
        grid = TimeGrid(0.0, 1.0, 1000)
        for _ in range(5):
            coeffs, cost = random_system(rng, m=4, k=2)
            direct = integrate_control_riccati(coeffs, cost, grid)
            dual = control_path_via_duality(coeffs, cost, grid)
            np.testing.assert_array_equal(dual.values, direct.values)

    def test_free_particle_with_swap(self):
        grid = TimeGrid(0.0, 5.0, 5000)
        coeffs, cost = free_particle_regulator()
        direct = integrate_control_riccati(coeffs, cost, grid)
        dual = control_path_via_duality(coeffs, cost, grid, permutation=[1, 0])
        assert np.abs(direct.values - dual.values).max() < 1e-8


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

    @pytest.mark.parametrize("index", [2.5, True, "3", -1])
    def test_non_integer_index_is_invalid(self, index):
        coeffs, cost, grid, Om, Si, al = self.build_paths()
        with pytest.raises(InvalidParameter, match="index"):
            hjb_residual(Om, al, index, np.zeros(2), Si.at(0), coeffs, cost)

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
