"""Free-particle presets against the generic solvers."""

import numpy as np
import pytest

from qlqg.errors import InvalidParameter
from qlqg.phase_space import build_coefficients, free_particle_model
from qlqg.riccati import (
    TimeGrid,
    integrate_control_riccati,
    integrate_filter_riccati,
    lyapunov_unconditional,
    stationary_filter_covariance,
)
from qlqg import free_particle as fp


class TestFeedbackCoefficients:
    def test_default_matrices(self):
        c = fp.feedback_coefficients()
        np.testing.assert_array_equal(c.A, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(c.B, [[0.0], [2.0]])
        np.testing.assert_array_equal(c.C, [[2.0, 0.0]])
        np.testing.assert_array_equal(c.N, [[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(c.M, [[0.0], [0.0]])

    def test_only_control_column_differs_from_model(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mass, hbar = rng.uniform(0.3, 3.0, size=2)
            ours = fp.feedback_coefficients(mass, hbar)
            base = build_coefficients(free_particle_model(mass, hbar))
            np.testing.assert_array_equal(ours.A, base.A)
            np.testing.assert_array_equal(ours.C, base.C)
            np.testing.assert_array_equal(ours.N, base.N)
            np.testing.assert_array_equal(ours.M, base.M)
            np.testing.assert_array_equal(ours.B, 2.0 * base.B)

    def test_bad_parameters(self):
        for kwargs in ({"mass": 0.0}, {"hbar": -1.0}, {"mass": np.inf}, {"hbar": np.inf}):
            with pytest.raises(InvalidParameter):
                fp.feedback_coefficients(**kwargs)


class TestTrackingCost:
    def test_fields(self):
        cost = fp.position_tracking_cost(beta=2.5)
        np.testing.assert_array_equal(cost.F, [[2.5, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(cost.G, np.zeros((1, 2)))
        np.testing.assert_array_equal(cost.Omega_T, np.eye(2))

    def test_custom_terminal_weight(self):
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        cost = fp.position_tracking_cost(Omega_T=W)
        np.testing.assert_array_equal(cost.Omega_T, W)

    def test_negative_beta_rejected(self):
        with pytest.raises(InvalidParameter):
            fp.position_tracking_cost(beta=-0.1)

    @pytest.mark.parametrize("beta", ["x", None, float("nan")])
    def test_junk_beta_rejected(self, beta):
        # read as a real scalar: junk is an InvalidParameter naming beta,
        # not the ValueError or TypeError of float(beta)
        with pytest.raises(InvalidParameter, match="^beta "):
            fp.position_tracking_cost(beta=beta)


class TestStationaryDispersions:
    def test_reference_point(self):
        np.testing.assert_allclose(
            fp.stationary_dispersions(), [[0.5, 0.5], [0.5, 1.0]], atol=1e-15
        )

    def test_matches_stationary_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            mass, hbar = rng.uniform(0.5, 2.0, size=2)
            coeffs = build_coefficients(free_particle_model(mass, hbar))
            numeric = stationary_filter_covariance(coeffs)
            np.testing.assert_allclose(
                numeric, fp.stationary_dispersions(mass, hbar), atol=1e-9
            )

    def test_is_riccati_fixed_point(self):
        # dSigma/dt = A S + S A' + N - (S C' + M)(S C' + M)' must vanish.
        for mass, hbar in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.7, 1.9)]:
            c = fp.feedback_coefficients(mass, hbar)
            S = fp.stationary_dispersions(mass, hbar)
            gain = S @ c.C.T + c.M
            rhs = c.A @ S + S @ c.A.T + c.N - gain @ gain.T
            np.testing.assert_allclose(rhs, 0.0, atol=1e-13)


class TestStationaryValueMatrix:
    def test_reference_point(self):
        np.testing.assert_allclose(
            fp.stationary_value_matrix(), [[1.0, 0.5], [0.5, 0.5]], atol=1e-15
        )
        np.testing.assert_allclose(
            fp.stationary_feedback_gain(), [[1.0, 1.0]], atol=1e-15
        )

    def test_is_backward_fixed_point(self):
        # Omega A + A' Omega + F - (B' Omega + G)'(B' Omega + G) must vanish.
        for beta, mass in [(1.0, 1.0), (4.0, 1.0), (1.0, 2.0), (2.3, 0.6)]:
            c = fp.feedback_coefficients(mass)
            cost = fp.position_tracking_cost(beta)
            W = fp.stationary_value_matrix(beta, mass)
            gain = c.B.T @ W + cost.G
            rhs = W @ c.A + c.A.T @ W + cost.F - gain.T @ gain
            np.testing.assert_allclose(rhs, 0.0, atol=1e-13)

    def test_backward_flow_relaxes_to_it(self):
        c = fp.feedback_coefficients()
        cost = fp.position_tracking_cost(Omega_T=np.diag([3.0, 0.2]))
        grid = TimeGrid(0.0, 40.0, 4000)
        path = integrate_control_riccati(c, cost, grid)
        np.testing.assert_allclose(
            path.at(0), fp.stationary_value_matrix(), atol=1e-8
        )


class TestSpreadCovariance:
    def test_matches_lyapunov_solver(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            G = rng.standard_normal((2, 2))
            Sigma0 = G @ G.T + 0.1 * np.eye(2)
            mass, hbar = rng.uniform(0.5, 2.0, size=2)
            coeffs = build_coefficients(free_particle_model(mass, hbar))
            grid = TimeGrid(0.0, 5.0, 500)
            path = lyapunov_unconditional(coeffs, Sigma0, grid)
            exact = fp.spread_covariance(Sigma0, path.grid.times(), mass, hbar)
            # RK4 integrates cubics exactly; only roundoff remains.
            np.testing.assert_allclose(path.values, exact, atol=1e-10)

    def test_scalar_time_shape(self):
        out = fp.spread_covariance(np.eye(2), 2.0)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out[1, 1], 3.0)

    def test_filter_beats_spreading(self):
        # Monitored dispersions stay pinned while unmonitored ones grow.
        c = fp.feedback_coefficients()
        grid = TimeGrid(0.0, 10.0, 1000)
        Sigma0 = np.diag([2.0, 2.0])
        filtered = integrate_filter_riccati(c, Sigma0, grid)
        free = fp.spread_covariance(Sigma0, 10.0)
        assert filtered.at(-1)[0, 0] < 0.51
        assert free[0, 0] > 300.0

    def test_bad_sigma0(self):
        with pytest.raises(InvalidParameter):
            fp.spread_covariance(np.eye(3), 1.0)
