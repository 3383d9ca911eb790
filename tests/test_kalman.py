"""Mean propagation, gains and innovations."""

import numpy as np
import pytest

from qlqg import GaussianBelief, LinearCoefficients, build_coefficients, free_particle_model
from qlqg.errors import DimensionMismatch, InvalidParameter
from qlqg.kalman import filter_step
from qlqg.riccati import TimeGrid, integrate_filter_riccati


def tracking_coefficients():
    return build_coefficients(free_particle_model())


def random_coefficients(rng, m=4, d=2, k=2):
    N = rng.standard_normal((m, m))
    return LinearCoefficients(
        A=rng.standard_normal((m, m)),
        B=rng.standard_normal((m, k)),
        C=rng.standard_normal((d, m)),
        N=N @ N.T,
        M=rng.standard_normal((m, d)),
    )


class TestRecord:
    def test_validation(self):
        coeffs = tracking_coefficients()
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(InvalidParameter, match="dt must be positive"):
            filter_step(belief, [0.0], [0.1], 0.0, coeffs, np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"dY must have shape \(1,\)"):
            filter_step(belief, [0.0], [[0.1]], 1e-3, coeffs, np.eye(2))


def gain_response(coeffs, Sigma, dY):
    """The step of :func:`filter_step` from a zero mean with no control:
    only the gain term ``(Sigma C' + M) dY`` is left."""
    belief = GaussianBelief(mean=np.zeros(coeffs.m), cov=Sigma)
    return filter_step(belief, np.zeros(coeffs.k), dY, 1e-3, coeffs, Sigma).mean


class TestFilterGain:
    def test_stationary_free_particle_gain(self):
        coeffs = tracking_coefficients()
        Sigma = np.array([[0.5, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(gain_response(coeffs, Sigma, [1.0]), [1.0, 1.0])

    def test_includes_noise_correlation(self):
        rng = np.random.default_rng(5)
        coeffs = random_coefficients(rng)
        Sigma, dY = np.eye(4), rng.standard_normal(2)
        np.testing.assert_allclose(
            gain_response(coeffs, Sigma, dY), (Sigma @ coeffs.C.T + coeffs.M) @ dY,
            rtol=1e-14)


class TestInnovation:
    def test_subtracts_predicted_output(self):
        # an output equal to the prediction C Xhat dt leaves no innovation,
        # so the step is the drift alone: Q += P dt
        coeffs = tracking_coefficients()
        belief = GaussianBelief(mean=[3.0, -1.0], cov=[[0.5, 0.5], [0.5, 1.0]])
        out = filter_step(belief, np.zeros(1), [2.0 * 3.0 * 1e-3], 1e-3, coeffs, belief.cov)
        np.testing.assert_allclose(out.mean, [3.0 - 1e-3, -1.0], rtol=1e-15)

    def test_channel_count_checked(self):
        coeffs = tracking_coefficients()
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"dY must have shape \(1,\), got \(2,\)"):
            filter_step(belief, np.zeros(1), [0.0, 0.0], 1e-3, coeffs, np.eye(2))


class TestFilterStep:
    def test_hand_computed_step(self):
        # stationary covariance, zero mean, single output tick of 0.02
        coeffs = tracking_coefficients()
        belief = GaussianBelief(mean=[0.0, 0.0], cov=[[0.5, 0.5], [0.5, 1.0]])
        out = filter_step(belief, np.zeros(1), [0.02], 1e-3, coeffs, belief.cov)
        np.testing.assert_allclose(out.mean, [0.02, 0.02], atol=1e-15)

    def test_mean_update_is_linear(self):
        # superposition in (mean, dY) at fixed covariance and control
        rng = np.random.default_rng(11)
        coeffs = random_coefficients(rng)
        Sigma = np.eye(4)
        u = np.zeros(2)

        def step(mean, dY):
            belief = GaussianBelief(mean=mean, cov=Sigma)
            return filter_step(belief, u, dY, 1e-3, coeffs, Sigma).mean

        x1, x2 = rng.standard_normal((2, 4))
        y1, y2 = rng.standard_normal((2, 2)) * 0.01
        lhs = step(x1 + x2, y1 + y2)
        rhs = step(x1, y1) + step(x2, y2) - step(np.zeros(4), np.zeros(2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_covariance_ignores_measurement_record(self):
        # two very different records, one covariance sequence
        coeffs = tracking_coefficients()
        grid = TimeGrid(0.0, 0.1, 100)
        path = integrate_filter_riccati(coeffs, np.diag([2.0, 2.0]), grid)
        rng = np.random.default_rng(0)
        records = [rng.standard_normal(100) * 0.03, np.full(100, 0.5)]
        covs = []
        for record in records:
            belief = GaussianBelief(mean=[0.0, 0.0], cov=path.at(0))
            seq = []
            for k, dY in enumerate(record):
                belief = filter_step(belief, np.zeros(1), [dY], grid.dt, coeffs,
                                     path.at(k + 1))
                seq.append(belief.cov)
            covs.append(np.array(seq))
        np.testing.assert_array_equal(covs[0], covs[1])

    def test_innovation_mean_reverts_estimate(self):
        # with dY generated from the model at truth X, the estimate
        # drifts toward the truth on average (contraction of the error)
        rng = np.random.default_rng(21)
        coeffs = tracking_coefficients()
        Sigma = np.array([[0.5, 0.5], [0.5, 1.0]])  # stationary, gain [1, 1]
        dt = 1e-3
        n_paths, n_steps = 100, 150
        X = np.tile(np.array([1.0, 0.0]), (n_paths, 1))   # truth, frozen drift-free
        err0 = None
        Xhat = np.zeros((n_paths, 2))
        for k in range(n_steps):
            dW = rng.standard_normal((n_paths, 1)) * np.sqrt(dt)
            dY = (X @ coeffs.C.T) * dt + dW
            for i in range(n_paths):
                belief = GaussianBelief(mean=Xhat[i], cov=Sigma)
                Xhat[i] = filter_step(belief, np.zeros(1), dY[i], dt, coeffs, Sigma).mean
            if k == 0:
                err0 = np.abs(Xhat.mean(axis=0) - X[0]).max()
        final_err = np.abs(Xhat.mean(axis=0) - X[0]).max()
        assert final_err < err0
