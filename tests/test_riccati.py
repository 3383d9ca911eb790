"""Riccati, Lyapunov and cost-term integration."""

import io
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qlqg import LinearCoefficients, build_coefficients, free_particle_model, riccati
from qlqg.cli import matrix_path_to_csv
from qlqg.control import ControlGainPath
from qlqg.errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    InvalidParameter,
    NoConvergence,
    NonFinite,
    UncertaintyViolation,
    ValidationError,
)
from qlqg.riccati import (
    CostSpec,
    MatrixPath,
    ScalarPath,
    TimeGrid,
    integrate_alpha,
    integrate_control_riccati,
    integrate_filter_riccati,
    lyapunov_unconditional,
    stationary_filter_covariance,
    total_minimal_cost,
    _filter_lift,
    _lift_powers,
)
from qlqg.phase_space import UNCERTAINTY_TOL

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def tracking_coefficients(mass=1.0, hbar=1.0):
    """Measurement-side free-particle coefficients."""
    return build_coefficients(free_particle_model(mass=mass, hbar=hbar))


def feedback_coefficients():
    """Free-particle coefficients with the control input that the
    filtering/control correspondence produces (input column [0, 2])."""
    return LinearCoefficients(
        A=[[0.0, 1.0], [0.0, 0.0]],
        B=[[0.0], [2.0]],
        C=[[2.0, 0.0]],
        N=[[0.0, 0.0], [0.0, 1.0]],
        M=[[0.0], [0.0]],
    )


def quadratic_cost(beta=1.0):
    return CostSpec(F=[[beta, 0.0], [0.0, 0.0]], G=[[0.0, 0.0]], Omega_T=np.eye(2))


def stationary_dispersions(mass, hbar):
    return np.array([
        [0.5 * np.sqrt(hbar / mass), 0.5 * hbar],
        [0.5 * hbar, hbar * np.sqrt(hbar * mass)],
    ])


class TestTimeGrid:
    def test_spacing_and_endpoints(self):
        grid = TimeGrid(0.0, 2.0, 4)
        assert grid.dt == pytest.approx(0.5)
        np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.n_points == 5

    def test_rejects_bad_intervals(self):
        with pytest.raises(InvalidParameter):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(InvalidParameter):
            TimeGrid(0.0, 1.0, 0)
        for t0, t1 in [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0)]:
            with pytest.raises(InvalidParameter):
                TimeGrid(t0, t1, 10)
        # an infinite step ends every flow in NonFinite, a zero one never
        # moves them while the times advance
        for t0, t1, n_steps in [(-1e308, 1e308, 2), (0.0, 5e-324, 10)]:
            with pytest.raises(InvalidParameter, match="grid step dt"):
                TimeGrid(t0, t1, n_steps)
        with pytest.raises(InvalidParameter, match="n_steps"):
            TimeGrid(0.0, 1.0, 10 ** 400)

    @pytest.mark.filterwarnings("error")
    def test_narrow_integers_are_read_as_int(self):
        grid = TimeGrid(0, 1, np.int8(127))
        assert type(grid.n_steps) is int
        assert grid.n_points == 128
        grid = TimeGrid(0.0, 1.0, 1000)
        np.testing.assert_array_equal(grid.times(np.int8(100)), grid.times(100))
        for stride in (0, "x", 2.0):
            with pytest.raises(InvalidParameter, match="stride"):
                grid.times(stride)


class TestCostSpec:
    def test_rejects_indefinite_weights(self):
        with pytest.raises(ValidationError):
            CostSpec(F=-np.eye(2), G=np.zeros((1, 2)), Omega_T=np.eye(2))
        with pytest.raises(ValidationError):
            CostSpec(F=np.eye(2), G=np.zeros((1, 2)), Omega_T=-np.eye(2))

    def test_rejects_shape_mismatch(self):
        # a shape error is a DimensionMismatch, as everywhere else
        for G in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(DimensionMismatch, match=r"^G must have shape \(any, 2\)"):
                CostSpec(F=np.eye(2), G=G, Omega_T=np.eye(2))
        with pytest.raises(DimensionMismatch, match="^F must be square"):
            CostSpec(F=np.zeros((2, 3)), G=np.zeros((1, 2)), Omega_T=np.eye(2))


class TestFilterRiccati:
    def test_matches_component_oracle(self):
        # independent check: same flow written as three scalar ODEs,
        # integrated by an adaptive RK45 at tight tolerance
        coeffs = tracking_coefficients()
        grid = TimeGrid(0.0, 1.0, 1000)
        path = integrate_filter_riccati(coeffs, np.diag([2.0, 2.0]), grid)

        def rhs(t, y):
            sq, sqp, sp = y
            return [2 * sqp - 4 * sq**2, sp - 4 * sq * sqp, 1 - 4 * sqp**2]

        sol = solve_ivp(rhs, (0.0, 1.0), [2.0, 0.0, 2.0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for k in (250, 500, 1000):
            t = grid.times()[k]
            sq, sqp, sp = sol.sol(t)
            np.testing.assert_allclose(
                path.at(k), [[sq, sqp], [sqp, sp]], atol=1e-8)

    def test_long_run_reaches_stationary_point(self):
        coeffs = tracking_coefficients()
        grid = TimeGrid(0.0, 20.0, 20000)
        path = integrate_filter_riccati(coeffs, np.diag([2.0, 2.0]), grid,
                                        uncertainty=(J2, 1.0))
        np.testing.assert_allclose(path.final, stationary_dispersions(1.0, 1.0),
                                   atol=1e-6)

    def test_path_is_symmetric(self):
        coeffs = tracking_coefficients(mass=2.0, hbar=1.5)
        path = integrate_filter_riccati(coeffs, np.eye(2), TimeGrid(0.0, 3.0, 3000))
        asym = np.abs(path.values - np.transpose(path.values, (0, 2, 1))).max()
        assert asym == 0.0

    def test_rejects_unphysical_start(self):
        coeffs = tracking_coefficients()
        with pytest.raises(UncertaintyViolation):
            integrate_filter_riccati(coeffs, 0.1 * np.eye(2),
                                     TimeGrid(0.0, 1.0, 100), uncertainty=(J2, 1.0))

    def test_detects_bound_violation_along_path(self):
        # deliberately unphysical data: pure contraction with no noise
        # floor drives the covariance below any uncertainty bound
        coeffs = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                    C=2.0 * np.eye(2), N=np.zeros((2, 2)),
                                    M=np.zeros((2, 2)))
        with pytest.raises(UncertaintyViolation, match="at t="):
            integrate_filter_riccati(coeffs, np.eye(2), TimeGrid(0.0, 2.0, 2000),
                                     uncertainty=(J2, 1.0))

    def test_bound_violation_names_the_first_failing_time(self):
        # the closed-form margin fails first where eigvalsh does
        coeffs = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                    C=2.0 * np.eye(2), N=np.zeros((2, 2)),
                                    M=np.zeros((2, 2)))
        grid = TimeGrid(0.0, 2.0, 2000)
        path = integrate_filter_riccati(coeffs, np.eye(2), grid)
        low = np.linalg.eigvalsh(path.values + 0.5j * J2)[:, 0]
        first = int(np.argmax(low < UNCERTAINTY_TOL))
        with pytest.raises(UncertaintyViolation,
                           match=f"at t={grid.times()[first]:.6g} "):
            integrate_filter_riccati(coeffs, np.eye(2), grid, uncertainty=(J2, 1.0))

    def test_bound_reads_j_and_hbar_once(self):
        # the path's check uses what the start's check read, not the raw input
        coeffs, grid = tracking_coefficients(), TimeGrid(0.0, 1.0, 100)
        raw = integrate_filter_riccati(coeffs, np.eye(2), grid, uncertainty=(J2.tolist(), "1.0"))
        read = integrate_filter_riccati(coeffs, np.eye(2), grid, uncertainty=(J2, 1.0))
        np.testing.assert_array_equal(raw.values, read.values)

    def test_classical_flow_skips_bound(self):
        coeffs = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                    C=2.0 * np.eye(2), N=np.zeros((2, 2)),
                                    M=np.zeros((2, 2)))
        path = integrate_filter_riccati(coeffs, np.eye(2), TimeGrid(0.0, 2.0, 2000))
        assert np.abs(path.final).max() < 1.0

    @pytest.mark.parametrize("n_steps", [1000, 10, 3])
    @pytest.mark.parametrize("diag", [(-1.0, -1.0), (-1.0, -2.0)])
    def test_pole_pair_between_grid_points_detected(self, diag, n_steps):
        # S' = -4 S^2 from a negative start escapes at t = 1/(4|s0|) in
        # both directions; two poles inside one step leave det X positive
        coeffs = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                    C=2.0 * np.eye(2), N=np.zeros((2, 2)),
                                    M=np.zeros((2, 2)))
        with pytest.raises(NonFinite):
            integrate_filter_riccati(coeffs, np.diag(diag), TimeGrid(0.0, 1.0, n_steps))

    def test_order_of_convergence(self):
        coeffs = tracking_coefficients()
        S0 = np.diag([2.0, 2.0])
        errors = []
        steps = [100, 200, 400]
        for n in steps:
            coarse = integrate_filter_riccati(coeffs, S0, TimeGrid(0.0, 1.0, n))
            fine = integrate_filter_riccati(coeffs, S0, TimeGrid(0.0, 1.0, 16 * n))
            errors.append(np.abs(coarse.final - fine.final).max())
        slope = np.polyfit(np.log([1.0 / n for n in steps]), np.log(errors), 1)[0]
        assert slope >= 3.5

    @pytest.mark.parametrize("n", [1000, 200, 100, 50])
    def test_restart_point_does_not_matter(self, n):
        # the stepper re-anchors the lift [X; Y] at [I; Sigma] block by
        # block; splitting the run elsewhere must give the same path,
        # down to coarse grids where the lift's powers grow fast
        rng = np.random.default_rng(7)
        Nh = rng.standard_normal((3, 3))
        coeffs = LinearCoefficients(A=rng.standard_normal((3, 3)), B=np.zeros((3, 1)),
                                    C=rng.standard_normal((2, 3)),
                                    N=Nh @ Nh.T + np.eye(3), M=np.zeros((3, 2)))
        full = integrate_filter_riccati(coeffs, np.eye(3), TimeGrid(0.0, 20.0, n))
        k = int(0.37 * n)
        t_k = full.grid.times()[k]
        head = integrate_filter_riccati(coeffs, np.eye(3), TimeGrid(0.0, t_k, k))
        tail = integrate_filter_riccati(coeffs, head.final, TimeGrid(t_k, 20.0, n - k))
        split = np.concatenate([head.values, tail.values[1:]])
        assert np.abs(split - full.values).max() <= 1e-12 * np.abs(full.values).max()


def scaled_particle(s):
    """The free particle measured ``s`` times as strongly: C s and N s^2."""
    c = tracking_coefficients()
    return LinearCoefficients(A=c.A, B=c.B, C=s * c.C, N=s * s * c.N, M=s * c.M)


def random_filter():
    """The random 3-state filter of the restart test."""
    rng = np.random.default_rng(7)
    Nh = rng.standard_normal((3, 3))
    return LinearCoefficients(A=rng.standard_normal((3, 3)), B=np.zeros((3, 1)),
                              C=rng.standard_normal((2, 3)),
                              N=Nh @ Nh.T + np.eye(3), M=np.zeros((3, 2)))


def oscillator(c):
    """The undamped oscillator, its position read with strength ``c``."""
    return LinearCoefficients(A=[[0.0, 1.0], [-1.0, 0.0]], B=np.zeros((2, 1)),
                              C=[[c, 0.0]], N=np.eye(2), M=np.zeros((2, 1)))


class TestBlockRule:
    @pytest.mark.parametrize("s, shortest", [(1, 256), (10, 64), (100, 6)])
    def test_block_length_does_not_shrink_with_units(self, s, shortest):
        # the former rule, ending a block at the first entry of 2, gave
        # 64-, 6- and 1-step blocks here; dt rho(H) is 0.14 at s = 100
        powers = _lift_powers(_filter_lift(scaled_particle(s)), 1e-3, 20000)
        assert len(powers) >= shortest

    def test_block_never_longer_than_the_grid(self):
        powers = _lift_powers(_filter_lift(tracking_coefficients()), 1e-3, 10)
        assert len(powers) == 10

    def test_powers_stack_stays_within_its_entries(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((8, 8))
        coeffs = LinearCoefficients(A=np.zeros((8, 8)), B=np.zeros((8, 1)),
                                    C=1e-3 * rng.standard_normal((1, 8)),
                                    N=W @ W.T, M=np.zeros((8, 1)))
        powers = _lift_powers(_filter_lift(coeffs), 1e-6, 20000)
        assert powers.size <= riccati._POWER_ENTRIES
        assert len(powers) == riccati._POWER_ENTRIES // 16**2

    # (coefficients, start, grid, deviation of the former rule): the
    # former rule ended a block at the first power with an entry of 2, or
    # after 64 steps; 0 where it re-anchored at every step already
    @pytest.mark.parametrize("coeffs, S0, grid, former", [
        (scaled_particle(1), np.eye(2), TimeGrid(0.0, 4.0, 4000), 6.5e-14),
        (scaled_particle(10), np.eye(2), TimeGrid(0.0, 4.0, 4000), 7.4e-15),
        (scaled_particle(100), np.eye(2), TimeGrid(0.0, 4.0, 4000), 0.0),
        (random_filter(), np.eye(3), TimeGrid(0.0, 20.0, 50), 0.0),
        (random_filter(), np.eye(3), TimeGrid(0.0, 20.0, 200), 1.3e-9),
        (random_filter(), np.eye(3), TimeGrid(0.0, 20.0, 1000), 1.7e-15),
        (random_filter(), np.eye(3), TimeGrid(0.0, 20.0, 5000), 6.4e-15),
        (random_filter(), np.eye(3), TimeGrid(0.0, 20.0, 20000), 2.2e-14),
        (oscillator(0.0), np.eye(2), TimeGrid(0.0, 100.0, 10000), 2.9e-13),
        (oscillator(1e-3), np.eye(2), TimeGrid(0.0, 100.0, 10000), 1.2e-13),
    ], ids=["particle-1", "particle-10", "particle-100", "random-50",
            "random-200", "random-1000", "random-5000", "random-20000",
            "oscillator-unread", "oscillator-read"])
    def test_matches_one_step_reanchoring(self, monkeypatch, coeffs, S0, grid, former):
        blocked = integrate_filter_riccati(coeffs, S0, grid).values
        # a one-entry cap leaves one power per block: re-anchor every step
        monkeypatch.setattr(riccati, "_POWER_ENTRIES", 1)
        stepped = integrate_filter_riccati(coeffs, S0, grid).values
        deviation = np.abs(blocked - stepped).max() / np.abs(stepped).max()
        assert deviation <= 2 * max(former, 1e-14)


class TestControlRiccati:
    def test_terminal_condition(self):
        coeffs = feedback_coefficients()
        cost = quadratic_cost()
        path = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 1.0, 100))
        np.testing.assert_array_equal(path.final, cost.Omega_T)

    def test_matches_component_oracle(self):
        coeffs = feedback_coefficients()
        cost = quadratic_cost(beta=1.0)
        grid = TimeGrid(0.0, 1.0, 1000)
        path = integrate_control_riccati(coeffs, cost, grid)

        def rhs(s, y):
            wq, wqp, wp = y  # reversed-time flow from the terminal weight
            return [1.0 - 4 * wqp**2, wq - 4 * wp * wqp, 2 * wqp - 4 * wp**2]

        sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0, 1.0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for k in (0, 300, 700):
            s = 1.0 - grid.times()[k]
            wq, wqp, wp = sol.sol(s)
            np.testing.assert_allclose(path.at(k), [[wq, wqp], [wqp, wp]], atol=1e-8)

    def test_long_horizon_stationary_values(self):
        coeffs = feedback_coefficients()
        path = integrate_control_riccati(coeffs, quadratic_cost(beta=1.0),
                                         TimeGrid(0.0, 15.0, 15000))
        np.testing.assert_allclose(path.at(0), [[1.0, 0.5], [0.5, 0.5]], atol=1e-6)

    def test_backward_flow_holds_one_path(self):
        # the backward flow is written straight into the forward-time path,
        # so no reversed copy of the path is ever alive
        coeffs, cost = feedback_coefficients(), quadratic_cost()
        tracemalloc.start()
        try:
            path = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 20.0, 20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.values.nbytes

    @pytest.mark.parametrize("n_steps", [5000, 50, 10])
    def test_finite_time_escape_detected(self, n_steps):
        # cross term makes the running cost unbounded below, so the
        # value matrix diverges at a finite backward time (about 0.68);
        # on the coarse grids the pole falls between grid points
        coeffs = LinearCoefficients(A=[[2.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]],
                                    C=[[0.0, 0.0]], N=np.zeros((2, 2)),
                                    M=np.zeros((2, 1)))
        cost = CostSpec(F=np.zeros((2, 2)), G=[[3.0, 0.0]], Omega_T=np.zeros((2, 2)))
        with pytest.raises(NonFinite):
            integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 5.0, n_steps))

    def test_dimension_checks(self):
        coeffs = feedback_coefficients()
        bad_cost = CostSpec(F=np.eye(4), G=np.zeros((1, 4)), Omega_T=np.eye(4))
        with pytest.raises(DimensionMismatch):
            integrate_control_riccati(coeffs, bad_cost, TimeGrid(0.0, 1.0, 10))
        wrong_k = CostSpec(F=np.eye(2), G=np.zeros((2, 2)), Omega_T=np.eye(2))
        with pytest.raises(ValidationError):
            integrate_control_riccati(coeffs, wrong_k, TimeGrid(0.0, 1.0, 10))


class TestLyapunov:
    @pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_cubic_spreading_closed_form(self, mass, hbar):
        coeffs = tracking_coefficients(mass=mass, hbar=hbar)
        sq0, sqp0, sp0 = 1.0, 0.3, 2.0
        grid = TimeGrid(0.0, 5.0, 500)
        path = lyapunov_unconditional(coeffs, [[sq0, sqp0], [sqp0, sp0]], grid)
        t = 5.0
        expected = np.array([
            [sq0 + 2 * sqp0 * t / mass + sp0 * t**2 / mass**2
             + hbar**2 * t**3 / (3 * mass**2),
             sqp0 + sp0 * t / mass + hbar**2 * t**2 / (2 * mass)],
            [0.0, sp0 + hbar**2 * t],
        ])
        expected[1, 0] = expected[0, 1]
        np.testing.assert_allclose(path.final, expected, atol=1e-8)

    def test_polynomial_is_integrated_exactly(self):
        # the flow is polynomial of degree three, so step size must not matter
        coeffs = tracking_coefficients()
        S0 = np.diag([1.0, 1.0])
        coarse = lyapunov_unconditional(coeffs, S0, TimeGrid(0.0, 5.0, 10))
        fine = lyapunov_unconditional(coeffs, S0, TimeGrid(0.0, 5.0, 5000))
        np.testing.assert_allclose(coarse.final, fine.final, atol=1e-10)


class TestStationarySolver:
    @pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_closed_form_dispersions(self, mass, hbar):
        coeffs = tracking_coefficients(mass=mass, hbar=hbar)
        S = stationary_filter_covariance(coeffs)
        np.testing.assert_allclose(S, stationary_dispersions(mass, hbar), atol=1e-8)

    def test_result_is_a_fixed_point_of_the_flow(self):
        coeffs = tracking_coefficients()
        S = stationary_filter_covariance(coeffs)
        path = integrate_filter_riccati(coeffs, S, TimeGrid(0.0, 1.0, 1000))
        assert np.abs(path.values - S).max() < 1e-9

    def test_no_convergence_reported(self):
        # zero output map: covariance grows linearly forever
        coeffs = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                    C=np.zeros((1, 2)), N=np.eye(2),
                                    M=np.zeros((2, 1)))
        with pytest.raises(NoConvergence):
            stationary_filter_covariance(coeffs)

    @pytest.mark.parametrize("A, C, expected", [
        # no drift, no output: the covariance grows linearly forever
        (np.zeros((2, 2)), [[0.0, 0.0]], NoConvergence),
        # eigenvalues +-i carry real parts of about +-1e-8 after rounding;
        # only the residual check (about 1.5) rejects them
        ([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0]], NoConvergence),
        # an unstable mode nobody observes: the flow escapes
        (np.diag([1.0, -1.0]), [[0.0, 0.0]], NonFinite),
        (np.diag([1.0, -1.0]), [[0.0, 1.0]], NonFinite),
        (-np.eye(2), [[0.0, 0.0]], 0.5 * np.eye(2)),
        (np.diag([1.0, -1.0]), [[1.0, 0.0]], np.diag([1.0 + np.sqrt(2.0), 0.5])),
        # settles long after t = 1000: N / 0.02
        (-0.01 * np.eye(2), [[0.0, 0.0]], 50.0 * np.eye(2)),
    ], ids=["free", "oscillator", "unstable", "unstable-unobserved", "stable",
            "unstable-observed", "slow"])
    def test_contract(self, A, C, expected):
        coeffs = LinearCoefficients(A=A, B=np.zeros((2, 1)), C=C, N=np.eye(2),
                                    M=np.zeros((2, 1)))
        if isinstance(expected, type):
            with pytest.raises(expected):
                stationary_filter_covariance(coeffs)
        else:
            S = stationary_filter_covariance(coeffs)
            np.testing.assert_allclose(S, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_detectable_filter(self, seed):
        # a full-rank output map observes every mode; the result is a fixed
        # point of the flow and the flow's limit from the identity
        rng = np.random.default_rng(seed)
        A, C = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
        M, W = 0.3 * rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
        coeffs = LinearCoefficients(A=A, B=np.zeros((3, 1)), C=C,
                                    N=M @ M.T + W @ W.T, M=M)
        S = stationary_filter_covariance(coeffs)
        path = integrate_filter_riccati(coeffs, S, TimeGrid(0.0, 1.0, 1000))
        assert np.abs(path.values - S).max() < 1e-9
        relaxed = integrate_filter_riccati(coeffs, np.eye(3), TimeGrid(0.0, 40.0, 4000))
        assert np.abs(relaxed.final - S).max() < 1e-9

class TestAlpha:
    def test_terminal_value_is_zero(self):
        coeffs = feedback_coefficients()
        cost = quadratic_cost()
        grid = TimeGrid(0.0, 2.0, 200)
        Om = integrate_control_riccati(coeffs, cost, grid)
        Si = integrate_filter_riccati(coeffs, np.eye(2), grid)
        alpha = integrate_alpha(Om, Si, coeffs, cost)
        assert alpha.values[-1] == 0.0
        assert np.all(np.diff(alpha.values) <= 0)  # accumulates nonnegative cost

    def test_grid_refinement_oracle(self):
        coeffs = feedback_coefficients()
        cost = quadratic_cost()
        S0 = np.diag([1.0, 1.0])

        def alpha0(n):
            grid = TimeGrid(0.0, 2.0, n)
            Om = integrate_control_riccati(coeffs, cost, grid)
            Si = integrate_filter_riccati(coeffs, S0, grid)
            return integrate_alpha(Om, Si, coeffs, cost).values[0]

        assert abs(alpha0(4000) - alpha0(40000)) < 1e-6

    def test_requires_common_grid(self):
        coeffs = feedback_coefficients()
        cost = quadratic_cost()
        Om = integrate_control_riccati(coeffs, cost, TimeGrid(0.0, 2.0, 200))
        Si = integrate_filter_riccati(coeffs, np.eye(2), TimeGrid(0.0, 2.0, 100))
        with pytest.raises(GridMismatch):
            integrate_alpha(Om, Si, coeffs, cost)


class TestTotalCost:
    def setup_paths(self, n=5000):
        coeffs = feedback_coefficients()
        cost = quadratic_cost()
        grid = TimeGrid(0.0, 5.0, n)
        S0 = np.diag([0.5, 0.5])
        Om = integrate_control_riccati(coeffs, cost, grid)
        Si = integrate_filter_riccati(coeffs, S0, grid)
        return coeffs, cost, S0, Om, Si

    def test_agrees_with_value_term_identity(self):
        coeffs, cost, S0, Om, Si = self.setup_paths()
        Xbar = np.array([1.0, 0.0])
        total = total_minimal_cost(Xbar, S0, Om, Si, coeffs, cost)
        Om0 = Om.at(0)
        alpha0 = integrate_alpha(Om, Si, coeffs, cost).values[0]
        static = Xbar @ Om0 @ Xbar + np.trace(Om0 @ S0)
        assert abs(total - (static + alpha0)) <= 1e-9 * max(1.0, abs(total))

    @pytest.mark.parametrize("model", ["free-particle", "random-m3-d2"])
    def test_matches_filter_form_total(self, model):
        # Xbar' Om_0 Xbar + tr(Om_T Si_T) + int tr(F Si) + tr(Om K K') dt,
        # K = Si C' + M: the same cost by another quadrature, off by O(dt^2)
        if model == "free-particle":
            coeffs, cost, Xbar, S0 = (feedback_coefficients(), quadratic_cost(),
                                      np.array([1.0, 0.0]), np.diag([0.5, 0.5]))
            t1, sizes = 5.0, [500, 1000, 2000]
        else:
            rng = np.random.default_rng(7)
            A, B = 0.5 * rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
            C, M = rng.standard_normal((2, 3)), 0.3 * rng.standard_normal((3, 2))
            Nh, Fh = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
            G = 0.3 * rng.standard_normal((2, 3))
            coeffs = LinearCoefficients(A=A, B=B, C=C, N=Nh @ Nh.T + M @ M.T, M=M)
            cost = CostSpec(F=Fh @ Fh.T + G.T @ G, G=G, Omega_T=np.eye(3))
            Xbar, S0, t1, sizes = rng.standard_normal(3), np.eye(3), 2.0, [200, 400, 800, 1600]
        gaps = []
        for n in sizes:
            grid = TimeGrid(0.0, t1, n)
            Om = integrate_control_riccati(coeffs, cost, grid)
            Si = integrate_filter_riccati(coeffs, S0, grid)
            K = Si.values @ coeffs.C.T + coeffs.M
            f = (np.einsum("ab,tba->t", cost.F, Si.values)
                 + np.einsum("tab,tbk,tak->t", Om.values, K, K))
            other = (Xbar @ Om.at(0) @ Xbar + np.trace(cost.Omega_T @ Si.final)
                     + np.trapezoid(f, dx=grid.dt))
            total = total_minimal_cost(Xbar, S0, Om, Si, coeffs, cost)
            gaps.append(abs(total - other) / abs(total))
        assert gaps[-1] < 1e-6
        assert all(a >= 3.5 * b for a, b in zip(gaps, gaps[1:])), gaps

    def test_frozen_reference_value(self):
        # value pinned from a converged run; a 10x finer grid moves it
        # by < 3e-6, so the tolerance below is quadrature-safe
        coeffs, cost, S0, Om, Si = self.setup_paths()
        total = total_minimal_cost(np.array([1.0, 0.0]), S0, Om, Si, coeffs, cost)
        assert total == pytest.approx(16.626277715, abs=1e-5)

    def test_rejects_wrong_start(self):
        coeffs, cost, S0, Om, Si = self.setup_paths(n=100)
        with pytest.raises(ValidationError):
            total_minimal_cost(np.zeros(2), np.eye(2), Om, Si, coeffs, cost)

    def test_rejects_start_off_by_more_than_atol(self):
        # 4e-6 is within a relative 1e-5 of the start's 0.5, but the check
        # is absolute: 1e-12
        coeffs, cost, S0, Om, Si = self.setup_paths(n=100)
        with pytest.raises(ValidationError, match="does not start from Sigma0"):
            total_minimal_cost(np.zeros(2), S0 + np.diag([4e-6, 0.0]), Om, Si, coeffs, cost)

    def test_rejects_grid_mismatch(self):
        coeffs, cost, S0, Om, _ = self.setup_paths(n=100)
        other = integrate_filter_riccati(coeffs, S0, TimeGrid(0.0, 5.0, 50))
        with pytest.raises(GridMismatch):
            total_minimal_cost(np.zeros(2), S0, Om, other, coeffs, cost)


class TestCsvExport:
    def test_matrix_path_round_trip(self):
        coeffs = tracking_coefficients()
        grid = TimeGrid(0.0, 0.1, 10)
        path = integrate_filter_riccati(coeffs, np.eye(2), grid)
        buf = io.StringIO()
        matrix_path_to_csv(path, buf, prefix="S")
        buf.seek(0)
        header = buf.readline().strip()
        assert header == "t,S_00,S_01,S_10,S_11"
        data = np.loadtxt(buf, delimiter=",")
        np.testing.assert_allclose(data[:, 0], grid.times())
        np.testing.assert_allclose(data[:, 1:].reshape(-1, 2, 2), path.values)

    def test_path_shape_validation(self):
        with pytest.raises(GridMismatch):
            MatrixPath(grid=TimeGrid(0.0, 1.0, 10), values=np.zeros((5, 2, 2)))

    @pytest.mark.parametrize("path, values", [
        (MatrixPath, np.zeros((3, 2, 2))),
        (ScalarPath, np.zeros(3)),
        (ControlGainPath, np.zeros((3, 1, 2))),
    ])
    def test_path_needs_a_time_grid(self, path, values):
        # a grid that is not a TimeGrid is named, as SimConfig names it,
        # not met by an AttributeError on its n_points
        with pytest.raises(ConfigError, match="grid must be a TimeGrid, got None"):
            path(None, values)
        with pytest.raises(ConfigError, match="got 'x'"):
            path("x", values)
