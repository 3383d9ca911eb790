"""The closed loop stepped a block of L steps per product, against the
plain per-step recursion, at block and noise-window boundaries."""

import dataclasses
import warnings

import numpy as np
import pytest
from oracles import closed_loop_steps, scheme_step
from test_closed_loop import (
    default_belief, feedback_coefficients, random_problem, small_config, tracking_cost,
)

from qlqg.closed_loop import (
    _MAP_ENTRIES, _scheme_maps, _steps_per_product, expected_cost_z,
    monte_carlo_expected_cost, simulate_closed_loop,
)
from qlqg.control import control_gain_path
from qlqg.ensemble import _BLOCK, SimConfig
from qlqg.errors import NonFinite
from qlqg.riccati import (
    TimeGrid, integrate_control_riccati, integrate_filter_riccati, total_minimal_cost,
)

FIELDS = ("means", "controls", "outputs", "innovations", "running_costs", "total_costs")


@pytest.mark.parametrize("m, d", [(1, 1), (2, 1), (3, 1), (4, 2), (14, 2), (40, 1)])
def test_steps_per_product_is_the_largest_power_of_two_that_fits(m, d):
    L = _steps_per_product(m, d)
    assert _BLOCK % L == 0
    assert L == 1 or L * m * (m + L * d) <= _MAP_ENTRIES
    assert 2 * L > _BLOCK or 2 * L * m * (m + 2 * L * d) > _MAP_ENTRIES


def unaligned_strides(n_steps, L):
    """The smallest divisor of n_steps that neither divides nor is a
    multiple of L or of the noise window, and n_steps itself."""
    def aligned(s):
        return any(a % s == 0 or s % a == 0 for a in (L, _BLOCK))
    return sorted({next((s for s in range(2, n_steps + 1)
                         if n_steps % s == 0 and not aligned(s)), n_steps), n_steps})


@pytest.mark.parametrize("m, d, k", [(2, 1, 1), (4, 2, 2), (3, 1, 2), (16, 1, 1), (14, 2, 2)])
def test_block_steps_match_the_per_step_recursion(m, d, k):
    # one step, a block less one, a block plus one, a noise window plus
    # one and a window plus 44 steps, recorded at strides that cut blocks
    # and windows anywhere; blocks of 8, 4, 8, 1 and 2 steps
    coeffs, cost, belief = random_problem(np.random.default_rng(7 * m + d), m, d, k)
    L = _steps_per_product(m, d)
    for n_steps in (n for n in (1, L - 1, L + 1, 257, 300) if n > 0):
        for stride in unaligned_strides(n_steps, L) if n_steps > 1 else [1]:
            cfg = SimConfig(grid=TimeGrid(0.0, 1e-3 * n_steps, n_steps), n_traj=3,
                            seed=n_steps, record_stride=stride)
            ens = simulate_closed_loop(coeffs, cost, cfg, belief)
            want = closed_loop_steps(coeffs, cost, cfg, belief)
            for field in FIELDS:
                got, ref = getattr(ens, field), want[field]
                assert got.shape == ref.shape, field
                scale = max(np.abs(ref).max(), 1e-300)
                assert np.abs(got - ref).max() <= 1e-13 * scale, (field, n_steps, stride)


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_scheme_maps_are_the_per_step_maps(offset):
    # a full noise window and a short one: each window's Phi_n and K_n at
    # its steps and Q_n at its points, both ends included, against the
    # per-step oracle; the windows tile the steps, and the Q_n of
    # neighbouring windows share their one common point
    coeffs, cost, belief = random_problem(np.random.default_rng(5), 4, 2, 2)
    grid = TimeGrid(0.0, 0.3, 300)
    Sigma = integrate_filter_riccati(coeffs, belief.cov, grid)
    gains = control_gain_path(integrate_control_riccati(coeffs, cost, grid),
                              coeffs, cost).gains + offset
    windows = list(_scheme_maps(coeffs, cost, gains, Sigma, grid))
    assert [(s0, len(Phi), len(K), len(Q)) for s0, Phi, K, Q in windows] == [
        (0, _BLOCK, _BLOCK, _BLOCK + 1), (_BLOCK, 300 - _BLOCK, 300 - _BLOCK, 301 - _BLOCK)]
    for s0, Phi, K, Q in windows:
        for j, maps in enumerate(zip(Phi, K, Q)):
            for got, want in zip(maps, scheme_step(coeffs, cost, gains, Sigma, s0 + j)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (s0, j)
        want = scheme_step(coeffs, cost, gains, Sigma, s0 + len(Phi))[2]
        assert np.abs(Q[-1] - want).max() <= 1e-14 * np.abs(want).max(), s0
    assert np.array_equal(windows[0][3][-1], windows[1][3][0])


class TestEscapeInsideABlock:
    # the loop of test_closed_loop's escape tests, driven unstable by a
    # gain offset; a block's check looks back over the L steps it made

    OFFSET = np.array([[0.0, -50.0]])

    def escape(self, n_traj, first, seed, offset=OFFSET):
        cfg = small_config(n_traj=n_traj, seed=seed, n_steps=1000, t1=1.0)
        with pytest.raises(NonFinite) as info:
            simulate_closed_loop(feedback_coefficients(), tracking_cost(), cfg,
                                 default_belief(), gain_offset=offset, first=first)
        return str(info.value)

    def test_names_the_earlier_step_not_the_lower_index(self):
        # of the 4 trajectories of seed 12, trajectory 1 escapes first, at
        # step 335; trajectory 0 escapes at step 336, in the same block of
        # 8 steps.  The check names trajectory 1, and it fails alone with
        # the same message
        assert _steps_per_product(2, 1) == 8
        seed, late, early = 12, 0, 1
        message = self.escape(4, 0, seed)
        assert message == ("posterior mean passed 1e+12 in trajectory 1 of seed 12 "
                           "at step 335, t=0.335")
        assert self.escape(1, early, seed) == message
        alone = self.escape(1, late, seed)
        step_early, step_late = (int(msg.split("at step ")[1].split(",")[0])
                                 for msg in (message, alone))
        assert step_early < step_late
        assert (step_early - 1) // 8 == (step_late - 1) // 8

    @pytest.mark.parametrize("offset, message", [
        ([[0.0, -50.0]], "trajectory 8 of seed 11 at step 334, t=0.334"),
        # the block maps and the states after the failing one overflow
        ([[0.0, -1e53]], "trajectory 0 of seed 11 at step 2, t=0.002"),
    ])
    def test_failing_block_emits_no_warning(self, offset, message):
        # each escape lies strictly inside its block of 8 steps
        step = int(message.split("at step ")[1].split(",")[0])
        assert 0 < (step - 1) % 8 < 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.escape(16, 0, 11, np.array(offset)) == (
                f"posterior mean passed 1e+12 in {message}")


def test_overflowing_cost_is_raised():
    # no actuation, so a huge gain offset leaves every state in range
    # while the u'u of the running cost overflows
    still = dataclasses.replace(feedback_coefficients(), B=np.zeros((2, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFinite, match=r"total cost is not finite in "
                                            r"trajectory 0 of seed 11 at step 10, t=0.1"):
            simulate_closed_loop(still, tracking_cost(), small_config(n_traj=2, n_steps=10,
                                                                      t1=0.1),
                                 default_belief(), gain_offset=np.array([[0.0, 1e160]]))


def test_expected_cost_z_is_the_monte_carlo_z_score():
    coeffs, cost, belief = feedback_coefficients(), tracking_cost(), default_belief()
    for n_traj in (1, 50):
        ens = simulate_closed_loop(coeffs, cost, small_config(n_traj=n_traj, n_steps=50,
                                                              t1=0.5, stride=50), belief)
        analytic, mean, stderr, z = expected_cost_z(ens, belief, coeffs, cost)
        assert analytic == total_minimal_cost(belief.mean, belief.cov, ens.Omega_path,
                                              ens.Sigma_path, coeffs, cost)
        assert (mean, stderr) == pytest.approx(monte_carlo_expected_cost(ens), nan_ok=True)
        if n_traj == 1:
            assert np.isnan(z)
        else:
            assert z == (mean - analytic) / stderr
