import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import trajectory_stream
from scipy.integrate import solve_ivp
from test_kalman import random_coefficients

from qlqg import closed_loop, ensemble
from qlqg.cli import trajectory_to_csv
from qlqg.closed_loop import monte_carlo_expected_cost, simulate_closed_loop
from qlqg.control import control_gain_path
from qlqg.ensemble import (
    _BLOCK, _CHUNK, SimConfig, _chunk_width, _increments, _key_type, _stream_keys,
)
from qlqg.errors import ConfigError, EmptyEnsemble, InvalidParameter, NonFinite
from qlqg.kalman import filter_step
from qlqg.phase_space import GaussianBelief, LinearCoefficients
from qlqg.riccati import CostSpec, TimeGrid, integrate_control_riccati
from qlqg.sme import DensityMatrix, FiniteModel, evolve_master, simulate_sme_ensemble


def feedback_coefficients():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [2.0]])
    C = np.array([[2.0, 0.0]])
    N = np.diag([0.0, 1.0])
    M = np.zeros((2, 1))
    return LinearCoefficients(A=A, B=B, C=C, N=N, M=M)


def zero_gain(coeffs):
    """``coeffs`` with C = 0 and M = 0: the filter gain Sigma C' + M is zero,
    so the posterior mean ignores its innovations and follows the
    deterministic closed-loop recursion."""
    return dataclasses.replace(coeffs, C=np.zeros_like(coeffs.C),
                               M=np.zeros_like(coeffs.M))


def tracking_cost(beta=1.0, Omega_T=None):
    if Omega_T is None:
        Omega_T = np.eye(2)
    return CostSpec(F=np.diag([beta, 0.0]), G=np.zeros((1, 2)), Omega_T=Omega_T)


def small_config(n_traj=1, seed=11, n_steps=200, t1=2.0, stride=1):
    return SimConfig(
        grid=TimeGrid(0.0, t1, n_steps), n_traj=n_traj, seed=seed,
        record_stride=stride,
    )


def default_belief():
    return GaussianBelief(
        mean=np.array([1.0, 0.0]), cov=np.diag([0.5, 0.5])
    )


def random_problem(rng, m=4, d=2, k=2):
    """A random model with a random PSD cost and Gaussian initial belief."""
    coeffs = random_coefficients(rng, m, d, k)
    F = rng.standard_normal((m, m))
    cost = CostSpec(F=F @ F.T, G=0.5 * rng.standard_normal((k, m)), Omega_T=np.eye(m))
    S = rng.standard_normal((m, m))
    belief = GaussianBelief(mean=rng.standard_normal(m), cov=S @ S.T + np.eye(m))
    return coeffs, cost, belief


def record_noise_rows(monkeypatch, module) -> list:
    """Patch the ``_noise_blocks`` that ``module`` imported so that every
    block of step-major noise rows it yields is kept, in step order: the
    rows of all its steps, pad columns included, are the list's blocks
    stacked."""
    copied = []

    def noise_blocks(config, noise, out, d, steps):
        for s, w in ensemble._noise_blocks(config, noise, out, d, steps):
            copied.append(out[:w * d].copy())
            yield s, w

    monkeypatch.setattr(module, "_noise_blocks", noise_blocks)
    return copied


class TestConfig:
    def test_stride_must_divide_steps(self):
        with pytest.raises(ConfigError, match="does not divide"):
            SimConfig(grid=TimeGrid(0.0, 1.0, 10), n_traj=1, seed=0,
                      record_stride=3)

    def test_rejects_empty_ensemble_request(self):
        with pytest.raises(ConfigError, match="n_traj"):
            SimConfig(grid=TimeGrid(0.0, 1.0, 10), n_traj=0, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            SimConfig(grid=TimeGrid(0.0, 1.0, 10), n_traj=1, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_traj", 2.5), ("n_traj", "3"), ("n_traj", True), ("n_traj", 3.0),
        ("record_stride", 2.0), ("seed", 1.5), ("seed", math.nan), ("seed", None),
        ("n_steps", True), ("n_steps", 10.0),
    ])
    def test_rejects_non_integers(self, field, value):
        fields = dict(n_traj=1, seed=0, record_stride=1, n_steps=10)
        fields[field] = value
        with pytest.raises((ConfigError, InvalidParameter), match=field):
            SimConfig(grid=TimeGrid(0.0, 1.0, fields.pop("n_steps")), **fields)

    def test_record_count(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), n_traj=1, seed=0,
                        record_stride=5)
        assert cfg.n_records == 3

    @pytest.mark.filterwarnings("error")
    def test_narrow_integers_are_stored_as_int(self):
        # arithmetic on a stored np.uint8 or np.int8 wraps or overflows
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 1000), n_traj=np.uint8(200),
                        seed=np.int8(3), record_stride=np.int8(100))
        assert [type(v) for v in (cfg.n_traj, cfg.seed, cfg.record_stride)] == [int] * 3
        assert cfg.n_records == 11
        assert _chunk_width(cfg.n_traj) >= 200


class TestRunningCost:
    # The posterior running cost Xhat'F Xhat + tr[F Sigma] + 2u'G Xhat + u'u
    # as the closed loop accumulates it.  With A = B = C = N = M = 0 the
    # filter gain is zero, so mean and covariance stay put whatever the
    # innovations, and the gain is G, so u = -G Xhat and the cost over
    # [0, 1] is the instantaneous value.

    def running_cost(self, cost, mean, cov):
        still = LinearCoefficients(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                   C=np.zeros((1, 2)), N=np.zeros((2, 2)),
                                   M=np.zeros((2, 1)))
        ens = simulate_closed_loop(still, cost, small_config(n_steps=4, t1=1.0),
                                   GaussianBelief(mean=mean, cov=cov))
        return float(ens.running_costs[0, -1])

    def test_zero_mean_zero_control_leaves_trace_term(self):
        Sigma = np.array([[0.7, 0.2], [0.2, 1.3]])
        value = self.running_cost(tracking_cost(), np.zeros(2), Sigma)
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_hand_computed_value(self):
        cost = CostSpec(F=np.eye(2), G=np.zeros((1, 2)), Omega_T=np.eye(2))
        value = self.running_cost(cost, [1.0, 2.0], np.diag([4.0, 5.0]))
        # 1 + 4 + tr diag(4, 5)
        assert value == pytest.approx(14.0, abs=1e-14)

    def test_cross_term(self):
        cost = CostSpec(F=np.eye(2), G=np.array([[0.5, 0.0]]), Omega_T=np.eye(2))
        value = self.running_cost(cost, [1.0, 0.0], np.zeros((2, 2)))
        # u = -0.5: 1 + 2*(-0.5)*0.5*1 + 0.25
        assert value == pytest.approx(0.75, abs=1e-15)


class TestZeroNoise:
    # a zero filter gain takes the noise out of the posterior mean

    def test_mean_follows_euler_recursion(self):
        coeffs = zero_gain(feedback_coefficients())
        cost = tracking_cost()
        cfg = small_config()
        ens = simulate_closed_loop(coeffs, cost, cfg, default_belief())
        gains = control_gain_path(
            integrate_control_riccati(coeffs, cost, cfg.grid), coeffs, cost
        ).gains
        x = np.array([1.0, 0.0])
        dt = cfg.grid.dt
        for step in range(cfg.grid.n_steps):
            u = -gains[step] @ x
            x = x + (coeffs.A @ x + coeffs.B @ u) * dt
            np.testing.assert_allclose(ens.means[0, step + 1], x, atol=1e-12)

    def test_mean_tracks_closed_loop_flow(self):
        # continuous limit: dX/dt = (A - B Ltilde_t) X
        coeffs = zero_gain(feedback_coefficients())
        cost = tracking_cost()
        cfg = small_config(n_steps=2000)
        ens = simulate_closed_loop(coeffs, cost, cfg, default_belief())
        gain_path = control_gain_path(
            integrate_control_riccati(coeffs, cost, cfg.grid), coeffs, cost
        )
        times = cfg.grid.times()

        def rhs(t, x):
            k = min(int(round((t - cfg.grid.t0) / cfg.grid.dt)),
                    cfg.grid.n_steps)
            return (coeffs.A - coeffs.B @ gain_path.gains[k]) @ x

        sol = solve_ivp(rhs, (times[0], times[-1]), [1.0, 0.0],
                        t_eval=[times[-1]], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ens.means[0, -1], sol.y[:, -1], atol=2e-3)

    def test_zero_noise_ensemble_is_degenerate(self):
        coeffs = zero_gain(feedback_coefficients())
        cfg = small_config(n_traj=3, n_steps=50, t1=0.5)
        ens = simulate_closed_loop(coeffs, tracking_cost(), cfg, default_belief())
        assert not np.array_equal(ens.innovations[0], ens.innovations[1])
        assert np.array_equal(ens.means[0], ens.means[1])
        assert np.array_equal(ens.total_costs[0], ens.total_costs[2])
        mean, stderr = monte_carlo_expected_cost(ens)
        assert stderr == pytest.approx(0.0, abs=1e-14)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        coeffs = feedback_coefficients()
        cfg = small_config(n_traj=7, seed=123, n_steps=100, t1=1.0)
        a = simulate_closed_loop(coeffs, tracking_cost(), cfg, default_belief())
        b = simulate_closed_loop(coeffs, tracking_cost(), cfg, default_belief())
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.innovations, b.innovations)
        assert np.array_equal(a.total_costs, b.total_costs)

    def test_different_seeds_differ(self):
        coeffs = feedback_coefficients()
        ens_a = simulate_closed_loop(
            coeffs, tracking_cost(), small_config(seed=1, n_steps=50, t1=0.5),
            default_belief())
        ens_b = simulate_closed_loop(
            coeffs, tracking_cost(), small_config(seed=2, n_steps=50, t1=0.5),
            default_belief())
        assert not np.array_equal(ens_a.means, ens_b.means)

    @pytest.mark.parametrize("m, d, k", [(4, 2, 2), (4, 1, 1), (1, 1, 1), (14, 2, 2)])
    @pytest.mark.parametrize("index, n_a, n_b",
                             [(0, 1, 1025), (1024, 1025, 1026), (1026, 1027, 1300)],
                             ids=["alone", "last-chunk", "tail"])
    def test_results_do_not_depend_on_batch_layout(self, index, n_a, n_b, m, d, k):
        # random models: their products round differently in a BLAS GEMV
        # than inside a GEMM, which the free particle's integers hide; one
        # channel, control or state makes one-row matrices, and from an
        # inner dimension m + d of 16 a GEMM rounds the columns of a last,
        # partial block of 8 apart
        coeffs, cost, belief = random_problem(np.random.default_rng(3), m, d, k)
        grid = TimeGrid(0.0, 0.2, 200)
        a, b = (
            simulate_closed_loop(coeffs, cost, SimConfig(grid=grid, n_traj=n, seed=3),
                                 belief)
            for n in (n_a, n_b)
        )
        for field in ("means", "controls", "outputs", "innovations",
                      "running_costs", "total_costs"):
            np.testing.assert_array_equal(
                getattr(a, field)[index], getattr(b, field)[index], err_msg=field)

    def test_ensemble_from_first_is_a_slice_of_the_full_one(self):
        # row i of an ensemble starting at trajectory `first` is row
        # first + i of the ensemble starting at 0, bit for bit, whichever
        # chunk either lands in
        coeffs, cost, belief = random_problem(np.random.default_rng(3), 4, 2, 2)
        grid = TimeGrid(0.0, 0.05, 50)
        full = simulate_closed_loop(coeffs, cost, SimConfig(grid=grid, n_traj=1300, seed=3),
                                    belief)
        for first in (1, 5, 1023, 1024, 1299):
            part = simulate_closed_loop(
                coeffs, cost, SimConfig(grid=grid, n_traj=1300 - first, seed=3), belief,
                first=first)
            for field in ("means", "controls", "outputs", "innovations",
                          "running_costs", "total_costs"):
                np.testing.assert_array_equal(getattr(part, field),
                                              getattr(full, field)[first:],
                                              err_msg=f"{field}, first {first}")

    PATH_FIELDS = ("means", "controls", "outputs", "innovations", "running_costs")

    @pytest.mark.parametrize("n_traj, first, record", [
        *((20, first, record) for first in (0, 3) for record in (0, 1, 9, 25)),
        (1030, 0, 1027), (1030, 3, 1027),
    ])
    def test_recorded_rows_are_those_of_the_full_ensemble(self, n_traj, first, record):
        # 1030 trajectories split into chunks of 1024 and 6, and the
        # record stops inside the second chunk
        coeffs, cost, belief = random_problem(np.random.default_rng(3), 4, 2, 2)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.02, 20), n_traj=n_traj, seed=3,
                        record_stride=5)
        full = simulate_closed_loop(coeffs, cost, cfg, belief, first=first)
        kept = simulate_closed_loop(coeffs, cost, cfg, belief, first=first,
                                    record=record)
        n_kept = min(record, n_traj)
        assert len(kept) == n_traj and kept.config == cfg
        np.testing.assert_array_equal(kept.total_costs, full.total_costs)
        for field in self.PATH_FIELDS:
            assert getattr(kept, field).shape[0] == n_kept
            np.testing.assert_array_equal(getattr(kept, field),
                                          getattr(full, field)[:n_kept], err_msg=field)
        if n_kept:
            assert np.array_equal(kept[n_kept - 1].means, full[n_kept - 1].means)
        unrecorded = [n_kept, n_traj - 1, -1] if n_kept < n_traj else []
        for i in unrecorded:
            with pytest.raises(IndexError):
                kept[i]

    @pytest.mark.parametrize("record", [-1, 1.5, "3", True])
    def test_rejects_bad_record(self, record):
        with pytest.raises(InvalidParameter, match="record must be an integer >= 0"):
            simulate_closed_loop(feedback_coefficients(), tracking_cost(),
                                 small_config(n_steps=10, t1=0.1), default_belief(),
                                 record=record)

    @pytest.mark.parametrize("first", [-1, 1.5, "3", True])
    def test_rejects_bad_first(self, first):
        with pytest.raises(InvalidParameter, match="first must be an integer >= 0"):
            simulate_closed_loop(feedback_coefficients(), tracking_cost(),
                                 small_config(n_steps=10, t1=0.1), default_belief(),
                                 first=first)

    def test_stride_only_thins_the_record(self):
        coeffs = feedback_coefficients()
        fine = simulate_closed_loop(
            coeffs, tracking_cost(),
            small_config(n_traj=4, seed=9, n_steps=60, t1=0.6, stride=1),
            default_belief())
        coarse = simulate_closed_loop(
            coeffs, tracking_cost(),
            small_config(n_traj=4, seed=9, n_steps=60, t1=0.6, stride=20),
            default_belief())
        assert np.array_equal(coarse.means[:, 1], fine.means[:, 20])
        assert np.array_equal(coarse.means[:, -1], fine.means[:, -1])
        # thinned increments accumulate the skipped steps
        np.testing.assert_allclose(
            coarse.innovations[:, 1],
            fine.innovations[:, 1:21].sum(axis=1), atol=1e-15,
        )
        assert np.array_equal(coarse.running_costs[:, -1],
                              fine.running_costs[:, -1])


class TestStatistics:
    def test_ensemble_mean_matches_deterministic_recursion(self):
        # innovations are zero-mean, so E[Xhat_t] obeys the noiseless loop
        coeffs = feedback_coefficients()
        cost = tracking_cost()
        cfg = small_config(n_traj=4000, seed=21, n_steps=200, t1=2.0,
                           stride=50)
        ens = simulate_closed_loop(coeffs, cost, cfg, default_belief())
        # the same control gains, and a mean that ignores the innovations
        ref = simulate_closed_loop(zero_gain(coeffs), cost, small_config(
            n_traj=1, seed=0, n_steps=200, t1=2.0, stride=50), default_belief())
        n = cfg.n_traj
        for row in range(1, cfg.n_records):
            sample = ens.means[:, row]
            stderr = sample.std(axis=0, ddof=1) / math.sqrt(n)
            err = np.abs(sample.mean(axis=0) - ref.means[0, row])
            assert np.all(err <= 4.0 * stderr + 1e-12)

    def test_ensemble_covariance_matches_lyapunov_flow(self):
        coeffs = feedback_coefficients()
        cost = tracking_cost()
        cfg = small_config(n_traj=4000, seed=33, n_steps=200, t1=2.0,
                           stride=200)
        ens = simulate_closed_loop(coeffs, cost, cfg, default_belief())

        gains = control_gain_path(
            integrate_control_riccati(coeffs, cost, cfg.grid), coeffs, cost
        ).gains
        from qlqg.riccati import integrate_filter_riccati
        kgains = np.matmul(
            integrate_filter_riccati(coeffs, default_belief().cov,
                                     cfg.grid).values,
            coeffs.C.T) + coeffs.M
        dt = cfg.grid.dt
        P = np.zeros((2, 2))
        eye = np.eye(2)
        for step in range(cfg.grid.n_steps):
            T = eye + dt * (coeffs.A - coeffs.B @ gains[step])
            P = T @ P @ T.T + dt * (kgains[step] @ kgains[step].T)
        sample = np.cov(ens.means[:, -1].T)
        assert np.linalg.norm(sample - P) <= 0.05 * np.linalg.norm(P)

    def test_innovation_increment_statistics(self):
        # a million recorded increments: mean and variance of the draws
        coeffs = feedback_coefficients()
        cfg = SimConfig(grid=TimeGrid(0.0, 5.0, 5000), n_traj=200, seed=71,
                        record_stride=1)
        ens = simulate_closed_loop(coeffs, tracking_cost(), cfg,
                                   default_belief())
        draws = ens.innovations[:, 1:, 0].ravel()
        n = draws.size
        assert n == 10**6
        dt = cfg.grid.dt
        assert abs(draws.mean()) / math.sqrt(dt) <= 4.0 / math.sqrt(n)
        assert abs(draws.var() - dt) <= 0.02 * dt

    def test_output_increments_contain_signal(self):
        # dY - dYtilde telescopes to the integral of C Xhat dt
        coeffs = feedback_coefficients()
        cfg = small_config(n_traj=2, seed=3, n_steps=100, t1=1.0, stride=100)
        ens = simulate_closed_loop(coeffs, tracking_cost(), cfg,
                                   default_belief())
        fine = simulate_closed_loop(coeffs, tracking_cost(), small_config(
            n_traj=2, seed=3, n_steps=100, t1=1.0, stride=1),
            default_belief())
        dt = cfg.grid.dt
        signal = (fine.means[:, :-1] @ coeffs.C.T * dt).sum(axis=1)
        np.testing.assert_allclose(
            ens.outputs[:, -1] - ens.innovations[:, -1], signal, atol=1e-12)


def numpy_keys(seed, start, stop):
    """The SFC64 seeds numpy derives from SeedSequence(seed, spawn_key=(i,))."""
    return np.array([np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(3, np.uint64)
                     for i in range(start, stop)]).reshape(-1, 3)


class TestStreamKeys:
    # every trajectory's stream is numpy's SFC64 seeded by
    # SeedSequence(seed, spawn_key=(index,)), whatever the size of the
    # seed and the index; the windows cross one, two and three words

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("start, stop", [
        (0, 9), (1020, 1031), (2**32 - 4, 2**32 + 5), (2**64 - 4, 2**64 + 5),
        (2**70, 2**70 + 4),
    ])
    def test_keys_are_numpys(self, seed, start, stop):
        keys = _stream_keys(seed, start, stop)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, numpy_keys(seed, start, stop))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1),
           start=st.one_of(st.integers(0, 2**12), st.integers(0, 2**80),
                           st.sampled_from([2**32 - 3, 2**64 - 3, 2**70])),
           rows=st.integers(1, 6))
    def test_keys_are_numpys_for_any_window(self, seed, start, rows):
        np.testing.assert_array_equal(_stream_keys(seed, start, start + rows),
                                      numpy_keys(seed, start, start + rows))

    def test_simulators_make_no_seed_sequence(self, monkeypatch):
        # the keys come from one vectorized hash per chunk: a SeedSequence
        # per trajectory costs several times the stream itself
        def refuse(*args, **kwargs):
            raise AssertionError("a SeedSequence was built")
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        cfg = small_config(n_traj=20, n_steps=20, t1=0.01)
        simulate_closed_loop(feedback_coefficients(), tracking_cost(), cfg, default_belief())
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[np.diag([1.0, -1.0])])
        simulate_sme_ensemble(DensityMatrix(np.diag([0.6, 0.4]).astype(complex)), model, cfg)


class TestStreamIndependence:
    # the first window of 4096 consecutive streams, pooled: N(0, 1) draws
    # with no correlation between neighbouring indices and no two streams
    # alike; the windows cross the index's first and second 32-bit words
    @pytest.mark.parametrize("seed, first", [
        (0, 0), (2**32 + 7, 2**32 - 2048), (2**64 - 1, 2**64 - 2048),
    ])
    def test_neighbouring_streams_are_independent(self, seed, first):
        rows = 4096
        cfg = SimConfig(grid=TimeGrid(0.0, float(_BLOCK), _BLOCK), n_traj=rows, seed=seed)
        x = next(_increments(cfg, first, first + rows, 1))[:rows, :, 0]
        n = x.size
        assert abs(x.mean()) <= 5.0 / math.sqrt(n)
        assert abs(x.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        pairs = x[:-1] * x[1:]
        assert abs(pairs.mean()) <= 5.0 / math.sqrt(pairs.size)
        assert len(np.unique(x[:, :4], axis=0)) == rows


class TestBlockNoise:
    def test_innovations_are_the_bulk_draws(self, monkeypatch):
        # drawn in windows of steps and copied out of them a block at a
        # time, each stream still gives the bytes of one draw of all its
        # steps, times sqrt(dt), and the pad columns' rows stay zero.  With
        # d = 2 a block is 4 steps: 300 steps end inside a block, and 1003
        # in a window of 235 whose last block is partial.  The second chunk
        # holds indices of one and of two 32-bit words
        coeffs, cost, belief = random_problem(np.random.default_rng(4), m=2)
        assert coeffs.d == 2
        copied = record_noise_rows(monkeypatch, closed_loop)
        for n_steps in (300, 1003):
            grid = TimeGrid(0.0, 1e-3 * n_steps, n_steps)
            for first, n_traj in ((0, 3), (2**32 - 2, 4)):
                cfg = SimConfig(grid=grid, n_traj=n_traj, seed=17)
                copied.clear()
                ens = simulate_closed_loop(coeffs, cost, cfg, belief, first=first)
                rows = np.concatenate(copied).reshape(n_steps, 2, -1)
                assert rows.shape[2] == _chunk_width(n_traj)
                assert not rows[:, :, n_traj:].any()
                for i in range(cfg.n_traj):
                    draws = trajectory_stream(cfg.seed, first + i).standard_normal(
                        (n_steps, 2)) * math.sqrt(grid.dt)
                    np.testing.assert_array_equal(rows[:, :, i], draws)
                    np.testing.assert_array_equal(ens.innovations[i, 1:], draws)
                    alone = simulate_closed_loop(
                        coeffs, cost, dataclasses.replace(cfg, n_traj=1), belief,
                        first=first + i)
                    for field in ("means", "controls", "outputs", "innovations",
                                  "running_costs", "total_costs"):
                        np.testing.assert_array_equal(getattr(alone, field)[0],
                                                      getattr(ens, field)[i])

    def test_chunk_holds_its_noise_once(self):
        # the streams of a full chunk draw straight into the one (B, _BLOCK,
        # d) block the steps read: beside the streams themselves, the noise
        # of 300 steps (two blocks) peaks at that block, 2 MB, and not at
        # twice it, as a second, transposed copy would make it
        B, d = _CHUNK, 1
        cfg = SimConfig(grid=TimeGrid(0.0, 0.3, 300), n_traj=B, seed=23)
        key, bit_generator = _key_type(), type(trajectory_stream(cfg.seed, 0).bit_generator)
        tracemalloc.start()
        try:
            streams = [np.random.Generator(bit_generator(key(k)))
                       for k in _stream_keys(cfg.seed, 0, B)]
            stream_bytes = tracemalloc.get_traced_memory()[0]
            del streams
            tracemalloc.reset_peak()
            for _ in _increments(cfg, 0, B, d):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = B * _BLOCK * d * 8
        assert block_bytes < peak < 1.25 * block_bytes + stream_bytes

    @pytest.mark.parametrize("simulator, steps", [
        ("closed_loop", (2000, 20000)),
        # a traced SME step costs ~0.3 ms, so fewer steps keep this quick
        ("sme_ensemble", (200, 2000)),
        # one state, nothing per trajectory: the whole peak stays flat
        ("master", (2000, 20000)),
        # the whole peak of a 2-trajectory ensemble stays flat too, though
        # the full time grid of 7000 steps is 48 KB larger than that of 1000
        ("sme_pair", (1000, 7000)),
    ])
    def test_ensemble_memory_does_not_grow_with_steps(self, simulator, steps):
        # the part of the peak that grows with the ensemble (noise and
        # state buffers) does not grow with n_steps; the covariance and
        # gain paths do, but they are per step, not per trajectory
        rho0 = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[np.diag([1.0, -1.0])])

        def peak(n_traj, n_steps):
            cfg = SimConfig(grid=TimeGrid(0.0, 1e-5 * n_steps, n_steps),
                            n_traj=n_traj, seed=1, record_stride=n_steps)
            tracemalloc.start()
            try:
                if simulator == "closed_loop":
                    simulate_closed_loop(feedback_coefficients(), tracking_cost(),
                                         cfg, default_belief())
                elif simulator in ("sme_ensemble", "sme_pair"):
                    simulate_sme_ensemble(rho0, model, cfg)
                else:
                    evolve_master(rho0, model, cfg.grid, record_stride=n_steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def growth(n_steps):
            if simulator == "master":
                return peak(1, n_steps)
            if simulator == "sme_pair":
                return peak(2, n_steps)
            return peak(48, n_steps) - peak(2, n_steps)

        short, long = (growth(n) for n in steps)
        assert 0 < short
        assert long <= short

    def test_memory_grows_with_recorded_trajectories_only(self):
        # at every step recorded, each trajectory's paths take 101 rows of
        # 7 floats: 3072 more trajectories add 17 MB when all are kept
        def growth(record):
            peaks = []
            for n_traj in (1024, 4096):
                cfg = SimConfig(grid=TimeGrid(0.0, 0.1, 100), n_traj=n_traj, seed=1)
                tracemalloc.start()
                try:
                    simulate_closed_loop(feedback_coefficients(), tracking_cost(),
                                         cfg, default_belief(), record=record)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks[1] - peaks[0]

        assert growth(8) < 2**20
        assert growth(None) > 10 * 2**20


class TestCostEstimates:
    def test_single_trajectory_has_nan_stderr(self):
        coeffs = feedback_coefficients()
        ens = simulate_closed_loop(
            coeffs, tracking_cost(), small_config(n_steps=50, t1=0.5),
            default_belief())
        mean, stderr = monte_carlo_expected_cost(ens)
        assert mean == pytest.approx(float(ens.total_costs[0]))
        assert math.isnan(stderr)

    def test_empty_ensemble_rejected(self):
        coeffs = feedback_coefficients()
        cfg = small_config(n_steps=10, t1=0.1)
        ens = simulate_closed_loop(coeffs, tracking_cost(), cfg,
                                   default_belief())
        hollow = dataclasses.replace(
            ens, means=ens.means[:0], controls=ens.controls[:0],
            outputs=ens.outputs[:0], innovations=ens.innovations[:0],
            running_costs=ens.running_costs[:0],
            total_costs=ens.total_costs[:0],
        )
        with pytest.raises(EmptyEnsemble):
            monte_carlo_expected_cost(hollow)

    def test_welford_agrees_with_two_pass(self):
        coeffs = feedback_coefficients()
        ens = simulate_closed_loop(
            coeffs, tracking_cost(),
            small_config(n_traj=500, seed=17, n_steps=50, t1=0.5, stride=50),
            default_belief())
        mean, stderr = monte_carlo_expected_cost(ens)
        totals = ens.total_costs
        assert mean == pytest.approx(float(totals.mean()), rel=1e-12)
        expect = totals.std(ddof=1) / math.sqrt(totals.size)
        assert stderr == pytest.approx(expect, rel=1e-12)

    def test_detuned_gain_costs_more(self):
        coeffs = feedback_coefficients()
        cost = tracking_cost()
        cfg = small_config(n_traj=2000, seed=41, n_steps=400, t1=2.0,
                           stride=400)
        base = simulate_closed_loop(coeffs, cost, cfg, default_belief())
        detuned = simulate_closed_loop(
            coeffs, cost, cfg, default_belief(),
            gain_offset=np.array([[0.2, 0.2]]))
        m0, s0 = monte_carlo_expected_cost(base)
        m1, s1 = monte_carlo_expected_cost(detuned)
        assert m1 >= m0 - 3.0 * (s0 + s1)

    def test_diverging_loop_raises(self):
        coeffs = feedback_coefficients()
        cfg = small_config(n_steps=1000, t1=1.0)
        with pytest.raises(NonFinite, match=r"trajectory 0 of seed 11 at step \d+, t="):
            simulate_closed_loop(
                coeffs, tracking_cost(), cfg, default_belief(),
                gain_offset=np.array([[0.0, -50.0]]))

    def test_escaping_trajectory_replays_alone(self):
        # of 16 trajectories driven unstable, trajectory 1 escapes first;
        # run alone from (seed, 1) it fails with the same message
        coeffs, offset = feedback_coefficients(), np.array([[0.0, -50.0]])
        messages = []
        for n_traj, first in ((16, 0), (1, 1)):
            with pytest.raises(NonFinite) as info:
                simulate_closed_loop(
                    coeffs, tracking_cost(), small_config(n_traj=n_traj, n_steps=1000, t1=1.0),
                    default_belief(), gain_offset=offset, first=first)
            messages.append(str(info.value))
        assert messages[0] == ("posterior mean passed 1e+12 in trajectory 1 of seed 11 "
                               "at step 335, t=0.335")
        assert messages[1] == messages[0]


class TestKalmanStep:
    def test_replaying_the_record_through_filter_step(self):
        # the loop's noisy path, re-filtered from its own outputs and
        # controls by the public Kalman step, gives back its means
        coeffs = feedback_coefficients()
        ens = simulate_closed_loop(
            coeffs, tracking_cost(), small_config(n_traj=3, seed=5),
            default_belief())
        rec, Sigma = ens[1], ens.Sigma_path
        belief = GaussianBelief(mean=rec.means[0], cov=Sigma.at(0))
        for k in range(ens.config.grid.n_steps):
            belief = filter_step(belief, rec.controls[k], rec.outputs[k + 1],
                                 ens.config.grid.dt, coeffs, Sigma.at(k + 1))
            gap = np.abs(belief.mean - rec.means[k + 1]).max()
            assert gap <= 1e-12 * np.abs(rec.means).max(), k

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), d=st.integers(1, 2),
           k=st.integers(1, 2), n_steps=st.integers(1, 40))
    def test_fused_step_replays_through_filter_step(self, seed, m, d, k, n_steps):
        # the precomputed per-step map against the oracle step, on any
        # small model: replaying outputs and controls gives back the means
        coeffs, cost, belief = random_problem(np.random.default_rng(seed), m, d, k)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.2, n_steps), n_traj=2, seed=seed)
        ens = simulate_closed_loop(coeffs, cost, cfg, belief)
        rec, Sigma = ens[1], ens.Sigma_path
        replayed = GaussianBelief(mean=rec.means[0], cov=Sigma.at(0))
        for step in range(n_steps):
            replayed = filter_step(replayed, rec.controls[step], rec.outputs[step + 1],
                                   cfg.grid.dt, coeffs, Sigma.at(step + 1))
            gap = np.abs(replayed.mean - rec.means[step + 1]).max()
            assert gap <= 1e-12 * np.abs(rec.means).max(), step


class TestCsv:
    def test_round_trip(self):
        coeffs = feedback_coefficients()
        ens = simulate_closed_loop(
            coeffs, tracking_cost(),
            small_config(n_traj=2, seed=8, n_steps=20, t1=0.2, stride=10),
            default_belief())
        buf = io.StringIO()
        trajectory_to_csv(ens[1], buf)
        buf.seek(0)
        header = buf.readline().strip()
        assert header == "t,Xhat_0,Xhat_1,u_0,dY_0,dYtilde_0"
        data = np.loadtxt(buf, delimiter=",")
        assert data.shape == (3, 6)
        np.testing.assert_array_equal(data[:, 0], ens.times)
        np.testing.assert_array_equal(data[:, 1:3], ens.means[1])
        np.testing.assert_array_equal(data[:, 5:6], ens.innovations[1])
