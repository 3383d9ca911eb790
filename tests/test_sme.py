import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import lindblad_heisenberg, lindblad_schrodinger, master_step, trajectory_stream
from test_closed_loop import record_noise_rows

from qlqg import sme
from qlqg._readers import SYM_TOL
from qlqg.ensemble import _BLOCK, _COLUMN_BLOCK, SimConfig, _chunk_width
from qlqg.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFinite,
    NotAProjectorFamily,
    NotUnitary,
    PositivityLoss,
    ValidationError,
)
from qlqg.phase_space import build_coefficients, free_particle_model
from qlqg.riccati import TimeGrid, lyapunov_unconditional
from qlqg.sme import (
    DensityMatrix,
    FiniteModel,
    ancilla_quadrature_projectors,
    discrete_conditioning,
    evolve_master,
    finite_model_from_json,
    simulate_sme_ensemble,
    sme_step,
    trace_distance,
    trace_norm,
    weak_measurement_unitary,
)
from qlqg.sme import (
    TRACE_TOL,
    _assembled,
    _check_states,
    _coords,
    _lindblad_map,
    _readouts,
    _sme_stack,
    _sme_update,
    _trace,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def dephasing_model():
    return FiniteModel(H0=np.zeros((2, 2)), L_list=[SZ])


def plus_state():
    return DensityMatrix.pure([1.0, 1.0])


def mixed_state():
    # enough mixedness that Euler steps cannot push an eigenvalue negative
    return DensityMatrix(0.5 * np.array([[1.0, 0.75], [0.75, 1.0]], dtype=complex))


def random_state(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_model(rng, n, channels=2):
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Ls = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(channels)
    ]
    return FiniteModel(H0=H + H.conj().T, L_list=Ls)


def controlled_model(rng, n, channels=2, hbar=1.0):
    # random H0 and couplings plus one control Hamiltonian, so the stacked
    # right factor [K' | L_1' | ... | L_d'] is (d+1)n wide with K != 0
    base = random_model(rng, n, channels)
    Hc = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FiniteModel(H0=base.H0, L_list=0.3 * base.L_list,
                       H_controls=[Hc + Hc.conj().T], hbar=hbar)


def layout_case(case):
    """(model, rho0, u) of each batch-layout and replay case: generic
    complex couplings, whose products round differently in different BLAS
    kernels (Pauli couplings would hide that), most with H != 0 and a
    control.  From n = 4 on (n^2 >= 16) the columns of a last, partial
    block of 8 round apart from full blocks unless the batch is padded.
    ``dim=1`` runs the padded batches too; renormalization pins its state
    to 1, so ``TestPlaneKernel`` checks the pad's rounding."""
    if case == "H0=0":
        model = random_model(np.random.default_rng(2), 2)
        return FiniteModel(H0=np.zeros((2, 2)), L_list=model.L_list), mixed_state(), None
    if case == "H0!=0":
        return random_model(np.random.default_rng(2), 2), mixed_state(), None
    if case == "dim=1":
        model = FiniteModel(H0=[[0.4]], L_list=[[[0.5 + 0.3j]]], H_controls=[[[1.0]]])
        return model, DensityMatrix(np.eye(1)), [0.7]
    n, d = (int(part[2:]) for part in case.split("-"))
    model = controlled_model(np.random.default_rng(n + 10 * d), n, channels=d)
    if n > 5:
        # the rates grow with n: halved couplings keep 50 Euler steps from
        # this start above the eigenvalue floor
        model = FiniteModel(H0=model.H0, L_list=0.5 * model.L_list,
                            H_controls=model.H_controls)
    rho0 = DensityMatrix(np.diag(np.arange(n, 0, -1.0)) / (n * (n + 1) / 2))
    return model, rho0, [0.7]


LAYOUT_CASES = ["H0=0", "H0!=0", "n=2-d=1", "n=3-d=1", "n=3-d=2", "n=4-d=1",
                "n=5-d=1", "n=5-d=2", "n=9-d=2", "dim=1"]


def layout_feedback(model):
    """A feedback of the layout cases: two random Hermitian readouts and a
    gain small enough to keep 50 steps above the eigenvalue floor."""
    rng = np.random.default_rng(model.dim + 100 * model.n_controls)
    n = model.dim
    observables = []
    for _ in range(2):
        O = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        observables.append(O + O.conj().T)
    return observables, 0.5 * rng.standard_normal((model.n_controls, 2))


def replay(rho0, model, grid, seed, index, **kwargs):
    """Trajectory ``index`` of ``seed`` run alone."""
    return simulate_sme_ensemble(
        rho0, model, SimConfig(grid=grid, n_traj=1, seed=seed), first=index, **kwargs)


def rk4_reference(rho, model, u, dt):
    """One RK4 step of the commutator-form generator, on complex matrices."""
    def flow(X):
        return lindblad_schrodinger(X, model, u)
    k1 = flow(rho)
    k2 = flow(rho + 0.5 * dt * k1)
    k3 = flow(rho + 0.5 * dt * k2)
    k4 = flow(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameter, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidParameter, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_state(self):
        # a state given below the floor is rejected input, not a numerical failure
        with pytest.raises(InvalidParameter, match=r"^state eigenvalue -5\.000e-01 below floor$"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_tolerates_tiny_negativity(self):
        eps = 5e-7
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
        assert rho.min_eigenvalue() == pytest.approx(-eps, rel=1e-6)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.zeros((2, 3)))

    def test_pure_state_normalizes(self):
        rho = DensityMatrix.pure([2.0, 2.0])
        np.testing.assert_allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_pure_rejects_zero_vector(self):
        with pytest.raises(InvalidParameter):
            DensityMatrix.pure([0.0, 0.0])

    def test_expectation(self):
        assert plus_state().expectation(SX).real == pytest.approx(1.0)
        with pytest.raises(DimensionMismatch):
            plus_state().expectation(np.eye(3))

    def test_entries_frozen(self):
        rho = plus_state()
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 2.0

    def test_trace_distance_rejects_states_of_other_dimensions(self):
        rho3 = DensityMatrix(np.eye(3) / 3.0)
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\) and \(3, 3\)"):
            trace_distance(plus_state(), rho3)
        with pytest.raises(DimensionMismatch):
            trace_distance(rho3.entries, plus_state().entries)

    @pytest.mark.parametrize("X", [
        "a", np.zeros((2, 3)), [[math.nan, 0.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]],
    ], ids=["string", "not square", "nan", "not Hermitian"])
    def test_trace_norm_reads_a_hermitian_matrix(self, X):
        # junk, a non-square array, a NaN and a non-Hermitian matrix are
        # rejected input, not a LinAlgError, a 0 or a norm read off one
        # triangle; trace_distance names the state it read
        with pytest.raises(ValidationError):
            trace_norm(X)
        with pytest.raises(ValidationError, match="^b "):
            trace_distance(plus_state(), X)


class TestFiniteModel:
    def test_hamiltonian_combination(self):
        model = FiniteModel(H0=SZ, L_list=[], H_controls=[SX, SY])
        H = model.hamiltonian([0.5, -1.0])
        np.testing.assert_allclose(H, SZ + 0.5 * SX - 1.0 * SY, atol=1e-15)
        np.testing.assert_allclose(model.hamiltonian(), SZ, atol=1e-15)

    def test_rejects_non_hermitian_h0(self):
        with pytest.raises(InvalidParameter, match="H0"):
            FiniteModel(H0=np.array([[0.0, 1.0], [0.0, 0.0]]), L_list=[])

    def test_rejects_non_hermitian_control(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidParameter, match="H_controls"):
            FiniteModel(H0=SZ, L_list=[], H_controls=[bad])

    def test_rejects_wrong_control_length(self):
        model = FiniteModel(H0=SZ, L_list=[], H_controls=[SX])
        with pytest.raises(DimensionMismatch):
            model.hamiltonian([1.0, 2.0])

    def test_rejects_bad_hbar(self):
        with pytest.raises(InvalidParameter, match="hbar"):
            FiniteModel(H0=SZ, L_list=[], hbar=0.0)

    def test_numeric_string_hbar_is_stored_as_float(self):
        grid = TimeGrid(0.0, 0.1, 10)
        paths = []
        for hbar in ("2", 2.0):
            model = FiniteModel(H0=0.5 * SX, L_list=[0.5 * SZ], hbar=hbar)
            assert type(model.hbar) is float
            paths.append(evolve_master(plus_state(), model, grid)[1])
        np.testing.assert_array_equal(*paths)

    @pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_control(self, u):
        # rejected input, not a state that leaves the finite range later
        model = FiniteModel(H0=SZ, L_list=[SX], H_controls=[SX])
        with pytest.raises(InvalidParameter, match="control"):
            model.hamiltonian([u])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=2, seed=0)
        with pytest.raises(InvalidParameter, match="control"):
            simulate_sme_ensemble(plus_state(), model, cfg, u=[u])

    @pytest.mark.parametrize("u", ["x", [[1.0], [2.0, 3.0]], {"u": 1.0}])
    def test_rejects_non_numeric_control(self, u):
        # a raw ValueError or TypeError from numpy would leave the CLI
        model = FiniteModel(H0=SZ, L_list=[SX], H_controls=[SX])
        with pytest.raises(InvalidParameter, match="control must be real numbers"):
            model.hamiltonian(u)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=2, seed=0)
        with pytest.raises(InvalidParameter, match="control must be real numbers"):
            simulate_sme_ensemble(plus_state(), model, cfg, u=u)

    def test_rejects_mismatched_coupling(self):
        with pytest.raises(DimensionMismatch):
            FiniteModel(H0=SZ, L_list=[np.zeros((3, 3))])

    def test_counts(self):
        model = FiniteModel(H0=SZ, L_list=[SX, SY], H_controls=[SZ])
        assert (model.dim, model.n_channels, model.n_controls) == (2, 2, 1)

    @pytest.mark.parametrize("L_list", [
        np.array([SX + 1j * SZ]), SX + 1j * SZ, np.array([SX, SZ]), [SX + 1j * SZ]],
        ids=["complex-stack", "complex-matrix", "real-stack", "list"])
    def test_leaves_the_callers_arrays_writeable_and_unchanged(self, L_list):
        # the model freezes what it stores, never an array of the caller's
        H0, H_controls = SZ.astype(complex), np.array([SX, SY])
        arrays = [H0, H_controls, *(L_list if isinstance(L_list, list) else [L_list])]
        before = [a.copy() for a in arrays]
        model = FiniteModel(H0=H0, L_list=L_list, H_controls=H_controls)
        for a, b in zip(arrays, before):
            assert a.flags.writeable
            np.testing.assert_array_equal(a, b)
        for stored in (model.H0, model.L_list, model.H_controls):
            assert not stored.flags.writeable
            assert not any(np.may_share_memory(stored, a) for a in arrays)


def random_hermitian(rng, n, scale):
    """``Q diag(lambda) Q'`` for a random unitary Q and eigenvalues of
    ``scale``: Hermitian only up to the rounding of the product."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (Q * (scale * rng.standard_normal(n))) @ Q.conj().T


# every entry point that reads a complex operator that must be Hermitian,
# as (name its message gives, call with the operator X of dimension 4)
HERMITIAN_INPUTS = {
    "H0": lambda X: FiniteModel(H0=X, L_list=[]),
    "H_controls[0]": lambda X: FiniteModel(H0=np.zeros((4, 4)), L_list=[], H_controls=[X]),
    "feedback observable 0": lambda X: simulate_sme_ensemble(
        DensityMatrix(np.eye(4) / 4),
        FiniteModel(H0=np.zeros((4, 4)), L_list=[np.eye(4)], H_controls=[np.eye(4)]),
        SimConfig(grid=TimeGrid(0.0, 0.01, 1), n_traj=1, seed=0), feedback=([X], [[1.0]])),
    "H": lambda X: weak_measurement_unitary(np.zeros((4, 4)), 1e-3, H=X),
    "state": DensityMatrix,
}


class TestHermitianInput:
    def test_large_hamiltonians_are_kept_exactly_hermitian(self):
        # an absolute tolerance of 1e-12 rejected about a third of these
        rng = np.random.default_rng(28)
        for _ in range(100):
            H = random_hermitian(rng, 4, 1e4)
            model = FiniteModel(H0=H, L_list=[], H_controls=[H])
            for term in (model.H0, model.H_controls[0]):
                np.testing.assert_array_equal(term, term.conj().T)
                assert np.abs(term - H).max() <= SYM_TOL * np.abs(H).max()

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("name", HERMITIAN_INPUTS)
    def test_asymmetry_of_ten_times_the_bound_is_rejected(self, name, scale):
        rng = np.random.default_rng(int(scale))
        X = random_hermitian(rng, 4, scale)
        X = 0.5 * (X + X.conj().T)
        X[0, 1] += 10 * SYM_TOL * max(1.0, np.abs(X).max())
        with pytest.raises(InvalidParameter, match=f"^{re.escape(name)} is not Hermitian$"):
            HERMITIAN_INPUTS[name](X)


class TestLindblad:
    def test_identity_is_fixed(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3)
        out = lindblad_heisenberg(np.eye(3, dtype=complex), model)
        assert np.abs(out).max() < 1e-12

    def test_dephasing_shrinks_sigma_x(self):
        out = lindblad_heisenberg(SX, dephasing_model())
        np.testing.assert_allclose(out, -2.0 * SX, atol=1e-14)

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(InvalidParameter):
            lindblad_heisenberg(np.array([[0, 1], [0, 0]]), dephasing_model())

    def test_adjoint_identity(self):
        # pairing either generator against the other side must agree
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            for _ in range(20):
                model = random_model(rng, n)
                rho = random_state(rng, n)
                X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                X = X + X.conj().T
                lhs = np.einsum(
                    "ij,ji->", lindblad_schrodinger(rho.entries, model), X
                )
                rhs = np.einsum(
                    "ij,ji->", rho.entries, lindblad_heisenberg(X, model)
                )
                assert abs(lhs - rhs) < 1e-10

    def test_state_generator_is_traceless(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            model = random_model(rng, 3)
            rho = random_state(rng, 3)
            assert abs(np.trace(lindblad_schrodinger(rho.entries, model))) < 1e-12

    def test_flow_derivative_oracle(self):
        # <L[X]> against a finite difference of the master flow at t=0
        rng = np.random.default_rng(44)
        model = random_model(rng, 3)
        rho = random_state(rng, 3)
        X = rng.standard_normal((3, 3))
        X = (X + X.T).astype(complex)
        h = 1e-8
        stepped = master_step(rho, model, None, h)
        fd = (stepped.expectation(X).real - rho.expectation(X).real) / h
        direct = np.einsum(
            "ij,ji->", rho.entries, lindblad_heisenberg(X, model)
        ).real
        assert abs(fd - direct) < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fused_generator_matches_commutator_form(self, n):
        # the coordinate generator G, built from the hoisted
        # K = -iH(u)/hbar - sum L'L/2, feeds both the SME step and the master
        # flow, so it is checked against the commutator form, and every M_c
        # of the SME stack against Lc rho + rho Lc'
        rng = np.random.default_rng(70 + n)
        for _ in range(10):
            model = controlled_model(rng, n, hbar=rng.uniform(0.5, 2.0))
            u = [rng.uniform(0.5, 2.0)]
            rho = random_state(rng, n).entries
            h = _coords(rho[None])
            fused = _assembled(_lindblad_map(model, u) @ h)[0]
            ref = lindblad_schrodinger(rho, model, u)
            assert np.abs(fused - ref).max() <= 1e-13
            maps = _sme_stack(model, u, 1e-3)[n * n:].reshape(-1, n * n, n * n)
            for M, L in zip(maps, model.L_list):
                plus = L @ rho + rho @ L.conj().T
                assert np.abs(_assembled(M @ h)[0] - plus).max() <= 1e-13

    def test_stepped_states_are_exactly_hermitian(self):
        # both flows carry coordinates and never project; DensityMatrix
        # stores the Hermitian part of its input, so the assembled states
        # are checked, and the outputs that skip it
        rng = np.random.default_rng(9)
        model = controlled_model(rng, 3)
        stack = _sme_stack(model, [0.4], 1e-3)
        h = _coords(np.stack([random_state(rng, 3).entries for _ in range(8)]))
        for _ in range(20):
            h = _sme_update(h, stack, 0.03 * rng.standard_normal((2, 8)),
                            np.empty((len(stack), 8)), np.zeros((2, 8)))
            states = _assembled(h)
            np.testing.assert_array_equal(states, states.conj().swapaxes(1, 2))
            np.testing.assert_array_equal(_coords(states), h)
        grid = TimeGrid(0.0, 0.02, 20)
        rho0 = random_state(rng, 3)
        ens = simulate_sme_ensemble(rho0, model, SimConfig(grid=grid, n_traj=5, seed=4),
                                    u=[0.4])
        _, master = evolve_master(rho0, model, grid, u=[0.4])
        for states in (ens.final_states, ens.mean_states, master):
            np.testing.assert_array_equal(states, states.conj().swapaxes(1, 2))

    def test_hbar_scales_hamiltonian_part(self):
        fast = FiniteModel(H0=SZ, L_list=[])
        slow = FiniteModel(H0=SZ, L_list=[], hbar=2.0)
        out_fast = lindblad_heisenberg(SX, fast)
        out_slow = lindblad_heisenberg(SX, slow)
        np.testing.assert_allclose(out_slow, 0.5 * out_fast, atol=1e-14)


class TestPlaneKernel:
    # a trajectory's numbers must not depend on how many share its batch
    # (the class keeps the name of the kernel these guards were written for)

    def test_padded_product_rounds_as_in_a_wide_one(self):
        # OpenBLAS dgemm rounds the columns of a last, partial block of 8
        # apart from full blocks once the inner dimension is 16 or more, and
        # a one-row or one-column product goes to GEMV, so both simulators
        # hold a chunk in a multiple of _COLUMN_BLOCK columns: every width
        # from 1 to 20, padded, gives the same columns as a product of 1300.
        # The left factors are SME stacks and one-row (1, k) matrices, as
        # the closed loop's products with one state, channel or control
        rng = np.random.default_rng(60)
        lefts = [(f"n={n}", _sme_stack(controlled_model(rng, n), [0.7], 1e-3))
                 for n in (2, 4, 5, 9)]
        lefts += [(f"(1, {k})", rng.standard_normal((1, k))) for k in (1, 2, 3, 16)]
        for name, left in lefts:
            h = rng.standard_normal((left.shape[1], 1300))
            wide = left @ h
            for width in range(1, 21):
                pad = -width % _COLUMN_BLOCK
                padded = np.pad(h[:, :width], ((0, 0), (0, pad)))
                np.testing.assert_array_equal(
                    (left @ padded)[:, :width], wide[:, :width],
                    err_msg=f"{name}, width={width}")

    def test_readout_rows_give_expectations(self):
        rng = np.random.default_rng(61)
        states = np.stack([random_state(rng, 3).entries for _ in range(5)])
        O = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        O = O + O.conj().swapaxes(1, 2)
        want = np.einsum("bij,kji->kb", states, O).real
        np.testing.assert_allclose(_readouts(O) @ _coords(states), want,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_trace_rounds_alike_for_every_batch(self, n):
        # a reduction call regroups a long sum when the batch has one column
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n * n, 9)) * 10.0 ** rng.uniform(-3, 3, (n * n, 9))
        wide = _trace(h)
        for b in range(9):
            np.testing.assert_array_equal(_trace(h[:, b:b + 1]), wide[b:b + 1])


class TestMasterStep:
    def test_free_evolution_is_identity(self):
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[])
        rho = plus_state()
        out = master_step(rho, model, None, 0.1)
        np.testing.assert_array_equal(out.entries, rho.entries)

    def test_decoherence_closed_form(self):
        grid = TimeGrid(0.0, 1.0, 1000)
        times, states = evolve_master(plus_state(), dephasing_model(), grid,
                                      record_stride=100)
        expected = 0.5 * np.exp(-2.0 * times)
        np.testing.assert_allclose(states[:, 0, 1].real, expected, atol=1e-10)
        assert np.abs(states[:, 0, 1].imag).max() < 1e-14

    def test_trace_pinned_along_flow(self):
        model = random_model(np.random.default_rng(3), 3)
        rho = random_state(np.random.default_rng(4), 3)
        for _ in range(200):
            rho = master_step(rho, model, None, 1e-3)
            assert abs(np.trace(rho.entries) - 1.0) < 1e-12

    def test_coarse_step_loses_positivity(self):
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[lower])
        excited = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(PositivityLoss):
            master_step(excited, model, None, 3.0)
        with pytest.raises(PositivityLoss, match=r"at step 1, t=3$"):
            evolve_master(excited, model, TimeGrid(0.0, 6.0, 2))

    @pytest.mark.parametrize("case", ["n=2-d=1", "n=2-d=2", "n=3-d=1", "n=3-d=2",
                                      "n=5-d=1", "n=5-d=2", "n=9-d=1"])
    def test_evolve_master_matches_master_step_loop(self, case):
        # a step is one matrix on coordinates, the Taylor polynomial of the
        # generator, so the block loop gives the states of a master_step
        # loop bit for bit, and both stay within roundoff of RK4 on the
        # commutator form; 600 steps fill two blocks and part of a third
        n, d = (int(part[2:]) for part in case.split("-"))
        rng = np.random.default_rng(40 + n + 10 * d)
        model = controlled_model(rng, n, channels=d, hbar=1.7)
        rho = random_state(rng, n)
        grid = TimeGrid(0.0, 0.15, 600)
        times, states = evolve_master(rho, model, grid, u=[0.6], record_stride=3)
        ref, exact = [rho.entries], [rho.entries]
        reference = rho.entries
        for step in range(1, grid.n_steps + 1):
            rho = master_step(rho, model, [0.6], grid.dt)
            reference = rk4_reference(reference, model, [0.6], grid.dt)
            if step % 3 == 0:
                ref.append(rho.entries)
                exact.append(reference)
        np.testing.assert_array_equal(times, grid.times()[::3])
        np.testing.assert_array_equal(states, np.array(ref))
        assert np.abs(states - np.array(exact)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 9])
    def test_positivity_loss_names_first_failing_step_of_a_block(self, n):
        # amplitude damping far past RK4's stability limit: the excited
        # population grows ~1.59-fold a step from 1e-60, so the ground
        # eigenvalue first drops below the floor at step 299, inside the
        # second block of 256 steps, and later steps of that block are worse
        lower = np.zeros((n, n), dtype=complex)
        lower[0, 1] = 1.0
        model = FiniteModel(H0=np.zeros((n, n)), L_list=[lower])
        pops = np.zeros(n)
        pops[:2] = [1.0, 1e-60]
        rho0 = DensityMatrix(np.diag(pops).astype(complex))
        grid = TimeGrid(0.0, 3.1 * 400, 400)
        rho, lows = rho0.entries, []
        for _ in range(grid.n_steps):
            rho = rk4_reference(rho, model, None, grid.dt)
            lows.append(np.linalg.eigvalsh(rho)[0])
        lows = np.array(lows)
        first = int(np.argmax(lows < -1e-6)) + 1
        assert first == 299 and lows[first:].min() < lows[first - 1]
        rho = rho0
        with pytest.raises(PositivityLoss):
            for step in range(1, grid.n_steps + 1):
                rho = master_step(rho, model, None, grid.dt)
        assert step == first
        with pytest.raises(PositivityLoss, match=r"at step 299, t=926\.9$"):
            evolve_master(rho0, model, grid)

    def test_block_check_names_the_earliest_failing_step(self):
        # a block is tested at once; the earliest failing step is reported,
        # and a step failing several tests reports them in the order finite,
        # eigenvalue floor, unit trace
        states = np.repeat(np.diag([0.6, 0.4])[None], 8, axis=0).astype(complex)
        states[3] = np.diag([0.6, 0.4 + 1e-6])
        states[4] = np.diag([1.1, -0.1])
        states[5, 0, 1] = states[5, 1, 0] = np.nan
        expected = [(InvalidParameter, "trace off 1 by 1.000e-06 in step 4"),
                    (PositivityLoss, "eigenvalue -1.000e-01 below floor in step 5"),
                    (NonFinite, "finite range in step 6")]
        for k, (error, message) in enumerate(expected):
            with pytest.raises(error, match=f"{message}$"):
                _check_states(_coords(states), lambda b: f"step {b + 1}", TRACE_TOL)
            states[3 + k] = np.diag([0.6, 0.4])
        _check_states(_coords(states), lambda b: f"step {b + 1}", TRACE_TOL)
        states[2] = np.diag([1.2, -0.1])
        states[2, 0, 1] = states[2, 1, 0] = np.nan
        with pytest.raises(NonFinite, match="in step 3$"):
            _check_states(_coords(states), lambda b: f"step {b + 1}", TRACE_TOL)
        states[2] = np.diag([1.2, -0.1])
        with pytest.raises(PositivityLoss, match="in step 3$"):
            _check_states(_coords(states), lambda b: f"step {b + 1}", TRACE_TOL)

    def test_check_names_the_earliest_column_whatever_its_fault(self):
        # an earlier column below the floor is named before a later
        # non-finite one, and before a later one with a lower eigenvalue
        states = np.repeat(np.diag([0.6, 0.4])[None], 8, axis=0).astype(complex)
        states[2] = np.diag([1.01, -0.01])
        states[4] = np.diag([1.5, -0.5])
        states[6, 0, 1] = states[6, 1, 0] = np.inf
        for trace_tol in (math.inf, TRACE_TOL):
            with pytest.raises(PositivityLoss, match="-1.000e-02 below floor in step 3$"):
                _check_states(_coords(states), lambda b: f"step {b + 1}", trace_tol)
        states[2] = np.diag([0.6, 0.4])
        states[4] = np.diag([0.6, 0.4])
        with pytest.raises(NonFinite, match="in step 7$"):
            _check_states(_coords(states), lambda b: f"step {b + 1}")
        states[6] = np.diag([0.6, 0.4 + 1e-6])
        # a renormalized flow passes nothing for the trace
        trace_dev, low = _check_states(_coords(states), lambda b: f"step {b + 1}")
        assert trace_dev == pytest.approx(1e-6) and low == pytest.approx(0.4)

    def test_qubit_check_needs_no_finiteness_pass(self):
        # a qubit block goes straight to its closed form: a NaN or +-inf in
        # any coordinate row of a column, or r00 = +inf with r11 = -inf,
        # fails the block, and the failure path names that column
        # NonFinite; a finite column before it is named first when it
        # fails the floor or (where the flow checks it) the trace.  No
        # numpy warning escapes on the way
        rng = np.random.default_rng(30)
        p = rng.uniform(0.3, 0.7, 48)
        # three steps of 16 columns: r00, r11, Re r01 and Im r01 per column
        block = np.stack([p, 1.0 - p, rng.uniform(-0.2, 0.2, 48),
                          rng.uniform(-0.2, 0.2, 48)])
        where, bad = (lambda b: f"column {b}"), 37
        trace_dev, low = _check_states(block, where, TRACE_TOL)
        assert trace_dev <= 1e-15 and low > 0.0
        planted = [((row,), (value,)) for row in range(4)
                   for value in (np.nan, np.inf, -np.inf)]
        planted.append(((0, 1), (np.inf, -np.inf)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows, values in planted:
                h = block.copy()
                h[list(rows), bad] = values
                for trace_tol in (math.inf, TRACE_TOL):
                    with pytest.raises(NonFinite, match=f"finite range in column {bad}$"):
                        _check_states(h, where, trace_tol)
                    floor = h.copy()
                    floor[:, 21] = [1.01, -0.01, 0.0, 0.0]
                    with pytest.raises(PositivityLoss,
                                       match="-1.000e-02 below floor in column 21$"):
                        _check_states(floor, where, trace_tol)
                off = h.copy()
                off[1, 21] += 1e-6
                with pytest.raises(InvalidParameter, match=r"trace off 1 by 1\.000e-06 "
                                                           "in column 21$"):
                    _check_states(off, where, TRACE_TOL)
                with pytest.raises(NonFinite, match=f"in column {bad}$"):
                    _check_states(off, where)

    def test_recorded_times_are_those_of_the_grid(self):
        # the recorded times are computed without the full grid, with
        # np.linspace's arithmetic
        for grid, stride in [(TimeGrid(0.0, 1.0, 1000), 100),
                             (TimeGrid(-0.3, 2.7, 999), 3), (TimeGrid(0, 1, 7), 1),
                             (TimeGrid(1e6, 1e6 + 1e-3, 64), 8)]:
            points = np.linspace(grid.t0, grid.t1, grid.n_steps + 1)
            times, _ = evolve_master(plus_state(), dephasing_model(), grid,
                                     record_stride=stride)
            np.testing.assert_array_equal(times, points[::stride])
            np.testing.assert_array_equal(grid.times(), points)
            # a stride that does not divide n_steps stops short of t1
            np.testing.assert_array_equal(grid.times(stride + 1), points[::stride + 1])
        # a step that rounds to 0 is no grid: its flows would never move
        with pytest.raises(InvalidParameter, match="grid step dt must be positive"):
            TimeGrid(0.0, 2e-323, 9)

    def test_rejects_bad_dt(self):
        for dt in (0.0, np.inf):
            with pytest.raises(InvalidParameter):
                master_step(plus_state(), dephasing_model(), None, dt)

    @pytest.mark.filterwarnings("error")
    def test_narrow_integer_stride(self):
        # n_steps // np.int8(100) overflows int8 for 1000 steps
        grid = TimeGrid(0.0, 0.1, 1000)
        narrow, wide = (evolve_master(plus_state(), dephasing_model(), grid,
                                      record_stride=stride) for stride in (np.int8(100), 100))
        for a, b in zip(narrow, wide):
            np.testing.assert_array_equal(a, b)

    def test_evolve_master_rejects_bad_stride(self):
        with pytest.raises(InvalidParameter):
            evolve_master(plus_state(), dephasing_model(),
                          TimeGrid(0.0, 1.0, 10), record_stride=3)

    @pytest.mark.parametrize("stride", [0, -5, 2.0, True])
    def test_evolve_master_rejects_a_stride_that_is_not_a_count(self, stride):
        with pytest.raises(InvalidParameter, match="record_stride must be an integer >= 1"):
            evolve_master(plus_state(), dephasing_model(),
                          TimeGrid(0.0, 1.0, 10), record_stride=stride)

    def test_truncated_oscillator_matches_moment_flow(self):
        # position-coupled free mass in a 40-level ladder basis: second
        # moments of the master flow track the unconditional Gaussian flow
        n = 40
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        Q = (a + a.conj().T) / math.sqrt(2.0)
        P = 1j * (a.conj().T - a) / math.sqrt(2.0)
        model = FiniteModel(H0=P @ P / 2.0, L_list=[Q])
        vac = np.zeros((n, n), dtype=complex)
        vac[0, 0] = 1.0
        grid = TimeGrid(0.0, 0.5, 500)
        times, states = evolve_master(DensityMatrix(vac), model, grid,
                                      record_stride=100)

        coeffs = build_coefficients(free_particle_model())
        ref = lyapunov_unconditional(coeffs, np.diag([0.5, 0.5]), grid)

        def sym_expect(rho, A, B):
            return float(np.trace(rho @ (A @ B + B @ A)).real / 2.0)

        for row, t in enumerate(times):
            rho = states[row]
            mq = float(np.trace(rho @ Q).real)
            mp = float(np.trace(rho @ P).real)
            got = np.array([
                [sym_expect(rho, Q, Q) - mq * mq,
                 sym_expect(rho, Q, P) - mq * mp],
                [sym_expect(rho, Q, P) - mq * mp,
                 sym_expect(rho, P, P) - mp * mp],
            ])
            want = ref.values[int(round(t / grid.dt))]
            assert np.abs(got - want).max() <= 0.01 * np.abs(want).max()


@pytest.mark.parametrize("error", [MemoryError, ValueError])
def test_maps_too_large_for_memory_are_rejected_input(monkeypatch, error):
    # what numpy raises when the (n^2, n^2) maps of a model cannot be allocated
    def no_room(*args):
        raise error("cannot allocate")

    monkeypatch.setattr(sme, "_superoperator", no_room)
    cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=2, seed=0)
    with pytest.raises(InvalidParameter,
                       match="dim-2 model needs filtering maps larger than memory"):
        simulate_sme_ensemble(plus_state(), dephasing_model(), cfg)
    with pytest.raises(InvalidParameter,
                       match="dim-2 model needs a master-flow map larger than memory"):
        evolve_master(plus_state(), dephasing_model(), cfg.grid)


def test_paths_too_large_for_memory_are_rejected_input():
    # every step of 2^62 recorded: the recorded paths of the ensemble and
    # of the master flow have more bytes than an array can address, so
    # numpy refuses each before it allocates anything
    grid = TimeGrid(0.0, 1.0, 2**62)
    message = f"n_steps {2**62} needs a path larger than memory"
    with pytest.raises(InvalidParameter, match=message):
        simulate_sme_ensemble(plus_state(), dephasing_model(),
                              SimConfig(grid=grid, n_traj=2, seed=0))
    with pytest.raises(InvalidParameter, match=message):
        evolve_master(plus_state(), dephasing_model(), grid)


class TestSmeStep:
    def test_numeric_string_dt_is_read_as_float(self):
        model = FiniteModel(H0=0.3 * SX, L_list=[0.5 * SZ])
        a, b = (sme_step(plus_state(), model, None, [0.04], dt) for dt in ("0.01", 0.01))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_no_coupling_ignores_record(self):
        model = FiniteModel(H0=0.3 * SX, L_list=[np.zeros((2, 2))])
        rho = plus_state()
        a = sme_step(rho, model, None, [0.4], 1e-3)
        b = sme_step(rho, model, None, [-2.0], 1e-3)
        np.testing.assert_array_equal(a.entries, b.entries)
        euler = rho.entries + 1e-3 * lindblad_schrodinger(rho.entries, model)
        euler /= np.trace(euler).real
        np.testing.assert_allclose(a.entries, euler, atol=1e-15)

    def test_fluctuation_coefficient_is_traceless(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_state(rng, 3).entries
            L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            e = np.trace(rho @ (L + L.conj().T)).real
            fluct = rho @ L.conj().T + L @ rho - e * rho
            assert abs(np.trace(fluct)) < 1e-12

    def test_trace_renormalized(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 2)
        rho = random_state(rng, 2)
        out = sme_step(rho, model, None, rng.standard_normal(2) * 0.03, 1e-3)
        assert abs(np.trace(out.entries) - 1.0) < 1e-14

    def test_conditional_mean_is_martingale_one_step(self):
        # averaging the two records +-dW returns the dephasing-invariant
        # <sigma_z> exactly
        rho = DensityMatrix(0.5 * np.array([[1.2, 0.5], [0.5, 0.8]]))
        model = dephasing_model()
        dt, dw = 1e-3, 0.02
        e = 2.0 * rho.expectation(SZ).real
        up = sme_step(rho, model, None, [e * dt + dw], dt)
        dn = sme_step(rho, model, None, [e * dt - dw], dt)
        avg = 0.5 * (up.expectation(SZ).real + dn.expectation(SZ).real)
        assert avg == pytest.approx(rho.expectation(SZ).real, abs=1e-12)

    def test_replaying_the_record_through_sme_step(self):
        # a trajectory's own record dY = <L+L'> dt + dW, fed back through
        # the public step, gives back its states
        model = random_model(np.random.default_rng(2), 2)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.05, 50), n_traj=1, seed=21)
        traj = simulate_sme_ensemble(mixed_state(), model, cfg)
        rho = mixed_state()
        for k in range(cfg.grid.n_steps):
            rho = sme_step(rho, model, None, traj.mean_outputs[k + 1], cfg.grid.dt)
            np.testing.assert_allclose(rho.entries, traj.mean_states[k + 1],
                                       rtol=0, atol=1e-12)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sme_step(plus_state(), dephasing_model(), None, [0.1, 0.2], 1e-3)

    @pytest.mark.parametrize("dY", [[np.nan], [np.inf], [-np.inf], ["x"], [None]])
    def test_rejects_a_bad_record_as_bad_input(self, dY):
        # a record that is not finite numbers is bad input, not a
        # numerical failure of the step
        with pytest.raises(InvalidParameter, match="record dY"):
            sme_step(plus_state(), dephasing_model(), None, dY, 1e-3)

    def test_rejects_bad_dt(self):
        for dt in (-1e-3, np.inf):
            with pytest.raises(InvalidParameter):
                sme_step(plus_state(), dephasing_model(), None, [0.1], dt)


class TestTrajectory:
    # one trajectory is the ensemble with n_traj=1: its mean paths are
    # that trajectory's own

    def test_replays_any_ensemble_trajectory(self):
        # run alone from (seed, index), a trajectory ends where it ends
        # inside its 1300-trajectory ensemble: first and last of the first
        # chunk, first and last of the second, for every layout case, under
        # a constant control and under feedback
        grid = TimeGrid(0.0, 0.05, 50)
        for case, feedback in itertools.product(LAYOUT_CASES, [False, True]):
            model, rho0, u = layout_case(case)
            kwargs = {"u": u, "feedback": layout_feedback(model) if feedback else None}
            ens = simulate_sme_ensemble(
                rho0, model, SimConfig(grid=grid, n_traj=1300, seed=21), **kwargs)
            for index in (0, 5, 1023, 1024, 1299):
                alone = replay(rho0, model, grid, 21, index, **kwargs)
                np.testing.assert_array_equal(
                    alone.final_states[0], ens.final_states[index], err_msg=case)
                np.testing.assert_array_equal(
                    alone.mean_states[-1], alone.final_states[0], err_msg=case)

    def test_replays_trajectories_past_64_bits(self):
        # the ensemble holds indices of two 32-bit words (to 2^64 - 1) and
        # of three (2^64); each still runs alone as it runs in it
        grid = TimeGrid(0.0, 0.05, 50)
        ens = simulate_sme_ensemble(mixed_state(), dephasing_model(),
                                    SimConfig(grid=grid, n_traj=6, seed=5), first=2**64 - 5)
        for i in range(6):
            alone = replay(mixed_state(), dephasing_model(), grid, 5, 2**64 - 5 + i)
            np.testing.assert_array_equal(alone.final_states[0], ens.final_states[i])

    @pytest.mark.parametrize("index", [-1, 1.5, "3", True, False])
    def test_rejects_bad_index(self, index):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=1, seed=0)
        with pytest.raises(InvalidParameter, match="first must be an integer >= 0"):
            simulate_sme_ensemble(plus_state(), dephasing_model(), cfg, first=index)

    def test_deterministic_given_seed(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.2, 200), n_traj=1, seed=42)
        a = simulate_sme_ensemble(mixed_state(), dephasing_model(), cfg)
        b = simulate_sme_ensemble(mixed_state(), dephasing_model(), cfg)
        np.testing.assert_array_equal(a.mean_states, b.mean_states)
        np.testing.assert_array_equal(a.mean_outputs, b.mean_outputs)

    def test_zero_coupling_gives_schroedinger_flow(self):
        # L=0 keeps the record pure noise and the state unitary
        model = FiniteModel(H0=0.7 * SX, L_list=[np.zeros((2, 2))])
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 1000), n_traj=1, seed=9,
                        record_stride=100)
        traj = simulate_sme_ensemble(
            DensityMatrix(np.diag([0.95, 0.05]).astype(complex)), model, cfg)
        z = np.einsum("tij,ji->t", traj.mean_states, SZ).real
        np.testing.assert_allclose(z, 0.9 * np.cos(1.4 * traj.times), atol=5e-3)

    def test_record_contains_signal_plus_noise(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.5, 500), n_traj=1, seed=3,
                        record_stride=500)
        rho0 = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        traj = simulate_sme_ensemble(rho0, dephasing_model(), cfg)
        # <L+L'> = 2<sigma_z> near 1.6-2.0 for this start; one block sum
        assert traj.mean_outputs[-1, 0] == pytest.approx(
            2.0 * 0.8 * 0.5, abs=4.0 * math.sqrt(0.5) + 0.35
        )

    def test_feedback_policy_recorded(self):
        # u = -0.5 <sigma_z> of the trajectory's own filter state, recorded
        # at every tenth step; replaying the record through the public step
        # under that control, recomputed by hand, gives back the states
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[SZ],
                            H_controls=[SY])
        grid = TimeGrid(0.0, 0.1, 100)
        feedback = ([SZ], [[0.5]])
        cfg = SimConfig(grid=grid, n_traj=1, seed=7, record_stride=10)
        traj = simulate_sme_ensemble(mixed_state(), model, cfg, feedback=feedback)
        assert traj.mean_controls.shape == (11, 1)
        final_z = DensityMatrix(traj.mean_states[-1]).expectation(SZ).real
        assert traj.mean_controls[-1, 0] == pytest.approx(-0.5 * final_z, abs=1e-12)

        every = simulate_sme_ensemble(mixed_state(), model,
                                      SimConfig(grid=grid, n_traj=1, seed=7),
                                      feedback=feedback)
        np.testing.assert_array_equal(every.mean_states[::10], traj.mean_states)
        rho = mixed_state()
        for k in range(grid.n_steps):
            u = [-0.5 * rho.expectation(SZ).real]
            assert every.mean_controls[k, 0] == pytest.approx(u[0], abs=1e-12)
            rho = sme_step(rho, model, u, every.mean_outputs[k + 1], grid.dt)
            np.testing.assert_allclose(rho.entries, every.mean_states[k + 1],
                                       rtol=0, atol=1e-12)

    def test_rejects_dim_mismatch(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.1, 10), n_traj=1, seed=0)
        rho3 = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        with pytest.raises(DimensionMismatch):
            simulate_sme_ensemble(rho3, dephasing_model(), cfg)

    def test_posterior_cost_matches_gaussian_bookkeeping(self):
        # sigma_z^2 = I makes <z>^2 + Var(z) exactly 1, the same split the
        # Gaussian running cost Xhat'F Xhat + tr[F Sigma] makes at F = 1, u = 0
        cfg = SimConfig(grid=TimeGrid(0.0, 0.3, 300), n_traj=1, seed=23,
                        record_stride=100)
        traj = simulate_sme_ensemble(mixed_state(), dephasing_model(), cfg)
        assert len(traj.mean_states) == 4
        for states in traj.mean_states:
            rho = DensityMatrix(states)
            z = rho.expectation(SZ).real
            var = rho.expectation(SZ @ SZ).real - z * z
            value = z * z + var
            assert value == pytest.approx(
                rho.expectation(SZ @ SZ).real, abs=1e-12)


class TestEnsemble:
    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_results_do_not_depend_on_batch_layout(self, case):
        # every trajectory ends in the same state whether it runs alone, in
        # one chunk of 1023 or 1024, or in a full chunk followed by one of
        # 1, 3, 4 or 276 trajectories, under a constant control and under
        # feedback
        model, rho0, u = layout_case(case)
        grid = TimeGrid(0.0, 0.05, 50)
        for feedback in (None, layout_feedback(model)):
            finals = {
                n_traj: simulate_sme_ensemble(
                    rho0, model, SimConfig(grid=grid, n_traj=n_traj, seed=21),
                    u=u, feedback=feedback).final_states
                for n_traj in (1, 1023, 1024, 1025, 1027, 1028, 1300)
            }
            for n_traj, states in finals.items():
                np.testing.assert_array_equal(states, finals[1300][:n_traj])

    def test_outputs_are_the_bulk_draws(self, monkeypatch):
        # with every L_c = 0 the record is dY = dW, so a replay of trajectory
        # i records its stream's bytes, channel by channel, as one bulk draw
        # of its steps gives them.  The noise is copied out of its window a
        # check block of K steps at a time, and no block straddles two
        # windows.  At 5 trajectories (and alone) K is the whole window of
        # 256 steps: 300 steps end inside the second, and 1003 in a window
        # of 235.  At 100, K is 163, which does not divide 256, so every
        # window ends in a shorter block: 93 steps, 44 of the 300, 72 of
        # the 1003.  The rows an ensemble copies are the draws times
        # sqrt(dt), with zero pad columns, and each replay copies its
        # ensemble column and ends in its state
        model = FiniteModel(H0=0.5 * SX, L_list=[np.zeros((2, 2))] * 2)
        copied = record_noise_rows(monkeypatch, sme)
        first = 2**32 - 3
        for n_steps in (300, 1003):
            grid = TimeGrid(0.0, 1e-3 * n_steps, n_steps)

            def draws(i):
                return trajectory_stream(29, i).standard_normal(
                    (n_steps, 2)) * math.sqrt(grid.dt)

            def rows():
                return np.concatenate(copied).reshape(n_steps, 2, -1)

            finals = {}
            for n_traj in (5, 100):
                copied.clear()
                finals[n_traj] = simulate_sme_ensemble(
                    plus_state(), model, SimConfig(grid=grid, n_traj=n_traj, seed=29),
                    first=first).final_states
                ensemble_rows = rows()
                assert ensemble_rows.shape[2] == _chunk_width(n_traj)
                assert not ensemble_rows[:, :, n_traj:].any()
                for i in range(n_traj):
                    np.testing.assert_array_equal(ensemble_rows[:, :, i],
                                                  draws(first + i))
            for i in (0, 5, 2**32 - 1):
                copied.clear()
                alone = replay(plus_state(), model, grid, 29, i)
                np.testing.assert_array_equal(alone.mean_outputs[1:], draws(i))
                np.testing.assert_array_equal(rows()[:, :, 0], draws(i))
                for n_traj, states in finals.items():
                    if first <= i < first + n_traj:
                        np.testing.assert_array_equal(alone.final_states[0],
                                                      states[i - first])

    def test_unmonitored_model_steps_its_states_alone(self):
        # with no channel (d = 0) there is no noise: every trajectory is
        # the filtering step iterated, bit for bit, and records no output
        model = FiniteModel(H0=0.5 * SX + 0.2 * SZ, L_list=[])
        grid = TimeGrid(0.0, 0.3, 300)
        ens = simulate_sme_ensemble(mixed_state(), model,
                                    SimConfig(grid=grid, n_traj=3, seed=4, record_stride=50))
        rho = mixed_state()
        for _ in range(grid.n_steps):
            rho = sme_step(rho, model, None, [], grid.dt)
        for final in ens.final_states:
            np.testing.assert_array_equal(final, rho.entries)
        assert ens.mean_outputs.shape == (grid.n_steps // 50 + 1, 0)

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_zero_gain_feedback_is_the_constant_control(self, case):
        # the feedback rows widen the stack, but a zero gain adds nothing:
        # every output is the constant control's, bit for bit
        model, rho0, u = layout_case(case)
        observables, gain = layout_feedback(model)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.05, 50), n_traj=9, seed=21,
                        record_stride=5)
        a = simulate_sme_ensemble(rho0, model, cfg, u=u)
        b = simulate_sme_ensemble(rho0, model, cfg, u=u,
                                  feedback=(observables, np.zeros_like(gain)))
        for field in ("final_states", "mean_states", "mean_outputs", "mean_controls"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_overflow_raises_non_finite(self):
        # the reductions behind min_eigenvalue and max_trace_deviation
        # would report clean figures for NaN states
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[1e200 * SZ])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=8, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="trajectory 0 of seed 1 at "
                                                "step 1, t=0.001"):
                simulate_sme_ensemble(mixed_state(), model, cfg)

    def test_single_trajectory_overflow_raises_non_finite(self):
        # an overflowing step is a numerical failure, not a rejected state
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[1e200 * SZ])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=1, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="trajectory 0 of seed 1 at "
                                                "step 1, t=0.001"):
                simulate_sme_ensemble(mixed_state(), model, cfg)
            with pytest.raises(NonFinite, match="at step 1, t=0.001"):
                evolve_master(mixed_state(), model, cfg.grid)

    def test_positivity_loss_names_trajectory_and_step(self):
        # the same failing trajectory, found in ensembles of two sizes,
        # so it can be replayed from (seed, index)
        model = random_model(np.random.default_rng(5), 3)
        rho0 = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
        messages = []
        for n_traj in (8, 2):
            cfg = SimConfig(grid=TimeGrid(0.0, 0.5, 2000), n_traj=n_traj,
                            seed=305)
            with pytest.raises(PositivityLoss) as info:
                simulate_sme_ensemble(rho0, model, cfg)
            messages.append(str(info.value))
        assert "trajectory 1 of seed 305 at step 554, t=" in messages[0]
        assert messages[1] == messages[0]

    def test_positivity_loss_names_the_lowest_failing_index(self):
        # a coarse step: at step 1 trajectories 1, 2, 3, ... all cross the
        # floor, and 2 has the lower eigenvalue, but the ensemble names 1,
        # with the message its replay gives
        model = FiniteModel(H0=0.5 * SX, L_list=[SZ])
        rho0 = DensityMatrix([[0.6, 0.2], [0.2, 0.4]])
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(PositivityLoss) as info:
            simulate_sme_ensemble(rho0, model, SimConfig(grid=grid, n_traj=16, seed=0))
        replays = {}
        for index in range(16):
            try:
                replay(rho0, model, grid, 0, index)
            except PositivityLoss as exc:
                replays[index] = str(exc)
        at_step_1 = [i for i, message in replays.items() if "at step 1," in message]
        assert at_step_1[:3] == [1, 2, 3]
        assert str(info.value) == replays[1]
        low = {i: float(replays[i].split()[1]) for i in at_step_1}
        assert low[2] < low[1]

    @pytest.mark.parametrize("case", ["positivity", "non-finite", "short block"])
    def test_failure_inside_a_check_block_is_located_as_before(self, case):
        # the states are checked a block of steps at a time; a first failure
        # strictly inside a block, neither its first nor its last step, is
        # named with the message a check after every step gave, which is
        # also the message of its replay
        if case == "short block":
            # the positivity model at a finer step: at 100 rows a block is
            # 163 steps, which does not divide the 256-step noise window,
            # so the window ends in a block of steps 164-256, and step 169
            # is its sixth
            model = FiniteModel(H0=0.5 * SX, L_list=[0.5 * SZ])
            rho0, feedback, n_traj, grid, seed = (
                DensityMatrix.pure([1.0, 0.0]), None, 100, TimeGrid(0.0, 0.03, 300), 1)
            error, step, message = PositivityLoss, 169, (
                "eigenvalue -1.004e-06 below floor in trajectory 83 of seed 1 "
                "at step 169, t=0.0169")
        elif case == "positivity":
            # Euler steps from a pure state cross the floor; at 1024 rows a
            # block is 16 steps, so step 35 is the third of steps 33-48
            model = FiniteModel(H0=0.5 * SX, L_list=[0.5 * SZ])
            rho0, feedback, n_traj, grid, seed = (
                DensityMatrix.pure([1.0, 0.0]), None, 1024, TimeGrid(0.0, 0.025, 100), 300)
            error, step, message = PositivityLoss, 35, (
                "eigenvalue -1.026e-06 below floor in trajectory 8 of seed 300 "
                "at step 35, t=0.00875")
        else:
            # a chain 0 - 1 - ... - 5 from |0><0|: an Euler step reaches one
            # level further, so rho_50 is exactly 0 until step 5, and so is
            # the action of a huge control on level 5; fed back at a huge
            # gain, that action overflows at step 6.  At 400 rows a block is
            # 4 steps, so step 6 is the second of steps 5-8
            n = 6
            chain = np.diag(np.full(n - 1, 0.1), 1)
            top = np.zeros((n, n))
            top[-1, -1] = 1e300
            probe = np.zeros((n, n))
            probe[0, 0] = 0.5
            model = FiniteModel(H0=chain + chain.T, L_list=[probe], H_controls=[top])
            rho0, feedback, n_traj, grid, seed = (
                DensityMatrix.pure(np.eye(n)[0]), ([np.eye(n)], [[1e300]]), 400,
                TimeGrid(0.0, 0.02, 20), 4)
            error, step, message = NonFinite, 6, (
                "state left the finite range in trajectory 0 of seed 4 at step 6, t=0.006")
        block = min(_BLOCK, sme._CHECK_COORDS // (model.dim ** 2 * n_traj))
        # blocks start afresh at every noise window, and a window's last
        # block ends with it
        offset = (step - 1) % _BLOCK
        width = min(_BLOCK, grid.n_steps - (step - 1 - offset))
        first_step = offset - offset % block
        last_step = min(first_step + block, width) - 1
        assert first_step < offset < last_step
        assert (last_step - first_step + 1 < block) == (case == "short block")
        index = int(message.split("trajectory ")[1].split()[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as ensemble:
                simulate_sme_ensemble(rho0, model, SimConfig(grid=grid, n_traj=n_traj, seed=seed),
                                      feedback=feedback)
            with pytest.raises(error) as alone:
                replay(rho0, model, grid, seed, index, feedback=feedback)
        assert str(ensemble.value) == message
        assert str(alone.value) == message

    def test_failing_flows_emit_no_numpy_warning(self):
        # the overflow of the non-finite case above reaches the caller as
        # NonFinite alone; so does that of a master flow whose step, too
        # coarse for its dephasing, crosses the floor and then overflows
        # within one checked block
        n = 6
        chain = np.diag(np.full(n - 1, 0.1), 1)
        top = np.zeros((n, n))
        top[-1, -1] = 1e300
        probe = np.zeros((n, n))
        probe[0, 0] = 0.5
        model = FiniteModel(H0=chain + chain.T, L_list=[probe], H_controls=[top])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.02, 20), n_traj=400, seed=4)
        coarse = FiniteModel(H0=np.zeros((2, 2)), L_list=[np.sqrt(5e4) * SZ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite) as info:
                simulate_sme_ensemble(DensityMatrix.pure(np.eye(n)[0]), model, cfg,
                                      feedback=([np.eye(n)], [[1e300]]))
            with pytest.raises(PositivityLoss, match="master flow at step 1, t=0.01"):
                evolve_master(mixed_state(), coarse, TimeGrid(0.0, 1.0, 100))
        assert str(info.value) == (
            "state left the finite range in trajectory 0 of seed 4 at step 6, t=0.006")

    def test_overflowing_model_builds_its_maps_without_warning(self):
        # the generator of L = 1e200 sz overflows while it is built; the
        # flows' state checks raise that, and numpy prints nothing first
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[1e200 * SZ])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=8, seed=1)
        runs = {
            "trajectory 0 of seed 1 at step 1, t=0.001":
                lambda: simulate_sme_ensemble(mixed_state(), model, cfg),
            "master flow at step 1, t=0.001":
                lambda: evolve_master(mixed_state(), model, cfg.grid),
            "the filtering step":
                lambda: sme_step(mixed_state(), model, None, [0.0], 0.001),
        }
        for where, run in runs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFinite) as info:
                    run()
            assert str(info.value) == f"state left the finite range in {where}"

    def test_unraveling_mean_matches_master_diagonal(self):
        # incoherent start: the master flow is constant and the ensemble
        # mean must stay on it
        rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        grid = TimeGrid(0.0, 1.0, 1000)
        cfg = SimConfig(grid=grid, n_traj=2048, seed=101, record_stride=1000)
        ens = simulate_sme_ensemble(rho0, dephasing_model(), cfg)
        assert trace_distance(ens.mean_states[-1], rho0.entries) <= 0.02
        assert ens.min_eigenvalue >= -1e-8
        assert ens.max_trace_deviation <= 1e-9

    def test_unraveling_mean_matches_master_coherent(self):
        # coherent mixed start at the fine step the scheme needs there
        rho0 = DensityMatrix(
            0.5 * np.array([[1.0, 0.75], [0.75, 1.0]], dtype=complex))
        grid = TimeGrid(0.0, 0.2, 2000)
        _, master = evolve_master(rho0, dephasing_model(), grid,
                                  record_stride=2000)
        cfg = SimConfig(grid=grid, n_traj=512, seed=29, record_stride=2000)
        ens = simulate_sme_ensemble(rho0, dephasing_model(), cfg)
        assert trace_distance(ens.mean_states[-1], master[-1]) <= 0.05
        assert ens.min_eigenvalue >= -1e-8
        assert ens.max_trace_deviation <= 1e-9

    def test_purification_martingale(self):
        # <sigma_z> is a bounded martingale, so trajectories settle into
        # eigenstates with frequencies given by the initial populations
        rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        grid = TimeGrid(0.0, 3.0, 3000)
        cfg = SimConfig(grid=grid, n_traj=2048, seed=55, record_stride=3000)
        ens = simulate_sme_ensemble(rho0, dephasing_model(), cfg)
        z = np.einsum("bij,ji->b", ens.final_states, SZ).real
        n = z.shape[0]
        assert (np.abs(z) > 0.9).mean() > 0.98
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs((z > 0.0).mean() - 0.7) <= 3.0 * sigma
        stderr = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - 0.4) <= 3.0 * stderr
        assert ens.min_eigenvalue >= -1e-8

    def test_coarse_step_raises(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 2), n_traj=64, seed=1)
        with pytest.raises(PositivityLoss):
            simulate_sme_ensemble(plus_state(), dephasing_model(), cfg)

    def test_mean_path_starts_at_initial_state(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=33, seed=4)
        ens = simulate_sme_ensemble(mixed_state(), dephasing_model(), cfg)
        np.testing.assert_allclose(ens.mean_states[0], mixed_state().entries,
                                   atol=1e-15)
        assert len(ens) == 33
        assert ens.final_states.shape == (33, 2, 2)

    def test_mean_paths_average_the_trajectories(self):
        # the mean record and the mean feedback control are those of the
        # trajectories replayed one by one, at every recorded time
        model, rho0, u = layout_case("n=3-d=2")
        feedback = layout_feedback(model)
        grid = TimeGrid(0.0, 0.05, 50)
        cfg = SimConfig(grid=grid, n_traj=3, seed=8, record_stride=10)
        ens = simulate_sme_ensemble(rho0, model, cfg, u=u, feedback=feedback)
        alone = [simulate_sme_ensemble(rho0, model, SimConfig(grid=grid, n_traj=1, seed=8,
                                                              record_stride=10),
                                       u=u, feedback=feedback, first=i)
                 for i in range(3)]
        assert ens.mean_outputs.shape == (6, 2) and ens.mean_controls.shape == (6, 1)
        assert not ens.mean_outputs[0].any()
        for field in ("mean_states", "mean_outputs", "mean_controls"):
            mean = sum(getattr(a, field) for a in alone) / 3
            np.testing.assert_allclose(getattr(ens, field), mean, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(
            ens.final_states, [a.final_states[0] for a in alone])
        # without feedback the control is the constant one
        np.testing.assert_array_equal(
            simulate_sme_ensemble(rho0, model, cfg, u=u).mean_controls, [u] * 6)

    @pytest.mark.parametrize("feedback, error", [
        (([SZ], [[0.5]], 1), InvalidParameter),     # not a pair
        (([], np.zeros((1, 0))), InvalidParameter),  # no observable
        (([SX + 1j * SZ], [[0.5]]), InvalidParameter),  # not Hermitian
        (([SZ], [0.5]), DimensionMismatch),           # gain not (k, m)
        (([SZ, SX], [[0.5]]), DimensionMismatch),
        (([np.eye(3)], [[0.5]]), DimensionMismatch),  # observable of another dim
        (([SZ], [[np.nan]]), InvalidParameter),
        (([SZ], "x"), InvalidParameter),              # not numbers
        ((["a"], [[0.5]]), InvalidParameter),
    ])
    def test_rejects_bad_feedback(self, feedback, error):
        model = FiniteModel(H0=np.zeros((2, 2)), L_list=[SZ], H_controls=[SY])
        cfg = SimConfig(grid=TimeGrid(0.0, 0.01, 10), n_traj=1, seed=0)
        with pytest.raises(error):
            simulate_sme_ensemble(mixed_state(), model, cfg, feedback=feedback)


class TestDiscreteConditioning:
    def test_identity_unitary_is_transparent(self):
        rho = plus_state()
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        results = discrete_conditioning(rho, np.eye(4, dtype=complex),
                                        [P0, P1])
        assert results[0][0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(results[0][1].entries, rho.entries,
                                   atol=1e-12)
        assert results[1] == (0.0, None)

    def test_cnot_reads_out_plus_state(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        results = discrete_conditioning(plus_state(), cnot, [P0, P1])
        for (prob, post), target in zip(results, ([1.0, 0.0], [0.0, 1.0])):
            assert prob == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(post.entries, np.diag(target),
                                       atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(66)
        rho = random_state(rng, 2)
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        U = expm(1j * (G + G.conj().T))
        basis = [np.diag([1.0 if j == i else 0.0 for j in range(3)])
                 .astype(complex) for i in range(3)]
        results = discrete_conditioning(rho, U, basis)
        total = sum(p for p, _ in results)
        assert total == pytest.approx(1.0, abs=1e-12)
        for p, post in results:
            assert p >= 0.0
            if post is not None:
                assert abs(np.trace(post.entries) - 1.0) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            discrete_conditioning(plus_state(), 1.01 * np.eye(4),
                                  [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_nan_unitary(self):
        # NaN compares False with any tolerance, so U is checked for it first
        U = np.eye(4, dtype=complex)
        U[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="^U has non-finite entries"):
                discrete_conditioning(plus_state(), U,
                                      [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_non_idempotent_family(self):
        with pytest.raises(NotAProjectorFamily, match="idempotent"):
            discrete_conditioning(plus_state(), np.eye(4),
                                  [0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_rejects_non_orthogonal_family(self):
        Pp, _ = ancilla_quadrature_projectors()
        P0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NotAProjectorFamily, match="orthogonal"):
            discrete_conditioning(plus_state(), np.eye(4), [Pp, P0])

    def test_rejects_incomplete_family(self):
        with pytest.raises(NotAProjectorFamily, match="identity"):
            discrete_conditioning(plus_state(), np.eye(4),
                                  [np.diag([1.0, 0.0])])

    def test_zero_probability_outcome_flagged(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        results = discrete_conditioning(ground, cnot, [P0, P1])
        assert results[0][0] == pytest.approx(1.0, abs=1e-12)
        assert results[1] == (0.0, None)


class TestWeakMeasurement:
    def setup_method(self):
        self.L = SZ + 0.3 * SY
        self.model = FiniteModel(H0=0.4 * SX, L_list=[self.L])
        self.rho = DensityMatrix(
            np.array([[0.6, 0.15 - 0.05j], [0.15 + 0.05j, 0.4]]))

    def test_unitary_is_unitary(self):
        U = weak_measurement_unitary(self.L, 1e-3, H=self.model.H0)
        assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-12

    def test_numeric_strings_are_read_as_floats(self):
        np.testing.assert_array_equal(
            weak_measurement_unitary(self.L, "0.01", H=self.model.H0, hbar="2"),
            weak_measurement_unitary(self.L, 0.01, H=self.model.H0, hbar=2.0))

    def test_matches_filter_step_at_three_halves_order(self):
        dts = [1e-2, 1e-3, 1e-4, 1e-5]
        errs = []
        Pp, Pm = ancilla_quadrature_projectors()
        for dt in dts:
            U = weak_measurement_unitary(self.L, dt, H=self.model.H0)
            outcomes = discrete_conditioning(self.rho, U, [Pp, Pm])
            worst = 0.0
            for (prob, post), sign in zip(outcomes, (1.0, -1.0)):
                ref = sme_step(self.rho, self.model, None,
                               [sign * math.sqrt(dt)], dt)
                worst = max(worst, trace_norm(post.entries - ref.entries))
            errs.append(worst)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 1.4

    def test_outcome_average_matches_master_step(self):
        Pp, Pm = ancilla_quadrature_projectors()
        for dt in (1e-2, 1e-3):
            U = weak_measurement_unitary(self.L, dt, H=self.model.H0)
            outcomes = discrete_conditioning(self.rho, U, [Pp, Pm])
            avg = sum(p * post.entries for p, post in outcomes)
            ref = master_step(self.rho, self.model, None, dt)
            assert trace_norm(avg - ref.entries) <= 2.0 * dt * dt

    @pytest.mark.parametrize("dt", [1e-2, 1e-5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_scipy_expm(self, n, dt):
        rng = np.random.default_rng(n)
        L = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H, hbar = A + A.conj().T, 0.7
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        coupling = math.sqrt(dt) * (np.kron(L, lower.T) - np.kron(L.conj().T, lower))
        drive = (-1j * dt / hbar) * np.kron(H, np.eye(2))
        U = weak_measurement_unitary(L, dt, H=H, hbar=hbar)
        assert np.abs(U - expm(coupling + drive)).max() < 1e-12
        assert np.abs(weak_measurement_unitary(L, dt) - expm(coupling)).max() < 1e-12

    def test_rejects_non_hermitian_h(self):
        # eigh reads one triangle only, so such an H would go silently wrong
        H = self.model.H0 + np.array([[0.0, 1e-9], [0.0, 0.0]])
        with pytest.raises(InvalidParameter, match="H is not Hermitian"):
            weak_measurement_unitary(self.L, 1e-3, H=H)

    def test_rejects_bad_inputs(self):
        for dt in (0.0, np.inf):
            with pytest.raises(InvalidParameter):
                weak_measurement_unitary(self.L, dt)
        for hbar in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidParameter, match="hbar"):
                weak_measurement_unitary(self.L, 1e-3, hbar=hbar)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="coupling"):
                weak_measurement_unitary(self.L + bad, 1e-3)
            with pytest.raises(InvalidParameter, match="H has non-finite"):
                weak_measurement_unitary(self.L, 1e-3, H=self.model.H0 + bad)
        with pytest.raises(DimensionMismatch):
            weak_measurement_unitary(np.zeros((2, 3)), 1e-3)
        with pytest.raises(DimensionMismatch):
            weak_measurement_unitary(self.L, 1e-3, H=np.zeros((3, 3)))


class TestModelJson:
    def payload(self):
        return {
            "dim": 2,
            "hbar": 1.0,
            "H0": {"re": [[0.0, 0.4], [0.4, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            "H_controls": [
                {"re": [[1.0, 0.0], [0.0, -1.0]],
                 "im": [[0.0, 0.0], [0.0, 0.0]]},
            ],
            "L_list": [
                {"re": [[1.0, 0.0], [0.0, -1.0]],
                 "im": [[0.0, 0.0], [0.0, 0.0]]},
            ],
        }

    def test_round_trip_dict(self):
        model = finite_model_from_json(self.payload())
        np.testing.assert_allclose(model.H0, 0.4 * SX, atol=1e-15)
        np.testing.assert_allclose(model.L_list[0], SZ, atol=1e-15)
        assert model.n_controls == 1

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.payload()))
        model = finite_model_from_json(path)
        assert model.dim == 2

    def test_missing_key(self):
        data = self.payload()
        del data["L_list"]
        with pytest.raises(InvalidParameter, match="L_list"):
            finite_model_from_json(data)

    def test_malformed_pair(self):
        data = self.payload()
        data["H0"] = [[0.0, 0.4], [0.4, 0.0]]
        with pytest.raises(InvalidParameter, match="re, im"):
            finite_model_from_json(data)

    def test_wrong_shape(self):
        data = self.payload()
        data["H0"] = {"re": [[0.0]], "im": [[0.0]]}
        with pytest.raises(DimensionMismatch, match="H0"):
            finite_model_from_json(data)
