"""Model validation and coefficient assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlqg.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonRealCoefficient,
    ValidationError,
)
from qlqg.phase_space import (
    GaussianBelief,
    LinearCoefficients,
    PhaseSpaceModel,
    build_coefficients,
    check_uncertainty,
    free_particle_model,
    model_from_json,
    _heisenberg_margin,
    _require_real,
)
from qlqg.closed_loop import SimConfig
from qlqg.control import ControlGainPath, duality_map
from qlqg.kalman import filter_step
from qlqg.riccati import CostSpec, MatrixPath, ScalarPath, TimeGrid
from qlqg.sme import (
    DensityMatrix,
    FiniteModel,
    discrete_conditioning,
    trace_distance,
    weak_measurement_unitary,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def standard_J(m):
    """Block-diagonal symplectic form on m = 2n coordinates."""
    J = np.zeros((m, m))
    for i in range(0, m, 2):
        J[i, i + 1] = 1.0
        J[i + 1, i] = -1.0
    return J


def random_model(rng, m=4, d=2, k=1, hbar=1.0):
    R = rng.standard_normal((m, m))
    R = 0.5 * (R + R.T)
    Lam = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    K = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return PhaseSpaceModel(J=standard_J(m), R=R, Lambda=Lam, K=K, hbar=hbar)


class TestModelValidation:
    def test_rejects_odd_dimension(self):
        J = np.zeros((3, 3))
        J[0, 1], J[1, 0], J[0, 2], J[2, 0] = 1, -1, 1, -1
        with pytest.raises(InvalidParameter):
            PhaseSpaceModel(J=J, R=np.eye(3), Lambda=np.zeros((1, 3)), K=np.zeros((3, 1)))

    def test_rejects_symmetric_part_in_J(self):
        with pytest.raises(ValidationError):
            PhaseSpaceModel(
                J=np.array([[0.0, 1.0], [-1.0, 1e-3]]),
                R=np.eye(2),
                Lambda=np.zeros((1, 2)),
                K=np.zeros((2, 1)),
            )

    def test_rejects_degenerate_J(self):
        with pytest.raises(ValidationError):
            PhaseSpaceModel(
                J=np.zeros((2, 2)),
                R=np.eye(2),
                Lambda=np.zeros((1, 2)),
                K=np.zeros((2, 1)),
            )

    def test_antisymmetry_is_relative_to_the_largest_entry(self):
        # one ulp of asymmetry in a large J passes; a relative 1e-6 does not
        big = 1e7 / 3
        J = np.array([[0.0, big], [-np.nextafter(big, np.inf), 0.0]])
        model = PhaseSpaceModel(J=J, R=np.eye(2), Lambda=np.zeros((1, 2)), K=np.zeros((2, 1)))
        assert model.J[1, 0] == J[1, 0]
        with pytest.raises(ValidationError, match="antisymmetric"):
            PhaseSpaceModel(J=np.array([[0.0, big], [-big * (1 + 1e-6), 0.0]]),
                            R=np.eye(2), Lambda=np.zeros((1, 2)), K=np.zeros((2, 1)))

    def test_rejects_asymmetric_R(self):
        with pytest.raises(ValidationError):
            PhaseSpaceModel(
                J=J2,
                R=np.array([[0.0, 1.0], [0.0, 0.0]]),
                Lambda=np.zeros((1, 2)),
                K=np.zeros((2, 1)),
            )

    def test_rejects_wrong_coupling_shape(self):
        with pytest.raises(DimensionMismatch):
            PhaseSpaceModel(J=J2, R=np.zeros((2, 2)), Lambda=np.zeros((1, 3)), K=np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            PhaseSpaceModel(J=J2, R=np.zeros((2, 2)), Lambda=np.zeros((1, 2)), K=np.zeros((3, 1)))

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(InvalidParameter):
            PhaseSpaceModel(J=J2, R=np.zeros((2, 2)), Lambda=np.zeros((1, 2)),
                            K=np.zeros((2, 1)), hbar=0.0)

    def test_dimensions_exposed(self):
        model = random_model(np.random.default_rng(0), m=4, d=2, k=3)
        assert (model.m, model.d, model.k) == (4, 2, 3)

    def test_arrays_frozen(self):
        model = free_particle_model()
        with pytest.raises(ValueError):
            model.J[0, 0] = 1.0


class TestBuildCoefficients:
    def test_numeric_string_hbar_is_stored_as_float(self):
        base = free_particle_model()
        model = PhaseSpaceModel(J=base.J, R=base.R, Lambda=base.Lambda, K=base.K,
                                hbar="1")
        assert type(model.hbar) is float
        for name in ("A", "B", "C", "N", "M"):
            np.testing.assert_array_equal(getattr(build_coefficients(model), name),
                                          getattr(build_coefficients(base), name))

    def test_free_particle_matrices(self):
        coeffs = build_coefficients(free_particle_model(mass=1.0, hbar=1.0))
        np.testing.assert_allclose(coeffs.A, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(coeffs.B, [[0.0], [1.0]], atol=1e-15)
        np.testing.assert_allclose(coeffs.C, [[2.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(coeffs.N, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(coeffs.M, [[0.0], [0.0]], atol=1e-15)

    def test_free_particle_hbar_scaling(self):
        # noise intensity picks up hbar^2; drift picks up 1/mass
        coeffs = build_coefficients(free_particle_model(mass=1.0, hbar=2.0))
        np.testing.assert_allclose(coeffs.N, [[0.0, 0.0], [0.0, 4.0]], atol=1e-15)
        coeffs = build_coefficients(free_particle_model(mass=2.0, hbar=1.0))
        np.testing.assert_allclose(coeffs.A, [[0.0, 0.5], [0.0, 0.0]], atol=1e-15)

    def test_matches_elementwise_formulas(self):
        # independent recomputation with scalar complex arithmetic
        rng = np.random.default_rng(7)
        model = random_model(rng, m=4, d=2, k=2, hbar=1.7)
        coeffs = build_coefficients(model)
        m, d, k, hbar = model.m, model.d, model.k, model.hbar
        J, Lam, K = model.J, model.Lambda, model.K

        gram = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                gram[i, j] = sum(complex(Lam[c, i]).conjugate() * complex(Lam[c, j])
                                 for c in range(d))
        A = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                A[i, j] = sum(J[i, a] * (model.R[a, j] + hbar * gram[a, j].imag)
                              for a in range(m))
        B = np.zeros((m, k))
        for i in range(m):
            for j in range(k):
                B[i, j] = sum(J[i, a] * (2.0 * complex(K[a, j]).real) for a in range(m))
        C = 2.0 * Lam.real
        N = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                N[i, j] = hbar**2 * sum(J[i, a] * gram[a, b].real * J[j, b]
                                        for a in range(m) for b in range(m))
        M = np.zeros((m, d))
        for i in range(m):
            for c in range(d):
                M[i, c] = -hbar * sum(J[i, a] * complex(Lam[c, a]).imag for a in range(m))

        np.testing.assert_allclose(coeffs.A, A, atol=1e-12)
        np.testing.assert_allclose(coeffs.B, B, atol=1e-12)
        np.testing.assert_allclose(coeffs.C, C, atol=1e-12)
        np.testing.assert_allclose(coeffs.N, N, atol=1e-12)
        np.testing.assert_allclose(coeffs.M, M, atol=1e-12)

    def test_real_and_psd_on_many_random_models(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            m = int(rng.choice([2, 4]))
            d = int(rng.integers(1, 3))
            model = random_model(rng, m=m, d=d, k=1, hbar=float(rng.uniform(0.1, 3)))
            coeffs = build_coefficients(model)
            for arr in (coeffs.A, coeffs.B, coeffs.C, coeffs.N, coeffs.M):
                assert np.isrealobj(arr)
                assert np.all(np.isfinite(arr))
            np.testing.assert_allclose(coeffs.N, coeffs.N.T, atol=1e-12)
            assert np.linalg.eigvalsh(coeffs.N).min() >= -1e-12

    def test_imaginary_residue_guard(self):
        with pytest.raises(NonRealCoefficient):
            _require_real(np.array([[1.0 + 1e-9j]]), "X")
        out = _require_real(np.array([[1.0 + 1e-14j]]), "X")
        assert np.isrealobj(out)


class TestCheckUncertainty:
    def test_scalar_variance_too_small(self):
        report = check_uncertainty(0.1 * np.eye(2), J2, hbar=1.0)
        assert not report.passed
        assert report.min_eigenvalue == pytest.approx(-0.4, abs=1e-12)

    def test_minimum_uncertainty_state_passes(self):
        report = check_uncertainty(0.5 * np.eye(2), J2, hbar=1.0)
        assert report.passed
        assert abs(report.min_eigenvalue) < 1e-12

    def test_classical_limit_reduces_to_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            W = rng.standard_normal((4, 4))
            assert check_uncertainty(W @ W.T, standard_J(4), hbar=0.0).passed
        assert not check_uncertainty(-np.eye(2), J2, hbar=0.0).passed

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_uncertainty(np.eye(2), standard_J(4), hbar=1.0)

    @pytest.mark.parametrize("hbar", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("form", ["antisymmetric", "general"])
    def test_closed_form_margin_matches_eigvalsh(self, hbar, form):
        # at m = 2 the margin is closed-form; it reads what eigvalsh reads,
        # the real diagonal and the lower triangle, of any cov and J
        rng = np.random.default_rng(int(hbar) + len(form))
        cov = rng.standard_normal((2000, 2, 2))
        cov[:1000] = cov[:1000] @ cov[:1000].transpose(0, 2, 1)
        J = rng.standard_normal((2, 2)) if form == "general" else 3.0 * J2
        herm = cov + 0.5j * hbar * J
        exact = np.linalg.eigvalsh(herm)
        scale = np.abs(exact).max(axis=1)
        assert np.all(np.abs(_heisenberg_margin(cov, J, hbar) - exact[:, 0]) <= 1e-13 * scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        # LAPACK would report an eigenvalue made up from the bad entry
        cov = np.diag([bad, 1.0])
        with pytest.raises(InvalidParameter, match="cov has non-finite"):
            check_uncertainty(cov, J2, hbar=1.0)
        with pytest.raises(InvalidParameter, match="J has non-finite"):
            check_uncertainty(np.eye(2), J2 + np.diag([bad, 0.0]), hbar=1.0)
        with pytest.raises(InvalidParameter, match="hbar"):
            check_uncertainty(np.eye(2), J2, hbar=bad)


class TestGaussianBelief:
    def test_symmetrizes_covariance(self):
        belief = GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2) + 1e-12)
        np.testing.assert_allclose(belief.cov, belief.cov.T)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianBelief(mean=[0.0, 0.0], cov=np.eye(3))


class TestModelFromJson:
    def payload(self):
        return {
            "m": 2, "d": 1, "hbar": 1.0,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.0, 0.0], [0.0, 1.0]],
            "Lambda_re": [[1.0, 0.0]], "Lambda_im": [[0.0, 0.0]],
            "K_re": [[-0.5], [0.0]], "K_im": [[0.0], [0.0]],
        }

    def test_round_trip_free_particle(self):
        model = model_from_json(self.payload())
        reference = free_particle_model()
        np.testing.assert_allclose(model.J, reference.J)
        np.testing.assert_allclose(model.R, reference.R)
        np.testing.assert_allclose(model.Lambda, reference.Lambda)
        np.testing.assert_allclose(model.K, reference.K)

    def test_reads_from_file(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.payload()))
        model = model_from_json(path)
        assert model.m == 2 and model.d == 1

    def test_missing_key_is_named(self):
        data = self.payload()
        del data["Lambda_im"]
        with pytest.raises(InvalidParameter, match="Lambda_im"):
            model_from_json(data)

    def test_wrong_shape_is_named(self):
        data = self.payload()
        data["R"] = [[0.0, 0.0]]
        with pytest.raises(DimensionMismatch, match="'R'"):
            model_from_json(data)

    def test_nonsense_entry_is_named(self):
        data = self.payload()
        data["J"] = [["a", "b"], ["c", "d"]]
        with pytest.raises((InvalidParameter, ValidationError), match="J"):
            model_from_json(data)

    @pytest.mark.parametrize("entry", [["0.0", 1.0], [False, True], [None, 1.0]])
    def test_only_json_numbers_are_read(self, entry):
        # numpy would read a numeric string, a bool or null as a float
        data = self.payload()
        data["R"] = [entry, [0.0, 1.0]]
        with pytest.raises(InvalidParameter, match="'R' must be a numeric array"):
            model_from_json(data)


class TestLinearCoefficients:
    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(DimensionMismatch):
            LinearCoefficients(A=np.eye(2), B=np.zeros((3, 1)), C=np.zeros((1, 2)),
                               N=np.zeros((2, 2)), M=np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            LinearCoefficients(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 3)),
                               N=np.zeros((2, 2)), M=np.zeros((2, 1)))

    def test_indefinite_noise_names_its_lowest_eigenvalue(self):
        with pytest.raises(ValidationError, match=r"N must be positive semidefinite "
                                                  r"\(min eigenvalue -2\.000e\+00\)"):
            _coefficients(N=np.diag([1.0, -2.0]))

    def test_symmetry_is_relative_to_the_largest_entry(self):
        # a product with entries of 1e7 is symmetric only to an ulp, 4.7e-10
        ulp = np.array([[1e7, 1e7 / 3], [np.nextafter(1e7 / 3, np.inf), 1e7]])
        off = np.array([[1e7, 1e7 / 3], [1e7 / 3 * (1 + 1e-6), 1e7]])
        coeffs = _coefficients(N=ulp)
        np.testing.assert_array_equal(coeffs.N, coeffs.N.T)
        CostSpec(F=ulp, G=np.zeros((1, 2)), Omega_T=ulp)
        with pytest.raises(ValidationError, match="N must be symmetric"):
            _coefficients(N=off)
        with pytest.raises(ValidationError, match="F must be symmetric"):
            CostSpec(F=off, G=np.zeros((1, 2)), Omega_T=ulp)
        with pytest.raises(ValidationError, match="Omega_T must be symmetric"):
            CostSpec(F=ulp, G=np.zeros((1, 2)), Omega_T=off)
        # entries up to 1 keep the absolute tolerance
        with pytest.raises(ValidationError, match="N must be symmetric"):
            _coefficients(N=np.array([[1.0, 0.5], [0.5 + 2e-10, 1.0]]))

    def test_rejects_asymmetric_noise(self):
        with pytest.raises(ValidationError):
            LinearCoefficients(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                               N=np.array([[0.0, 1.0], [0.0, 0.0]]), M=np.zeros((2, 1)))


def _coefficients(**bad):
    parts = dict(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                 N=np.eye(2), M=np.zeros((2, 1)))
    return LinearCoefficients(**{**parts, **bad})


# one entry set to the bad value x in each input of each constructor
NONFINITE_INPUTS = {
    "GaussianBelief.mean": lambda x: GaussianBelief(mean=[x, 0.0], cov=np.eye(2)),
    "GaussianBelief.cov": lambda x: GaussianBelief(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, x]]),
    "CostSpec.F": lambda x: CostSpec(F=[[x, 0.0], [0.0, 1.0]], G=[[0.0, 0.0]], Omega_T=np.eye(2)),
    "CostSpec.G": lambda x: CostSpec(F=np.eye(2), G=[[x, 0.0]], Omega_T=np.eye(2)),
    "CostSpec.Omega_T": lambda x: CostSpec(F=np.eye(2), G=[[0.0, 0.0]], Omega_T=[[1.0, 0.0], [0.0, x]]),
    "LinearCoefficients.A": lambda x: _coefficients(A=[[x, 0.0], [0.0, 1.0]]),
    "LinearCoefficients.B": lambda x: _coefficients(B=[[x], [0.0]]),
    "LinearCoefficients.C": lambda x: _coefficients(C=[[x, 0.0]]),
    "LinearCoefficients.N": lambda x: _coefficients(N=[[1.0, 0.0], [0.0, x]]),
    "LinearCoefficients.M": lambda x: _coefficients(M=[[x], [0.0]]),
    "DensityMatrix": lambda x: DensityMatrix([[0.5, x], [x, 0.5]]),
    "FiniteModel.H0": lambda x: FiniteModel(H0=[[x, 0.0], [0.0, 0.0]], L_list=[np.eye(2)]),
    "FiniteModel.L_list": lambda x: FiniteModel(H0=np.zeros((2, 2)), L_list=[[[x, 0.0], [0.0, 1.0]]]),
    "FiniteModel.H_controls": lambda x: FiniteModel(
        H0=np.zeros((2, 2)), L_list=[np.eye(2)], H_controls=[[[x, 0.0], [0.0, 0.0]]]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", NONFINITE_INPUTS.values(), ids=NONFINITE_INPUTS.keys())
def test_constructors_reject_non_finite_entries(build, value):
    with pytest.raises(InvalidParameter, match="non-finite"):
        build(value)


# valid inputs of every constructor that takes numbers; the property test
# below spoils one entry of one of them
VALID_INPUTS = {
    LinearCoefficients: dict(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                             N=np.eye(2), M=np.zeros((2, 1))),
    PhaseSpaceModel: dict(J=J2, R=np.eye(2), Lambda=np.array([[1.0 + 0.5j, 0.0j]]),
                          K=np.array([[-0.5 + 0.0j], [0.25j]]), hbar=1.0),
    GaussianBelief: dict(mean=np.array([1.0, 0.0]), cov=np.eye(2)),
    CostSpec: dict(F=np.eye(2), G=np.zeros((1, 2)), Omega_T=np.eye(2)),
    TimeGrid: dict(t0=0.0, t1=1.0, n_steps=10),
    filter_step: dict(belief=GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2)), u=np.zeros(1),
                      dY=np.array([0.1]), dt=1e-3, coeffs=_coefficients(),
                      Sigma_next=np.eye(2)),
    DensityMatrix: dict(entries=np.array([[0.5, 0.25j], [-0.25j, 0.5]])),
    FiniteModel: dict(H0=np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
                      L_list=np.array([[[1.0, 0.0], [0.0, -1.0]]], dtype=complex),
                      H_controls=np.array([[[0.0, -1j], [1j, 0.0]]]), hbar=1.0),
}
# an argument of the package's own types was read when it was made
INPUT_FIELDS = [(ctor, name) for ctor, kwargs in VALID_INPUTS.items()
                for name, value in kwargs.items() if not dataclasses.is_dataclass(value)]


@pytest.mark.parametrize("ctor, name", INPUT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INPUT_FIELDS])
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf]), index=st.integers(0, 7),
       imaginary=st.booleans())
def test_any_non_finite_input_is_rejected(ctor, name, bad, index, imaginary):
    # NaN, +inf or -inf in any entry of any array input, or as any scalar
    # (positive ones like hbar and dt included), is a ValidationError
    kwargs = dict(VALID_INPUTS[ctor])
    ctor(**kwargs)  # unspoiled, the inputs construct
    value = kwargs[name]
    if np.ndim(value) == 0:
        kwargs[name] = bad
    else:
        value = value.copy()
        entry = complex(0.0, bad) if imaginary and value.dtype.kind == "c" else bad
        value.flat[index % value.size] = entry
        kwargs[name] = value
    with pytest.raises(ValidationError):
        ctor(**kwargs)


GRID = TimeGrid(0.0, 1.0, 2)
QUBIT = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)

# public entry points that read an array (or a number read as one), as
# (name their messages give the argument, call with the argument x, valid
# value of x)
JUNK_ENTRY_POINTS = {
    "PhaseSpaceModel": ("J", lambda x: PhaseSpaceModel(
        J=x, R=np.eye(2), Lambda=[[1.0, 0.0]], K=[[0.5], [0.0]]), J2),
    "LinearCoefficients": ("A", lambda x: _coefficients(A=x), np.eye(2)),
    "GaussianBelief": ("mean", lambda x: GaussianBelief(mean=x, cov=np.eye(2)), [0.0, 0.0]),
    "check_uncertainty": ("cov", lambda x: check_uncertainty(x, J2, 1.0), np.eye(2)),
    "CostSpec": ("F", lambda x: CostSpec(F=x, G=[[0.0, 0.0]], Omega_T=np.eye(2)), np.eye(2)),
    "MatrixPath": ("values", lambda x: MatrixPath(GRID, x), np.zeros((3, 2, 2))),
    "ScalarPath": ("values", lambda x: ScalarPath(GRID, x), np.zeros(3)),
    "ControlGainPath": ("gains", lambda x: ControlGainPath(GRID, x), np.zeros((3, 1, 2))),
    "filter_step.dY": ("dY", lambda x: filter_step(
        GaussianBelief([0.0, 0.0], np.eye(2)), [0.0], x, 1e-3, _coefficients(), np.eye(2)),
        [0.1]),
    "filter_step.dt": ("dt", lambda x: filter_step(
        GaussianBelief([0.0, 0.0], np.eye(2)), [0.0], [0.1], x, _coefficients(), np.eye(2)),
        1e-3),
    "DensityMatrix": ("state", DensityMatrix, QUBIT),
    "FiniteModel": ("H0", lambda x: FiniteModel(H0=x, L_list=[]), np.eye(2)),
    "weak_measurement_unitary": ("coupling", lambda x: weak_measurement_unitary(x, 1e-3),
                                 np.eye(2)),
    "discrete_conditioning": ("U", lambda x: discrete_conditioning(
        DensityMatrix(QUBIT), x, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.eye(4)),
    "TimeGrid": ("t0", lambda x: TimeGrid(x, 1.0, 10), 0.0),
    "SimConfig": ("grid", lambda x: SimConfig(grid=x, n_traj=1, seed=0), GRID),
    "trace_distance": ("a", lambda x: trace_distance(x, QUBIT), QUBIT),
    "DensityMatrix.expectation": ("observable", DensityMatrix(QUBIT).expectation, np.eye(2)),
    "DensityMatrix.pure": ("amplitudes", DensityMatrix.pure, [1.0, 0.0]),
    "duality_map": ("permutation", lambda x: duality_map(
        _coefficients(), CostSpec(F=np.eye(2), G=[[0.0, 0.0]], Omega_T=np.eye(2)),
        permutation=x), [1, 0]),
}
JUNK = {"string": lambda valid: "x",
        "ragged": lambda valid: [[1.0], [1.0, 2.0]],
        "nan": lambda valid: np.full(np.shape(valid), np.nan)}


@pytest.mark.parametrize("junk", JUNK.values(), ids=JUNK.keys())
@pytest.mark.parametrize("name, call, valid", JUNK_ENTRY_POINTS.values(),
                         ids=JUNK_ENTRY_POINTS.keys())
def test_junk_input_is_a_validation_error_naming_its_argument(name, call, valid, junk):
    # a raw ValueError, TypeError or AttributeError from numpy would leave
    # the CLI; a NaN would pass every later `x > tol` guard
    call(valid)
    with pytest.raises(ValidationError, match=f"^{name} "):
        call(junk(valid))


def test_nan_path_is_rejected():
    values = np.zeros((3, 2, 2))
    values[1, 0, 1] = np.nan
    with pytest.raises(InvalidParameter, match="values has non-finite entries"):
        MatrixPath(GRID, values)
