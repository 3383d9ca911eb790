"""Linear quantum models on phase space and their real coefficient matrices.

A model is specified by a symplectic form ``J``, a quadratic Hamiltonian
matrix ``R``, a vector of measurement couplings ``Lambda`` (one row per
output channel) and a control coupling matrix ``K``.  From these the
drift, input, output and noise matrices of the equivalent linear
stochastic system are assembled.  All derived coefficients are real by
construction; a residual imaginary part above tolerance is treated as a
modelling error, not rounded away silently.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonRealCoefficient,
    ValidationError,
)

__all__ = [
    "PhaseSpaceModel",
    "LinearCoefficients",
    "GaussianBelief",
    "UncertaintyReport",
    "build_coefficients",
    "check_uncertainty",
    "free_particle_model",
    "model_from_json",
]

#: imaginary residue tolerated before a derived coefficient is rejected
REAL_TOL = 1e-12
#: asymmetry tolerated in matrices that are symmetrized on input
SYM_TOL = 1e-10
#: eigenvalue floor for the uncertainty check
UNCERTAINTY_TOL = -1e-9

_DET_TOL = 1e-12


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, or InvalidParameter on a NaN or inf entry (which would
    slip past every later ``x > tol`` guard)."""
    if not np.isfinite(arr).all():
        raise InvalidParameter(f"{name} has non-finite entries")
    return arr


def _positive(value, name: str) -> float:
    """``value`` as a float, or InvalidParameter unless it is a finite
    positive number (``not x > 0`` alone lets ``inf`` through; an integer
    past the float range counts as infinite)."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise InvalidParameter(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise InvalidParameter(f"{name} must be finite and positive, got {value}")
    return value


@contextlib.contextmanager
def _fits_in_memory(what: str):
    """Turn an allocation that fails inside the block into InvalidParameter:
    the input named by ``what`` asked for more memory than there is."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise InvalidParameter(f"{what} larger than memory allows") from exc


def _asarray(value, dtype, shape, name: str) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    if arr.shape != shape:
        raise DimensionMismatch(
            f"{name} must have shape {shape}, got {arr.shape}"
        )
    return _finite(arr, name)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _symmetrize(arr: np.ndarray, name: str) -> np.ndarray:
    if np.max(np.abs(arr - arr.T)) > SYM_TOL:
        raise ValidationError(f"{name} must be symmetric")
    return 0.5 * (arr + arr.T)


def _require_real(arr: np.ndarray, name: str) -> np.ndarray:
    residue = float(np.max(np.abs(arr.imag))) if np.iscomplexobj(arr) else 0.0
    if residue > REAL_TOL:
        raise NonRealCoefficient(
            f"{name} has imaginary residue {residue:.3e} above {REAL_TOL:.1e}"
        )
    return np.real(arr)


@dataclass(frozen=True)
class PhaseSpaceModel:
    """Quadratic open-system model with linear measurement and control.

    Parameters
    ----------
    J : (m, m) real array
        Antisymmetric, nondegenerate commutator matrix of the phase-space
        coordinates.
    R : (m, m) real array
        Symmetric Hamiltonian matrix; the free Hamiltonian is the
        quadratic form with kernel ``R/2``.
    Lambda : (d, m) complex array
        Measurement coupling, one row per output channel.
    K : (m, k) complex array
        Control coupling; column ``j`` couples to the scalar control
        ``u_j``.
    hbar : float
        Scale of the commutator.  Must be positive.
    """

    J: NDArray[np.float64]
    R: NDArray[np.float64]
    Lambda: NDArray[np.complex128]
    K: NDArray[np.complex128]
    hbar: float = 1.0

    def __post_init__(self) -> None:
        J = _finite(np.array(self.J, dtype=float), "J")
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise DimensionMismatch(f"J must be square, got shape {J.shape}")
        m = J.shape[0]
        if m % 2 != 0:
            raise InvalidParameter(f"phase-space dimension must be even, got {m}")
        if np.max(np.abs(J + J.T)) > SYM_TOL:
            raise ValidationError("J must be antisymmetric")
        if abs(np.linalg.det(J)) <= _DET_TOL:
            raise ValidationError("J must be nondegenerate")
        _positive(self.hbar, "hbar")

        R = _symmetrize(_asarray(self.R, float, (m, m), "R"), "R")
        Lam = _finite(np.array(self.Lambda, dtype=complex), "Lambda")
        if Lam.ndim != 2 or Lam.shape[1] != m:
            raise DimensionMismatch(
                f"Lambda must have shape (d, {m}), got {Lam.shape}"
            )
        K = _finite(np.array(self.K, dtype=complex), "K")
        if K.ndim != 2 or K.shape[0] != m:
            raise DimensionMismatch(f"K must have shape ({m}, k), got {K.shape}")

        object.__setattr__(self, "J", _frozen(J))
        object.__setattr__(self, "R", _frozen(R))
        object.__setattr__(self, "Lambda", _frozen(Lam))
        object.__setattr__(self, "K", _frozen(K))

    @property
    def m(self) -> int:
        """Number of phase-space coordinates."""
        return self.J.shape[0]

    @property
    def d(self) -> int:
        """Number of measurement channels."""
        return self.Lambda.shape[0]

    @property
    def k(self) -> int:
        """Number of scalar controls."""
        return self.K.shape[1]


@dataclass(frozen=True)
class LinearCoefficients:
    """Real matrices (A, B, C, N, M) of the equivalent linear system.

    ``A`` is the drift, ``B`` the control input, ``C`` the output map,
    ``N`` the state-noise intensity and ``M`` the state-output noise
    correlation.
    """

    A: NDArray[np.float64]
    B: NDArray[np.float64]
    C: NDArray[np.float64]
    N: NDArray[np.float64]
    M: NDArray[np.float64]

    def __post_init__(self) -> None:
        A = _finite(np.array(self.A, dtype=float), "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        m = A.shape[0]
        B = _finite(np.array(self.B, dtype=float), "B")
        if B.ndim != 2 or B.shape[0] != m:
            raise DimensionMismatch(f"B must have shape ({m}, k), got {B.shape}")
        C = _finite(np.array(self.C, dtype=float), "C")
        if C.ndim != 2 or C.shape[1] != m:
            raise DimensionMismatch(f"C must have shape (d, {m}), got {C.shape}")
        d = C.shape[0]
        N = _symmetrize(_asarray(self.N, float, (m, m), "N"), "N")
        if float(np.min(np.linalg.eigvalsh(N))) < -REAL_TOL:
            raise ValidationError("N must be positive semidefinite")
        M = _asarray(self.M, float, (m, d), "M")
        for name, arr in (("A", A), ("B", B), ("C", C), ("N", N), ("M", M)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.C.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior mean and symmetrized covariance of the state."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self) -> None:
        mean = _finite(np.array(self.mean, dtype=float), "mean")
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        m = mean.shape[0]
        cov = _symmetrize(_asarray(self.cov, float, (m, m), "cov"), "cov")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(cov))

    @property
    def m(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class UncertaintyReport:
    """Outcome of the Heisenberg-bound check on a covariance matrix."""

    passed: bool
    min_eigenvalue: float


def build_coefficients(model: PhaseSpaceModel) -> LinearCoefficients:
    """Assemble the real linear-system coefficients of a model.

    Parameters
    ----------
    model : PhaseSpaceModel

    Returns
    -------
    LinearCoefficients
        Drift ``A = J (R + hbar Im(Lambda^* Lambda))``, input
        ``B = J (K + conj(K))``, output ``C = Lambda + conj(Lambda)``,
        noise intensity ``N`` and correlation ``M``.  Each is checked to
        be real within tolerance; ``N`` is additionally symmetrized and
        must be positive semidefinite up to an eigenvalue floor.

    Raises
    ------
    NonRealCoefficient
        If any derived matrix keeps an imaginary residue above
        ``REAL_TOL``.
    """
    J = model.J
    hbar = model.hbar
    Lam = model.Lambda
    gram = Lam.conj().T @ Lam  # d-channel Gram matrix of the couplings

    A = _require_real(J @ (model.R + hbar * np.imag(gram)), "A")
    B = _require_real(J @ (model.K + model.K.conj()), "B")
    C = _require_real(model.Lambda + model.Lambda.conj(), "C")
    N = _require_real(0.5 * hbar**2 * J @ (gram + gram.conj()) @ J.T, "N")
    M = _require_real(0.5j * hbar * J @ (Lam.T - Lam.conj().T), "M")

    N = 0.5 * (N + N.T)
    floor = float(np.min(np.linalg.eigvalsh(N)))
    if floor < -REAL_TOL:
        raise ValidationError(
            f"noise intensity lost positivity (min eigenvalue {floor:.3e})"
        )
    return LinearCoefficients(A=A, B=B, C=C, N=N, M=M)


def _heisenberg_margin(cov: np.ndarray, J: np.ndarray, hbar: float) -> np.ndarray:
    """Lowest eigenvalue of ``cov + (i hbar / 2) J`` for each matrix of a
    ``(..., m, m)`` stack of covariances.

    The one place the Heisenberg matrix is formed; it is built in place
    on a complex copy, so a whole path costs one complex path of memory.
    """
    herm = cov.astype(complex)
    herm += 0.5j * hbar * np.asarray(J, dtype=float)
    return np.linalg.eigvalsh(herm)[..., 0]


def check_uncertainty(
    cov: NDArray[np.float64],
    J: NDArray[np.float64],
    hbar: float,
) -> UncertaintyReport:
    """Test the Heisenberg bound ``cov + (i hbar / 2) J >= 0``.

    The matrix is Hermitian, so the check reduces to its smallest
    eigenvalue; the bound passes when that eigenvalue is at least
    ``UNCERTAINTY_TOL``.  With ``hbar = 0`` this degenerates to plain
    positive semidefiniteness.  A non-finite ``cov``, ``J`` or ``hbar``
    raises InvalidParameter: LAPACK would report an eigenvalue made up
    from it.
    """
    cov = _finite(np.asarray(cov, dtype=float), "cov")
    J = _finite(np.asarray(J, dtype=float), "J")
    if not math.isfinite(hbar):
        raise InvalidParameter(f"hbar must be finite, got {hbar}")
    if cov.shape != J.shape:
        raise DimensionMismatch(
            f"cov and J must have equal shapes, got {cov.shape} and {J.shape}"
        )
    lam_min = float(_heisenberg_margin(cov, J, hbar))
    return UncertaintyReport(passed=lam_min >= UNCERTAINTY_TOL, min_eigenvalue=lam_min)


def free_particle_model(mass: float = 1.0, hbar: float = 1.0) -> PhaseSpaceModel:
    """Free particle under continuous position monitoring.

    Coordinates are ``(Q, P)`` with ``[Q, P] = i hbar``, kinetic
    Hamiltonian ``P^2 / 2 mass``, a single position output channel and a
    single linear-in-``Q`` control coupling.

    Parameters
    ----------
    mass, hbar : float
        Both must be positive.
    """
    mass = _positive(mass, "mass")
    hbar = _positive(hbar, "hbar")
    return PhaseSpaceModel(
        J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        R=np.array([[0.0, 0.0], [0.0, 1.0 / mass]]),
        Lambda=np.array([[1.0 + 0.0j, 0.0j]]),
        K=np.array([[-0.5 + 0.0j], [0.0j]]),
        hbar=hbar,
    )


def _json_object(source, what: str) -> dict:
    """A parsed JSON object, or the one a file holds; InvalidParameter
    when the file is not valid JSON or holds anything but an object."""
    if isinstance(source, dict):
        return source
    with open(source, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InvalidParameter(
                f"{what} file '{source}' is not valid JSON: {exc}"
            ) from None
    if not isinstance(data, dict):
        raise InvalidParameter(f"{what} file '{source}' must hold a JSON object")
    return data


def _json_count(data: dict, key: str) -> int:
    """``data[key]`` as a positive integer; InvalidParameter for a string,
    null, bool, list, object, fractional or non-positive value."""
    value = data[key]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
        or value < 1
    ):
        raise InvalidParameter(
            f"key '{key}' must be a positive integer, got {value!r}"
        )
    return int(value)


def _json_positive(data: dict, key: str) -> float:
    """``data[key]`` as a finite positive float; InvalidParameter for
    anything else, a numeric string included."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameter(f"key '{key}' must be a number, got {value!r}")
    return _positive(value, f"key '{key}'")


def _json_array(value, name: str) -> np.ndarray:
    """A JSON vector or matrix as a float array; InvalidParameter when it
    is ragged, too large for a float, or holds anything but numbers (a
    string, bool or null included)."""
    def numbers(v) -> bool:
        if isinstance(v, list):
            return all(numbers(x) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    try:
        if numbers(value):
            return np.array(value, dtype=float)
    except (ValueError, OverflowError):
        pass
    raise InvalidParameter(f"{name} must be a numeric array, got {value!r}")


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise InvalidParameter(f"key '{key}' must be a list, got {value!r}")
    return value


def model_from_json(source: str | Path | dict) -> PhaseSpaceModel:
    """Load a :class:`PhaseSpaceModel` from a JSON file or parsed dict.

    Expected keys: ``m``, ``d``, ``hbar``, ``J``, ``R``, ``Lambda_re``,
    ``Lambda_im``, ``K_re``, ``K_im``.  Matrices are nested row-major
    lists.  Errors name the offending key.
    """
    data = _json_object(source, "model")
    required = ["m", "d", "hbar", "J", "R", "Lambda_re", "Lambda_im", "K_re", "K_im"]
    for key in required:
        if key not in data:
            raise InvalidParameter(f"model JSON is missing key '{key}'")

    m = _json_count(data, "m")
    d = _json_count(data, "d")

    def grab(key: str, shape: tuple[int, int] | None = None) -> np.ndarray:
        arr = _json_array(data[key], f"key '{key}'")
        if shape is not None and arr.shape != shape:
            raise DimensionMismatch(
                f"key '{key}' must have shape {shape}, got {arr.shape}"
            )
        return arr

    J = grab("J", (m, m))
    R = grab("R", (m, m))
    Lam = grab("Lambda_re", (d, m)) + 1j * grab("Lambda_im", (d, m))
    k_re = grab("K_re")
    if k_re.ndim != 2 or k_re.shape[0] != m:
        raise DimensionMismatch(
            f"key 'K_re' must have shape ({m}, k), got {k_re.shape}"
        )
    K = k_re + 1j * grab("K_im", k_re.shape)
    return PhaseSpaceModel(J=J, R=R, Lambda=Lam, K=K, hbar=_json_positive(data, "hbar"))
