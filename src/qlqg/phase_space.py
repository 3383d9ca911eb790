"""Linear quantum models on phase space and their real coefficient matrices.

A model is specified by a symplectic form ``J``, a quadratic Hamiltonian
matrix ``R``, a vector of measurement couplings ``Lambda`` (one row per
output channel) and a control coupling matrix ``K``.  From these the
drift, input, output and noise matrices of the equivalent linear
stochastic system are assembled.  All derived coefficients are real by
construction; a residual imaginary part above tolerance is treated as a
modelling error, not rounded away silently.

The package reads its array arguments through one function,
:func:`_asarray`: it converts, checks the shape and then finiteness, so
junk input (a string, a ragged list, a NaN) is a :class:`ValidationError`
wherever it enters.  A real scalar is read by it as a 0-d array, and an
integer by :func:`_count`; each caller keeps the value that was read.
"""

from __future__ import annotations

import contextlib
import json
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
#: lowest eigenvalue allowed in a matrix that must be positive
#: semidefinite: N, F and Omega_T, so a cost and its dual pass alike
PSD_FLOOR = -1e-12
#: asymmetry tolerated in matrices that are symmetrized on input, relative
#: to the largest entry once that is past 1
SYM_TOL = 1e-10
#: eigenvalue floor for the uncertainty check
UNCERTAINTY_TOL = -1e-9

_DET_TOL = 1e-12


def _positive(value, name: str) -> float:
    """``value`` read by :func:`_asarray` as a float; InvalidParameter
    unless it is positive."""
    value = float(_asarray(value, float, (), name))
    if not value > 0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    return value


@contextlib.contextmanager
def _fits_in_memory(what: str):
    """Turn an allocation that fails inside the block into InvalidParameter:
    the input named by ``what`` asked for more memory than there is."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise InvalidParameter(f"{what} larger than memory allows") from exc


def _count(value, name: str, low: int) -> int:
    """``value`` as an int, or InvalidParameter unless it is an integer
    >= ``low`` (a bool is not one)."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer)) and value >= low
    ):
        raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _asarray(value, dtype, shape, name: str, copy: bool = True) -> np.ndarray:
    """The one reader of array arguments: ``value`` as an array of ``dtype``.

    InvalidParameter when it does not convert (a string, a ragged list, an
    integer past the float range).  DimensionMismatch unless it has the
    rank of ``shape`` and each of its fixed dimensions; a ``None`` entry
    takes any length, and ``shape=None`` any shape.  Last, InvalidParameter
    on a NaN or inf entry, which would slip past every later ``x > tol``
    guard.  That test takes the extremes of the real and imaginary parts:
    NaN propagates through both and an inf reaches one, and unlike
    ``np.isfinite(arr).all()`` they allocate nothing the size of ``arr``.
    With ``copy=False`` an array that needs no conversion is ``value``
    itself.
    """
    try:
        arr = (np.array if copy else np.asarray)(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        kind = "complex" if np.dtype(dtype).kind == "c" else "real"
        raise InvalidParameter(f"{name} must be {kind} numbers, got {value!r}") from None
    if shape is not None and (arr.ndim != len(shape) or any(
            want not in (None, got) for got, want in zip(arr.shape, shape))):
        want = str(tuple("any" if n is None else n for n in shape)).replace("'", "")
        raise DimensionMismatch(f"{name} must have shape {want}, got {arr.shape}")
    parts = (arr.real, arr.imag) if arr.dtype.kind == "c" else (arr,)
    if arr.size and not all(np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts):
        raise InvalidParameter(f"{name} has non-finite entries")
    return arr


def _square(value, dtype, name: str, copy: bool = True) -> np.ndarray:
    """:func:`_asarray` for a square matrix of any size."""
    arr = _asarray(value, dtype, (None, None), name, copy)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _asymmetric(diff: np.ndarray, arr: np.ndarray) -> bool:
    """Whether ``diff`` (``arr - arr'`` or ``arr + arr'``) is past ``SYM_TOL``
    relative to the largest entry of ``arr``, or to 1 for smaller entries."""
    return bool(np.max(np.abs(diff)) > SYM_TOL * max(1.0, float(np.max(np.abs(arr)))))


def _symmetrize(arr: np.ndarray, name: str) -> np.ndarray:
    if _asymmetric(arr - arr.T, arr):
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
        J = _square(self.J, float, "J")
        m = J.shape[0]
        if m % 2 != 0:
            raise InvalidParameter(f"phase-space dimension must be even, got {m}")
        if _asymmetric(J + J.T, J):
            raise ValidationError("J must be antisymmetric")
        if abs(np.linalg.det(J)) <= _DET_TOL:
            raise ValidationError("J must be nondegenerate")
        object.__setattr__(self, "hbar", _positive(self.hbar, "hbar"))

        R = _symmetrize(_asarray(self.R, float, (m, m), "R"), "R")
        Lam = _asarray(self.Lambda, complex, (None, m), "Lambda")
        K = _asarray(self.K, complex, (m, None), "K")

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
        A = _square(self.A, float, "A")
        m = A.shape[0]
        B = _asarray(self.B, float, (m, None), "B")
        C = _asarray(self.C, float, (None, m), "C")
        d = C.shape[0]
        N = _symmetrize(_asarray(self.N, float, (m, m), "N"), "N")
        floor = float(np.min(np.linalg.eigvalsh(N)))
        if floor < PSD_FLOOR:
            raise ValidationError(
                f"N must be positive semidefinite (min eigenvalue {floor:.3e})"
            )
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
        mean = _asarray(self.mean, float, (None,), "mean")
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
        must be positive semidefinite down to ``PSD_FLOOR``.

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

    # the product is symmetric only up to rounding, which cancellation
    # between its terms can lift past LinearCoefficients' own check
    N = 0.5 * (N + N.T)
    return LinearCoefficients(A=A, B=B, C=C, N=N, M=M)


def _heisenberg_margin(cov: np.ndarray, J: np.ndarray, hbar: float) -> np.ndarray:
    """Lowest eigenvalue of ``cov + (i hbar / 2) J`` for each matrix of a
    ``(..., m, m)`` stack of covariances.

    Only the entries ``eigvalsh`` reads count: the real diagonal and the
    lower triangle.  At ``m = 2`` that eigenvalue comes in closed form,
    ``(a + c)/2 - sqrt(((a - c)/2)^2 + S10^2 + (hbar J10 / 2)^2)``, with
    ``a, c`` the diagonal of ``S = cov``.  Larger stacks go through
    ``eigvalsh`` on a complex copy built in place, so a whole path costs
    one complex path of memory.
    """
    J, hbar = np.asarray(J, dtype=float), float(hbar)
    if cov.shape[-1] == 2:
        a, c, low = cov[..., 0, 0], cov[..., 1, 1], cov[..., 1, 0]
        radius = np.hypot(np.hypot(0.5 * (a - c), low), 0.5 * hbar * J[1, 0])
        return 0.5 * (a + c) - radius
    herm = cov.astype(complex)
    herm += 0.5j * hbar * J
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
    raises InvalidParameter: it has no eigenvalue, yet LAPACK (``m > 2``)
    would report one made up from it, and the closed form (``m = 2``) a
    NaN that fails the bound without naming the cause.  ``J`` must have
    the shape of the square ``cov``.
    """
    cov = _square(cov, float, "cov", copy=False)
    J = _asarray(J, float, cov.shape, "J", copy=False)
    hbar = float(_asarray(hbar, float, (), "hbar"))
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


def _json_count(value, name: str, low: int) -> int:
    """:func:`_count` for a JSON value, where an integral float such as
    ``5000.0`` is an integer too."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _count(value, name, low)


def _json_array(value, name: str, shape=None) -> np.ndarray:
    """A JSON vector or matrix as a float array, read by :func:`_asarray`
    against ``shape``; InvalidParameter also when it holds anything but
    numbers (a string, bool or null included)."""
    def numbers(v) -> bool:
        if isinstance(v, list):
            return all(numbers(x) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not numbers(value):
        raise InvalidParameter(f"{name} must be a numeric array, got {value!r}")
    return _asarray(value, float, shape, name)


def _json_complex(value, name: str, shape=None) -> np.ndarray:
    """A JSON ``{"re": .., "im": ..}`` pair as a complex array, both parts
    of one shape (``shape``, when given); InvalidParameter unless it is
    such a pair."""
    if not isinstance(value, dict) or "re" not in value or "im" not in value:
        raise InvalidParameter(f"{name} must be a {{re, im}} pair")
    re = _json_array(value["re"], name, shape)
    return re + 1j * _json_array(value["im"], name, re.shape)


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

    m = _json_count(data["m"], "key 'm'", 1)
    d = _json_count(data["d"], "key 'd'", 1)

    def grab(key: str, shape) -> np.ndarray:
        return _json_array(data[key], f"key '{key}'", shape)

    J = grab("J", (m, m))
    R = grab("R", (m, m))
    Lam = grab("Lambda_re", (d, m)) + 1j * grab("Lambda_im", (d, m))
    k_re = grab("K_re", (m, None))
    K = k_re + 1j * grab("K_im", k_re.shape)
    return PhaseSpaceModel(J=J, R=R, Lambda=Lam, K=K, hbar=grab("hbar", ()))
