"""Linear quantum models on phase space and their real coefficient matrices.

A model is specified by a symplectic form ``J``, a quadratic Hamiltonian
matrix ``R``, a vector of measurement couplings ``Lambda`` (one row per
output channel) and a control coupling matrix ``K``.  From these the
drift, input, output and noise matrices of the equivalent linear
stochastic system are assembled.  All derived coefficients are real by
construction; a residual imaginary part above tolerance is treated as a
modelling error, not rounded away silently.

Beside the model, its coefficients and the Gaussian belief, the module
holds the Heisenberg bound on a covariance.  Every argument is read by
the package's readers in ``qlqg._readers``; the classes keep what was
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from ._readers import (
    _asarray,
    _asymmetric,
    _frozen,
    _json_array,
    _json_count,
    _json_object,
    _positive,
    _semidefinite,
    _square,
    _symmetrize,
)
from .errors import InvalidParameter, NonRealCoefficient

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
#: eigenvalue floor for the uncertainty check
UNCERTAINTY_TOL = -1e-9

_DET_TOL = 1e-12


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
        if _asymmetric(J, sign=1.0):
            raise InvalidParameter("J must be antisymmetric")
        if abs(np.linalg.det(J)) <= _DET_TOL:
            raise InvalidParameter("J must be nondegenerate")
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
        N = _semidefinite(_symmetrize(_asarray(self.N, float, (m, m), "N"), "N"), "N")
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
        must be positive semidefinite down to ``qlqg._readers.PSD_FLOOR``.

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
    # hbar**2 would raise OverflowError past hbar ~ 1e154; an N past the
    # float range is left to LinearCoefficients to reject
    with np.errstate(over="ignore", invalid="ignore"):
        N = _require_real(0.5 * (hbar * hbar) * J @ (gram + gram.conj()) @ J.T, "N")
        # the product is symmetric only up to rounding, which cancellation
        # between its terms can lift past LinearCoefficients' own check
        N = 0.5 * (N + N.T)
    M = _require_real(0.5j * hbar * J @ (Lam.T - Lam.conj().T), "M")
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


def model_from_json(source: str | Path | dict) -> PhaseSpaceModel:
    """Load a :class:`PhaseSpaceModel` from a JSON file or parsed dict.

    Expected keys: ``m``, ``d``, ``hbar``, ``J``, ``R``, ``Lambda_re``,
    ``Lambda_im``, ``K_re``, ``K_im``.  Matrices are nested row-major
    lists.  Errors name the offending key.
    """
    data = _json_object(Path(source) if isinstance(source, str) else source, "model",
                        ("m", "d", "hbar", "J", "R", "Lambda_re", "Lambda_im", "K_re", "K_im"))

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
