"""Finite-dimensional density-matrix engine.

Lindblad master flow, diffusive filtering of measurement records, and a
discrete conditioning oracle built from an explicit system-ancilla
unitary.  Both flows run on one generator,

    G rho = K rho + rho K' + sum_c Lc rho Lc',  K = -iH(u)/hbar - sum_c Lc'Lc/2,

built once per control, not once per step.

A state is carried as its n^2 real coordinates: the diagonal, then
Re rho_ij, then Im rho_ij for i < j.  A matrix rebuilt from them is
Hermitian by construction, so neither flow ever projects.  Every linear
map of the flows is a real (n^2, n^2) matrix on these coordinates,
built from K and the Lc through their Kronecker form and a change of
basis: G itself, and for each channel M_c, the map rho -> Lc rho + rho Lc'.

An ensemble is an (n^2, B) array, one trajectory per column, the layout
the closed loop uses.  One Euler step filters every record (ensembles
and :func:`sme_step`): one real GEMM of the stacked
[(I + dt G); M_1; ...; M_d] against the coordinates, then passes over
contiguous rows of length B.  Feedback on the filter state rides the same
GEMM: the readouts tr(rho O_j) and the control maps are more rows of the
stack, so each column steps under its own control.  The GEMMs are real,
not complex, and B is the closed loop's chunk width, a multiple of 8
columns, so a trajectory rounds alike in every batch and replays bit for
bit from ``(seed, index)``.  The master flow steps one state by the one
matrix sum_{k<=4} (dt G)^k / k!, its RK4 step.  The public types stay
complex; states are converted at record rows and at the end of a chunk.

Three independent oracles check the flows: the commutator-form
generators (``lindblad_schrodinger`` and ``lindblad_heisenberg`` in the
tests' ``oracles`` module) check G and the M_c, the master flow checks
the ensemble mean, and ancilla conditioning checks one step.  The
filtering step renormalizes by the trace; its fluctuation term is
traceless, so that is a second-order correction.  Positivity is monitored, never projected:
clipping would mask integration error, so a computed state past the floor
raises :class:`PositivityLoss`, while a given one is rejected input
(:class:`InvalidParameter`).  Every operator given as Hermitian is kept as
its exact Hermitian part.

Both flows check every state they step through one routine, a block of
steps at a time: up to 256 master-flow steps, or as many ensemble steps
as fit in 2^16 coordinates.  An ensemble's check block is also the block
of noise it copies out of its window, so a block is copied, stepped and
checked as a unit.  A failure names the earliest failing
column: the lowest-index failing trajectory at the first failing step,
or the first failing step of the master flow, as a check after every
step would.  That state is tested in the order finite, eigenvalue floor,
then (master flow only, since the filtering step renormalizes) unit
trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from ._readers import (
    _asarray,
    _asymmetric,
    _count,
    _fits_in_memory,
    _frozen,
    _json_array,
    _json_complex,
    _json_count,
    _json_list,
    _json_object,
    _positive,
    _square,
    _stack_operators,
    _symmetrize,
)
from .ensemble import _at, _BLOCK, _chunk_width, _noise_blocks, _run_chunks, SimConfig
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFinite,
    NotAProjectorFamily,
    NotUnitary,
    PositivityLoss,
)
from .riccati import _rk4_map

__all__ = [
    "DensityMatrix",
    "FiniteModel",
    "SmeEnsemble",
    "evolve_master",
    "sme_step",
    "simulate_sme_ensemble",
    "discrete_conditioning",
    "weak_measurement_unitary",
    "ancilla_quadrature_projectors",
    "trace_norm",
    "trace_distance",
    "finite_model_from_json",
]

TRACE_TOL = 1e-9

#: eigenvalue floor; below this the step size was too coarse
POSITIVITY_FLOOR = -1e-6

#: coordinates of the ensemble's states checked at a time (512 KB): the
#: check's fixed cost per call is spread over as many steps as fit
_CHECK_COORDS = 2**16


def trace_norm(X: NDArray[np.complex128]) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, read as its exact
    Hermitian part."""
    X = _symmetrize(_square(X, complex, "X", copy=False), "X")
    return float(np.abs(np.linalg.eigvalsh(X)).sum())


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states, each read as
    its exact Hermitian part."""
    a, b = (_symmetrize(_square(x.entries if isinstance(x, DensityMatrix) else x,
                                complex, name, copy=False), name)
            for x, name in ((a, "a"), (b, "b")))
    if a.shape != b.shape:
        raise DimensionMismatch(f"states of shapes {a.shape} and {b.shape} differ")
    return 0.5 * trace_norm(a - b)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace state with a bounded negativity allowance.

    The eigenvalue floor is the coarse-step failure threshold rather
    than a strict zero, so that integration error surfaces as a
    :class:`PositivityLoss` instead of being hidden by clipping; a state
    given below it is :class:`InvalidParameter`.
    """

    entries: NDArray[np.complex128]

    def __post_init__(self) -> None:
        # Hermitian to the last bit, which the flows then preserve
        entries = _symmetrize(_square(self.entries, complex, "state", copy=False), "state")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidParameter(f"state trace {trace} is not 1")
        low = float(np.linalg.eigvalsh(entries).min())
        if low < POSITIVITY_FLOOR:
            raise InvalidParameter(f"state eigenvalue {low:.3e} below floor")
        object.__setattr__(self, "entries", _frozen(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def expectation(self, X: NDArray[np.complex128]) -> complex:
        """Tr[rho X]."""
        X = _asarray(X, complex, self.entries.shape, "observable", copy=False)
        return complex(np.einsum("ij,ji->", self.entries, X))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min())

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Rank-one state from a ket, normalized."""
        psi = _asarray(amplitudes, complex, None, "amplitudes", copy=False).reshape(-1)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise InvalidParameter("zero vector has no direction")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class FiniteModel:
    """Hamiltonian family H0 + sum_k u_k H_k and coupling operators.

    Every Hamiltonian term must be Hermitian so H(u) is Hermitian for
    any real control.  Couplings are unrestricted complex matrices, one
    per output channel.
    """

    H0: NDArray[np.complex128]
    L_list: NDArray[np.complex128]
    H_controls: NDArray[np.complex128] = ()
    hbar: float = 1.0

    def __post_init__(self) -> None:
        H0 = _square(self.H0, complex, "H0", copy=False)
        n = H0.shape[0]
        Ls = _stack_operators(self.L_list, n, "L_list")
        if np.may_share_memory(Ls, self.L_list):
            # the caller's own array or a view of it: freeze a copy
            Ls = Ls.copy()
        Hs = _stack_operators(self.H_controls, n, "H_controls")
        H0 = _symmetrize(H0, "H0")
        Hs = np.array([_symmetrize(term, f"H_controls[{i}]") for i, term in enumerate(Hs)],
                      dtype=complex).reshape(Hs.shape)
        object.__setattr__(self, "hbar", _positive(self.hbar, "hbar"))
        object.__setattr__(self, "H0", _frozen(H0))
        object.__setattr__(self, "L_list", _frozen(Ls))
        object.__setattr__(self, "H_controls", _frozen(Hs))

    @property
    def dim(self) -> int:
        return self.H0.shape[0]

    @property
    def n_channels(self) -> int:
        return self.L_list.shape[0]

    @property
    def n_controls(self) -> int:
        return self.H_controls.shape[0]

    def hamiltonian(self, u=None) -> NDArray[np.complex128]:
        """H0 + sum_k u_k H_k; ``u=None`` means all controls off."""
        if u is None:
            return self.H0
        u = _asarray(u, float, None, "control", copy=False).reshape(-1)
        if u.shape[0] != self.n_controls:
            raise DimensionMismatch(
                f"control has {u.shape[0]} entries, model has "
                f"{self.n_controls} control Hamiltonians"
            )
        return self.H0 + np.einsum("k,kij->ij", u, self.H_controls)


@functools.lru_cache(maxsize=None)
def _coord_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the n^2 coordinates sit in a flattened n x n matrix.

    Coordinate k < n is the diagonal entry ``diag[k]``; coordinates n..
    are Re rho_ij, then Im rho_ij, of the entries ``upper`` (i < j), whose
    mirror entries ``lower`` hold their conjugates.
    """
    i, j = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), i * n + j, j * n + i


def _coords(states: np.ndarray) -> np.ndarray:
    """The (n^2, B) coordinates of a (B, n, n) stack of Hermitian matrices."""
    diag, upper, _ = _coord_index(states.shape[-1])
    flat = states.reshape(len(states), -1)
    parts = [flat[:, diag].real, flat[:, upper].real, flat[:, upper].imag]
    return np.concatenate(parts, axis=1).T.copy()


def _assembled(h: np.ndarray) -> np.ndarray:
    """The (B, n, n) complex stack of (n^2, B) coordinates, exactly Hermitian."""
    n = math.isqrt(h.shape[0])
    diag, upper, lower = _coord_index(n)
    re, im = h[n:n + upper.size].T, h[n + upper.size:].T
    out = np.zeros((h.shape[1], n * n), dtype=complex)
    out.real[:, diag] = h[:n].T
    out.real[:, upper] = re
    out.real[:, lower] = re
    out.imag[:, upper] = im
    out.imag[:, lower] = -im
    return out.reshape(-1, n, n)


def _trace(h: np.ndarray) -> np.ndarray:
    """Per-column trace of (n^2, B) coordinates, the sum of the first n rows.

    Summed row by row in a fixed order, so a column's trace rounds the
    same for every B (numpy's reduction regroups a sum of eight or more
    terms when B = 1).
    """
    n = math.isqrt(h.shape[0])
    if n == 1:
        return h[0].copy()
    total = h[0] + h[1]
    for i in range(2, n):
        total += h[i]
    return total


def _superoperator(terms, n: int) -> np.ndarray:
    """The real (n^2, n^2) matrix of rho -> sum_k A_k rho B_k on coordinates.

    The map must send Hermitian matrices to Hermitian ones.  Row-major
    vec(A rho B) is (A kron B^T) vec(rho); of that Kronecker form only the
    rows of the diagonal and upper entries are built, and its columns are
    combined into those of the coordinates: a diagonal entry's as it is,
    Re rho_ij's as column ij plus column ji, Im rho_ij's as i times their
    difference.  The output coordinates are the real parts of the
    diagonal rows, then the real and the imaginary parts of the upper ones.
    """
    diag, upper, lower = _coord_index(n)
    a, b = np.divmod(np.concatenate([diag, upper]), n)
    S = sum(A[a][:, :, None] * B.T[b][:, None, :] for A, B in terms)
    S = S.reshape(a.size, n * n)
    S = np.concatenate(
        [S[:, diag], S[:, upper] + S[:, lower], 1j * (S[:, upper] - S[:, lower])],
        axis=1)
    return np.concatenate([S[:n].real, S[n:].real, S[n:].imag])


def _lindblad_map(model: FiniteModel, u) -> np.ndarray:
    """The Lindblad generator G on coordinates, a real (n^2, n^2) matrix.

    With K = -iH(u)/hbar - sum_c Lc'Lc / 2 it is K rho + rho K' +
    sum_c Lc rho Lc', built once per control.
    """
    n, Ls = model.dim, model.L_list
    K = (-1j / model.hbar) * model.hamiltonian(u)
    K -= 0.5 * np.matmul(Ls.conj().swapaxes(1, 2), Ls).sum(axis=0)
    I = np.eye(n)
    terms = [(K, I), (I, K.conj().T)] + [(L, L.conj().T) for L in Ls]
    return _superoperator(terms, n)


def _sme_stack(model: FiniteModel, u, dt: float, readouts=None) -> np.ndarray:
    """The stacked factor [(I + dt G); M_1; ...; M_d] of one filtering step.

    M_c is the map rho -> Lc rho + rho Lc' on coordinates; the stack is a
    real ((d + 1) n^2, n^2) matrix, built once per control.  With the
    (m, n^2) ``readouts`` of a feedback it goes on with dt G_k for every
    control, G_k the map rho -> -i[H_k, rho]/hbar, and then those rows.
    A model too large for it raises InvalidParameter.  Entries past the
    float range warn nothing: the step's state check raises them.
    """
    n = model.dim
    I = np.eye(n)
    with (_fits_in_memory(f"a dim-{n} model needs filtering maps"),
          np.errstate(over="ignore", invalid="ignore")):
        step = np.eye(n * n) + dt * _lindblad_map(model, u)
        maps = [_superoperator([(L, I), (I, L.conj().T)], n) for L in model.L_list]
        if readouts is not None:
            for H in model.H_controls:
                K = (-1j * dt / model.hbar) * H
                maps.append(_superoperator([(K, I), (I, K.conj().T)], n))
            maps.append(readouts)
        return np.concatenate([step] + maps)


def _readouts(observables: np.ndarray) -> np.ndarray:
    """The (m, n^2) rows whose product with coordinates is tr(rho O_j).

    tr(rho O) sums rho_ii O_ii and, for i < j, 2 Re(rho_ij conj(O_ij)):
    the coordinates of O with the off-diagonal entries doubled.
    """
    rows = _coords(observables).T
    rows[:, observables.shape[-1]:] *= 2.0
    return rows


def _feedback(gain: np.ndarray, r: np.ndarray) -> list[np.ndarray]:
    """-gain r on (m, B) readouts, one row of length B per control.

    Summed column by column in a fixed order: as a one-row product it
    would go to GEMV, which rounds apart from the stacked GEMM.
    """
    return [sum(-g_j * r_j for g_j, r_j in zip(g, r)) for g in gain]


def _master_map(model: FiniteModel, u, dt: float) -> np.ndarray:
    """The RK4 step of the master flow on coordinates, sum_{k<=4} (dt G)^k / k!.

    For a linear flow the RK4 step is exactly this Taylor polynomial.  A
    model too large for it raises InvalidParameter.  Entries past the
    float range warn nothing: the flow's state check raises them.
    """
    with (_fits_in_memory(f"a dim-{model.dim} model needs a master-flow map"),
          np.errstate(over="ignore", invalid="ignore")):
        return _rk4_map(dt * _lindblad_map(model, u))


def _require_dim(rho: DensityMatrix, model: FiniteModel) -> None:
    if rho.dim != model.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} does not match model dim {model.dim}"
        )


def _master_at(grid, step: int) -> str:
    return f"master flow at step {step}, t={grid.t0 + step * grid.dt:.6g}"


def evolve_master(
    rho0: DensityMatrix,
    model: FiniteModel,
    grid,
    u=None,
    record_stride: int = 1,
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """March the master equation over a grid, thinning the record.

    Returns the recorded times and a stacked array of states, initial
    state included.  A state is carried as its n^2 real coordinates (the
    diagonal, Re rho_ij and Im rho_ij for i < j), so it is Hermitian by
    construction.  Under a constant control the flow is linear and
    time-invariant, so its RK4 step is the one (n^2, n^2) matrix
    sum_{k<=4} (dt G)^k / k! of the Lindblad generator G, the G of the
    filtering step, and a step is one product with it.  Steps go into a
    buffer of a fixed number of steps, so memory does not grow with
    ``n_steps``; the states of a filled buffer are checked together by
    :func:`_check_states`, unit trace included, and a failure names the
    first failing step and its time.
    """
    record_stride = _count(record_stride, "record_stride", 1)
    if grid.n_steps % record_stride != 0:
        raise InvalidParameter(
            f"record_stride {record_stride} does not divide {grid.n_steps}"
        )
    _require_dim(rho0, model)
    step_map = _master_map(model, u, grid.dt)
    block = np.empty((_BLOCK + 1, len(step_map)))
    block[0] = _coords(rho0.entries[None])[:, 0]
    with _fits_in_memory(f"n_steps {grid.n_steps} needs a path"):
        path = np.empty((grid.n_steps // record_stride + 1, len(step_map)))
    path[0] = block[0]
    row = 1
    # a state past the finite range is raised by the block's check, so the
    # overflow on the way there is no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid.n_steps, _BLOCK):
            width = min(_BLOCK, grid.n_steps - start)
            for k in range(width):
                np.dot(step_map, block[k], out=block[k + 1])
            _check_states(block[1:width + 1].T,
                          lambda b: _master_at(grid, start + b + 1), TRACE_TOL)
            # block[k] is the state after step start + k
            recorded = block[record_stride - start % record_stride:width + 1:record_stride]
            path[row:row + len(recorded)] = recorded
            row += len(recorded)
            block[0] = block[width]
    states = _assembled(path.T)
    return _frozen(grid.times(record_stride)), _frozen(states)


def _sme_update(
    h: np.ndarray, stack: np.ndarray, dW: np.ndarray, Z: np.ndarray,
    e_sum: np.ndarray, gain: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler step of the filtering equation on (n^2, B) coordinates.

    With ``stack`` = [(I + dt G); M_1; ...; M_d] from :func:`_sme_stack`
    and e_c = <Lc + Lc'>, the trace of M_c rho (the sum of its first n
    rows), the step is

        h' = (I + dt G) h + sum_c dW[c] (M_c h - e_c h),

    divided by its trace afterwards: one real GEMM of the stack against
    the coordinates, into the (len(stack), B) buffer ``Z`` (which must not
    overlap ``h``), then passes over contiguous rows of length B.  ``dW``
    is a step's (d, B) noise, one trajectory per column.  Each
    column is a trajectory whose arithmetic does not depend on the others,
    and B is :func:`_chunk_width`'s, so the GEMM rounds a column alike in
    every batch.  e of the input states is added into the (d, B) record
    sum ``e_sum``.  Under a feedback ``gain`` (k, m) the stack carries
    the rows of dt G_k and of the m readouts, and column b steps under
    its own control: v = -gain r of its readouts r is added to the
    control of the stack's G as sum_k v_k (dt G_k h).  Returns the new
    coordinates, a view into ``Z``.
    """
    n2, B = h.shape
    d = len(e_sum)
    np.matmul(stack, h, out=Z)
    out, *maps = Z[:(d + 1) * n2].reshape(-1, n2, B)
    for c, Mh in enumerate(maps):
        e = _trace(Mh)
        e_sum[c] += e
        Mh -= e * h
        Mh *= dW[c]
        out += Mh
    if gain is not None:
        drives = Z[(d + 1) * n2:(d + 1 + len(gain)) * n2].reshape(-1, n2, B)
        for v, Gh in zip(_feedback(gain, Z[(d + 1 + len(gain)) * n2:]), drives):
            Gh *= v
            out += Gh
    out *= 1.0 / _trace(out)
    return out


def _min_eigenvalues(h: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of every state of (n^2, B) coordinates, whose
    per-column ``trace`` (:func:`_trace`) the caller has summed already.

    A qubit's comes in closed form from its four rows, as
    Tr/2 - sqrt(((rho_00 - rho_11) / 2)^2 + |rho_01|^2), built in two
    temporaries.  A NaN coordinate there gives a NaN eigenvalue and an
    infinite one a NaN or -inf eigenvalue, so a non-finite qubit column
    never passes the floor; larger states go through ``eigvalsh`` on the
    assembled complex stack, which needs finite coordinates.
    """
    if h.shape[0] == 4:
        r00, r11, r01, i01 = h
        radius = r00 - r11
        radius *= 0.5
        radius *= radius
        low = r01 * r01
        radius += low
        np.multiply(i01, i01, out=low)
        radius += low
        np.sqrt(radius, out=radius)
        np.multiply(trace, 0.5, out=low)
        low -= radius
        return low
    return np.linalg.eigvalsh(_assembled(h))[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def _check_states(h: np.ndarray, where, trace_tol: float = math.inf
                  ) -> tuple[float, float]:
    """Largest |Tr - 1| and lowest eigenvalue of stepped (n^2, B) coordinates.

    The one check of both flows' states, called on a block of steps at a
    time with the columns step-major, so that the earliest failing column
    lies at the first failing step.  All columns are tested at once; a
    failure names the earliest failing column b as ``where(b)``, and
    tests that column in the order finite (:class:`NonFinite`),
    eigenvalue floor (:class:`PositivityLoss`) and, when the flow does not
    renormalize, |Tr - 1| <= ``trace_tol`` (:class:`InvalidParameter`).

    A qubit needs no finiteness pass before its closed form: a NaN or
    +-inf coordinate makes that column's trace NaN or its lowest
    eigenvalue NaN or -inf, so the block fails the floor or the trace
    and goes to the failure path, which finds the non-finite column.
    The invalid and overflow warnings of that arithmetic are not raised.
    Larger states are tested finite first, since ``eigvalsh`` needs it.
    """
    if h.shape[0] == 4 or np.isfinite(h).all():
        trace = _trace(h)
        trace_dev = max(float(trace.max()) - 1.0, 1.0 - float(trace.min()))
        low = float(_min_eigenvalues(h, trace).min())
        if low >= POSITIVITY_FLOOR and trace_dev <= trace_tol:
            return trace_dev, low
    # the earliest failing column: the first non-finite one, unless a
    # finite column before it fails the floor or the trace
    finite = np.isfinite(h).all(axis=0)
    stop = h.shape[1] if finite.all() else int(np.argmin(finite))
    trace = _trace(h[:, :stop])
    lows = _min_eigenvalues(h[:, :stop], trace)
    fails = ~(lows >= POSITIVITY_FLOOR) | (np.abs(trace - 1.0) > trace_tol)
    b = int(np.argmax(fails)) if fails.any() else stop
    at = where(b)
    if b == stop:
        raise NonFinite(f"state left the finite range in {at}")
    if not lows[b] >= POSITIVITY_FLOOR:
        raise PositivityLoss(f"eigenvalue {lows[b]:.3e} below floor in {at}")
    raise InvalidParameter(f"state trace off 1 by {abs(trace[b] - 1.0):.3e} in {at}")


def sme_step(
    rho: DensityMatrix, model: FiniteModel, u, dY, dt: float
) -> DensityMatrix:
    """One Euler step of the diffusive filtering equation.

    The record enters through the innovation dY_i - <Li+Li'> dt, which
    drives the ensemble's step on a batch of one state.
    """
    dt = _positive(dt, "dt")
    dY = _asarray(dY, float, (model.n_channels,), "record dY")
    _require_dim(rho, model)
    stack = _sme_stack(model, u, dt)
    h = np.repeat(_coords(rho.entries[None]), _chunk_width(1), axis=1)
    n2, B = h.shape
    dW = np.zeros((model.n_channels, B))
    for c, Mh in enumerate((stack[n2:] @ h).reshape(-1, n2, B)):
        dW[c, 0] = dY[c] - _trace(Mh)[0] * dt
    out = _sme_update(h, stack, dW, np.empty((len(stack), B)), np.zeros(dW.shape))
    _check_states(out[:, :1], lambda _: "the filtering step")
    return DensityMatrix(_assembled(out[:, :1])[0])


@dataclass(frozen=True)
class SmeEnsemble:
    """Ensemble summary: mean paths plus per-trajectory endpoints.

    At each recorded time, ``mean_states`` is the mean filter state,
    ``mean_outputs`` the mean record increment dY accumulated over the
    interval ending there (first row zero) and ``mean_controls`` the mean
    control; for one trajectory they are that trajectory's own.
    ``min_eigenvalue`` is the most negative eigenvalue seen at any step
    of any trajectory; ``max_trace_deviation`` the largest |Tr-1| after
    renormalization.
    """

    config: SimConfig
    times: NDArray[np.float64]
    mean_states: NDArray[np.complex128]
    mean_outputs: NDArray[np.float64]
    mean_controls: NDArray[np.float64]
    final_states: NDArray[np.complex128]
    min_eigenvalue: float
    max_trace_deviation: float

    def __len__(self) -> int:
        return self.final_states.shape[0]


def simulate_sme_ensemble(
    rho0: DensityMatrix,
    model: FiniteModel,
    config: SimConfig,
    u=None,
    feedback=None,
    first: int = 0,
) -> SmeEnsemble:
    """Filtering trajectories ``first`` to ``first + n_traj - 1`` of a seed.

    Each trajectory's record is dY = <L+L'> dt + dW, with dW from its own
    SFC64 noise stream, that of ``(config.seed, index)``.  The
    control is ``u`` (``None`` keeps every control off), and under
    ``feedback=(observables, gain)`` it is u - gain r at every grid time,
    with the readouts r_j = tr(rho O_j) of the trajectory's own filter
    state: feedback through the filter state is exactly the admissible
    dependence on the output record.  ``gain`` is (k, m) for k controls
    and m Hermitian observables.

    Trajectories run in fixed-size batches, one after another, so results
    are independent of batch layout and of ``first``: trajectory i is the
    same, bit for bit, in every run that holds it, and ``n_traj=1,
    first=i`` replays it alone, where the BLAS rounds a column of the
    step's product alike in any batch: with numpy's OpenBLAS that is
    verified on the SkylakeX and Sandybridge kernels, while Haswell, Zen,
    Nehalem and Prescott round some rows apart in the last bit.  The noise
    comes a block of steps of at most 2^16 state coordinates at a time,
    and every state of the block is then checked for finiteness and the
    eigenvalue floor; a failure names the first failing step and the
    lowest failing trajectory in it, as a check after every step would.
    The worst eigenvalue and |Tr - 1| are reported on the ensemble.
    """
    _require_dim(rho0, model)
    first = _count(first, "first", 0)
    n, d, grid = model.dim, model.n_channels, config.grid
    gain = readouts = None
    if feedback is not None:
        try:
            observables, gain = feedback
        except (TypeError, ValueError):
            raise InvalidParameter("feedback must be an (observables, gain) pair") from None
        observables = _stack_operators(observables, n, "feedback observables")
        if len(observables) == 0:
            raise InvalidParameter("feedback needs at least one observable")
        observables = np.array([_symmetrize(O, f"feedback observable {j}")
                                for j, O in enumerate(observables)])
        gain = _asarray(gain, float, (model.n_controls, len(observables)), "feedback gain")
        readouts = _readouts(observables)
    stack = _sme_stack(model, u, grid.dt, readouts)
    u = np.zeros(model.n_controls) if u is None else np.asarray(u, dtype=float).ravel()
    start_coords = _coords(rho0.entries[None])
    n_rec = config.n_records
    with _fits_in_memory(f"n_traj {config.n_traj} needs result arrays"):
        finals = np.empty((config.n_traj, n, n), dtype=complex)
    # sums over the ensemble at the recorded times, added chunk by chunk in
    # index order from -0.0, which leaves the first chunk's sums bit for
    # bit; no output is recorded at the start
    with _fits_in_memory(f"n_steps {grid.n_steps} needs a path"):
        path_sum = np.full((n * n, n_rec), -0.0)
        output_sum = np.full((d, n_rec), -0.0)
        control_sum = np.full((len(u), n_rec), -0.0)
    output_sum[:, 0] = 0.0
    low = float(_min_eigenvalues(start_coords, _trace(start_coords)).min())
    trace_dev = 0.0

    def run_chunk(start: int, stop: int, noise) -> None:
        nonlocal low, trace_dev
        rows, B = stop - start, _chunk_width(stop - start)
        # pad columns are copies of the start driven by zero noise: a zero
        # state would have trace 0
        h = np.repeat(start_coords, B, axis=1)
        # the product of a step goes into one buffer while the state it
        # reads sits in the other
        products = np.empty((2, len(stack), B))
        # the record over a block of steps is dt sum e + sum dW
        e_sum, dW_sum = np.zeros((2, d, B))

        def record(row: int) -> None:
            path_sum[:, row] += h[:, :rows].sum(axis=1)
            if gain is not None:
                control_sum[:, row] += [(v[:rows] + u_k).sum() for u_k, v in
                                        zip(u, _feedback(gain, readouts @ h))]

        record(0)
        row = 1
        # a block of K steps is copied out of the noise window, stepped and
        # checked as a unit: slot j holds the states after the block's step
        # j, and column b of the (n^2, K rows) view of the slots is
        # trajectory b % rows after step b // rows; a step's (d, B) noise
        # is contiguous rows
        K = max(1, min(_BLOCK, _CHECK_COORDS // (n * n * rows)))
        noise_rows = np.empty((K, d, B))
        stepped = np.empty((n * n, K, rows))
        for s0, w in _noise_blocks(config, noise, noise_rows.reshape(-1, B), d, K):
            for j, dW in enumerate(noise_rows[:w]):
                step = s0 + j
                h = _sme_update(h, stack, dW, products[step % 2], e_sum, gain)
                dW_sum += dW
                if step == 0:
                    # every check spans all K slots, so its memory does not
                    # depend on n_steps; a slot a short block does not reach
                    # holds a state checked before or step 1's, which moves
                    # neither the extremes nor the earliest failing column
                    stepped[:] = h[:, None, :rows]
                else:
                    stepped[:, j] = h[:, :rows]
                if (step + 1) % config.record_stride == 0:
                    e_sum *= grid.dt
                    e_sum += dW_sum
                    output_sum[:, row] += e_sum[:, :rows].sum(axis=1)
                    e_sum[:] = 0.0
                    dW_sum[:] = 0.0
                    record(row)
                    row += 1
            block_dev, block_low = _check_states(
                stepped.reshape(n * n, -1),
                lambda b: _at(config, start + b % rows, s0 + b // rows + 1))
            trace_dev = max(trace_dev, block_dev)
            low = min(low, block_low)
        finals[start - first:stop - first] = _assembled(h[:, :rows])

    _run_chunks(config, d, run_chunk, first=first)
    if gain is None:
        mean_controls = np.tile(u, (n_rec, 1))
    else:
        mean_controls = control_sum.T / config.n_traj
    return SmeEnsemble(
        config=config,
        times=_frozen(grid.times(config.record_stride)),
        mean_states=_frozen(_assembled(path_sum / config.n_traj)),
        mean_outputs=_frozen(output_sum.T / config.n_traj),
        mean_controls=_frozen(mean_controls),
        final_states=_frozen(finals),
        min_eigenvalue=low,
        max_trace_deviation=trace_dev,
    )


def _check_projector_family(projectors, dim: int) -> np.ndarray:
    arr = _stack_operators(projectors, dim, "projectors")
    if arr.shape[0] == 0:
        raise NotAProjectorFamily("family is empty")
    for i, P in enumerate(arr):
        if _asymmetric(P - P.conj().T, P):
            raise NotAProjectorFamily(f"projector {i} is not Hermitian")
        if np.abs(P @ P - P).max() > 1e-10:
            raise NotAProjectorFamily(f"projector {i} is not idempotent")
    for i in range(arr.shape[0]):
        for j in range(i + 1, arr.shape[0]):
            if np.abs(arr[i] @ arr[j]).max() > 1e-10:
                raise NotAProjectorFamily(
                    f"projectors {i} and {j} are not orthogonal"
                )
    if np.abs(arr.sum(axis=0) - np.eye(dim)).max() > 1e-10:
        raise NotAProjectorFamily("family does not resolve the identity")
    return arr


def discrete_conditioning(
    rho: DensityMatrix,
    U: NDArray[np.complex128],
    projectors,
) -> list[tuple[float, DensityMatrix | None]]:
    """Bayes conditioning through an entangling unitary.

    Couples the system to a fresh ancilla in |0>, applies ``U``, and
    reads the ancilla with the given projective family.  Returns one
    ``(probability, posterior)`` pair per projector; an outcome of zero
    probability carries ``None`` for the posterior.  Probabilities sum
    to one because the family resolves the ancilla identity.
    """
    n = rho.dim
    U = _square(U, complex, "U", copy=False)
    if U.shape[0] % n != 0:
        raise DimensionMismatch(
            f"unitary shape {U.shape} is not a multiple of system dim {n}"
        )
    a = U.shape[0] // n
    if np.abs(U.conj().T @ U - np.eye(n * a)).max() > 1e-10:
        raise NotUnitary("U'U deviates from the identity")
    family = _check_projector_family(projectors, a)

    ancilla = np.zeros((a, a), dtype=complex)
    ancilla[0, 0] = 1.0
    joint = U @ np.kron(rho.entries, ancilla) @ U.conj().T
    joint4 = joint.reshape(n, a, n, a)
    results: list[tuple[float, DensityMatrix | None]] = []
    for P in family:
        reduced = np.einsum("iajc,ca->ij", joint4, P)
        prob = float(np.trace(reduced).real)
        if prob <= 1e-14:
            results.append((0.0, None))
            continue
        post = reduced / prob
        results.append((prob, DensityMatrix(0.5 * (post + post.conj().T))))
    return results


def weak_measurement_unitary(
    L: NDArray[np.complex128],
    dt: float,
    H: NDArray[np.complex128] | None = None,
    hbar: float = 1.0,
) -> NDArray[np.complex128]:
    """Repeated-interaction unitary for one weak step of one channel.

    exp(sqrt(dt)(L (x) a' - L' (x) a) - (i/hbar) H (x) I dt) on
    system (x) two-level ancilla; reading the ancilla quadrature
    reproduces the diffusive filtering step to O(dt^(3/2)).  ``H`` must
    be Hermitian, so the exponent is anti-Hermitian and its exponential
    comes from one Hermitian eigendecomposition.
    """
    dt = _positive(dt, "dt")
    hbar = _positive(hbar, "hbar")
    L = _square(L, complex, "coupling", copy=False)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise_op = lower.conj().T
    gen = math.sqrt(dt) * (np.kron(L, raise_op) - np.kron(L.conj().T, lower))
    if H is not None:
        H = _symmetrize(_asarray(H, complex, L.shape, "H", copy=False), "H")
        gen = gen + (-1j * dt / hbar) * np.kron(H, np.eye(2))
    # i gen = V diag(w) V' is Hermitian, so exp(gen) = V diag(e^{-iw}) V'
    w, V = np.linalg.eigh(1j * gen)
    return (V * np.exp(-1j * w)) @ V.conj().T


def ancilla_quadrature_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the ancilla quadrature eigenstates (|0>+-|1>)/sqrt(2).

    The two outcomes correspond to record increments +-sqrt(dt).
    """
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    return plus, minus


def finite_model_from_json(source: str | Path | dict) -> FiniteModel:
    """Load a :class:`FiniteModel` from a JSON file or parsed dict.

    Expected keys: ``dim``, ``hbar``, ``H0``, ``H_controls`` (list),
    ``L_list`` (list); complex matrices are ``{"re": ..., "im": ...}``
    pairs of nested row-major lists.
    """
    data = _json_object(source, "finite model")
    for key in ["dim", "hbar", "H0", "H_controls", "L_list"]:
        if key not in data:
            raise InvalidParameter(f"finite model JSON is missing key '{key}'")
    n = _json_count(data["dim"], "key 'dim'", 1)

    def grab(obj, key: str) -> np.ndarray:
        return _json_complex(obj, f"key '{key}'", (n, n))

    H0 = grab(data["H0"], "H0")
    Hs = [grab(o, f"H_controls[{i}]")
          for i, o in enumerate(_json_list(data, "H_controls"))]
    Ls = [grab(o, f"L_list[{i}]") for i, o in enumerate(_json_list(data, "L_list"))]
    hbar = _json_array(data["hbar"], "key 'hbar'", ())
    return FiniteModel(H0=H0, L_list=Ls, H_controls=Hs, hbar=hbar)
