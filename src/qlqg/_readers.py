"""Readers of outside values, shared by every layer of the package.

Arrays come in through one function, :func:`_asarray`: it converts,
checks the shape and then finiteness, so junk input (a string, a ragged
list, a NaN) is a :class:`ValidationError` wherever it enters.  A real
scalar is read by it as a 0-d array, an integer by :func:`_count`, an
object of a given class (a grid, a path, a model, a config, a belief or
an ensemble) by :func:`_of_kind`, and a
stack of operators by :func:`_stack_operators`; each caller keeps the
value that was read.  A matrix that must equal its adjoint is kept as
its exact Hermitian part by :func:`_symmetrize`.  Every JSON section
comes in through :func:`_json_object`, which names the keys it needs;
its values go through the other ``_json_*`` readers, which refuse what
JSON can hold but an array cannot (a bool, a string, nesting past
numpy's dimensions).  An allocation that an input makes too large for
memory is refused inside :func:`_fits_in_memory`.

This module imports nothing of the package but its errors.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvalidParameter

#: asymmetry tolerated in a matrix that must equal its adjoint, relative to
#: its largest entry once that is past 1
SYM_TOL = 1e-10
#: lowest eigenvalue allowed in a matrix that must be positive
#: semidefinite: N, F and Omega_T, so a cost and its dual pass alike
PSD_FLOOR = -1e-12

#: numpy's limit on the dimensions of an array
_MAX_DIMS = 64


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


def _positive(value, name: str) -> float:
    """``value`` read by :func:`_asarray` as a float; InvalidParameter
    unless it is positive."""
    value = float(_asarray(value, float, (), name))
    if not value > 0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    return value


def _count(value, name: str, low: int) -> int:
    """``value`` as an int, or InvalidParameter unless it is an integer
    >= ``low`` (a bool is not one)."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer)) and value >= low
    ):
        raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _of_kind(value, kind: type, name: str):
    """``value``; ConfigError naming ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


@contextlib.contextmanager
def _fits_in_memory(what: str):
    """Turn an allocation that fails inside the block into InvalidParameter:
    the input named by ``what`` asked for more memory than there is."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise InvalidParameter(f"{what} larger than memory allows") from exc


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _asymmetric(arr: np.ndarray, sign: float = -1.0) -> bool:
    """Whether ``arr + sign arr'`` is past ``SYM_TOL`` relative to the largest
    entry of ``arr``, or to 1 for smaller entries.  Both sides are halved,
    which is exact, so that finite entries give a finite sum and a finite
    largest modulus."""
    half = 0.5 * arr
    return bool(np.max(np.abs(half + sign * half.conj().T))
                > SYM_TOL * max(0.5, float(np.max(np.abs(half)))))


def _symmetrize(arr: np.ndarray, name: str) -> np.ndarray:
    """The exact Hermitian part ``arr / 2 + arr' / 2`` of a square ``arr``,
    a new array, halved before the sum so that finite entries give finite
    ones; InvalidParameter when ``arr`` fails :func:`_asymmetric`
    ("must be symmetric" when real, "is not Hermitian" when complex)."""
    if _asymmetric(arr):
        what = "is not Hermitian" if arr.dtype.kind == "c" else "must be symmetric"
        raise InvalidParameter(f"{name} {what}")
    return 0.5 * arr + 0.5 * arr.conj().T


def _semidefinite(arr: np.ndarray, name: str) -> np.ndarray:
    """Symmetric ``arr``, or InvalidParameter below the ``PSD_FLOOR``."""
    low = float(np.min(np.linalg.eigvalsh(arr)))
    if low < PSD_FLOOR:
        raise InvalidParameter(f"{name} must be positive semidefinite "
                               f"(min eigenvalue {low:.3e})")
    return arr


def _stack_operators(ops, n: int, what: str) -> np.ndarray:
    """One n x n matrix or a sequence of them as a (k, n, n) stack."""
    arr = _asarray(ops, complex, None, what, copy=False)
    if arr.size == 0:
        return np.zeros((0, n, n), dtype=complex)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1:] != (n, n):
        raise DimensionMismatch(
            f"{what} must be a sequence of {n}x{n} matrices, got {arr.shape}"
        )
    return arr


def _json_object(source, what: str, keys=()) -> dict:
    """The one reader of a JSON section: ``source`` itself when it is an
    object, or the object held by the file at path ``source`` (an
    ``os.PathLike``).  InvalidParameter when the file does not exist, is
    not valid JSON or nests too deeply to parse, when the section is not
    an object, or when it lacks one of ``keys``; each names ``what``."""
    if isinstance(source, os.PathLike):
        try:
            with open(source, encoding="utf-8") as fh:
                source = json.load(fh)
        except FileNotFoundError:
            raise InvalidParameter(f"{what} file '{source}' does not exist") from None
        except (ValueError, RecursionError) as exc:
            raise InvalidParameter(
                f"{what} file '{source}' is not valid JSON: {exc}"
            ) from None
    if not isinstance(source, dict):
        raise InvalidParameter(
            f"{what} must be a JSON object, got {type(source).__name__}")
    for key in keys:
        if key not in source:
            raise InvalidParameter(f"{what} is missing key '{key}'")
    return source


def _json_count(value, name: str, low: int) -> int:
    """:func:`_count` for a JSON value, where an integral float such as
    ``5000.0`` is an integer too."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _count(value, name, low)


def _json_array(value, name: str, shape=None) -> np.ndarray:
    """A JSON vector or matrix as a float array, read by :func:`_asarray`
    against ``shape``; InvalidParameter also when it holds anything but
    numbers (a string, bool or null included), or lists nested past
    numpy's dimensions.  The value is walked one level of nesting at a
    time, so its depth costs no Python frames."""
    level = [value]
    for _ in range(_MAX_DIMS + 1):
        if not all(isinstance(v, list) or (isinstance(v, (int, float))
                                           and not isinstance(v, bool)) for v in level):
            break
        level = [x for v in level if isinstance(v, list) for x in v]
        if not level:
            return _asarray(value, float, shape, name)
    raise InvalidParameter(f"{name} must be a numeric array, got {value!r}")


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
