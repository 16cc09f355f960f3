"""Dense complex linear algebra kernel.

All operations work on plain ``numpy`` arrays of ``complex128``.  Matrices are
2-d, vectors 1-d; every public entry point validates shapes and rejects
non-finite entries.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    ConvergenceError,
    DegeneracyError,
    ParameterError,
    ParseError,
    ShapeError,
)

#: Relative tolerance of the kernel cutoff.
DEFAULT_RTOL = 1e-12

__all__ = [
    "DEFAULT_RTOL",
    "as_matrix",
    "as_square",
    "as_vector",
    "frobenius_norm",
    "spectral_norm",
    "kernel_vector",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
]


# ---------------------------------------------------------------------------
# validation helpers

def _as_array(a, name: str) -> np.ndarray:
    """np.asarray(a, dtype=complex); ParameterError where that fails, as for "abc", 10**400 or ragged rows."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be an array of complex numbers ({exc})") from None


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a non-empty a is finite, both parts of a complex one, at any stride.

    The argmin of the np.isfinite mask is its first False, so one read there gives the bool
    np.logical_and.reduce(mask, axis=None) gives, without the reduction's per-call cost.
    """
    finite = np.isfinite(a)
    return finite.item(finite.argmin())


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-d array (no copy when already valid); one _all_finite read checks the entries."""
    m = _as_array(a, name)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be a 2-d array with positive dimensions, got shape {m.shape}")
    if not _all_finite(m):
        raise ParameterError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    return m


def _as_number(name: str, value, kind: type = float):
    """value as kind() reads it, for kind float or complex; ParameterError where that fails, as for None or "abc"."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a {'real' if kind is float else 'complex'} number, got {value!r}") from None


def _as_index(name: str, value) -> int:
    """value through operator.index, so numpy integers pass; ParameterError where int() would truncate or fail."""
    if not isinstance(value, bool):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _as_list(name: str, items) -> list:
    """list(items); ParameterError where items is not iterable, as None or a single number is not."""
    try:
        return list(items)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence, got {items!r}") from None


def as_vector(v, name: str = "vector") -> np.ndarray:
    w = _as_array(v, name)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ShapeError(f"{name} must be a 1-d array with positive length, got shape {w.shape}")
    if not _all_finite(w):
        raise ParameterError(f"{name} contains non-finite entries")
    return w


# ---------------------------------------------------------------------------
# elementary operations

def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli."""
    return _frobenius_norm(as_matrix(a))


def _frobenius_norm(a: np.ndarray) -> float:
    """frobenius_norm of a complex array without validation; a 1-d array gets its Euclidean norm.

    It sums as the fast path of np.linalg.norm does, in the same order, so the
    bits agree, but skips that function's Python-level dispatch.  Squares that
    overflow give inf.
    """
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _svd(a: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd with a LAPACK failure raised as ConvergenceError."""
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def spectral_norm(a) -> float:
    """Largest singular value."""
    return _spectral_norm(as_matrix(a))


def _spectral_norm(a: np.ndarray) -> float:
    """spectral_norm of an array already known to be a finite 2-d complex matrix."""
    return float(_svd(a, compute_uv=False)[0])


def kernel_vector(a) -> np.ndarray:
    """Unit-norm vector spanning the one-dimensional numerical null space.

    Singular values above DEFAULT_RTOL * max(rows, cols) * sigma_max count as
    nonzero.  The phase is fixed so that the first component of largest
    modulus is real and positive, which makes the result deterministic.
    Raises DegeneracyError when the null space is not exactly one-dimensional.
    """
    a = as_matrix(a)
    _, s, vh = _svd(a)
    null_dim = a.shape[1] - int(np.count_nonzero(s > DEFAULT_RTOL * max(a.shape) * s[0]))
    if null_dim != 1:
        raise DegeneracyError(f"null space dimension is {null_dim}, expected 1 at rtol={DEFAULT_RTOL:g}")
    v = vh[-1].conj()
    v = v / _frobenius_norm(v)
    return v * _pivot_phase(v)


def _pivot_phase(v: np.ndarray) -> complex:
    """Unit factor that makes the first component of largest modulus of v real and positive."""
    mods = np.abs(v)
    # tolerate float ties so analytically equal moduli pick the first index: argmax of a boolean
    # array is its first True, and mods[mods.argmax()] is mods.max() without numpy's Python-level wrapper
    pivot = int((mods >= (1.0 - 1e-12) * mods[mods.argmax()]).argmax())
    return v[pivot].conjugate() / mods[pivot]


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": R, "cols": C, "entries": [[re, im], ...]} row-major

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _finite_number(value, where: str) -> float:
    """A JSON number as a finite float; bools, strings and overflowing integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number")
    try:
        x = float(value)
    except OverflowError:
        raise ParseError(f"{where} does not fit in a float") from None
    if not math.isfinite(x):
        raise ParseError(f"{where} must be finite")
    return x


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{where} must be a positive integer")
    return value


def _entry_to_complex(entry, where: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ParseError(f"{where}: each entry must be a [re, im] pair")
    re, im = entry
    return complex(_finite_number(re, f"{where}: real part"), _finite_number(im, f"{where}: imaginary part"))


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [_pair(z) for z in a.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix JSON missing key {exc}") from exc
    rows, cols = _positive_int(rows, "rows"), _positive_int(cols, "cols")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(
            f"entries must hold rows*cols = {rows * cols} pairs, got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    data = [_entry_to_complex(e, f"entry {i}") for i, e in enumerate(entries)]
    return np.array(data, dtype=complex).reshape(rows, cols)


def vector_to_json(v) -> dict:
    v = as_vector(v)
    return {"dim": int(v.shape[0]), "entries": [_pair(z) for z in v]}

