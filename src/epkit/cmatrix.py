"""Dense complex linear algebra kernel.

All operations work on plain ``numpy`` arrays of ``complex128``.  Matrices are
2-d, vectors 1-d; every public entry point validates shapes and rejects
non-finite entries.
"""

from __future__ import annotations

import math

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
    "vector_from_json",
]


# ---------------------------------------------------------------------------
# validation helpers

def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-d array (no copy when already valid)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be a 2-d array with positive dimensions, got shape {m.shape}")
    if not np.isfinite(m).all():  # complex isfinite checks both parts, at any stride
        raise ParameterError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(v, name: str = "vector") -> np.ndarray:
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ShapeError(f"{name} must be a 1-d array with positive length, got shape {w.shape}")
    if not np.isfinite(w).all():
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


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("vector JSON must be an object")
    try:
        dim, entries = obj["dim"], obj["entries"]
    except KeyError as exc:
        raise ParseError(f"vector JSON missing key {exc}") from exc
    dim = _positive_int(dim, "dim")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"entries must hold dim = {dim} pairs")
    return np.array([_entry_to_complex(e, f"entry {i}") for i, e in enumerate(entries)], dtype=complex)
