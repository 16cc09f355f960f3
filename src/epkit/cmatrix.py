"""Dense complex linear algebra kernel.

All operations work on plain ``numpy`` arrays of ``complex128``.  Matrices are
2-d, vectors 1-d; every public entry point validates shapes and rejects
non-finite entries.  Rank, null vectors and minimum-norm solves share a single
SVD-based code path so their tolerance semantics agree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    DegeneracyError,
    NoSolutionError,
    ParameterError,
    ParseError,
    ShapeError,
)

#: Default relative tolerance for rank / kernel / least-squares cutoffs.
DEFAULT_RTOL = 1e-12

__all__ = [
    "DEFAULT_RTOL",
    "as_matrix",
    "as_square",
    "as_vector",
    "matmul",
    "adjoint",
    "frobenius_norm",
    "spectral_norm",
    "singular_values",
    "rank",
    "kernel_vector",
    "min_norm_solve",
    "eigenvalues",
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
    if not np.all(np.isfinite(m.view(float))):
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
    if not np.all(np.isfinite(w.view(float))):
        raise ParameterError(f"{name} contains non-finite entries")
    return w


def _check_rtol(rtol: float) -> float:
    rtol = float(rtol)
    if not np.isfinite(rtol) or rtol <= 0.0:
        raise ParameterError(f"rtol must be positive and finite, got {rtol}")
    return rtol


# ---------------------------------------------------------------------------
# elementary operations

def matmul(a, b) -> np.ndarray:
    """Matrix product A @ B with shape checking."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def rank(a, rtol: float = DEFAULT_RTOL) -> int:
    """Number of singular values above rtol * max(rows, cols) * sigma_max."""
    a = as_matrix(a)
    rtol = _check_rtol(rtol)
    s = singular_values(a)
    cutoff = rtol * max(a.shape) * s[0]
    return int(np.count_nonzero(s > cutoff))


def kernel_vector(a, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Unit-norm vector spanning the one-dimensional numerical null space.

    The phase is fixed so that the first component of largest modulus is real
    and positive, which makes the result deterministic.  Raises
    DegeneracyError when the null space is not exactly one-dimensional.
    """
    a = as_matrix(a)
    rtol = _check_rtol(rtol)
    try:
        _, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    cutoff = rtol * max(a.shape) * s[0]
    null_dim = a.shape[1] - int(np.count_nonzero(s > cutoff))
    if null_dim != 1:
        raise DegeneracyError(f"null space dimension is {null_dim}, expected 1 at rtol={rtol:g}")
    v = vh[-1].conj()
    v = v / np.linalg.norm(v)
    mods = np.abs(v)
    # tolerate float ties so analytically equal moduli pick the first index
    pivot = int(np.flatnonzero(mods >= (1.0 - 1e-12) * mods.max())[0])
    v = v * (v[pivot].conjugate() / mods[pivot])
    return v


def min_norm_solve(a, b, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Minimum-2-norm solution of A x = b via the pseudoinverse.

    Singular values at or below rtol * max(rows, cols) * sigma_max are treated
    as zero.  Raises NoSolutionError when b is not in the numerical range of A
    (residual larger than rtol * cond * ||b||).
    """
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    rtol = _check_rtol(rtol)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"A has {a.shape[0]} rows but b has length {b.shape[0]}")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    cutoff = rtol * max(a.shape) * s[0]
    keep = s > cutoff
    if not np.any(keep):
        x = np.zeros(a.shape[1], dtype=complex)
    else:
        coeff = (u[:, keep].conj().T @ b) / s[keep]
        x = vh[keep].conj().T @ coeff
    nb = np.linalg.norm(b)
    if nb > 0.0:
        cond = s[0] / s[keep][-1] if np.any(keep) else 1.0
        residual = np.linalg.norm(a @ x - b)
        if residual > rtol * cond * nb:
            raise NoSolutionError(
                f"relative residual {residual / nb:.3e} exceeds rtol*cond = {rtol * cond:.3e}"
            )
    return x


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by real part then imaginary part."""
    a = as_square(a)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


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
