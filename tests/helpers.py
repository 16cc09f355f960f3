"""Shared test utilities: seeded generators and structured random matrices."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from epkit import cmatrix, ep_core
from epkit.errors import DegenerateCouplingError, FitError, NumericalError, ParameterError, StructureError
from epkit.perturb import SlopeFit


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def complex_uniform(rng, shape):
    """Entries with independent real/imaginary parts uniform on [-1/2, 1/2]."""
    return (rng.random(shape) - 0.5) + 1j * (rng.random(shape) - 0.5)


def transformed_jordan_block(rng, dim: int, eigenvalue: complex = 0.0) -> np.ndarray:
    """Similarity transform of a single Jordan block, kept well conditioned."""
    block = np.diag(np.ones(dim - 1, dtype=complex), 1)
    s = np.eye(dim, dtype=complex) + 0.5 * complex_uniform(rng, (dim, dim))
    return eigenvalue * np.eye(dim) + s @ block @ np.linalg.inv(s)


def random_fixed_rank(rng, rows: int, cols: int, r: int) -> np.ndarray:
    """Dense matrix of exact rank r (product of two full-rank factors)."""
    return complex_uniform(rng, (rows, r)) @ complex_uniform(rng, (r, cols))


def random_distinct_spectrum(rng, dim: int, min_gap: float = 1e-2) -> np.ndarray:
    """Diagonalizable matrix whose eigenvalues are pairwise well separated."""
    while True:
        vals = complex_uniform(rng, dim) * 4.0
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(dim)
        if gaps.min() > min_gap:
            break
    s = np.eye(dim, dtype=complex) + 0.5 * complex_uniform(rng, (dim, dim))
    return s @ np.diag(vals) @ np.linalg.inv(s)


def rank(a) -> int:
    """Number of singular values above cmatrix.DEFAULT_RTOL * max(rows, cols) * sigma_max."""
    a = np.asarray(a, dtype=complex)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > cmatrix.DEFAULT_RTOL * max(a.shape) * s[0]))


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by real part then imaginary part."""
    vals = np.linalg.eigvals(np.asarray(a, dtype=complex))
    return vals[np.lexsort((vals.imag, vals.real))]


def reference_nilpotency_index(nmat: np.ndarray, nil_tol: float):
    """Smallest k <= dim with ||N^k||_2 <= nil_tol * ||N||_2^k, or None, with one SVD per power."""
    dim = nmat.shape[0]
    base = float(np.linalg.svd(nmat, compute_uv=False)[0])
    power = np.eye(dim, dtype=complex)
    for k in range(1, dim + 1):
        power = power @ nmat
        if float(np.linalg.svd(power, compute_uv=False)[0]) <= nil_tol * base**k:
            return k
    return None


def reference_detect(h, nil_tol=None):
    """detect_ep in plain numpy: (order, ep_eigenvalue, N, top_power, xi), or NumericalError where it must raise one.

    N = H - mean * np.eye(n), the order from reference_nilpotency_index, the top power from
    np.linalg.matrix_power flushed at nil_tol * ||N||_2^(n-1) with ||N||_2 from an SVD, and rank one and
    xi decided as ep_core._rank_one_norm documents, with the SVD's sigma_1 in place of the power-step
    estimate.  ||N||_2^dim must stay inside the double range.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    tol = ep_core.default_nil_tol(n) if nil_tol is None else nil_tol
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises NumericalError below
        mean = complex(h.trace()) / n
        nmat = h - mean * np.eye(n)
        if not np.isfinite(nmat).all():
            raise NumericalError("the trace or traceless part of H overflows a double")
        order = reference_nilpotency_index(nmat, tol)
        if order != n:
            return order, mean, nmat, None, None
        if n == 1:
            power = np.eye(1, dtype=complex)
        else:
            power = np.linalg.matrix_power(nmat, n - 1).copy()
            power[np.abs(power) <= tol * float(np.linalg.svd(nmat, compute_uv=False)[0]) ** (n - 1)] = 0.0
        frob = float(np.linalg.norm(power))
    spec = float(np.linalg.svd(power, compute_uv=False)[0])
    if abs(spec - frob) > 1e-10 * max(frob, np.finfo(float).tiny):
        raise NumericalError("N^(n-1) is not numerically rank one")
    in_window = 1e-150 <= frob <= 1e150
    xi = frob if in_window and abs(frob - spec) <= 1e-13 * frob else spec
    if xi == 0.0:
        raise NumericalError("N^(n-1) is flushed to zero")
    return order, mean, nmat, power, xi


def reference_chain(nmat: np.ndarray, power: np.ndarray):
    """jordan_chain's docstring recipe in plain numpy: (vectors, chain, normalization, orthogonality residuals).

    j_n along the conjugate of the largest row of the certified N^(n-1), j_l = N^(n-l) j_n by
    matrix-vector products, every vector divided by ||j_1|| and given the phase that makes the first
    component of largest modulus of j_1 real and positive (ties within 1e-12 relative pick the first).
    A top row whose norm overflows raises NumericalError and a zero one StructureError, as jordan_chain does.
    """
    n = nmat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row norm raises NumericalError below
        row_norms = np.linalg.norm(power, axis=1)
        top = int(np.argmax(row_norms))
        if row_norms[top] == np.inf:
            raise NumericalError("a row norm of N^(n-1) overflows a double")
        if not row_norms[top] > 0.0:
            raise StructureError("N^(n-1) is numerically zero")
        vectors = [power[top].conj() / row_norms[top]]
        for _ in range(n - 1):
            vectors.append(nmat @ vectors[-1])
        j_1 = vectors[-1]
        mods = np.abs(j_1)
        pivot = int(np.flatnonzero(mods >= (1.0 - 1e-12) * mods.max())[0])
        factor = (j_1[pivot].conjugate() / mods[pivot]) / float(np.linalg.norm(j_1))
        vectors = [v * factor for v in reversed(vectors)]
        chain = [float(np.linalg.norm(nmat @ vectors[0]))]
        chain += [float(np.linalg.norm(nmat @ vectors[l] - vectors[l - 1])) for l in range(1, n)]
        normalization = float(abs(np.vdot(vectors[0], vectors[0]).real - 1.0))
        orthogonality = [float(abs(np.vdot(vectors[-1], v))) for v in vectors[:-1]]
    return vectors, tuple(chain), normalization, tuple(orthogonality)


def rank_one_svd_rejects(m: np.ndarray) -> bool:
    """The rank-one check as one SVD decides it: ||M||_2 and ||M||_F differ beyond 1e-10 relative."""
    spec = float(np.linalg.svd(m, compute_uv=False)[0])
    frob = float(np.linalg.norm(m, "fro"))
    return abs(spec - frob) > 1e-10 * max(frob, np.finfo(float).tiny)


def by_norm_bracket(m: np.ndarray, decide) -> bool:
    """decide(||M||_2) for a predicate monotone in the norm, settled by ep_core's staged bracket of M."""
    return ep_core._settle(decide, (ep_core._NormBracket(m), 1))


def norm_at_most(power: np.ndarray, bound: float) -> bool:
    """||P||_2 <= bound for a square P, decided by by_norm_bracket."""
    return by_norm_bracket(power, lambda norm: norm <= bound)


def reference_composite_response(system) -> float:
    """composite_response with both thresholds read from system.coupling_norm and rank one decided by an SVD."""
    a, b = system.rep_a, system.rep_b
    c = b.top_power @ system.k @ a.top_power
    _, nmat = ep_core.traceless_part(system.h)
    block = np.linalg.matrix_power(nmat, system.dim - 1)[system.n_a:, :system.n_a]
    pow_a = ep_core._norm_power(a.nilpotent_norm, a.dim - 1)
    pow_b = ep_core._norm_power(b.nilpotent_norm, b.dim - 1)
    if cmatrix.frobenius_norm(c - block) > 1e-10 * max(system.coupling_norm * pow_a * pow_b, np.finfo(float).tiny):
        raise NumericalError("block product and direct matrix power disagree beyond tolerance")
    if cmatrix.frobenius_norm(c) <= 1e-8 * (a.response_strength * b.response_strength * system.coupling_norm):
        raise DegenerateCouplingError("coupling is degenerate")
    if rank_one_svd_rejects(c):
        raise NumericalError("the genericity product is not numerically rank one")
    return float(np.linalg.svd(c, compute_uv=False)[0])


def count_linalg(monkeypatch, *names: str) -> dict[str, int]:
    """Wrap the named np.linalg functions for one test; the returned dict counts their calls as they happen."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def match_eigenvalues(computed, predicted) -> float:
    """Largest matched distance under a minimum-cost pairing of two spectra."""
    a = np.asarray(computed, dtype=complex)
    b = np.asarray(predicted, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"spectra must be 1-d and equally long, got {a.shape} and {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def reference_fit_slope(eps_grid, splittings, window):
    """fit_slope as one np.median call per strength: the reference for the whole-table median."""
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise ParameterError(f"window must satisfy 0 < lo < hi, got ({lo}, {hi})")
    rows = [(eps, row) for eps, row in zip(eps_grid, splittings) if lo <= eps <= hi]
    if len(rows) < 3:
        raise FitError(f"need >= 3 distinct strengths inside [{lo:g}, {hi:g}], got {len(rows)}")
    eps_values = [eps for eps, _ in rows]
    medians = [float(np.median(row)) for _, row in rows]
    if not all(np.isfinite(medians)):
        raise FitError(f"a median splitting inside [{lo:g}, {hi:g}] overflows a double")
    if any(m <= 0.0 for m in medians):
        raise FitError("median splitting must be positive to fit on a log scale")
    x = np.log10(eps_values)
    y = np.log10(medians)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), window=(lo, hi), residual=residual)


def per_entry_csv(eps_grid, splittings) -> str:
    """records_to_csv's text with the strength formatted again for every entry of its row."""
    lines = ["epsilon,trial,max_splitting"]
    for eps, row in zip(eps_grid, splittings):
        lines += [f"{float(eps):.17g},{t},{float(value):.17g}" for t, value in enumerate(row)]
    return "\n".join(lines) + "\n"


def per_matrix_sweep_csv(h, ep_eigenvalue, perturbations, grid) -> bytes:
    """Sweep CSV bytes from one np.linalg.eigvals call per (strength, trial) matrix."""
    lines = ["epsilon,trial,max_splitting"]
    for eps in grid:
        for t, h1 in enumerate(perturbations):
            split = float(np.max(np.abs(np.linalg.eigvals(h + eps * h1) - ep_eigenvalue)))
            lines.append(f"{eps:.17g},{t},{split:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")
