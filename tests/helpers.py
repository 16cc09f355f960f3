"""Shared test utilities: seeded generators and structured random matrices."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from epkit import cmatrix, compose, ep_core
from epkit.errors import (
    DegenerateCouplingError,
    FitError,
    IncompatibleSubsystemsError,
    NumericalError,
    ParameterError,
    PreconditionError,
    ShapeError,
    StructureError,
)
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


def left_power(nmat: np.ndarray, exponent: int) -> np.ndarray:
    """N^exponent as a new array: the left-to-right product N N ... N that the power test forms, I at 0."""
    power = np.eye(nmat.shape[0], dtype=complex) if exponent == 0 else nmat.copy()
    for _ in range(exponent - 1):
        power = power @ nmat
    return power


def reference_detect(h, nil_tol=None):
    """detect_ep in plain numpy: (order, ep_eigenvalue, N, top_power, xi), or NumericalError where it must raise one.

    N = H - mean * np.eye(n), the order from reference_nilpotency_index, the top power from
    left_power with its entries strictly below nil_tol * ||N||_2^(n-1) flushed, ||N||_2 from an
    SVD, and rank one and xi decided as ep_core._rank_one_norm documents, with the SVD's sigma_1 in
    place of its lower bound ||P y||: xi = ||P||_F inside the [1e-150, 1e150] window where that is
    within 1e-13 of sigma_1, else sigma_1.  A flush removing more than nil_tol * xi in Frobenius
    norm raises NumericalError, with ep_core._top_power's arithmetic.  ||N||_2^dim must stay inside
    the double range.
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
        power = left_power(nmat, n - 1)
        mods = np.abs(power)
        flush = mods < tol * float(np.linalg.svd(nmat, compute_uv=False)[0]) ** (n - 1)
        power[flush] = 0.0
        frob = float(np.linalg.norm(power))
    spec = float(np.linalg.svd(power, compute_uv=False)[0])
    if abs(spec - frob) > 1e-10 * max(frob, np.finfo(float).tiny):
        raise NumericalError("N^(n-1) is not numerically rank one")
    in_window = 1e-150 <= frob <= 1e150
    xi = frob if in_window and abs(frob - spec) <= 1e-13 * frob else spec
    if xi == 0.0:
        raise NumericalError("N^(n-1) is flushed to zero")
    with np.errstate(over="ignore"):  # an overflowing square fails the check below
        x = mods[flush] / xi
        if not x.dot(x) <= tol * tol:
            raise NumericalError("the flush removes more than nil_tol of N^(n-1)")
    return order, mean, nmat, power, xi


def reference_chain(nmat: np.ndarray, y: np.ndarray):
    """jordan_chain's docstring recipe in plain numpy: (vectors, chain, normalization, orthogonality residuals).

    j_n along y, the unit vector of the report's pair (u, y) with N^(n-1) = u y^H, j_l = N^(n-l) y by
    matrix-vector products, every vector divided by ||j_1|| and given the phase that makes the first
    component of largest modulus of j_1 real and positive (ties within 1e-12 relative pick the first).
    A zero ||j_1|| raises StructureError and one that overflows NumericalError, as jordan_chain does.
    The residuals are taken on the block B whose rows are j_1 ... j_n: the chain residuals are the row
    norms of B N^T less B shifted down one row, the overlaps the moduli of B[:-1] times the conjugate of j_n.
    """
    vectors = _chain_vectors(nmat, y)
    block = np.array(vectors)
    with np.errstate(over="ignore", invalid="ignore"):  # jordan_chain raises on an overflowing ||j_l|| first
        shifted = block @ nmat.T
        shifted[1:] -= block[:-1]
        chain = np.linalg.norm(shifted, axis=1)
        normalization = float(abs(np.vdot(vectors[0], vectors[0]).real - 1.0))
        orthogonality = np.abs(block[:-1] @ vectors[-1].conj())
    return vectors, tuple(chain.tolist()), normalization, tuple(orthogonality.tolist())


def per_vector_chain(nmat: np.ndarray, y: np.ndarray):
    """reference_chain with each residual and overlap taken one vector at a time, as jordan_chain once did."""
    vectors = _chain_vectors(nmat, y)
    with np.errstate(over="ignore", invalid="ignore"):
        chain = [float(np.linalg.norm(nmat @ vectors[0]))]
        chain += [float(np.linalg.norm(nmat @ vectors[l] - vectors[l - 1])) for l in range(1, len(vectors))]
        normalization = float(abs(np.vdot(vectors[0], vectors[0]).real - 1.0))
        orthogonality = [float(abs(np.vdot(vectors[-1], v))) for v in vectors[:-1]]
    return vectors, tuple(chain), normalization, tuple(orthogonality)


def _chain_vectors(nmat: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """The vectors j_1 ... j_n of reference_chain, each its own array, scaled one at a time."""
    n = nmat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing ||j_1|| raises NumericalError below
        vectors = [y]
        for _ in range(n - 1):
            vectors.append(nmat @ vectors[-1])
        j_1 = vectors[-1]
        first = float(np.linalg.norm(j_1))
        if first == np.inf:
            raise NumericalError("||N^(n-1) y|| overflows a double")
        if not first > 0.0:
            raise StructureError("N^(n-1) is numerically zero")
        mods = np.abs(j_1)
        pivot = int(np.flatnonzero(mods >= (1.0 - 1e-12) * mods.max())[0])
        factor = (j_1[pivot].conjugate() / mods[pivot]) / first
        return [v * factor for v in reversed(vectors)]


def rank_one_svd_rejects(m: np.ndarray) -> bool:
    """The rank-one check as one SVD decides it: ||M||_2 and ||M||_F differ beyond 1e-10 relative."""
    spec = float(np.linalg.svd(m, compute_uv=False)[0])
    frob = float(np.linalg.norm(m, "fro"))
    return abs(spec - frob) > 1e-10 * max(frob, np.finfo(float).tiny)


def by_norm_bracket(m: np.ndarray, decide) -> bool:
    """decide(||M||_2) for a predicate monotone in the norm, settled by ep_core's staged bracket of M."""
    with ep_core._overflow_scope():  # settle runs inside its caller's scope, as in epkit
        return ep_core._NormBracket(m).settle(decide)


def norm_at_most(power: np.ndarray, bound: float) -> bool:
    """||P||_2 <= bound for a square P, decided by by_norm_bracket."""
    return by_norm_bracket(power, lambda norm: norm <= bound)


def reference_composite_response(system) -> float:
    """composite_response by the factored formula xi = |y_b^H K u_a| * xi_b, the threshold read from an SVD of K.

    s = y_b^H K u_a is summed from the reports' own factors (u, y) as compose sums it, since on a nearly
    nongeneric K its cancellation magnifies any other rounding; only the degeneracy threshold
    1e-8 * xi_a * xi_b * ||K||_2, with ||K||_2 from system.coupling_norm, is decided apart.
    """
    a, b = system.rep_a, system.rep_b
    xi = abs(complex(b._pair[1].conj().dot(system.k.dot(a._pair[0])))) * b.response_strength
    if not np.isfinite(xi * xi):
        raise NumericalError("the composite response strength overflows a double when squared")
    if xi <= 1e-8 * (a.response_strength * b.response_strength * system.coupling_norm):
        raise DegenerateCouplingError("coupling is degenerate")
    return xi


def reference_compose_many(hams, couplings):
    """compose_many as a left fold over assembled composites, from public pieces only.

    The first level certifies H_a by detect_ep, and each later level enters the next through the
    block-theorem report of the composite so far.  The next subsystem is certified, checked and joined
    as compose does it, with the same messages, and each composite's mean is read by traceless_part,
    which raises compose's overflow error.
    """
    hams, couplings = list(hams), list(couplings)
    if len(hams) < 2 or len(couplings) != len(hams) - 1:
        raise ParameterError(
            f"need at least two subsystems and exactly len(hams)-1 couplings, got {len(hams)} and {len(couplings)}"
        )
    h, system = cmatrix.as_square(hams[0], "H_a"), None
    for h_next, k_next in zip(hams[1:], couplings):
        h_next, k_next = cmatrix.as_square(h_next, "H_b"), cmatrix.as_matrix(k_next, "K")
        rep_a = _full_order(ep_core.detect_ep(h), "a") if system is None else system.report
        rep_b = _full_order(ep_core.detect_ep(h_next), "b")
        n_a, n_b = rep_a.dim, rep_b.dim
        if k_next.shape != (n_b, n_a):
            raise ShapeError(f"K has shape {k_next.shape}, expected {(n_b, n_a)}")
        mismatch = abs(rep_a.ep_eigenvalue - rep_b.ep_eigenvalue)
        if mismatch > compose.DEFAULT_EIGENVALUE_TOL:
            raise IncompatibleSubsystemsError(
                f"subsystem eigenvalues differ by {mismatch:.3e} (> {compose.DEFAULT_EIGENVALUE_TOL:g})"
            )
        h = np.block([[h, np.zeros((n_a, n_b))], [k_next, h_next]]).astype(complex, copy=False)
        system = compose.CompositeSystem(h=h, k=k_next.copy(), ep_eigenvalue=ep_core.traceless_part(h)[0],
                                         rep_a=rep_a, rep_b=rep_b)
    return system


def _full_order(report, label: str):
    """report itself when it certifies a full-order point; compose's PreconditionError otherwise."""
    if not report.is_full_ep:
        raise PreconditionError(
            f"subsystem {label} is not at a full-order exceptional point (order {report.order}, dim {report.dim})"
        )
    return report


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
