"""Randomized perturbation experiments and scaling-law fits.

Perturbations are dense complex matrices with entries drawn uniformly from
[-1/2, 1/2] in both real and imaginary part; the structure-preserving variant
zeroes the block that would couple the downstream subsystem back into the
upstream one.  Sweeps measure the largest eigenvalue excursion from the
degenerate eigenvalue as a function of perturbation strength and fit the
log-log slope, which approaches 1/n at a generic order-n exceptional point.

Randomness comes from the counter-based Philox generator keyed per trial by
seed XOR splitmix64(trial), so results are reproducible across platforms and
independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .errors import ConvergenceError, FitError, ParameterError, ShapeError

__all__ = [
    "Perturbation",
    "SweepRecord",
    "SlopeFit",
    "child_seed",
    "random_generic",
    "random_preserving",
    "max_splitting",
    "sweep",
    "fit_slope",
    "records_to_csv",
    "log_grid",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Reference splitmix64 hash; fixed constants, exact 64-bit arithmetic."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(seed: int, trial: int) -> int:
    """Per-trial seed: seed XOR splitmix64(trial)."""
    return (int(seed) & _MASK64) ^ _splitmix64(int(trial))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


@dataclass(frozen=True)
class Perturbation:
    """A drawn perturbation matrix together with its mode and seed."""

    matrix: np.ndarray
    mode: str
    seed: int

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class SweepRecord:
    """One (strength, trial) measurement of the maximal eigenvalue excursion."""

    eps: float
    max_splitting: float
    trial: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log10 eps, log10 median splitting)."""

    slope: float
    intercept: float
    window: tuple[float, float]
    residual: float

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "window": [self.window[0], self.window[1]],
            "residual": self.residual,
        }


def random_generic(dim: int, seed: int) -> Perturbation:
    """Dense perturbation; real parts drawn first, then imaginary parts."""
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    rng = _generator(seed)
    re = rng.random((dim, dim)) - 0.5
    im = rng.random((dim, dim)) - 0.5
    return Perturbation(matrix=re + 1j * im, mode="generic", seed=int(seed))


def random_preserving(n_a: int, n_b: int, seed: int) -> Perturbation:
    """Perturbation keeping the unidirectional structure of an (n_a, n_b) composite.

    All blocks are generic except the n_a x n_b block coupling the downstream
    subsystem back into the upstream one, which is exactly zero.
    """
    if n_a < 1 or n_b < 1:
        raise ParameterError(f"block sizes must be >= 1, got {n_a} and {n_b}")
    full = random_generic(n_a + n_b, seed).matrix.copy()
    full[:n_a, n_a:] = 0.0
    return Perturbation(matrix=full, mode="preserving", seed=int(seed))


def _splittings(h: np.ndarray, ep_eigenvalue: complex, h1: np.ndarray, eps: float) -> np.ndarray:
    """max_j |E_j - ep_eigenvalue| for H + eps * H1, one value per matrix of an H1 stack.

    H1 is a (d, d) matrix or a (trials, d, d) stack; numpy runs the same LAPACK
    eigenvalue routine on every matrix of a stack as on a single matrix, so a
    stacked call gives the same bits as one call per matrix.
    """
    perturbed = h + eps * h1
    if not np.all(np.isfinite(perturbed.view(float))):
        raise ParameterError(f"H + eps * H1 contains non-finite entries at eps={eps:g}")
    try:
        vals = np.linalg.eigvals(perturbed)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return np.max(np.abs(vals - complex(ep_eigenvalue)), axis=-1)


def max_splitting(h, ep_eigenvalue: complex, h1, eps: float) -> float:
    """max_j |E_j - ep_eigenvalue| over the eigenvalues of H + eps * H1."""
    h = cmatrix.as_square(h, "H")
    h1 = cmatrix.as_square(h1, "H1")
    if h.shape != h1.shape:
        raise ShapeError(f"H has shape {h.shape} but H1 has shape {h1.shape}")
    eps = float(eps)
    if eps < 0.0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    return float(_splittings(h, ep_eigenvalue, h1, eps))


def sweep(h, ep_eigenvalue: complex, mode: str, eps_grid, trials: int, seed: int,
          n_a: int | None = None) -> list[SweepRecord]:
    """Measure splittings over a strength grid with `trials` perturbation draws.

    Trial t draws its matrix once from child_seed(seed, t) and reuses it for
    every strength, so each trial traces a curve over the grid.  Preserving
    mode needs n_a, the upstream block size.  Records are ordered by strength,
    then trial.  Each strength takes one eigenvalue call on the stack of its
    `trials` perturbed matrices.
    """
    h = cmatrix.as_square(h, "H")
    dim = h.shape[0]
    grid = [float(e) for e in eps_grid]
    if (not grid or not all(math.isfinite(e) and e > 0.0 for e in grid)
            or any(a >= b for a, b in zip(grid, grid[1:]))):
        raise ParameterError("eps_grid must be strictly ascending, positive and finite")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if mode == "generic":
        perts = [random_generic(dim, child_seed(seed, t)) for t in range(trials)]
    elif mode == "preserving":
        if n_a is None or not (1 <= n_a < dim):
            raise ParameterError("preserving mode needs the upstream block size n_a (1 <= n_a < dim)")
        perts = [random_preserving(n_a, dim - n_a, child_seed(seed, t)) for t in range(trials)]
    else:
        raise ParameterError(f"mode must be 'generic' or 'preserving', got {mode!r}")
    h1_stack = np.stack([p.matrix for p in perts])
    return [
        SweepRecord(eps=eps, max_splitting=value, trial=t)
        for eps in grid
        for t, value in enumerate(_splittings(h, ep_eigenvalue, h1_stack, eps).tolist())
    ]


def fit_slope(records, window: tuple[float, float]) -> SlopeFit:
    """Fit log10(median splitting) against log10(eps) inside the window.

    The median is taken over trials at each strength.  Requires at least three
    distinct strengths inside the window.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise ParameterError(f"window must satisfy 0 < lo < hi, got ({lo}, {hi})")
    by_eps: dict[float, list[float]] = {}
    for rec in records:
        if lo <= rec.eps <= hi:
            by_eps.setdefault(rec.eps, []).append(rec.max_splitting)
    if len(by_eps) < 3:
        raise FitError(f"need >= 3 distinct strengths inside [{lo:g}, {hi:g}], got {len(by_eps)}")
    eps_values = sorted(by_eps)
    medians = [float(np.median(by_eps[e])) for e in eps_values]
    if any(m <= 0.0 for m in medians):
        raise FitError("median splitting must be positive to fit on a log scale")
    x = np.log10(eps_values)
    y = np.log10(medians)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), window=(lo, hi), residual=residual)


def records_to_csv(records) -> str:
    """CSV with header epsilon,trial,max_splitting and 17 significant digits."""
    lines = ["epsilon,trial,max_splitting"]
    for rec in records:
        lines.append(f"{rec.eps:.17g},{rec.trial},{rec.max_splitting:.17g}")
    return "\n".join(lines) + "\n"


def log_grid(eps_min: float, eps_max: float, points: int) -> list[float]:
    """Logarithmically spaced strength grid, endpoints included."""
    if not (0.0 < eps_min < eps_max) or points < 2:
        raise ParameterError("need 0 < eps_min < eps_max and points >= 2")
    return [float(e) for e in np.logspace(math.log10(eps_min), math.log10(eps_max), points)]
