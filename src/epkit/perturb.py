"""Randomized perturbation experiments and scaling-law fits.

Random perturbations are read-only complex matrices whose entries are uniform
in [-1/2, 1/2] in real and imaginary part; the structure-preserving variant
zeroes the block that would couple the downstream subsystem back into the
upstream one.  Sweeps measure the largest eigenvalue excursion from the
degenerate eigenvalue as a function of perturbation strength and fit the
log-log slope, which approaches 1/n at a generic order-n exceptional point.
A sweep takes its eigenvalues in two trial halves on two threads.

Randomness comes from the counter-based Philox generator keyed per trial by
seed XOR splitmix64(trial), so results are reproducible across platforms and
independent of execution order.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .errors import ConvergenceError, FitError, ParameterError, ShapeError

__all__ = [
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

#: Most perturbed-matrix entries one chunk of a sweep holds (4 MiB of
#: complex128); a single strength whose trials exceed it still makes one chunk.
_CHUNK_ENTRIES = 1 << 18


def _splitmix64(x: int) -> int:
    """Reference splitmix64 hash; fixed constants, exact 64-bit arithmetic."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _seed(seed: int) -> int:
    """seed as an int in [0, 2**64); ParameterError outside, where masking would alias another seed."""
    seed = cmatrix._as_index("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


def child_seed(seed: int, trial: int) -> int:
    """Per-trial seed: seed XOR splitmix64(trial)."""
    return _seed(seed) ^ _splitmix64(cmatrix._as_index("trial", trial))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_seed(seed)))


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


def random_generic(dim: int, seed: int) -> np.ndarray:
    """Dense perturbation as a read-only complex matrix; real parts drawn first, then imaginary parts."""
    dim = cmatrix._as_index("dim", dim)
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    rng = _generator(seed)
    re = rng.random((dim, dim)) - 0.5
    im = rng.random((dim, dim)) - 0.5
    full = re + 1j * im
    full.setflags(write=False)
    return full


def random_preserving(n_a: int, n_b: int, seed: int) -> np.ndarray:
    """Read-only perturbation keeping the unidirectional structure of an (n_a, n_b) composite.

    All blocks are generic except the n_a x n_b block coupling the downstream
    subsystem back into the upstream one, which is exactly zero.
    """
    n_a, n_b = cmatrix._as_index("n_a", n_a), cmatrix._as_index("n_b", n_b)
    if n_a < 1 or n_b < 1:
        raise ParameterError(f"block sizes must be >= 1, got {n_a} and {n_b}")
    full = random_generic(n_a + n_b, seed).copy()
    full[:n_a, n_a:] = 0.0
    full.setflags(write=False)
    return full


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a (strengths, trials, d, d) stack: ceil(trials / 2) trials here, the rest on a worker thread."""
    if stack.shape[1] == 1:
        return np.linalg.eigvals(stack)
    half, rest = -(-stack.shape[1] // 2), []

    def run_rest() -> None:
        try:
            rest.append(np.linalg.eigvals(stack[:, half:]))
        except Exception as exc:  # raised on the calling thread once its own half is done
            rest.append(exc)

    worker = threading.Thread(target=run_rest)
    worker.start()
    try:
        first = np.linalg.eigvals(stack[:, :half])
    finally:
        worker.join()
    if isinstance(rest[0], Exception):
        raise rest[0]
    return np.concatenate([first, rest[0]], axis=1)


def _splittings(h: np.ndarray, ep_eigenvalue: complex, h1: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """max_j |E_j - ep_eigenvalue| for H + eps * H1 at each strength of a column, one row per strength.

    eps is a 1-d array of strengths and H1 a (trials, d, d) stack; the row for
    eps[s] holds one value per trial.  numpy runs the same LAPACK routine on
    every matrix of a stack as on a single matrix, so _eigvals' stacked calls
    give the same bits as one call per matrix.
    """
    ep = cmatrix._as_number("ep_eigenvalue", ep_eigenvalue, complex)
    if not cmath.isfinite(ep):
        raise ParameterError(f"ep_eigenvalue must be finite, got {ep}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed entry raises ParameterError below
        perturbed = h + eps[:, None, None, None] * h1
    finite = np.isfinite(perturbed.view(float)).reshape(len(eps), -1).all(axis=1)
    if not finite.all():
        raise ParameterError(
            f"H + eps * H1 contains non-finite entries at eps={eps[np.argmin(finite)]:g}"
        )
    try:
        vals = _eigvals(perturbed)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return np.max(np.abs(vals - ep), axis=-1)


def max_splitting(h, ep_eigenvalue: complex, h1, eps: float) -> float:
    """max_j |E_j - ep_eigenvalue| over the eigenvalues of H + eps * H1."""
    h = cmatrix.as_square(h, "H")
    h1 = cmatrix.as_square(h1, "H1")
    if h.shape != h1.shape:
        raise ShapeError(f"H has shape {h.shape} but H1 has shape {h1.shape}")
    eps = cmatrix._as_number("eps", eps)
    if eps < 0.0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    return float(_splittings(h, ep_eigenvalue, h1[None], np.array([eps]))[0, 0])


def _strengths(eps_grid) -> np.ndarray:
    """eps_grid as a float array; ParameterError unless it is a strictly ascending, positive and finite sequence."""
    values = cmatrix._as_list("eps_grid", eps_grid)
    strengths = np.array([cmatrix._as_number("eps_grid", e) for e in values], dtype=float)
    if not (len(strengths) and np.isfinite(strengths).all() and strengths[0] > 0 and (np.diff(strengths) > 0).all()):
        raise ParameterError("eps_grid must be strictly ascending, positive and finite")
    return strengths


def _table(eps_grid, splittings) -> tuple[np.ndarray, np.ndarray]:
    """(strengths, splittings) as float arrays; ShapeError unless splittings has one row per strength."""
    strengths = _strengths(eps_grid)
    try:
        table = np.asarray(splittings, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or an entry that is not a real number
        raise ShapeError("splittings must have one row per strength and >= 1 trial, got a ragged or non-numeric table") from None
    if table.ndim != 2 or table.shape[0] != len(strengths) or table.size == 0:
        raise ShapeError(f"splittings must have one row per strength and >= 1 trial, got shape {table.shape}")
    return strengths, table


def sweep(h, ep_eigenvalue: complex, mode: str, eps_grid, trials: int, seed: int,
          n_a: int | None = None) -> np.ndarray:
    """Measure splittings over a strength grid with `trials` perturbation draws.

    Trial t draws its matrix once from child_seed(seed, t) and reuses it for
    every strength, so each trial traces a curve over the grid.  Preserving
    mode needs n_a, the upstream block size.  Returns a read-only
    (len(eps_grid), trials) table: row s holds the splittings at eps_grid[s],
    column t those of trial t.  The (strengths, trials, d, d) stack of
    perturbed matrices goes to _eigvals in chunks of whole strengths of at most
    _CHUNK_ENTRIES matrix entries, with at least one strength per chunk.
    """
    h = cmatrix.as_square(h, "H")
    dim = h.shape[0]
    strengths = _strengths(eps_grid)
    trials = cmatrix._as_index("trials", trials)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if mode == "generic":
        draws = [random_generic(dim, child_seed(seed, t)) for t in range(trials)]
    elif mode == "preserving":
        if n_a is None or not (1 <= cmatrix._as_index("n_a", n_a) < dim):
            raise ParameterError("preserving mode needs the upstream block size n_a (1 <= n_a < dim)")
        draws = [random_preserving(n_a, dim - n_a, child_seed(seed, t)) for t in range(trials)]
    else:
        raise ParameterError(f"mode must be 'generic' or 'preserving', got {mode!r}")
    h1_stack = np.stack(draws)
    step = max(1, _CHUNK_ENTRIES // h1_stack.size)
    table = np.concatenate([
        _splittings(h, ep_eigenvalue, h1_stack, strengths[start:start + step])
        for start in range(0, len(strengths), step)
    ])
    table.setflags(write=False)
    return table


def fit_slope(eps_grid, splittings, window: tuple[float, float]) -> SlopeFit:
    """Fit log10(median splitting) against log10(eps) inside the window.

    Each row of the sweep table `splittings`, one per strength of eps_grid,
    enters as its median over trials.  Requires a window of two numbers, at least
    three strengths inside it, every splitting in their rows finite and every
    median finite; a window that is not two numbers raises ParameterError.
    """
    window = cmatrix._as_list("window", window)
    if len(window) != 2:
        raise ParameterError(f"window must be two strengths (lo, hi), got {window!r}")
    lo, hi = (cmatrix._as_number("window", bound) for bound in window)
    if not (0.0 < lo < hi):
        raise ParameterError(f"window must satisfy 0 < lo < hi, got ({lo}, {hi})")
    strengths, table = _table(eps_grid, splittings)
    inside = (lo <= strengths) & (strengths <= hi)
    strengths, values = strengths[inside], table[inside]
    if len(strengths) < 3:
        raise FitError(f"need >= 3 distinct strengths inside [{lo:g}, {hi:g}], got {len(strengths)}")
    if not np.all(np.isfinite(values)):
        raise FitError(f"a splitting inside [{lo:g}, {hi:g}] is not finite")
    ordered = np.sort(values, axis=1)
    mid = ordered.shape[1] // 2
    with np.errstate(over="ignore"):  # an overflowed mean of two middle values raises FitError below
        # np.median's arithmetic, without the numpy.ma import its first call makes
        medians = ordered[:, mid] if ordered.shape[1] % 2 else (ordered[:, mid - 1] + ordered[:, mid]) / 2
    if not np.all(np.isfinite(medians)):
        raise FitError(f"a median splitting inside [{lo:g}, {hi:g}] overflows a double")
    if np.any(medians <= 0.0):
        raise FitError("median splitting must be positive to fit on a log scale")
    x, y = np.log10(strengths), np.log10(medians)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), window=(lo, hi), residual=residual)


def records_to_csv(eps_grid, splittings) -> str:
    """CSV of a sweep table with header epsilon,trial,max_splitting, one line per entry, 17 significant digits."""
    strengths, table = _table(eps_grid, splittings)
    lines = ["epsilon,trial,max_splitting"]
    for eps, row in zip(strengths.tolist(), table.tolist()):
        eps_text = f"{eps:.17g}"
        lines += [f"{eps_text},{t},{value:.17g}" for t, value in enumerate(row)]
    return "\n".join(lines) + "\n"


def log_grid(eps_min: float, eps_max: float, points: int) -> list[float]:
    """Logarithmically spaced strength grid, endpoints included."""
    eps_min, eps_max = cmatrix._as_number("eps_min", eps_min), cmatrix._as_number("eps_max", eps_max)
    points = cmatrix._as_index("points", points)
    if not (0.0 < eps_min < eps_max < math.inf) or points < 2:
        raise ParameterError("need finite 0 < eps_min < eps_max and points >= 2")
    return [float(e) for e in np.logspace(math.log10(eps_min), math.log10(eps_max), points)]
