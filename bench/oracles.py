"""Independent correctness oracles.  Nothing here imports epkit.

Closed forms are written out from the model definitions; the fig3 oracle
rebuilds the sweep with its own splitmix64, Philox draws and per-matrix
``numpy.linalg.eigvals`` loop; the ladder oracle derives the response
strength of each input from how the input was constructed.
"""

from __future__ import annotations

import math

import numpy as np

XI_RTOL_5X5 = 1e-8
XI_RTOL_LADDER = 1e-6
SLOPE_TOL = 0.02
SLOPE_GENERIC = 0.20
SLOPE_PRESERVING = 1.0 / 3.0

# Pinned parameters of `epkit reproduce-fig3`, restated here so the oracle
# does not read them from the program it checks.
FIG3 = {
    "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": 1.0,
    "eps_min": 1e-12, "eps_max": 1e-2, "points": 41, "trials": 8,
}
_MASK64 = (1 << 64) - 1


class OracleFailure(Exception):
    """An output disagrees with its oracle; the class name is the failure kind."""


class WrongOrder(OracleFailure):
    pass


class WrongXi(OracleFailure):
    pass


class CsvMismatch(OracleFailure):
    pass


class SlopeOutOfRange(OracleFailure):
    pass


class BadExit(OracleFailure):
    """A CLI call exited non-zero; the kind carries the exit code."""

    def __init__(self, code: int, message: str = ""):
        super().__init__(message or f"exit code {code}")
        self.kind = f"exit{code}"


def failure_kind(exc: BaseException) -> str:
    return getattr(exc, "kind", type(exc).__name__)


# ---------------------------------------------------------------------------
# models: the traceless parts written out exactly

def dimer_h(omega0: float, g: float) -> np.ndarray:
    """Gain/loss dimer locked at its EP (gain/loss coefficient equal to g)."""
    return np.array([[omega0 + 1j * g, g], [g, omega0 - 1j * g]], dtype=complex)


def trimer_h(omega0: float, g: float) -> np.ndarray:
    """Gain/loss trimer locked at its EP (gain/loss coefficient sqrt(2) g)."""
    a = math.sqrt(2.0) * g
    return np.array([[omega0 + 1j * a, g, 0.0], [g, omega0, g], [0.0, g, omega0 - 1j * a]], dtype=complex)


def dimer_nilpotent(g: float) -> np.ndarray:
    return np.array([[1j * g, g], [g, -1j * g]], dtype=complex)


def trimer_nilpotent(g: float) -> np.ndarray:
    a = math.sqrt(2.0) * g
    return np.array([[1j * a, g, 0.0], [g, 0.0, g], [0.0, g, -1j * a]], dtype=complex)


def composite_h(h_a: np.ndarray, h_b: np.ndarray, k: np.ndarray) -> np.ndarray:
    n_a, n_b = h_a.shape[0], h_b.shape[0]
    h = np.zeros((n_a + n_b, n_a + n_b), dtype=complex)
    h[:n_a, :n_a] = h_a
    h[n_a:, :n_a] = k
    h[n_a:, n_a:] = h_b
    return h


def dimer_xi(g: float) -> float:
    return 2.0 * g


def trimer_xi(g: float) -> float:
    return 4.0 * g * g


def composite_xi(g_a: float, g_b: float, k: np.ndarray) -> float:
    """||N_b^2 K N_a||; the product has rank one, so the 2- and F-norms agree."""
    nb = trimer_nilpotent(g_b)
    return float(np.linalg.norm(nb @ nb @ k @ dimer_nilpotent(g_a)))


def check_xi(got, want: float, rtol: float, what: str) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > rtol * want:
        raise WrongXi(f"{what}: got {got!r}, closed form {want:.17g}")


def check_order(got, want: int, what: str) -> None:
    if got != want:
        raise WrongOrder(f"{what}: order {got!r}, expected {want}")


# ---------------------------------------------------------------------------
# fig3: rebuild both CSVs

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _draw(dim: int, key: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key & _MASK64))
    re = rng.random((dim, dim)) - 0.5
    im = rng.random((dim, dim)) - 0.5
    return re + 1j * im


def fig3_csvs(seed: int) -> dict[str, bytes]:
    """The two CSVs `reproduce-fig3 --seed <seed>` must write, byte for byte."""
    p = FIG3
    k = np.zeros((3, 2), dtype=complex)
    k[0, 0] = p["k"]
    h = composite_h(dimer_h(p["omega0"], p["g_a"]), trimer_h(p["omega0"], p["g_b"]), k)
    ep = complex(np.trace(h)) / 5
    grid = [float(e) for e in np.logspace(math.log10(p["eps_min"]), math.log10(p["eps_max"]), p["points"])]
    out = {}
    for mode in ("generic", "preserving"):
        perts = []
        for t in range(p["trials"]):
            m = _draw(5, (seed & _MASK64) ^ _splitmix64(t))
            if mode == "preserving":
                m[:2, 2:] = 0.0
            perts.append(m)
        lines = ["epsilon,trial,max_splitting"]
        for eps in grid:
            for t, m in enumerate(perts):
                split = float(np.max(np.abs(np.linalg.eigvals(h + eps * m) - ep)))
                lines.append(f"{eps:.17g},{t},{split:.17g}")
        out[f"fig3_{mode}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return out


def check_slopes(slopes: dict) -> None:
    """Fitted slopes of both modes within SLOPE_TOL of 1/5 and 1/3."""
    for mode, target in (("generic", SLOPE_GENERIC), ("preserving", SLOPE_PRESERVING)):
        slope = slopes[mode]["slope"]
        if not abs(slope - target) <= SLOPE_TOL:
            raise SlopeOutOfRange(f"{mode} slope {slope!r} not within {SLOPE_TOL} of {target:.4f}")


# ---------------------------------------------------------------------------
# ladder

def jordan_block_xi(s: np.ndarray, s_inv: np.ndarray) -> float:
    """||N^(n-1)|| for N = S J S^-1: the top power is the rank-one S e_1 e_n^T S^-1."""
    return float(np.linalg.norm(s[:, 0]) * np.linalg.norm(s_inv[-1, :]))


def chain_xi(gs, couplings) -> float:
    """Response strength of a compose_many chain of dimers.

    With N = [[A, 0], [K, B]], A of index m and B a dimer (B^2 = 0), the only
    nonzero block of N^(m+1) is B K A^(m-1); the recursion carries that top
    power upward without forming any power of the full matrix.
    """
    top = dimer_nilpotent(gs[0])
    for g, k in zip(gs[1:], couplings):
        m = top.shape[0]
        nxt = np.zeros((m + 2, m + 2), dtype=complex)
        nxt[m:, :m] = dimer_nilpotent(g) @ k @ top
        top = nxt
    return float(np.linalg.norm(top))
