"""Gauge-fixed Jordan chains of full-order exceptional points.

The chain j_1 ... j_n satisfies N j_1 = 0 and N j_l = j_{l-1}, with the gauge
fixed by ||j_1|| = 1 and j_n orthogonal to all earlier vectors.  In that gauge
the response strength is 1 / ||j_n||, and the last Jordan vector of one
subsystem combines with the degenerate eigenstate of another to give the
coupling amplitude that factorizes the composite response strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .ep_core import EpReport
from .errors import EpkitError, ParameterError, PreconditionError, ShapeError, StructureError

__all__ = ["JordanChain", "jordan_chain", "response_from_chain", "coupling_amplitude"]


@dataclass(frozen=True)
class JordanChain:
    """Jordan vectors j_1 ... j_n plus the residuals achieved by each condition."""

    vectors: tuple[np.ndarray, ...]
    chain_residuals: tuple[float, ...]
    normalization_residual: float
    orthogonality_residuals: tuple[float, ...]

    def __post_init__(self):
        for v in self.vectors:
            v.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vectors": [cmatrix.vector_to_json(v) for v in self.vectors],
            "residuals": {
                "chain": list(self.chain_residuals),
                "normalization": self.normalization_residual,
                "orthogonality": list(self.orthogonality_residuals),
            },
        }


def _chain_residuals(nmat, vectors) -> tuple[float, ...]:
    res = [float(np.linalg.norm(nmat @ vectors[0]))]
    for l in range(1, len(vectors)):
        res.append(float(np.linalg.norm(nmat @ vectors[l] - vectors[l - 1])))
    return tuple(res)


def jordan_chain(report: EpReport) -> JordanChain:
    """Construct the gauge-fixed Jordan chain of a certified full-order point.

    j_1 is the phase-fixed unit null vector of N; the remaining vectors come
    from successive minimum-norm solves of N j_l = j_{l-1}, followed by the
    unique chain-preserving shift that makes j_n orthogonal to j_1 ... j_{n-1}.
    Chain residuals are accepted up to 1e-10 * ||N||_2.
    """
    if not report.is_full_ep:
        raise PreconditionError(
            f"Jordan chain requires a full-order exceptional point; detected order {report.order}"
        )
    nmat = np.asarray(report.nilpotent)
    n = report.dim
    try:
        svd = cmatrix._svd(nmat)  # one SVD of N serves the null vector and every solve
        raw = [cmatrix._kernel_vector(nmat, svd)] if n > 1 else [np.ones(1, dtype=complex)]
        for _ in range(n - 1):
            raw.append(cmatrix._min_norm_solve(nmat, svd, raw[-1]))
    except EpkitError as exc:
        raise StructureError(f"chain solve failed; not a single Jordan block numerically ({exc})") from exc

    if n > 1:
        # Orthogonalize j_n against span(j_1..j_{n-1}).  Shifting level l by
        # the same coefficient that shifts level n at offset m = n-1-q keeps
        # the chain relations N j_l = j_{l-1} exact.
        basis = np.column_stack(raw[:-1])
        coeff, *_ = np.linalg.lstsq(basis, raw[-1], rcond=None)
        offsets = {(n - 1) - q: -coeff[q] for q in range(n - 1)}  # j_l += offsets[m] * j_{l-m}
        vectors = []
        for l in range(n):
            v = raw[l].copy()
            for m, a in offsets.items():
                if l - m >= 0:
                    v += a * raw[l - m]
            vectors.append(v)
    else:
        vectors = raw

    chain_res = _chain_residuals(nmat, vectors)
    norm_res = float(abs(np.vdot(vectors[0], vectors[0]).real - 1.0))
    last = vectors[-1]
    ortho_res = tuple(float(abs(np.vdot(last, vectors[l]))) for l in range(n - 1))

    budget = max(1e-10 * report.nilpotent_norm, 64 * np.finfo(float).eps)
    ok = chain_res[0] <= budget and all(
        chain_res[l] <= budget * np.linalg.norm(vectors[l - 1]) for l in range(1, n)
    )
    ok = ok and norm_res <= 1e-12
    ok = ok and all(r <= 1e-10 * np.linalg.norm(last) for r in ortho_res)
    if not ok:
        raise StructureError(
            f"chain conditions violated: chain residuals {chain_res}, normalization {norm_res:.3e}, "
            f"orthogonality {ortho_res}"
        )
    return JordanChain(
        vectors=tuple(vectors),
        chain_residuals=chain_res,
        normalization_residual=norm_res,
        orthogonality_residuals=ortho_res,
    )


def response_from_chain(chain: JordanChain) -> float:
    """Response strength recovered from the chain: 1 / ||j_n||."""
    return float(1.0 / np.linalg.norm(chain.vectors[-1]))


def coupling_amplitude(chain_b: JordanChain, psi_ep_a, k) -> complex:
    """Overlap of the unit last Jordan vector of b with K applied to the
    degenerate eigenstate of a.

    Its modulus times the two subsystem response strengths gives the response
    strength of the unidirectionally coupled composite.
    """
    psi = cmatrix.as_vector(psi_ep_a, "psi_ep_a")
    k = cmatrix.as_matrix(k, "K")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ParameterError("psi_ep_a must be normalized to unit length")
    last = chain_b.vectors[-1]
    if k.shape != (last.shape[0], psi.shape[0]):
        raise ShapeError(f"K has shape {k.shape}, expected {(last.shape[0], psi.shape[0])}")
    j_tilde = last / np.linalg.norm(last)
    return complex(np.vdot(j_tilde, k @ psi))
