"""Gauge-fixed Jordan chains of full-order exceptional points.

The chain j_1 ... j_n satisfies N j_1 = 0 and N j_l = j_{l-1}, with the gauge
fixed by ||j_1|| = 1 and j_n orthogonal to all earlier vectors.  It is built
forward from y of the certified rank-one top power N^(n-1) = u y^H by
matrix-vector products, with no SVD and no solve.  In that gauge the response
strength is 1 / ||j_n||, which shares its direction with the top power and so
is not an independent route.  The last Jordan vector of one subsystem combines
with the degenerate eigenstate of another to give the coupling amplitude that
factorizes the composite response strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .ep_core import EpReport, _overflow_scope
from .errors import NumericalError, ParameterError, PreconditionError, ShapeError, StructureError

__all__ = ["JordanChain", "jordan_chain", "response_from_chain", "coupling_amplitude"]

#: Absolute floor of the chain-residual budget, for an N of tiny norm.
_BUDGET_FLOOR = 64 * float(np.finfo(float).eps)


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


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of m, as np.linalg.norm(m, axis=1) sums them, without its dispatch."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=1))


def jordan_chain(report: EpReport) -> JordanChain:
    """Construct the gauge-fixed Jordan chain of a certified full-order point.

    The certified top power N^(n-1) = u y^H has rank one, and y spans the
    orthogonal complement of ker N^(n-1), which holds j_1 ... j_{n-1}; so the
    chain starts at j_n = y, the unit vector the report carries from where
    its top power was certified.  It is one read-only n x n array B whose
    row l is j_l: each row above the last is N times the row below, so
    j_l = N^(n-l) y, and one in-place scaling of B divides every vector by
    ||j_1|| = ||N^(n-1) y|| and fixes the phase of j_1 as kernel_vector does,
    which fixes the gauge.  The checks read whole-array products: the chain
    residuals ||N j_l - j_(l-1)|| (j_0 = 0) are the row norms of B N^T less
    B shifted down one row, and the overlaps with j_n come from one
    matrix-vector product.  Chain residuals are accepted up to
    1e-10 * ||N||_2, a budget settled on the report's bracket of ||N||_2, so
    no SVD is taken unless the residuals fall between the budgets at its two
    ends.  Orthogonality is accepted when |<j_n, j_l>| <= 1e-10 * ||j_n|| *
    ||j_l||, a relative overlap: in this gauge ||j_l|| grows like
    ||N||^-(l-1) for a small N, and so does the rounding of the inner
    product.  A zero ||j_1|| raises StructureError, and an ||j_1|| or a Jordan
    vector norm that overflows a double raises NumericalError.
    """
    if not report.is_full_ep:
        raise PreconditionError(
            f"Jordan chain requires a full-order exceptional point; detected order {report.order}"
        )
    with _overflow_scope():
        return _chain(report)


def _chain(report: EpReport) -> JordanChain:
    """jordan_chain of a full-order report, inside the caller's _overflow_scope."""
    nmat = report.nilpotent
    n = report.dim
    block = np.empty((n, n), dtype=complex)  # row l - 1 is j_l, all up to scale until scaled below
    block[-1] = report._pair[1]
    for l in range(n - 1, 0, -1):
        nmat.dot(block[l], out=block[l - 1])
    first = cmatrix._frobenius_norm(block[0])  # ||N^(n-1) y||, which is xi for a unit y
    if not first > 0.0:
        raise StructureError("N^(n-1) is numerically zero; no Jordan chain to build")
    if first == math.inf:
        raise NumericalError("a row norm of N^(n-1) overflows a double; no Jordan chain to build")
    block *= cmatrix._pivot_phase(block[0]) / first
    block.setflags(write=False)
    norms = _row_norms(block).tolist()
    if not all(map(math.isfinite, norms)):  # an infinite ||j_n|| would pass every orthogonality test
        raise NumericalError("the norm of a Jordan vector overflows a double; no Jordan chain to certify")

    shifted = block.dot(nmat.T)  # row l - 1 is N j_l, and N j_l - j_(l-1) once the block is taken off one row down
    shifted[1:] -= block[:-1]
    chain_res = tuple(_row_norms(shifted).tolist())
    norm_res = float(abs(np.vdot(block[0], block[0]).real - 1.0))
    last = block[-1]
    ortho_res = tuple(np.abs(block[:-1].dot(last.conj())).tolist())

    def within_budget(nilpotent_norm: float) -> bool:
        budget = max(1e-10 * nilpotent_norm, _BUDGET_FLOOR)
        return chain_res[0] <= budget and all(chain_res[l] <= budget * norms[l - 1] for l in range(1, n))

    ok = norm_res <= 1e-12 and all(r <= 1e-10 * norms[-1] * norm for r, norm in zip(ortho_res, norms))
    if not (ok and report._norm.settle(within_budget)):
        raise StructureError(
            f"chain conditions violated: chain residuals {chain_res}, normalization {norm_res:.3e}, "
            f"orthogonality {ortho_res}"
        )
    return JordanChain(
        vectors=tuple(block),
        chain_residuals=chain_res,
        normalization_residual=norm_res,
        orthogonality_residuals=ortho_res,
    )


def response_from_chain(chain: JordanChain) -> float:
    """Response strength recovered from the chain: 1 / ||j_n||."""
    return 1.0 / cmatrix._frobenius_norm(chain.vectors[-1])


def coupling_amplitude(chain_b: JordanChain, psi_ep_a, k) -> complex:
    """Overlap of the unit last Jordan vector of b with K applied to the
    degenerate eigenstate of a.

    Its modulus times the two subsystem response strengths gives the response
    strength of the unidirectionally coupled composite.
    """
    psi = cmatrix.as_vector(psi_ep_a, "psi_ep_a")
    k = cmatrix.as_matrix(k, "K")
    if abs(cmatrix._frobenius_norm(psi) - 1.0) > 1e-12:
        raise ParameterError("psi_ep_a must be normalized to unit length")
    last = chain_b.vectors[-1]
    if k.shape != (last.shape[0], psi.shape[0]):
        raise ShapeError(f"K has shape {k.shape}, expected {(last.shape[0], psi.shape[0])}")
    j_tilde = last / cmatrix._frobenius_norm(last)
    return complex(np.vdot(j_tilde, k.dot(psi)))
