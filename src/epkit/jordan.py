"""Gauge-fixed Jordan chains of full-order exceptional points.

The chain j_1 ... j_n satisfies N j_1 = 0 and N j_l = j_{l-1}, with the gauge
fixed by ||j_1|| = 1 and j_n orthogonal to all earlier vectors.  It is built
forward from the certified rank-one top power N^(n-1) by matrix-vector
products, with no SVD and no solve.  In that gauge the response strength is
1 / ||j_n||, which shares its direction with the top power and so is not an
independent route.  The last Jordan vector of one subsystem combines with the
degenerate eigenstate of another to give the coupling amplitude that
factorizes the composite response strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .ep_core import EpReport, _overflow_scope, _settle
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


def _chain_residuals(nmat, vectors) -> tuple[float, ...]:
    res = [cmatrix._frobenius_norm(nmat @ vectors[0])]
    for l in range(1, len(vectors)):
        res.append(cmatrix._frobenius_norm(nmat @ vectors[l] - vectors[l - 1]))
    return tuple(res)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of m, as np.linalg.norm(m, axis=1) sums them, without its dispatch."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=1))


def jordan_chain(report: EpReport) -> JordanChain:
    """Construct the gauge-fixed Jordan chain of a certified full-order point.

    The certified top power N^(n-1) = xi u v^H has rank one, and v spans the
    orthogonal complement of ker N^(n-1), which holds j_1 ... j_{n-1}.  So j_n
    points along the conjugate of every nonzero row of N^(n-1), taken from the
    largest, and j_l = N^(n-l) j_n follows by matrix-vector products.  Dividing every
    vector by ||j_1|| and fixing the phase of j_1 as kernel_vector does fixes
    the gauge.  Chain residuals are accepted up to 1e-10 * ||N||_2, a budget
    settled on the report's bracket of ||N||_2, so no SVD is taken unless the
    residuals fall between the budgets at its two ends.  Orthogonality is
    accepted when |<j_n, j_l>| <= 1e-10 * ||j_n|| * ||j_l||, a relative
    overlap: in this gauge ||j_l|| grows like ||N||^-(l-1) for a small N, and
    so does the rounding of the inner product.  A row of N^(n-1) whose norm
    overflows a double raises NumericalError.
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
    power = report.top_power
    row_norms = _row_norms(power)
    top = int(row_norms.argmax())
    if not row_norms[top] > 0.0:
        raise StructureError("N^(n-1) is numerically zero; no Jordan chain to build")
    if row_norms[top] == math.inf:
        raise NumericalError("a row norm of N^(n-1) overflows a double; no Jordan chain to build")
    vectors = [power[top].conj() / row_norms[top]]  # j_n up to scale
    for _ in range(n - 1):
        vectors.append(nmat @ vectors[-1])
    factor = cmatrix._pivot_phase(vectors[-1]) / cmatrix._frobenius_norm(vectors[-1])  # vectors[-1] is j_1 up to scale
    vectors = [v * factor for v in reversed(vectors)]

    chain_res = _chain_residuals(nmat, vectors)
    norm_res = float(abs(np.vdot(vectors[0], vectors[0]).real - 1.0))
    last = vectors[-1]
    ortho_res = tuple(float(abs(np.vdot(last, vectors[l]))) for l in range(n - 1))

    norms = [cmatrix._frobenius_norm(v) for v in vectors]

    def within_budget(nilpotent_norm: float) -> bool:
        budget = max(1e-10 * nilpotent_norm, _BUDGET_FLOOR)
        return chain_res[0] <= budget and all(chain_res[l] <= budget * norms[l - 1] for l in range(1, n))

    ok = norm_res <= 1e-12 and all(r <= 1e-10 * norms[-1] * norm for r, norm in zip(ortho_res, norms))
    if ok:  # _settle's first pass inline: the budget at both ends of the bracket of ||N||_2
        bracket = report._norm
        ok = within_budget(bracket.lo)
        if within_budget(bracket.hi) != ok:
            ok = _settle(within_budget, (bracket, 1))
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
    return complex(np.vdot(j_tilde, k @ psi))
