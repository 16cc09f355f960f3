"""Hierarchical composition of exceptional points by unidirectional coupling.

Two subsystems hosting full-order exceptional points with a shared eigenvalue
are stacked into the block lower-triangular Hamiltonian

    H = [[H_a, 0], [K, H_b]].

For generic coupling K the composite hosts a single exceptional point of order
n_a + n_b; the product C = N_b^(n_b-1) K N_a^(n_a-1) decides genericity and
carries the composite response strength xi = ||C||.  The coupling is called
degenerate when ||C||_F <= 1e-8 * xi_a * xi_b * ||K||_2, a fraction of the
bound xi <= xi_a * xi_b * ||K||_2 whatever the subsystem scale.  compose_many
folds over these block-theorem certificates: it certifies only the subsystems
it is given, never an assembled composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cmatrix
from .ep_core import (
    _TINY,
    EpReport,
    _detect,
    _nilpotency,
    _norm_power,
    _NormBracket,
    _overflow_scope,
    _rank_one_norm,
    _settle,
    _traceless_part,
    default_nil_tol,
    detect_ep,
)
from .errors import (
    DegenerateCouplingError,
    IncompatibleSubsystemsError,
    NumericalError,
    ParameterError,
    PreconditionError,
    ShapeError,
)

__all__ = [
    "CompositeSystem",
    "block_compose",
    "compose_many",
    "genericity_product",
    "composite_response",
    "response_upper_bound",
]

#: Absolute tolerance on the subsystem eigenvalue mismatch.
DEFAULT_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class CompositeSystem:
    """Assembled unidirectionally coupled pair with its shared eigenvalue.

    rep_a and rep_b are the full-order certificates of h_a and h_b as stored,
    so of the shifted H_b when block_compose shifted it; in compose_many,
    rep_a is the previous level's block-theorem report.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    k: np.ndarray
    h: np.ndarray
    ep_eigenvalue: complex
    rep_a: EpReport
    rep_b: EpReport

    def __post_init__(self):
        for m in (self.h_a, self.h_b, self.k, self.h):
            m.setflags(write=False)

    @property
    def n_a(self) -> int:
        return self.h_a.shape[0]

    @property
    def n_b(self) -> int:
        return self.h_b.shape[0]

    @property
    def dim(self) -> int:
        return self.n_a + self.n_b

    @property
    def coupling_norm(self) -> float:
        """||K||_2, computed on first use and kept."""
        return self._coupling.exact()

    @cached_property
    def _coupling(self) -> _NormBracket:
        """The staged bracket of ||K||_2 that the thresholds scaled by it are settled on."""
        return _NormBracket(self.k)

    @cached_property
    def report(self) -> EpReport:
        """Certificate from the block theorem, computed on first use and kept: N^(dim-1) = [[0, 0], [C, 0]].

        So the order is dim exactly when C is generic, and response_strength is
        ||C||; composite_response's errors are raised, and no power of the
        assembled N is tested.  nilpotent_norm is read on demand, as for any
        report.
        """
        nmat, c, xi = _block_response(self)
        top = np.zeros_like(nmat)
        top[self.n_a:, :self.n_a] = c
        top.setflags(write=False)
        return EpReport(dim=self.dim, order=self.dim, ep_eigenvalue=self.ep_eigenvalue, nilpotent=nmat,
                        response_strength=xi, nil_tol=default_nil_tol(self.dim), top_power=top)

    def to_json(self) -> dict:
        return {
            "h_a": cmatrix.matrix_to_json(self.h_a),
            "h_b": cmatrix.matrix_to_json(self.h_b),
            "k": cmatrix.matrix_to_json(self.k),
            "h": cmatrix.matrix_to_json(self.h),
            "ep_eigenvalue": [self.ep_eigenvalue.real, self.ep_eigenvalue.imag],
        }


def _certified(report: EpReport, label: str) -> EpReport:
    """report itself when it certifies a full-order point; PreconditionError otherwise."""
    if not report.is_full_ep:
        raise PreconditionError(
            f"subsystem {label} is not at a full-order exceptional point (order {report.order}, dim {report.dim})"
        )
    return report


def block_compose(h_a, h_b, k, tol: float = DEFAULT_EIGENVALUE_TOL, shift_b: bool = False) -> CompositeSystem:
    """Assemble the block lower-triangular composite of two certified points.

    Both subsystems must host full-order exceptional points whose eigenvalues
    agree to `tol`.  With shift_b=True a mismatched H_b is rigidly shifted
    onto the eigenvalue of H_a instead of raising; off by default so modelling
    errors surface.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    h_a = cmatrix.as_square(h_a, "H_a")
    h_b = cmatrix.as_square(h_b, "H_b")
    k = cmatrix.as_matrix(k, "K")
    with _overflow_scope():
        return _assemble(h_a, _certified(_detect(h_a, None), "a"), h_b, k, tol, shift_b)


def _assemble(h_a: np.ndarray, rep_a: EpReport, h_b: np.ndarray, k: np.ndarray, tol: float,
              shift_b: bool) -> CompositeSystem:
    """block_compose of validated H_a, H_b and K, with rep_a the full-order certificate of H_a.

    It runs inside the caller's _overflow_scope.
    """
    rep_b = _certified(_detect(h_b, None), "b")
    n_a, n_b = rep_a.dim, rep_b.dim
    if k.shape != (n_b, n_a):
        raise ShapeError(f"K has shape {k.shape}, expected {(n_b, n_a)}")
    mismatch = abs(rep_a.ep_eigenvalue - rep_b.ep_eigenvalue)
    if mismatch > tol:
        if not shift_b:
            raise IncompatibleSubsystemsError(
                f"subsystem eigenvalues differ by {mismatch:.3e} (> {tol:g}); "
                "shift_b=True shifts H_b onto the eigenvalue of H_a"
            )
        h_b = h_b + (rep_a.ep_eigenvalue - rep_b.ep_eigenvalue) * np.eye(n_b)
        rep_b = _certified(detect_ep(h_b), "b")  # detect_ep validates: the shift can overflow
    dim = n_a + n_b
    h = np.zeros((dim, dim), dtype=complex)
    h[:n_a, :n_a] = h_a
    h[n_a:, :n_a] = k
    h[n_a:, n_a:] = h_b
    ep_eigenvalue = complex(h.trace()) / dim
    return CompositeSystem(h_a=h_a.copy(), h_b=h_b.copy(), k=k.copy(), h=h, ep_eigenvalue=ep_eigenvalue,
                           rep_a=rep_a, rep_b=rep_b)


def compose_many(hams, couplings) -> CompositeSystem:
    """Left fold of block_compose over several subsystems.

    couplings[i] maps the composite of hams[:i+1] into hams[i+1], so it must
    have shape (dim of hams[i+1]) x (sum of dims of hams[:i+1]).  Only the
    given subsystems are certified by a power test; each intermediate
    composite enters the next level through its block-theorem report, so a
    nongeneric intermediate coupling (||C||_F <= 1e-8 * xi_a * xi_b * ||K||_2)
    raises DegenerateCouplingError naming the achieved order.
    """
    hams = list(hams)
    couplings = list(couplings)
    if len(hams) < 2 or len(couplings) != len(hams) - 1:
        raise ParameterError(
            f"need at least two subsystems and exactly len(hams)-1 couplings, got {len(hams)} and {len(couplings)}"
        )
    system = block_compose(hams[0], hams[1], couplings[0])
    with _overflow_scope():
        for h_next, k_next in zip(hams[2:], couplings[1:]):
            h_next, k_next = cmatrix.as_square(h_next, "H_b"), cmatrix.as_matrix(k_next, "K")
            system = _assemble(system.h, system.report, h_next, k_next, DEFAULT_EIGENVALUE_TOL, False)
    return system


def genericity_product(sys: CompositeSystem) -> np.ndarray:
    """C = N_b^(n_b-1) K N_a^(n_a-1), the only nonzero block of N^(dim-1).

    Cross-checked against direct powering of the assembled traceless part; a
    disagreement beyond 1e-10 relative to the coupling scale
    ||K||_2 * ||N_a||_2^(n_a-1) * ||N_b||_2^(n_b-1), the size C has without
    cancellation, raises NumericalError, and so does C, the direct power or
    the norm of their difference leaving the double range.  The check is
    settled on the staged brackets of the three norms (see
    ep_core._NormBracket), so an SVD of K, N_a or N_b is taken only where
    the cheaper brackets cannot decide it.
    """
    with _overflow_scope():
        return _genericity_product(sys, _traceless_part(sys.h)[1])


def _genericity_product(sys: CompositeSystem, nmat: np.ndarray) -> np.ndarray:
    """genericity_product with nmat the traceless part of sys.h, inside the caller's _overflow_scope."""
    a, b = sys.rep_a, sys.rep_b
    c = b.top_power @ sys.k @ a.top_power
    block = np.linalg.matrix_power(nmat, sys.dim - 1)[sys.n_a:, :sys.n_a]
    diff = cmatrix._frobenius_norm(c - block)
    if not math.isfinite(diff):  # finite only when every entry of C and of the block is
        raise NumericalError("the genericity product or its cross-check overflows a double")
    if _settle(lambda norm_a, norm_b, norm_k: diff > 1e-10 * max(
            norm_k * _norm_power(norm_a, a.dim - 1) * _norm_power(norm_b, b.dim - 1), _TINY),
            (a._norm, a.dim - 1), (b._norm, b.dim - 1), (sys._coupling, 1)):
        raise NumericalError("block product and direct matrix power disagree beyond tolerance")
    return c


def composite_response(sys: CompositeSystem) -> float:
    """Composite response strength xi = ||C||_2 = ||C||_F.

    Raises DegenerateCouplingError (naming the achieved order) when the
    coupling is nongeneric, ||C||_F <= 1e-8 * xi_a * xi_b * ||K||_2, and
    NumericalError when ||C||_F leaves the double range.  The rank-one norm of
    C is certified by ep_core._rank_one_norm, without an SVD when C is rank
    one to well below its 1e-10 check.
    """
    return _block_response(sys)[2]


def _block_response(sys: CompositeSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """(N, C, xi): the traceless part of sys.h, the genericity product and composite_response."""
    with _overflow_scope():
        _, nmat = _traceless_part(sys.h)
        c = _genericity_product(sys, nmat)
        frob = cmatrix._frobenius_norm(c)
        if not math.isfinite(frob):
            raise NumericalError("||C||_F of the genericity product overflows a double")
        # C = 0 is degenerate whatever ||K||_2 is; no certified subsystem has xi = 0, since detect_ep
        # raises NumericalError on a top power flushed to zero
        if not (frob > 0.0 and _is_generic(sys, frob)):
            achieved = _nilpotency(nmat, default_nil_tol(sys.dim))[0]
            raise DegenerateCouplingError(
                f"coupling is degenerate: composite order {achieved} < {sys.dim}",
                achieved_order=achieved,
            )
        return nmat, c, _rank_one_norm(c, "the genericity product")


def _is_generic(sys: CompositeSystem, frob: float) -> bool:
    """||C||_F > 1e-8 * xi_a * xi_b * ||K||_2, with _settle's first pass inline at both ends of ||K||_2's bracket."""
    xi_a, xi_b = sys.rep_a.response_strength, sys.rep_b.response_strength
    coupling = sys._coupling
    generic = frob > 1e-8 * _upper_bound(xi_a, xi_b, coupling.lo)
    if (frob > 1e-8 * _upper_bound(xi_a, xi_b, coupling.hi)) != generic:
        generic = _settle(lambda norm: frob > 1e-8 * _upper_bound(xi_a, xi_b, norm), (coupling, 1))
    return generic


def response_upper_bound(xi_a: float, xi_b: float, k) -> float:
    """Submultiplicative bound xi_a * xi_b * ||K||_2 on the composite response."""
    return _upper_bound(xi_a, xi_b, cmatrix.spectral_norm(k))


def _upper_bound(xi_a: float, xi_b: float, coupling_norm: float) -> float:
    """response_upper_bound from a known ||K||_2, such as CompositeSystem.coupling_norm."""
    if not (0.0 < xi_a < math.inf and 0.0 < xi_b < math.inf):
        raise ParameterError(f"response strengths must be positive and finite, got {xi_a} and {xi_b}")
    return float(xi_a * xi_b * coupling_norm)
