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
    EpReport,
    _detect,
    _nilpotency,
    _NormBracket,
    _overflow_scope,
    _rank_one_norm,
    _settle,
    _traceless_part,
    default_nil_tol,
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
    """The composite H = [[H_a, 0], [K, H_b]] with its shared eigenvalue.

    rep_a and rep_b certify the diagonal blocks, whose sizes n_a and n_b they
    carry; in compose_many, rep_a is the previous level's block-theorem report.
    k is a contiguous copy of the coupling block of h.
    """

    h: np.ndarray
    k: np.ndarray
    ep_eigenvalue: complex
    rep_a: EpReport
    rep_b: EpReport

    def __post_init__(self):
        for m in (self.h, self.k):
            m.setflags(write=False)

    @property
    def n_a(self) -> int:
        return self.rep_a.dim

    @property
    def n_b(self) -> int:
        return self.rep_b.dim

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


def _certified(report: EpReport, label: str) -> EpReport:
    """report itself when it certifies a full-order point; PreconditionError otherwise."""
    if not report.is_full_ep:
        raise PreconditionError(
            f"subsystem {label} is not at a full-order exceptional point (order {report.order}, dim {report.dim})"
        )
    return report


def block_compose(h_a, h_b, k, tol: float = DEFAULT_EIGENVALUE_TOL) -> CompositeSystem:
    """Assemble the block lower-triangular composite of two certified points.

    Both subsystems must host full-order exceptional points whose eigenvalues
    agree to `tol`; a larger mismatch raises IncompatibleSubsystemsError.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    h_a = cmatrix.as_square(h_a, "H_a")
    h_b = cmatrix.as_square(h_b, "H_b")
    k = cmatrix.as_matrix(k, "K")
    with _overflow_scope():
        return _assemble(h_a, _certified(_detect(h_a, None), "a"), h_b, k, tol)


def _assemble(h_a: np.ndarray, rep_a: EpReport, h_b: np.ndarray, k: np.ndarray, tol: float) -> CompositeSystem:
    """block_compose of validated H_a, H_b and K, with rep_a the full-order certificate of H_a.

    It runs inside the caller's _overflow_scope.
    """
    rep_b = _certified(_detect(h_b, None), "b")
    n_a, n_b = rep_a.dim, rep_b.dim
    if k.shape != (n_b, n_a):
        raise ShapeError(f"K has shape {k.shape}, expected {(n_b, n_a)}")
    mismatch = abs(rep_a.ep_eigenvalue - rep_b.ep_eigenvalue)
    if mismatch > tol:
        raise IncompatibleSubsystemsError(f"subsystem eigenvalues differ by {mismatch:.3e} (> {tol:g})")
    dim = n_a + n_b
    h = np.zeros((dim, dim), dtype=complex)
    h[:n_a, :n_a] = h_a
    h[n_a:, :n_a] = k
    h[n_a:, n_a:] = h_b
    ep_eigenvalue = complex(h.trace()) / dim
    return CompositeSystem(h=h, k=k.copy(), ep_eigenvalue=ep_eigenvalue, rep_a=rep_a, rep_b=rep_b)


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
            system = _assemble(system.h, system.report, h_next, k_next, DEFAULT_EIGENVALUE_TOL)
    return system


def genericity_product(sys: CompositeSystem) -> np.ndarray:
    """C = N_b^(n_b-1) K N_a^(n_a-1), the only nonzero block of N^(dim-1).

    It is the product of the subsystems' certified top powers with K, so no
    power of the assembled N is taken; each top power is trusted because
    detect_ep refused a flush that removed more than nil_tol of it.  A C that
    leaves the double range raises NumericalError.
    """
    with _overflow_scope():
        return _genericity_product(sys)


def _genericity_product(sys: CompositeSystem) -> np.ndarray:
    """genericity_product inside the caller's _overflow_scope."""
    c = sys.rep_b.top_power @ sys.k @ sys.rep_a.top_power
    if not np.isfinite(c).all():
        raise NumericalError("the genericity product overflows a double")
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
        c = _genericity_product(sys)
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
