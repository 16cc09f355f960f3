"""Hierarchical composition of exceptional points by unidirectional coupling.

Two subsystems hosting full-order exceptional points with a shared eigenvalue
are stacked into the block lower-triangular Hamiltonian

    H = [[H_a, 0], [K, H_b]].

For generic coupling K the composite hosts a single exceptional point of order
n_a + n_b; the product C = N_b^(n_b-1) K N_a^(n_a-1) decides genericity and
carries the composite response strength xi = ||C||.  With the blocks' rank-one
top powers u y^H (unit y), C = s u_b y_a^H for the one scalar s = y_b^H K u_a,
so xi = |s| * xi_b.  The coupling is degenerate when xi <= 1e-8 * xi_a * xi_b
* ||K||_2, a fraction of the bound xi <= xi_a * xi_b * ||K||_2 whatever the
subsystem scale.  One fold over these block-theorem certificates builds every
composite: one power test per subsystem, one s per level, H assembled once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cmatrix
from .ep_core import (EpReport, _detect, _mean_eigenvalue, _nilpotency, _NormBracket, _overflow_scope,
                      _traceless_part, default_nil_tol)
from .errors import (DegenerateCouplingError, IncompatibleSubsystemsError, NumericalError, ParameterError,
                     PreconditionError, ShapeError)

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


class _Level(NamedTuple):
    """The block-theorem certificate of a composite, all compose_many carries from one level to the next.

    Its top power [[0, 0], [s u_b y_a^H, 0]] is u y^H, u = (0, s u_b) and y = (y_a, 0) split after n_a entries;
    the rest is named as in EpReport, so a report or a _Level can certify a level's upstream block.
    """

    u: np.ndarray
    y: np.ndarray
    n_a: int
    response_strength: float
    dim: int
    ep_eigenvalue: complex

    @property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.u, self.y

    def report(self, nmat: np.ndarray) -> EpReport:
        """The full-order EpReport of the composite whose traceless part is nmat; it carries the pair."""
        top = np.zeros((self.dim, self.dim), dtype=complex)
        np.multiply.outer(self.u[self.n_a:], self.y[:self.n_a].conj(), out=top[self.n_a:, :self.n_a])
        top.setflags(write=False)
        return EpReport(dim=self.dim, order=self.dim, ep_eigenvalue=self.ep_eigenvalue, nilpotent=nmat,
                        response_strength=self.response_strength, nil_tol=default_nil_tol(self.dim),
                        top_power=top, _factors=self._pair)


@dataclass(frozen=True)
class CompositeSystem:
    """The composite H = [[H_a, 0], [K, H_b]] with its shared eigenvalue.

    rep_a and rep_b certify the diagonal blocks, whose sizes n_a and n_b they carry; in compose_many,
    rep_a is the previous level's block-theorem report.  k is a contiguous copy of the coupling block of
    h.  As in block_compose, a report that is not full order raises PreconditionError, and a k or h of
    the wrong shape ShapeError.
    """

    h: np.ndarray
    k: np.ndarray
    ep_eigenvalue: complex
    rep_a: EpReport
    rep_b: EpReport

    def __post_init__(self):
        _certified(self.rep_a, "a")
        _certified(self.rep_b, "b")
        for name, m, shape in (("K", self.k, (self.n_b, self.n_a)), ("H", self.h, (self.dim, self.dim))):
            if m.shape != shape:
                raise ShapeError(f"{name} has shape {m.shape}, expected {shape}")
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

        So the order is dim exactly when C is generic, response_strength is ||C|| and top_power is the
        padded genericity_product, byte for byte; composite_response's errors are raised, no power of the
        assembled N is tested, and nilpotent_norm is read on demand.
        """
        with _overflow_scope():
            _, nmat = _traceless_part(self.h)
            level = _level(self.rep_a, self.rep_b, self.k, self._coupling, self.ep_eigenvalue, lambda: nmat)
        return level.report(nmat)


def _level(a, b, k: np.ndarray, coupling: _NormBracket, mean: complex, nilpotent) -> _Level:
    """The certificate of [[H_a, 0], [K, H_b]] from the certificates a (an EpReport or a _Level) and b of its blocks.

    coupling is the bracket of ||K||_2 and mean the composite's mean eigenvalue; nilpotent() gives its
    traceless part, which only a degenerate coupling needs, to name the achieved order.  It raises what
    composite_response documents, inside the caller's _overflow_scope.
    """
    s, xi = _factored(a, b, k)
    dim = a.dim + b.dim
    # xi > 1e-8 * xi_a * xi_b * ||K||_2, settled on ||K||_2's bracket; xi = 0 is degenerate whatever ||K||_2 is,
    # and no certified block has xi = 0, since detect_ep raises NumericalError on a top power flushed to zero
    xi_a, xi_b = a.response_strength, b.response_strength
    if not (xi > 0.0 and coupling.settle(lambda norm: xi > 1e-8 * _upper_bound(xi_a, xi_b, norm))):
        achieved = _nilpotency(nilpotent(), default_nil_tol(dim))[0]
        raise DegenerateCouplingError(f"coupling is degenerate: composite order {achieved} < {dim}",
                                      achieved_order=achieved)
    u, y = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
    u[a.dim:] = s * b._pair[0]
    y[:a.dim] = a._pair[1]
    return _Level(u=u, y=y, n_a=a.dim, response_strength=xi, dim=dim, ep_eigenvalue=mean)


def _factored(a, b, k: np.ndarray) -> tuple[complex, float]:
    """(s, xi) of the composite of a and b under K: s = y_b^H K u_a, so C = s u_b y_a^H and xi = ||C|| = |s| * xi_b.

    K is read C-ordered, so it sums in one order whatever its layout.  NumericalError unless xi * xi is finite,
    as jordan_chain sums the squares of N^(n-1) y and predicted_splitting those of the top power.
    """
    s = complex(b._pair[1].conj().dot(np.ascontiguousarray(k).dot(a._pair[0])))
    xi = abs(s) * b.response_strength
    if not math.isfinite(xi * xi):
        raise NumericalError(f"xi^2 of the composite response strength overflows a double (xi = {xi:.3e})")
    return s, xi


def _certified(report: EpReport, label: str) -> EpReport:
    """report itself when it certifies a full-order point; PreconditionError otherwise."""
    if not report.is_full_ep:
        raise PreconditionError(f"subsystem {label} is not at a full-order exceptional point "
                                f"(order {report.order}, dim {report.dim})")
    return report


def _joined(a, h_b: np.ndarray, k: np.ndarray, tol: float) -> EpReport:
    """H_b's certified report, once K fits between it and a and their eigenvalues agree, in the caller's scope."""
    rep_b = _certified(_detect(h_b, None), "b")
    if k.shape != (rep_b.dim, a.dim):
        raise ShapeError(f"K has shape {k.shape}, expected {(rep_b.dim, a.dim)}")
    mismatch = abs(a.ep_eigenvalue - rep_b.ep_eigenvalue)
    if mismatch > tol:
        raise IncompatibleSubsystemsError(f"subsystem eigenvalues differ by {mismatch:.3e} (> {tol:g})")
    return rep_b


def _block_matrix(blocks: list[np.ndarray], couplings: list[np.ndarray]) -> np.ndarray:
    """The block lower-triangular H of a chain: blocks on the diagonal, couplings[i] left of blocks[i + 1]."""
    dim = sum(block.shape[0] for block in blocks)
    h = np.zeros((dim, dim), dtype=complex)
    stop = blocks[0].shape[0]
    h[:stop, :stop] = blocks[0]
    for block, k in zip(blocks[1:], couplings):
        start, stop = stop, stop + block.shape[0]
        h[start:stop, :start] = k
        h[start:stop, start:stop] = block
    return h


def _fold(hams: list, couplings: list, tol: float) -> CompositeSystem:
    """compose_many of hams and couplings with the eigenvalues joined to tol; block_compose is its two-block case."""
    blocks = [cmatrix.as_square(hams[0], "H_a"), cmatrix.as_square(hams[1], "H_b")]
    ks = [cmatrix.as_matrix(couplings[0], "K")]
    with _overflow_scope():
        level = first = _certified(_detect(blocks[0], None), "a")
        rep_b = _joined(level, blocks[1], ks[0], tol)
        for h_next, k_next in zip(hams[2:], couplings[1:]):
            h_next, k_next = cmatrix.as_square(h_next, "H_b"), cmatrix.as_matrix(k_next, "K")
            mean = _mean_eigenvalue(np.concatenate([block.diagonal() for block in blocks]))
            level = _level(level, rep_b, ks[-1], _NormBracket(ks[-1]), mean,
                           lambda: _traceless_part(_block_matrix(blocks, ks))[1])
            rep_b = _joined(level, h_next, k_next, tol)
            blocks.append(h_next)
            ks.append(k_next)
        h = _block_matrix(blocks, ks)
        rep_a = first if level is first else level.report(_traceless_part(h[:level.dim, :level.dim])[1])
        return CompositeSystem(h=h, k=ks[-1].copy(), ep_eigenvalue=_mean_eigenvalue(h.diagonal()), rep_a=rep_a,
                               rep_b=rep_b)


def block_compose(h_a, h_b, k, tol: float = DEFAULT_EIGENVALUE_TOL) -> CompositeSystem:
    """Assemble the block lower-triangular composite of two certified points.

    Both subsystems must host full-order exceptional points whose eigenvalues
    agree to `tol`; a larger mismatch raises IncompatibleSubsystemsError.
    """
    tol = cmatrix._as_number("tol", tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    return _fold([h_a, h_b], [k], tol)


def compose_many(hams, couplings) -> CompositeSystem:
    """The hierarchical composite of several subsystems, by the fold whose two-block case is block_compose.

    couplings[i] maps the composite of hams[:i+1] into hams[i+1], so it must
    have shape (dim of hams[i+1]) x (sum of dims of hams[:i+1]).  The fold
    carries block-theorem certificates (see _Level), never an assembled
    composite: each given subsystem gets one power test, each intermediate
    composite one s = y_b^H K u_a, and H is assembled once, at the end.  The
    result is the composite block_compose would give at the last level, with
    rep_a the report of the composite of hams[:-1]; a nongeneric intermediate
    coupling raises DegenerateCouplingError naming the achieved order, and the
    last level's C is certified by the result's report.
    """
    hams, couplings = cmatrix._as_list("hams", hams), cmatrix._as_list("couplings", couplings)
    if len(hams) < 2 or len(couplings) != len(hams) - 1:
        raise ParameterError(f"need at least two subsystems and exactly len(hams)-1 couplings, "
                             f"got {len(hams)} and {len(couplings)}")
    return _fold(hams, couplings, DEFAULT_EIGENVALUE_TOL)


def genericity_product(sys: CompositeSystem) -> np.ndarray:
    """C = N_b^(n_b-1) K N_a^(n_a-1) = s u_b y_a^H, the only nonzero block of N^(dim-1).

    It is built from the factors of the subsystems' certified top powers, so no power of the assembled N is
    taken; each top power is trusted because detect_ep refused a flush that removed more than nil_tol of
    it.  NumericalError unless ||C||^2 is finite.
    """
    with _overflow_scope():
        s, _ = _factored(sys.rep_a, sys.rep_b, sys.k)
        return np.multiply.outer(s * sys.rep_b._pair[0], sys.rep_a._pair[1].conj())


def composite_response(sys: CompositeSystem) -> float:
    """Composite response strength xi = ||C|| = |y_b^H K u_a| * xi_b, from the rank-one factors of the blocks.

    Raises DegenerateCouplingError (naming the achieved order) when the
    coupling is nongeneric, xi <= 1e-8 * xi_a * xi_b * ||K||_2, and
    NumericalError unless xi * xi is finite.  It is the response strength of
    sys.report, which it computes and keeps.
    """
    return sys.report.response_strength


def response_upper_bound(xi_a: float, xi_b: float, k) -> float:
    """Submultiplicative bound xi_a * xi_b * ||K||_2 on the composite response."""
    return _upper_bound(cmatrix._as_number("xi_a", xi_a), cmatrix._as_number("xi_b", xi_b),
                        cmatrix._spectral_norm(cmatrix.as_matrix(k, "K")))


def _upper_bound(xi_a: float, xi_b: float, coupling_norm: float) -> float:
    """response_upper_bound from a known ||K||_2, such as CompositeSystem.coupling_norm."""
    if not (0.0 < xi_a < math.inf and 0.0 < xi_b < math.inf):
        raise ParameterError(f"response strengths must be positive and finite, got {xi_a} and {xi_b}")
    return float(xi_a * xi_b * coupling_norm)
