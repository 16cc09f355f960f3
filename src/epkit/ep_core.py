"""Exceptional point detection and spectral response.

A square Hamiltonian H hosts an exceptional point of order n exactly when its
traceless part N = H - (tr H / n) I is nilpotent of index n.  This module
certifies that property numerically, computes the spectral response strength
xi = ||N^(n-1)||, evaluates the resolvent expansion of H near the degenerate
eigenvalue, and predicts leading-order eigenvalue splittings under
perturbations together with the corresponding rigorous bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import cmatrix
from .errors import NumericalError, ParameterError, PoleError, PreconditionError, ShapeError

#: Machine precision of double-precision floating point, used as the
#: perturbation scale when modelling rounding errors.
DEFAULT_EPS_MP = 2.22e-16

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

#: Largest relative gap between ||M||_F and a power-step lower bound on ||M||_2
#: that _rank_one_norm accepts without an SVD.  Inside it ||M||_F is within
#: 1e-13 of ||M||_2, so the 1e-10 rank-one check is sure to pass.
_RANK_ONE_MARGIN = 1e-13

#: _power_step trusts its bracket for ||M||_F in [1/_RANK_ONE_RANGE,
#: _RANK_ONE_RANGE].  There every square it sums is a normal double or far
#: below the total, so neither overflow nor gradual underflow can fake agreement.
_RANK_ONE_RANGE = 1e150

#: Relative widening of each bound of a _NormBracket stage before _settle
#: lets it decide.  The computed peak (exact to an ulp), sqrt(size) * peak,
#: est (a lower bound for any computed v, so only the last products round)
#: and ||M||_F, and LAPACK's sigma_1, each differ from their exact values by
#: O(size * eps) relative to ||M||_2: 1.4e-12 at dim 80 and 2.2e-10 at dim
#: 1000.  The widened bracket therefore holds the sigma_1 the SVD returns with
#: margin to spare, and a verdict decided on it is the SVD's.
_BRACKET_SLACK = 1e-8

__all__ = [
    "DEFAULT_EPS_MP",
    "EpReport",
    "SplittingPrediction",
    "default_nil_tol",
    "traceless_part",
    "nilpotency_index",
    "detect_ep",
    "response_strength",
    "greens_function",
    "splitting_bound",
    "machine_precision_bound",
    "predicted_splitting",
]


def _check_positive(name: str, value: float) -> float:
    """value as a float; ParameterError unless it is positive and finite (NaN included)."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def default_nil_tol(dim: int) -> float:
    """Scale-invariant nilpotency threshold; grows mildly with dimension."""
    return 1e-10 * dim


def _overflow_scope() -> np.errstate:
    """The one np.errstate scope each public entry point of ep_core, jordan and compose opens.

    Inside it an overflow or invalid operation gives inf or NaN without a
    RuntimeWarning, and the code that can produce one checks for it and raises
    NumericalError.  The private helpers run inside their caller's scope; only
    _power_step opens one of its own, and only where its squares may overflow.
    """
    return np.errstate(over="ignore", invalid="ignore")


@lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    """np.eye(n), read-only and kept, so _traceless_part does not build one per call."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def traceless_part(h) -> tuple[complex, np.ndarray]:
    """Split H into (mean eigenvalue, traceless remainder N = H - mean * I).

    A finite H whose trace or N leaves the double range raises NumericalError.
    """
    h = cmatrix.as_square(h, "H")
    with _overflow_scope():
        return _traceless_part(h)


def _traceless_part(h: np.ndarray) -> tuple[complex, np.ndarray]:
    """traceless_part of a validated square H; an overflow raises NumericalError."""
    n = h.shape[0]
    mean = complex(h.trace()) / n
    nmat = h - mean * _identity(n)
    if not (cmath.isfinite(mean) and np.isfinite(nmat).all()):
        raise NumericalError("the trace or traceless part of H overflows a double")
    return mean, nmat


def nilpotency_index(nmat, nil_tol: float | None = None) -> int | None:
    """Smallest k <= dim with ||N^k||_2 <= nil_tol * ||N||_2^k, or None.

    The zero matrix has index 1.  None means no power up to dim is
    numerically zero, i.e. the matrix has at least two distinct eigenvalues.
    """
    nmat = cmatrix.as_square(nmat, "N")
    with _overflow_scope():
        return _nilpotency(nmat, default_nil_tol(nmat.shape[0]) if nil_tol is None else nil_tol)[0]


def _nilpotency(nmat: np.ndarray, nil_tol: float) -> tuple[int | None, _NormBracket]:
    """(nilpotency_index, the staged bracket of ||N||_2) of a validated N.

    Each power test ||N^k||_2 <= nil_tol * ||N||_2^k is decided by
    _power_test over the brackets of N and of N^k, so ||N||_2 is taken by an
    SVD only when no cheaper bracket decides a test.  A non-finite power raises
    NumericalError, after the overflow of ||N||_2^k when that overflows too.
    """
    dim = nmat.shape[0]
    if not 0.0 < nil_tol < 1.0:  # at 1 or above every N passes the k = 1 test
        raise ParameterError(f"nil_tol must lie in (0, 1), got {nil_tol}")
    base = _NormBracket(nmat)
    power = nmat
    for k in range(1, dim + 1):
        norm = base
        if k > 1:
            power = power @ nmat
            try:
                norm = _NormBracket(power)
            except NumericalError:  # a non-finite power, raised after ||N||_2^k overflowing
                _norm_power(base.exact(), k)
                raise
        if _power_test(base, norm, k, nil_tol):
            return k, base
    return None, base


def _power_test(base: _NormBracket, norm: _NormBracket, k: int, nil_tol: float) -> bool:
    """||N^k||_2 <= nil_tol * ||N||_2^k, with base the bracket of ||N||_2 and norm that of ||N^k||_2.

    The first pass of _settle is done inline: the test is decided at once
    when it agrees at the corner (base.lo, norm.hi) and the corner
    (base.hi, norm.lo), as it does below the order, where the current bounds
    reject it.  Only a test they leave open enters _settle.
    """
    try:
        verdict = norm.hi <= nil_tol * _norm_power(base.lo, k)
        if (norm.lo <= nil_tol * _norm_power(base.hi, k)) == verdict:
            return verdict
    except NumericalError:  # a corner's threshold leaves the double range and settles nothing
        pass
    return _settle(lambda b, p: p <= nil_tol * _norm_power(b, k), (base, k), (norm, -1))


class _NormBracket:
    """Bounds lo <= ||M||_2 <= hi of a matrix M, narrowed in three stages on demand.

    Stage 1 is peak <= ||M||_2 <= sqrt(size) * peak with peak = max |m_ij|,
    free once |M| is taken; it needs a normal peak, so that abs (a hypot) is
    exact to an ulp.  |M| is taken once and kept for stage 2.  Stage 2 is
    est <= ||M||_2 <= ||M||_F from _power_step, narrow wherever one singular
    value dominates.  Both are widened by _BRACKET_SLACK on either side, so
    they hold the sigma_1 the SVD returns.  Stage 3 is lo = hi =
    spectral_norm(M), one SVD.  A zero M has norm 0 exactly, with no SVD; a
    subnormal peak starts at [0, inf], and an ||M||_F outside the
    _RANK_ONE_RANGE window skips stage 2.  M must be finite: a non-finite
    entry is an overflowed power of N and raises NumericalError.  Most tests
    are decided on stage 1 alone, inline (see _power_test); a bracket moves on
    only inside _settle.
    """

    __slots__ = ("m", "mods", "stage", "lo", "hi")

    def __init__(self, m: np.ndarray):
        self.m = m
        self.mods = mods = np.abs(m)
        peak = float(mods.ravel()[mods.argmax()])  # mods.max(), NaN included, without numpy's Python-level wrapper
        if not peak <= _HUGE:
            raise NumericalError("a power of N overflows a double")
        if peak == 0.0:
            self.stage, self.lo, self.hi = 3, 0.0, 0.0
        elif peak >= _TINY:
            self.stage = 1
            self.lo, self.hi = (1.0 - _BRACKET_SLACK) * peak, (1.0 + _BRACKET_SLACK) * math.sqrt(m.size) * peak
        else:
            self.stage, self.lo, self.hi = 2, 0.0, math.inf

    def narrow(self) -> None:
        """Move on to the next stage."""
        if self.stage == 1:
            est, frob = _power_step(self.m, self.mods)
            self.mods = None
            if est is not None:
                self.stage, self.lo, self.hi = 2, (1.0 - _BRACKET_SLACK) * est, (1.0 + _BRACKET_SLACK) * frob
                return
        self.exact()

    def exact(self) -> float:
        """||M||_2 as spectral_norm gives it, by one SVD the first time it is asked for or needed, then kept."""
        if self.stage < 3:
            self.stage = 3
            self.lo = self.hi = cmatrix._spectral_norm(self.m)
        return self.lo


def _spread(term: tuple[_NormBracket, int]) -> float:
    """|e| * ln(hi / lo) of a (bracket, exponent) term: how widely it spreads the product of the norms."""
    norm, exponent = term
    if exponent == 0 or norm.lo == norm.hi:
        return 0.0
    return abs(exponent) * math.log(norm.hi / norm.lo) if norm.lo > 0.0 else math.inf


def _settle(decide, *terms: tuple[_NormBracket, int]):
    """decide(||M_1||_2, ...) with the brackets of the norms narrowed only as far as it takes.

    Each term is a (bracket, e) pair, and decide must depend on the norms
    only through the product of ||M_i||_2**e_i, monotonically.  Over the
    box the brackets span, its verdict then lies between its verdicts at
    the two corners where that product is least and greatest.  Where those
    agree, so does decide at the norms the SVD returns, which lie inside the
    box; otherwise the bracket that spreads the product most moves on a
    stage.  A corner where decide raises NumericalError, a threshold leaving
    the double range, settles nothing, so only the exact norms raise.

    The hot tests (_power_test, the flush of _top_power, jordan_chain's
    budget and compose's degeneracy test) make this loop's first pass
    inline, at the same two corners in the same order, and call it only when
    the current bounds leave the verdict open; the verdict is the same
    either way.
    """
    while True:
        low = [norm.lo if e >= 0 else norm.hi for norm, e in terms]
        high = [norm.hi if e >= 0 else norm.lo for norm, e in terms]
        if low == high:  # every norm is known exactly
            return decide(*low)
        try:
            verdict = decide(*low)
            if decide(*high) == verdict:
                return verdict
        except NumericalError:
            pass
        max(terms, key=_spread)[0].narrow()


def _norm_power(norm: float, exponent: int) -> float:
    """norm**exponent; NumericalError when it (or norm itself) exceeds the double range."""
    try:
        value = norm**exponent
    except OverflowError:
        value = math.inf
    if not value <= _HUGE:
        raise NumericalError(f"||N||_2^{exponent} overflows a double (||N||_2 = {norm:.3e})")
    return value


def _top_power(nmat: np.ndarray, nil_tol: float, norm: _NormBracket) -> tuple[np.ndarray, float]:
    """N^(n-1) with entries below the certification threshold flushed to 0, and its norm.

    Matrix powers of a numerically nilpotent N carry rounding residue in
    positions that are structurally zero; the residue is orders of magnitude
    below nil_tol * ||N||_2^(n-1), so flushing it restores the exact block
    pattern (and makes structurally zero traces exactly zero) without touching
    any certified entry.  The power of a full-order point has rank one.  The
    flush is settled on norm, the bracket of ||N||_2: the entries under the
    threshold are nested in it, so they are the same at both ends of the
    bracket exactly when their count is.  The flush keeps the first largest
    entry unless it zeroes every entry, so |N^(n-1)| taken before it still
    locates the peak of the flushed power for _rank_one_norm.
    """
    dim = nmat.shape[0]
    if dim == 1:
        power = np.eye(1, dtype=complex)
        mods = None
    else:
        power = np.linalg.matrix_power(nmat, dim - 1)
        if power is nmat:  # matrix_power(N, 1) is N itself
            power = power.copy()
        mods = np.abs(power)
        try:  # the first pass of _settle, inline
            flush = mods <= nil_tol * _norm_power(norm.lo, dim - 1)
            settled = np.count_nonzero(flush) == np.count_nonzero(mods <= nil_tol * _norm_power(norm.hi, dim - 1))
        except NumericalError:  # a corner's threshold leaves the double range and settles nothing
            settled = False
        if not settled:
            _settle(lambda b: np.count_nonzero(mods <= nil_tol * _norm_power(b, dim - 1)), (norm, dim - 1))
            flush = mods <= nil_tol * _norm_power(norm.lo, dim - 1)
        power[flush] = 0.0
    power.setflags(write=False)
    return power, _rank_one_norm(power, "N^(n-1)", mods)


def _power_step(m: np.ndarray, mods: np.ndarray) -> tuple[float | None, float]:
    """(est, ||M||_F) of a finite M with mods = |M|, where est <= ||M||_2 <= ||M||_F.

    est = ||M^H v|| / ||v|| after one power step v = M r from r, the conjugate
    of the row holding the largest entry; any nonzero v gives a lower bound,
    and this one is close to ||M||_2 when one singular value dominates.  est
    is None for ||M||_F outside [1/_RANK_ONE_RANGE, _RANK_ONE_RANGE].
    """
    top, col = divmod(int(mods.argmax()), m.shape[1])
    peak = mods[top, col]
    if float(peak) * float(peak) * m.size <= _HUGE:  # no square, and no sum of them, can overflow
        frob = cmatrix._frobenius_norm(m)
    else:
        with np.errstate(over="ignore"):  # squares that overflow give inf, outside the window
            frob = cmatrix._frobenius_norm(m)
    if not 1.0 / _RANK_ONE_RANGE <= frob <= _RANK_ONE_RANGE:
        return None, frob
    v = m @ (m[top].conj() / peak**2)  # scaled so that 1 <= ||v|| <= m.size
    w = v.conj() @ m  # the conjugate of M^H v
    return math.sqrt(np.vdot(w, w).real / np.vdot(v, v).real), frob


def _rank_one_norm(m: np.ndarray, name: str, mods: np.ndarray | None = None) -> float:
    """||M||_2 of a finite rank-one M; NumericalError when ||M||_2 and ||M||_F differ beyond 1e-10 relative.

    The power step of _power_step certifies rank one without an SVD: when
    ||M||_F is within _RANK_ONE_MARGIN of est, ||M||_F is returned, as it is
    then within 1e-13 of ||M||_2 and the 1e-10 check passes.  Otherwise, and
    for ||M||_F outside the _RANK_ONE_RANGE window, one SVD decides.  mods,
    |M| unless given, need only hold the first largest |m_ij| where |M| does.
    """
    est, frob = _power_step(m, np.abs(m) if mods is None else mods)
    if est is not None and abs(frob - est) <= _RANK_ONE_MARGIN * frob:
        return frob
    spec = cmatrix._spectral_norm(m)
    if abs(spec - frob) > 1e-10 * max(frob, _TINY):
        raise NumericalError(
            f"spectral ({spec:.15g}) and Frobenius ({frob:.15g}) norms of {name} disagree; "
            "matrix is not numerically rank one"
        )
    return spec


@dataclass(frozen=True)
class EpReport:
    """Result of exceptional point detection on a square Hamiltonian.

    order is the nilpotency index of the traceless part (None when the
    spectrum is non-degenerate).  response_strength is only defined for
    full-order points (order == dim); partial is True otherwise.  top_power
    is the certified N^(dim-1) with its rounding residue flushed to zero,
    whose norm is the response strength; it is None unless the point has
    full order.

    nilpotent_norm, ||N||_2 of the traceless part N, is computed on first
    read and kept.  The thresholds that scale with it (the power tests, the
    flush, jordan_chain's residual budget and compose's cross-check) are
    settled on the staged bracket of it that the report carries (see
    _NormBracket), so a report takes at most one SVD of N.
    """

    dim: int
    order: int | None
    ep_eigenvalue: complex
    nilpotent: np.ndarray
    response_strength: float | None
    nil_tol: float
    top_power: np.ndarray | None
    _bracket: InitVar[_NormBracket | None] = None

    def __post_init__(self, _bracket):
        self.nilpotent.setflags(write=False)
        if _bracket is not None:  # kept apart from _bracket, so that dataclasses.replace starts afresh
            object.__setattr__(self, "_norm", _bracket)

    @cached_property
    def _norm(self) -> _NormBracket:
        """The staged bracket of ||N||_2, from the power test or made on first use."""
        return _NormBracket(self.nilpotent)

    @property
    def nilpotent_norm(self) -> float:
        """||N||_2 as spectral_norm gives it."""
        return self._norm.exact()

    @property
    def partial(self) -> bool:
        return self.order != self.dim

    @property
    def is_full_ep(self) -> bool:
        return self.order == self.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "ep_eigenvalue": [self.ep_eigenvalue.real, self.ep_eigenvalue.imag],
            "response_strength": self.response_strength,
            "partial": self.partial,
        }


def detect_ep(h, nil_tol: float | None = None) -> EpReport:
    """Certify whether H hosts an exceptional point of full order dim.

    Returns an EpReport with order equal to the nilpotency index of the
    traceless part.  order == dim certifies a full-order point and fixes the
    response strength; a smaller order flags a lower-order degeneracy living
    inside a larger space (response strength omitted); order None means the
    eigenvalues do not all coalesce.  A full-order verdict whose flushed
    N^(n-1) has norm 0 raises NumericalError: the power test and the flush
    then disagree, and no response strength can be certified.
    """
    h = cmatrix.as_square(h, "H")
    with _overflow_scope():
        return _detect(h, nil_tol)


def _detect(h: np.ndarray, nil_tol: float | None) -> EpReport:
    """detect_ep of a validated square H, inside the caller's _overflow_scope."""
    ep_eigenvalue, nmat = _traceless_part(h)
    dim = nmat.shape[0]
    if nil_tol is None:
        nil_tol = default_nil_tol(dim)
    order, norm = _nilpotency(nmat, nil_tol)
    power, xi = _top_power(nmat, nil_tol, norm) if order == dim else (None, None)
    if xi == 0.0:
        raise NumericalError(
            f"N^{dim - 1} is flushed to zero at a full-order verdict (dim {dim}); no response strength to certify"
        )
    return EpReport(
        dim=dim,
        order=order,
        ep_eigenvalue=ep_eigenvalue,
        nilpotent=nmat,
        response_strength=xi,
        nil_tol=float(nil_tol),
        top_power=power,
        _bracket=norm,
    )


def response_strength(h) -> float:
    """Spectral response strength xi = ||N^(n-1)||_2 of a full-order point."""
    report = detect_ep(h)
    if not report.is_full_ep:
        raise PreconditionError(
            f"response strength requires a full-order exceptional point; detected order {report.order} in dimension {report.dim}"
        )
    return report.response_strength


def greens_function(report: EpReport, energy: complex) -> np.ndarray:
    """Resolvent (E I - H)^(-1) from the truncated nilpotent expansion.

    Exact for a certified nilpotent part: the geometric series in
    N / (E - ep_eigenvalue) terminates after `order` terms.
    """
    if report.order is None:
        raise PreconditionError("Green's function expansion requires a nilpotent traceless part")
    energy = complex(energy)
    if not cmath.isfinite(energy):
        raise ParameterError(f"energy must be finite, got {energy}")
    delta = energy - report.ep_eigenvalue
    if delta == 0:
        raise PoleError("energy coincides with the degenerate eigenvalue")
    dim = report.dim
    g = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises NumericalError below
        term = np.eye(dim, dtype=complex) / delta
        for _ in range(report.order):
            g += term
            term = term @ report.nilpotent / delta
    if not np.isfinite(g).all():
        raise NumericalError(f"the resolvent expansion overflows a double at energy {energy}")
    return g


def _root_of_product(factors, n) -> float:
    """(f_1 * f_2 * ...)^(1/n) of positive finite factors, rooted one by one where the product under- or overflows."""
    product = math.prod(float(f) for f in factors)
    if 0.0 < product < math.inf:
        return float(product ** (1.0 / n))
    return float(math.prod(float(f) ** (1.0 / n) for f in factors))


def _check_order(n: float) -> None:
    """ParameterError unless n is a finite order of at least 1 (NaN included)."""
    if _check_positive("n", n) < 1.0:
        raise ParameterError(f"n must be an order of at least 1, got {float(n)}")


def splitting_bound(xi: float, eps: float, h1_spectral_norm: float, n: int) -> float:
    """Upper bound (eps * ||H1||_2 * xi)^(1/n) on |E_j - ep_eigenvalue|; the order n must be at least 1."""
    for name, value in (("xi", xi), ("eps", eps), ("h1_spectral_norm", h1_spectral_norm)):
        _check_positive(name, value)
    _check_order(n)
    return _root_of_product((eps, h1_spectral_norm, xi), n)


def machine_precision_bound(xi: float, n: int) -> float:
    """Rounding-noise floor (2 sqrt(n) * DEFAULT_EPS_MP * xi)^(1/n) of the splitting.

    Models rounding errors as a random perturbation of strength DEFAULT_EPS_MP
    whose spectral norm is estimated by 2 sqrt(n) for unit-variance entries.
    The order n must be at least 1.
    """
    _check_positive("xi", xi)
    _check_order(n)
    return _root_of_product((2.0 * math.sqrt(n), DEFAULT_EPS_MP, xi), n)


@dataclass(frozen=True)
class SplittingPrediction:
    """Leading-order eigenvalue fan around a perturbed full-order point.

    radicand is eps * trace(N^(n-1) H1); the predicted eigenvalues are
    ep_eigenvalue plus the n complex n-th roots of the radicand.
    """

    n: int
    radicand: complex
    predicted_eigenvalues: np.ndarray

    def __post_init__(self):
        self.predicted_eigenvalues.setflags(write=False)


def predicted_splitting(report: EpReport, h1, eps: float) -> SplittingPrediction:
    """Highest-order generic contribution to the splitting under H + eps*H1.

    The radicand is computed both as eps * trace(N^(n-1) H1) and through the
    degenerate eigenstate expectation value; the two routes must agree to
    1e-10 relative, otherwise a NumericalError is raised.
    """
    if not report.is_full_ep:
        raise PreconditionError(
            f"splitting prediction requires a full-order exceptional point; detected order {report.order}"
        )
    h1 = cmatrix.as_square(h1, "H1")
    if h1.shape[0] != report.dim:
        raise ShapeError(f"H1 has dimension {h1.shape[0]}, expected {report.dim}")
    eps = float(eps)
    n = report.dim
    power = report.top_power
    product = power @ h1
    trace_form = complex(np.trace(product))
    if n == 1:
        sandwich_form = trace_form
    else:
        psi = cmatrix.kernel_vector(report.nilpotent)
        sandwich_form = complex(np.vdot(psi, product @ psi))
    scale = max(cmatrix.frobenius_norm(power) * cmatrix.frobenius_norm(h1), _TINY)
    if abs(trace_form - sandwich_form) > 1e-10 * scale:
        raise NumericalError(
            f"trace ({trace_form:.6e}) and eigenstate ({sandwich_form:.6e}) forms of the radicand disagree"
        )
    radicand = eps * trace_form
    if radicand == 0:
        roots = np.full(n, report.ep_eigenvalue, dtype=complex)
    else:
        principal = radicand ** (1.0 / n)
        unity = np.exp(2j * np.pi * np.arange(n) / n)
        roots = report.ep_eigenvalue + principal * unity
    return SplittingPrediction(n=n, radicand=radicand, predicted_eigenvalues=roots)
