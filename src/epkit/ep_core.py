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
from functools import cached_property

import numpy as np

from . import cmatrix
from .errors import NumericalError, ParameterError, PoleError, PreconditionError, ShapeError

#: Machine precision of double-precision floating point, used as the
#: perturbation scale when modelling rounding errors.
DEFAULT_EPS_MP = 2.22e-16

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

#: Largest relative gap between ||M||_F and the lower bound ||M y|| on ||M||_2
#: that _rank_one_norm accepts without an SVD.  Inside it ||M||_F is within
#: 1e-13 of ||M||_2, so the 1e-10 rank-one check is sure to pass.
_RANK_ONE_MARGIN = 1e-13

#: _power_step and _rank_one_norm trust ||M||_F in [1/_RANK_ONE_RANGE,
#: _RANK_ONE_RANGE].  There every square they sum is a normal double or far
#: below the total, so neither overflow nor gradual underflow can fake agreement.
_RANK_ONE_RANGE = 1e150

#: Relative widening of each bound of a _NormBracket stage before a test is
#: decided on it.  The computed peak (exact to an ulp), sqrt(size) * peak,
#: est (a lower bound for any computed v, so only the last products round)
#: and ||M||_F, and LAPACK's sigma_1, each differ from their exact values by
#: O(size * eps) relative to ||M||_2: 1.4e-12 at dim 80 and 2.2e-10 at dim
#: 1000.  The computed Gram matrix M^H M lies within n * gamma_n * ||M||_2^2
#: of the exact one in Frobenius norm (n the inner dimension, gamma_n =
#: n * eps / (1 - n * eps)): 7e-13 relative at dim 80 and 1.1e-10 at dim 1000,
#: and its square root moves by half that.  The widened bracket therefore holds
#: the sigma_1 the SVD returns with margin to spare, and a verdict decided on
#: it is the SVD's.
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
    value = cmatrix._as_number(name, value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def default_nil_tol(dim: int) -> float:
    """Scale-invariant nilpotency threshold; grows mildly with dimension.

    dim must be a positive integer, else ParameterError.
    """
    dim = cmatrix._as_index("dim", dim)
    if dim < 1:
        raise ParameterError(f"dim must be a positive integer, got {dim}")
    return 1e-10 * dim


def _overflow_scope() -> np.errstate:
    """The one np.errstate scope each public entry point of ep_core, jordan and compose opens.

    Inside it an overflow or invalid operation gives inf or NaN without a
    RuntimeWarning, and the code that can produce one checks for it and raises
    NumericalError.  Private helpers open none and run in their caller's scope.
    """
    return np.errstate(over="ignore", invalid="ignore")


def traceless_part(h) -> tuple[complex, np.ndarray]:
    """Split H into (mean eigenvalue, traceless remainder N = H - mean * I).

    A finite H whose trace or N leaves the double range raises NumericalError.
    """
    h = cmatrix.as_square(h, "H")
    with _overflow_scope():
        return _traceless_part(h)


def _traceless_part(h: np.ndarray) -> tuple[complex, np.ndarray]:
    """traceless_part of a validated square H; an overflow raises NumericalError.

    N is a C-ordered copy of H with the mean subtracted from its n diagonal
    entries, so each entry has the value H - mean * I gives it.  Only the sign
    of a zero can differ: a -0.0 off the diagonal of H stays -0.0, where
    subtracting mean * 0 could make it +0.0.
    """
    mean = _mean_eigenvalue(h.diagonal())
    nmat = h.copy()  # C-contiguous, so ravel returns a view of it
    nmat.ravel()[:: h.shape[0] + 1] -= mean
    return mean, nmat


def _mean_eigenvalue(diagonal: np.ndarray) -> complex:
    """tr H / n from the diagonal of a finite H, summed as H.trace() sums it.

    NumericalError when the mean or a diagonal entry of N = H - mean * I
    leaves the double range; off the diagonal N is H itself, so this checks
    all of N.  compose reads each level's and each composite's mean here.  The
    sum calls np.add.reduce, the C loop of ndarray.sum without its Python-level
    wrapper, so the bits are the same; the check is one cmatrix._all_finite.
    """
    mean = complex(np.add.reduce(diagonal)) / diagonal.size
    if not (cmath.isfinite(mean) and cmatrix._all_finite(diagonal - mean)):
        raise NumericalError("the trace or traceless part of H overflows a double")
    return mean


def nilpotency_index(nmat, nil_tol: float | None = None) -> int | None:
    """Smallest k <= dim with ||N^k||_2 <= nil_tol * ||N||_2^k, or None.

    The zero matrix has index 1.  None means no power up to dim is
    numerically zero, i.e. the matrix has at least two distinct eigenvalues.
    """
    nmat = cmatrix.as_square(nmat, "N")
    nil_tol = default_nil_tol(nmat.shape[0]) if nil_tol is None else cmatrix._as_number("nil_tol", nil_tol)
    with _overflow_scope():
        return _nilpotency(nmat, nil_tol)[0]


def _nilpotency(nmat: np.ndarray, nil_tol: float) -> tuple[int | None, _NormBracket, _NormBracket | None]:
    """(nilpotency_index, the staged bracket of ||N||_2, the bracket of N^(index-1)) of a validated N.

    As nil_tol < 1, the k = 1 test ||N||_2 <= nil_tol * ||N||_2 holds for
    N = 0 alone, which has index 1 and needs no test; a nonzero N goes on to
    k = 2 even where nil_tol * ||N||_2 would round up to a subnormal ||N||_2
    and pass that test.  From k = 2 each power test
    ||N^k||_2 <= nil_tol * ||N||_2^k is decided by _power_test over the
    brackets of N and of N^k, so ||N||_2 is taken by an SVD only when no
    cheaper bracket decides a test.  N^k is the left-to-right product
    N N ... N, and the bracket of the power below the index is handed back
    with its matrix, so _top_power flushes the very N^(n-1) the test
    examined; it is None at index 1, as N^0 = I is never formed, and when
    there is no index.  A non-finite power raises NumericalError, after the
    overflow of ||N||_2^k when that overflows too.
    """
    dim = nmat.shape[0]
    if not 0.0 < nil_tol < 1.0:  # at 1 or above every N passes the k = 1 test
        raise ParameterError(f"nil_tol must lie in (0, 1), got {nil_tol}")
    base = norm = _NormBracket(nmat)  # norm is the bracket of N^k
    if base.hi == 0.0:
        return 1, base, None
    for k in range(2, dim + 1):
        below = norm
        try:
            norm = _NormBracket(norm.m.dot(nmat))
        except NumericalError:  # a non-finite power, raised after ||N||_2^k overflowing
            _norm_power(base.exact(), k)
            raise
        if _power_test(base, norm, k, nil_tol):
            return k, base, below
    return None, base, None


def _power_test(base: _NormBracket, norm: _NormBracket, k: int, nil_tol: float) -> bool:
    """||N^k||_2 <= nil_tol * ||N||_2^k, with base the bracket of ||N||_2 and norm that of ||N^k||_2.

    The test is monotone in ||N||_2^k / ||N^k||_2, so over the box the two
    brackets span its verdict lies between its verdicts at the corners
    (base.lo, norm.hi) and (base.hi, norm.lo).  Where those agree, so does the
    test at the norms the SVD returns, which lie inside the box; below the
    order the current bounds usually reject it at both.  Otherwise the
    bracket that spreads the threshold ratio more moves on a stage, base on a
    tie.  A corner whose threshold leaves the double range settles nothing,
    so only the exact norms raise NumericalError.
    """
    while True:
        if base.lo == base.hi and norm.lo == norm.hi:
            return norm.lo <= nil_tol * _norm_power(base.lo, k)
        try:
            verdict = norm.hi <= nil_tol * _norm_power(base.lo, k)
            if (norm.lo <= nil_tol * _norm_power(base.hi, k)) == verdict:
                return verdict
        except NumericalError:  # a corner's threshold leaves the double range and settles nothing
            pass
        (base if _spread(base, k) >= _spread(norm, 1) else norm).narrow()


class _NormBracket:
    """Bounds lo <= ||M||_2 <= hi of a matrix M, narrowed in four stages on demand.

    Stage 1 is peak <= ||M||_2 <= sqrt(size) * peak with peak = max |m_ij|,
    free once |M| is taken; it needs a normal peak, so that abs (a hypot) is
    exact to an ulp.  |M| and the index of its first largest entry are taken
    once; |M| is kept until stage 2 has used it.  Stage 2 is
    est <= ||M||_2 <= ||M||_F from _power_step, narrow wherever one singular
    value dominates.  Stage 3 keeps est and lowers hi to sqrt(||M^H M||_F),
    which ||M||_2^2 <= ||M^H M||_F bounds (Golub & Van Loan, Matrix
    Computations, sec. 2.3) at the price of one matrix product; it applies
    where ||M^H M||_F lies in the _RANK_ONE_RANGE window, for the reasons
    _power_step's window gives.  Every bound is widened by _BRACKET_SLACK on
    either side, so it holds the sigma_1 the SVD returns.  Stage 4 is lo =
    hi = spectral_norm(M), one SVD.  A zero M has norm 0 exactly, with no
    SVD; a subnormal peak starts at [0, inf], and an ||M||_F or ||M^H M||_F
    outside the window moves straight on to the SVD.  M must be finite: a
    non-finite entry is an overflowed power of N and raises NumericalError.
    Most tests are decided on stage 1 alone; a bracket moves on only when a
    test it scales is left open at both its ends (see settle and _power_test).
    """

    __slots__ = ("m", "mods", "at", "stage", "lo", "hi")

    def __init__(self, m: np.ndarray):
        self.m = m
        self.mods = mods = np.abs(m)
        self.at = int(mods.argmax())  # the flat index of the first largest |m_ij|, NaN included
        peak = mods.item(self.at)  # mods.max() without numpy's Python-level wrapper
        if not peak <= _HUGE:
            raise NumericalError("a power of N overflows a double")
        if peak == 0.0:
            self.stage, self.lo, self.hi = 4, 0.0, 0.0
        elif peak >= _TINY:
            self.stage = 1
            self.lo, self.hi = (1.0 - _BRACKET_SLACK) * peak, (1.0 + _BRACKET_SLACK) * math.sqrt(m.size) * peak
        else:
            self.stage, self.lo, self.hi = 3, 0.0, math.inf

    def narrow(self) -> None:
        """Move on to the next stage."""
        if self.stage == 1:
            est, frob = _power_step(self.m, self.mods, self.at)
            self.mods = None
            if est is not None:
                self.stage, self.lo, self.hi = 2, (1.0 - _BRACKET_SLACK) * est, (1.0 + _BRACKET_SLACK) * frob
                return
        elif self.stage == 2:
            m = self.m
            gram = cmatrix._frobenius_norm(m.conj().T.dot(m))
            if 1.0 / _RANK_ONE_RANGE <= gram <= _RANK_ONE_RANGE:
                self.stage, self.hi = 3, min(self.hi, (1.0 + _BRACKET_SLACK) * math.sqrt(gram))
                return
        self.exact()

    def exact(self) -> float:
        """||M||_2 as spectral_norm gives it, by one SVD the first time it is asked for or needed, then kept."""
        if self.stage < 4:
            self.stage = 4
            self.lo = self.hi = cmatrix._spectral_norm(self.m)
        return self.lo

    def settle(self, test):
        """test(||M||_2) for a test monotone in the norm, with the bracket narrowed only as far as it takes.

        Over the bracket a monotone test's verdict lies between its verdicts at
        lo and hi.  Where those agree, so does the test at the sigma_1 the SVD
        returns, which lies inside the bracket; otherwise the bracket moves on
        a stage.  A bound where test raises NumericalError, a threshold leaving
        the double range, settles nothing, so only the exact norm raises.
        """
        while self.lo != self.hi:
            try:
                verdict = test(self.lo)
                if test(self.hi) == verdict:
                    return verdict
            except NumericalError:
                pass
            self.narrow()
        return test(self.lo)


def _spread(norm: _NormBracket, exponent: int) -> float:
    """exponent * ln(hi / lo): how widely the bracket spreads ||M||_2**exponent."""
    if norm.lo == norm.hi:
        return 0.0
    return exponent * math.log(norm.hi / norm.lo) if norm.lo > 0.0 else math.inf


def _norm_power(norm: float, exponent: int) -> float:
    """norm**exponent; NumericalError when it (or norm itself) exceeds the double range."""
    try:
        value = norm**exponent
    except OverflowError:
        value = math.inf
    if not value <= _HUGE:
        raise NumericalError(f"||N||_2^{exponent} overflows a double (||N||_2 = {norm:.3e})")
    return value


def _top_power(top: _NormBracket | None, nil_tol: float,
               norm: _NormBracket) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray]]:
    """(N^(n-1) with entries below the certification threshold flushed to 0, its norm xi, its pair (u, y)).

    top is the bracket of N^(n-1) that _nilpotency built for the power test
    (None for N^0 = I at n = 1), so the flush acts on the very power the test
    examined and reuses its |M| (taken again if its bracket narrowed) and the
    index of its first largest entry.  top.m is flushed in place, unless it
    is N itself (n = 2), which is copied.  Powers of a numerically nilpotent
    N carry rounding residue in structurally zero positions, orders of
    magnitude below nil_tol * ||N||_2^(n-1); flushing it restores the exact
    block pattern (and makes structurally zero traces exactly zero) without
    touching a certified entry.  The flush takes the entries strictly below
    the threshold, so one that the threshold rounds up to (as
    nil_tol * ||N||_2 can for a subnormal ||N||_2) is kept.  It is settled on
    norm, the bracket of ||N||_2: the entries under the threshold are nested
    in it, so they are the same at both ends of the bracket exactly when
    their count is.  When the smallest entry (an argmin read of the finite
    |M|) is not below nil_tol * norm.hi^(n-1), the largest threshold the
    bracket allows, nothing is flushed anywhere in it and the count is not
    taken, as for the dimer's, the trimer's and a transformed block's top
    powers, which have no zero entry.  The flush keeps the first largest
    entry unless it zeroes every entry, and _rank_one_norm takes xi and the
    pair from that entry's row; the power of a full-order point has rank one.
    A flush that removes more than nil_tol of the kept norm,
    ||flushed part||_F > nil_tol * xi, took a certified entry and raises
    NumericalError; a power flushed to zero (xi = 0) is left to _detect.
    """
    dim = norm.m.shape[0]
    if top is None:
        top = _NormBracket(np.ones((1, 1), dtype=complex))
    power = top.m.copy() if top is norm else top.m
    mods = np.abs(power) if top.mods is None else top.mods
    try:
        empty = mods.item(mods.argmin()) >= nil_tol * _norm_power(norm.hi, dim - 1)
    except NumericalError:  # the largest threshold leaves the double range and rules nothing out
        empty = False
    flushed = 0 if empty else norm.settle(lambda b: np.count_nonzero(mods < nil_tol * _norm_power(b, dim - 1)))
    if flushed:
        flush = mods < nil_tol * _norm_power(norm.lo, dim - 1)
        power[flush] = 0.0
    power.setflags(write=False)
    xi, pair = _rank_one_norm(power, top.at)
    if flushed and xi > 0.0:
        x = mods[flush] / xi  # in units of xi a square overflows only far above the threshold
        if not x.dot(x) <= nil_tol * nil_tol:
            raise NumericalError(f"the flush of N^{dim - 1} removes more than nil_tol = {nil_tol:g} of its norm")
    return power, xi, pair


def _power_step(m: np.ndarray, mods: np.ndarray, at: int | None = None) -> tuple[float | None, float]:
    """(est, ||M||_F) of a finite M with mods = |M|, where est <= ||M||_2 <= ||M||_F.

    est = ||M^H v|| / ||v|| after one power step v = M r from r, the conjugate
    of the row holding the largest entry; any nonzero v gives a lower bound,
    and this one is close to ||M||_2 when one singular value dominates.  est
    is None for ||M||_F outside [1/_RANK_ONE_RANGE, _RANK_ONE_RANGE], as when
    a square overflows to inf inside the caller's _overflow_scope.  at, the
    flat index of the first largest entry of mods, is found unless given.
    """
    top, col = divmod(int(mods.argmax()) if at is None else at, m.shape[1])
    peak = mods.item(top, col)
    frob = cmatrix._frobenius_norm(m)
    if not 1.0 / _RANK_ONE_RANGE <= frob <= _RANK_ONE_RANGE:
        return None, frob
    v = m.dot(m[top].conj() / peak**2)  # scaled so that 1 <= ||v|| <= m.size
    w = v.conj().dot(m)  # the conjugate of M^H v
    return math.sqrt(np.vdot(w, w).real / np.vdot(v, v).real), frob


def _rank_one_norm(m: np.ndarray, at: int) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """(||M||_2, (u, y)) of a finite rank-one M = u y^H whose first largest entry has the flat index at.

    y is the conjugate of that entry's row over the row's norm, a math.hypot
    of its moduli so that no square over- or underflows (a zero M has y = 0),
    and u = M y.  As ||M y|| <= ||M||_2 <= ||M||_F for a unit y, ||M||_F
    inside the _RANK_ONE_RANGE window is returned without an SVD when
    ||M||_F - ||u|| <= _RANK_ONE_MARGIN * ||M||_F.  Otherwise one SVD decides,
    and NumericalError is raised where ||M||_2 and ||M||_F differ by > 1e-10 relative.
    """
    row = m[at // m.shape[1]]
    y = row.conj()
    y /= math.hypot(*np.abs(row).tolist()) or 1.0
    u = m.dot(y)
    frob = cmatrix._frobenius_norm(m)
    if 1.0 / _RANK_ONE_RANGE <= frob <= _RANK_ONE_RANGE and frob - cmatrix._frobenius_norm(u) <= _RANK_ONE_MARGIN * frob:
        return frob, (u, y)
    spec = cmatrix._spectral_norm(m)
    if abs(spec - frob) > 1e-10 * max(frob, _TINY):
        raise NumericalError(f"spectral ({spec:.15g}) and Frobenius ({frob:.15g}) norms of N^(n-1) disagree; "
                             "matrix is not numerically rank one")
    return spec, (u, y)


@dataclass(frozen=True)
class EpReport:
    """Result of exceptional point detection on a square Hamiltonian.

    order is the nilpotency index of the traceless part (None when the
    spectrum is non-degenerate).  response_strength is only defined for
    full-order points (order == dim); partial is True otherwise.  top_power
    is the certified N^(dim-1) with its rounding residue flushed to zero,
    whose norm is the response strength; it is None unless the point has
    full order.  detect_ep's top_power is the power its power test examined,
    the left-to-right product N N ... N; a composite's, from the block
    theorem, is [[0, 0], [C, 0]].  compose and jordan_chain read its private
    pair _pair = (u, y), top_power = u y^H with unit y, taken as it is certified.

    nilpotent_norm, ||N||_2 of the traceless part N, is computed on first
    read and kept.  The thresholds that scale with it (the power tests, the
    flush and jordan_chain's residual budget) are settled on the staged
    bracket of it that the report carries (see _NormBracket), so a report
    takes at most one SVD of N.
    """

    dim: int
    order: int | None
    ep_eigenvalue: complex
    nilpotent: np.ndarray
    response_strength: float | None
    nil_tol: float
    top_power: np.ndarray | None
    _bracket: InitVar[_NormBracket | None] = None
    _factors: InitVar[tuple[np.ndarray, np.ndarray] | None] = None

    def __post_init__(self, _bracket, _factors):
        self.nilpotent.setflags(write=False)
        if _bracket is not None:  # each kept apart from its InitVar, so that dataclasses.replace starts afresh
            object.__setattr__(self, "_norm", _bracket)
        if _factors is not None:
            object.__setattr__(self, "_pair", _factors)

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, y) of a report made without them, as by dataclasses.replace: _rank_one_norm's pair of top_power."""
        return _rank_one_norm(self.top_power, int(np.abs(self.top_power).argmax()))[1]

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
    N^(n-1) has norm 0, or whose flush removes more than nil_tol of the kept
    norm, raises NumericalError: the power test and the flush then disagree,
    and no response strength can be certified.
    """
    h = cmatrix.as_square(h, "H")
    with _overflow_scope():
        return _detect(h, nil_tol)


def _detect(h: np.ndarray, nil_tol: float | None) -> EpReport:
    """detect_ep of a validated square H, inside the caller's _overflow_scope."""
    ep_eigenvalue, nmat = _traceless_part(h)
    dim = nmat.shape[0]
    nil_tol = default_nil_tol(dim) if nil_tol is None else cmatrix._as_number("nil_tol", nil_tol)
    order, norm, top = _nilpotency(nmat, nil_tol)
    power, xi, pair = _top_power(top, nil_tol, norm) if order == dim else (None, None, None)
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
        nil_tol=nil_tol,
        top_power=power,
        _bracket=norm,
        _factors=pair,
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
    energy = cmatrix._as_number("energy", energy, complex)
    if not cmath.isfinite(energy):
        raise ParameterError(f"energy must be finite, got {energy}")
    delta = energy - report.ep_eigenvalue
    if delta == 0:
        raise PoleError("energy coincides with the degenerate eigenvalue")
    dim = report.dim
    g = np.zeros((dim, dim), dtype=complex)
    with _overflow_scope():  # a non-finite entry raises NumericalError below
        term = np.eye(dim, dtype=complex) / delta
        for _ in range(report.order):
            g += term
            term = term.dot(report.nilpotent) / delta
    if not cmatrix._all_finite(g):
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
    1e-10 relative, otherwise a NumericalError is raised; so is a radicand
    that leaves the double range.  A non-finite eps raises ParameterError.
    """
    if not report.is_full_ep:
        raise PreconditionError(
            f"splitting prediction requires a full-order exceptional point; detected order {report.order}"
        )
    h1 = cmatrix.as_square(h1, "H1")
    if h1.shape[0] != report.dim:
        raise ShapeError(f"H1 has dimension {h1.shape[0]}, expected {report.dim}")
    eps = cmatrix._as_number("eps", eps)
    if not math.isfinite(eps):
        raise ParameterError(f"eps must be finite, got {eps}")
    with _overflow_scope():  # an H1 large enough to overflow the radicand raises NumericalError below
        n = report.dim
        power = report.top_power
        product = power.dot(h1)
        trace_form = complex(np.trace(product))
        if n == 1:
            sandwich_form = trace_form
        else:
            psi = cmatrix.kernel_vector(report.nilpotent)
            sandwich_form = complex(np.vdot(psi, product.dot(psi)))
        scale = max(cmatrix.frobenius_norm(power) * cmatrix.frobenius_norm(h1), _TINY)
        if abs(trace_form - sandwich_form) > 1e-10 * scale:
            raise NumericalError(
                f"trace ({trace_form:.6e}) and eigenstate ({sandwich_form:.6e}) forms of the radicand disagree"
            )
        radicand = eps * trace_form
        if not cmath.isfinite(radicand):
            raise NumericalError(f"the radicand eps * tr(N^(n-1) H1) overflows a double at eps={eps:g}")
        if radicand == 0:
            roots = np.full(n, report.ep_eigenvalue, dtype=complex)
        else:
            principal = radicand ** (1.0 / n)
            unity = np.exp(2j * np.pi * np.arange(n) / n)
            roots = report.ep_eigenvalue + principal * unity
    return SplittingPrediction(n=n, radicand=radicand, predicted_eigenvalues=roots)
