"""Tests for exceptional point detection and spectral response."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import helpers
from epkit import cmatrix, compose, ep_core, jordan
from epkit.errors import (
    NumericalError,
    ParameterError,
    PoleError,
    PreconditionError,
    ShapeError,
)
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer
from epkit.perturb import random_preserving

XI_5 = np.sqrt(8.0) * 1.5 * 1.69  # closed form for the default 5x5 example


def jordan_block(dim, eigenvalue=0.0):
    return eigenvalue * np.eye(dim, dtype=complex) + np.diag(np.ones(dim - 1, dtype=complex), 1)


@pytest.fixture(scope="module")
def system5():
    return dimer_trimer_system(1.0, 1.5, 1.3, 1.0)


@pytest.fixture(scope="module")
def report5(system5):
    return ep_core.detect_ep(system5.h)


# ---------------------------------------------------------------------------
# traceless part

def test_traceless_multiple_of_identity():
    ev, n = ep_core.traceless_part(5.0 * np.eye(3))
    assert ev == 5.0
    assert np.array_equal(n, np.zeros((3, 3)))


def test_traceless_dimer():
    ev, n = ep_core.traceless_part(pt_dimer(1.0, 1.5))
    assert ev == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(n, [[1.5j, 1.5], [1.5, -1.5j]], atol=1e-15)


def test_traceless_composite_blocks(system5):
    ev, n = ep_core.traceless_part(system5.h)
    assert ev == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(n, system5.h - np.eye(5), atol=1e-14)
    assert np.array_equal(n[:2, 2:], np.zeros((2, 3)))


@pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed", "read_only"])
def test_traceless_part_shifts_only_the_diagonal_in_any_layout(layout):
    # N is a C-ordered copy of H with the mean taken off its diagonal: the values of H - mean * I, H left
    # as it was, and a -0.0 off the diagonal kept as -0.0, where subtracting (-0.25 - 0.5j) * 0 made it +0.0
    base = helpers.complex_uniform(helpers.philox(3), (12, 12)) - (0.25 + 0.5j)
    h = {"C": base[:6, :6].copy(), "F": np.asfortranarray(base[:6, :6]), "strided": base[::2, ::2],
         "reversed": base[::-2, ::-2], "read_only": base[:6, :6].copy()}[layout]
    h[0, 1] = complex(-0.0, -0.0)
    h.setflags(write=layout != "read_only")
    before = h.copy()
    mean, n = ep_core.traceless_part(h)
    assert mean == complex(h.trace()) / 6
    np.testing.assert_array_equal(n, h - mean * np.eye(6))
    off = ~np.eye(6, dtype=bool)
    assert n[off].tobytes() == h[off].tobytes()
    assert np.signbit(n[0, 1].real) and np.signbit(n[0, 1].imag)
    assert n.flags.c_contiguous
    assert np.array_equal(h, before) and not np.shares_memory(n, h)


def test_traceless_residual_trace():
    rng = helpers.philox(31)
    for _ in range(20):
        h = helpers.complex_uniform(rng, (6, 6)) * 10
        _, n = ep_core.traceless_part(h)
        assert abs(np.trace(n)) <= 1e-12 * cmatrix.frobenius_norm(h)


def test_traceless_requires_square():
    with pytest.raises(ShapeError):
        ep_core.traceless_part(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# nilpotency index

@pytest.mark.parametrize(
    "matrix,expected",
    [
        (jordan_block(3), 3),
        (np.zeros((3, 3)), 1),
        (np.zeros((1, 1)), 1),
        (np.diag([0.0, 1.0]), None),
    ],
)
def test_nilpotency_index_cases(matrix, expected):
    assert ep_core.nilpotency_index(matrix) == expected


def test_nilpotency_index_dimer():
    _, n = ep_core.traceless_part(pt_dimer(1.0, 1.5))
    assert ep_core.nilpotency_index(n) == 2


def test_nilpotency_index_composite(system5):
    _, n = ep_core.traceless_part(system5.h)
    assert ep_core.nilpotency_index(n) == 5


@pytest.mark.parametrize("matrix", [[[0.0, 5e-324], [0.0, 0.0]], [[0.0, 1e-322], [0.0, 0.0]]])
def test_only_the_zero_matrix_has_index_one(matrix):
    # 0.99 * ||N||_2 rounds up to a subnormal ||N||_2, which once passed the k = 1 test
    assert ep_core.nilpotency_index(matrix, 0.99) == 2


@pytest.mark.parametrize("entry, nil_tol", [(5e-324, 0.74), (5e-324, 0.75), (1e-323, 0.75), (2e-323, 0.99),
                                            (5e-324, 0.5)])
@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
def test_subnormal_nilpotent_reports_order_two_with_its_entry(entry, nil_tol, lower):
    # from nil_tol = 0.74 up, nil_tol * ||N||_2 rounds up to the entry itself (at 0.5 it rounds down to 0); the
    # flush takes only entries strictly below it, where it once took the entry and raised "N^1 is flushed to zero"
    n = np.array([[0.0, 0.0], [entry, 0.0]]) if lower else np.array([[0.0, entry], [0.0, 0.0]])
    report = ep_core.detect_ep(n, nil_tol)
    assert report.order == 2
    assert report.response_strength == entry
    assert report.top_power.tobytes() == n.astype(complex).tobytes()


def test_nilpotency_index_threshold_is_scale_aware():
    n = jordan_block(3) * 1e6
    assert ep_core.nilpotency_index(n) == 3
    assert ep_core.nilpotency_index(n * 1e-9) == 3


def test_nilpotency_rejects_bad_tol():
    with pytest.raises(ParameterError):
        ep_core.nilpotency_index(np.zeros((2, 2)), nil_tol=-1.0)


@pytest.mark.parametrize("nil_tol", [np.nan, np.inf])
@pytest.mark.parametrize("certify", [ep_core.nilpotency_index, ep_core.detect_ep], ids=["index", "detect"])
def test_non_finite_nil_tol_rejected(certify, nil_tol):
    for matrix in (np.zeros((3, 3)), jordan_block(3)):
        with pytest.raises(ParameterError, match="nil_tol"):
            certify(matrix, nil_tol)


@pytest.mark.parametrize("certify", [ep_core.nilpotency_index, ep_core.detect_ep], ids=["index", "detect"])
def test_nil_tol_is_read_as_a_float(certify):
    matrix = jordan_block(3)
    got, want = certify(matrix, "1e-9"), certify(matrix, 1e-9)
    if certify is ep_core.detect_ep:
        got, want = (got.order, got.nil_tol), (want.order, want.nil_tol)
    assert got == want
    for nil_tol in ("x", [1e-9]):
        with pytest.raises(ParameterError, match="nil_tol"):
            certify(matrix, nil_tol)


@pytest.mark.parametrize("nil_tol", [1.0, 1.5, 1e10])
@pytest.mark.parametrize("certify", [ep_core.nilpotency_index, ep_core.detect_ep], ids=["index", "detect"])
def test_nil_tol_of_one_or_more_rejected(certify, nil_tol):
    # at nil_tol >= 1 the k = 1 test ||N||_2 <= nil_tol * ||N||_2 holds for every N: a
    # diagonal matrix of three distinct eigenvalues was reported as order 1
    with pytest.raises(ParameterError, match="nil_tol"):
        certify(np.diag([1.0, 5.0, 9.0]), nil_tol)


@st.composite
def power_and_bound(draw):
    """A square P (dense, sparse or zero; entries near 1, 1e+-150 or subnormal) and a bound.

    Bounds fall within 1% of ||P||_2, on a ratio of ||P||_2, on an absolute scale, or are inf or nan.
    """
    dim = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    entries = np.array(draw(st.lists(st.builds(complex, unit, unit), min_size=dim * dim, max_size=dim * dim)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)))
    scale = draw(st.sampled_from([0.0, 1.0, 1e150, 1e-150, 1e-310]))
    p = (scale * np.where(mask, entries, 0.0)).reshape(dim, dim)
    norm = cmatrix.spectral_norm(p)
    bound = draw(
        st.floats(0.99, 1.01).map(lambda f: f * norm)
        | st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 1.0 / dim, 0.5 / dim, 4.0 * dim]).map(lambda f: f * norm)
        | st.floats(0.0, 1e300)
        | st.floats(0.0, 1e-300)
        | st.sampled_from([np.inf, np.nan])
    )
    return p, bound


@settings(deadline=None, max_examples=300)
@given(power_and_bound())
def test_norm_at_most_matches_spectral_norm(case):
    p, bound = case
    assert helpers.norm_at_most(p, bound) == (cmatrix.spectral_norm(p) <= bound)


@pytest.mark.parametrize("entry", [np.inf, np.nan, complex(1.0, -np.inf)])
def test_norm_at_most_non_finite_power_raises_numerical_error(entry):
    # a power that left the double range is a numerical failure, not invalid input
    p = np.eye(3, dtype=complex)
    p[1, 2] = entry
    with pytest.raises(NumericalError, match="overflows"):
        helpers.norm_at_most(p, 1.0)


def _unit_complex(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape)) * (0.1 + rng.random(shape))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(-100, 100), st.integers(0, 2**32 - 1))
def test_rank_one_norm_matches_svd_without_one(rows, cols, exponent, seed):
    rng = helpers.philox(seed)
    m = 10.0**exponent * np.outer(_unit_complex(rng, rows), _unit_complex(rng, cols))
    expected = float(np.linalg.svd(m, compute_uv=False)[0])
    with pytest.MonkeyPatch.context() as mp:
        counts = helpers.count_linalg(mp, "svd")
        norm = ep_core._rank_one_norm(m, int(np.abs(m).argmax()))[0]
    assert counts == {"svd": 0}
    assert abs(norm - expected) <= 1e-13 * expected


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 20), st.floats(-7.0, -3.0), st.integers(-100, 100), st.integers(0, 2**32 - 1))
def test_rank_one_norm_rejects_rank_two_as_the_svd_check_does(dim, log_ratio, exponent, seed):
    # sigma_2 / sigma_1 in [1e-7, 1e-3] straddles the edge of the 1e-10 check near 1.4e-5
    rng = helpers.philox(seed)
    u, _ = np.linalg.qr(helpers.complex_uniform(rng, (dim, 2)))
    v, _ = np.linalg.qr(helpers.complex_uniform(rng, (dim, 2)))
    m = 10.0**exponent * (np.outer(u[:, 0], v[:, 0].conj()) + 10.0**log_ratio * np.outer(u[:, 1], v[:, 1].conj()))
    if helpers.rank_one_svd_rejects(m):
        with pytest.raises(NumericalError, match="not numerically rank one"):
            ep_core._rank_one_norm(m, int(np.abs(m).argmax()))
    else:
        ep_core._rank_one_norm(m, int(np.abs(m).argmax()))


def _dominated(rng, rows, cols, tail):
    """A rank-one rows x cols matrix plus a uniform tail of relative size `tail`.

    The smaller the tail, the narrower the power-step bracket [est, ||M||_F].
    """
    rank_one = np.outer(_unit_complex(rng, rows), _unit_complex(rng, cols))
    return rank_one + tail * helpers.complex_uniform(rng, (rows, cols))


_TAILS = [0.0, 1e-12, 1e-8, 1e-4, 0.1, 1.0]
#: 1e+-140 sit inside the power-step window, 1e+-149 and 1e+-151 straddle its edges, 1e+-155 lie outside
_SCALES = [1.0, 1e140, 1e-140, 1e149, 1e-149, 1e151, 1e-151, 1e155, 1e-155]
_NEAR = [1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-12, 1.0 + 1e-12, 1.0]


def _anchor(m, which):
    """||M||_2, the power-step lower bound est (||M||_2 outside its window) or ||M||_F."""
    with ep_core._overflow_scope():  # _power_step runs inside its caller's scope, as in epkit
        est, frob = ep_core._power_step(m, np.abs(m))
    if which == "frobenius":
        return frob
    return est if which == "est" and est is not None else cmatrix.spectral_norm(m)


@st.composite
def power_near_bracket_edges(draw):
    """A square P of dim 1-40 and a bound within 1e-6 relative of ||P||_2, of est or of ||P||_F.

    P is a dominated matrix (see _dominated) or a power of a transformed Jordan block, scaled into,
    across the edges of, or out of the power-step window.
    """
    dim = draw(st.integers(1, 40))
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p = _dominated(rng, dim, dim, draw(st.sampled_from(_TAILS)))
    else:
        _, nmat = ep_core.traceless_part(helpers.transformed_jordan_block(rng, dim))
        p = np.linalg.matrix_power(nmat, draw(st.integers(1, dim)))
    p = draw(st.sampled_from(_SCALES)) * p
    return p, draw(st.sampled_from(_NEAR)) * _anchor(p, draw(st.sampled_from(["spectral", "est", "frobenius"])))


@settings(deadline=None, max_examples=300)
@given(power_near_bracket_edges())
def test_norm_at_most_near_the_power_step_bracket_matches_spectral_norm(case):
    p, bound = case
    assert helpers.norm_at_most(p, bound) == (cmatrix.spectral_norm(p) <= bound)


@st.composite
def singular_value_profiles(draw):
    """A complex dim x dim U diag(s) V^H, dims 1-40, with s rank one, rank deficient, clustered or graded.

    It is scaled by 10**e, e in [-140, 140] with the edges of the Gram stage's window (1e+-75) drawn
    often, or so that its largest entry is subnormal.
    """
    dim = draw(st.integers(1, 40))
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    profile = draw(st.sampled_from(["rank_one", "deficient", "clustered", "graded"]))
    if profile == "rank_one":
        s = np.zeros(dim)
        s[0] = 1.0
    elif profile == "deficient":
        s = rng.uniform(0.1, 1.0, dim)
        s[draw(st.integers(1, dim)):] = 0.0
    elif profile == "clustered":
        s = 1.0 - draw(st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2])) * rng.random(dim)
    else:
        s = draw(st.sampled_from([0.1, 0.5, 0.9, 0.99])) ** np.arange(dim)
    u, _ = np.linalg.qr(helpers.complex_uniform(rng, (dim, dim)))
    v, _ = np.linalg.qr(helpers.complex_uniform(rng, (dim, dim)))
    m = (u * s) @ v.conj().T
    if draw(st.booleans()):
        exponent = draw(st.sampled_from([-76, -75, -74, 74, 75, 76]))
    else:
        exponent = draw(st.integers(-140, 140))
    if draw(st.integers(0, 9)) == 0:
        return m * (1e-310 / np.abs(m).max())  # a subnormal peak
    return m * 10.0**exponent


@settings(deadline=None, max_examples=300)
@given(singular_value_profiles(), st.floats(0.0, 1.0), st.sampled_from(_NEAR))
def test_gram_stage_holds_the_spectral_norm(m, t, near):
    bracket = ep_core._NormBracket(m)
    with ep_core._overflow_scope():  # narrow runs inside its caller's scope, as in epkit
        while bracket.stage < 3:
            bracket.narrow()
        # the upper end of the Gram stage; a square of M^H M may overflow to inf outside its window
        gram_end = (1.0 + ep_core._BRACKET_SLACK) * np.sqrt(cmatrix.frobenius_norm(m.conj().T @ m))
    norm, frob = cmatrix.spectral_norm(m), cmatrix.frobenius_norm(m)
    assert bracket.lo <= norm <= bracket.hi
    bounds = [near * norm, near * gram_end]
    if 0.0 < gram_end < frob:  # a bound between the Gram end and ||M||_F, which the power step leaves open
        bounds.append(gram_end * (frob / gram_end) ** t)
    for bound in bounds:
        assert helpers.norm_at_most(m, bound) == (norm <= bound)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 40), st.integers(1, 40), st.sampled_from(_TAILS), st.sampled_from(_SCALES),
       st.sampled_from(["spectral", "est", "frobenius"]), st.sampled_from(_NEAR), st.integers(0, 2**32 - 1))
def test_by_norm_bracket_on_couplings_matches_spectral_norm(rows, cols, tail, scale, which, near, seed):
    # the shape of compose's coupling checks: a value against a threshold non-decreasing in ||K||_2
    k = scale * _dominated(helpers.philox(seed), rows, cols, tail)
    value = near * _anchor(k, which)
    assert helpers.by_norm_bracket(k, lambda norm: value > norm) == (value > cmatrix.spectral_norm(k))


def test_norm_at_most_settles_a_dominant_singular_value_without_an_svd(monkeypatch):
    # a bound 1e-6 off ||P||_2 lies inside the peak bracket [peak, 30 * peak] but outside [est, ||P||_F]
    p = _dominated(helpers.philox(29), 30, 30, 1e-9)
    norm = cmatrix.spectral_norm(p)
    counts = helpers.count_linalg(monkeypatch, "svd")
    assert helpers.norm_at_most(p, (1.0 + 1e-6) * norm)
    assert not helpers.norm_at_most(p, (1.0 - 1e-6) * norm)
    assert counts == {"svd": 0}


def _svd_order(h):
    """detect_ep's order with every power test decided by an SVD of the power."""
    _, nmat = ep_core.traceless_part(h)
    dim = nmat.shape[0]
    bound, base = ep_core.default_nil_tol(dim), cmatrix.spectral_norm(nmat)
    power = nmat
    for k in range(1, dim + 1):
        if k > 1:
            power = power @ nmat
        if cmatrix.spectral_norm(power) <= bound * base**k:
            return k
    return None


@pytest.mark.parametrize("dim", [10, 20, 30, 40, 60, 80])
def test_detect_ep_on_large_jordan_blocks_takes_about_one_svd(monkeypatch, dim):
    # the SVD of N for ||N||_2; the power-step bracket settles almost every power test the
    # peak bracket leaves open, and the orders stay those of an SVD per power
    rng = helpers.philox(dim)
    hams = [helpers.transformed_jordan_block(rng, dim) for _ in range(20)]
    expected = [_svd_order(h) for h in hams]
    counts = helpers.count_linalg(monkeypatch, "svd")
    assert [ep_core.detect_ep(h).order for h in hams] == expected
    assert counts["svd"] <= 1.1 * len(hams)


def test_detect_ep_and_jordan_chain_on_a_chain_of_six_dimers_take_no_svd(monkeypatch):
    # the 12 x 12 composite that CI analyzes: the Gram stage settles every power test the power step leaves open
    rng = helpers.philox(12)
    h = compose.compose_many(
        [pt_dimer(1.0, 1.0 + 0.1 * j) for j in range(6)], [helpers.complex_uniform(rng, (2, 2 * j)) for j in range(1, 6)]
    ).h
    counts = helpers.count_linalg(monkeypatch, "svd")
    report = ep_core.detect_ep(h)
    jordan.jordan_chain(report)
    assert report.order == 12
    assert counts == {"svd": 0}


@pytest.mark.parametrize("dim, most", [(20, 0.5), (30, 0.3), (40, 0.2)])
def test_detect_ep_on_transformed_jordan_blocks_rarely_takes_an_svd(monkeypatch, dim, most):
    # an SVD of N is left only where the Gram end sqrt(||N^H N||_F) does not settle the deciding power test
    hams = [helpers.transformed_jordan_block(helpers.philox(seed), dim) for seed in range(20)]
    counts = helpers.count_linalg(monkeypatch, "svd")
    for h in hams:
        ep_core.detect_ep(h)
    assert counts["svd"] <= most * len(hams)


def _index_family(family):
    """Traceless parts of seeded test matrices: transformed Jordan blocks, direct sums of two, or random."""
    rng = helpers.philox(61)
    if family == "block":
        hams = [helpers.transformed_jordan_block(rng, dim) for dim in (2, 3, 4, 5, 8, 10, 13, 16, 20, 25, 30, 40)]
    elif family == "sum":
        pairs = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 4), (6, 3), (5, 8), (10, 6), (12, 12)]
        hams = [
            block_diag(helpers.transformed_jordan_block(rng, p), helpers.transformed_jordan_block(rng, q))
            for p, q in pairs
        ]
    else:
        hams = [helpers.complex_uniform(rng, (dim, dim)) for dim in (1, 2, 3, 5, 8, 13, 20)]
    return [ep_core.traceless_part(h)[1] for h in hams]


@pytest.mark.parametrize("nil_tol", [1e-14, None, 1e-6, 1e-2])
@pytest.mark.parametrize("family", ["block", "sum", "random"])
def test_nilpotency_index_matches_one_svd_per_power(family, nil_tol):
    for n in _index_family(family):
        tol = ep_core.default_nil_tol(n.shape[0]) if nil_tol is None else nil_tol
        assert ep_core.nilpotency_index(n, nil_tol) == helpers.reference_nilpotency_index(n, tol)


def test_nilpotency_overflowing_power_raises_numerical_error():
    # N^2 overflows, and so does ||N||^2: a finite input whose powers leave the double range
    n = 1e200 * helpers.complex_uniform(helpers.philox(5), (3, 3))
    with pytest.raises(NumericalError, match="overflows"):
        ep_core.nilpotency_index(n)


def test_nilpotency_overflowing_norm_raises_numerical_error():
    # every entry is finite but ||N||_2 is not; the bound inf * nil_tol used to certify order 1
    n = 1e308 * np.array([[1, 1, 1], [1, -1, 1], [1, 1, 0]], dtype=complex)
    assert not np.isfinite(np.linalg.svd(n, compute_uv=False)[0])
    with pytest.raises(NumericalError, match="overflows"):
        ep_core.nilpotency_index(n)
    with pytest.raises(NumericalError, match="overflows"):
        ep_core.detect_ep(n)


def _scaled_exponents(dim):
    """Decades e with 10**e * N keeping ||N||_2^dim inside the double range: +-150 at dim 2, +-7 at dim 40."""
    bound = 300 // (dim + 1) if dim > 2 else 150
    return st.integers(-bound, bound)


@st.composite
def nilpotent_inputs(draw):
    """The traceless part of a transformed Jordan block of dim 2-40 or of J_p + J_q, scaled by 10**e.

    The scales reach 1e+-150 where the dimension allows and carry the powers of N across the
    [1e-150, 1e150] window of the power-step bracket.
    """
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        h = helpers.transformed_jordan_block(rng, draw(st.integers(2, 40)))
    else:
        p, q = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        h = block_diag(helpers.transformed_jordan_block(rng, p), helpers.transformed_jordan_block(rng, q))
    _, n = ep_core.traceless_part(h)
    n = 10.0 ** draw(_scaled_exponents(n.shape[0])) * n
    try:  # the exact-norm references take ||N||_2^dim as a Python float
        in_range = cmatrix.spectral_norm(n) ** n.shape[0] < 1e300
    except OverflowError:
        in_range = False
    assume(in_range)
    return n


@st.composite
def placed_nil_tols(draw, ratios):
    """None (default_nil_tol), or a ratio from `ratios` times a factor within 1e-6 of 1.

    The ratios are the quantities a test compares with nil_tol, so the test then falls inside every bracket.
    """
    near = draw(st.sampled_from([None, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-6, 1.0 + 1e-6]))
    if near is None or not ratios:
        return None
    nil_tol = near * draw(st.sampled_from(ratios))
    assume(0.0 < nil_tol < 1.0)
    return nil_tol


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_nilpotency_index_matches_the_exact_norm_reference(data):
    # the order from the staged brackets of ||N||_2 and ||N^k||_2 is the order one SVD per power gives,
    # also where nil_tol puts a power test right at ||N^k||_2 / ||N||_2^k
    n = data.draw(nilpotent_inputs())
    base, power, ratios = cmatrix.spectral_norm(n), n, []
    for k in range(2, n.shape[0] + 1):
        power = power @ n
        if base**k > 0.0:
            ratios.append(cmatrix.spectral_norm(power) / base**k)
    nil_tol = data.draw(placed_nil_tols([r for r in ratios if r > 0.0]))
    tol = ep_core.default_nil_tol(n.shape[0]) if nil_tol is None else nil_tol
    assert ep_core.nilpotency_index(n, nil_tol) == helpers.reference_nilpotency_index(n, tol)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_top_power_flush_matches_the_exact_norm_reference(data):
    # the flushed N^(n-1) is byte for byte the one whose entries strictly below nil_tol * spectral_norm(N)^(n-1)
    # are flushed, also where nil_tol puts the threshold on an entry, which is then kept
    n = data.draw(nilpotent_inputs())
    dim = n.shape[0]
    power = helpers.left_power(n, dim - 1)
    scale = cmatrix.spectral_norm(n) ** (dim - 1)
    entries = np.abs(power[power != 0]) / scale
    nil_tol = data.draw(placed_nil_tols(sorted(set(entries.tolist()))))
    nil_tol = ep_core.default_nil_tol(dim) if nil_tol is None else nil_tol
    mods = np.abs(power)
    flush = mods < nil_tol * scale
    power[flush] = 0.0
    try:
        with ep_core._overflow_scope():  # _top_power runs inside its caller's scope, as in epkit
            flushed, _, _ = ep_core._top_power(ep_core._NormBracket(helpers.left_power(n, dim - 1)), nil_tol,
                                               ep_core._NormBracket(n))
    except NumericalError:  # the reference flush fails the rank-one check or removes more than nil_tol of xi
        with ep_core._overflow_scope():
            try:
                xi = ep_core._rank_one_norm(power, int(np.abs(power).argmax()))[0]
            except NumericalError as exc:
                assert "rank one" in str(exc)
            else:
                x = mods[flush] / xi
                assert xi > 0.0 and not x.dot(x) <= nil_tol * nil_tol
    else:
        assert flushed.tobytes() == power.tobytes()


@pytest.mark.parametrize("h", [pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), dimer_trimer_system().h],
                         ids=["dimer", "trimer", "composite"])
def test_nilpotent_norm_is_read_on_demand_with_one_svd(monkeypatch, h):
    report = ep_core.detect_ep(h)
    counts = helpers.count_linalg(monkeypatch, "svd")
    first, second = report.nilpotent_norm, report.nilpotent_norm
    assert counts == {"svd": 1}
    assert first.hex() == second.hex() == cmatrix.spectral_norm(report.nilpotent).hex()


def test_replaced_report_reads_the_norm_of_its_own_nilpotent():
    report = ep_core.detect_ep(pt_trimer(1.0, 1.3))
    report.nilpotent_norm  # the original's bracket is exact now, and must not pass to the copy
    doubled = dataclasses.replace(report, nilpotent=2.0 * report.nilpotent)
    assert doubled.nilpotent_norm == cmatrix.spectral_norm(2.0 * report.nilpotent)


# ---------------------------------------------------------------------------
# detection

def test_full_order_verdict_with_a_flushed_top_power_raises_numerical_error():
    # the power test passes this non-normal dim-15 block at full order while the flush zeroes the whole
    # of N^14; no report may carry order 15 with response strength 0
    with pytest.raises(NumericalError, match="flushed to zero"):
        ep_core.detect_ep(helpers.transformed_jordan_block(helpers.philox(1), 15))


def test_full_order_verdict_with_a_partly_flushed_top_power_raises_numerical_error():
    # the flush keeps a rank-one remnant of this dim-13 block's N^12, whose norm 1.0100 is not the 1.6860 of
    # the construction; the entries flushed away hold far more than nil_tol of it
    with pytest.raises(NumericalError, match="removes more than nil_tol"):
        ep_core.detect_ep(helpers.transformed_jordan_block(helpers.philox(2), 13))


def test_detect_ep_shifted_jordan_block():
    report = ep_core.detect_ep(jordan_block(3, eigenvalue=2.0))
    assert report.order == 3
    assert report.ep_eigenvalue == pytest.approx(2.0, abs=1e-14)
    assert report.response_strength == pytest.approx(1.0, rel=1e-12)
    assert not report.partial


def test_detect_ep_trimer():
    report = ep_core.detect_ep(pt_trimer(1.0, 1.3))
    assert report.order == 3
    assert report.ep_eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert report.response_strength == pytest.approx(6.76, rel=1e-12)


def test_detect_ep_distinct_eigenvalues():
    report = ep_core.detect_ep(np.diag([0.0, 1.0]))
    assert report.order is None
    assert report.partial
    assert report.response_strength is None


def test_detect_ep_lower_order_is_partial():
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = 1.0  # index-2 nilpotent inside a 3-dimensional space
    report = ep_core.detect_ep(h)
    assert report.order == 2 and report.partial
    assert report.response_strength is None


def test_detect_ep_zero_matrix_not_full_order():
    report = ep_core.detect_ep(np.zeros((2, 2)))
    assert report.order == 1 and report.partial


@pytest.mark.parametrize(
    "h", [pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), dimer_trimer_system().h], ids=["dimer", "trimer", "composite"]
)
def test_detect_ep_takes_one_svd(monkeypatch, h):
    # none: every power test and the flush are settled by the largest entries of N and
    # its powers, and the top power is certified rank one by a power step
    counts = helpers.count_linalg(monkeypatch, "svd")
    assert ep_core.detect_ep(h).is_full_ep
    assert counts == {"svd": 0}


@pytest.mark.parametrize(
    "h",
    [dimer_trimer_system().h, helpers.transformed_jordan_block(helpers.philox(11), 7, 0.5 - 0.25j),
     np.ones((3, 3), dtype=complex)],
    ids=["composite", "jordan7", "distinct"],
)
def test_detect_ep_on_transposed_view_matches_contiguous_copy(h):
    view = np.asarray(h).T  # last axis not contiguous
    assert not view.flags.c_contiguous
    assert repr(ep_core.detect_ep(view)) == repr(ep_core.detect_ep(np.ascontiguousarray(view)))


def test_detect_ep_certifies_nilpotency_bound(report5):
    n = np.asarray(report5.nilpotent)
    base = cmatrix.spectral_norm(n)
    assert cmatrix.spectral_norm(np.linalg.matrix_power(n, 5)) <= report5.nil_tol * base**5
    assert cmatrix.spectral_norm(np.linalg.matrix_power(n, 4)) > report5.nil_tol * base**4


def test_detection_biconditional_random_blocks():
    rng = helpers.philox(37)
    for dim in range(2, 9):
        for _ in range(5):
            ev = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            h = helpers.transformed_jordan_block(rng, dim, eigenvalue=ev)
            report = ep_core.detect_ep(h)
            assert report.order == dim
            assert abs(report.ep_eigenvalue - ev) <= 1e-9


def test_detection_rejects_distinct_spectra():
    rng = helpers.philox(41)
    for dim in (2, 4, 6):
        for _ in range(5):
            h = helpers.random_distinct_spectrum(rng, dim)
            assert ep_core.detect_ep(h).order != dim


def test_report_json():
    payload = ep_core.detect_ep(pt_trimer(1.0, 1.3)).to_json()
    assert payload["dim"] == 3 and payload["order"] == 3
    assert payload["partial"] is False
    assert payload["ep_eigenvalue"] == [1.0, 0.0]
    assert payload["response_strength"] == pytest.approx(6.76, rel=1e-12)


# ---------------------------------------------------------------------------
# response strength

def test_response_strength_dimer():
    assert ep_core.response_strength(pt_dimer(1.0, 1.5)) == pytest.approx(3.0, rel=1e-10)


def test_response_strength_trimer():
    assert ep_core.response_strength(pt_trimer(1.0, 1.3)) == pytest.approx(6.76, rel=1e-10)


def test_response_strength_composite(system5):
    assert ep_core.response_strength(system5.h) == pytest.approx(XI_5, rel=1e-10)


def test_response_strength_requires_full_order():
    with pytest.raises(PreconditionError):
        ep_core.response_strength(np.diag([0.0, 1.0]))
    with pytest.raises(PreconditionError):
        ep_core.response_strength(np.zeros((2, 2)))


def test_norm_equality_at_full_order():
    rng = helpers.philox(43)
    for dim in (3, 5, 7):
        n = helpers.transformed_jordan_block(rng, dim)
        power = np.linalg.matrix_power(n, dim - 1)
        spec = cmatrix.spectral_norm(power)
        frob = cmatrix.frobenius_norm(power)
        assert abs(spec - frob) <= 1e-10 * frob
        assert ep_core.response_strength(n) == pytest.approx(spec, rel=1e-10)


# ---------------------------------------------------------------------------
# Green's function

def test_greens_function_scalar():
    report = ep_core.detect_ep(np.array([[2.5]], dtype=complex))
    g = ep_core.greens_function(report, 3.5)
    assert np.allclose(g, [[1.0]], atol=1e-15)


def test_greens_function_dimer_unit_offset():
    report = ep_core.detect_ep(pt_dimer(1.0, 1.5))
    g = ep_core.greens_function(report, report.ep_eigenvalue + 1.0)
    assert np.allclose(g, np.eye(2) + report.nilpotent, atol=1e-14)


def test_greens_function_residual_composite(system5, report5):
    rng = helpers.philox(47)
    for _ in range(10):
        offset = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
        energy = report5.ep_eigenvalue + offset
        g = ep_core.greens_function(report5, energy)
        residual = np.linalg.norm((energy * np.eye(5) - system5.h) @ g - np.eye(5))
        assert residual <= 1e-8
        # independent route: direct dense inversion
        assert np.allclose(g, np.linalg.inv(energy * np.eye(5) - system5.h), atol=1e-7)


def test_greens_function_pole(report5):
    with pytest.raises(PoleError):
        ep_core.greens_function(report5, report5.ep_eigenvalue)


def test_greens_function_needs_nilpotent():
    report = ep_core.detect_ep(np.diag([0.0, 1.0]))
    with pytest.raises(PreconditionError):
        ep_core.greens_function(report, 5.0)


@pytest.mark.parametrize("energy", [np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0)],
                         ids=["nan", "inf", "nan_imaginary", "minus_inf_real"])
def test_greens_function_rejects_non_finite_energy(report5, energy):
    # the expansion would give an all-NaN matrix under RuntimeWarnings for NaN, and zeros for inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="energy must be finite"):
            ep_core.greens_function(report5, energy)


def test_greens_function_overflow_near_pole_raises(report5):
    # 1e-70 from the pole the series' last term, N^4 / delta^5, is ~1e350: overflow, then inf * 0 = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows a double"):
            ep_core.greens_function(report5, report5.ep_eigenvalue + 1e-70j)


# ---------------------------------------------------------------------------
# splitting bounds

def test_splitting_bound_unit_case():
    assert ep_core.splitting_bound(1.0, 1.0, 1.0, 2) == 1.0


def test_splitting_bound_rounding_scale():
    value = ep_core.splitting_bound(XI_5, 2.22e-16, 2.0 * np.sqrt(5), 5)
    assert value == pytest.approx(1.48e-3, rel=0.01)


def test_splitting_bound_eps_doubling():
    base = ep_core.splitting_bound(2.0, 1e-8, 3.0, 5)
    doubled = ep_core.splitting_bound(2.0, 2e-8, 3.0, 5)
    assert doubled == pytest.approx(base * 2 ** 0.2, rel=1e-12)


@pytest.mark.parametrize("factor, expected", [(1e300, 1e180), (1e-300, 1e-180)], ids=["overflow", "underflow"])
def test_splitting_bound_outside_the_double_range_of_its_product(factor, expected):
    # the product under the root, 1e900 or 1e-900, is no double, but its fifth root is
    assert ep_core.splitting_bound(factor, factor, factor, 5) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_splitting_bounds_in_range_keep_the_direct_formula():
    assert ep_core.splitting_bound(2.0, 1e-8, 3.0, 5) == (1e-8 * 3.0 * 2.0) ** 0.2
    assert ep_core.machine_precision_bound(XI_5, 5) == float((2.0 * np.sqrt(5) * ep_core.DEFAULT_EPS_MP * XI_5) ** 0.2)


def test_machine_precision_bound_subnormal_xi():
    # 2 sqrt(5) * 2.22e-16 * 1e-320 underflows to 0; the subnormal 1e-320 carries about 5 digits
    expected = (2.0 * np.sqrt(5) * ep_core.DEFAULT_EPS_MP) ** 0.2 * 1e-64
    assert ep_core.machine_precision_bound(1e-320, 5) == pytest.approx(expected, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("n", [0.5, 0.01, 0.999])
def test_splitting_bounds_reject_an_order_below_one(n):
    # an order below 1 raised the power of a large product into a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="n must be an order of at least 1"):
            ep_core.splitting_bound(1e300, 1.0, 1.0, n)
        with pytest.raises(ParameterError, match="n must be an order of at least 1"):
            ep_core.machine_precision_bound(1e300, n)


def test_splitting_bound_rejects_nonpositive():
    with pytest.raises(ParameterError):
        ep_core.splitting_bound(0.0, 1.0, 1.0, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("argument", ["xi", "eps", "h1_spectral_norm"])
def test_splitting_bound_rejects_non_finite(argument, value):
    # NaN compares False with 0 and inf is positive, so a value <= 0 check lets both through
    args = {"xi": 1.0, "eps": 1e-3, "h1_spectral_norm": 1.0, "n": 5, argument: value}
    with pytest.raises(ParameterError, match=f"{argument} must be positive and finite"):
        ep_core.splitting_bound(**args)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_machine_precision_bound_rejects_non_finite(value):
    with pytest.raises(ParameterError, match="xi must be positive and finite"):
        ep_core.machine_precision_bound(value, 5)


def test_machine_precision_bound_example():
    assert ep_core.machine_precision_bound(XI_5, 5) == pytest.approx(1.5e-3, rel=0.1)


def test_machine_precision_bound_power_law():
    base = ep_core.machine_precision_bound(1.0, 5)
    assert ep_core.machine_precision_bound(32.0, 5) == pytest.approx(2.0 * base, rel=1e-12)


def test_machine_precision_bound_linear_case():
    assert ep_core.machine_precision_bound(1.0, 1) == pytest.approx(2.0 * ep_core.DEFAULT_EPS_MP, rel=1e-12)


# ---------------------------------------------------------------------------
# splitting prediction

def test_predicted_splitting_preserving_is_null(report5):
    h1 = random_preserving(2, 3, seed=2024)
    prediction = ep_core.predicted_splitting(report5, h1, 1e-4)
    assert prediction.radicand == 0
    assert np.array_equal(prediction.predicted_eigenvalues, np.full(5, report5.ep_eigenvalue))


def test_predicted_splitting_single_entry(report5):
    h1 = np.zeros((5, 5), dtype=complex)
    h1[0, 2] = 1.0
    prediction = ep_core.predicted_splitting(report5, h1, 1e-6)
    assert prediction.radicand == pytest.approx(1e-6 * (-2.535j), rel=1e-10)
    assert prediction.n == 5
    # the fan consists of the five fifth roots shifted by the eigenvalue
    deltas = prediction.predicted_eigenvalues - report5.ep_eigenvalue
    assert np.allclose(deltas**5, prediction.radicand, rtol=1e-10, atol=1e-18)


def test_predicted_splitting_zero_strength(report5):
    rng = helpers.philox(53)
    h1 = helpers.complex_uniform(rng, (5, 5))
    prediction = ep_core.predicted_splitting(report5, h1, 0.0)
    assert prediction.radicand == 0
    assert np.array_equal(prediction.predicted_eigenvalues, np.full(5, report5.ep_eigenvalue))


def test_predicted_splitting_shape_error(report5):
    with pytest.raises(ShapeError):
        ep_core.predicted_splitting(report5, np.eye(4), 1e-6)


def test_predicted_splitting_requires_full_order():
    report = ep_core.detect_ep(np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        ep_core.predicted_splitting(report, np.eye(2), 1e-6)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_predicted_splitting_rejects_non_finite_strength(system5, eps):
    # a NaN strength once gave five NaN eigenvalues, an infinite one a bare OverflowError
    with pytest.raises(ParameterError, match="eps"):
        ep_core.predicted_splitting(system5.report, np.ones((5, 5)), eps)


@pytest.mark.parametrize("eps", [1e308, -1e308])
def test_predicted_splitting_radicand_overflow_is_numerical(system5, eps):
    # eps is finite, but eps * tr(N^4 H1) is not: the fifth root once ended in a bare OverflowError
    with pytest.raises(NumericalError, match="radicand"):
        ep_core.predicted_splitting(system5.report, np.ones((5, 5)), eps)


def test_predicted_splitting_of_an_overflowing_perturbation_warns_nothing(system5):
    # N^4 H1 overflows: once numpy's overflow RuntimeWarnings, then a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="radicand"):
            ep_core.predicted_splitting(system5.report, np.full((5, 5), 1e308), 1.0)


def test_predicted_splitting_zero_and_negative_strengths_keep_their_values(system5):
    h1 = np.ones((5, 5))
    ep = system5.report.ep_eigenvalue
    zero = ep_core.predicted_splitting(system5.report, h1, 0.0)
    assert zero.radicand == 0 and np.array_equal(zero.predicted_eigenvalues, np.full(5, ep))
    forward = ep_core.predicted_splitting(system5.report, h1, 1e-6)
    backward = ep_core.predicted_splitting(system5.report, h1, -1e-6)
    assert backward.radicand == -forward.radicand != 0
    deltas = backward.predicted_eigenvalues - ep
    assert np.allclose(deltas**5, backward.radicand, rtol=1e-10, atol=0.0)


def test_predicted_eigenvalues_match_spectrum(system5, report5):
    rng = helpers.philox(59)
    for _ in range(20):
        h1 = helpers.complex_uniform(rng, (5, 5))
        prediction = ep_core.predicted_splitting(report5, h1, 1e-10)
        vals = helpers.eigenvalues(system5.h + 1e-10 * h1)
        distance = helpers.match_eigenvalues(vals, prediction.predicted_eigenvalues)
        assert distance <= 0.05 * abs(prediction.radicand) ** 0.2


def test_eigenvalue_bound_random_trials(system5, report5):
    rng = helpers.philox(61)
    xi = report5.response_strength
    for _ in range(200):
        eps = 10.0 ** rng.uniform(-12, -4)
        h1 = helpers.complex_uniform(rng, (5, 5))
        limit = eps * cmatrix.spectral_norm(h1) * xi * (1 + 1e-6) + 1e-12
        vals = helpers.eigenvalues(system5.h + eps * h1)
        assert np.max(np.abs(vals - report5.ep_eigenvalue)) ** 5 <= limit


def test_match_eigenvalues_permutation_invariant():
    a = np.array([1.0, 2.0, 3.0 + 1j])
    assert helpers.match_eigenvalues(a, a[::-1]) == 0.0
