"""Tests for hierarchical composition through unidirectional coupling."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from epkit import cmatrix, compose, ep_core, jordan
from epkit.errors import (
    DegenerateCouplingError,
    IncompatibleSubsystemsError,
    NumericalError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from epkit.models import pt_dimer, pt_trimer, single_entry_coupling

XI_5 = np.sqrt(8.0) * 1.5 * 1.69


def dimer_trimer(k=1.0):
    return compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), single_entry_coupling(k, 3, 2))


def assembled_index(system):
    _, n = ep_core.traceless_part(system.h)
    return ep_core.nilpotency_index(n)


# ---------------------------------------------------------------------------
# assembly

def test_block_layout():
    system = dimer_trimer()
    h = np.asarray(system.h)
    assert np.array_equal(h[:2, :2], pt_dimer(1.0, 1.5))
    assert np.array_equal(h[2:, 2:], pt_trimer(1.0, 1.3))
    assert np.array_equal(h[2:, :2], single_entry_coupling(1.0, 3, 2))
    assert np.array_equal(h[:2, 2:], np.zeros((2, 3)))
    assert system.n_a == 2 and system.n_b == 3 and system.dim == 5


def test_trace_consistency():
    system = dimer_trimer()
    assert np.trace(system.h) == pytest.approx(5.0 * system.ep_eigenvalue, rel=1e-14)


def test_zero_coupling_is_valid_composite():
    system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.zeros((3, 2)))
    assert assembled_index(system) == 3  # larger of the two subsystem orders


def test_eigenvalue_mismatch_raises():
    with pytest.raises(IncompatibleSubsystemsError):
        compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(2.0, 1.3), np.zeros((3, 2)))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_block_compose_rejects_bad_tol(tol):
    # a dimer at omega 1 and a trimer at omega 2 must never compose silently
    with pytest.raises(ParameterError, match="tol"):
        compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(2.0, 1.3), single_entry_coupling(1.0, 3, 2), tol=tol)


def test_shift_b_aligns_eigenvalues():
    system = compose.block_compose(
        pt_dimer(1.0, 1.5), pt_trimer(2.0, 1.3), single_entry_coupling(1.0, 3, 2), shift_b=True
    )
    assert system.ep_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert ep_core.detect_ep(system.h).order == 5


def test_shift_b_carries_reports_of_the_shifted_subsystem():
    system = compose.block_compose(
        pt_dimer(1.0, 1.5), pt_trimer(2.0, 1.3), single_entry_coupling(1.0, 3, 2), shift_b=True
    )
    assert system.rep_b.ep_eigenvalue == pytest.approx(system.rep_a.ep_eigenvalue, abs=1e-12)
    assert compose.composite_response(system) == pytest.approx(XI_5, rel=1e-10)
    for rep, h in ((system.rep_a, system.h_a), (system.rep_b, system.h_b)):
        fresh = ep_core.detect_ep(h)
        for field in dataclasses.fields(rep):
            assert np.array_equal(getattr(rep, field.name), getattr(fresh, field.name)), field.name


def test_coupling_shape_error():
    with pytest.raises(ShapeError):
        compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.zeros((2, 3)))


def test_subsystems_must_be_full_order():
    with pytest.raises(PreconditionError):
        compose.block_compose(np.diag([1.0, 2.0]), pt_trimer(1.0, 1.3), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# genericity product

def test_genericity_product_closed_form():
    g_a, g_b, k = 1.5, 1.3, 1.0
    system = dimer_trimer(k)
    expected = k * g_a * g_b**2 * np.array(
        [[-1j, -1.0], [-np.sqrt(2), 1j * np.sqrt(2)], [1j, 1.0]]
    )
    c = compose.genericity_product(system)
    assert np.allclose(c, expected, atol=1e-10 * np.linalg.norm(expected))


def test_genericity_product_matches_direct_power():
    rng = helpers.philox(83)
    for _ in range(10):
        k = helpers.complex_uniform(rng, (3, 2))
        system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
        c = compose.genericity_product(system)
        _, n = ep_core.traceless_part(system.h)
        block = np.linalg.matrix_power(n, 4)[2:, :2]
        assert np.allclose(c, block, atol=1e-10 * max(np.linalg.norm(block), 1e-30))


def test_genericity_product_zero_for_zero_coupling():
    system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.zeros((3, 2)))
    assert np.array_equal(compose.genericity_product(system), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# composite response

def test_composite_response_closed_form():
    assert compose.composite_response(dimer_trimer()) == pytest.approx(XI_5, rel=1e-10)


def test_composite_response_reuses_subsystem_reports(monkeypatch):
    system = dimer_trimer()
    calls = []
    detect_ep = ep_core.detect_ep

    def counting(*args, **kwargs):
        calls.append(args)
        return detect_ep(*args, **kwargs)

    monkeypatch.setattr(ep_core, "detect_ep", counting)
    monkeypatch.setattr(compose, "detect_ep", counting)
    assert compose.composite_response(system) == pytest.approx(XI_5, rel=1e-10)
    assert calls == []


@st.composite
def coupled_pairs(draw, kind):
    """(g_a, g_b, K): a single-entry, dense, rank-one or nearly nongeneric K, scaled by 1e-50 .. 1e50.

    A nearly nongeneric K is a nongeneric one (v_b^H K u_a = 0, so C = 0) plus a generic part of
    relative size 10**-9.5 .. 10**-5.5, which walks C across the degeneracy threshold (near 10**-7.5).
    """
    g_a, g_b = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        k = np.zeros((3, 2), dtype=complex)
        k[draw(st.integers(0, 2)), draw(st.integers(0, 1))] = np.exp(2j * np.pi * rng.random())
    elif kind == "dense":
        k = helpers.complex_uniform(rng, (3, 2))
    elif kind == "rank_one":
        k = np.outer(helpers.complex_uniform(rng, 3), helpers.complex_uniform(rng, 2))
    else:
        u_a = np.linalg.svd(ep_core.detect_ep(pt_dimer(1.0, g_a)).top_power)[0][:, 0]
        v_b = np.linalg.svd(ep_core.detect_ep(pt_trimer(1.0, g_b)).top_power)[2][0].conj()
        k = helpers.complex_uniform(rng, (3, 2))
        k = k - np.outer(v_b, u_a.conj()) * np.vdot(v_b, k @ u_a)
        k = k + 10.0 ** draw(st.floats(-9.5, -5.5)) * helpers.complex_uniform(rng, (3, 2))
    return g_a, g_b, 10.0 ** draw(st.floats(-50.0, 50.0)) * k


def _response_outcome(response, system):
    try:
        return None, response(system)
    except (NumericalError, DegenerateCouplingError) as exc:
        return type(exc), None


@pytest.mark.parametrize("kind", ["single", "dense", "rank_one", "nearly_nongeneric"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_composite_response_decides_as_the_coupling_norm_does(kind, data):
    # the bracket of ||K||_2 must return or raise exactly where the SVD of K would
    g_a, g_b, k = data.draw(coupled_pairs(kind))
    pair = (pt_dimer(1.0, g_a), pt_trimer(1.0, g_b), k)
    error, xi = _response_outcome(compose.composite_response, compose.block_compose(*pair))
    expected_error, expected_xi = _response_outcome(helpers.reference_composite_response, compose.block_compose(*pair))
    assert error is expected_error
    if error is None:
        assert xi == pytest.approx(expected_xi, rel=1e-13)


def _cross_check_outcome(system, nmat):
    """The bytes of genericity_product's C with nmat as the traceless part, or the error it raises."""
    try:
        return compose._genericity_product(system, nmat).tobytes()
    except NumericalError as exc:
        return str(exc)


@st.composite
def composites_near_the_cross_check(draw):
    """Two independently built copies of one composite, and its traceless part with the coupling block moved.

    The composite is a dimer and a trimer at eigenvalue 0, scaled by 10**-30 .. 10**30, with a
    coupled_pairs K, or a compose_many chain of 2-5 dimers.  Moving the coupling block of N by
    size * E moves the direct power's block off C by size * N_b^(n_b-1) E N_a^(n_a-1), and size puts
    that at a factor near 1 of the cross-check threshold 1e-10 * ||K||_2 * ||N_a||_2^(n_a-1) * ||N_b||_2^(n_b-1).
    """
    if draw(st.booleans()):
        g_a, g_b, k = draw(coupled_pairs(draw(st.sampled_from(["single", "dense", "rank_one"]))))
        scale = 10.0 ** draw(st.integers(-30, 30))
        build = functools.partial(compose.block_compose, scale * pt_dimer(0.0, g_a), scale * pt_trimer(0.0, g_b), k)
    else:
        hams, ks, _ = dimer_chain(helpers.philox(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 5)))
        build = functools.partial(compose.compose_many, hams, ks)
    fresh, exact = build(), build()
    a, b = exact.rep_a, exact.rep_b
    threshold = 1e-10 * exact.coupling_norm * a.nilpotent_norm ** (a.dim - 1) * b.nilpotent_norm ** (b.dim - 1)
    e = helpers.complex_uniform(helpers.philox(draw(st.integers(0, 2**32 - 1))), (b.dim, a.dim))
    moved = cmatrix.frobenius_norm(b.top_power @ e @ a.top_power)
    assume(moved > 0.0 and threshold > 0.0)
    factor = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0 - 1e-3, 1.0 + 1e-3, 1.1, 2.0]))
    _, nmat = ep_core.traceless_part(exact.h)
    nmat[a.dim:, :a.dim] += factor * threshold / moved * e
    return fresh, exact, nmat


@settings(deadline=None, max_examples=150)
@given(composites_near_the_cross_check())
def test_genericity_cross_check_matches_the_exact_norm_reference(case):
    # settled on the brackets of ||K||_2, ||N_a||_2 and ||N_b||_2, the cross-check raises or
    # returns exactly where it does on their SVDs
    fresh, exact, nmat = case
    assert _cross_check_outcome(fresh, nmat) == _cross_check_outcome(exact, nmat)


@pytest.mark.parametrize("kind", ["single_entry", "dense"])
def test_certify_op_takes_the_one_svd_of_kernel_vector(monkeypatch, kind):
    # block_compose, three detect_ep, two jordan_chain, composite_response, kernel_vector and
    # coupling_amplitude: every threshold on ||N||_2 and ||K||_2 is settled by a bracket
    rng = helpers.philox(211)
    for _ in range(5):
        g_a, g_b = 10.0 ** rng.uniform(-1, 1, 2)
        if kind == "single_entry":
            k = single_entry_coupling(rng.uniform(0.1, 10.0), 3, 2)
        else:
            k = helpers.complex_uniform(rng, (3, 2))
        h_a, h_b = pt_dimer(1.0, g_a), pt_trimer(1.0, g_b)
        counts = helpers.count_linalg(monkeypatch, "svd")
        system = compose.block_compose(h_a, h_b, k)
        report = ep_core.detect_ep(system.h)
        jordan.jordan_chain(report)
        compose.composite_response(system)
        rep_a, rep_b = ep_core.detect_ep(h_a), ep_core.detect_ep(h_b)
        jordan.coupling_amplitude(jordan.jordan_chain(rep_b), cmatrix.kernel_vector(rep_a.nilpotent), k)
        assert counts == {"svd": 1}
        monkeypatch.undo()


def test_report_reads_its_nilpotent_norm_on_demand_with_one_svd(monkeypatch):
    system = dimer_trimer()
    counts = helpers.count_linalg(monkeypatch, "svd")
    report = system.report
    assert counts == {"svd": 0}
    first, second = report.nilpotent_norm, report.nilpotent_norm
    assert counts == {"svd": 1}
    assert first.hex() == second.hex() == cmatrix.spectral_norm(ep_core.traceless_part(system.h)[1]).hex()


def test_composite_response_linear_in_coupling():
    assert compose.composite_response(dimer_trimer(2.0)) == pytest.approx(
        2.0 * compose.composite_response(dimer_trimer(1.0)), rel=1e-12
    )


def test_composite_response_matches_detection():
    rng = helpers.philox(89)
    for _ in range(10):
        k = helpers.complex_uniform(rng, (3, 2))
        system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
        xi = compose.composite_response(system)
        assert xi == pytest.approx(ep_core.response_strength(system.h), rel=1e-8)


def test_degenerate_coupling_raises_with_achieved_order():
    system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.zeros((3, 2)))
    with pytest.raises(DegenerateCouplingError) as info:
        compose.composite_response(system)
    assert info.value.achieved_order == 3


def test_subsystem_with_a_flushed_top_power_raises_numerical_error():
    # the power test passes this non-normal block at full order while the flush zeroes its whole
    # top power; no subsystem with xi_a = 0 is certified, so block_compose stops at rep_a
    h_a = helpers.transformed_jordan_block(helpers.philox(1), 15)
    with pytest.raises(NumericalError, match="flushed to zero"):
        compose.block_compose(h_a, pt_dimer(0.0, 1.0), np.ones((2, 15)))


@pytest.mark.parametrize("kind", ["single_entry", "dense"])
def test_report_certifies_order_five_at_every_coupling_scale(kind):
    # powering the assembled H gave orders 4, 3 and 2 from k = 1e4 on; the block theorem gives 5
    dense = helpers.complex_uniform(helpers.philox(113), (3, 2))
    for exponent in range(-4, 151):
        k = 10.0**exponent
        coupling = single_entry_coupling(k, 3, 2) if kind == "single_entry" else k * dense
        report = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), coupling).report
        assert report.order == 5 and report.is_full_ep
        xi = report.response_strength
        if kind == "single_entry":
            assert xi == pytest.approx(XI_5 * k, rel=1e-12)
        assert jordan.response_from_chain(jordan.jordan_chain(report)) == pytest.approx(xi, rel=1e-8)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_report_raises_where_composite_response_does(data):
    g_a, g_b, k = data.draw(coupled_pairs("nearly_nongeneric"))
    system = compose.block_compose(pt_dimer(1.0, g_a), pt_trimer(1.0, g_b), k)
    error, xi = _response_outcome(lambda s: s.report.response_strength, system)
    assert (error, xi) == _response_outcome(compose.composite_response, system)
    if error is None:
        expected_top = np.zeros((5, 5), dtype=complex)
        expected_top[2:, :2] = compose.genericity_product(system)
        assert np.array_equal(system.report.top_power, expected_top)
        assert system.report.nilpotent_norm == cmatrix.spectral_norm(ep_core.traceless_part(system.h)[1])


# ---------------------------------------------------------------------------
# upper bound

def test_upper_bound_closed_form():
    bound = compose.response_upper_bound(3.0, 6.76, single_entry_coupling(1.0, 3, 2))
    assert bound == pytest.approx(20.28, rel=1e-12)
    assert compose.composite_response(dimer_trimer()) <= bound


def test_upper_bound_zero_coupling():
    assert compose.response_upper_bound(3.0, 6.76, np.zeros((3, 2))) == 0.0


def test_upper_bound_rejects_nonpositive_strengths():
    with pytest.raises(ParameterError):
        compose.response_upper_bound(0.0, 1.0, np.eye(2))


@pytest.mark.parametrize("xi_a, xi_b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
def test_upper_bound_rejects_non_finite_strengths(xi_a, xi_b):
    with pytest.raises(ParameterError, match="finite"):
        compose.response_upper_bound(xi_a, xi_b, np.eye(2))


def test_bound_holds_on_random_couplings():
    rng = helpers.philox(97)
    for _ in range(25):
        k = helpers.complex_uniform(rng, (3, 2))
        system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
        xi = compose.composite_response(system)
        bound = compose.response_upper_bound(3.0, 6.76, k)
        assert 0.0 < xi <= bound * (1 + 1e-12)


def test_bound_saturates_for_aligned_coupling():
    # K built to send the dimer state exactly onto the trimer's last Jordan
    # direction makes the Cauchy-Schwarz bound an equality.
    from epkit.jordan import jordan_chain

    rep_a = ep_core.detect_ep(pt_dimer(1.0, 1.5))
    rep_b = ep_core.detect_ep(pt_trimer(1.0, 1.3))
    psi_a = cmatrix.kernel_vector(rep_a.nilpotent)
    last = jordan_chain(rep_b).vectors[-1]
    j_tilde = last / np.linalg.norm(last)
    k = np.outer(j_tilde, psi_a.conj())
    system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
    xi = compose.composite_response(system)
    bound = compose.response_upper_bound(3.0, 6.76, k)
    assert xi == pytest.approx(bound, rel=1e-10)


# ---------------------------------------------------------------------------
# order arithmetic

def test_order_addition_generic_coupling():
    rng = helpers.philox(103)
    for _ in range(10):
        k = helpers.complex_uniform(rng, (3, 2))
        system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
        if cmatrix.frobenius_norm(compose.genericity_product(system)) > 1e-8:
            assert assembled_index(system) == 5


def test_degenerate_couplings_drop_the_order():
    rng = helpers.philox(107)
    n_a = ep_core.traceless_part(pt_dimer(1.0, 1.5))[1]
    n_b = ep_core.traceless_part(pt_trimer(1.0, 1.3))[1]
    k_right = helpers.complex_uniform(rng, (3, 2)) @ n_a  # annihilates from the right
    k_left = n_b @ helpers.complex_uniform(rng, (3, 2))  # lands on a nilpotent image
    for k in (k_right, k_left):
        system = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k)
        assert cmatrix.frobenius_norm(compose.genericity_product(system)) <= 1e-10
        assert assembled_index(system) < 5


def test_two_plus_two_case_split():
    rng = helpers.philox(109)
    h_a, h_b = pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7)
    n_a = ep_core.traceless_part(h_a)[1]

    generic = compose.block_compose(h_a, h_b, helpers.complex_uniform(rng, (2, 2)))
    assert assembled_index(generic) == 4

    # annihilates the dimer eigenstate but not the downstream chain: order 3
    intermediate = compose.block_compose(h_a, h_b, np.array([[1j, 1.0], [0.0, 0.0]]))
    assert assembled_index(intermediate) == 3

    # coupling equal to the upstream nilpotent zeroes both products: order 2
    lowest = compose.block_compose(h_a, h_b, n_a)
    assert assembled_index(lowest) == 2


# ---------------------------------------------------------------------------
# folding more than two subsystems

def test_compose_many_three_subsystems():
    rng = helpers.philox(113)
    k1 = helpers.complex_uniform(rng, (2, 2))
    k2 = helpers.complex_uniform(rng, (3, 4))
    system = compose.compose_many(
        [pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7), pt_trimer(1.0, 1.3)], [k1, k2]
    )
    assert system.dim == 7
    assert ep_core.detect_ep(system.h).order == 7
    assert compose.composite_response(system) == pytest.approx(
        ep_core.response_strength(system.h), rel=1e-8
    )


def dimer_chain(rng, depth):
    """(hams, couplings, gs) of a compose_many chain of depth dimers at one shared eigenvalue."""
    omega0 = rng.uniform(0.5, 1.5)
    gs = [10.0 ** rng.uniform(np.log10(0.5), np.log10(2.0)) for _ in range(depth)]
    ks = [helpers.complex_uniform(rng, (2, 2 * (j + 1))) for j in range(depth - 1)]
    return [pt_dimer(omega0, g) for g in gs], ks, gs


def chain_top_power(gs, ks):
    """N^(dim-1) of a dimer chain by the block recursion: the lower-left block of each level is N_b K top_a."""
    top = gs[0] * np.array([[1j, 1.0], [1.0, -1j]])
    for g, k in zip(gs[1:], ks):
        m = top.shape[0]
        nxt = np.zeros((m + 2, m + 2), dtype=complex)
        nxt[m:, :m] = g * np.array([[1j, 1.0], [1.0, -1j]]) @ k @ top
        top = nxt
    return top


@pytest.mark.parametrize("seed", range(20))
def test_compose_many_certifies_dimer_chains_at_full_order(seed):
    # powering each intermediate composite rejected some of these chains, and the degeneracy
    # threshold on ||N_a||^(n_a-1) * ||N_b||^(n_b-1) called others degenerate
    rng = helpers.philox(seed)
    for depth in range(2, 9):
        hams, ks, gs = dimer_chain(rng, depth)
        report = compose.compose_many(hams, ks).report
        assert report.order == 2 * depth and report.is_full_ep
        xi = np.linalg.norm(chain_top_power(gs, ks))
        assert report.response_strength == pytest.approx(xi, rel=1e-12)
        assert jordan.response_from_chain(jordan.jordan_chain(report)) == pytest.approx(xi, rel=1e-8)


def test_block_compose_onto_a_non_normal_chain_is_generic():
    # strong chain couplings make ||N_a||_2^7 of the 8x8 upstream far exceed xi_a: a threshold
    # of 1e-8 * ||K||_2 * ||N_a||_2^7 * ||N_b||_2 called this dense K degenerate
    hams, ks, _ = dimer_chain(helpers.philox(3), 4)
    upstream = compose.compose_many(hams, [30.0 * k for k in ks])
    k = helpers.complex_uniform(helpers.philox(1003), (2, 8))
    system = compose.block_compose(upstream.h, pt_dimer(upstream.ep_eigenvalue.real, 1.0), k)
    xi = compose.composite_response(system)
    assert xi == pytest.approx(helpers.reference_composite_response(system), rel=1e-13)
    assert 0.0 < xi <= compose.response_upper_bound(system.rep_a.response_strength, 2.0, k) * (1 + 1e-12)


def test_compose_many_runs_one_power_test_per_subsystem(monkeypatch):
    calls = []
    nilpotency = ep_core._nilpotency

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return nilpotency(*args, **kwargs)

    monkeypatch.setattr(ep_core, "_nilpotency", counting)
    hams, ks, _ = dimer_chain(helpers.philox(67), 5)
    compose.compose_many(hams, ks)
    assert calls == [2] * 5


def test_compose_many_of_a_dimer_chain_takes_no_svd(monkeypatch):
    hams, ks, gs = dimer_chain(helpers.philox(67), 5)
    counts = helpers.count_linalg(monkeypatch, "svd")
    system = compose.compose_many(hams, ks)
    assert counts == {"svd": 0}
    assert system.report.response_strength == pytest.approx(np.linalg.norm(chain_top_power(gs, ks)), rel=1e-12)


def test_compose_many_nongeneric_intermediate_names_the_achieved_order():
    rng = helpers.philox(71)
    hams = [pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7), pt_dimer(1.0, 1.1)]
    n_1 = ep_core.traceless_part(hams[0])[1]
    with pytest.raises(DegenerateCouplingError) as info:
        compose.compose_many(hams, [n_1, helpers.complex_uniform(rng, (2, 4))])
    assert info.value.achieved_order == 2


def test_compose_many_argument_validation():
    with pytest.raises(ParameterError):
        compose.compose_many([pt_dimer(1.0, 1.5)], [])
    with pytest.raises(ParameterError):
        compose.compose_many([pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7)], [])


def test_composite_json_roundtrip():
    system = dimer_trimer()
    payload = system.to_json()
    assert cmatrix.matrix_from_json(payload["h"]).shape == (5, 5)
    assert payload["ep_eigenvalue"] == [1.0, 0.0]
