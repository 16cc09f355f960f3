"""Tests for hierarchical composition through unidirectional coupling."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from epkit import cmatrix, compose, ep_core, jordan, models
from epkit.errors import (
    DegenerateCouplingError,
    EpkitError,
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


@pytest.mark.parametrize("tol", [None, "x"])
def test_block_compose_rejects_a_tol_that_is_not_a_number(tol):
    with pytest.raises(ParameterError, match="tol"):
        compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), single_entry_coupling(1.0, 3, 2), tol=tol)


def test_coupling_shape_error():
    with pytest.raises(ShapeError):
        compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.zeros((2, 3)))


def test_subsystems_must_be_full_order():
    with pytest.raises(PreconditionError):
        compose.block_compose(np.diag([1.0, 2.0]), pt_trimer(1.0, 1.3), np.zeros((3, 2)))


def hand_built(**changes):
    """A CompositeSystem built field by field from the dimer-trimer composite, with some fields changed."""
    system = dimer_trimer()
    fields = dict(h=system.h, k=system.k, ep_eigenvalue=system.ep_eigenvalue, rep_a=system.rep_a, rep_b=system.rep_b)
    return compose.CompositeSystem(**{**fields, **changes})


@pytest.mark.parametrize("label", ["a", "b"])
def test_a_hand_built_system_with_a_partial_report_raises_precondition_error(label):
    # a report with order None has no top power to factor, so the system is refused where it is built
    partial = ep_core.detect_ep(np.diag([1.0, 2.0]) if label == "a" else np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(PreconditionError, match=f"subsystem {label} is not at a full-order exceptional point"):
        hand_built(**{f"rep_{label}": partial})


@pytest.mark.parametrize("field, shape", [("k", (2, 3)), ("k", (3, 3)), ("h", (4, 4)), ("h", (5, 6))])
def test_a_hand_built_system_of_the_wrong_shape_raises_shape_error(field, shape):
    # a K or H that does not fit the reports' dims has no product with their factors
    with pytest.raises(ShapeError, match=re.escape(f"{field.upper()} has shape {shape}")):
        hand_built(**{field: np.zeros(shape, dtype=complex)})


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
    monkeypatch.setattr(compose, "_detect", counting)
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


def exact_composite_xi(h_a, h_b, k) -> mpmath.mpf:
    """||N_b^2 K N_a||_2 of a dimer H_a and a trimer H_b in 50-digit arithmetic, from their float entries."""
    with mpmath.workdps(50):
        n_a, n_b = (mpmath.matrix(h.tolist()) - sum(h.diagonal().tolist()) / h.shape[0] * mpmath.eye(h.shape[0])
                    for h in (h_a, h_b))
        c = n_b * n_b * mpmath.matrix(k.tolist()) * n_a
        (p, q), (_, r) = (c.H * c).tolist()  # C^H C is 2x2 Hermitian: its largest eigenvalue in closed form
        return mpmath.sqrt((p.real + r.real) / 2 + mpmath.sqrt(((p.real - r.real) / 2) ** 2 + abs(q) ** 2))


@pytest.mark.parametrize("kind", ["single", "dense", "rank_one", "nearly_nongeneric"])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_composite_response_is_within_four_units_of_the_exact_product(kind, data):
    # xi = |y_b^H K u_a| * xi_b from the float factors, against C = N_b^2 K N_a formed in 50 digits.  The
    # error allowed is 4 units of xi_a * xi_b * ||K||_2, where the rounding of s = y_b^H K u_a lands, plus
    # 4 units of xi itself, which the rounded ||y_a||, ||y_b|| and xi_b scale
    g_a, g_b, k = data.draw(coupled_pairs(kind))
    h_a, h_b = pt_dimer(1.0, g_a), pt_trimer(1.0, g_b)
    system = compose.block_compose(h_a, h_b, k)
    scale = system.rep_a.response_strength * system.rep_b.response_strength * system.coupling_norm
    exact = float(exact_composite_xi(h_a, h_b, k))
    allowed = 4 * 2.0**-53 * (scale + exact)
    error, xi = _response_outcome(compose.composite_response, system)
    if error is DegenerateCouplingError:  # refused only where the exact xi is within rounding of the threshold
        assert exact <= 1e-8 * scale + allowed
    else:
        assert error is None
        assert abs(xi - exact) <= allowed


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


def test_subsystem_with_a_partly_flushed_top_power_raises_numerical_error():
    # the flush of this block's N^12 keeps a rank-one remnant whose norm is not xi_a; certifying H_a refuses it
    h_a = helpers.transformed_jordan_block(helpers.philox(2), 13)
    with pytest.raises(NumericalError, match="removes more than nil_tol"):
        compose.block_compose(h_a, pt_dimer(0.0, 1.0), np.ones((2, 13)))


def model_top_power(h) -> np.ndarray:
    """The exact N^(n-1) of pt_dimer(w, g) (g [[i, 1], [1, -i]]) or pt_trimer(w, g) (g^2 times a rank-one 3x3)."""
    if h.shape[0] == 2:
        return h[0, 1].real * np.array([[1j, 1.0], [1.0, -1j]])
    r = np.sqrt(2.0)
    return h[0, 1].real ** 2 * np.array([[-1.0, 1j * r, 1.0], [1j * r, 2.0, -1j * r], [1.0, -1j * r, -1.0]])


def construction_xi(top_a, top_b, k) -> float:
    """||T_b K T_a||_2 with T_a and T_b the top powers of the subsystems' constructions."""
    return cmatrix.spectral_norm(top_b @ k @ top_a)


@pytest.mark.parametrize("upstream", ["dimer", "trimer"])
def test_exact_points_of_different_scales_compose_at_order_five(upstream):
    # a cross-check scaled by ||K|| * ||N_a||^(n_a-1) * ||N_b||^(n_b-1) called these exact points inconsistent
    dimer, trimer = pt_dimer(1.0, 1e-3), pt_trimer(1.0, 1e5)
    h_a, h_b = (dimer, trimer) if upstream == "dimer" else (trimer, dimer)
    n_a, n_b = h_a.shape[0], h_b.shape[0]
    report = compose.block_compose(h_a, h_b, single_entry_coupling(1.0, n_b, n_a)).report
    assert report.order == 5 and report.is_full_ep
    assert report.response_strength == pytest.approx(np.sqrt(8.0) * 1e-3 * 1e10, rel=1e-12)
    k = helpers.complex_uniform(helpers.philox(127), (n_b, n_a))
    system = compose.block_compose(h_a, h_b, k)
    xi = system.report.response_strength
    assert compose.composite_response(system) == xi
    assert xi == pytest.approx(construction_xi(model_top_power(h_a), model_top_power(h_b), k), rel=1e-12)


def test_certifying_a_composite_powers_no_assembled_matrix(monkeypatch):
    system = dimer_trimer()
    counts = helpers.count_linalg(monkeypatch, "matrix_power")
    system.report
    compose.composite_response(system)
    compose.genericity_product(system)
    assert counts == {"matrix_power": 0}


@st.composite
def scanned_composites(draw):
    """(H_a, H_b, K, T_a, T_b): a transformed Jordan block and a dimer or trimer, or a dimer and a trimer.

    The block has dim 2-15 and scale 10**-3 .. 10**3, its T = scale^(n-1) S J^(n-1) S^-1 from the S that
    helpers.transformed_jordan_block draws; the models have g in 10**-4 .. 10**4 and their exact top powers.
    Either subsystem may be upstream, and K is dense.
    """
    g = 10.0 ** draw(st.floats(-4.0, 4.0))
    model = draw(st.sampled_from([pt_dimer, pt_trimer]))
    if draw(st.booleans()):
        dim, seed = draw(st.integers(2, 15)), draw(st.integers(0, 2**32 - 1))
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        h_1 = scale * helpers.transformed_jordan_block(helpers.philox(seed), dim)
        s = np.eye(dim) + 0.5 * helpers.complex_uniform(helpers.philox(seed), (dim, dim))
        t_1 = scale ** (dim - 1) * np.outer(s[:, 0], np.linalg.inv(s)[-1])
        h_2 = model(0.0, g)
    else:
        h_1 = pt_dimer(1.0, 10.0 ** draw(st.floats(-4.0, 4.0)))
        t_1 = model_top_power(h_1)
        h_2 = pt_trimer(1.0, g)
    pair = [(h_1, t_1), (h_2, model_top_power(h_2))]
    if draw(st.booleans()):
        pair.reverse()
    (h_a, t_a), (h_b, t_b) = pair
    k = helpers.complex_uniform(helpers.philox(draw(st.integers(0, 2**32 - 1))), (h_b.shape[0], h_a.shape[0]))
    return h_a, h_b, k, t_a, t_b


@settings(deadline=None, max_examples=100)
@given(scanned_composites())
def test_composite_xi_is_the_constructions_or_block_compose_raises(case):
    # a subsystem whose certified top power is not its construction's must be refused where it is certified
    h_a, h_b, k, t_a, t_b = case
    try:
        system = compose.block_compose(h_a, h_b, k)
    except EpkitError:
        return
    assert system.report.response_strength == pytest.approx(construction_xi(t_a, t_b, k), rel=1e-8)


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


# ---------------------------------------------------------------------------
# the fold over level certificates against the fold over composites

FAULTS = ("non_ep", "mismatch", "shape", "non_finite", "degenerate")


def assembled(hams, ks) -> np.ndarray:
    """The block lower-triangular H of a chain, assembled level by level."""
    h = hams[0]
    for h_b, k in zip(hams[1:], ks):
        h = np.block([[h, np.zeros((h.shape[0], h_b.shape[0]))], [k, h_b]])
    return h


@st.composite
def faulted_chains(draw):
    """(hams, couplings): a compose_many chain of 2-8 subsystems at one eigenvalue, with up to two faults.

    The subsystems are dimers, trimers and transformed Jordan blocks of dim 1-6, the couplings dense or
    single-entry.  Each fault sits at its own level i: subsystem i is not at an EP or is shifted off the
    shared eigenvalue, or the coupling into it has a wrong shape, a non-finite entry, or is degenerate
    (zero, or X N with N the traceless part of the composite it couples from).  Two faults are often at
    adjacent levels, where the order in which a level's checks run decides which one is raised.
    """
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(2, 8))
    omega0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    first, other = draw(st.integers(0, depth - 1)), draw(st.integers(0, depth - 1))
    levels = [i for i in dict.fromkeys(draw(st.sampled_from([[], [first], [first, first + 1], [first, other]])))
              if i < depth]
    faults = {i: draw(st.sampled_from(FAULTS if i > 0 else FAULTS[:2])) for i in levels}
    hams = []
    for i in range(depth):
        kind = draw(st.sampled_from(["dimer", "trimer", "block"]))
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        if faults.get(i) == "non_ep":
            h = np.diag(omega0 + np.arange(draw(st.integers(2, 3))))
        elif kind == "dimer":
            h = pt_dimer(omega0.real, g) + 1j * omega0.imag * np.eye(2)
        elif kind == "trimer":
            h = pt_trimer(omega0.real, g) + 1j * omega0.imag * np.eye(3)
        else:
            dim = draw(st.integers(1, 6))
            h = g * helpers.transformed_jordan_block(rng, dim) + omega0 * np.eye(dim)
        if faults.get(i) == "mismatch":
            h = h + 1e-3 * np.eye(h.shape[0])
        hams.append(h)
    ks = []
    for i in range(1, depth):
        rows, cols = hams[i].shape[0], sum(h.shape[0] for h in hams[:i])
        fault = faults.get(i)
        if fault == "degenerate":
            k = np.zeros((rows, cols), dtype=complex)
            if draw(st.booleans()) and all(faults.get(j) not in ("shape", "non_finite") for j in range(i)):
                _, n_prev = ep_core.traceless_part(assembled(hams[:i], ks))
                k = helpers.complex_uniform(rng, (rows, cols)) @ n_prev
        elif draw(st.booleans()):
            k = helpers.complex_uniform(rng, (rows, cols + (fault == "shape")))
        else:
            k = np.zeros((rows, cols + (fault == "shape")), dtype=complex)
            k[rng.integers(rows), rng.integers(cols)] = np.exp(2j * np.pi * rng.random())
        if fault == "non_finite":
            k[rng.integers(rows), rng.integers(cols)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        ks.append(k)
    return hams, ks


def _fold_outcome(fold, hams, ks):
    try:
        return fold(hams, ks), None
    except EpkitError as exc:
        return None, exc


def _same_error(got, expected):
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    assert getattr(got, "achieved_order", None) == getattr(expected, "achieved_order", None)


def _same_report(got, expected):
    assert (got.dim, got.order, got.nil_tol) == (expected.dim, expected.order, expected.nil_tol)
    assert np.array([got.ep_eigenvalue]).tobytes() == np.array([expected.ep_eigenvalue]).tobytes()
    assert got.nilpotent.tobytes() == expected.nilpotent.tobytes()
    assert np.array([got.response_strength]).tobytes() == np.array([expected.response_strength]).tobytes()
    assert (got.top_power is None) == (expected.top_power is None)
    if got.top_power is not None:
        assert got.top_power.tobytes() == expected.top_power.tobytes()


@settings(deadline=None, max_examples=400)
@given(faulted_chains())
def test_compose_many_equals_the_fold_over_composites(chain):
    hams, ks = chain
    system, error = _fold_outcome(compose.compose_many, hams, ks)
    expected, expected_error = _fold_outcome(helpers.reference_compose_many, hams, ks)
    if expected_error is not None:
        _same_error(error, expected_error)
        return
    assert error is None
    assert system.h.tobytes() == expected.h.tobytes()
    assert system.k.tobytes() == expected.k.tobytes()
    assert np.array([system.ep_eigenvalue]).tobytes() == np.array([expected.ep_eigenvalue]).tobytes()
    _same_report(system.rep_a, expected.rep_a)
    _same_report(system.rep_b, expected.rep_b)
    report, report_error = _fold_outcome(lambda s, _: s.report, system, None)
    expected_report, expected_report_error = _fold_outcome(lambda s, _: s.report, expected, None)
    if expected_report_error is not None:
        _same_error(report_error, expected_report_error)
    else:
        _same_report(report, expected_report)


@pytest.mark.parametrize("fault", ["non_ep", "mismatch", "shape"])
def test_compose_many_certifies_a_level_before_it_joins_the_next_subsystem(fault):
    # the coupling into the second dimer is degenerate, and the third subsystem or its coupling is faulty too
    hams = [pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7), pt_dimer(1.0, 1.1)]
    ks = [ep_core.traceless_part(hams[0])[1], helpers.complex_uniform(helpers.philox(71), (2, 4))]
    if fault == "non_ep":
        hams[2] = np.diag([1.0, 2.0])
    elif fault == "mismatch":
        hams[2] = pt_dimer(1.1, 1.1)
    else:
        ks[1] = ks[1][:, :3]
    with pytest.raises(DegenerateCouplingError) as info:
        compose.compose_many(hams, ks)
    with pytest.raises(DegenerateCouplingError) as expected:
        helpers.reference_compose_many(hams, ks)
    _same_error(info.value, expected.value)


def test_compose_many_raises_an_overflowing_intermediate_trace_as_the_fold_over_composites_does():
    # each dimer's trace is finite, the first composite's overflows; it is found where that level is certified
    hams = [pt_dimer(5e307, 1.0)] * 3
    ks = [np.ones((2, 2)), np.ones((2, 4))]
    with pytest.raises(NumericalError, match="trace") as info:
        compose.compose_many(hams, ks)
    with pytest.raises(NumericalError) as expected:
        helpers.reference_compose_many(hams, ks)
    _same_error(info.value, expected.value)


@pytest.mark.parametrize("build", [
    lambda h_a, h_b, k: compose.block_compose(h_a, h_b, k),
    lambda h_a, h_b, k: compose.compose_many([h_a, h_b], [k]),
    lambda h_a, h_b, k: models.dimer_trimer_system(5e307, 1.0, 1.0, 1.0),
], ids=["block_compose", "compose_many", "dimer_trimer_system"])
def test_a_composite_whose_trace_overflows_raises_at_once(build):
    # each subsystem's trace is finite and only tr H overflows: no system with ep_eigenvalue inf+nanj is returned
    h_a, h_b, k = pt_dimer(5e307, 1.0), pt_trimer(5e307, 1.0), single_entry_coupling(1.0, 3, 2)
    with pytest.raises(NumericalError, match="the trace or traceless part of H overflows a double"):
        build(h_a, h_b, k)


def test_a_composite_mean_is_summed_as_the_trace_sums_it():
    rng = helpers.philox(83)
    for _ in range(50):
        omega0 = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
        system = compose.compose_many([pt_dimer(omega0, rng.uniform(0.5, 2.0)) for _ in range(3)],
                                      [helpers.complex_uniform(rng, (2, 2 * j)) for j in (1, 2)])
        want = complex(system.h.trace()) / system.dim
        assert np.array([system.ep_eigenvalue]).tobytes() == np.array([want]).tobytes()


def test_certification_takes_no_matrix_power(monkeypatch):
    # the power test forms N^(n-1) and hands it to the flush, so no power is taken twice
    hams, ks, _ = dimer_chain(helpers.philox(67), 4)
    counts = helpers.count_linalg(monkeypatch, "matrix_power")
    ep_core.detect_ep(helpers.transformed_jordan_block(helpers.philox(5), 9))
    compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), single_entry_coupling(1.0, 3, 2))
    compose.compose_many(hams, ks)
    assert counts == {"matrix_power": 0}
