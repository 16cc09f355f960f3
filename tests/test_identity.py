"""Bit identity of detect_ep and jordan_chain with their plain-numpy references.

The certification kernels decide most norm tests on cheap brackets, inline, and
share one error scope per call; none of that may move a returned bit.  Each
output is compared byte for byte with helpers.reference_detect (one SVD per
norm) and helpers.reference_chain (the recipe in jordan_chain's docstring).
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import helpers
from epkit import cmatrix, compose, ep_core, jordan
from epkit.errors import NumericalError, StructureError
from epkit.models import pt_dimer, pt_trimer, single_entry_coupling

FAMILIES = ("block", "direct_sum", "distinct", "dimer", "trimer", "composite")
FULL_ORDER_FAMILIES = ("block", "dimer", "trimer", "composite")


def _bits(x) -> bytes:
    z = complex(x)
    return struct.pack("<dd", z.real, z.imag)


@st.composite
def certification_inputs(draw, families=FAMILIES):
    """H from one of the families, scaled by 10**e with e down to -100 and up to +100 where ||N||_2^dim allows.

    block: a transformed Jordan block of dim 1-12; direct_sum: J_p + J_q, p, q <= 6; distinct: a
    spectrum of dim 2-12 with well separated eigenvalues; dimer, trimer and composite: the PT models at
    their EPs and the 5x5 composite of the two, coupled by a dense or single-entry K.
    """
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(families))
    eigenvalue = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    omega0, g_a, g_b = eigenvalue.real, 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0)
    if family == "block":
        h = helpers.transformed_jordan_block(rng, draw(st.integers(1, 12)), eigenvalue)
    elif family == "direct_sum":
        p, q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        h = block_diag(helpers.transformed_jordan_block(rng, p, eigenvalue),
                       helpers.transformed_jordan_block(rng, q, eigenvalue))
    elif family == "distinct":
        h = helpers.random_distinct_spectrum(rng, draw(st.integers(2, 12)))
    elif family == "dimer":
        h = pt_dimer(omega0, g_a)
    elif family == "trimer":
        h = pt_trimer(omega0, g_b)
    else:
        k = helpers.complex_uniform(rng, (3, 2))
        if draw(st.booleans()):
            k[:] = 0.0
            k[0, 0] = 10.0 ** rng.uniform(-1.0, 1.0)
        h = np.block([[pt_dimer(omega0, g_a), np.zeros((2, 3))], [k, pt_trimer(omega0, g_b)]])
    dim = h.shape[0]
    top = 100 if dim <= 2 else 300 // (dim + 1)
    h = 10.0 ** draw(st.one_of(st.sampled_from([0, -100, top]), st.integers(-100, top))) * h
    _, nmat = ep_core.traceless_part(h)
    try:  # the references take ||N||_2^dim as a Python float
        in_range = cmatrix.spectral_norm(nmat) ** dim < 1e300
    except OverflowError:
        in_range = False
    assume(in_range)
    return h


def nil_tols():
    """None (default_nil_tol), a nil_tol from 1e-12 to 1e-4, or one within 2% of 5e-8."""
    near_cap = st.sampled_from([0.98, 1.0, 1.02]).map(lambda f: f * 5e-8)
    return st.one_of(st.none(), near_cap, st.floats(-12.0, -4.0).map(lambda e: 10.0**e))


@settings(deadline=None, max_examples=400)
@given(certification_inputs(), nil_tols())
def test_detect_ep_matches_the_plain_reference_bit_for_bit(h, nil_tol):
    try:
        order, mean, nmat, power, xi = helpers.reference_detect(h, nil_tol)
    except NumericalError:
        with pytest.raises(NumericalError):
            ep_core.detect_ep(h, nil_tol)
        return
    report = ep_core.detect_ep(h, nil_tol)
    assert report.order == order
    assert _bits(report.ep_eigenvalue) == _bits(mean)
    assert report.nilpotent.tobytes() == nmat.tobytes()
    if power is None:
        assert report.top_power is None and report.response_strength is None
    else:
        assert report.top_power.tobytes() == power.tobytes()
        assert _bits(report.response_strength) == _bits(xi)


@st.composite
def order_two_inputs(draw):
    """A 2x2 H near or at an EP: the dimer, N = [[e, 1], [-e^2, -e]] and [[0, 1], [d, 0]] (whose flush removes
    the entries below nil_tol * ||N||_2), or a nilpotent u v^H plus a perturbation of 1e-16 to 1e-2, each
    shifted by a random eigenvalue and scaled by 10**(-100 ... 100)."""
    rng = helpers.philox(draw(st.integers(0, 2**32 - 1)))
    eigenvalue = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    family = draw(st.sampled_from(["dimer", "exact", "corner", "perturbed"]))
    small = 10.0 ** rng.uniform(-16.0, -2.0)
    if family == "dimer":
        n = pt_dimer(0.0, 10.0 ** rng.uniform(-1.0, 1.0))
    elif family == "exact":
        n = np.array([[small, 1.0], [-small * small, -small]])
    elif family == "corner":
        n = np.array([[0.0, 1.0], [small, 0.0]])
    else:
        u = helpers.complex_uniform(rng, 2)
        n = np.outer(u, [u[1], -u[0]]) + small * helpers.complex_uniform(rng, (2, 2))  # (u v^H)^2 = 0
    return 10.0 ** draw(st.integers(-100, 100)) * (n + eigenvalue * np.eye(2))


@settings(deadline=None, max_examples=300)
@given(order_two_inputs(), nil_tols())
@example(np.array([[1.0, 1.0], [-1.0 + 4e-4, -1.0]]), 1e-3)  # not rank one: sigma_2 = 2e-4 passes k = 2 at 1e-3
@example(np.array([[0.0, 1.0], [1e-12, 0.0]]), None)  # the flush removes the 1e-12 entry
def test_order_two_response_strength_is_the_rank_one_norm_of_its_top_power(h, nil_tol):
    # the response strength is what ep_core._rank_one_norm returns for the reported top power, bit for bit:
    # ||N||_F where ||N y|| certifies rank one, else the SVD's sigma_1
    try:
        report = ep_core.detect_ep(h, nil_tol)
    except NumericalError:
        with pytest.raises(NumericalError):
            helpers.reference_detect(h, nil_tol)
        return
    assume(report.is_full_ep)
    with ep_core._overflow_scope():
        want = ep_core._rank_one_norm(report.top_power, int(np.abs(report.top_power).argmax()))[0]
    assert _bits(report.response_strength) == _bits(want)


@settings(deadline=None, max_examples=200)
@given(certification_inputs(FULL_ORDER_FAMILIES))
def test_detect_ep_carries_the_pair_its_fallback_and_plain_numpy_derive(h):
    # (u, y) is taken once, where the top power is certified; a report made without it derives the same bits
    try:
        report = ep_core.detect_ep(h)
    except NumericalError:
        assume(False)
    assume(report.is_full_ep)
    power = report.top_power
    row = power[int(np.argmax(np.abs(power))) // report.dim]  # the row of the first largest entry
    carried = [v.tobytes() for v in report._pair]
    with ep_core._overflow_scope():  # both run in the caller's scope, as in epkit
        fallback = dataclasses.replace(report)._pair
        y = row.conj()
        if math.hypot(*np.abs(row).tolist()) < np.finfo(float).tiny:  # 1 / norm overflows: scale by 2**600 first
            y = (y.view(float) * 2.0**600).view(complex)
        y = y / math.hypot(*np.abs(y).tolist())
        plain = [(power @ y).tobytes(), y.tobytes()]
    assert [v.tobytes() for v in fallback] == carried
    assert plain == carried


@pytest.mark.parametrize("g_a, twin", [(2.0**-1060, 2.0**-10), (1e-319, math.ldexp(1e-319, 600))],
                         ids=["power_of_two", "subnormal"])
def test_a_subnormal_row_norm_gives_the_pair_of_the_row_scaled_by_a_power_of_two(g_a, twin):
    # 1 / ||row|| overflows a double, so the row is first scaled by 2**600, exactly: y is that of the dimer at
    # twin, a power of two times g_a
    report = ep_core.detect_ep(pt_dimer(0.0, g_a))
    assert report.is_full_ep and 0.0 < report.response_strength < np.finfo(float).tiny
    u, y = report._pair
    assert np.isfinite(u).all() and np.isfinite(y).all()
    assert y.tobytes() == ep_core.detect_ep(pt_dimer(0.0, twin))._pair[1].tobytes()


@pytest.mark.parametrize("dense", [False, True], ids=["single_entry", "dense"])
def test_jordan_chain_of_a_composite_starts_at_its_carried_y(dense):
    rng = helpers.philox(35)
    for _ in range(16):
        omega0 = rng.uniform(-1.0, 1.0)
        a, b = pt_dimer(omega0, 10.0 ** rng.uniform(-1.0, 1.0)), pt_trimer(omega0, 10.0 ** rng.uniform(-1.0, 1.0))
        k = helpers.complex_uniform(rng, (3, 2)) if dense else single_entry_coupling(rng.uniform(0.1, 10), 3, 2)
        system = compose.block_compose(a, b, k)
        report = system.report
        y = report._pair[1]
        assert y[:2].tobytes() == system.rep_a._pair[1].tobytes() and not y[2:].any()  # y = y_a (+) 0
        vectors = helpers.per_vector_chain(report.nilpotent, y)[0]
        assert [v.tobytes() for v in jordan.jordan_chain(report).vectors] == [v.tobytes() for v in vectors]


@settings(deadline=None, max_examples=300)
@given(certification_inputs(FULL_ORDER_FAMILIES))
def test_jordan_chain_matches_the_docstring_recipe_bit_for_bit(h):
    try:
        report = ep_core.detect_ep(h)
    except NumericalError:
        assume(False)
    assume(report.is_full_ep)
    try:
        vectors, chain, normalization, orthogonality = helpers.reference_chain(report.nilpotent, report._pair[1])
    except (NumericalError, StructureError) as exc:
        with pytest.raises(type(exc)):
            jordan.jordan_chain(report)
        return
    with np.errstate(over="ignore"):  # ||j_n|| = 1 / xi may overflow, and jordan_chain then raises
        norms = [float(np.linalg.norm(v)) for v in vectors]
    if not np.isfinite(norms).all():
        with pytest.raises(NumericalError):
            jordan.jordan_chain(report)
        return
    budget = max(1e-10 * cmatrix.spectral_norm(report.nilpotent), 64 * np.finfo(float).eps)
    accepted = (
        normalization <= 1e-12
        and all(r <= 1e-10 * norms[-1] * norms[l] for l, r in enumerate(orthogonality))
        and chain[0] <= budget
        and all(chain[l] <= budget * norms[l - 1] for l in range(1, len(chain)))
    )
    if not accepted:
        with pytest.raises(StructureError):
            jordan.jordan_chain(report)
        return
    got = jordan.jordan_chain(report)
    assert [v.tobytes() for v in got.vectors] == [v.tobytes() for v in vectors]
    assert [_bits(r) for r in got.chain_residuals] == [_bits(r) for r in chain]
    assert _bits(got.normalization_residual) == _bits(normalization)
    assert [_bits(r) for r in got.orthogonality_residuals] == [_bits(r) for r in orthogonality]


def _chain_reports(family: str, rng):
    """Certified reports whose chains cover dims 1-16.

    block: per dim 1-16, transformed Jordan blocks (helpers.transformed_jordan_block, which certify up to dim
    12) and Jordan blocks under a random diagonal similarity (exactly nilpotent at every dim); dimer_chain:
    compose_many chains of 2-8 dimers, through the block-theorem report and, where it certifies, detect_ep of
    the assembled H; composite: certify-style 5x5 dimer + trimer composites with a single-entry or dense K.
    """
    def certified(h):
        try:
            report = ep_core.detect_ep(h)
        except NumericalError:
            return []
        return [report] if report.is_full_ep else []

    for _ in range(3):
        if family == "block":
            for dim in range(1, 17):
                eigenvalue = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                yield from certified(helpers.transformed_jordan_block(rng, dim, eigenvalue))
                d = 10.0 ** rng.uniform(-0.5, 0.5, dim) * np.exp(2j * np.pi * rng.random(dim))
                yield from certified(eigenvalue * np.eye(dim) + (d[:, None] / d[None, :]) * np.eye(dim, k=1))
        elif family == "dimer_chain":
            for depth in range(2, 9):
                omega0 = rng.uniform(0.5, 1.5)
                hams = [pt_dimer(omega0, 10.0 ** rng.uniform(-0.3, 0.3)) for _ in range(depth)]
                system = compose.compose_many(hams, [helpers.complex_uniform(rng, (2, 2 * j)) for j in range(1, depth)])
                yield system.report
                yield from certified(system.h)
        else:
            for dense in (False, True):
                omega0 = rng.uniform(-1.0, 1.0)
                a = pt_dimer(omega0, 10.0 ** rng.uniform(-1.0, 1.0))
                b = pt_trimer(omega0, 10.0 ** rng.uniform(-1.0, 1.0))
                k = helpers.complex_uniform(rng, (3, 2)) if dense else single_entry_coupling(rng.uniform(0.1, 10), 3, 2)
                yield from certified(np.block([[a, np.zeros((2, 3))], [k, b]]))


@pytest.mark.parametrize("family", ["block", "dimer_chain", "composite"])
def test_jordan_chain_vectors_match_the_per_vector_recipe_byte_for_byte(family):
    dims = set()
    for report in _chain_reports(family, helpers.philox(28)):
        try:
            vectors = helpers.per_vector_chain(report.nilpotent, report._pair[1])[0]
            chain = jordan.jordan_chain(report)
        except (NumericalError, StructureError):
            continue
        assert [v.tobytes() for v in chain.vectors] == [v.tobytes() for v in vectors]
        assert _bits(jordan.response_from_chain(chain)) == _bits(1.0 / np.linalg.norm(vectors[-1]))
        dims.add(report.dim)
    assert dims == {"block": set(range(1, 17)), "dimer_chain": set(range(4, 17, 2)), "composite": {5}}[family]


@settings(deadline=None, max_examples=300)
@given(certification_inputs(FULL_ORDER_FAMILIES))
def test_chain_residuals_agree_with_the_per_vector_recipe_to_rounding(h):
    try:
        report = ep_core.detect_ep(h)
    except NumericalError:
        assume(False)
    assume(report.is_full_ep)
    try:
        chain = jordan.jordan_chain(report)
    except (NumericalError, StructureError):
        assume(False)
    _, residuals, _, overlaps = helpers.per_vector_chain(report.nilpotent, report._pair[1])
    n, eps = chain.n, np.finfo(float).eps
    norms = [float(np.linalg.norm(v)) for v in chain.vectors]
    scale = float(np.linalg.norm(report.nilpotent))
    for l, (got, want) in enumerate(zip(chain.chain_residuals, residuals)):
        below = norms[l - 1] if l > 0 else 0.0
        assert abs(got - want) <= 8 * n * eps * (scale * norms[l] + below)
    for l, (got, want) in enumerate(zip(chain.orthogonality_residuals, overlaps)):
        assert abs(got - want) <= 8 * n * eps * norms[-1] * norms[l]
