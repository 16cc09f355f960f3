"""Bit identity of detect_ep and jordan_chain with their plain-numpy references.

The certification kernels decide most norm tests on cheap brackets, inline, and
share one error scope per call; none of that may move a returned bit.  Each
output is compared byte for byte with helpers.reference_detect (one SVD per
norm) and helpers.reference_chain (the recipe in jordan_chain's docstring).
"""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import helpers
from epkit import cmatrix, ep_core, jordan
from epkit.errors import NumericalError, StructureError
from epkit.models import pt_dimer, pt_trimer

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


@settings(deadline=None, max_examples=400)
@given(certification_inputs())
def test_detect_ep_matches_the_plain_reference_bit_for_bit(h):
    try:
        order, mean, nmat, power, xi = helpers.reference_detect(h)
    except NumericalError:
        with pytest.raises(NumericalError):
            ep_core.detect_ep(h)
        return
    report = ep_core.detect_ep(h)
    assert report.order == order
    assert _bits(report.ep_eigenvalue) == _bits(mean)
    assert report.nilpotent.tobytes() == nmat.tobytes()
    if power is None:
        assert report.top_power is None and report.response_strength is None
    else:
        assert report.top_power.tobytes() == power.tobytes()
        assert _bits(report.response_strength) == _bits(xi)


@settings(deadline=None, max_examples=300)
@given(certification_inputs(FULL_ORDER_FAMILIES))
def test_jordan_chain_matches_the_docstring_recipe_bit_for_bit(h):
    try:
        report = ep_core.detect_ep(h)
    except NumericalError:
        assume(False)
    assume(report.is_full_ep)
    try:
        vectors, chain, normalization, orthogonality = helpers.reference_chain(report.nilpotent, report.top_power)
    except (NumericalError, StructureError) as exc:
        with pytest.raises(type(exc)):
            jordan.jordan_chain(report)
        return
    with np.errstate(over="ignore"):  # ||j_n|| = 1 / xi may overflow; the budget then passes, as in jordan_chain
        norms = [float(np.linalg.norm(v)) for v in vectors]
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
