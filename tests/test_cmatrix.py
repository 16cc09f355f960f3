"""Tests for the dense complex linear algebra kernel."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from epkit import cmatrix, jordan
from epkit.ep_core import traceless_part
from epkit.errors import (
    DegeneracyError,
    ParameterError,
    ParseError,
)
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer, single_entry_coupling


def dimer_nilpotent(g):
    return traceless_part(pt_dimer(1.0, g))[1]


def trimer_nilpotent(g):
    return traceless_part(pt_trimer(1.0, g))[1]


# ---------------------------------------------------------------------------
# validation

@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)], ids=["real_part", "imaginary_part"])
def test_strided_non_finite_vector_rejected(bad):
    # every other entry of a 1-d array: the last axis is not contiguous
    data = np.ones(6, dtype=complex)
    data[2] = bad
    with pytest.raises(ParameterError):
        cmatrix.as_vector(data[::2])
    np.testing.assert_array_equal(cmatrix.as_vector(data[1::2]), np.ones(3))


def test_transposed_views_accepted():
    a = helpers.complex_uniform(helpers.philox(3), (2, 3))
    assert cmatrix.frobenius_norm(a.T) == cmatrix.frobenius_norm(np.ascontiguousarray(a.T))
    bad = a.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ParameterError):
        cmatrix.as_matrix(bad.T)


# ---------------------------------------------------------------------------
# norms, and the helpers.rank oracle

def test_frobenius_zero():
    assert cmatrix.frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_dimer_nilpotent():
    assert cmatrix.frobenius_norm(dimer_nilpotent(1.5)) == pytest.approx(3.0, rel=1e-14)


def test_frobenius_unit_entries():
    assert cmatrix.frobenius_norm([[1.0, 1j], [0.0, 0.0]]) == pytest.approx(np.sqrt(2), rel=1e-14)


@st.composite
def norm_inputs(draw, ndims=(1, 2)):
    """A 1-d or 2-d complex array at scale 10**-300 ... 10**300, as a C-ordered, transposed or strided view.

    Entries are zero or of modulus up to sqrt(2) times the scale, so at large
    scales the sum of squares overflows.
    """
    shape = tuple(draw(st.integers(1, 6)) for _ in range(draw(st.sampled_from(ndims))))
    size = int(np.prod(shape))
    step = draw(st.sampled_from([1, 2, -1, -3]))
    unit = st.floats(-1.0, 1.0)
    entries = draw(st.lists(st.builds(complex, unit, unit), min_size=3 * size, max_size=3 * size))
    flat = (10.0 ** draw(st.integers(-300, 300)) * np.array(entries))[::step][:size]
    if draw(st.booleans()):
        return flat.reshape(shape[::-1]).T
    return flat.reshape(shape)


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


@settings(deadline=None, max_examples=400)
@given(norm_inputs())
def test_frobenius_kernel_matches_numpy_norm_bit_for_bit(a):
    with np.errstate(over="ignore"):
        assert _bits(cmatrix._frobenius_norm(a)) == _bits(np.linalg.norm(a))


@settings(deadline=None, max_examples=300)
@given(norm_inputs(ndims=(2,)))
def test_row_norms_match_numpy_norm_bit_for_bit(a):
    with np.errstate(over="ignore"):
        got, want = jordan._row_norms(a), np.linalg.norm(a, axis=1)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_spectral_identity():
    assert cmatrix.spectral_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_single_entry_coupling():
    assert cmatrix.spectral_norm(single_entry_coupling(1.0, 3, 2)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_bounded_by_frobenius():
    rng = helpers.philox(101)
    for _ in range(50):
        a = helpers.complex_uniform(rng, (5, 5))
        spec = cmatrix.spectral_norm(a)
        frob = cmatrix.frobenius_norm(a)
        assert frob / np.sqrt(5) - 1e-10 <= spec <= frob + 1e-10


def test_rank_zero_matrix():
    assert helpers.rank(np.zeros((3, 4))) == 0


def test_rank_of_top_nilpotent_power_is_one():
    system = dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    _, n = traceless_part(system.h)
    assert helpers.rank(np.linalg.matrix_power(n, 4)) == 1


def test_rank_identity():
    assert helpers.rank(np.eye(4)) == 4


# ---------------------------------------------------------------------------
# kernel vectors and minimum-norm solves

def test_kernel_vector_shift_block():
    v = cmatrix.kernel_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(v, [1.0, 0.0], atol=1e-15)


def test_kernel_vector_dimer():
    v = cmatrix.kernel_vector(dimer_nilpotent(1.5))
    assert np.allclose(v, np.array([1.0, -1j]) / np.sqrt(2), atol=1e-14)


def test_kernel_vector_trimer():
    v = cmatrix.kernel_vector(trimer_nilpotent(1.3))
    # proportional to (1, -i sqrt(2), -1), rephased so the largest entry is real
    assert np.allclose(v, np.array([1j, np.sqrt(2), -1j]) / 2.0, atol=1e-14)
    reference = np.array([1.0, -1j * np.sqrt(2), -1.0]) / 2.0
    assert abs(abs(np.vdot(reference, v)) - 1.0) < 1e-14


def test_kernel_vector_phase_and_norm():
    rng = helpers.philox(77)
    for dim in (2, 4, 6):
        n = helpers.transformed_jordan_block(rng, dim)
        v = cmatrix.kernel_vector(n)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        pivot = int(np.argmax(np.abs(v)))
        assert v[pivot].real > 0 and abs(v[pivot].imag) <= 1e-13 * abs(v[pivot])


def test_kernel_vector_degenerate():
    with pytest.raises(DegeneracyError):
        cmatrix.kernel_vector(np.zeros((2, 2)))
    with pytest.raises(DegeneracyError):
        cmatrix.kernel_vector(np.eye(3))


# ---------------------------------------------------------------------------
# eigenvalues (the helpers.eigenvalues oracle)

def test_eigenvalues_diagonal():
    vals = helpers.eigenvalues(np.diag([1.0 + 2j, 3.0]))
    assert np.allclose(vals, [1.0 + 2j, 3.0], atol=1e-14)


def test_eigenvalues_dimer_coalesce():
    vals = helpers.eigenvalues(pt_dimer(1.0, 1.5))
    assert np.max(np.abs(vals - 1.0)) < 1e-6


def test_eigenvalues_square_root_pair():
    vals = helpers.eigenvalues(np.array([[0.0, 1.0], [1e-4, 0.0]]))
    assert np.allclose(vals, [-0.01, 0.01], atol=1e-12)


def test_eigenvalue_ordering_deterministic():
    rng = helpers.philox(3)
    a = helpers.complex_uniform(rng, (6, 6))
    vals = helpers.eigenvalues(a)
    assert np.array_equal(vals, helpers.eigenvalues(a))
    keys = [(v.real, v.imag) for v in vals]
    assert keys == sorted(keys)


def test_eigenvalue_sum_matches_trace():
    rng = helpers.philox(11)
    for _ in range(30):
        a = helpers.complex_uniform(rng, (5, 5))
        assert abs(helpers.eigenvalues(a).sum() - np.trace(a)) <= 1e-10 * max(abs(np.trace(a)), 1.0)


# ---------------------------------------------------------------------------
# norm inequalities

def test_norm_inequalities_mixed_ranks():
    rng = helpers.philox(17)
    for _ in range(60):
        r = int(rng.integers(1, 5))
        rows = int(rng.integers(r, 8))
        cols = int(rng.integers(r, 8))
        a = helpers.random_fixed_rank(rng, rows, cols, r)
        spec = cmatrix.spectral_norm(a)
        frob = cmatrix.frobenius_norm(a)
        assert spec <= frob + 1e-10
        assert frob <= np.sqrt(helpers.rank(a)) * spec + 1e-10


def test_rank_one_norm_equality():
    rng = helpers.philox(19)
    for _ in range(30):
        a = helpers.random_fixed_rank(rng, 4, 6, 1)
        spec = cmatrix.spectral_norm(a)
        frob = cmatrix.frobenius_norm(a)
        assert abs(spec - frob) <= 1e-10 * frob


def test_spectral_norm_submultiplicative():
    rng = helpers.philox(23)
    for _ in range(30):
        a = helpers.complex_uniform(rng, (4, 5))
        b = helpers.complex_uniform(rng, (5, 3))
        assert cmatrix.spectral_norm(a @ b) <= cmatrix.spectral_norm(a) * cmatrix.spectral_norm(b) + 1e-10


# ---------------------------------------------------------------------------
# JSON wire format

def test_matrix_json_roundtrip():
    rng = helpers.philox(29)
    a = helpers.complex_uniform(rng, (3, 2))
    assert np.array_equal(cmatrix.matrix_from_json(cmatrix.matrix_to_json(a)), a)


def test_matrix_json_rejects_length_mismatch():
    with pytest.raises(ParseError):
        cmatrix.matrix_from_json({"rows": 2, "cols": 2, "entries": [[0.0, 0.0]] * 3})


@pytest.mark.parametrize(
    "entry",
    [[float("nan"), 0.0], [0.0, float("inf")], ["0", 0.0], [0.0], [0.0, 0.0, 0.0]],
)
def test_matrix_json_rejects_bad_entries(entry):
    with pytest.raises(ParseError):
        cmatrix.matrix_from_json({"rows": 1, "cols": 1, "entries": [entry]})


def test_matrix_json_rejects_missing_keys():
    with pytest.raises(ParseError):
        cmatrix.matrix_from_json({"rows": 1, "entries": [[0.0, 0.0]]})
    with pytest.raises(ParseError):
        cmatrix.matrix_from_json({"rows": 0, "cols": 1, "entries": []})


def test_vector_json_roundtrip():
    v = np.array([1.0 + 2j, -3j])
    payload = json.loads(json.dumps(cmatrix.vector_to_json(v)))
    assert payload["dim"] == 2
    assert np.array([complex(re, im) for re, im in payload["entries"]]).tobytes() == v.tobytes()
