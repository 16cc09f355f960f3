"""Tests for the built-in gain/loss dimer and trimer models."""

import numpy as np
import pytest

import helpers
from epkit import cmatrix, ep_core, jordan, models, perturb
from epkit.compose import composite_response
from epkit.errors import ParameterError, ParseError


def test_dimer_matrix_entries():
    h = models.pt_dimer(1.0, 1.5)
    assert np.array_equal(h, np.array([[1.0 + 1.5j, 1.5], [1.5, 1.0 - 1.5j]]))


def test_dimer_eigenvalues_coalesce_at_omega0():
    vals = helpers.eigenvalues(models.pt_dimer(2.0, 0.8))
    assert np.max(np.abs(vals - 2.0)) < 1e-6


def test_dimer_zero_frequency_is_traceless():
    ev, n = ep_core.traceless_part(models.pt_dimer(0.0, 0.9))
    assert ev == 0.0
    assert np.array_equal(n, models.pt_dimer(0.0, 0.9))


def test_trimer_detection():
    report = ep_core.detect_ep(models.pt_trimer(1.0, 1.3))
    assert report.order == 3
    assert report.response_strength == pytest.approx(6.76, rel=1e-10)


def test_trimer_last_jordan_vector_direction():
    g = 1.3
    chain = jordan.jordan_chain(ep_core.detect_ep(models.pt_trimer(1.0, g)))
    last = chain.vectors[-1]
    reference = np.array([0.5, 1j / np.sqrt(2), -0.5]) / (4 * g**2)
    overlap = abs(np.vdot(reference, last)) / (np.linalg.norm(reference) * np.linalg.norm(last))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(last) == pytest.approx(1.0 / (4 * g**2), rel=1e-12)


def test_closed_forms_across_parameters():
    rng = helpers.philox(127)
    for _ in range(20):
        g_a = 10.0 ** rng.uniform(-1, 1)
        g_b = 10.0 ** rng.uniform(-1, 1)
        k = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
        assert ep_core.response_strength(models.pt_dimer(1.0, g_a)) == pytest.approx(2 * g_a, rel=1e-10)
        assert ep_core.response_strength(models.pt_trimer(1.0, g_b)) == pytest.approx(4 * g_b**2, rel=1e-10)
        system = models.dimer_trimer_system(1.0, g_a, g_b, k)
        expected = np.sqrt(8.0) * abs(k) * g_a * g_b**2
        assert composite_response(system) == pytest.approx(expected, rel=1e-10)


def test_parity_time_structure():
    for h in (
        models.pt_dimer(1.0, 1.5),
        models.pt_trimer(1.0, 1.3),
    ):
        assert np.array_equal(np.conj(h[::-1, ::-1]), h)


def test_single_entry_coupling_layout():
    k = models.single_entry_coupling(2.0 - 1j, 3, 2, 1, 1)
    expected = np.zeros((3, 2), dtype=complex)
    expected[0, 0] = 2.0 - 1j
    assert np.array_equal(k, expected)
    assert np.array_equal(models.single_entry_coupling(0.0, 3, 2), np.zeros((3, 2)))


@pytest.mark.parametrize("row,col", [(1, 1), (3, 2), (2, 1)])
def test_single_entry_spectral_norm_any_placement(row, col):
    k = models.single_entry_coupling(0.7 + 0.2j, 3, 2, row, col)
    assert cmatrix.spectral_norm(k) == pytest.approx(abs(0.7 + 0.2j), rel=1e-12)
    assert helpers.rank(k) == 1


def test_single_entry_coupling_rejects_bad_position():
    with pytest.raises(ParameterError):
        models.single_entry_coupling(1.0, 3, 2, 4, 1)
    with pytest.raises(ParameterError):
        models.single_entry_coupling(1.0, 3, 2, 1, 0)


@pytest.mark.parametrize("call", [
    lambda: ep_core.default_nil_tol(0),
    lambda: models.single_entry_coupling(1.0, 0, 2),
    lambda: perturb.random_generic(0, 1),
    lambda: perturb.random_preserving(0, 2, 1),
], ids=["default_nil_tol", "single_entry_coupling", "random_generic", "random_preserving"])
def test_a_size_below_one_raises_parameter_error(call):
    with pytest.raises(ParameterError, match="must be positive|must be a positive integer|must be >= 1"):
        call()


@pytest.mark.parametrize(
    "args", [(3.0, 2), (3, 2.0), (3, 2, 1.5, 1), (3, 2, 1, np.float64(1.0)), ("3", 2)],
    ids=["n_b", "n_a", "row", "col", "string"],
)
def test_single_entry_coupling_rejects_non_integer_sizes_and_position(args):
    with pytest.raises(ParameterError, match="must be an integer"):
        models.single_entry_coupling(1.0, *args)


def test_single_entry_coupling_rejects_boolean_position():
    # operator.index(True) is 1, so row=True, col=True put k at (1, 1)
    with pytest.raises(ParameterError, match="must be an integer"):
        models.single_entry_coupling(1.0, 3, 2, True, True)


def test_single_entry_coupling_accepts_numpy_integers():
    k = models.single_entry_coupling(2.0, np.int64(3), np.int32(2), np.int8(3), np.uint16(2))
    expected = np.zeros((3, 2), dtype=complex)
    expected[2, 1] = 2.0
    assert np.array_equal(k, expected)


def test_dimer_trimer_system_order_five():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    report = ep_core.detect_ep(system.h)
    assert report.order == 5
    assert report.ep_eigenvalue == pytest.approx(1.0, abs=1e-14)


def test_dimer_trimer_degenerate_without_coupling():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 0.0)
    assert ep_core.detect_ep(system.h).order == 3


def test_coupling_amplitude_value():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    chain_b = jordan.jordan_chain(ep_core.detect_ep(models.pt_trimer(1.0, 1.3)))
    psi_a = cmatrix.kernel_vector(ep_core.detect_ep(models.pt_dimer(1.0, 1.5)).nilpotent)
    amplitude = jordan.coupling_amplitude(chain_b, psi_a, system.k)
    assert abs(amplitude) == pytest.approx(1.0 / (2 * np.sqrt(2)), rel=1e-10)


def test_genericity_product_parametric_form():
    from epkit.compose import genericity_product

    rng = helpers.philox(131)
    fixed = np.array([[-1j, -1.0], [-np.sqrt(2), 1j * np.sqrt(2)], [1j, 1.0]])
    for _ in range(10):
        g_a = 10.0 ** rng.uniform(-1, 1)
        g_b = 10.0 ** rng.uniform(-1, 1)
        k = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
        system = models.dimer_trimer_system(1.0, g_a, g_b, k)
        expected = k * g_a * g_b**2 * fixed
        c = genericity_product(system)
        assert np.allclose(c, expected, atol=1e-10 * np.linalg.norm(expected))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_model_parameter_validation(bad):
    with pytest.raises(ParameterError):
        models.pt_dimer(1.0, bad)
    with pytest.raises(ParameterError):
        models.pt_trimer(1.0, bad)


def test_trimer_rejects_a_coupling_whose_gain_overflows():
    # g_b = 1.5e308 is finite, but the locked gain/loss sqrt(2) * g_b is not
    with pytest.raises(ParameterError, match="alpha_b"):
        models.pt_trimer(1.0, 1.5e308)


# ---------------------------------------------------------------------------
# named-system parsing

def test_load_system_models():
    dimer = models.load_system({"model": "dimer", "omega0": 1.0, "g_a": 1.5})
    assert dimer.h.shape == (2, 2)
    trimer = models.load_system({"model": "trimer", "omega0": 1.0, "g_b": 1.3})
    assert trimer.h.shape == (3, 3)
    full = models.load_system(
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]}
    )
    assert full.h.shape == (5, 5) and full.n_a == 2


def test_load_system_plain_matrix():
    loaded = models.load_system(cmatrix.matrix_to_json(models.pt_dimer(1.0, 1.5)))
    assert np.array_equal(loaded.h, models.pt_dimer(1.0, 1.5))


def test_load_system_scalar_coupling_forms():
    a = models.load_system({"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": 1.0})
    b = models.load_system(
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]}
    )
    assert np.array_equal(a.h, b.h)


def test_load_system_rejects_bad_input():
    with pytest.raises(ParseError):
        models.load_system({"model": "unknown"})
    with pytest.raises(ParseError):
        models.load_system({"model": "dimer", "omega0": 1.0})
    with pytest.raises(ParseError):
        models.load_system({"model": "dimer", "omega0": 1.0, "g_a": -2.0})
    with pytest.raises(ParseError):
        models.load_system([1, 2, 3])
