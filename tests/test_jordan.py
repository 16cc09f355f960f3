"""Tests for gauge-fixed Jordan chains and the coupling amplitude."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from epkit import cmatrix, ep_core, jordan
from epkit.compose import block_compose, composite_response
from epkit.errors import NumericalError, ParameterError, PreconditionError, ShapeError, StructureError
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer, single_entry_coupling


def chain_for(h, **kwargs):
    return jordan.jordan_chain(ep_core.detect_ep(h), **kwargs)


def assert_chain_conditions(chain, nmat, tol=1e-10):
    vectors = chain.vectors
    assert np.linalg.norm(nmat @ vectors[0]) <= tol
    for l in range(1, chain.n):
        assert np.linalg.norm(nmat @ vectors[l] - vectors[l - 1]) <= tol
    assert abs(np.vdot(vectors[0], vectors[0]) - 1.0) <= 1e-12
    for l in range(chain.n - 1):
        assert abs(np.vdot(vectors[-1], vectors[l])) <= 1e-10


def test_chain_single_jordan_block():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    chain = chain_for(0.5 * np.eye(2) + n)
    assert np.allclose(chain.vectors[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(chain.vectors[1], [0.0, 1.0], atol=1e-14)


def test_chain_dimer_closed_form():
    g = 1.5
    chain = chain_for(pt_dimer(1.0, g))
    expected_j2 = np.array([-1j, 1.0]) / (2 * np.sqrt(2) * g)
    assert np.allclose(chain.vectors[1], expected_j2, atol=1e-13)
    assert np.linalg.norm(chain.vectors[1]) == pytest.approx(1.0 / (2 * g), rel=1e-12)


def test_chain_trimer_closed_form():
    g = 1.3
    chain = chain_for(pt_trimer(1.0, g))
    expected_j3 = np.array([-0.5j, 1.0 / np.sqrt(2), 0.5j]) / (4 * g**2)
    assert np.allclose(chain.vectors[2], expected_j3, atol=1e-13)


def test_chain_conditions_on_models():
    for h in (pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), dimer_trimer_system(1.0, 1.5, 1.3, 1.0).h):
        report = ep_core.detect_ep(h)
        chain = jordan.jordan_chain(report)
        assert_chain_conditions(chain, np.asarray(report.nilpotent))


def test_chain_conditions_random_blocks():
    rng = helpers.philox(67)
    for dim in range(2, 9):
        for _ in range(5):
            h = helpers.transformed_jordan_block(rng, dim, eigenvalue=0.3 - 0.1j)
            report = ep_core.detect_ep(h)
            chain = jordan.jordan_chain(report)
            assert_chain_conditions(chain, np.asarray(report.nilpotent))


def test_chain_residuals_recorded():
    chain = chain_for(pt_trimer(1.0, 1.3))
    assert len(chain.chain_residuals) == 3
    assert max(chain.chain_residuals) <= 1e-12
    assert chain.normalization_residual <= 1e-12
    assert len(chain.orthogonality_residuals) == 2


@pytest.mark.parametrize(
    "h", [pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), dimer_trimer_system().h], ids=["dimer", "trimer", "composite"]
)
def test_chain_takes_no_svd_lstsq_or_matrix_power(monkeypatch, h):
    report = ep_core.detect_ep(h)
    calls = helpers.count_linalg(monkeypatch, "svd", "lstsq", "matrix_power")
    jordan.jordan_chain(report)
    assert calls == {"svd": 0, "lstsq": 0, "matrix_power": 0}


def _chain_outcome(report):
    """The chain's vector bytes and residuals, or the error jordan_chain raises."""
    try:
        chain = jordan.jordan_chain(report)
    except StructureError as exc:
        return str(exc)
    return b"".join(v.tobytes() for v in chain.vectors), chain.chain_residuals


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 40), st.floats(-1.0, 1.0), st.integers(-140, 140), st.integers(0, 2**32 - 1))
def test_chain_verdict_matches_the_exact_norm_reference(dim, log_ratio, exponent, seed):
    # N j_1 is moved off 0 by 10**log_ratio times the budget 1e-10 * ||N||_2, leaving every other
    # chain condition as it was, so the budget is settled inside the brackets of ||N||_2 as often as
    # outside them; the chain must pass or fail as it does on spectral_norm(N)
    rng = helpers.philox(seed)
    if dim <= 10:
        h = helpers.transformed_jordan_block(rng, dim)
    else:  # a unitary similarity keeps a large block at full order
        q, _ = np.linalg.qr(helpers.complex_uniform(rng, (dim, dim)))
        h = q @ np.diag(np.ones(dim - 1, dtype=complex), 1) @ q.conj().T
    try:
        report = ep_core.detect_ep(10.0 ** (exponent / (dim - 1)) * h)  # the top power scaled by 10**exponent
    except NumericalError:  # a top power short of rank one
        report = None
    outcome = _chain_outcome(report) if report is not None and report.is_full_ep else None
    assume(isinstance(outcome, tuple))  # a chain to move off, not a StructureError
    vectors = np.frombuffer(outcome[0], dtype=complex).reshape(dim, dim)
    q, _ = np.linalg.qr(np.array(vectors[1:]).T)
    w = vectors[0] - q @ (q.conj().T @ vectors[0])  # orthogonal to j_2 ... j_n, which N moves as before
    w /= np.linalg.norm(w)
    u = helpers.complex_uniform(rng, dim)
    u /= np.linalg.norm(u)
    size = 10.0**log_ratio * 1e-10 * cmatrix.spectral_norm(report.nilpotent) / abs(np.vdot(w, vectors[0]))
    moved = report.nilpotent + size * np.outer(u, w.conj())
    fresh, exact = dataclasses.replace(report, nilpotent=moved), dataclasses.replace(report, nilpotent=moved.copy())
    exact.nilpotent_norm  # the budget of this report is then decided on spectral_norm(N)
    assert _chain_outcome(fresh) == _chain_outcome(exact)


# Subsystem strengths two orders of magnitude apart, where a backward solve loses accuracy.
G_A, G_B, K = 0.10692335088937932, 7.3527161499842775, 0.962 - 1.181j


def mp_models(g_a, g_b, k):
    """Dimer, trimer and their single-entry composite at omega0 = 1, exactly at their points in mpmath."""
    ga, gb, alpha_b = mpmath.mpf(g_a), mpmath.mpf(g_b), mpmath.sqrt(2) * mpmath.mpf(g_b)
    dimer = mpmath.matrix([[mpmath.mpc(1, ga), ga], [ga, mpmath.mpc(1, -ga)]])
    trimer = mpmath.matrix([[mpmath.mpc(1, alpha_b), gb, 0], [gb, 1, gb], [0, gb, mpmath.mpc(1, -alpha_b)]])
    composite = mpmath.zeros(5)
    composite[0:2, 0:2], composite[2:5, 2:5], composite[2, 0] = dimer, trimer, mpmath.mpc(k)
    return {"dimer": dimer, "trimer": trimer, "composite": composite}


def mp_reference_chain(h):
    """Gauge-fixed chain of an exact mpmath H from the column side of P = N^(n-1) = j_1 w^H.

    j_1 is the unit largest column of P with kernel_vector's phase rule, w = P^H j_1,
    j_n = w / ||w||^2 and j_l = N^(n-l) j_n.
    """
    n = h.rows
    mean = sum(h[i, i] for i in range(n)) / n
    nmat = h - mean * mpmath.eye(n)
    power = nmat ** (n - 1)
    columns = [power.column(c) for c in range(n)]
    j1 = max(columns, key=mpmath.norm)
    j1 = j1 / mpmath.norm(j1)
    mods = [abs(x) for x in j1]
    pivot = next(i for i, m in enumerate(mods) if m >= (1 - mpmath.mpf("1e-12")) * max(mods))
    j1 = j1 * (mpmath.conj(j1[pivot]) / mods[pivot])
    w = power.H * j1
    chain = [w / mpmath.norm(w) ** 2]
    for _ in range(n - 1):
        chain.append(nmat * chain[-1])
    assert mpmath.norm(chain[-1] - j1) <= mpmath.mpf("1e-40")
    return [np.array([complex(x) for x in v]) for v in reversed(chain)]


@pytest.mark.parametrize(
    "name, h",
    [
        ("dimer", pt_dimer(1.0, G_A)),
        ("trimer", pt_trimer(1.0, G_B)),
        ("composite", dimer_trimer_system(1.0, G_A, G_B, K).h),
    ],
    ids=["dimer", "trimer", "composite"],
)
def test_chain_matches_high_precision_reference(name, h):
    with mpmath.workdps(60):
        reference = mp_reference_chain(mp_models(G_A, G_B, K)[name])
    chain = chain_for(h)
    for computed, exact in zip(chain.vectors, reference, strict=True):
        assert np.linalg.norm(computed - exact) <= 1e-11 * np.linalg.norm(exact)


def test_zero_top_power_raises_structure_error():
    report = ep_core.detect_ep(pt_trimer(1.0, 1.3))
    zeroed = dataclasses.replace(report, top_power=np.zeros((3, 3), dtype=complex))
    with pytest.raises(StructureError, match="zero"):
        jordan.jordan_chain(zeroed)


@pytest.mark.parametrize("g_a", [1e-150, 1e-154, 1e-155])
def test_chain_whose_vector_norm_overflows_raises_numerical_error(g_a):
    # ||j_2|| = 1 / xi = 1 / (2 g_a), whose sum of squares overflows for g_a below about 3.7e-155;
    # an infinite ||j_n|| would pass every orthogonality test
    report = ep_core.detect_ep(pt_dimer(1.0, g_a))
    if g_a > 1e-155:
        assert jordan.response_from_chain(jordan.jordan_chain(report)) == pytest.approx(2 * g_a, rel=1e-12)
    else:
        with pytest.raises(NumericalError, match="Jordan vector overflows"):
            jordan.jordan_chain(report)


def test_chain_requires_full_order():
    with pytest.raises(PreconditionError):
        jordan.jordan_chain(ep_core.detect_ep(np.diag([0.0, 1.0])))


def test_chain_scalar_case():
    chain = chain_for(np.array([[1.5 + 0.5j]]))
    assert chain.n == 1
    assert np.allclose(chain.vectors[0], [1.0])
    assert jordan.response_from_chain(chain) == pytest.approx(1.0)


def test_response_from_chain_models():
    assert jordan.response_from_chain(chain_for(pt_dimer(1.0, 1.5))) == pytest.approx(3.0, rel=1e-10)
    assert jordan.response_from_chain(chain_for(pt_trimer(1.0, 1.3))) == pytest.approx(6.76, rel=1e-10)


def test_response_routes_agree_random_blocks():
    rng = helpers.philox(71)
    for dim in (3, 5, 7):
        h = helpers.transformed_jordan_block(rng, dim, eigenvalue=1.0)
        via_norm = ep_core.response_strength(h)
        via_chain = jordan.response_from_chain(chain_for(h))
        assert abs(via_norm - via_chain) <= 1e-8 * via_norm


def test_chain_of_a_small_scale_ep_matches_detect_ep():
    # in the gauge ||j_1|| = 1, ||j_l|| and the rounding of <j_n, j_l> grow like ||N||^-(l-1),
    # so an orthogonality bound of 1e-10 * ||j_n|| alone rejected both well-conditioned points
    q, _ = np.linalg.qr(helpers.complex_uniform(helpers.philox(3), (10, 10)))
    block = q @ (0.1 * np.eye(10, k=1)) @ q.conj().T
    for h in (dimer_trimer_system(1.0, 0.01, 0.01, 0.01).h, block):
        report = ep_core.detect_ep(h)
        assert jordan.response_from_chain(jordan.jordan_chain(report)) == pytest.approx(
            report.response_strength, rel=1e-12
        )


def test_response_gauge_invariant_under_global_phase():
    chain = chain_for(pt_trimer(1.0, 1.3))
    rotated = jordan.JordanChain(
        vectors=tuple(np.exp(0.7j) * v for v in chain.vectors),
        chain_residuals=chain.chain_residuals,
        normalization_residual=chain.normalization_residual,
        orthogonality_residuals=chain.orthogonality_residuals,
    )
    assert jordan.response_from_chain(rotated) == jordan.response_from_chain(chain)


def test_rank_one_reconstruction():
    for h in (pt_trimer(1.0, 1.3), dimer_trimer_system(1.0, 1.5, 1.3, 1.0).h):
        report = ep_core.detect_ep(h)
        chain = jordan.jordan_chain(report)
        n = np.asarray(report.nilpotent)
        power = np.linalg.matrix_power(n, report.dim - 1)
        last = chain.vectors[-1]
        reconstruction = np.outer(chain.vectors[0], last.conj()) / np.linalg.norm(last) ** 2
        assert np.linalg.norm(power - reconstruction) <= 1e-8 * np.linalg.norm(power)


# ---------------------------------------------------------------------------
# coupling amplitude

def trimer_chain_and_dimer_state(g_a=1.5, g_b=1.3):
    chain_b = chain_for(pt_trimer(1.0, g_b))
    psi_a = cmatrix.kernel_vector(ep_core.detect_ep(pt_dimer(1.0, g_a)).nilpotent)
    return chain_b, psi_a


def test_coupling_amplitude_zero_coupling():
    chain_b, psi_a = trimer_chain_and_dimer_state()
    assert jordan.coupling_amplitude(chain_b, psi_a, np.zeros((3, 2))) == 0


@pytest.mark.parametrize("k", [1.0, 2.5, 0.3 - 1.1j])
def test_coupling_amplitude_single_entry(k):
    chain_b, psi_a = trimer_chain_and_dimer_state()
    amplitude = jordan.coupling_amplitude(chain_b, psi_a, single_entry_coupling(k, 3, 2))
    assert abs(amplitude) == pytest.approx(abs(k) / (2 * np.sqrt(2)), rel=1e-10)


def test_coupling_amplitude_orthogonal_target():
    chain_b, psi_a = trimer_chain_and_dimer_state()
    j_tilde = chain_b.vectors[-1] / np.linalg.norm(chain_b.vectors[-1])
    # K maps the dimer state onto a vector orthogonal to the last Jordan vector
    target = np.array([1.0, 0.0, 0.0], dtype=complex)
    target -= np.vdot(j_tilde, target) * j_tilde
    k = np.outer(target, psi_a.conj())
    assert abs(jordan.coupling_amplitude(chain_b, psi_a, k)) <= 1e-14


def test_coupling_amplitude_bounded_by_spectral_norm():
    rng = helpers.philox(73)
    chain_b, psi_a = trimer_chain_and_dimer_state()
    for _ in range(25):
        k = helpers.complex_uniform(rng, (3, 2))
        assert abs(jordan.coupling_amplitude(chain_b, psi_a, k)) <= cmatrix.spectral_norm(k) + 1e-12


def test_factorization_matches_composite_response():
    rng = helpers.philox(79)
    h_a, h_b = pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3)
    chain_b, psi_a = trimer_chain_and_dimer_state()
    xi_a, xi_b = 3.0, 6.76
    for _ in range(25):
        k = helpers.complex_uniform(rng, (3, 2))
        system = block_compose(h_a, h_b, k)
        via_factorization = xi_a * xi_b * abs(jordan.coupling_amplitude(chain_b, psi_a, k))
        assert via_factorization == pytest.approx(composite_response(system), rel=1e-8)


def test_coupling_amplitude_rejects_unnormalized_state():
    chain_b, psi_a = trimer_chain_and_dimer_state()
    with pytest.raises(ParameterError):
        jordan.coupling_amplitude(chain_b, 2.0 * psi_a, np.zeros((3, 2)))


def test_coupling_amplitude_shape_error():
    chain_b, psi_a = trimer_chain_and_dimer_state()
    with pytest.raises(ShapeError):
        jordan.coupling_amplitude(chain_b, psi_a, np.zeros((2, 3)))


@pytest.mark.parametrize("kind", ["single_entry", "dense"])
def test_certification_routes_call_no_numpy_norm(monkeypatch, kind):
    # on 2x2 ... 5x5 inputs np.linalg.norm's Python dispatch costs more than the sum it computes
    h_a, h_b = pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3)
    k = helpers.complex_uniform(helpers.philox(5), (3, 2)) if kind == "dense" else single_entry_coupling(0.7, 3, 2)
    calls = helpers.count_linalg(monkeypatch, "norm")
    system = block_compose(h_a, h_b, k)
    report = ep_core.detect_ep(system.h)
    via_chain = jordan.response_from_chain(jordan.jordan_chain(report))
    via_product = composite_response(system)
    rep_a, rep_b = ep_core.detect_ep(h_a), ep_core.detect_ep(h_b)
    amplitude = jordan.coupling_amplitude(jordan.jordan_chain(rep_b), cmatrix.kernel_vector(rep_a.nilpotent), k)
    assert calls["norm"] == 0
    assert via_chain == pytest.approx(report.response_strength, rel=1e-8)
    assert via_product == pytest.approx(3.0 * 6.76 * abs(amplitude), rel=1e-8)


def test_chain_json_layout():
    chain = chain_for(pt_dimer(1.0, 1.5))
    payload = chain.to_json()
    assert payload["n"] == 2
    assert len(payload["vectors"]) == 2
    assert payload["vectors"][0]["dim"] == 2
    assert set(payload["residuals"]) == {"chain", "normalization", "orthogonality"}
