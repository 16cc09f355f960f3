"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import time

import numpy as np
import pytest

import helpers
from epkit import cli, cmatrix, compose, ep_core, jordan, models, perturb

XI_A = 3.0
XI_B = 6.76
XI_5 = np.sqrt(8.0) * 1.5 * 1.69


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def three_routes(h_a, h_b, k):
    """Response strength through the norm, chain, and factorization routes."""
    system = compose.block_compose(h_a, h_b, k)
    report = ep_core.detect_ep(system.h)
    via_norm = report.response_strength
    via_chain = jordan.response_from_chain(jordan.jordan_chain(report))
    rep_a = ep_core.detect_ep(h_a)
    rep_b = ep_core.detect_ep(h_b)
    amplitude = jordan.coupling_amplitude(
        jordan.jordan_chain(rep_b), cmatrix.kernel_vector(rep_a.nilpotent), k
    )
    via_factorization = rep_a.response_strength * rep_b.response_strength * abs(amplitude)
    return via_norm, via_chain, via_factorization


def test_criterion_01_closed_form_response_strengths():
    start = time.perf_counter()
    xi_a = ep_core.response_strength(models.pt_dimer(1.0, 1.5))
    xi_b = ep_core.response_strength(models.pt_trimer(1.0, 1.3))
    xi = compose.composite_response(models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(xi_a - XI_A) <= 1e-10 * XI_A
        and abs(xi_b - XI_B) <= 1e-10 * XI_B
        and abs(xi - XI_5) <= 1e-10 * XI_5
        and elapsed < 1.0
    )
    verdict(1, "closed-form response strengths 3 / 6.76 / 7.17",
            ok, f"xi_a={xi_a:.12g} xi_b={xi_b:.12g} xi={xi:.12g} in {elapsed:.2f}s")


def test_criterion_02_route_equivalence():
    start = time.perf_counter()
    rng = helpers.philox(2_000)
    worst = 0.0
    for trial in range(200):
        g_a = 10.0 ** rng.uniform(-1, 1)
        g_b = 10.0 ** rng.uniform(-1, 1)
        if trial < 100:
            k_scalar = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
            k = models.single_entry_coupling(k_scalar, 3, 2)
        else:
            k = helpers.complex_uniform(rng, (3, 2))
        via_norm, via_chain, via_factorization = three_routes(
            models.pt_dimer(1.0, g_a), models.pt_trimer(1.0, g_b), k
        )
        worst = max(
            worst,
            abs(via_norm - via_chain) / via_norm,
            abs(via_norm - via_factorization) / via_norm,
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(2, "three response-strength routes agree to 1e-8",
            ok, f"worst relative spread {worst:.3e} in {elapsed:.2f}s")


def test_criterion_03_order_detection():
    def index_of(system):
        _, n = ep_core.traceless_part(system.h)
        return ep_core.nilpotency_index(n)

    rng = helpers.philox(3_000)
    ok = index_of(models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)) == 5
    ok = ok and index_of(models.dimer_trimer_system(1.0, 1.5, 1.3, 0.0)) == 3

    h_a, h_b = models.pt_dimer(1.0, 1.5), models.pt_dimer(1.0, 0.7)
    n_a = ep_core.traceless_part(h_a)[1]
    generic = compose.block_compose(h_a, h_b, helpers.complex_uniform(rng, (2, 2)))
    intermediate = compose.block_compose(h_a, h_b, np.array([[1j, 1.0], [0.0, 0.0]]))
    lowest = compose.block_compose(h_a, h_b, n_a)
    orders = (index_of(generic), index_of(intermediate), index_of(lowest))
    ok = ok and orders == (4, 3, 2)
    verdict(3, "composite order arithmetic (5 generic, <5 degenerate, 4/3/2 split)",
            ok, f"2+2 orders {orders}")


def test_criterion_04_coupling_amplitude():
    chain_b = jordan.jordan_chain(ep_core.detect_ep(models.pt_trimer(1.0, 1.3)))
    psi_a = cmatrix.kernel_vector(ep_core.detect_ep(models.pt_dimer(1.0, 1.5)).nilpotent)
    worst = 0.0
    for k in (1.0, 2.0 - 0.5j, 0.1j):
        amplitude = jordan.coupling_amplitude(chain_b, psi_a, models.single_entry_coupling(k, 3, 2))
        expected = abs(k) / (2 * np.sqrt(2))
        worst = max(worst, abs(abs(amplitude) - expected) / expected)
    ok = worst <= 1e-10
    verdict(4, "coupling amplitude modulus |k| / (2 sqrt(2))", ok, f"worst relative error {worst:.3e}")


def test_criterion_05_scaling_slopes(tmp_path):
    start = time.perf_counter()
    code = cli.main(["reproduce-fig3", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    payload = json.loads((tmp_path / "fig3_slopes.json").read_text())
    generic = payload["slopes"]["generic"]["slope"]
    preserving = payload["slopes"]["preserving"]["slope"]
    ok = (
        code == 0
        and abs(generic - 0.20) <= 0.02
        and abs(preserving - 1.0 / 3.0) <= 0.02
        and payload["slopes"]["generic"]["window"] == [1e-8, 1e-3]
        and elapsed < 60.0
    )
    verdict(5, "fitted scaling slopes 0.20 +/- 0.02 and 0.333 +/- 0.02",
            ok, f"generic {generic:.4f}, preserving {preserving:.4f} in {elapsed:.1f}s")


def test_criterion_06_saturation_bound():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    measured = perturb.max_splitting(system.h, system.ep_eigenvalue, np.zeros((5, 5)), 0.0)
    bound = ep_core.machine_precision_bound(XI_5, 5)
    ok = measured <= 1.5e-3 * 1.5 and abs(bound - 1.5e-3) <= 0.1 * 1.5e-3
    verdict(6, "rounding-noise splitting floor near 1.5e-3",
            ok, f"measured {measured:.3e}, bound {bound:.3e}")


def test_criterion_07_spectral_response_bound():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    report = ep_core.detect_ep(system.h)
    xi = report.response_strength
    rng = helpers.philox(7_000)
    violations = 0
    for _ in range(1000):
        eps = 10.0 ** rng.uniform(-12, -4)
        h1 = helpers.complex_uniform(rng, (5, 5))
        limit = eps * cmatrix.spectral_norm(h1) * xi * (1 + 1e-6) + 1e-12
        vals = helpers.eigenvalues(np.asarray(system.h) + eps * h1)
        if np.max(np.abs(vals - report.ep_eigenvalue)) ** 5 > limit:
            violations += 1
    ok = violations == 0
    verdict(7, "eigenvalue excursion bound holds over 1000 random trials",
            ok, f"{violations} violations")


def test_criterion_08_preserving_perturbation_nullity():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    report = ep_core.detect_ep(system.h)
    exact = True
    for t in range(100):
        h1 = perturb.random_preserving(2, 3, perturb.child_seed(80, t))
        prediction = ep_core.predicted_splitting(report, h1, 1.0)
        exact = exact and prediction.radicand == 0
        exact = exact and np.all(prediction.predicted_eigenvalues == report.ep_eigenvalue)
    verdict(8, "structure-preserving perturbations have exactly zero radicand", exact)


def test_criterion_09_jordan_chain_conditions():
    rng = helpers.philox(9_000)
    cases = [
        models.pt_dimer(1.0, 1.5),
        models.pt_trimer(1.0, 1.3),
        models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0).h,
    ]
    for dim in range(2, 9):
        cases.append(helpers.transformed_jordan_block(rng, dim, eigenvalue=0.2 + 0.1j))
    worst = 0.0
    for h in cases:
        report = ep_core.detect_ep(h)
        chain = jordan.jordan_chain(report)
        nmat = np.asarray(report.nilpotent)
        vectors = chain.vectors
        residuals = [np.linalg.norm(nmat @ vectors[0])]
        residuals += [
            np.linalg.norm(nmat @ vectors[l] - vectors[l - 1]) for l in range(1, chain.n)
        ]
        residuals.append(abs(np.vdot(vectors[0], vectors[0]) - 1.0))
        residuals += [abs(np.vdot(vectors[-1], vectors[l])) for l in range(chain.n - 1)]
        worst = max(worst, max(residuals))
    ok = worst <= 1e-10
    verdict(9, "Jordan chain conditions to 1e-10 up to dimension 8", ok, f"worst residual {worst:.3e}")


def test_criterion_10_resolvent_identity():
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    report = ep_core.detect_ep(system.h)
    rng = helpers.philox(10_000)
    worst = 0.0
    for _ in range(20):
        radius = 10.0 ** rng.uniform(-1, 1)
        energy = report.ep_eigenvalue + radius * np.exp(2j * np.pi * rng.random())
        g = ep_core.greens_function(report, energy)
        residual = np.linalg.norm((energy * np.eye(5) - system.h) @ g - np.eye(5))
        worst = max(worst, residual)
    ok = worst <= 1e-8
    verdict(10, "resolvent identity residual below 1e-8", ok, f"worst residual {worst:.3e}")


def test_criterion_11_norm_inequalities():
    rng = helpers.philox(11_000)
    ok = True
    worst_gap = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 6))
        rows = int(rng.integers(r, 9))
        cols = int(rng.integers(r, 9))
        a = helpers.random_fixed_rank(rng, rows, cols, r)
        spec = cmatrix.spectral_norm(a)
        frob = cmatrix.frobenius_norm(a)
        ok = ok and spec <= frob + 1e-10
        ok = ok and frob <= np.sqrt(helpers.rank(a)) * spec + 1e-10
        if r == 1:
            gap = abs(spec - frob)
            worst_gap = max(worst_gap, gap / frob)
            ok = ok and gap <= 1e-10 * frob
    verdict(11, "norm inequalities on 1000 mixed-rank matrices",
            ok, f"worst rank-1 gap {worst_gap:.3e}")
