"""Tests for randomized perturbation experiments and slope fitting."""

import numpy as np
import pytest

import helpers
from epkit import ep_core, perturb
from epkit.cmatrix import spectral_norm
from epkit.errors import FitError, ParameterError, ShapeError
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer


@pytest.fixture(scope="module")
def system5():
    return dimer_trimer_system(1.0, 1.5, 1.3, 1.0)


# ---------------------------------------------------------------------------
# random draws

def test_generic_draw_deterministic():
    a = perturb.random_generic(5, seed=123)
    b = perturb.random_generic(5, seed=123)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, perturb.random_generic(5, seed=124).matrix)


def test_generic_draw_entry_bounds():
    m = perturb.random_generic(40, seed=5).matrix
    assert np.max(np.abs(m.real)) <= 0.5
    assert np.max(np.abs(m.imag)) <= 0.5


def test_generic_draw_zero_mean():
    count = 100_000
    total = 0.0 + 0.0j
    for t in range(10):
        total += perturb.random_generic(100, seed=perturb.child_seed(9, t)).matrix.sum()
    mean = total / count
    three_sigma = 3.0 / (np.sqrt(12.0) * np.sqrt(count))
    assert abs(mean.real) < three_sigma
    assert abs(mean.imag) < three_sigma


def test_preserving_zero_block_exact():
    p = perturb.random_preserving(2, 3, seed=7)
    m = p.matrix
    assert np.array_equal(m[:2, 2:], np.zeros((2, 3)))
    assert np.all(m[2:, :2] != 0)
    assert np.all(m[:2, :2] != 0)
    assert np.all(m[2:, 2:] != 0)
    assert p.mode == "preserving"


def test_preserving_radicand_is_exactly_zero(system5):
    report = ep_core.detect_ep(system5.h)
    for t in range(10):
        h1 = perturb.random_preserving(2, 3, seed=perturb.child_seed(31, t)).matrix
        prediction = ep_core.predicted_splitting(report, h1, 1.0)
        assert prediction.radicand == 0


def test_coupling_only_perturbation_stays_on_degeneracy(system5):
    # perturbing only the coupling block moves along a surface of
    # full-order degeneracies as long as the genericity product stays nonzero
    h1 = perturb.random_preserving(2, 3, seed=11).matrix.copy()
    h1[:2, :2] = 0.0
    h1[2:, 2:] = 0.0
    perturbed = np.asarray(system5.h) + 1e-3 * h1
    assert ep_core.detect_ep(perturbed).order == 5


def test_child_seed_spread():
    seeds = {perturb.child_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000


# ---------------------------------------------------------------------------
# splitting measurement

def test_max_splitting_identity_shift(system5):
    value = perturb.max_splitting(system5.h, system5.ep_eigenvalue, np.eye(5), 0.5)
    assert value == pytest.approx(0.5, abs=5e-3)


def test_max_splitting_zero_strength_under_noise_floor(system5):
    xi = ep_core.response_strength(system5.h)
    floor = ep_core.machine_precision_bound(xi, 5)
    value = perturb.max_splitting(system5.h, system5.ep_eigenvalue, np.eye(5), 0.0)
    assert value <= floor


def test_max_splitting_respects_bound(system5):
    rng = helpers.philox(137)
    xi = ep_core.response_strength(system5.h)
    h1 = helpers.complex_uniform(rng, (5, 5))
    value = perturb.max_splitting(system5.h, system5.ep_eigenvalue, h1, 1e-6)
    assert value <= ep_core.splitting_bound(xi, 1e-6, spectral_norm(h1), 5) * (1 + 1e-6)


def test_max_splitting_validation(system5):
    with pytest.raises(ParameterError):
        perturb.max_splitting(system5.h, 1.0, np.eye(5), -1e-3)
    with pytest.raises(ShapeError):
        perturb.max_splitting(system5.h, 1.0, np.eye(4), 1e-3)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_record_layout(system5):
    grid = perturb.log_grid(1e-8, 1e-4, 5)
    records = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 3, seed=42)
    assert len(records) == 15
    assert [r.eps for r in records[:3]] == [grid[0]] * 3
    assert [r.trial for r in records[:3]] == [0, 1, 2]
    assert all(r.max_splitting >= 0 for r in records)


def test_sweep_bit_reproducible(system5):
    grid = perturb.log_grid(1e-10, 1e-4, 4)
    first = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 2, seed=1)
    second = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 2, seed=1)
    assert first == second


def test_sweep_preserving_needs_split(system5):
    grid = perturb.log_grid(1e-8, 1e-4, 3)
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 1, seed=1)
    records = perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 1, seed=1, n_a=2)
    assert len(records) == 3


def test_sweep_validates_grid_and_mode(system5):
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, 1.0, "generic", [1e-4, 1e-8], 1, seed=1)
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, 1.0, "generic", [0.0, 1e-8], 1, seed=1)
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, 1.0, "sideways", [1e-8, 1e-4], 1, seed=1)
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, 1.0, "generic", [1e-8, 1e-4], 0, seed=1)


def test_sweep_records_respect_bound(system5):
    xi = ep_core.response_strength(system5.h)
    grid = perturb.log_grid(1e-10, 1e-4, 7)
    records = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 4, seed=3)
    perts = [perturb.random_generic(5, perturb.child_seed(3, t)) for t in range(4)]
    norms = [spectral_norm(p.matrix) for p in perts]
    for record in records:
        assert record.max_splitting**5 <= (record.eps * norms[record.trial] * xi) * (1 + 1e-6) + 1e-12


@pytest.mark.parametrize("grid", [[1e-8, float("nan"), 1e-6], [1e-8, float("inf")]])
def test_sweep_rejects_non_finite_grid(system5, grid):
    with pytest.raises(ParameterError, match="positive and finite"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 2, seed=1)


def _sweep_cases():
    composite = dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    systems = [
        ("dimer", pt_dimer(1.0, 1.5), 1.0, None),
        ("trimer", pt_trimer(1.0, 1.3), 1.0, None),
        ("composite", np.asarray(composite.h), composite.ep_eigenvalue, composite.n_a),
    ]
    for name, h, ep, n_a in systems:
        for mode in ("generic", "preserving") if n_a is not None else ("generic",):
            for seed in (0, 1, 42, 2**63 + 5):
                yield pytest.param(h, ep, mode, seed, n_a, id=f"{name}-{mode}-{seed}")


@pytest.mark.parametrize("h, ep, mode, seed, n_a", list(_sweep_cases()))
def test_sweep_matches_per_matrix_loop(h, ep, mode, seed, n_a):
    grid = perturb.log_grid(1e-12, 1e-2, 9)
    trials = 3
    records = perturb.sweep(h, ep, mode, grid, trials, seed, n_a=n_a)
    if mode == "generic":
        perts = [perturb.random_generic(h.shape[0], perturb.child_seed(seed, t)) for t in range(trials)]
    else:
        perts = [perturb.random_preserving(n_a, h.shape[0] - n_a, perturb.child_seed(seed, t)) for t in range(trials)]
    expected = [
        perturb.SweepRecord(eps=eps, max_splitting=perturb.max_splitting(h, ep, p.matrix, eps), trial=t)
        for eps in grid
        for t, p in enumerate(perts)
    ]
    assert records == expected


@pytest.mark.parametrize("trials", [1, 4, 9])
def test_sweep_one_eigvals_call_per_strength(system5, monkeypatch, trials):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    grid = perturb.log_grid(1e-10, 1e-3, 6)
    perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, trials, seed=5)
    assert calls == [(trials, 5, 5)] * len(grid)


# ---------------------------------------------------------------------------
# slope fits

def test_fit_slope_exact_power_law():
    grid = perturb.log_grid(1e-10, 1e-2, 9)
    records = [perturb.SweepRecord(eps=e, max_splitting=e**0.2, trial=0) for e in grid]
    fit = perturb.fit_slope(records, (1e-10, 1e-2))
    assert fit.slope == pytest.approx(0.2, rel=1e-12)
    assert fit.residual <= 1e-12


def test_fit_slope_uses_median_over_trials():
    grid = [1e-8, 1e-6, 1e-4]
    records = []
    for e in grid:
        # two clean draws and one outlier; the median ignores the outlier
        records += [
            perturb.SweepRecord(eps=e, max_splitting=e**0.5, trial=0),
            perturb.SweepRecord(eps=e, max_splitting=e**0.5, trial=1),
            perturb.SweepRecord(eps=e, max_splitting=1e3, trial=2),
        ]
    fit = perturb.fit_slope(records, (1e-8, 1e-4))
    assert fit.slope == pytest.approx(0.5, rel=1e-12)


def test_fit_slope_window_filters(system5):
    grid = perturb.log_grid(1e-12, 1e-2, 11)
    records = [perturb.SweepRecord(eps=e, max_splitting=e**0.25, trial=0) for e in grid]
    fit = perturb.fit_slope(records, (1e-8, 1e-3))
    assert fit.window == (1e-8, 1e-3)
    assert fit.slope == pytest.approx(0.25, rel=1e-10)


def test_fit_slope_needs_three_points():
    records = [perturb.SweepRecord(eps=e, max_splitting=e, trial=0) for e in (1e-8, 1e-7)]
    with pytest.raises(FitError):
        perturb.fit_slope(records, (1e-9, 1e-6))


def test_fit_slope_rejects_bad_window():
    with pytest.raises(ParameterError):
        perturb.fit_slope([], (1e-3, 1e-8))


def test_generic_sweep_slope(system5):
    grid = perturb.log_grid(1e-8, 1e-3, 11)
    records = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 4, seed=42)
    fit = perturb.fit_slope(records, (1e-8, 1e-3))
    assert fit.slope == pytest.approx(0.2, abs=0.02)


def test_preserving_sweep_slope(system5):
    grid = perturb.log_grid(1e-8, 1e-3, 11)
    records = perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 4, seed=42, n_a=2)
    fit = perturb.fit_slope(records, (1e-8, 1e-3))
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)


# ---------------------------------------------------------------------------
# CSV output

def test_records_to_csv_roundtrip():
    records = [
        perturb.SweepRecord(eps=1.2345678901234567e-7, max_splitting=0.0123456789012345678, trial=0),
        perturb.SweepRecord(eps=2e-7, max_splitting=0.5, trial=1),
    ]
    text = perturb.records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,trial,max_splitting"
    eps_text, trial_text, split_text = lines[1].split(",")
    assert float(eps_text) == records[0].eps
    assert float(split_text) == records[0].max_splitting
    assert int(trial_text) == 0


def test_log_grid_endpoints():
    grid = perturb.log_grid(1e-12, 1e-2, 41)
    assert len(grid) == 41
    assert grid[0] == pytest.approx(1e-12, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-2, rel=1e-12)
    with pytest.raises(ParameterError):
        perturb.log_grid(1e-2, 1e-12, 5)
