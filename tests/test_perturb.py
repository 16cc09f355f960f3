"""Tests for randomized perturbation experiments and slope fitting."""

import hashlib
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from epkit import ep_core, perturb
from epkit.cmatrix import spectral_norm
from epkit.errors import ConvergenceError, FitError, ParameterError, ShapeError
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer


@pytest.fixture(scope="module")
def system5():
    return dimer_trimer_system(1.0, 1.5, 1.3, 1.0)


# ---------------------------------------------------------------------------
# random draws

def test_generic_draw_deterministic():
    a = perturb.random_generic(5, seed=123)
    b = perturb.random_generic(5, seed=123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, perturb.random_generic(5, seed=124))


def test_generic_draw_entry_bounds():
    m = perturb.random_generic(40, seed=5)
    assert np.max(np.abs(m.real)) <= 0.5
    assert np.max(np.abs(m.imag)) <= 0.5


def test_generic_draw_zero_mean():
    count = 100_000
    total = 0.0 + 0.0j
    for t in range(10):
        total += perturb.random_generic(100, seed=perturb.child_seed(9, t)).sum()
    mean = total / count
    three_sigma = 3.0 / (np.sqrt(12.0) * np.sqrt(count))
    assert abs(mean.real) < three_sigma
    assert abs(mean.imag) < three_sigma


def test_preserving_zero_block_exact():
    m = perturb.random_preserving(2, 3, seed=7)
    assert np.array_equal(m[:2, 2:], np.zeros((2, 3)))
    assert np.all(m[2:, :2] != 0)
    assert np.all(m[:2, :2] != 0)
    assert np.all(m[2:, 2:] != 0)


def test_preserving_radicand_is_exactly_zero(system5):
    report = ep_core.detect_ep(system5.h)
    for t in range(10):
        h1 = perturb.random_preserving(2, 3, seed=perturb.child_seed(31, t))
        prediction = ep_core.predicted_splitting(report, h1, 1.0)
        assert prediction.radicand == 0


def test_coupling_only_perturbation_stays_on_degeneracy(system5):
    # perturbing only the coupling block moves along a surface of
    # full-order degeneracies as long as the genericity product stays nonzero
    h1 = perturb.random_preserving(2, 3, seed=11).copy()
    h1[:2, :2] = 0.0
    h1[2:, 2:] = 0.0
    perturbed = np.asarray(system5.h) + 1e-3 * h1
    assert ep_core.detect_ep(perturbed).order == 5


def test_child_seed_spread():
    seeds = {perturb.child_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000


@pytest.mark.parametrize("seed", [-1, 2**64 + 42])
def test_seed_outside_64_bits_rejected(system5, seed):
    # masking to 64 bits would draw another seed's matrices: -1 as 2**64 - 1, 2**64 + 42 as 42
    with pytest.raises(ParameterError, match="seed"):
        perturb.child_seed(seed, 0)
    with pytest.raises(ParameterError, match="seed"):
        perturb.random_generic(3, seed)
    with pytest.raises(ParameterError, match="seed"):
        perturb.random_preserving(2, 3, seed)
    with pytest.raises(ParameterError, match="seed"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], 2, seed=seed)


def test_seed_range_edges_accepted():
    assert perturb.random_generic(2, 2**64 - 1).shape == (2, 2)
    assert perturb.child_seed(0, 0) == perturb.child_seed(2**64 - 1, 0) ^ (2**64 - 1)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), "1"])
def test_non_integer_seed_trial_and_size_rejected(system5, value):
    # int() would truncate 1.5 to 1 and draw seed 1's matrix; range() and the draw shapes raised a bare TypeError
    with pytest.raises(ParameterError, match="seed"):
        perturb.random_generic(2, value)
    with pytest.raises(ParameterError, match="trial"):
        perturb.child_seed(1, value)
    with pytest.raises(ParameterError, match="dim"):
        perturb.random_generic(value, 1)
    with pytest.raises(ParameterError, match="n_a"):
        perturb.random_preserving(value, 3, 1)
    with pytest.raises(ParameterError, match="n_b"):
        perturb.random_preserving(2, value, 1)
    with pytest.raises(ParameterError, match="trials"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], value, seed=1)
    with pytest.raises(ParameterError, match="n_a"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", [1e-8, 1e-4], 2, seed=1, n_a=value)


def test_boolean_seed_trial_and_size_rejected(system5):
    # operator.index(True) is 1, so trials=True ran one trial and child_seed(True, 0) was child_seed(1, 0)
    with pytest.raises(ParameterError, match="trials"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], True, seed=1)
    with pytest.raises(ParameterError, match="seed"):
        perturb.child_seed(True, 0)
    with pytest.raises(ParameterError, match="trial"):
        perturb.child_seed(1, False)
    with pytest.raises(ParameterError, match="dim"):
        perturb.random_generic(True, 0)


def test_numpy_integer_seed_trial_and_size_accepted(system5):
    assert np.array_equal(perturb.random_generic(np.int64(3), np.uint64(9)), perturb.random_generic(3, 9))
    assert perturb.child_seed(np.uint64(1), np.int32(7)) == perturb.child_seed(1, 7)
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", [1e-8, 1e-4], np.int64(2),
                          seed=np.uint64(1), n_a=np.int64(2))
    assert np.array_equal(table, perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", [1e-8, 1e-4], 2,
                                               seed=1, n_a=2))


# sha256 of the bytes of random_generic(5, seed) and random_preserving(2, 3, seed)
_DRAW_DIGESTS = {
    0: ("9816f48779ee3c82ebfbdb74b41220d363d2e1d79e8a91bff71eca918f464cb8",
        "23eada55413afbc5b6620cd4f4de41e309b9274d859612e5d6ae3336a0bf7503"),
    1: ("f7de7b368a94db96aa96d124083fb02f6161bfe821f30b74ea0270d35ff17ee0",
        "2cd31bf35a311714d6e88c66e89f496df5fb4bd44dbfe981c1c5f3fcdbc648f9"),
    42: ("f79f560f946ffffe48420a153d8160057d53ac0c3f5a962bb3b494f25446d0e6",
         "000be5f771a217b171a94f84baa89f4c8a376413f1703b4f38411dfde30f5bd2"),
    2**63 + 5: ("15256fc37bb77213ba5bf60b576a9d8c9da405423f38fa122322cb8247bf41bb",
                "dcc124fa957eddbc417698f598c07df08d62a8dc32fcc3e6294684622c95d51b"),
    2**64 - 1: ("4b7e3d9b34c86bd4499881b323ceff104314d74dffa35bb60dc9a4191243bb44",
                "1e60cfabdc8ced66ee97314a71e76c4e99de4dd8efb2f7e31b6b6b1674596525"),
}


@pytest.mark.parametrize("seed", list(_DRAW_DIGESTS))
def test_draws_are_read_only_matrices_with_pinned_bytes(seed):
    draws = (perturb.random_generic(5, seed), perturb.random_preserving(2, 3, seed))
    for m, digest in zip(draws, _DRAW_DIGESTS[seed]):
        assert type(m) is np.ndarray and m.dtype == np.complex128 and m.shape == (5, 5)
        assert not m.flags.writeable
        assert hashlib.sha256(m.tobytes()).hexdigest() == digest


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
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 3, seed=42)
    assert table.shape == (5, 3) and table.dtype == np.float64
    first_trial = perturb.random_generic(5, perturb.child_seed(42, 0))
    assert table[0, 0] == perturb.max_splitting(system5.h, system5.ep_eigenvalue, first_trial, grid[0])
    assert np.all(table >= 0)


def test_sweep_table_is_read_only(system5):
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], 2, seed=1)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_sweep_bit_reproducible(system5):
    grid = perturb.log_grid(1e-10, 1e-4, 4)
    first = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 2, seed=1)
    second = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 2, seed=1)
    assert first.tobytes() == second.tobytes()


def test_sweep_preserving_needs_split(system5):
    grid = perturb.log_grid(1e-8, 1e-4, 3)
    with pytest.raises(ParameterError):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 1, seed=1)
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 1, seed=1, n_a=2)
    assert table.shape == (3, 1)


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
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 4, seed=3)
    perts = [perturb.random_generic(5, perturb.child_seed(3, t)) for t in range(4)]
    norms = [spectral_norm(p) for p in perts]
    for s, eps in enumerate(grid):
        for t, norm in enumerate(norms):
            assert table[s, t] ** 5 <= (eps * norm * xi) * (1 + 1e-6) + 1e-12


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
    table = perturb.sweep(h, ep, mode, grid, trials, seed, n_a=n_a)
    if mode == "generic":
        perts = [perturb.random_generic(h.shape[0], perturb.child_seed(seed, t)) for t in range(trials)]
    else:
        perts = [perturb.random_preserving(n_a, h.shape[0] - n_a, perturb.child_seed(seed, t)) for t in range(trials)]
    expected = [[perturb.max_splitting(h, ep, p, eps) for p in perts] for eps in grid]
    assert table.tolist() == expected


@pytest.mark.parametrize("trials", [1, 4, 9])
def test_sweep_one_eigvals_call_per_sweep(system5, monkeypatch, trials):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    grid = perturb.log_grid(1e-10, 1e-3, 6)
    perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, trials, seed=5)
    half = -(-trials // 2)
    halves = [half, trials - half] if trials > 1 else [trials]
    assert sorted(calls) == sorted((len(grid), size, 5, 5) for size in halves)


@pytest.mark.parametrize("bound", [1, 20, 75, 100, 160, 10_000])
@pytest.mark.parametrize("mode", ["generic", "preserving"])
def test_sweep_chunks_hold_whole_strengths(system5, monkeypatch, bound, mode):
    # 3 trials of 5x5: 75 entries per strength; a bound below that still takes one strength per call
    grid = perturb.log_grid(1e-12, 1e-2, 7)
    h, ep = system5.h, system5.ep_eigenvalue
    unchunked = perturb.sweep(h, ep, mode, grid, 3, seed=17, n_a=2)
    calls = []
    eigvals = np.linalg.eigvals

    def recording(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(perturb, "_CHUNK_ENTRIES", bound)
    monkeypatch.setattr(np.linalg, "eigvals", recording)
    table = perturb.sweep(h, ep, mode, grid, 3, seed=17, n_a=2)
    # each chunk's strengths go to two calls, one per trial half; the next chunk starts after both
    chunks = [calls[i:i + 2] for i in range(0, len(calls), 2)]
    assert all(a[0] == b[0] and a[2:] == b[2:] == (5, 5) and a[1] + b[1] == 3 for a, b in chunks)
    assert all(a[0] * 75 <= bound or a[0] == 1 for a, _ in chunks)
    assert sum(a[0] for a, _ in chunks) == len(grid)
    assert len(chunks) == -(-len(grid) // max(1, bound // 75))
    draw = perturb.random_generic if mode == "generic" else lambda dim, s: perturb.random_preserving(2, 3, s)
    perts = [draw(5, perturb.child_seed(17, t)) for t in range(3)]
    expected = [[perturb.max_splitting(h, ep, m, eps) for m in perts] for eps in grid]
    assert table.tolist() == unchunked.tolist() == expected


@pytest.mark.parametrize("bound", [75, 10_000])
def test_sweep_names_first_non_finite_strength(monkeypatch, bound):
    # 1.7e308 + eps * h1 overflows at eps = 1e308 but not at 1e300 or below
    monkeypatch.setattr(perturb, "_CHUNK_ENTRIES", bound)
    h = np.full((5, 5), 1.7e308)
    with pytest.raises(ParameterError, match=r"non-finite entries at eps=1e\+308"):
        perturb.sweep(h, 0.0, "generic", [1e-8, 1e300, 1e308, 1.5e308], 3, seed=1)


def test_eigenvalue_failure_raises_convergence_error(system5, monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], 2, seed=1)
    with pytest.raises(ConvergenceError, match="did not converge"):
        perturb.max_splitting(system5.h, system5.ep_eigenvalue, np.eye(5), 1e-4)


@pytest.mark.parametrize("failing", [("worker",), ("caller",), ("caller", "worker")], ids=["worker", "caller", "both"])
def test_eigenvalue_failure_in_either_trial_half(system5, monkeypatch, failing):
    # a failure in the worker's half alone is still a ConvergenceError; with both failing, the caller's is raised
    caller = threading.current_thread()
    eigvals = np.linalg.eigvals

    def failing_half(a):
        side = "caller" if threading.current_thread() is caller else "worker"
        if side in failing:
            raise np.linalg.LinAlgError(f"{side} half")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing_half)
    before = threading.active_count()
    with pytest.raises(ConvergenceError, match=f"did not converge: {failing[0]} half"):
        perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", [1e-8, 1e-4], 3, seed=1)
    assert threading.active_count() == before


def test_concurrent_sweeps_match_per_matrix_loop(system5):
    # four sweeps at once, each with its worker: eight threads on two cores, switching every 10 us
    h, ep = np.asarray(system5.h), system5.ep_eigenvalue
    grid = perturb.log_grid(1e-12, 1e-2, 9)
    jobs = [("generic", 8, 3), ("preserving", 8, 4), ("generic", 5, 5), ("preserving", 2, 6)]
    expected = []
    for mode, trials, seed in jobs:
        seeds = [perturb.child_seed(seed, t) for t in range(trials)]
        if mode == "generic":
            matrices = [perturb.random_generic(5, s) for s in seeds]
        else:
            matrices = [perturb.random_preserving(2, 3, s) for s in seeds]
        expected.append(helpers.per_matrix_sweep_csv(h, ep, matrices, grid))
    results = {}

    def run(i, mode, trials, seed):
        try:
            for _ in range(20):
                table = perturb.sweep(h, ep, mode, grid, trials, seed, n_a=2)
                results.setdefault(i, []).append(perturb.records_to_csv(grid, table).encode("utf-8"))
        except Exception as exc:  # reported by the assertions below
            results[i] = exc

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i, *job)) for i, job in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert [results[i] for i in range(len(jobs))] == [[csv] * 20 for csv in expected]


@pytest.mark.parametrize("ep", [float("nan"), float("inf"), complex(1.0, float("nan")), complex(float("-inf"), 0.0)])
def test_non_finite_ep_eigenvalue_rejected(system5, ep):
    with pytest.raises(ParameterError, match="ep_eigenvalue"):
        perturb.sweep(system5.h, ep, "generic", [1e-8, 1e-4], 2, seed=1)
    with pytest.raises(ParameterError, match="ep_eigenvalue"):
        perturb.max_splitting(system5.h, ep, np.eye(5), 1e-4)


# ---------------------------------------------------------------------------
# slope fits

def test_fit_slope_exact_power_law():
    grid = perturb.log_grid(1e-10, 1e-2, 9)
    table = [[e**0.2] for e in grid]
    fit = perturb.fit_slope(grid, table, (1e-10, 1e-2))
    assert fit.slope == pytest.approx(0.2, rel=1e-12)
    assert fit.residual <= 1e-12


def test_fit_slope_uses_median_over_trials():
    grid = [1e-8, 1e-6, 1e-4]
    # two clean draws and one outlier per strength; the median ignores the outlier
    table = [[e**0.5, e**0.5, 1e3] for e in grid]
    fit = perturb.fit_slope(grid, table, (1e-8, 1e-4))
    assert fit.slope == pytest.approx(0.5, rel=1e-12)


def test_fit_slope_window_filters(system5):
    grid = perturb.log_grid(1e-12, 1e-2, 11)
    table = [[e**0.25] for e in grid]
    fit = perturb.fit_slope(grid, table, (1e-8, 1e-3))
    assert fit.window == (1e-8, 1e-3)
    assert fit.slope == pytest.approx(0.25, rel=1e-10)


def test_fit_slope_needs_three_points():
    grid = [1e-8, 1e-7]
    with pytest.raises(FitError):
        perturb.fit_slope(grid, [[e] for e in grid], (1e-9, 1e-6))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_slope_rejects_non_finite_splitting_in_window(bad):
    grid = [1e-8, 1e-6, 1e-4, 1e-2]
    table = np.array([[e**0.5] * 4 for e in grid])
    outside = table.copy()
    outside[3, 3] = bad  # the row of 1e-2, outside the window
    assert perturb.fit_slope(grid, outside, (1e-8, 1e-4)) == perturb.fit_slope(grid, table, (1e-8, 1e-4))
    inside = table.copy()
    inside[1, 3] = bad  # the row of 1e-6, inside the window
    with pytest.raises(FitError, match="not finite"):
        perturb.fit_slope(grid, inside, (1e-8, 1e-4))


def test_fit_slope_rejects_overflowing_median():
    # two finite splittings of 1.7e308 per strength: their mean, the median, overflows
    grid = [1e-8, 1e-6, 1e-4]
    with pytest.raises(FitError, match="median splitting .* overflows"):
        perturb.fit_slope(grid, np.full((3, 2), 1.7e308), (1e-8, 1e-4))


def test_fit_slope_rejects_a_zero_median():
    # every splitting in the window is zero, so log10 of its median is -inf
    grid = [1e-8, 1e-6, 1e-4]
    with pytest.raises(FitError, match="median splitting must be positive"):
        perturb.fit_slope(grid, np.zeros((3, 2)), (1e-8, 1e-4))


@st.composite
def full_tables(draw):
    """A table of 1-8 ascending strengths by 1-9 trials of positive splittings, and a fit window.

    Repeated values make ties; values near the double limit make the mean of two middle values overflow.
    """
    strengths = sorted(draw(st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=8, unique=True)))
    trials = draw(st.integers(1, 9))
    values = st.floats(1e-300, 1e300) | st.sampled_from([1e-3, 2e-3, 5e-3, 1.5e308, 1.7e308])
    entries = draw(st.lists(values, min_size=len(strengths) * trials, max_size=len(strengths) * trials))
    table = np.array(entries).reshape(len(strengths), trials)
    return strengths, table, draw(st.sampled_from([(1e-12, 1.0), (1e-9, 1e-3), (1e-6, 0.5)]))


@settings(deadline=None, max_examples=200)
@given(full_tables())
def test_fit_slope_bit_identical_to_per_strength_median(case):
    grid, table, window = case
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = helpers.reference_fit_slope(grid, table, window)
        except (FitError, np.linalg.LinAlgError) as exc:
            with pytest.raises(type(exc)):
                perturb.fit_slope(grid, table, window)
            return
        fit = perturb.fit_slope(grid, table, window)
    assert repr(fit) == repr(expected)  # bit for bit, nan included


def test_fit_slope_rejects_bad_window():
    grid = [1e-8, 1e-6, 1e-4]
    with pytest.raises(ParameterError):
        perturb.fit_slope(grid, [[e] for e in grid], (1e-3, 1e-8))


@pytest.mark.parametrize("window", [5, None, (1e-9,), (), (1e-9, 1e-6, 1e-3)],
                         ids=["number", "none", "one", "empty", "three"])
def test_fit_slope_rejects_a_window_that_is_not_two_strengths(window):
    grid = [1e-8, 1e-7, 1e-6]
    with pytest.raises(ParameterError, match="window"):
        perturb.fit_slope(grid, [[e] for e in grid], window)


@pytest.mark.parametrize(
    "table",
    [[[1e-4], [1e-3]], [[1e-4], [1e-3], [1e-2], [1e-1]], [1e-4, 1e-3, 1e-2], np.zeros((3, 0)),
     [[1e-4, 2e-4], [1e-3], [1e-2]], [[1e-4], [1e-3], ["x"]], [[1j], [2], [3]]],
    ids=["too_few_rows", "too_many_rows", "one_dimensional", "no_trials", "ragged", "non_numeric", "complex"],
)
def test_fit_slope_and_csv_reject_a_table_not_one_row_per_strength(table):
    grid = [1e-8, 1e-6, 1e-4]
    with pytest.raises(ShapeError, match="one row per strength"):
        perturb.fit_slope(grid, table, (1e-8, 1e-4))
    with pytest.raises(ShapeError):
        perturb.records_to_csv(grid, table)


@pytest.mark.parametrize(
    "grid",
    [[1e-4, 1e-6, 1e-8], [1e-8, float("nan"), 1e-4], [0.0, 1e-6, 1e-4], [-1e-8, 1e-6, 1e-4], [1e-8, 1e-8, 1e-4]],
    ids=["descending", "nan", "zero", "negative", "repeated"],
)
def test_fit_slope_and_csv_reject_a_bad_grid(grid):
    table = np.full((3, 2), 1e-3)
    with pytest.raises(ParameterError, match="strictly ascending, positive and finite"):
        perturb.fit_slope(grid, table, (1e-9, 1.0))
    with pytest.raises(ParameterError, match="strictly ascending, positive and finite"):
        perturb.records_to_csv(grid, table)


def test_generic_sweep_slope(system5):
    grid = perturb.log_grid(1e-8, 1e-3, 11)
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "generic", grid, 4, seed=42)
    fit = perturb.fit_slope(grid, table, (1e-8, 1e-3))
    assert fit.slope == pytest.approx(0.2, abs=0.02)


def test_preserving_sweep_slope(system5):
    grid = perturb.log_grid(1e-8, 1e-3, 11)
    table = perturb.sweep(system5.h, system5.ep_eigenvalue, "preserving", grid, 4, seed=42, n_a=2)
    fit = perturb.fit_slope(grid, table, (1e-8, 1e-3))
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)


# ---------------------------------------------------------------------------
# CSV output

def test_records_to_csv_roundtrip():
    grid = [1.2345678901234567e-7, 2e-7]
    table = [[0.0123456789012345678, 0.25], [0.75, 0.5]]
    text = perturb.records_to_csv(grid, table)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,trial,max_splitting"
    rows = [line.split(",") for line in lines[1:]]
    assert [(float(e), int(t), float(v)) for e, t, v in rows] == [
        (grid[s], t, table[s][t]) for s in range(2) for t in range(2)
    ]


@st.composite
def csv_tables(draw):
    """1-6 ascending strengths by 1-9 trials, with integral values, subnormals and values near the double limit."""
    special = st.sampled_from([1.0, 2.0, 3e5, 5e-324, 1.5e-310, 1e308, 1.7976931348623157e308])
    strength = st.floats(5e-324, 1.7976931348623157e308) | special
    strengths = sorted(draw(st.lists(strength, min_size=1, max_size=6, unique=True)))
    trials = draw(st.integers(1, 9))
    value = st.floats() | special | st.integers(-10**6, 10**6).map(float)
    return strengths, [draw(st.lists(value, min_size=trials, max_size=trials)) for _ in strengths]


@settings(max_examples=300)
@given(csv_tables())
def test_records_to_csv_matches_per_entry_formatting(case):
    grid, table = case
    assert perturb.records_to_csv(grid, table) == helpers.per_entry_csv(grid, table)


@pytest.mark.parametrize(
    "eps_min, eps_max",
    [(1e-12, np.inf), (1e-12, np.nan), (np.nan, 1e-2), (-np.inf, 1e-2)],
    ids=["inf_max", "nan_max", "nan_min", "minus_inf_min"],
)
def test_log_grid_rejects_non_finite_endpoints(eps_min, eps_max):
    # np.logspace warns on an infinite endpoint and returns nan and inf strengths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite"):
            perturb.log_grid(eps_min, eps_max, 4)


def test_log_grid_reads_points_as_an_integer():
    with pytest.raises(ParameterError, match="points"):
        perturb.log_grid(1e-12, 1e-2, 41.0)
    assert perturb.log_grid(1e-12, 1e-2, np.int64(41)) == perturb.log_grid(1e-12, 1e-2, 41)


def test_log_grid_endpoints():
    grid = perturb.log_grid(1e-12, 1e-2, 41)
    assert len(grid) == 41
    assert grid[0] == pytest.approx(1e-12, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-2, rel=1e-12)
    with pytest.raises(ParameterError):
        perturb.log_grid(1e-2, 1e-12, 5)
