"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import helpers
from epkit import cli, cmatrix, ep_core, models, perturb
from epkit.errors import ConvergenceError, FitError
from epkit.models import pt_dimer, pt_trimer, single_entry_coupling


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def trimer_file(tmp_path):
    return write_json(tmp_path / "trimer.json", {"model": "trimer", "omega0": 1.0, "g_b": 1.3})


@pytest.fixture()
def dimer_file(tmp_path):
    return write_json(tmp_path / "dimer.json", {"model": "dimer", "omega0": 1.0, "g_a": 1.5})


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_trimer(capsys, trimer_file):
    code, out, _ = run(capsys, ["analyze", "--input", trimer_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["response_strength"] == pytest.approx(6.76, rel=1e-10)
    assert payload["partial"] is False


def test_analyze_matrix_file(capsys, tmp_path):
    path = write_json(tmp_path / "m.json", cmatrix.matrix_to_json(pt_dimer(1.0, 1.5)))
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_analyze_subnormal_nilpotent_at_a_large_tol(capsys, tmp_path):
    # nil_tol * ||N||_2 rounds up to the one nonzero entry; it is kept, not flushed to a failure (exit 4)
    path = write_json(tmp_path / "m.json", cmatrix.matrix_to_json(np.array([[0.0, 5e-324], [0.0, 0.0]])))
    code, out, _ = run(capsys, ["analyze", "--input", path, "--tol", "0.75"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2 and payload["response_strength"] == 5e-324


def test_analyze_writes_output_file(capsys, tmp_path, trimer_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", "--input", trimer_file, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["order"] == 3


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in err


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 2


def test_analyze_bad_matrix_schema(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"rows": 2, "cols": 2, "entries": [[0, 0]]})
    code, _, _ = run(capsys, ["analyze", "--input", str(path)])
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_trimer_whose_gain_overflows_is_invalid_input(capsys, tmp_path, command):
    # g_b is finite, but the locked gain/loss sqrt(2) * g_b is not
    path = write_json(tmp_path / "big_trimer.json", {"model": "trimer", "omega0": 1.0, "g_b": 1.5e308})
    argv = [command, "--input", path] + (["--out", str(tmp_path / "sweep.csv")] if command == "sweep" else [])
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: invalid parameter for model 'trimer': alpha_b must be positive and finite, got inf\n"


# ---------------------------------------------------------------------------
# jordan

def test_jordan_trimer(capsys, trimer_file):
    code, out, _ = run(capsys, ["jordan", "--input", trimer_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert len(payload["vectors"]) == 3
    assert payload["response_strength"] == pytest.approx(6.76, rel=1e-10)


def test_jordan_requires_full_order(capsys, tmp_path):
    path = write_json(tmp_path / "diag.json", cmatrix.matrix_to_json(np.diag([0.0, 1.0])))
    code, _, err = run(capsys, ["jordan", "--input", str(path)])
    assert code == 3


def test_jordan_whose_vector_norm_overflows_exits_4(tmp_path):
    # analyze certifies xi = 2e-155, while ||j_2|| = 1 / xi overflows; no numpy warning reaches stderr
    path = write_json(tmp_path / "tiny.json", {"model": "dimer", "omega0": 1.0, "g_a": 1e-155})
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "jordan", "--input", path],
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error"), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "jordan"])
def test_full_order_with_a_flushed_top_power_exits_4(capsys, tmp_path, command):
    # the power test passes this dim-15 block at full order while the flush zeroes the whole of N^14
    h = helpers.transformed_jordan_block(helpers.philox(1), 15)
    path = write_json(tmp_path / "block.json", cmatrix.matrix_to_json(h))
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 4
    assert out == ""
    assert "flushed to zero" in err


# ---------------------------------------------------------------------------
# compose

def test_compose_reports_response(capsys, tmp_path, dimer_file, trimer_file):
    k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(single_entry_coupling(1.0, 3, 2)))
    code, out, _ = run(capsys, ["compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 5
    assert payload["xi"] == pytest.approx(np.sqrt(8) * 1.5 * 1.69, rel=1e-10)
    assert payload["xi_a"] == pytest.approx(3.0, rel=1e-10)
    assert payload["xi_b"] == pytest.approx(6.76, rel=1e-10)
    assert payload["upper_bound"] == pytest.approx(20.28, rel=1e-10)
    assert payload["coupling_amplitude_modulus"] == pytest.approx(1 / (2 * np.sqrt(2)), rel=1e-10)
    assert payload["xi"] <= payload["upper_bound"]
    assert payload["generic"] is True


def test_compose_lapack_call_counts(capsys, monkeypatch, tmp_path, dimer_file, trimer_file):
    calls = helpers.count_linalg(monkeypatch, "svd", "lstsq", "matrix_power")
    code, _, _ = run(capsys, command_argv("compose", tmp_path, dimer_file, trimer_file))
    assert code == 0
    assert calls["svd"] <= 5 and calls["lstsq"] == 0 and calls["matrix_power"] <= 4


def test_compose_overflowing_genericity_product_exits_4(tmp_path, dimer_file, trimer_file):
    # K = 1e308 is finite, but C = N_b^2 K N_a and N^4 leave the double range; no numpy warning on stderr
    k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(single_entry_coupling(1e308, 3, 2)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1
    assert "overflows" in proc.stderr


def test_reproduce_fig3_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on its first call, about 1.2 MB that epkit never uses
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = ("import sys; from epkit import cli; code = cli.main(sys.argv[1:]); "
              "sys.exit(code or int('numpy.ma' in sys.modules) * 99)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "reproduce-fig3", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_compose_overflowing_response_norm_exits_4(tmp_path, dimer_file, trimer_file):
    # K = 1e160: xi = |y_b^H K u_a| * xi_b stays finite, but xi * xi overflows, and compose's range rule rejects it
    k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(single_entry_coupling(1e160, 3, 2)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1
    assert "overflows" in proc.stderr


@pytest.mark.parametrize("kind", ["single_entry", "dense"])
def test_compose_prints_order_five_at_every_coupling_scale(capsys, tmp_path, dimer_file, trimer_file, kind):
    # the order was read from powering the assembled H, which printed 4, 3 and 2 from k = 1e4 on
    dense = helpers.complex_uniform(helpers.philox(113), (3, 2))
    for exponent in range(-4, 151):
        k = 10.0**exponent
        coupling = single_entry_coupling(k, 3, 2) if kind == "single_entry" else k * dense
        k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(coupling))
        code, out, _ = run(capsys, ["compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path])
        assert code == 0 and json.loads(out)["order"] == 5


def test_compose_zero_coupling_exits_3(capsys, tmp_path, dimer_file, trimer_file):
    k_path = write_json(tmp_path / "k0.json", cmatrix.matrix_to_json(np.zeros((3, 2))))
    code, _, err = run(capsys, ["compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path])
    assert code == 3
    assert "degenerate" in err


def test_compose_mismatched_eigenvalues_exits_3(capsys, tmp_path, dimer_file):
    other = write_json(tmp_path / "detuned.json", {"model": "trimer", "omega0": 2.0, "g_b": 1.3})
    k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(single_entry_coupling(1.0, 3, 2)))
    code, _, _ = run(capsys, ["compose", "--a", dimer_file, "--b", other, "--k", k_path])
    assert code == 3


# ---------------------------------------------------------------------------
# sweep

def test_sweep_writes_csv_and_slope(capsys, tmp_path):
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep", "--input", system_file, "--mode", "generic",
            "--eps-min", "1e-8", "--eps-max", "1e-3", "--points", "6",
            "--trials", "2", "--seed", "7", "--out", str(csv_path),
        ],
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "epsilon,trial,max_splitting"
    assert len(lines) == 1 + 6 * 2
    fit = json.loads(out)
    assert set(fit) == {"slope", "intercept", "window", "residual"}


def test_sweep_preserving_mode_on_model(capsys, tmp_path):
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep", "--input", system_file, "--mode", "preserving",
            "--eps-min", "1e-8", "--eps-max", "1e-3", "--points", "5",
            "--trials", "2", "--seed", "7", "--out", str(csv_path),
        ],
    )
    assert code == 0


def test_sweep_preserving_on_bare_matrix_exits_3(capsys, tmp_path):
    from epkit.models import dimer_trimer_system

    path = write_json(tmp_path / "m.json", cmatrix.matrix_to_json(dimer_trimer_system().h))
    code, _, _ = run(
        capsys,
        ["sweep", "--input", path, "--mode", "preserving", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 3


def test_sweep_byte_identical(capsys, tmp_path):
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        csv_path = tmp_path / name
        code, out, _ = run(
            capsys,
            [
                "sweep", "--input", system_file,
                "--eps-min", "1e-8", "--eps-max", "1e-4", "--points", "4",
                "--trials", "2", "--seed", "11", "--out", str(csv_path),
            ],
        )
        assert code == 0
        outputs.append((csv_path.read_bytes(), out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bound", [75, 10_000])
@pytest.mark.parametrize("trials", [1, 2, 3, 8])
@pytest.mark.parametrize("mode", ["generic", "preserving"])
def test_sweep_trial_halves_match_per_matrix_loop(capsys, monkeypatch, tmp_path, mode, trials, bound):
    # 75 entries: chunks of three 5x5 strengths at one trial, of one strength from two trials on; 10_000: one chunk
    monkeypatch.setattr(perturb, "_CHUNK_ENTRIES", bound)
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        ["sweep", "--input", system_file, "--mode", mode, "--points", "9",
         "--trials", str(trials), "--seed", "42", "--out", str(csv_path)],
    )
    assert code == 0
    system = models.dimer_trimer_system(1.0, 1.5, 1.3, 1.0)
    h = np.asarray(system.h)
    ep_eigenvalue, _ = ep_core.traceless_part(h)
    grid = perturb.log_grid(cli.FIG3_DEFAULTS["eps_min"], cli.FIG3_DEFAULTS["eps_max"], 9)
    seeds = [perturb.child_seed(42, t) for t in range(trials)]
    if mode == "generic":
        matrices = [perturb.random_generic(5, s) for s in seeds]
    else:
        matrices = [perturb.random_preserving(2, 3, s) for s in seeds]
    expected = helpers.per_matrix_sweep_csv(h, ep_eigenvalue, matrices, grid)
    table = perturb.sweep(h, ep_eigenvalue, mode, grid, trials, 42, n_a=2)
    assert perturb.records_to_csv(grid, table).encode("utf-8") == expected
    assert csv_path.read_bytes() == expected


# ---------------------------------------------------------------------------
# reproduce-fig3

def test_reproduce_fig3_small_run(capsys, tmp_path):
    out_dir = tmp_path / "fig3"
    code, out, _ = run(
        capsys,
        [
            "reproduce-fig3", "--eps-min", "1e-8", "--eps-max", "1e-3",
            "--points", "6", "--trials", "2", "--seed", "5", "--out", str(out_dir),
        ],
    )
    assert code == 0
    assert (out_dir / "fig3_generic.csv").exists()
    assert (out_dir / "fig3_preserving.csv").exists()
    slopes = json.loads((out_dir / "fig3_slopes.json").read_text())
    assert set(slopes["slopes"]) == {"generic", "preserving"}
    assert json.loads(out) == slopes


def test_reproduce_fig3_deterministic(capsys, tmp_path):
    blobs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code, _, _ = run(
            capsys,
            [
                "reproduce-fig3", "--eps-min", "1e-8", "--eps-max", "1e-4",
                "--points", "4", "--trials", "2", "--seed", "5", "--out", str(out_dir),
            ],
        )
        assert code == 0
        blobs.append(
            (out_dir / "fig3_generic.csv").read_bytes()
            + (out_dir / "fig3_preserving.csv").read_bytes()
            + (out_dir / "fig3_slopes.json").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for command in ("analyze", "jordan", "compose", "sweep", "reproduce-fig3"):
        assert command in out


# ---------------------------------------------------------------------------
# one parser per process

def test_main_builds_its_parser_once(capsys, monkeypatch, trimer_file):
    built = []
    build_parser = cli.build_parser

    def counting():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for command in ("analyze", "jordan", "analyze"):
        assert run(capsys, [command, "--input", trimer_file])[0] == 0
    assert len(built) == 1


def test_build_parser_returns_a_parser_main_does_not_share(capsys):
    parser = cli.build_parser()
    assert parser is not cli.build_parser() and parser is not cli._parser()
    parser.prog = "changed"
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert capsys.readouterr().out.startswith("usage: epkit ")


def in_process(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv), an argparse exit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def in_fresh_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_a_row_match_fresh_processes(capsys, monkeypatch, tmp_path, dimer_file, trimer_file):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at the terminal width
    diagonal = write_json(tmp_path / "diag.json", cmatrix.matrix_to_json(np.diag([0.0, 1.0])))
    calls = [
        (["reproduce-fig3", "--seed", "7"], 0),
        (["reproduce-fig3"], 0),
        (["analyze", "--input", dimer_file, "--tol", "nan"], 2),
        (["analyze", "--input", dimer_file], 0),
        (["jordan", "--input", diagonal], 3),
        (["jordan", "--input", trimer_file], 0),
    ]
    for i, (argv, code) in enumerate(calls):
        results = []
        for side, call in (("in", lambda a: in_process(capsys, a)), ("fresh", in_fresh_process)):
            out_dir = tmp_path / f"{side}{i}"
            result = call(argv + ["--out", str(out_dir)] if argv[0] == "reproduce-fig3" else argv)
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
            results.append((result, files))
        assert results[0] == results[1]
        assert results[0][0][0] == code


# ---------------------------------------------------------------------------
# start-up and error contract

def test_import_cli_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, epkit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def command_argv(command, tmp_path, dimer_file, trimer_file):
    """A valid invocation of `command` without --tol or --out."""
    if command == "compose":
        k_path = write_json(tmp_path / "k.json", cmatrix.matrix_to_json(single_entry_coupling(1.0, 3, 2)))
        return ["compose", "--a", dimer_file, "--b", trimer_file, "--k", k_path]
    if command == "reproduce-fig3":
        return ["reproduce-fig3", "--points", "9", "--trials", "1"]  # 4 strengths inside the fit window
    return [command, "--input", trimer_file]


@pytest.mark.parametrize("command, certifications", [("compose", 2), ("reproduce-fig3", 2), ("sweep", 0)])
def test_power_test_certifications_per_command(capsys, monkeypatch, tmp_path, dimer_file, trimer_file,
                                               command, certifications):
    # one power test per subsystem; the composite is certified by its block structure, and sweep needs none
    calls = []
    nilpotency = ep_core._nilpotency

    def counting(*args):
        calls.append(args)
        return nilpotency(*args)

    monkeypatch.setattr(ep_core, "_nilpotency", counting)
    if command == "reproduce-fig3":
        argv = ["reproduce-fig3", "--points", "11", "--trials", "1"]  # 6 strengths inside the fit window
    else:
        argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "out")])
    assert code == 0
    assert len(calls) == certifications


@pytest.mark.parametrize("command", ["analyze", "jordan", "sweep", "compose"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_exits_2(capsys, tmp_path, dimer_file, trimer_file, command, tol):
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tol", tol, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "jordan"])
@pytest.mark.parametrize("tol", ["1", "1.5", "1e10"])
def test_nilpotency_tol_of_one_or_more_exits_2(capsys, tmp_path, dimer_file, trimer_file, command, tol):
    # at --tol 1 every matrix passed the k = 1 power test: analyze printed "order": 1 for the trimer
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tol", tol])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_compose_tol_of_one_is_an_eigenvalue_tolerance(capsys, tmp_path, dimer_file, trimer_file):
    code, out, _ = run(capsys, command_argv("compose", tmp_path, dimer_file, trimer_file) + ["--tol", "1"])
    assert code == 0 and json.loads(out)["order"] == 5


@pytest.mark.parametrize("command", ["analyze", "jordan", "compose", "sweep", "reproduce-fig3"])
def test_unwritable_out_exits_2(capsys, tmp_path, dimer_file, trimer_file, command):
    (tmp_path / "f").write_text("", encoding="utf-8")
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / "f" / "x")])
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_reproduce_fig3_zero_coupling_exits_3(capsys, tmp_path):
    out_dir = tmp_path / "fig3"
    code, out, err = run(capsys, ["reproduce-fig3", "--k", "0", "--out", str(out_dir)])
    assert code == 3
    assert out == "" and "order 3" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["analyze", "reproduce-fig3"])
def test_norm_power_overflow_exits_4(capsys, tmp_path, command):
    # ||N||_2^2 exceeds the double range while N^2 itself stays finite.
    system_file = write_json(
        tmp_path / "sys.json", {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": 1e300}
    )
    if command == "analyze":
        argv = ["analyze", "--input", system_file]
    else:
        argv = ["reproduce-fig3", "--k", "1e300", "--out", str(tmp_path / "fig3")]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == "" and "overflows" in err


def test_overflowing_matrix_powers_exit_4(tmp_path):
    # finite entries near 1e200: N^2 and ||N||_2^2 leave the double range; no numpy warning on stderr
    matrix = 1e200 * helpers.complex_uniform(helpers.philox(5), (3, 3))
    system_file = write_json(tmp_path / "big.json", cmatrix.matrix_to_json(matrix))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "analyze", "--input", system_file],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1
    assert "overflows" in proc.stderr


@pytest.mark.parametrize(
    "matrix",
    [np.full((3, 3), 1e308), np.diag([1.7e308, -1.7e308, -1.7e308])],
    ids=["trace_overflows", "traceless_part_overflows"],
)
def test_overflowing_traceless_part_exits_4(tmp_path, matrix):
    # a finite input whose trace, or whose N = H - (tr H / n) I, leaves the double range
    system_file = write_json(tmp_path / "big.json", cmatrix.matrix_to_json(matrix))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from epkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "analyze", "--input", system_file],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


def test_reproduce_fig3_defaults_match_per_matrix_loop(capsys, tmp_path):
    # the default CSVs, byte for byte, against one np.linalg.eigvals call per matrix
    out_dir = tmp_path / "fig3"
    code, out, _ = run(capsys, ["reproduce-fig3", "--out", str(out_dir)])
    assert code == 0
    d = cli.FIG3_DEFAULTS
    system = models.dimer_trimer_system(d["omega0"], d["g_a"], d["g_b"], d["k"])
    grid = perturb.log_grid(d["eps_min"], d["eps_max"], d["points"])
    seeds = [perturb.child_seed(d["seed"], t) for t in range(d["trials"])]
    perturbations = {
        "generic": [perturb.random_generic(system.dim, s) for s in seeds],
        "preserving": [perturb.random_preserving(system.n_a, system.dim - system.n_a, s) for s in seeds],
    }
    for mode, matrices in perturbations.items():
        expected = helpers.per_matrix_sweep_csv(np.asarray(system.h), system.ep_eigenvalue, matrices, grid)
        assert (out_dir / f"fig3_{mode}.csv").read_bytes() == expected
    assert out == (out_dir / "fig3_slopes.json").read_text(encoding="utf-8")


def test_reproduce_fig3_non_default_run_matches_per_matrix_loop(capsys, tmp_path):
    out_dir = tmp_path / "fig3"
    code, out, _ = run(
        capsys, ["reproduce-fig3", "--seed", "7", "--trials", "3", "--points", "9", "--out", str(out_dir)]
    )
    assert code == 0
    d = cli.FIG3_DEFAULTS
    system = models.dimer_trimer_system(d["omega0"], d["g_a"], d["g_b"], d["k"])
    grid = perturb.log_grid(d["eps_min"], d["eps_max"], 9)
    seeds = [perturb.child_seed(7, t) for t in range(3)]
    perturbations = {
        "generic": [perturb.random_generic(system.dim, s) for s in seeds],
        "preserving": [perturb.random_preserving(system.n_a, system.dim - system.n_a, s) for s in seeds],
    }
    for mode, matrices in perturbations.items():
        expected = helpers.per_matrix_sweep_csv(np.asarray(system.h), system.ep_eigenvalue, matrices, grid)
        assert (out_dir / f"fig3_{mode}.csv").read_bytes() == expected
    assert out == (out_dir / "fig3_slopes.json").read_text(encoding="utf-8")


def failing_sweep(monkeypatch, failing_modes):
    """Make perturb.sweep raise ConvergenceError in failing_modes; returns {mode: ran on the main thread}."""
    sweep = perturb.sweep
    threads = {}

    def patched(h, ep_eigenvalue, mode, *args, **kwargs):
        threads[mode] = threading.current_thread() is threading.main_thread()
        if mode in failing_modes:
            raise ConvergenceError(f"{mode} sweep did not converge")
        return sweep(h, ep_eigenvalue, mode, *args, **kwargs)

    monkeypatch.setattr(perturb, "sweep", patched)
    return threads


@pytest.mark.parametrize(
    "failing_modes", [("preserving",), ("generic",), ("generic", "preserving")], ids=["preserving", "generic", "both"]
)
def test_reproduce_fig3_sweep_error_reports_generic_first(capsys, monkeypatch, tmp_path, failing_modes):
    threads = failing_sweep(monkeypatch, failing_modes)
    out_dir = tmp_path / "fig3"
    code, out, err = run(capsys, ["reproduce-fig3", "--points", "9", "--trials", "2", "--out", str(out_dir)])
    assert code == 4
    assert out == "" and list(out_dir.iterdir()) == []
    assert err == f"numerical failure: {failing_modes[0]} sweep did not converge\n"
    # in order on the main thread: a generic failure stops before the preserving sweep
    ran = ["generic"] if "generic" in failing_modes else ["generic", "preserving"]
    assert threads == dict.fromkeys(ran, True)


@pytest.mark.parametrize("failing_modes", [(), ("preserving",)], ids=["success", "failure"])
def test_reproduce_fig3_leaves_no_thread_running(capsys, monkeypatch, tmp_path, failing_modes):
    failing_sweep(monkeypatch, failing_modes)
    before = threading.active_count()
    code, _, _ = run(capsys, ["reproduce-fig3", "--points", "9", "--trials", "2", "--out", str(tmp_path)])
    assert code == (4 if failing_modes else 0)
    assert threading.active_count() == before


def failing_fit(monkeypatch, failing_mode_index):
    """Make the fit_slope call numbered failing_mode_index (0 first) raise FitError."""
    fit_slope, calls = perturb.fit_slope, []

    def patched(*args):
        calls.append(args)
        if len(calls) - 1 == failing_mode_index:
            raise FitError("median splitting must be positive to fit on a log scale")
        return fit_slope(*args)

    monkeypatch.setattr(perturb, "fit_slope", patched)


def test_reproduce_fig3_fit_failure_writes_no_file(capsys, monkeypatch, tmp_path):
    # the preserving fit fails after the generic one succeeded
    failing_fit(monkeypatch, 1)
    out_dir = tmp_path / "fig3"
    code, out, _ = run(capsys, ["reproduce-fig3", "--points", "9", "--trials", "2", "--out", str(out_dir)])
    assert code == 3
    assert out == "" and list(out_dir.iterdir()) == []


def test_sweep_fit_failure_writes_no_csv(capsys, monkeypatch, tmp_path):
    failing_fit(monkeypatch, 0)
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        [
            "sweep", "--input", system_file, "--eps-min", "1e-5", "--eps-max", "1e-2",
            "--points", "7", "--trials", "1", "--out", str(csv_path),
        ],
    )
    assert code == 3
    assert not csv_path.exists()


@pytest.mark.parametrize("grid", [["--eps-min", "1e-3", "--eps-max", "1e-2"],
                                  ["--eps-min", "1e-4", "--eps-max", "2e-3", "--points", "3"]],
                         ids=["one_strength_window", "two_strengths_inside"])
@pytest.mark.parametrize("command", ["sweep", "reproduce-fig3"])
def test_grid_with_fewer_than_three_strengths_in_the_fit_window_exits_2(capsys, monkeypatch, tmp_path, trimer_file,
                                                                         command, grid):
    # no slope can be fitted on it: invalid input, reported before any sweep runs or any output is made
    calls = []
    monkeypatch.setattr(perturb, "sweep", lambda *args, **kwargs: calls.append(args))
    argv = ["sweep", "--input", trimer_file] if command == "sweep" else ["reproduce-fig3"]
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run(capsys, argv + grid + ["--out", str(tmp_path / "out")])
    assert code == 2 and stdout == ""
    assert err.startswith("error: invalid strength grid: ") and "the fit window" in err
    assert sorted(tmp_path.iterdir()) == before
    assert calls == []


HUGE_INT = 10**400


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": True, "cols": True, "entries": [[1, 0]]},
        {"rows": 1, "cols": 1, "entries": [[HUGE_INT, 0]]},
        {"model": "dimer", "omega0": 1.0, "g_a": "x"},
        {"model": "trimer", "omega0": HUGE_INT, "g_b": 1.3},
        {"model": "dimer", "omega0": 1.0, "g_a": True},
    ],
    ids=["bool-shape", "huge-entry", "string-parameter", "huge-parameter", "bool-parameter"],
)
def test_analyze_malformed_input_exits_2(capsys, tmp_path, payload):
    path = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["sweep", "reproduce-fig3"])
@pytest.mark.parametrize(
    "option, value",
    [
        ("--points", "1"),
        ("--trials", "0"),
        ("--eps-min", "nan"),
        ("--eps-min", "0"),
        ("--eps-max", "inf"),
        ("--eps-max", "-1"),
        ("--g-a", "nan"),
        ("--g-b", "inf"),
        ("--g-a", "-1"),
        ("--k", "nan"),
        ("--seed", "-1"),
        ("--seed", "18446744073709551616"),
    ],
)
def test_bad_grid_argument_exits_2(capsys, tmp_path, dimer_file, trimer_file, command, option, value):
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [option, value, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "reproduce-fig3"])
def test_eps_min_not_below_eps_max_exits_2(capsys, tmp_path, dimer_file, trimer_file, command):
    # each bound passes argparse alone; their order is checked by the grid, which exited 3
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    code, out, err = run(capsys, argv + ["--eps-min", "1e-2", "--eps-max", "1e-12", "--out", str(tmp_path / "out")])
    assert code == 2 and out == ""
    assert err == "error: invalid strength grid: need finite 0 < eps_min < eps_max and points >= 2\n"
    assert not (tmp_path / "out").exists()


def test_invalid_grid_is_reported_before_the_certification(capsys, tmp_path):
    # --k 0 makes a degenerate composite (exit 3), but invalid input is reported first
    argv = ["reproduce-fig3", "--k", "0", "--eps-min", "1e-2", "--eps-max", "1e-12", "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: invalid strength grid")


def test_reproduce_fig3_with_an_overflowing_trimer_gain_exits_2(capsys, tmp_path):
    # as analyze of the same trimer does: g_b is finite, but sqrt(2) * g_b is not
    code, out, err = run(capsys, ["reproduce-fig3", "--g-b", "1.5e308", "--out", str(tmp_path / "out")])
    assert code == 2 and out == ""
    assert err == "error: invalid parameter for model 'dimer_trimer': alpha_b must be positive and finite, got inf\n"
    assert not (tmp_path / "out").exists()
