"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epkit import cli, cmatrix
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
        return ["reproduce-fig3", "--points", "4", "--trials", "1"]
    return [command, "--input", trimer_file]


@pytest.mark.parametrize("command", ["analyze", "jordan", "sweep", "compose"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_exits_2(capsys, tmp_path, dimer_file, trimer_file, command, tol):
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tol", tol, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


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


def test_sweep_fit_failure_writes_no_csv(capsys, tmp_path):
    system_file = write_json(
        tmp_path / "sys.json",
        {"model": "dimer_trimer", "omega0": 1.0, "g_a": 1.5, "g_b": 1.3, "k": [1.0, 0.0]},
    )
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        [
            "sweep", "--input", system_file, "--eps-min", "1e-3", "--eps-max", "1e-2",
            "--points", "4", "--trials", "1", "--out", str(csv_path),
        ],
    )
    assert code == 3
    assert not csv_path.exists()


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
    ],
)
def test_bad_grid_argument_exits_2(capsys, tmp_path, dimer_file, trimer_file, command, option, value):
    argv = command_argv(command, tmp_path, dimer_file, trimer_file)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [option, value, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert option in capsys.readouterr().err
