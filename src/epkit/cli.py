"""Command-line front end.

Subcommands:
    analyze         detect an exceptional point and report order / response strength
    jordan          emit the gauge-fixed Jordan chain of a full-order point
    compose         assemble a unidirectionally coupled pair and report its response
    sweep           run a randomized perturbation sweep, emit CSV plus a slope fit
    reproduce-fig3  run the built-in dimer-trimer scaling experiment with pinned defaults

Exit codes: 0 success, 2 unreadable/invalid input or unwritable output,
3 violated precondition, 4 numerical failure.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np

from . import cmatrix, compose, ep_core, jordan, models, perturb
from .errors import EpkitError, NumericalError, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

#: Pinned defaults for the built-in scaling experiment.
FIG3_DEFAULTS = {
    "omega0": 1.0,
    "g_a": 1.5,
    "g_b": 1.3,
    "k": 1.0,
    "eps_min": 1e-12,
    "eps_max": 1e-2,
    "points": 41,
    "trials": 8,
    "seed": 42,
}
#: Strength window used for slope fits, chosen above the rounding-noise knee.
FIT_WINDOW = (1e-8, 1e-3)


def _float_above(lowest: float, below: float = math.inf):
    """argparse type for a finite float option above `lowest` (0 for --tol, --eps-*, --g-*; -inf for --k)
    and, where given, below `below` (1 for the nilpotency --tol)."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and lowest < value < below):
            upper = f" and < {below:g}" if below < math.inf else ""
            raise argparse.ArgumentTypeError(f"must be finite and > {lowest:g}{upper}, got {text}")
        return value

    parse.__name__ = "float"  # argparse names the type in its "invalid float value" message
    return parse


def _int_in(lowest: int, stop: float = math.inf):
    """argparse type for an integer option in [lowest, stop) (--points, --trials, --seed)."""

    def parse(text: str) -> int:
        value = int(text)
        if not lowest <= value < stop:
            raise argparse.ArgumentTypeError(f"must be an integer in [{lowest}, {stop}), got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_json(obj, out: str | None) -> None:
    text = _json_text(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_analyze(args) -> int:
    system = models.load_system(_load_json(args.input))
    report = ep_core.detect_ep(system.h, nil_tol=args.tol)
    _dump_json(report.to_json(), args.out)
    return EXIT_OK


def _cmd_jordan(args) -> int:
    system = models.load_system(_load_json(args.input))
    report = ep_core.detect_ep(system.h, nil_tol=args.tol)
    chain = jordan.jordan_chain(report)
    payload = chain.to_json()
    payload["response_strength"] = jordan.response_from_chain(chain)
    _dump_json(payload, args.out)
    return EXIT_OK


def _cmd_compose(args) -> int:
    h_a = models.load_system(_load_json(args.a)).h
    h_b = models.load_system(_load_json(args.b)).h
    k = cmatrix.matrix_from_json(_load_json(args.k))
    tol = args.tol if args.tol is not None else compose.DEFAULT_EIGENVALUE_TOL
    system = compose.block_compose(h_a, h_b, k, tol=tol)
    report = system.report
    xi_a, xi_b = system.rep_a.response_strength, system.rep_b.response_strength
    chain_b = jordan.jordan_chain(system.rep_b)
    psi_a = cmatrix.kernel_vector(system.rep_a.nilpotent)
    amplitude = jordan.coupling_amplitude(chain_b, psi_a, k)
    payload = {
        "dim": system.dim,
        "order": report.order,
        "ep_eigenvalue": [system.ep_eigenvalue.real, system.ep_eigenvalue.imag],
        "xi": report.response_strength,
        "xi_a": xi_a,
        "xi_b": xi_b,
        "coupling_spectral_norm": system.coupling_norm,
        "upper_bound": compose._upper_bound(xi_a, xi_b, system.coupling_norm),
        "coupling_amplitude_modulus": abs(amplitude),
        "generic": True,
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def _fit_window(eps_min: float, eps_max: float) -> tuple[float, float]:
    return (max(eps_min, FIT_WINDOW[0]), min(eps_max, FIT_WINDOW[1]))


def _cmd_sweep(args) -> int:
    system = models.load_system(_load_json(args.input))
    ep_eigenvalue, _ = ep_core.traceless_part(system.h)
    grid = perturb.log_grid(args.eps_min, args.eps_max, args.points)
    table = perturb.sweep(system.h, ep_eigenvalue, args.mode, grid, args.trials, args.seed, n_a=system.n_a)
    fit = perturb.fit_slope(grid, table, _fit_window(args.eps_min, args.eps_max))
    Path(args.out).write_text(perturb.records_to_csv(grid, table), encoding="utf-8")
    _dump_json(fit.to_json(), None)
    return EXIT_OK


def _sweep_both_modes(system, grid, trials: int, seed: int) -> dict:
    """The generic and the preserving sweep of system, keyed by mode in that order.

    The preserving sweep runs on a second thread while this one runs the
    generic sweep: their stacked eigenvalue calls release the interpreter lock
    and overlap on two cores.  Each sweep is the call it would be alone, so
    the tables are bit-identical.  Both sweeps finish before an error is
    raised, the generic one's first.
    """
    tables, errors = {}, {}

    def run(mode: str) -> None:
        try:
            tables[mode] = perturb.sweep(system.h, system.ep_eigenvalue, mode, grid, trials, seed, n_a=system.n_a)
        except Exception as exc:  # raised on the calling thread once both sweeps are done
            errors[mode] = exc

    worker = threading.Thread(target=run, args=("preserving",))
    worker.start()
    try:
        run("generic")
    finally:
        worker.join()
    for mode in ("generic", "preserving"):
        if mode in errors:
            raise errors[mode]
    return {mode: tables[mode] for mode in ("generic", "preserving")}


def _cmd_reproduce_fig3(args) -> int:
    d = FIG3_DEFAULTS
    system = models.dimer_trimer_system(d["omega0"], args.g_a, args.g_b, args.k)
    system.report  # certifies order 5 before any sweep runs
    grid = perturb.log_grid(args.eps_min, args.eps_max, args.points)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    window = _fit_window(args.eps_min, args.eps_max)
    tables = _sweep_both_modes(system, grid, args.trials, args.seed)
    slopes = {mode: perturb.fit_slope(grid, table, window).to_json() for mode, table in tables.items()}
    for mode, table in tables.items():  # written only after both fits succeed: a failed fit leaves no file
        (out_dir / f"fig3_{mode}.csv").write_text(perturb.records_to_csv(grid, table), encoding="utf-8")
    payload = {
        "parameters": {
            "omega0": d["omega0"],
            "g_a": args.g_a,
            "g_b": args.g_b,
            "k": args.k,
            "eps_min": args.eps_min,
            "eps_max": args.eps_max,
            "points": args.points,
            "trials": args.trials,
            "seed": args.seed,
        },
        "slopes": slopes,
    }
    text = _json_text(payload)
    (out_dir / "fig3_slopes.json").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _add_sweep_options(p: argparse.ArgumentParser) -> None:
    """The strength grid, trial count and seed options shared by sweep and reproduce-fig3."""
    p.add_argument("--eps-min", type=_float_above(0.0), default=FIG3_DEFAULTS["eps_min"])
    p.add_argument("--eps-max", type=_float_above(0.0), default=FIG3_DEFAULTS["eps_max"])
    p.add_argument("--points", type=_int_in(2), default=FIG3_DEFAULTS["points"])
    p.add_argument("--trials", type=_int_in(1), default=FIG3_DEFAULTS["trials"])
    p.add_argument("--seed", type=_int_in(0, 2**64), default=FIG3_DEFAULTS["seed"])


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the epkit command line on every call."""
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exceptional point toolkit: detection, Jordan chains, composition, perturbation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("analyze", "detect an exceptional point in a matrix or named model", _cmd_analyze),
        ("jordan", "emit the gauge-fixed Jordan chain", _cmd_jordan),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="matrix JSON or named-model JSON file")
        p.add_argument("--tol", type=_float_above(0.0, below=1.0), default=None, help="nilpotency tolerance override")
        p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
        p.set_defaults(func=func)

    p = sub.add_parser("compose", help="assemble H = [[H_a, 0], [K, H_b]] and report its response")
    p.add_argument("--a", required=True, help="upstream subsystem file")
    p.add_argument("--b", required=True, help="downstream subsystem file")
    p.add_argument("--k", required=True, help="coupling matrix JSON file (n_b x n_a)")
    p.add_argument("--tol", type=_float_above(0.0), default=None, help="eigenvalue agreement tolerance")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("sweep", help="randomized perturbation sweep; CSV to --out, slope fit to stdout")
    p.add_argument("--input", required=True, help="matrix JSON or named-model JSON file")
    p.add_argument("--mode", choices=("generic", "preserving"), default="generic")
    _add_sweep_options(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "reproduce-fig3",
        help="built-in dimer-trimer scaling experiment "
        f"(g_a={FIG3_DEFAULTS['g_a']}, g_b={FIG3_DEFAULTS['g_b']}, k={FIG3_DEFAULTS['k']}, "
        f"grid {FIG3_DEFAULTS['eps_min']:g}..{FIG3_DEFAULTS['eps_max']:g} with {FIG3_DEFAULTS['points']} points, "
        f"{FIG3_DEFAULTS['trials']} trials, seed {FIG3_DEFAULTS['seed']})",
    )
    p.add_argument("--g-a", type=_float_above(0.0), default=FIG3_DEFAULTS["g_a"], dest="g_a")
    p.add_argument("--g-b", type=_float_above(0.0), default=FIG3_DEFAULTS["g_b"], dest="g_b")
    p.add_argument("--k", type=_float_above(-math.inf), default=FIG3_DEFAULTS["k"])
    _add_sweep_options(p)
    p.add_argument("--out", default=".", help="output directory for the two CSVs and slope JSON")
    p.set_defaults(func=_cmd_reproduce_fig3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads arguments with: built on the first call, then shared by every later one.

    parse_args keeps no state on the parser, so each call parses as a fresh
    parser would.  build_parser stays the public way to get a parser, a new
    one on each call, so a caller that changes one cannot change main's.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        # Inputs are read through _load_json, so this is an output write.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
