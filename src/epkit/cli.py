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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cmatrix, compose, ep_core, jordan, models, perturb
from .errors import EpkitError, NumericalError, ParseError, PreconditionError

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


def _positive_float(text: str) -> float:
    """argparse type for --tol, --eps-min and --eps-max: a finite number greater than zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _int_at_least(lowest: int):
    """argparse type for an integer option with a lower limit (--points, --trials)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text}")
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


def _dump_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
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
    rep_a = ep_core.detect_ep(h_a)
    rep_b = ep_core.detect_ep(h_b)
    xi = compose.composite_response(system)
    chain_b = jordan.jordan_chain(rep_b)
    psi_a = cmatrix.kernel_vector(rep_a.nilpotent)
    amplitude = jordan.coupling_amplitude(chain_b, psi_a, k)
    payload = {
        "dim": system.dim,
        "order": ep_core.detect_ep(system.h).order,
        "ep_eigenvalue": [system.ep_eigenvalue.real, system.ep_eigenvalue.imag],
        "xi": xi,
        "xi_a": rep_a.response_strength,
        "xi_b": rep_b.response_strength,
        "coupling_spectral_norm": cmatrix.spectral_norm(k),
        "upper_bound": compose.response_upper_bound(
            rep_a.response_strength, rep_b.response_strength, k
        ),
        "coupling_amplitude_modulus": abs(amplitude),
        "generic": True,
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def _fit_window(eps_min: float, eps_max: float) -> tuple[float, float]:
    return (max(eps_min, FIT_WINDOW[0]), min(eps_max, FIT_WINDOW[1]))


def _cmd_sweep(args) -> int:
    system = models.load_system(_load_json(args.input))
    report = ep_core.detect_ep(system.h, nil_tol=args.tol)
    grid = perturb.log_grid(args.eps_min, args.eps_max, args.points)
    records = perturb.sweep(
        system.h, report.ep_eigenvalue, args.mode, grid, args.trials, args.seed, n_a=system.n_a
    )
    fit = perturb.fit_slope(records, _fit_window(args.eps_min, args.eps_max))
    Path(args.out).write_text(perturb.records_to_csv(records), encoding="utf-8")
    _dump_json(fit.to_json(), None)
    return EXIT_OK


def _cmd_reproduce_fig3(args) -> int:
    d = FIG3_DEFAULTS
    system = models.dimer_trimer_system(d["omega0"], args.g_a, args.g_b, args.k)
    report = ep_core.detect_ep(system.h)
    if not report.is_full_ep:
        raise PreconditionError(
            f"composite is not a full-order exceptional point: order {report.order}, dim {system.dim}"
        )
    grid = perturb.log_grid(args.eps_min, args.eps_max, args.points)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    window = _fit_window(args.eps_min, args.eps_max)
    slopes = {}
    for mode, filename in (("generic", "fig3_generic.csv"), ("preserving", "fig3_preserving.csv")):
        records = perturb.sweep(
            system.h, system.ep_eigenvalue, mode, grid, args.trials, args.seed, n_a=system.n_a
        )
        (out_dir / filename).write_text(perturb.records_to_csv(records), encoding="utf-8")
        slopes[mode] = perturb.fit_slope(records, window).to_json()
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
    _dump_json(payload, str(out_dir / "fig3_slopes.json"))
    _dump_json(payload, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exceptional point toolkit: detection, Jordan chains, composition, perturbation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect an exceptional point in a matrix or named model")
    p.add_argument("--input", required=True, help="matrix JSON or named-model JSON file")
    p.add_argument("--tol", type=_positive_float, default=None, help="nilpotency tolerance override")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("jordan", help="emit the gauge-fixed Jordan chain")
    p.add_argument("--input", required=True, help="matrix JSON or named-model JSON file")
    p.add_argument("--tol", type=_positive_float, default=None, help="nilpotency tolerance override")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("compose", help="assemble H = [[H_a, 0], [K, H_b]] and report its response")
    p.add_argument("--a", required=True, help="upstream subsystem file")
    p.add_argument("--b", required=True, help="downstream subsystem file")
    p.add_argument("--k", required=True, help="coupling matrix JSON file (n_b x n_a)")
    p.add_argument("--tol", type=_positive_float, default=None, help="eigenvalue agreement tolerance")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("sweep", help="randomized perturbation sweep; CSV to --out, slope fit to stdout")
    p.add_argument("--input", required=True, help="matrix JSON or named-model JSON file")
    p.add_argument("--mode", choices=("generic", "preserving"), default="generic")
    p.add_argument("--eps-min", type=_positive_float, default=FIG3_DEFAULTS["eps_min"])
    p.add_argument("--eps-max", type=_positive_float, default=FIG3_DEFAULTS["eps_max"])
    p.add_argument("--points", type=_int_at_least(2), default=FIG3_DEFAULTS["points"])
    p.add_argument("--trials", type=_int_at_least(1), default=FIG3_DEFAULTS["trials"])
    p.add_argument("--seed", type=int, default=FIG3_DEFAULTS["seed"])
    p.add_argument("--tol", type=_positive_float, default=None, help="nilpotency tolerance override")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "reproduce-fig3",
        help="built-in dimer-trimer scaling experiment "
        f"(g_a={FIG3_DEFAULTS['g_a']}, g_b={FIG3_DEFAULTS['g_b']}, k={FIG3_DEFAULTS['k']}, "
        f"grid {FIG3_DEFAULTS['eps_min']:g}..{FIG3_DEFAULTS['eps_max']:g} with {FIG3_DEFAULTS['points']} points, "
        f"{FIG3_DEFAULTS['trials']} trials, seed {FIG3_DEFAULTS['seed']})",
    )
    p.add_argument("--g-a", type=float, default=FIG3_DEFAULTS["g_a"], dest="g_a")
    p.add_argument("--g-b", type=float, default=FIG3_DEFAULTS["g_b"], dest="g_b")
    p.add_argument("--k", type=float, default=FIG3_DEFAULTS["k"])
    p.add_argument("--eps-min", type=_positive_float, default=FIG3_DEFAULTS["eps_min"])
    p.add_argument("--eps-max", type=_positive_float, default=FIG3_DEFAULTS["eps_max"])
    p.add_argument("--points", type=_int_at_least(2), default=FIG3_DEFAULTS["points"])
    p.add_argument("--trials", type=_int_at_least(1), default=FIG3_DEFAULTS["trials"])
    p.add_argument("--seed", type=int, default=FIG3_DEFAULTS["seed"])
    p.add_argument("--out", default=".", help="output directory for the two CSVs and slope JSON")
    p.set_defaults(func=_cmd_reproduce_fig3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
