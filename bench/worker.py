"""One workload process: set up, signal readiness, run a closed loop, check outputs.

Started by run.py from the root of a checkout:

    python3 bench/worker.py --workload W --seed N --seconds S --mode {setup,measure,trace} --workdir D

It prints ``READY <monotonic clock>`` once set-up is done (the parent takes
set-up time from that stamp) and, unless --mode setup, one ``RESULT <json>``
line at the end.  One client: each op starts only after the previous one
returned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from time import perf_counter


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""), "threads": threads}


#: a calibration sample is taken after the op that ends at least this long after the last one
CALIBRATE_EVERY_S = 0.1
CALIBRATION_REPS = 3


class Reference:
    """A fixed numpy kernel timed between ops, as the host's current speed.

    The kernel mixes interpreter work with small LAPACK calls (SVD, eigvals,
    matrix powers of one 6x6 complex matrix), like the ops it calibrates, and
    it calls no epkit code.  Shared hosts change core speed for seconds at a
    time; an op's time divided by the reference time taken around it cancels
    that, so the quotient tracks epkit's own cost.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.Philox(key=20221010))
        self.a = rng.random((6, 6)) + 1j * rng.random((6, 6))
        # bound now, so the tracer's wrappers installed later neither time nor count it
        self.svd, self.eigvals, self.matrix_power, self.abs = (
            np.linalg.svd, np.linalg.eigvals, np.linalg.matrix_power, np.abs)
        for _ in range(CALIBRATION_REPS):
            self.kernel()

    def kernel(self) -> float:
        a = self.a
        acc = 0.0
        for _ in range(10):
            acc += float(self.svd(a, compute_uv=False)[0])
            acc += float(self.abs(self.eigvals(a)).sum())
            acc += float(self.abs(self.matrix_power(a, 3)).max())
        return acc

    def sample(self) -> float:
        """Median seconds of one kernel over a few back-to-back repetitions."""
        times = []
        for _ in range(CALIBRATION_REPS):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return sorted(times)[len(times) // 2]


class ChildReference:
    """A fresh interpreter importing numpy, json and argparse, timed between CLI calls.

    `cli_cold` ops are process start and imports, which track the host's
    speed differently from in-process compute: the in-process kernel left
    their per-op spread as wide as wall time, this reference cut it to a
    third.  One sample is one such process, about 0.2 s.
    """

    CODE = "import numpy.linalg, json, argparse"

    def __init__(self, root: str):
        self.cmd = [sys.executable, "-c", self.CODE]
        self.root = root
        self.sample()

    def sample(self) -> float:
        start = perf_counter()
        subprocess.run(self.cmd, cwd=self.root, check=True, stdout=subprocess.DEVNULL, timeout=60)
        return perf_counter() - start


def run_phase(wl, seconds: float, ref, tracer=None, trace_dir=None, min_ops: int = 0) -> dict:
    """Closed loop from op 0 until `seconds` have passed and every input ran once,
    ending on a whole input cycle.  Between ops, every CALIBRATE_EVERY_S, the
    reference kernel is timed; each op is normalised by the mean of the two
    samples around it."""
    times, kinds, errors, records, block = [], [], [], [], []
    calib = [ref.sample()]
    calib_s = 0.0
    min_ops = max(min_ops, wl.pool)
    begin = perf_counter()
    deadline = begin + seconds
    last_calib = begin
    i = 0
    while True:
        kind = wl.kind(i)
        span = tracer.begin_op(i, kind) if tracer is not None else None
        error = None
        start = perf_counter()
        try:
            out = wl.run(i, trace_dir)
        except Exception as exc:  # op boundary: a failed op is counted by type and the loop goes on
            error, out = exc, None
        end = perf_counter()
        if tracer is not None:
            tracer.end_op(span, error)
        times.append(end - start)
        kinds.append(kind)
        errors.append(None if error is None else type(error).__name__)
        records.append(None if error is not None else wl.collect(i, out))
        block.append(len(calib) - 1)
        i += 1
        done = end >= deadline and i >= min_ops and i % wl.cycle == 0
        if done or perf_counter() - last_calib >= CALIBRATE_EVERY_S:
            c0 = perf_counter()
            calib.append(ref.sample())
            last_calib = perf_counter()
            calib_s += last_calib - c0
        if done:
            break
    around = [(calib[b] + calib[b + 1]) / 2.0 for b in block]
    return {"times": times, "kinds": kinds, "errors": errors, "records": records,
            "cost": [t / c for t, c in zip(times, around)], "ref_s": calib,
            "wall": perf_counter() - begin - calib_s}


def check_phase(wl, phase: dict) -> dict:
    """Oracle checks after the timed loop, one verdict per op (None when it passed)."""
    import oracles

    for i, record in enumerate(phase["records"]):
        if phase["errors"][i] is not None:
            continue
        try:
            wl.check(i, record)
        except (oracles.OracleFailure, KeyError, TypeError, ValueError) as exc:
            phase["errors"][i] = oracles.failure_kind(exc)
    del phase["records"]
    phase["ops"] = len(phase["times"])
    phase["passed_ops"] = phase["errors"].count(None)
    return phase


def tally(wl, *phases: dict) -> dict:
    """Failures counted per distinct input, not per op.

    Every phase runs the whole seeded input pool at least once, so
    `attempted` and `failed` depend on the seed alone and not on how many
    ops fit in the run.  An input whose ops do not all end alike is failed
    as `Unstable`.
    """
    verdicts: dict[int, str | None] = {}
    unstable = set()
    for phase in phases:
        for i, error in enumerate(phase["errors"]):
            key = i % wl.pool
            if verdicts.setdefault(key, error) != error:
                unstable.add(key)
    failures: dict[str, int] = {}
    for key, error in verdicts.items():
        kind = "Unstable" if key in unstable else error
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
    return {"attempted": len(verdicts), "failed": sum(failures.values()), "failures": failures}


def peak_rss_kb(wl) -> int:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def trace_metrics(wl, untraced: dict, traced: dict, sp: dict) -> dict:
    import numpy as np

    import spans

    n_ops = len(traced["times"])
    op_kinds = dict(enumerate(traced["kinds"]))
    per_layer, escaped = spans.summarize(sp, n_ops, wl.count_ops, op_kinds)
    per_layer["trace.overhead_share"] = (
        float(np.median(traced["cost"])) / float(np.median(untraced["cost"])) - 1.0
    )
    if wl.name == "ladder":
        kinds = np.array(untraced["kinds"])
        times = np.array(untraced["times"])
        svd_ops = sp["op"][(sp["names"][sp["name_id"]] == "lapack.svd") & (sp["op"] < wl.count_ops)]
        counted_kinds = np.array(traced["kinds"][: wl.count_ops])
        for kind in wl.sizes():
            label = kind.replace("dim", "by_dim.").replace("depth", "by_depth.")
            per_layer[f"ladder.op_s.{label}"] = float(np.median(times[kinds == kind]))
            n_kind = int(np.count_nonzero(counted_kinds == kind))
            n_svd = int(np.count_nonzero(counted_kinds[svd_ops] == kind)) if len(svd_ops) else 0
            per_layer[f"ladder.svd.{label}"] = n_svd / n_kind if n_kind else 0.0
    return {"per_layer": per_layer, "escaped_errors": escaped}


def phase_summary(phase: dict) -> dict:
    keep = ("times", "kinds", "cost", "ref_s", "wall", "ops", "passed_ops")
    return {k: phase[k] for k in keep}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, root, args.workdir)
    epkit = sys.modules.get("epkit")  # not imported here by cli_cold, whose children import it
    if epkit is not None and not os.path.abspath(epkit.__file__).startswith(src + os.sep):
        print(f"epkit imported from {epkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    for i in range(wl.warm_up_ops):
        try:
            wl.run(i)
        except Exception:  # warm-up only fills caches; failures are counted in the timed phase
            pass
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {"blas": blas_info()}
    ref = ChildReference(root) if wl.name == "cli_cold" else Reference()
    if args.mode == "measure":
        phase = check_phase(wl, run_phase(wl, args.seconds, ref))
        result["measure"] = phase_summary(phase)
        result["tally"] = tally(wl, phase)
    else:
        import spans

        half = args.seconds / 2.0
        untraced = check_phase(wl, run_phase(wl, half, ref))
        tracer = None
        trace_dir = None
        if wl.name == "cli_cold":
            trace_dir = os.path.join(args.workdir, "spans")
            os.makedirs(trace_dir, exist_ok=True)
        else:
            tracer = spans.Tracer()
            tracer.install()
        try:
            traced = run_phase(wl, half, ref, tracer=tracer, trace_dir=trace_dir, min_ops=wl.count_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        traced = check_phase(wl, traced)
        if tracer is not None:
            sp = tracer.arrays()
        else:
            parts = [(i, spans.load(os.path.join(trace_dir, f"op{i}.npz"))) for i in range(traced["ops"])]
            sp = spans.concat(parts)
        spans_path = os.path.join(root, ".perfbench", f"spans-{wl.name}-seed{args.seed}.npz")
        spans.save_arrays(spans_path, sp)
        result["untraced"] = phase_summary(untraced)
        result["traced"] = phase_summary(traced)
        result["tally"] = tally(wl, untraced, traced)
        result.update(trace_metrics(wl, untraced, traced, sp))
    result["peak_rss_kb"] = peak_rss_kb(wl)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
