"""epkit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout (epkit is imported from its ``src``):

    python3 bench/run.py --workload certify_5x5 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads, metrics, units and bounds are read from BENCHMARK.json at the
root.  --trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric; either way the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (with --workload all, one
such object per workload, keyed by name).

This process only orchestrates, and imports neither numpy nor epkit.  It
starts one child at a time: fresh workload processes (bench/worker.py) that
time set-up and run the closed loop, and `python -X importtime` probes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
#: fresh processes whose set-up is timed per run; setup_s is their median
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: end-to-end figures printed with every untraced run but not in BENCHMARK.json:
#: wall-clock times follow the host's core speed, which on a shared host
#: changes for seconds at a time by more than any bound the benchmark may set
#: (see bench/README.md); the gated op_cost.p50 is op time divided by the
#: reference timed around each op.  op_cost.tail is set by a few rare slow
#: ops on certify_5x5 and spreads there more than any bound
UNGATED = {"op_cost.tail": "ref", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s", "ref_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def run_child(cmd: list[str], deadline: float) -> tuple[str, str]:
    """Run one child to completion (its whole process group is killed on timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def worker(workload: str, seed: int, seconds: float, mode: str, workdir: str, deadline: float) -> tuple[float, dict]:
    """(set-up seconds, RESULT payload) of one fresh workload process."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--workdir", workdir]
    start = time.monotonic()
    out, _ = run_child(cmd, deadline)
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (mode != "setup" and result is None):
        raise BenchError(f"worker for {workload} printed no {'READY' if ready is None else 'RESULT'} line")
    return ready - start, result


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, and never below the median."""
    return max(100.0 * (1.0 - 10.0 / n), 50.0)


def import_breakdown(deadline: float) -> dict[str, float]:
    """import.* metrics: medians over fresh `python -X importtime` runs of `import epkit.cli`."""
    code = "import sys; sys.path.insert(0, 'src'); import epkit.cli"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, err = run_child([sys.executable, "-X", "importtime", "-c", code], deadline)
        self_us: dict[str, int] = {}
        total_us = None
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            top = name.split(".")[0]
            self_us[top] = self_us.get(top, 0) + int(fields[0])
            if name == "epkit":
                total_us = int(fields[1])
        if total_us is None:
            raise BenchError("-X importtime printed no line for epkit")
        samples.append({
            "import.total_s": total_us / 1e6,
            "import.numpy_s": self_us.get("numpy", 0) / 1e6,
            "import.scipy_s": self_us.get("scipy", 0) / 1e6,
            "import.epkit_s": self_us.get("epkit", 0) / 1e6,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def kind_medians(kinds: list[str], values: list[float]) -> float:
    """Mean over op kinds of each kind's median: the cost of one balanced op."""
    by_kind: dict[str, list[float]] = {}
    for kind, value in zip(kinds, values):
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def end_to_end(workload: str, seed: int, seconds: float, workdir: str, deadline: float) -> dict:
    # set-up probes before and after the measuring process, so the median
    # samples more of the host's speed phases than one burst would
    probes = SETUP_SAMPLES - 1
    setups = [worker(workload, seed, seconds, "setup", workdir, deadline)[0] for _ in range(probes // 2)]
    setup, result = worker(workload, seed, seconds, "measure", workdir, deadline)
    setups.append(setup)
    setups += [worker(workload, seed, seconds, "setup", workdir, deadline)[0] for _ in range(probes - probes // 2)]
    m = result["measure"]
    times, cost = m["times"], m["cost"]
    pct = tail_percentile(len(times))
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "op_cost.p50": kind_medians(m["kinds"], cost),
        "op_cost.tail": percentile(cost, pct),
        "op_s.p50": statistics.median(times),
        "op_s.tail": percentile(times, pct),
        "ops_per_s": m["passed_ops"] / m["wall"],
        "ref_s": statistics.median(m["ref_s"]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_cost.p50": f"mean over {len(set(m['kinds']))} op kinds of the median, n={len(times)}",
        "op_cost.tail": f"p{pct:.2f} of n={len(times)}",
        "op_s.p50": f"n={len(times)}",
        "op_s.tail": f"p{pct:.2f} of n={len(times)}",
        "ops_per_s": f"{m['passed_ops']} passed ops / {m['wall']:.3f} s",
        "ref_s": f"median of {len(m['ref_s'])} reference-kernel samples",
    }
    return {"values": values, "notes": notes, **result["tally"], "blas": result["blas"]}


def per_layer(workload: str, seed: int, seconds: float, workdir: str, deadline: float, spec: list[dict]) -> dict:
    imports = import_breakdown(deadline)
    _, result = worker(workload, seed, seconds, "trace", workdir, deadline)
    ops = result["traced"]["ops"]
    values = dict(imports)
    values.update(result["per_layer"])
    listed = {m["name"] for m in spec}
    unlisted = {}
    for key, count in result["escaped_errors"].items():
        if key in listed:
            values[key] = count / ops
        else:
            unlisted[key] = count
    values["errors.unlisted"] = sum(unlisted.values()) / ops
    for m in spec:  # error kinds not seen and ladder sizes of other workloads
        if ".errors." in m["name"] or m["name"].startswith("ladder."):
            values.setdefault(m["name"], 0.0)
    missing = listed - values.keys()
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    notes = {"trace.overhead_share": f"traced ops {ops}, untraced ops {result['untraced']['ops']}"}
    if unlisted:
        notes["errors.unlisted"] = ", ".join(f"{k}={v}" for k, v in sorted(unlisted.items()))
    return {"values": values, "notes": notes, **result["tally"], "blas": result["blas"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict, known: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}-{workload}")
    try:
        if trace:
            r = per_layer(workload, seed, seconds, workdir, deadline, spec["per_layer"])
        else:
            r = end_to_end(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    unexpected = sorted(set(r["failures"]) - set(known.get(workload, {})))

    blas = r["blas"]
    threads = " ".join(f"{k}={v}" for k, v in blas["threads"].items())
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print(f"   numpy {blas['numpy']}, BLAS {blas['blas']} ({blas['blas_config']}), {threads}")
    shown = [(m["name"], m["unit"]) for m in metrics_spec]
    if not trace:
        shown += list(UNGATED.items())
    for name, unit in shown:
        note = r["notes"].get(name, "") + ("  (not gated)" if name in UNGATED else "")
        print(f"   {name:<34} {r['values'][name]:<24.10g} {unit:<8} {note}")
    print(f"   {'ops_attempted':<34} {r['attempted']:<24} {'inputs':<8} distinct seeded inputs, each run at least once")
    print(f"   {'ops_failed':<34} {r['failed']:<24} {'inputs':<8} inputs whose ops failed")
    for kind, count in sorted(r["failures"].items()):
        tag = "known defect" if kind in known.get(workload, {}) else "NOT IN THE KNOWN-FAILURE INVENTORY"
        print(f"   failed {kind:<27} {count:<8} {tag}")
    return {
        "correct": r["attempted"] >= 1 and not unexpected,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": r["values"][m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "epkit", "__init__.py")) or not os.path.isfile(spec_path):
        print("error: run from the root of an epkit checkout (src/epkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "known_failures.json"), encoding="utf-8") as fh:
        known = {w: set(kinds) for w, kinds in json.load(fh)["kinds"].items()}
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec, known) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
