"""The four workloads: seeded inputs, one op each, and the oracle check.

Every input comes from the benchmark's own Philox generator keyed by the
workload seed; epkit only ever receives the generated matrices or files.
`run` is the timed op.  `collect` runs right after it, untimed, to keep what
the oracle needs; `check` runs after the timed phase and raises an
`oracles.OracleFailure` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import oracles

_MASK64 = (1 << 64) - 1


def generator(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) & _MASK64) | (salt << 64)))


def complex_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.random(shape) - 0.5) + 1j * (rng.random(shape) - 0.5)


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def criterion2_draw(rng: np.random.Generator, single_entry: bool):
    """(g_a, g_b, K) from the distribution of acceptance criterion 2."""
    g_a = 10.0 ** rng.uniform(-1, 1)
    g_b = 10.0 ** rng.uniform(-1, 1)
    if single_entry:
        k = np.zeros((3, 2), dtype=complex)
        k[0, 0] = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
    else:
        k = complex_uniform(rng, (3, 2))
    return float(g_a), float(g_b), k


class Workload:
    name = ""
    #: ops per balanced round of the input mix; a phase ends on a round boundary
    cycle = 1
    #: distinct inputs: op i runs input i % pool, and a phase runs each at least once
    pool = 1
    #: traced ops whose call counts are reported (a seed-determined prefix)
    count_ops = 1
    warm_up_ops = 1

    def __init__(self, seed: int, root: str, workdir: str):
        self.root = root
        self.workdir = workdir

    def kind(self, i: int) -> str:
        return self.name

    def run(self, i: int, trace_dir: str | None = None):
        raise NotImplementedError

    def collect(self, i: int, out):
        return out

    def check(self, i: int, record) -> None:
        raise NotImplementedError


class Certify5x5(Workload):
    """Three-route certification of random dimer+trimer composites, in process."""

    name = "certify_5x5"
    cycle = 2
    count_ops = 256
    warm_up_ops = 32
    pool = 2048

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        from epkit import cmatrix, compose, ep_core, jordan

        self.cmatrix, self.compose, self.ep_core, self.jordan = cmatrix, compose, ep_core, jordan
        rng = generator(seed, 1)
        self.draws = []
        for i in range(self.pool):
            g_a, g_b, k = criterion2_draw(rng, single_entry=i % 2 == 0)
            self.draws.append((g_a, g_b, k, oracles.dimer_h(1.0, g_a), oracles.trimer_h(1.0, g_b)))

    def kind(self, i):
        return "single_entry" if i % 2 == 0 else "dense"

    def run(self, i, trace_dir=None):
        _, _, k, h_a, h_b = self.draws[i % self.pool]
        ep_core, jordan, compose = self.ep_core, self.jordan, self.compose
        system = compose.block_compose(h_a, h_b, k)
        report = ep_core.detect_ep(system.h)
        via_chain = jordan.response_from_chain(jordan.jordan_chain(report))
        via_product = compose.composite_response(system)
        rep_a = ep_core.detect_ep(h_a)
        rep_b = ep_core.detect_ep(h_b)
        amplitude = jordan.coupling_amplitude(
            jordan.jordan_chain(rep_b), self.cmatrix.kernel_vector(rep_a.nilpotent), k
        )
        return (report.order, report.response_strength, via_chain, via_product,
                rep_a.order, rep_a.response_strength, rep_b.order, rep_b.response_strength, abs(amplitude))

    def check(self, i, record):
        g_a, g_b, k, _, _ = self.draws[i % self.pool]
        order, via_norm, via_chain, via_product, order_a, xi_a, order_b, xi_b, amp = record
        tol = oracles.XI_RTOL_5X5
        oracles.check_order(order_a, 2, "dimer")
        oracles.check_order(order_b, 3, "trimer")
        oracles.check_order(order, 5, "composite")
        oracles.check_xi(xi_a, oracles.dimer_xi(g_a), tol, "dimer xi")
        oracles.check_xi(xi_b, oracles.trimer_xi(g_b), tol, "trimer xi")
        want = oracles.composite_xi(g_a, g_b, k)
        oracles.check_xi(via_norm, want, tol, "xi by norm")
        oracles.check_xi(via_chain, want, tol, "xi by chain")
        oracles.check_xi(via_product, want, tol, "xi by genericity product")
        oracles.check_xi(xi_a * xi_b * amp, want, tol, "xi by factorization")


class Fig3Sweep(Workload):
    """`reproduce-fig3` through `cli.main`, in process, one derived seed per op."""

    name = "fig3_sweep"
    count_ops = 4
    pool = 16

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        from epkit import cli

        self.cli = cli
        rng = generator(seed, 2)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, self.pool)]
        self.out = os.path.join(workdir, "fig3")
        self._expected: dict[int, dict[str, str]] = {}

    def run(self, i, trace_dir=None):
        argv = ["reproduce-fig3", "--out", self.out, "--seed", str(self.seeds[i % self.pool])]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def collect(self, i, code):
        if code != 0:
            return code, None, None
        digests = {}
        for name in ("fig3_generic.csv", "fig3_preserving.csv"):
            with open(os.path.join(self.out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(self.out, "fig3_slopes.json"), encoding="utf-8") as fh:
            slopes = json.load(fh)["slopes"]
        return code, digests, slopes

    def check(self, i, record):
        code, digests, slopes = record
        if code != 0:
            raise oracles.BadExit(code)
        seed = self.seeds[i % self.pool]
        if seed not in self._expected:
            self._expected[seed] = {
                name: hashlib.sha256(data).hexdigest() for name, data in oracles.fig3_csvs(seed).items()
            }
        for name, want in self._expected[seed].items():
            if digests[name] != want:
                raise oracles.CsvMismatch(f"{name} for seed {seed} differs from the oracle rebuild")
        oracles.check_slopes(slopes)


class Ladder(Workload):
    """detect_ep (+ jordan_chain when certified) over a dimension/depth ladder."""

    name = "ladder"
    dims = (5, 10, 15, 20, 30, 40, 60, 80)
    depths = (2, 3, 4, 5, 6, 7, 8)
    instances = 16
    cycle = len(dims) + len(depths)
    pool = instances * cycle
    count_ops = 2 * cycle
    warm_up_ops = cycle

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        from epkit import compose, ep_core, jordan

        self.compose, self.ep_core, self.jordan = compose, ep_core, jordan
        rng = generator(seed, 3)
        self.items = []
        for _ in range(self.instances):
            for dim in self.dims:
                s = np.eye(dim, dtype=complex) + 0.5 * complex_uniform(rng, (dim, dim))
                s_inv = np.linalg.inv(s)
                lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                h = lam * np.eye(dim) + s @ np.diag(np.ones(dim - 1, dtype=complex), 1) @ s_inv
                self.items.append((f"dim{dim}", dim, h, oracles.jordan_block_xi(s, s_inv)))
            for depth in self.depths:
                omega0 = rng.uniform(0.5, 1.5)
                gs = [log_uniform(rng, 0.5, 2.0) for _ in range(depth)]
                ks = [complex_uniform(rng, (2, 2 * (j + 1))) for j in range(depth - 1)]
                hams = [oracles.dimer_h(omega0, g) for g in gs]
                self.items.append((f"depth{depth}", 2 * depth, (hams, ks), oracles.chain_xi(gs, ks)))

    def kind(self, i):
        return self.items[i % len(self.items)][0]

    def sizes(self) -> list[str]:
        return [f"dim{d}" for d in self.dims] + [f"depth{d}" for d in self.depths]

    def run(self, i, trace_dir=None):
        kind, _, h, _ = self.items[i % len(self.items)]
        if kind.startswith("depth"):
            h = self.compose.compose_many(*h).h
        report = self.ep_core.detect_ep(h)
        via_chain = None
        if report.is_full_ep:
            via_chain = self.jordan.response_from_chain(self.jordan.jordan_chain(report))
        return report.order, report.response_strength, via_chain

    def check(self, i, record):
        kind, dim, _, xi = self.items[i % len(self.items)]
        order, via_norm, via_chain = record
        oracles.check_order(order, dim, kind)
        oracles.check_xi(via_norm, xi, oracles.XI_RTOL_LADDER, f"{kind} xi by norm")
        oracles.check_xi(via_chain, xi, oracles.XI_RTOL_LADDER, f"{kind} xi by chain")


class CliCold(Workload):
    """One fresh interpreter per op running `epkit.cli.entry` on seeded input files."""

    name = "cli_cold"
    commands = ("analyze", "jordan", "compose")
    cycle = len(commands)
    count_ops = cycle
    sets = 6
    pool = sets * cycle

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = generator(seed, 4)
        self.child = os.path.join(root, "bench", "cli_child.py")
        self.inputs = []
        for j in range(self.sets):
            d = os.path.join(workdir, "cli", str(j))
            os.makedirs(d, exist_ok=True)
            # analyze / jordan rotate through dimer, trimer and the 5x5 composite;
            # the six sets cover each target as a named model and as a matrix,
            # and `compose` gets single-entry and dense K alike
            target = ("dimer", "trimer", "composite")[j % 3]
            named = (j // 3) % 2 == 0
            g_a = log_uniform(rng, 0.1, 10.0)
            g_b = log_uniform(rng, 0.1, 10.0)
            # the named composite model can only couple through a single entry at (1, 1)
            named_composite = named and target == "composite"
            _, _, k = criterion2_draw(rng, single_entry=named_composite or j % 2 == 0)
            h_a, h_b = oracles.dimer_h(1.0, g_a), oracles.trimer_h(1.0, g_b)
            files = {
                "dimer": {"model": "dimer", "omega0": 1.0, "g_a": g_a} if named else _matrix_json(h_a),
                "trimer": {"model": "trimer", "omega0": 1.0, "g_b": g_b} if named else _matrix_json(h_b),
                "k": _matrix_json(k),
            }
            if named_composite:
                files["composite"] = {"model": "dimer_trimer", "omega0": 1.0, "g_a": g_a, "g_b": g_b,
                                      "k": [k[0, 0].real, k[0, 0].imag]}
            elif target == "composite":
                files["composite"] = _matrix_json(oracles.composite_h(h_a, h_b, k))
            paths = {}
            for key, obj in files.items():
                paths[key] = os.path.join(d, f"{key}.json")
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            xi = {"dimer": oracles.dimer_xi(g_a), "trimer": oracles.trimer_xi(g_b),
                  "composite": oracles.composite_xi(g_a, g_b, k)}
            dims = {"dimer": 2, "trimer": 3, "composite": 5}
            self.inputs.append({"paths": paths, "target": target, "xi": xi, "dim": dims[target]})

    def kind(self, i):
        return self.commands[i % self.cycle]

    def argv(self, i) -> list[str]:
        item = self.inputs[(i // self.cycle) % self.sets]
        p = item["paths"]
        command = self.kind(i)
        if command == "compose":
            return ["compose", "--a", p["dimer"], "--b", p["trimer"], "--k", p["k"]]
        return [command, "--input", p[item["target"]]]

    def run(self, i, trace_dir=None):
        cmd = [sys.executable, self.child]
        if trace_dir is not None:
            cmd += ["--trace-out", os.path.join(trace_dir, f"op{i}.npz")]
        proc = subprocess.run(cmd + self.argv(i), cwd=self.root, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout

    def check(self, i, record):
        code, stdout = record
        if code != 0:
            raise oracles.BadExit(code)
        payload = json.loads(stdout)
        item = self.inputs[(i // self.cycle) % self.sets]
        xi = item["xi"]
        tol = oracles.XI_RTOL_5X5
        command = self.kind(i)
        if command == "analyze":
            oracles.check_order(payload["order"], item["dim"], f"analyze {item['target']}")
            oracles.check_xi(payload["response_strength"], xi[item["target"]], tol, f"analyze {item['target']}")
        elif command == "jordan":
            oracles.check_order(payload["n"], item["dim"], f"jordan {item['target']}")
            oracles.check_xi(payload["response_strength"], xi[item["target"]], tol, f"jordan {item['target']}")
        else:
            oracles.check_order(payload["order"], 5, "compose")
            oracles.check_xi(payload["xi"], xi["composite"], tol, "compose xi")
            oracles.check_xi(payload["xi_a"], xi["dimer"], tol, "compose xi_a")
            oracles.check_xi(payload["xi_b"], xi["trimer"], tol, "compose xi_b")


def _matrix_json(m: np.ndarray) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1],
            "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}


WORKLOADS = {w.name: w for w in (CliCold, Certify5x5, Fig3Sweep, Ladder)}
