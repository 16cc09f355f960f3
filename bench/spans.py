"""Span tracing of epkit from outside the package.

`Tracer.install` replaces every public function of the epkit layer modules,
under every name it is reachable by, with a wrapper that records a span, and
wraps ``numpy.linalg.{svd, eigvals, matrix_power}`` the same way so LAPACK
calls are counted and attributed to the layer that made them.  Nothing in
``src/`` is edited; `Tracer.uninstall` restores the originals.

Spans live in memory as parallel arrays (name id, start, end, parent, op id,
error id, extra) and are only recorded while an op is open, so set-up work
and oracle checks never appear.  `summarize` turns them into per-layer
metrics after the traced phase.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "models", "cmatrix", "ep_core", "jordan", "compose", "perturb")
LAPACK = {"svd": "svd", "eigvals": "eig", "matrix_power": "matrix_power"}
#: argument validators called once per argument by every cmatrix entry point;
#: left unwrapped so their time stays in the caller's self time and the
#: tracer does not double the span count
UNWRAPPED = {"cmatrix.as_matrix", "cmatrix.as_square", "cmatrix.as_vector"}

_C16 = 16  # bytes per complex128 element


def _lapack_cost(kernel: str, args, kwargs) -> tuple[float, float]:
    """(flops, bytes) computed from array shapes, never measured.

    Real-flop counts of the textbook algorithms (Golub & Van Loan), times 4
    for complex arithmetic; bytes are input plus output array sizes.
    """
    a = np.asarray(args[0])
    if kernel == "matrix_power":
        n = a.shape[-1]
        p = int(args[1] if len(args) > 1 else kwargs["n"])
        products = 0 if p <= 1 else (p.bit_length() - 1) + (bin(p).count("1") - 1)
        return 8.0 * n**3 * products, float(_C16 * n * n * (1 + max(products, 1)))
    m, n = a.shape[-2], a.shape[-1]
    if kernel == "eigvals":
        return 4.0 * 10.0 * n**3, float(_C16 * n * n + _C16 * n)
    small, large = min(m, n), max(m, n)
    if kwargs.get("compute_uv", True):
        flops = 4.0 * (4.0 * large**2 * small + 8.0 * large * small**2 + 9.0 * small**3)
        out = _C16 * (m * m + n * n) + 8 * small
    else:
        flops = 4.0 * (4.0 * large * small**2 - 4.0 * small**3 / 3.0)
        out = 8 * small
    return flops, float(_C16 * m * n + out)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = []
        self._error_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("i")
        self.extra = array("d")   # detect_ep: input fingerprint; LAPACK: flops
        self.extra2 = array("d")  # LAPACK: bytes
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, table: dict, items: list, key: str) -> int:
        idx = table.get(key)
        if idx is None:
            idx = table[key] = len(items)
            items.append(key)
        return idx

    def _open(self, name_id: int, extra: float = 0.0, extra2: float = 0.0) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.error.append(-1)
        self.extra.append(extra)
        self.extra2.append(extra2)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.end[idx] = perf_counter()
        if exc is not None:
            self.error[idx] = self._intern(self._error_ids, self.errors, type(exc).__name__)
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        self._op_id = op_id
        return self._open(self._intern(self._name_ids, self.names, f"op.{kind}"))

    def end_op(self, idx: int, exc: BaseException | None = None) -> None:
        self._close(idx, exc)
        self._op_id = -1

    def _wrap(self, func, name: str, kind: str):
        name_id = self._intern(self._name_ids, self.names, name)
        kernel = name.split(".")[1] if kind == "lapack" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op_id < 0:
                return func(*args, **kwargs)
            extra = extra2 = 0.0
            if kernel is not None:
                extra, extra2 = _lapack_cost(kernel, args, kwargs)
            elif kind == "fingerprint" and args:
                digest = hashlib.blake2b(np.asarray(args[0]).tobytes(), digest_size=6).digest()
                extra = float(int.from_bytes(digest, "little"))
            idx = tracer._open(name_id, extra, extra2)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, exc)
                raise
            tracer._close(idx, None)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap public epkit functions under every alias, and numpy LAPACK entry points."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import epkit

        modules = [epkit] + [sys.modules[f"epkit.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"epkit.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                kind = "fingerprint" if name == "ep_core.detect_ep" else "layer"
                wrappers[obj] = self._wrap(obj, name, kind)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for attr, kernel in LAPACK.items():
            self._set(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"lapack.{kernel}", "lapack"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- export ------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays plus the name and error tables."""
        return {
            "names": np.array(self.names, dtype=object),
            "errors": np.array(self.errors, dtype=object),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int32).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
            "extra2": np.frombuffer(self.extra2, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        save_arrays(path, self.arrays())


def save_arrays(path: str, sp: dict) -> None:
    """Write a span set once, as a compressed numpy archive."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    data = dict(sp)
    for key in ("names", "errors"):
        data[key] = np.array([str(x) for x in sp[key]], dtype=str)
    np.savez_compressed(path, **data)


def load(path: str) -> dict:
    with np.load(path, allow_pickle=False) as f:
        return {k: f[k] for k in f.files}


def concat(parts: list[tuple[int, dict]]) -> dict:
    """Merge (first op id, span set) pairs from several processes; op ids and parents are re-based."""
    names: list[str] = []
    errors: list[str] = []
    out = {k: [] for k in ("name_id", "start", "end", "parent", "op", "error", "extra", "extra2")}
    offset = 0
    for op_base, part in parts:
        name_map = np.array([_index(names, str(n)) for n in part["names"]], dtype=np.int32)
        err_map = np.array([_index(errors, str(e)) for e in part["errors"]] + [-1], dtype=np.int32)
        out["name_id"].append(name_map[part["name_id"]] if len(part["name_id"]) else part["name_id"])
        out["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        out["op"].append(np.where(part["op"] >= 0, part["op"] + op_base, -1))
        out["error"].append(err_map[part["error"]])
        for k in ("start", "end", "extra", "extra2"):
            out[k].append(part[k])
        offset += len(part["start"])
    merged = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in out.items()}
    for k in ("name_id", "parent", "op", "error"):
        merged[k] = merged[k].astype(np.int64)
    merged["names"] = np.array(names, dtype=object)
    merged["errors"] = np.array(errors, dtype=object)
    return merged


def _index(items: list[str], key: str) -> int:
    if key not in items:
        items.append(key)
    return items.index(key)


# ---------------------------------------------------------------------------
# per-layer metrics

def summarize(sp: dict, n_ops: int, count_ops: int, op_kinds: dict[int, str]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from one traced phase.

    Times are seconds per op over all `n_ops` traced ops.  Call counts are
    per op over the first `count_ops` ops, a prefix fixed by the workload
    seed, so two traced runs with the same seed give identical counts.
    Also returns the exceptions that left a layer, keyed
    ``<layer>.errors.<ExceptionType>``.
    """
    names = [str(n) for n in sp["names"]]
    name_id = sp["name_id"].astype(np.int64)
    parent = sp["parent"].astype(np.int64)
    op = sp["op"].astype(np.int64)
    dur = sp["end"] - sp["start"]
    n = len(dur)
    span_name = np.array(names, dtype=object)[name_id] if n else np.zeros(0, dtype=object)
    layer = np.array([s.split(".")[0] for s in span_name], dtype=object) if n else span_name
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else dur
    self_t = dur - child_sum
    counted = op < count_ops
    per_op = 1.0 / max(n_ops, 1)
    per_count_op = 1.0 / max(count_ops, 1)

    def is_name(name):
        return span_name == name

    def total(mask):
        return float(dur[mask].sum()) * per_op

    def calls(mask):
        return float(np.count_nonzero(mask & counted)) * per_count_op

    # innermost enclosing span outside cmatrix/lapack = the calling layer
    parents = parent.tolist()
    layers = layer.tolist()
    names_l = span_name.tolist()
    caller = [""] * n
    in_compose = [False] * n
    tracked = ("ep_core.detect_ep", "jordan.jordan_chain", "perturb.sweep")
    within = {name: [False] * n for name in tracked}
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lp = layers[p]
        caller[i] = lp if lp not in ("cmatrix", "lapack") else caller[p]
        in_compose[i] = lp == "compose" or in_compose[p]
        for name in tracked:
            w = within[name]
            w[i] = names_l[p] == name or w[p]
    caller = np.array(caller, dtype=object)
    in_compose = np.array(in_compose, dtype=bool)
    within = {name: np.array(w, dtype=bool) for name, w in within.items()}

    svd = is_name("lapack.svd")
    eig = is_name("lapack.eig")
    mpow = is_name("lapack.matrix_power")
    lapack = svd | eig | mpow
    detect = is_name("ep_core.detect_ep")
    chain = is_name("jordan.jordan_chain")
    sweep = is_name("perturb.sweep")
    m: dict[str, float] = {}

    m["cli.main.calls"] = calls(is_name("cli.main"))
    m["cli.main.self_s"] = float(self_t[layer == "cli"].sum()) * per_op
    m["models.load_system.s"] = total(is_name("models.load_system"))
    m["models.dimer_trimer_system.s"] = total(is_name("models.dimer_trimer_system"))

    for key, mask in (("svd", svd), ("eig", eig), ("matrix_power", mpow)):
        m[f"cmatrix.{key}.calls"] = calls(mask)
        m[f"cmatrix.{key}.s"] = total(mask)
    m["cmatrix.self_s"] = float(self_t[layer == "cmatrix"].sum()) * per_op
    m["cmatrix.flops_computed"] = float(sp["extra"][lapack & counted].sum()) * per_count_op
    m["cmatrix.bytes_computed"] = float(sp["extra2"][lapack & counted].sum()) * per_count_op

    for lay, key, mask in (
        ("ep_core", "svd", svd), ("jordan", "svd", svd), ("compose", "svd", svd), ("cli", "svd", svd),
        ("perturb", "eig", eig), ("ep_core", "matrix_power", mpow), ("compose", "matrix_power", mpow),
    ):
        m[f"{lay}.{key}.calls"] = calls(mask & (caller == lay))

    n_detect = np.count_nonzero(detect & counted)
    m["ep_core.detect_ep.calls"] = calls(detect)
    m["ep_core.detect_ep.s"] = total(detect)
    m["ep_core.detect_ep.self_s"] = float(self_t[detect].sum()) * per_op
    m["ep_core.nilpotency_index.s"] = total(is_name("ep_core.nilpotency_index"))
    m["ep_core.svd_per_detect"] = _ratio(np.count_nonzero(svd & within["ep_core.detect_ep"] & counted), n_detect)
    distinct = 0
    for o in np.unique(op[detect & counted]):
        distinct += len(set(sp["extra"][detect & (op == o)].tolist()))
    m["ep_core.detect_ep.distinct_share"] = _ratio(distinct, n_detect)

    m["jordan.jordan_chain.calls"] = calls(chain)
    m["jordan.jordan_chain.s"] = total(chain)
    m["jordan.jordan_chain.self_s"] = float(self_t[chain].sum()) * per_op
    m["jordan.svd_per_chain"] = _ratio(
        np.count_nonzero(svd & within["jordan.jordan_chain"] & counted), np.count_nonzero(chain & counted)
    )

    for fn in ("block_compose", "genericity_product", "composite_response"):
        m[f"compose.{fn}.s"] = total(is_name(f"compose.{fn}"))
    m["compose.self_s"] = float(self_t[layer == "compose"].sum()) * per_op
    m["compose.detect_ep.calls"] = calls(detect & in_compose)

    m["perturb.sweep.s"] = total(sweep)
    m["perturb.sweep.self_s"] = float(self_t[sweep].sum()) * per_op
    m["perturb.max_splitting.calls"] = calls(is_name("perturb.max_splitting"))
    m["perturb.draw.s"] = total(is_name("perturb.random_generic") | is_name("perturb.random_preserving"))
    m["perturb.fit_slope.s"] = total(is_name("perturb.fit_slope"))
    m["perturb.records_to_csv.s"] = total(is_name("perturb.records_to_csv"))
    sweep_t = float(dur[sweep].sum())
    m["perturb.eig_share"] = float(dur[eig & within["perturb.sweep"]].sum()) / sweep_t if sweep_t > 0 else 0.0

    compose_ops = [o for o, kind in op_kinds.items() if kind == "compose" and o < count_ops]
    in_compose_op = np.isin(op, compose_ops)
    m["cli.compose.svd_calls"] = _ratio(np.count_nonzero(svd & in_compose_op), len(compose_ops))
    m["cli.compose.matrix_power_calls"] = _ratio(np.count_nonzero(mpow & in_compose_op), len(compose_ops))

    # exceptions that leave a layer: raised by a span whose parent is another layer
    error = sp["error"].astype(np.int64)
    errors = [str(e) for e in sp["errors"]]
    escaped: dict[str, int] = {}
    for i in np.flatnonzero(error >= 0).tolist():
        p = parents[i]
        if errors[error[i]] == "SystemExit" or layers[i] in ("op", "lapack") or (p >= 0 and layers[p] == layers[i]):
            continue
        key = f"{layers[i]}.errors.{errors[error[i]]}"
        escaped[key] = escaped.get(key, 0) + 1
    return m, escaped


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
