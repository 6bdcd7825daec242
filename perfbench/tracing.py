"""Outside-in layer tracing for the benchmark.

The tracer rebinds the public functions of each ``mcuq`` module to timing
wrappers. Every module attribute that holds the original function is
rebound, so both ``module.fn`` lookups and names bound by ``from x import
fn`` hit the wrapper. Nothing under ``src/`` is edited; the originals are
restored when the context exits.

Spans live in memory as ``[name, start, end, parent, group, phase]`` lists
and are written out once, at the end of the run. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LEVEL = {8: 0, 4: 1, 2: 2, 32: 0}  # demotion steps below 8 bits


def layer_macs(layer) -> int:
    """Multiply-accumulates (or accumulates, for pools and adds) per image."""
    kind = layer.kind
    if kind == "conv2d":
        return layer.out_numel * layer.in_channels * layer.kernel_h * layer.kernel_w
    if kind in ("depthwise_conv2d", "avg_pool"):
        return layer.out_numel * layer.kernel_h * layer.kernel_w
    if kind == "pointwise_conv2d":
        return layer.out_numel * layer.in_channels
    if kind == "fully_connected":
        c, h, w = layer.input_shape
        return layer.out_channels * c * h * w
    if kind == "add_residual":
        return layer.out_numel
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.group = 0
        self.phase = "setup"
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.group, self.phase])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """A benchmark-level span that opens a new group (one episode, batch or image)."""
        self.group += 1
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.phase, key)] += n

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "group", "phase"],
            "spans": self.spans,
            "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# Counting hooks, called after the wrapped function returns
# ---------------------------------------------------------------------------

def _demotions(tr: Tracer, args, kwargs, out) -> None:
    before = args[1]
    steps = sum(LEVEL[out.weight_bits[k]] - LEVEL[v] for k, v in before.weight_bits.items())
    steps += sum(LEVEL[out.act_bits[k]] - LEVEL[v] for k, v in before.act_bits.items())
    tr.count("memory_model.demotions", steps)


def _unpacked(tr: Tracer, args, kwargs, out) -> None:
    tr.count("quantizer.unpack_subbyte_bytes", len(args[0]))


def _serialized(tr: Tracer, args, kwargs, out) -> None:
    tr.count("packed_model.model_bytes", len(out))
    tr.count("packed_model.serialize_calls")


def _layer_run(tr: Tracer, args, kwargs, out) -> None:
    layer, n = args[0], len(args[2][0])
    tr.count(f"macs.{layer.kind}", layer_macs(layer) * n)


def _forward_name(args, kwargs) -> str:
    return "qat.forward_train" if kwargs.get("train") else "qat.forward_eval"


def _layer_name(args, kwargs) -> str:
    return f"inference.layer.{args[0].id}.{args[0].kind}"


# (module, attribute path, span name or naming function, counting hook)
TARGETS = [
    ("mcuq.graph_ir", "liveness", "graph_ir.liveness", None),
    ("mcuq.memory_model", "enforce_rom", "memory_model.enforce_rom", _demotions),
    ("mcuq.memory_model", "enforce_ram", "memory_model.enforce_ram", _demotions),
    ("mcuq.memory_model", "rom_footprint", "memory_model.rom_footprint", None),
    ("mcuq.memory_model", "ram_footprint", "memory_model.ram_footprint", None),
    ("mcuq.memory_model", "footprint", "memory_model.footprint", None),
    ("mcuq.memory_model", "validate_policy", "memory_model.validate_policy", None),
    ("mcuq.search", "run_episode", "search.run_episode", None),
    ("mcuq.search", "observe", "search.observe", None),
    ("mcuq.search", "DDPGAgent.act", "search.agent_act", None),
    ("mcuq.search", "DDPGAgent.update", "search.agent_update", None),
    ("mcuq.qat", "pretrain_float", "qat.pretrain", None),
    ("mcuq.qat", "train_qat", "qat.train_qat", None),
    ("mcuq.qat", "train_network", "qat.train_network", None),
    ("mcuq.qat", "forward_network", _forward_name, None),
    ("mcuq.qat", "backward_network", "qat.backward", None),
    ("mcuq.qat", "evaluate", "qat.evaluate", None),
    ("mcuq.qat", "collect_activations", "qat.calibrate", None),
    ("mcuq.data", "synthetic_shapes", "data.synthetic", None),
    ("mcuq.data", "make_proxy", "data.make_proxy", None),
    ("mcuq.quantizer", "fake_quant_weights", "quantizer.fake_quant_weights", None),
    ("mcuq.quantizer", "unpack_subbyte", "quantizer.unpack_subbyte", _unpacked),
    ("mcuq.quantizer", "apply_requant", "quantizer.apply_requant", None),
    ("mcuq.quantizer", "quantize_act", "quantizer.quantize_act", None),
    ("mcuq.packed_model", "build_packed_model", "packed_model.build", None),
    ("mcuq.packed_model", "serialize", "packed_model.serialize", _serialized),
    ("mcuq.packed_model", "deserialize", "packed_model.deserialize", None),
    ("mcuq.packed_model", "check_model_matches", "packed_model.check_model_matches", None),
    ("mcuq.inference", "run_codes_layer", _layer_name, _layer_run),
    ("mcuq.inference", "run_batch_int", "inference.run_batch_int", None),
    ("mcuq.inference", "run_network_int", "inference.run_network_int", None),
    ("mcuq.inference", "evaluate_accuracy", "inference.evaluate_accuracy", None),
]

# Spans whose self time is glue rather than a layer's work: it is reported
# as the unattributed remainder.
CONTAINERS = {
    "search.run_episode", "qat.train_qat", "qat.evaluate",
    "inference.run_batch_int", "inference.run_network_int",
    "inference.evaluate_accuracy",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def rebound(replace: dict[tuple[str, str], object]):
    """Swap functions for stand-ins wherever an ``mcuq`` module or class holds them.

    ``replace`` maps (module, attribute path) to a factory taking the original
    function and returning its stand-in.
    """
    saved = []
    try:
        for (module, path), make in replace.items():
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            new = make(orig)
            if "." in path:  # a method: rebind it on its class
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "mcuq" and not name.startswith("mcuq."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, new)
        yield
    finally:
        for owner, key, orig in reversed(saved):
            setattr(owner, key, orig)


def _wrapper(tr: Tracer, name, hook):
    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tr.enter(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.exit(idx)
            if hook is not None:
                hook(tr, args, kwargs, out)
            return out
        return traced
    return make


@contextmanager
def instrumented(tr: Tracer):
    """Trace every function in TARGETS for the duration of the context."""
    with rebound({(m, p): _wrapper(tr, name, hook) for m, p, name, hook in TARGETS}):
        yield


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_SELF_S = {
    "graph_ir.liveness_s": "graph_ir.liveness",
    "memory_model.enforce_rom_s": "memory_model.enforce_rom",
    "memory_model.enforce_ram_s": "memory_model.enforce_ram",
    "memory_model.rom_footprint_s": "memory_model.rom_footprint",
    "memory_model.ram_footprint_s": "memory_model.ram_footprint",
    "memory_model.footprint_s": "memory_model.footprint",
    "memory_model.validate_policy_s": "memory_model.validate_policy",
    "search.observe_s": "search.observe",
    "search.agent_act_s": "search.agent_act",
    "search.agent_update_s": "search.agent_update",
    "qat.forward_train_s": "qat.forward_train",
    "qat.forward_eval_s": "qat.forward_eval",
    "qat.backward_s": "qat.backward",
    "qat.train_other_s": "qat.train_network",
    "quantizer.fake_quant_weights_s": "quantizer.fake_quant_weights",
    "quantizer.unpack_subbyte_s": "quantizer.unpack_subbyte",
    "quantizer.apply_requant_s": "quantizer.apply_requant",
    "quantizer.quantize_act_s": "quantizer.quantize_act",
    "packed_model.build_s": "packed_model.build",
    "packed_model.serialize_s": "packed_model.serialize",
    "packed_model.deserialize_s": "packed_model.deserialize",
    "packed_model.check_model_matches_s": "packed_model.check_model_matches",
}
_CALLS = {
    "graph_ir.liveness_calls": "graph_ir.liveness",
    "memory_model.ram_footprint_calls": "memory_model.ram_footprint",
    "quantizer.unpack_subbyte_calls": "quantizer.unpack_subbyte",
}
_SETUP_S = {
    "qat.pretrain_s": "qat.pretrain",
    "qat.calibrate_s": "qat.calibrate",
    "data.synthetic_s": "data.synthetic",
    "data.make_proxy_s": "data.make_proxy",
}
_ENFORCE = {"memory_model.enforce_rom", "memory_model.enforce_ram",
            "memory_model.validate_policy", "memory_model.footprint"}
INT_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "fully_connected",
             "avg_pool")


def layer_metric_names(graphs) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, for the given graphs' layers."""
    names = [(n, "s") for n in _SELF_S] + [(n, "count") for n in _CALLS]
    names += [("memory_model.demotions", "count"), ("search.enforce_s", "s"),
              ("search.qat_s", "s"), ("quantizer.unpack_subbyte_bytes", "bytes"),
              ("packed_model.model_bytes", "bytes")]
    names += [(n, "s") for n in _SETUP_S]
    for kind in INT_KINDS:
        names += [(f"inference.kind.{kind}_s", "s"), (f"inference.kind.{kind}.macs", "count"),
                  (f"inference.kind.{kind}.mac_per_s", "MAC/s")]
    seen = set()
    for g in graphs:
        for layer in g.layers:
            if layer.kind in INT_KINDS and (layer.id, layer.kind) not in seen:
                seen.add((layer.id, layer.kind))
                names.append((f"inference.layer.{layer.id}.{layer.kind}_s", "s"))
    names += [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
              ("trace.unattributed_s", "s"), ("trace.unattributed_share", "ratio")]
    return names


def layer_metrics(tr: Tracer, names, graph, n_ops: int,
                  untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer values over the traced work phase, per workload operation.

    Times and dynamic counts are divided by ``n_ops``; ``*.macs`` is the
    static count per image; setup times are per (single, traced) set-up.
    """
    selfs = tr.self_times()
    by_self: dict[str, float] = defaultdict(float)
    by_calls: dict[str, int] = defaultdict(int)
    setup: dict[str, float] = defaultdict(float)
    enforce = qat = unattributed = bench = 0.0
    for s, self_s in zip(tr.spans, selfs):
        name, t0, t1, parent, _, phase = s
        if phase == "setup":
            setup[name] += t1 - t0
            continue
        by_self[name] += self_s
        by_calls[name] += 1
        if name.startswith("bench."):
            bench += t1 - t0
        if name.startswith("bench.") or name in CONTAINERS:
            unattributed += self_s
        if name in _ENFORCE and parent >= 0 and tr.spans[parent][0] == "search.run_episode":
            enforce += t1 - t0
        if name == "qat.train_qat":
            qat += t1 - t0
    counts = {k: v for (p, k), v in tr.counts.items() if p == "work"}
    per = 1.0 / max(n_ops, 1)
    out = {m: by_self[s] * per for m, s in _SELF_S.items()}
    out.update({m: by_calls[s] * per for m, s in _CALLS.items()})
    out.update({m: setup[s] for m, s in _SETUP_S.items()})
    n_ser = counts.get("packed_model.serialize_calls", 0)
    out.update({
        "memory_model.demotions": counts.get("memory_model.demotions", 0) * per,
        "search.enforce_s": enforce * per,
        "search.qat_s": qat * per,
        "quantizer.unpack_subbyte_bytes": counts.get("quantizer.unpack_subbyte_bytes", 0) * per,
        "packed_model.model_bytes": counts.get("packed_model.model_bytes", 0) / n_ser if n_ser else 0,
    })
    ran_int = any(k.startswith("macs.") for k in counts)
    for kind in INT_KINDS:
        kind_s = sum(v for k, v in by_self.items()
                     if k.startswith("inference.layer.") and k.endswith("." + kind))
        macs = counts.get(f"macs.{kind}", 0)
        static = sum(layer_macs(l) for l in graph.layers if l.kind == kind) if ran_int else 0
        out[f"inference.kind.{kind}_s"] = kind_s * per
        out[f"inference.kind.{kind}.macs"] = static
        out[f"inference.kind.{kind}.mac_per_s"] = macs / kind_s if kind_s > 0 else 0.0
    for name, _ in names:
        if name.startswith("inference.layer."):
            out[name] = by_self[name[:-2]] * per
    out["trace.overhead_s"] = (traced_s - untraced_s) * per
    out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    out["trace.unattributed_s"] = unattributed * per
    out["trace.unattributed_share"] = unattributed / bench if bench else 0.0
    return {name: out[name] for name, _ in names}
