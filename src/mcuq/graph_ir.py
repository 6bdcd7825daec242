"""Network graph loading, validation, and analysis.

A graph is a DAG of layers. Every layer except the ``output`` sink produces
exactly one activation tensor, identified by the producing layer's id. The
execution schedule is the deterministic topological order (ties broken by
ascending id), which makes activation liveness -- and therefore the RAM
footprint -- reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import GraphValidationError

CONV_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d")
WEIGHTED_KINDS = CONV_KINDS + ("fully_connected",)
# Kinds whose integer kernels consume encoded (quantized) input tensors.
COMPUTE_KINDS = WEIGHTED_KINDS + ("add_residual", "avg_pool")
ALL_KINDS = COMPUTE_KINDS + ("relu_clip", "input", "output")


@dataclass(frozen=True)
class LayerSpec:
    id: int
    kind: str
    input_ids: tuple[int, ...]
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    input_shape: tuple[int, int, int]
    output_shape: tuple[int, int, int]
    param_count: int
    bias_count: int

    @property
    def in_channels(self) -> int:
        return self.input_shape[0]

    @property
    def out_numel(self) -> int:
        c, h, w = self.output_shape
        return c * h * w

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """Kernel shape of a weighted kind, output channels first; () for the rest."""
        if self.kind == "conv2d":
            return (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if self.kind == "depthwise_conv2d":
            return (self.out_channels, self.kernel_h, self.kernel_w)
        if self.kind == "pointwise_conv2d":
            return (self.out_channels, self.in_channels)
        if self.kind == "fully_connected":
            return (self.out_channels, math.prod(self.input_shape))
        return ()


@dataclass(frozen=True)
class NetworkGraph:
    layers: tuple[LayerSpec, ...]
    resolution: int
    width_multiplier: float
    _by_id: dict[int, LayerSpec] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {l.id: l for l in self.layers})

    def layer(self, layer_id: int) -> LayerSpec:
        return self._by_id[layer_id]

    @property
    def input_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "input")

    @property
    def output_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "output")

    def weighted_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind in WEIGHTED_KINDS]

    def consumers(self, tensor_id: int) -> list[LayerSpec]:
        return [l for l in self.layers if tensor_id in l.input_ids]

    def tensor_ids(self) -> list[int]:
        """Ids of all activation tensors (one per non-output layer)."""
        return [l.id for l in self.layers if l.kind != "output"]

    def tensor_numel(self, tensor_id: int) -> int:
        return self.layer(tensor_id).out_numel

    def is_encoded(self, tensor_id: int) -> bool:
        """Whether a tensor needs a quantized encoding: any non-output layer consumes it."""
        return any(c.kind != "output" for c in self.consumers(tensor_id))

    def encoded_tensors(self) -> list[int]:
        """Tensors that need a quantized encoding, in layer order."""
        return [t for t in self.tensor_ids() if self.is_encoded(t)]

    def decidable_act_tensors(self) -> list[int]:
        """Tensors the policy search acts on: those feeding quantized compute."""
        return [
            t for t in self.tensor_ids()
            if any(c.kind in COMPUTE_KINDS for c in self.consumers(t))
        ]

    def residual_tensors(self) -> set[int]:
        """Inputs and outputs of residual adds (held at fixed 8-bit by the search)."""
        out: set[int] = set()
        for l in self.layers:
            if l.kind == "add_residual":
                out.update(l.input_ids)
                out.add(l.id)
        return out


def _conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _expected_params(layer: LayerSpec) -> int:
    return math.prod(layer.weight_shape) if layer.kind in WEIGHTED_KINDS else 0


def _validate_layer(layer: LayerSpec, by_id: dict[int, LayerSpec]) -> None:
    lid = layer.id
    if layer.kind not in ALL_KINDS:
        raise GraphValidationError(f"unknown kind {layer.kind!r}", lid)

    arity = {"input": 0, "add_residual": 2}.get(layer.kind, 1)
    if len(layer.input_ids) != arity:
        raise GraphValidationError(
            f"{layer.kind} expects {arity} inputs, got {len(layer.input_ids)}", lid)
    for ref in layer.input_ids:
        if ref not in by_id:
            raise GraphValidationError(f"input id {ref} does not exist", lid)
        if by_id[ref].kind == "output":
            raise GraphValidationError(f"input id {ref} is an output layer", lid)

    if layer.input_ids:
        feed = by_id[layer.input_ids[0]].output_shape
        if layer.input_shape != feed:
            raise GraphValidationError(
                f"input_shape {layer.input_shape} != producer output {feed}", lid)

    cin, h, w = layer.input_shape
    if layer.kind in CONV_KINDS + ("avg_pool",):
        oh, ow = _conv_out_hw(h, w, layer.kernel_h, layer.kernel_w,
                              layer.stride, layer.padding)
        expect = (layer.out_channels, oh, ow)
        if layer.output_shape != expect:
            raise GraphValidationError(
                f"output_shape {layer.output_shape} != {expect} from conv arithmetic", lid)
        if layer.kind == "depthwise_conv2d" and layer.out_channels != cin:
            raise GraphValidationError("depthwise out_channels must equal in_channels", lid)
        if layer.kind == "pointwise_conv2d" and (layer.kernel_h, layer.kernel_w) != (1, 1):
            raise GraphValidationError("pointwise kernel must be 1x1", lid)
        if layer.kind == "avg_pool" and layer.out_channels != cin:
            raise GraphValidationError("avg_pool cannot change channel count", lid)
    elif layer.kind == "fully_connected":
        if layer.output_shape != (layer.out_channels, 1, 1):
            raise GraphValidationError("fully_connected output_shape must be (out,1,1)", lid)
    elif layer.kind == "add_residual":
        a, b = (by_id[i].output_shape for i in layer.input_ids)
        if a != b:
            raise GraphValidationError(f"residual inputs differ in shape: {a} vs {b}", lid)
        if layer.output_shape != a:
            raise GraphValidationError("residual output_shape must match inputs", lid)
    elif layer.kind in ("relu_clip", "output"):
        if layer.output_shape != layer.input_shape:
            raise GraphValidationError(f"{layer.kind} must preserve shape", lid)

    expect_p = _expected_params(layer)
    if layer.param_count != expect_p:
        raise GraphValidationError(
            f"param_count {layer.param_count} != {expect_p} forced by shapes", lid)
    if layer.bias_count < 0:
        raise GraphValidationError("bias_count must be >= 0", lid)


def _check_topology(layers: tuple[LayerSpec, ...]) -> None:
    kinds = [l.kind for l in layers]
    if kinds.count("input") != 1 or kinds.count("output") != 1:
        raise GraphValidationError("graph must have exactly one input and one output layer")
    ids = [l.id for l in layers]
    if len(set(ids)) != len(ids):
        raise GraphValidationError("duplicate layer ids")


def topo_order(g: NetworkGraph) -> list[int]:
    """Deterministic topological order: ready layers emitted by ascending id."""
    indeg = {l.id: len(l.input_ids) for l in g.layers}
    ready = sorted(lid for lid, d in indeg.items() if d == 0)
    consumers: dict[int, list[int]] = {l.id: [] for l in g.layers}
    for l in g.layers:
        for ref in l.input_ids:
            consumers[ref].append(l.id)
    order: list[int] = []
    while ready:
        lid = ready.pop(0)
        order.append(lid)
        changed = False
        for c in consumers[lid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(g.layers):
        stuck = sorted(lid for lid, d in indeg.items() if d > 0)
        raise GraphValidationError(f"graph contains a cycle through layers {stuck}")
    return order


def liveness(g: NetworkGraph) -> list[frozenset[int]]:
    """Per execution step: ids of live activation tensors.

    A tensor is live from the step of its producer through the step of its
    last consumer; skip-branch tensors therefore stay live across the whole
    parallel branch.
    """
    order = topo_order(g)
    step_of = {lid: i for i, lid in enumerate(order)}
    last_use: dict[int, int] = {}
    for t in g.tensor_ids():
        uses = [step_of[c.id] for c in g.consumers(t)]
        last_use[t] = max(uses, default=step_of[t])
    live: list[frozenset[int]] = []
    for i, lid in enumerate(order):
        layer = g.layer(lid)
        cur = {t for t in g.tensor_ids() if step_of[t] <= i <= last_use[t]}
        cur.update(layer.input_ids)
        if layer.kind != "output":
            cur.add(lid)
        live.append(frozenset(cur))
    return live


def _layer_from_dict(d: dict) -> LayerSpec:
    try:
        return LayerSpec(
            id=int(d["id"]),
            kind=str(d["kind"]),
            input_ids=tuple(int(i) for i in d.get("input_ids", [])),
            out_channels=int(d.get("out_channels", 0)),
            kernel_h=int(d.get("kernel_h", 0)),
            kernel_w=int(d.get("kernel_w", 0)),
            stride=int(d.get("stride", 1)),
            padding=int(d.get("padding", 0)),
            input_shape=tuple(int(x) for x in d["input_shape"]),
            output_shape=tuple(int(x) for x in d["output_shape"]),
            param_count=int(d.get("param_count", 0)),
            bias_count=int(d.get("bias_count", 0)),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise GraphValidationError(f"malformed layer entry: {e}") from e


def validate(g: NetworkGraph) -> NetworkGraph:
    _check_topology(g.layers)
    by_id = {l.id: l for l in g.layers}
    for layer in g.layers:
        _validate_layer(layer, by_id)
    topo_order(g)  # raises on cycles
    return g


def load_graph(path: str) -> NetworkGraph:
    """Load and validate a graph JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise GraphValidationError(f"cannot parse {path}: {e}") from e
    if not isinstance(raw, dict) or "layers" not in raw:
        raise GraphValidationError("top level must be an object with a 'layers' array")
    layers = tuple(_layer_from_dict(d) for d in raw["layers"])
    g = NetworkGraph(
        layers=layers,
        resolution=int(raw.get("resolution", 0)),
        width_multiplier=float(raw.get("width_multiplier", 1.0)),
    )
    return validate(g)


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled graph fixture (e.g. 'toycnn_mnist.json')."""
    from importlib.resources import files

    return str(files("mcuq") / "fixtures" / name)


def save_graph(g: NetworkGraph, path: str) -> None:
    doc = {
        "resolution": g.resolution,
        "width_multiplier": g.width_multiplier,
        "layers": [
            {
                "id": l.id, "kind": l.kind, "input_ids": list(l.input_ids),
                "out_channels": l.out_channels,
                "kernel_h": l.kernel_h, "kernel_w": l.kernel_w,
                "stride": l.stride, "padding": l.padding,
                "input_shape": list(l.input_shape),
                "output_shape": list(l.output_shape),
                "param_count": l.param_count, "bias_count": l.bias_count,
            }
            for l in g.layers
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
