"""Network graph loading, validation, and analysis.

A graph is a DAG of layers. Every layer except the ``output`` sink produces
exactly one activation tensor, identified by the producing layer's id, which
some other layer consumes: the output's one input is the logits. The
execution schedule is the deterministic topological order (ties broken by
ascending id), which makes activation liveness -- and therefore the RAM
footprint -- reproducible. A graph is checked when it is built (by
dataclasses.replace too), so an invalid one raises GraphValidationError and
never exists; the check works out the consumer index and, from it, the
schedule. The layers never change, so each other derived fact is worked out
once per graph, on first use, and kept on it: the encoded tensors and each
tensor's span of steps; from the spans, liveness; and from the layers alone,
each tensor's element count and the weighted layers by id.

read_json is the one reader of every JSON input: graph, policy, --config and
a raw dataset's split.json. A file must be UTF-8 and hold one JSON object,
parsed strictly: NaN and Infinity are not JSON, and no object may hold a key
twice. Any failure raises the caller's McuqError subclass, naming the file.
The formats share two more rules: is_int, a JSON integer, and check_keys,
which rejects a key a format does not define.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DatasetError, GraphValidationError, McuqError

CONV_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d")
WEIGHTED_KINDS = CONV_KINDS + ("fully_connected",)
# Kinds that run through kernels.linear_acc, in training and in the integer engine.
LINEAR_KINDS = WEIGHTED_KINDS + ("avg_pool",)
# Kinds whose integer kernels consume encoded (quantized) input tensors.
COMPUTE_KINDS = WEIGHTED_KINDS + ("add_residual", "avg_pool")
# Kinds the integer engine runs, each from its own PackedLayer record.
RECORD_KINDS = COMPUTE_KINDS + ("relu_clip",)
ALL_KINDS = RECORD_KINDS + ("input", "output")


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
        kinds = [l.kind for l in self.layers]
        if kinds.count("input") != 1 or kinds.count("output") != 1:
            raise GraphValidationError("graph must have exactly one input and one output layer")
        if len(self._by_id) != len(self.layers):
            raise GraphValidationError("duplicate layer ids")
        for layer in self.layers:
            _validate_layer(layer, self._by_id)
        topo_order(self)  # raises on a cycle
        dead = [l.id for l in self.layers if l.kind != "output" and not self._consumers[l.id]]
        if dead:
            raise GraphValidationError(f"layers {dead} are dead: no layer consumes them")

    def __hash__(self) -> int:  # the dataclass's field hash, taken once: the graph is frozen
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.layers, self.resolution, self.width_multiplier))

    @cached_property
    def _consumers(self) -> dict[int, list[LayerSpec]]:
        index: dict[int, list[LayerSpec]] = {l.id: [] for l in self.layers}
        for l in self.layers:
            for t in dict.fromkeys(l.input_ids):
                index[t].append(l)
        return index

    @cached_property
    def _numel(self) -> dict[int, int]:
        return {l.id: l.out_numel for l in self.layers}

    @cached_property
    def _weighted(self) -> dict[int, LayerSpec]:
        return {l.id: l for l in self.layers if l.kind in WEIGHTED_KINDS}

    @cached_property
    def _order(self) -> tuple[int, ...]:
        return _topo_sort(self)

    @cached_property
    def _encoded(self) -> tuple[int, ...]:
        return tuple(t for t in self.tensor_ids() if self.is_encoded(t))

    @cached_property
    def _spans(self) -> dict[int, range]:
        step_of = {lid: i for i, lid in enumerate(self._order)}
        return {t: range(step_of[t], max((step_of[c.id] for c in self._consumers[t]),
                                         default=step_of[t]) + 1)
                for t in sorted(self.tensor_ids(), key=step_of.get)}

    @cached_property
    def _live(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(t for t, span in self._spans.items() if i in span)
                     for i in range(len(self._order)))

    def layer(self, layer_id: int) -> LayerSpec:
        return self._by_id[layer_id]

    @property
    def input_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "input")

    @property
    def output_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "output")

    def check_batch(self, images) -> None:
        """Raise DatasetError unless images is a batch (N, C, H, W) of the input's shape."""
        shape, want = tuple(images.shape[1:]), tuple(self.input_layer.output_shape)
        if shape != want:
            raise DatasetError(f"dataset images are {shape} (C, H, W), the graph's input is {want}")

    def weighted_layers(self) -> list[LayerSpec]:
        return list(self._weighted.values())

    def weighted_by_id(self) -> dict[int, LayerSpec]:
        """The weighted layers keyed by id, in layer order (callers must not change it)."""
        return self._weighted

    def consumers(self, tensor_id: int) -> list[LayerSpec]:
        return list(self._consumers.get(tensor_id, ()))

    def tensor_ids(self) -> list[int]:
        """Ids of all activation tensors (one per non-output layer)."""
        return [l.id for l in self.layers if l.kind != "output"]

    def tensor_numel(self, tensor_id: int) -> int:
        return self._numel[tensor_id]

    def is_encoded(self, tensor_id: int) -> bool:
        """Whether a tensor needs a quantized encoding: any non-output layer consumes it."""
        return any(c.kind != "output" for c in self._consumers.get(tensor_id, ()))

    def encoded_tensors(self) -> tuple[int, ...]:
        """Tensors that need a quantized encoding, in layer order."""
        return self._encoded

    def tensor_spans(self) -> dict[int, range]:
        """Each activation tensor's schedule steps, from its producer's through
        its last consumer's, keyed in the order the tensors are produced
        (callers must not change it)."""
        return self._spans

    def decidable_act_tensors(self) -> list[int]:
        """Tensors the policy search acts on: those feeding quantized compute."""
        return [t for t in self.tensor_ids()
                if any(c.kind in COMPUTE_KINDS for c in self._consumers[t])]

    def residual_tensors(self) -> set[int]:
        """Inputs and outputs of residual adds (held at fixed 8-bit by the search)."""
        out: set[int] = set()
        for l in self.layers:
            if l.kind == "add_residual":
                out.update(l.input_ids)
                out.add(l.id)
        return out


def _expected_params(layer: LayerSpec) -> int:
    return math.prod(layer.weight_shape) if layer.kind in WEIGHTED_KINDS else 0


def _validate_layer(layer: LayerSpec, by_id: dict[int, LayerSpec]) -> None:
    lid = layer.id
    if not 0 <= lid < 1 << 32:  # the u32 that the checkpoint and the container store
        raise GraphValidationError("id is outside [0, 2^32 - 1]", lid)
    if layer.kind not in ALL_KINDS:
        raise GraphValidationError(f"unknown kind {layer.kind!r}", lid)

    for name, shape in (("input_shape", layer.input_shape), ("output_shape", layer.output_shape)):
        if len(shape) != 3 or min(shape) < 1:
            raise GraphValidationError(f"{name} {shape} is not three positive ints", lid)

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
        kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
        if min(kh, kw, s) < 1 or p < 0:
            raise GraphValidationError(f"window needs kernel and stride >= 1 and padding "
                                       f">= 0, got kernel {kh}x{kw}, stride {s}, padding {p}", lid)
        expect = (layer.out_channels, (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1)
        if layer.output_shape != expect:
            raise GraphValidationError(
                f"output_shape {layer.output_shape} != {expect} from conv arithmetic", lid)
        if layer.kind == "depthwise_conv2d" and layer.out_channels != cin:
            raise GraphValidationError("depthwise out_channels must equal in_channels", lid)
        if layer.kind == "pointwise_conv2d" and (kh, kw, s, p) != (1, 1, 1, 0):
            raise GraphValidationError("pointwise must be a 1x1 stride-1 unpadded window", lid)
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

    if layer.out_channels != layer.output_shape[0]:
        raise GraphValidationError(f"out_channels {layer.out_channels} != output_shape "
                                   f"{layer.output_shape} channels", lid)
    if layer.kind in WEIGHTED_KINDS:
        if layer.bias_count < 0 or layer.bias_count % layer.out_channels:
            raise GraphValidationError(f"bias_count {layer.bias_count} is not a multiple >= 0 of "
                                       f"out_channels {layer.out_channels}", lid)
    elif layer.bias_count:
        raise GraphValidationError(f"{layer.kind} has no bias, got bias_count "
                                   f"{layer.bias_count}", lid)
    if layer.kind not in CONV_KINDS + ("avg_pool",) and (
            layer.kernel_h, layer.kernel_w, layer.stride, layer.padding) != (0, 0, 1, 0):
        raise GraphValidationError(f"{layer.kind} takes no kernel, stride or padding", lid)

    expect_p = _expected_params(layer)
    if layer.param_count != expect_p:
        raise GraphValidationError(
            f"param_count {layer.param_count} != {expect_p} forced by shapes", lid)


def topo_order(g: NetworkGraph) -> tuple[int, ...]:
    """Deterministic topological order: ready layers emitted by ascending id,
    worked out when the graph is built (where a cycle raises)."""
    return g._order


def _topo_sort(g: NetworkGraph) -> tuple[int, ...]:
    indeg = {l.id: len(l.input_ids) for l in g.layers}
    ready = sorted(lid for lid, d in indeg.items() if d == 0)  # a sorted list is a heap
    order: list[int] = []
    while ready:
        lid = heapq.heappop(ready)
        order.append(lid)
        for c in g._consumers[lid]:
            indeg[c.id] -= c.input_ids.count(lid)
            if indeg[c.id] == 0:
                heapq.heappush(ready, c.id)
    if len(order) != len(g.layers):
        stuck = sorted(lid for lid, d in indeg.items() if d > 0)
        raise GraphValidationError(f"graph contains a cycle through layers {stuck}")
    return tuple(order)


def liveness(g: NetworkGraph) -> list[frozenset[int]]:
    """Per execution step: ids of live activation tensors, the table that budget
    enforcement and the footprint's peak read.

    A tensor's span (NetworkGraph.tensor_spans) runs from its producer's step
    through its last consumer's; a step holds every tensor whose span covers
    it, so skip-branch tensors stay live across the whole parallel branch.
    """
    return list(g._live)


def walk(g: NetworkGraph, x,
         step: Callable[[LayerSpec, list], object]) -> Iterator[tuple[int, object]]:
    """A forward pass of g on x, one step function per engine. In schedule
    order (topo_order), every layer but the output gets the value
    step(layer, [values of its inputs]), the input layer's inputs being [x],
    and (tensor id, value) is yielded. The walk holds only the live set: after
    each step it drops the values whose span (NetworkGraph.tensor_spans) ends
    there, so at the yield of step i it holds exactly liveness(g)[i]. What a
    caller keeps of the values is the caller's to hold."""
    spans, held = g.tensor_spans(), {}
    for i, lid in enumerate(topo_order(g)):
        layer = g.layer(lid)
        if layer.kind == "output":
            continue
        held[lid] = step(layer, [x] if layer.kind == "input"
                         else [held[t] for t in layer.input_ids])
        yield lid, held[lid]
        held = {t: v for t, v in held.items() if i + 1 in spans[t]}


# the integer fields of a layer entry, with their defaults, and its integer lists
_INT_FIELDS = {"out_channels": 0, "kernel_h": 0, "kernel_w": 0, "stride": 1, "padding": 0,
               "param_count": 0, "bias_count": 0}
_INT_LISTS = ("input_ids", "input_shape", "output_shape")
_LAYER_KEYS = ("id", "kind", *_INT_FIELDS, *_INT_LISTS)
_GRAPH_KEYS = ("resolution", "width_multiplier", "layers")


def is_int(v) -> bool:
    """Whether v is a JSON integer; int() would also take 2.9, "1" and true."""
    return isinstance(v, int) and not isinstance(v, bool)


def decimal_id(text: str) -> int | None:
    """The layer or tensor id that text spells as str(id) writes it, or None;
    int() would also take "01", " 1", "+1" and "1_0"."""
    return int(text) if re.fullmatch(r"0|-?[1-9][0-9]*", text) else None


def _unique_keys(pairs: list) -> dict:
    """json object_pairs_hook: the object as a dict. Raises ValueError naming a
    key the object holds twice, which json would load with its last value."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ValueError(f"duplicate key {k!r}")
        out[k] = v
    return out


def _not_json(name: str):
    """json parse_constant hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def read_json(path: str, error: type[McuqError]) -> dict:
    """The JSON object in the UTF-8 file at path. Raises error, naming the file,
    when it cannot be read, is not UTF-8 or strict JSON, holds a key twice in
    one object, nests too deep or holds anything but an object."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_unique_keys, parse_constant=_not_json)
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # ValueError: decode, syntax or a hook
        raise error(f"cannot parse {path}: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"cannot parse {path}: top level must be an object")
    return doc


def check_keys(doc: dict, keys: tuple[str, ...], error: Callable[[str], McuqError]) -> None:
    """Raise error naming the keys of doc outside keys: a misspelt field of a
    file would otherwise load as its default."""
    other = sorted(doc.keys() - set(keys))
    if other:
        raise error(f"unknown keys {other}, expected some of {list(keys)}")


def _layer_from_dict(d: dict) -> LayerSpec:
    try:
        lid, kind = d["id"], str(d["kind"])
        ints = {k: d.get(k, default) for k, default in _INT_FIELDS.items()}
        lists = {k: d.get(k, []) if k == "input_ids" else d[k] for k in _INT_LISTS}
    except (KeyError, TypeError) as e:
        raise GraphValidationError(f"malformed layer entry: {e}") from e
    if not is_int(lid):
        raise GraphValidationError(f"malformed layer entry: id {lid!r} is not an integer")
    check_keys(d, _LAYER_KEYS, lambda msg: GraphValidationError(msg, lid))
    for k, v in ints.items():
        if not is_int(v):
            raise GraphValidationError(f"{k} {v!r} is not an integer", lid)
    for k, v in lists.items():
        if not isinstance(v, list) or not all(map(is_int, v)):
            raise GraphValidationError(f"{k} {v!r} is not a list of integers", lid)
    return LayerSpec(id=lid, kind=kind, **ints, **{k: tuple(v) for k, v in lists.items()})


def load_graph(path: str) -> NetworkGraph:
    """The graph in a JSON file, checked as every NetworkGraph is."""
    raw = read_json(path, GraphValidationError)
    if not isinstance(raw.get("layers"), list):
        raise GraphValidationError("top level must be an object with a 'layers' array")
    check_keys(raw, _GRAPH_KEYS, GraphValidationError)
    layers = tuple(_layer_from_dict(d) for d in raw["layers"])
    resolution = raw.get("resolution", 0)
    width = raw.get("width_multiplier", 1.0)
    if not is_int(resolution):
        raise GraphValidationError(f"resolution {resolution!r} is not an integer")
    if not (is_int(width) or isinstance(width, float)) or abs(width) > sys.float_info.max:
        raise GraphValidationError(f"width_multiplier {width!r} is not a finite number")
    return NetworkGraph(layers=layers, resolution=resolution, width_multiplier=float(width))


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled graph fixture (e.g. 'toycnn_mnist.json')."""
    from importlib.resources import files

    return str(files("mcuq") / "fixtures" / name)


def save_graph(g: NetworkGraph, path: str) -> None:
    doc = {
        "resolution": g.resolution,
        "width_multiplier": g.width_multiplier,
        "layers": [dataclasses.asdict(l) for l in g.layers],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, allow_nan=False)
        f.write("\n")
