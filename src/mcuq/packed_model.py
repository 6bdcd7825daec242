"""Deployable bit-packed model container.

Binary layout (all integers little-endian):

    magic "MPQ1" | u32 version | u32 graph layer count | f32 logits_scale
    u32 n_act   | per entry: u32 tensor_id, u8 bits, f32 clip_max
    u32 n_rec   | per record:
        u32 layer_id, u8 kind_code, u8 weight_bits, u8 out_bits
        u8 ndim, u32 dims[ndim]                (weight shape; ndim=0 if none)
        f32 scales[cout], i32 bias[cout]       (weighted kinds only)
        u8 n_rq | per rq: u32 count, i32 mult[count], i32 shift[count]
        u64 payload_len, payload               (packed weight codes)
    u32 CRC32 of every byte before it

Every compute layer gets a record; avg_pool and relu_clip carry a single
scalar requant, add_residual carries one per input, weighted layers carry a
per-output-channel requant. Requant params are stored rather than rebuilt at
load time so a shipped file pins its own arithmetic.

A model and its records are immutable, their tables and arrays read-only copies
(dataclasses.replace makes a changed one), so what the engine keeps on them holds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import AccumulatorOverflowError, ModelMismatchError, PackFormatError, PolicyError
from .graph_ir import LINEAR_KINDS, RECORD_KINDS, WEIGHTED_KINDS, NetworkGraph
from .memory_model import QuantPolicy, validate_policy
from .quantizer import (
    F32_MAX,
    ByteReader,
    ByteWriter,
    QuantizedTensor,
    RequantParams,
    SUB_BYTE_BITS,
    compute_requant,
    normal_act_scale,
    quantize_weights_pc,
    read_only,
    round_half_away,
)

MAGIC = b"MPQ1"
VERSION = 2

# Pinned by the file format: a new kind takes a new code, never an old one.
_KIND_CODE = {
    "conv2d": 0, "depthwise_conv2d": 1, "pointwise_conv2d": 2, "fully_connected": 3,
    "add_residual": 4, "avg_pool": 5, "relu_clip": 6, "input": 7, "output": 8,
}
_CODE_KIND = {i: k for k, i in _KIND_CODE.items()}

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
F32_EXACT = 1 << 24  # float32 represents every integer of smaller magnitude


@dataclass(frozen=True)
class PackedLayer:
    layer_id: int
    kind: str
    weight_bits: int = 0           # 0 for weight-free records
    out_bits: int = 8              # 32 marks the raw-logits record
    weight: QuantizedTensor | None = None
    bias_int: np.ndarray | None = None  # a read-only copy
    requants: tuple[RequantParams, ...] = ()
    # apply_requant's memo of each requant (inference.run_codes_layer)
    memos: tuple[dict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bias = self.bias_int
        object.__setattr__(self, "bias_int", bias if bias is None else read_only(bias))
        object.__setattr__(self, "memos", tuple({} for _ in self.requants))


@dataclass(frozen=True)
class PackedModel:
    graph_layers: int
    act_bits: Mapping[int, int]  # this and the two below: read-only copies
    act_clip: Mapping[int, float]
    layers: Mapping[int, PackedLayer] = field(default_factory=dict)
    logits_scale: float = 1.0
    # check_model_matches's dtypes by graph (inference.run_codes_network)
    dtypes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for name in ("act_bits", "act_clip", "layers"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def act_scale(self, tensor_id: int) -> float:
        return self.act_clip[tensor_id] / ((1 << self.act_bits[tensor_id]) - 1)


def _bias_int(bias: np.ndarray, acc_scales: np.ndarray) -> np.ndarray:
    b = round_half_away(np.asarray(bias, dtype=np.float64) / acc_scales)
    if b.size and (b.min() < INT32_MIN or b.max() > INT32_MAX):
        raise PackFormatError("bias does not fit a 32-bit integer at the accumulator scale")
    return b.astype(np.int32)


def build_packed_model(g: NetworkGraph, weights: dict, policy: QuantPolicy,
                       ranges: dict[int, float]) -> PackedModel:
    """Quantize weights/biases and precompute every requant for deployment; every
    encoded tensor needs a clip of at most float32 max that passes
    normal_act_scale at its bits, as deserialize checks it."""
    validate_policy(g, policy)
    encoded = set(g.encoded_tensors())
    for t in encoded:
        if policy.act_bits[t] not in SUB_BYTE_BITS:
            raise PolicyError(f"tensor {t}: export needs sub-byte activation bits")
        if t not in ranges:
            raise PolicyError(f"tensor {t}: no calibrated activation range")
        if not (normal_act_scale(ranges[t], policy.act_bits[t]) and ranges[t] <= F32_MAX):
            raise PolicyError(f"tensor {t}: clip {ranges[t]} is not a float32 whose "
                              f"{policy.act_bits[t]}-bit scale is normal")

    act_bits = {t: policy.act_bits[t] for t in sorted(encoded)}
    # clips round to f32 here so in-memory and deserialized models agree exactly
    act_clip = {t: float(np.float32(ranges[t])) for t in sorted(encoded)}
    model = PackedModel(graph_layers=len(g.layers), act_bits=act_bits, act_clip=act_clip)
    layers, logits_scale = {}, 1.0
    for layer in g.layers:
        if layer.kind not in RECORD_KINDS:
            continue
        s_ins = [model.act_scale(t) for t in layer.input_ids]
        wbits, qw, bias_int = 0, None, None
        if layer.kind in WEIGHTED_KINDS:
            wbits = policy.weight_bits[layer.id]
            if wbits not in SUB_BYTE_BITS:
                raise PolicyError(f"layer {layer.id}: export needs sub-byte weight bits")
            qw = quantize_weights_pc(weights[layer.id]["w"], wbits)
            acc_scales, ratios = s_ins[0] * qw.scales, qw.scales
            bias_int = _bias_int(weights[layer.id]["b"], acc_scales)
            # classifier logits stay wide; a shared scale keeps argmax exact
            wide_scale = float(acc_scales.max())
        else:
            area = layer.kernel_h * layer.kernel_w if layer.kind == "avg_pool" else 1
            ratios = np.array([1.0 / area])
            # a wide output keeps the (largest) input scale; every ratio stays <= 1
            wide_scale = max(s_ins)
        if layer.id in encoded:
            out_bits, s_out = act_bits[layer.id], model.act_scale(layer.id)
        else:  # feeds the output sink: codes stay wide
            out_bits, s_out, logits_scale = 32, wide_scale, wide_scale
        layers[layer.id] = PackedLayer(layer.id, layer.kind, wbits, out_bits, qw, bias_int,
                                       tuple(compute_requant(s, ratios, s_out) for s in s_ins))
    # f32 like the clips, so a deserialized model is bit-identical
    model = replace(model, layers=layers, logits_scale=float(np.float32(logits_scale)))
    check_model_matches(g, model)  # never write a model that the engine refuses
    return model


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(model: PackedModel) -> bytes:
    w = ByteWriter(MAGIC, VERSION)
    w.pack("<IfI", model.graph_layers, model.logits_scale, len(model.act_bits))
    for tid in sorted(model.act_bits):
        w.pack("<IBf", tid, model.act_bits[tid], model.act_clip[tid])
    w.pack("<I", len(model.layers))
    for lid in sorted(model.layers):
        rec = model.layers[lid]
        w.pack("<IBBB", rec.layer_id, _KIND_CODE[rec.kind], rec.weight_bits, rec.out_bits)
        w.shape(() if rec.weight is None else rec.weight.shape)
        if rec.weight is not None:
            w.array(rec.weight.scales, "<f4")
            w.array(rec.bias_int, "<i4")
        w.pack("<B", len(rec.requants))
        for rq in rec.requants:
            w.pack("<I", np.size(rq.multiplier))
            w.array(rq.multiplier, "<i4")
            w.array(rq.shift, "<i4")
        payload = rec.weight.packed if rec.weight is not None else b""
        w.pack(f"<Q{len(payload)}s", len(payload), payload)
    return w.finish()


def deserialize(data: bytes) -> PackedModel:
    r = ByteReader(data, "packed-model file", MAGIC, VERSION)
    graph_layers, logits_scale, n_act = r.unpack("<IfI")
    if not (math.isfinite(logits_scale) and logits_scale >= 0):
        raise PackFormatError(f"logits scale {logits_scale} is not a finite value >= 0")
    act_bits: dict[int, int] = {}
    act_clip: dict[int, float] = {}
    for _ in range(n_act):
        tid, bits, clip = r.unpack("<IBf")
        if tid in act_bits:
            raise PackFormatError(f"tensor {tid}: encoding written twice")
        if bits not in SUB_BYTE_BITS:
            raise PackFormatError(f"tensor {tid}: activation bits {bits} not in {SUB_BYTE_BITS}")
        if not (math.isfinite(clip) and normal_act_scale(clip, bits)):
            raise PackFormatError(f"tensor {tid}: clip {clip} is not finite, or its "
                                  f"{bits}-bit scale is not a normal float32")
        act_bits[tid] = bits
        act_clip[tid] = clip
    layers: dict[int, PackedLayer] = {}
    (n_rec,) = r.unpack("<I")
    for _ in range(n_rec):
        lid, kcode, wbits, obits = r.unpack("<IBBB")
        if lid in layers:
            raise PackFormatError(f"layer {lid}: record written twice")
        if kcode not in _CODE_KIND:
            raise PackFormatError(f"unknown layer kind code {kcode}")
        shape = r.shape(f"layer {lid}: weight")
        qw = bias = None
        if shape:
            scales = r.array("<f4", shape[0])
            # isfinite first: comparing or casting a signalling NaN warns
            if not (np.isfinite(scales).all() and (scales > 0).all()):
                raise PackFormatError(f"layer {lid}: weight scales must be finite and > 0")
            bias = r.array("<i4", shape[0])
        rqs = []
        for _ in range(r.unpack("<B")[0]):
            (count,) = r.unpack("<I")
            mult, shift = r.array("<i4", count), r.array("<i4", count)
            # apply_requant's int64 chain needs shifts in [0, 62] (float64: <= 52 - bits)
            if count and (mult.min() < 0 or shift.min() < 0 or shift.max() > 62):
                raise PackFormatError(f"layer {lid}: requant multiplier or shift out of range")
            rqs.append(RequantParams(multiplier=mult, shift=shift))
        (plen,) = r.unpack("<Q")
        want = (math.prod(shape) * wbits + 7) // 8 if shape else 0
        if plen != want:
            raise PackFormatError(f"layer {lid}: weight payload of {plen} bytes, {want} expected")
        payload = r.take(plen)
        if shape:
            qw = QuantizedTensor(bits=wbits, packed=payload, shape=shape, scales=scales)
        layers[lid] = PackedLayer(lid, _CODE_KIND[kcode], wbits, obits, qw, bias, tuple(rqs))
    r.finish()
    return PackedModel(graph_layers, act_bits, act_clip, layers, logits_scale)


def save_packed(model: PackedModel, path: str) -> None:
    data = serialize(model)  # before the open, so a failed build leaves no file behind
    with open(path, "wb") as f:
        f.write(data)


def load_packed(path: str) -> PackedModel:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise PackFormatError(f"cannot read {path}: {e}") from e
    try:
        return deserialize(data)
    except PackFormatError as e:
        raise PackFormatError(f"{path}: {e}") from e


def _kernel_dtype(layer, rec: PackedLayer, in_max: int) -> type:
    """The kernel dtype, float32 or float64, that the inference docstring proves
    exact for a linear layer on input codes in [0, in_max]. Raises
    AccumulatorOverflowError naming the first channel whose accumulator range,
    bias included, leaves int32."""
    if rec.weight is None:  # avg_pool weights every tap 1, with no bias
        taps = layer.kernel_h * layer.kernel_w
        neg, pos, peak, bias = np.zeros(1, np.int64), np.full(1, taps, np.int64), taps, 0
    else:
        (neg, pos, peak), bias = rec.weight.channel_sums(), rec.bias_int
    lo, hi = in_max * neg + bias, in_max * pos + bias
    if lo.min(initial=0) < INT32_MIN or hi.max(initial=0) > INT32_MAX:
        c = np.flatnonzero((lo < INT32_MIN) | (hi > INT32_MAX))[0]
        raise AccumulatorOverflowError(f"layer {layer.id} channel {c}: accumulator range "
                                       f"[{lo[c]}, {hi[c]}] leaves int32")
    return np.float32 if in_max * peak < F32_EXACT else np.float64


def check_model_matches(g: NetworkGraph, model: PackedModel) -> dict[int, type]:
    """Each linear layer's kernel dtype by id; raises ModelMismatchError when a model
    cannot run on a graph, AccumulatorOverflowError where _kernel_dtype does."""
    if model.graph_layers != len(g.layers):
        raise ModelMismatchError(
            f"model built for {model.graph_layers} layers, graph has {len(g.layers)}")
    encoded = set(g.encoded_tensors())
    for t in encoded:
        if t not in model.act_bits:
            raise ModelMismatchError(f"model lacks an encoding for tensor {t}")
    extra = sorted(model.act_bits.keys() - encoded)
    if extra:
        raise ModelMismatchError(f"model has encodings for tensors {extra}, "
                                 f"which carry none in the graph")
    extra = sorted(model.layers.keys() - {l.id for l in g.layers if l.kind in RECORD_KINDS})
    if extra:
        raise ModelMismatchError(f"model has records for layers {extra}, "
                                 f"which take none in the graph")
    dtypes = {}
    for layer in g.layers:
        if layer.kind not in RECORD_KINDS:
            continue
        rec = model.layers.get(layer.id)
        if rec is None:
            raise ModelMismatchError(f"model lacks a record for layer {layer.id}")
        if rec.kind != layer.kind:
            raise ModelMismatchError(
                f"layer {layer.id}: model kind {rec.kind!r} != graph kind {layer.kind!r}")
        if layer.kind in WEIGHTED_KINDS and (
                rec.weight is None or tuple(rec.weight.shape) != layer.weight_shape):
            raise ModelMismatchError(f"layer {layer.id}: weight shape does not match the graph")
        if layer.kind not in WEIGHTED_KINDS and (rec.weight is not None or rec.weight_bits):
            raise ModelMismatchError(
                f"layer {layer.id}: the {layer.kind} record carries weights or weight bits")
        out_bits = model.act_bits[layer.id] if layer.id in encoded else 32
        if rec.out_bits != out_bits:
            raise ModelMismatchError(
                f"layer {layer.id}: output width {rec.out_bits}, the encoding needs {out_bits}")
        # one requant per input, per output channel behind a weighted layer
        width = layer.out_channels if layer.kind in WEIGHTED_KINDS else 1
        if len(rec.requants) != len(layer.input_ids) or any(
                np.size(rq.multiplier) != width or np.size(rq.shift) != width
                for rq in rec.requants):
            raise ModelMismatchError(f"layer {layer.id}: requants do not match the graph")
        if layer.kind in LINEAR_KINDS:  # its input feeds compute, so it is encoded
            in_max = (1 << model.act_bits[layer.input_ids[0]]) - 1
            dtypes[layer.id] = _kernel_dtype(layer, rec, in_max)
    return dtypes
