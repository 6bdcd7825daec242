"""Integer-only mixed-precision forward pass.

Reference semantics for MCU backends: sub-byte codes, 32-bit accumulators
(overflow raises), per-channel requantization, saturating residual adds.
The weighted kernels and avg_pool are the training engine's own linear_fwd,
so the deployed arithmetic is the arithmetic that was trained. avg_pool sums
its codes in int64 through that kernel, every tap weighted 1.

The weighted layers run their GEMMs on BLAS, on the codes cast to the
narrowest float type that holds every partial sum exactly. With unsigned
input codes up to x_max and signed w_bits weight codes, each product has
magnitude at most x_max * 2**(w_bits - 1), so every partial sum of a
fan_in-term dot product is an integer of magnitude at most

    fan_in * x_max * 2**(w_bits - 1)

and that bound holds whatever order the sums run in. BLAS's order, the
blocked conv2d GEMMs and the per-tap depthwise sums over phase planes (see
qat.linear_fwd) are therefore as exact as one dot product per output. A
layer runs in float32 when the bound is below 2**24 (_acc_dtype), since
float32 holds every integer below 2**24, and in float64 otherwise. x_max is
the largest input code magnitude of the call, so the choice is made per
call. For MobileNetV1 at 8 bits float32 covers every depthwise layer
(9 * 255 * 128) and every layer of fan-in up to 514.

The kernel runs with a zero bias, so the bias never enters the float sums.
The float64 fallback keeps its check (_check_f64_exact, run on every
weighted layer and always passed within the float32 bound), which raises
unless

    fan_in * x_max * 2**(w_bits - 1) + 2**31 < 2**53

(for 8-bit codes, up to a fan-in of about 2.8e11; the 2**31 of a bias is a
margin now), so a layer beyond the exact range of either type raises
AccumulatorOverflowError instead of rounding.

The accumulators, bias included, must then fit int32. The same bound proves
it for most layers: where

    fan_in * x_max * 2**(w_bits - 1) + max|bias_int| <= 2**31 - 1

(_int32_proven) every accumulator with its bias lies within int32, so
_check_acc would pass and is skipped. Such a layer's exact-integer float
accumulator goes straight to the requant epilogue (quantizer.apply_requant),
which casts it to int64 block by block, at most qat.CONV_BLOCK elements of
one or more (image, channel) rows at a time in one reused buffer, and per
block multiplies by the channel's multiplier, adds one per-channel offset
bias_int * multiplier + 2**shift // 2, shifts and clips into the int32
codes. That stays within int64: the accumulator is within int32 and the
multiplier below 2**31, so |acc * multiplier| < 2**62, and the offset is
below 2**62 + 2**61. Every other weighted layer runs as before: the
accumulator is cast to int64, the bias added, _check_acc run over the whole
array, and the sum requantized without a bias. avg_pool always runs
_check_acc, and needs neither float bound.
"""

from __future__ import annotations

import math

import numpy as np

from . import qat
from .errors import AccumulatorOverflowError, DatasetError, ModelMismatchError
from .graph_ir import WEIGHTED_KINDS, NetworkGraph, topo_order
from .packed_model import PackedLayer, PackedModel, check_model_matches
from .quantizer import apply_requant, qrange, quantize_act

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
F32_EXACT = 1 << 24  # float32 represents every integer of smaller magnitude
F64_EXACT = 1 << 53  # float64 every integer of smaller magnitude


def _check_f64_exact(layer_id: int, fan_in: int, x_max: int, w_bits: int) -> None:
    """Raise unless a float64 accumulator of this layer is exact (module docstring)."""
    if fan_in * x_max * (1 << (w_bits - 1)) + (1 << 31) >= F64_EXACT:
        raise AccumulatorOverflowError(
            f"layer {layer_id}: fan-in {fan_in} with input codes up to {x_max} at "
            f"{w_bits}-bit weights exceeds the exact float64 range")


def _acc_dtype(fan_in: int, x_max: int, w_bits: int) -> type:
    """The float type whose sums of this layer are exact: float32 when every
    partial sum stays below 2**24, float64 otherwise (module docstring)."""
    return np.float32 if fan_in * x_max * (1 << (w_bits - 1)) < F32_EXACT else np.float64


def _int32_proven(fan_in: int, x_max: int, w_bits: int, bias_int: np.ndarray) -> bool:
    """Whether every accumulator of this layer, bias included, provably fits
    int32, so _check_acc would pass (module docstring)."""
    bias_max = int(np.abs(bias_int.astype(np.int64)).max()) if bias_int.size else 0
    return fan_in * x_max * (1 << (w_bits - 1)) + bias_max <= INT32_MAX


def _check_acc(acc: np.ndarray, layer_id: int) -> None:
    if acc.size and (acc.min() < INT32_MIN or acc.max() > INT32_MAX):
        raise AccumulatorOverflowError(
            f"layer {layer_id}: 32-bit accumulator overflow "
            f"(range [{acc.min()}, {acc.max()}])")


def run_codes_layer(layer, rec: PackedLayer, in_codes: list[np.ndarray]) -> np.ndarray:
    """One layer on batched integer codes (N, ...) -> output codes (N, ...)."""
    out_bits = rec.out_bits
    signed_out = out_bits == 32  # raw logits keep sign; activations are unsigned
    if layer.kind in WEIGHTED_KINDS:
        x, w = in_codes[0], rec.weight.codes()
        fan_in, bits = math.prod(w.shape[1:]), rec.weight.bits
        x_max = max(int(x.max()), -int(x.min())) if x.size else 0
        _check_f64_exact(layer.id, fan_in, x_max, bits)
        dtype = _acc_dtype(fan_in, x_max, bits)
        z, _ = qat.linear_fwd(layer, x.astype(dtype), w.astype(dtype),
                              np.zeros(len(rec.bias_int), dtype))
        if _int32_proven(fan_in, x_max, bits, rec.bias_int):
            return apply_requant(z, rec.requants[0], out_bits, signed=signed_out,
                                 bias=rec.bias_int)
        acc = z.astype(np.int64)
        acc += rec.bias_int.reshape(-1, *(1,) * (acc.ndim - 2))
        _check_acc(acc, layer.id)
        return apply_requant(acc, rec.requants[0], out_bits, signed=signed_out)
    if layer.kind == "avg_pool":
        acc, _ = qat.linear_fwd(layer, in_codes[0], *qat.pool_weight(layer, 1, np.int64))
        _check_acc(acc, layer.id)
        return apply_requant(acc, rec.requants[0], out_bits, signed=signed_out)
    if layer.kind == "add_residual":
        lo, hi = qrange(out_bits, signed=signed_out)
        a = apply_requant(in_codes[0], rec.requants[0], out_bits, signed=signed_out)
        b = apply_requant(in_codes[1], rec.requants[1], out_bits, signed=signed_out)
        return np.clip(a.astype(np.int64) + b.astype(np.int64), lo, hi).astype(np.int32)
    if layer.kind == "relu_clip":
        return apply_requant(in_codes[0], rec.requants[0], out_bits, signed=signed_out)
    raise ModelMismatchError(f"layer {layer.id}: kind {layer.kind!r} is not executable")


def run_batch_int(g: NetworkGraph, model: PackedModel, images: np.ndarray) -> np.ndarray:
    """Integer forward of a float image batch; returns int32 scores (N, classes)."""
    check_model_matches(g, model)
    in_tid = g.input_layer.id
    acts: dict[int, np.ndarray] = {}
    scores = None
    for lid in topo_order(g):
        layer = g.layer(lid)
        if layer.kind == "input":
            acts[lid] = quantize_act(images, model.act_clip[in_tid], model.act_bits[in_tid])
        elif layer.kind == "output":
            scores = acts[layer.input_ids[0]]
        else:
            rec = model.layers[lid]
            acts[lid] = run_codes_layer(layer, rec, [acts[t] for t in layer.input_ids])
    if scores is None:
        raise ModelMismatchError("graph has no output layer")
    return scores


def run_network_int(g: NetworkGraph, model: PackedModel,
                    image: np.ndarray) -> tuple[np.ndarray, int]:
    """Single-image integer inference: (int32 class scores, argmax)."""
    scores = run_batch_int(g, model, image[None, ...])[0]
    return scores, int(scores.argmax())


def evaluate_accuracy(g: NetworkGraph, dataset, model: PackedModel | None = None,
                      weights: dict | None = None, policy=None, ranges=None,
                      split: str = "val", batch: int = 128) -> tuple[float, list[dict]]:
    """Top-1 over a dataset split plus per-class rows for the report CSV.

    Scores the packed integer model when one is given, the (fake-quant)
    float model otherwise.
    """
    images, labels = dataset.split(split)
    if len(images) == 0:
        raise DatasetError("cannot evaluate on an empty split")
    n_classes = int(labels.max()) + 1
    counts = np.zeros(n_classes, dtype=np.int64)
    hits = np.zeros(n_classes, dtype=np.int64)
    for start in range(0, len(images), batch):
        xb = images[start:start + batch]
        yb = labels[start:start + batch]
        if model is not None:
            pred = run_batch_int(g, model, xb).argmax(axis=1)
        else:
            logits, _ = qat.forward_network(g, weights, xb, policy=policy, ranges=ranges)
            pred = logits.argmax(axis=1)
        for cls in range(n_classes):
            sel = yb == cls
            counts[cls] += int(sel.sum())
            hits[cls] += int((pred[sel] == cls).sum())
    rows = [
        {"class": c, "count": int(counts[c]), "correct": int(hits[c]),
         "top1": float(hits[c] / counts[c]) if counts[c] else 0.0}
        for c in range(n_classes)
    ]
    top1 = float(hits.sum() / counts.sum())
    return top1, rows


def per_class_csv(rows: list[dict]) -> str:
    lines = ["class,count,correct,top1"]
    for r in rows:
        lines.append(f"{r['class']},{r['count']},{r['correct']},{r['top1']!r}")
    return "\n".join(lines) + "\n"
