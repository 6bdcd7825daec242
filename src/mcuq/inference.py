"""Integer-only mixed-precision forward pass.

Reference semantics for MCU backends: sub-byte codes, 32-bit accumulators
(overflow raises), per-channel requantization, saturating residual adds.
Every linear layer, avg_pool included, runs through the training engine's
own linear_fwd, so the deployed arithmetic is the arithmetic that was
trained. avg_pool is a depthwise layer whose every tap is weighted 1
(qat.pool_weight), with no bias. run_codes_network walks the graph once and
keeps every layer's codes; run_codes_layer runs one layer.

The kernels run on BLAS, on the codes cast to the narrowest float type that
holds every partial sum exactly. With input codes of magnitude up to x_max
and weight codes up to w_max (2**(w_bits - 1) for signed w_bits codes, 1 for
avg_pool), each product has magnitude at most x_max * w_max, so every partial
sum of a fan_in-term dot product is an integer of magnitude at most

    bound = fan_in * x_max * w_max

and that bound holds whatever order the sums run in. BLAS's order, the
blocked conv2d GEMMs and the per-tap depthwise sums over phase planes (see
qat.linear_fwd) are therefore as exact as one dot product per output. x_max
is the largest input code magnitude of the call, so _acc_bound decides per
call:

- bound + 2**31 < 2**53, or the layer raises AccumulatorOverflowError
  instead of rounding (for 8-bit codes, up to a fan-in of about 2.8e11;
  the 2**31 of a bias is a margin);
- float32 when bound < 2**24, since float32 holds every integer below
  2**24, and float64 otherwise. For MobileNetV1 at 8 bits float32 covers
  every depthwise layer (9 * 255 * 128), every layer of fan-in up to 514
  and the final pool;
- whether the accumulators, bias included, must be checked against int32:
  where bound + max|bias_int| <= 2**31 - 1 every one of them fits, and
  _check_acc would pass, so it is skipped. Elsewhere _check_acc takes the
  per-channel extremes of the accumulator plus that channel's bias.

The kernel runs with a zero bias, so the bias never enters the float sums.
The exact-integer float accumulator and the bias go to one requant epilogue
(quantizer.apply_requant), which adds the bias in int64 as a per-channel
offset.
"""

from __future__ import annotations

import math

import numpy as np

from . import qat
from .errors import AccumulatorOverflowError, DatasetError, ModelMismatchError
from .graph_ir import LINEAR_KINDS, NetworkGraph, topo_order
from .packed_model import INT32_MAX, INT32_MIN, PackedLayer, PackedModel, check_model_matches
from .quantizer import apply_requant, qrange, quantize_act

F32_EXACT = 1 << 24  # float32 represents every integer of smaller magnitude
F64_EXACT = 1 << 53  # float64 every integer of smaller magnitude


def _acc_bound(layer_id: int, fan_in: int, x_max: int, w_max: int,
               bias_int: np.ndarray) -> tuple[type, bool]:
    """(kernel dtype, whether _check_acc must run) for one call of a linear
    layer, from bound = fan_in * x_max * w_max; raises where a float64
    accumulator would not be exact (module docstring)."""
    bound = fan_in * x_max * w_max
    if bound + (1 << 31) >= F64_EXACT:
        raise AccumulatorOverflowError(
            f"layer {layer_id}: fan-in {fan_in} with input codes up to {x_max} and "
            f"weight codes up to {w_max} exceeds the exact float64 range")
    bias_max = int(np.abs(bias_int.astype(np.int64)).max()) if bias_int.size else 0
    return np.float32 if bound < F32_EXACT else np.float64, bound + bias_max > INT32_MAX


def _check_acc(z: np.ndarray, layer_id: int, bias_int: np.ndarray) -> None:
    """Raise unless every accumulator z + bias_int (bias per channel on axis 1)
    fits int32, from each channel's extremes."""
    axes = (0,) + tuple(range(2, z.ndim))
    lo = (z.min(axis=axes).astype(np.int64) + bias_int).min()
    hi = (z.max(axis=axes).astype(np.int64) + bias_int).max()
    if lo < INT32_MIN or hi > INT32_MAX:
        raise AccumulatorOverflowError(
            f"layer {layer_id}: 32-bit accumulator overflow (range [{lo}, {hi}])")


def run_codes_layer(layer, rec: PackedLayer, in_codes: list[np.ndarray]) -> np.ndarray:
    """One layer on batched integer codes (N, ...) -> output codes (N, ...)."""
    out_bits = rec.out_bits
    signed_out = out_bits == 32  # raw logits keep sign; activations are unsigned
    if layer.kind in LINEAR_KINDS:
        x = in_codes[0]
        if layer.kind == "avg_pool":
            (w, bias), w_max = qat.pool_weight(layer, 1, np.int32), 1
        else:
            w, bias, w_max = rec.weight.codes(), rec.bias_int, 1 << (rec.weight.bits - 1)
        x_max = max(int(x.max()), -int(x.min())) if x.size else 0
        dtype, check = _acc_bound(layer.id, math.prod(w.shape[1:]), x_max, w_max, bias)
        z, _ = qat.linear_fwd(layer, x.astype(dtype), w.astype(dtype),
                              np.zeros(len(bias), dtype))
        if check:
            _check_acc(z, layer.id, bias)
        return apply_requant(z, rec.requants[0], out_bits, signed=signed_out, bias=bias)
    if layer.kind == "add_residual":
        lo, hi = qrange(out_bits, signed=signed_out)
        a = apply_requant(in_codes[0], rec.requants[0], out_bits, signed=signed_out)
        b = apply_requant(in_codes[1], rec.requants[1], out_bits, signed=signed_out)
        return np.clip(a.astype(np.int64) + b.astype(np.int64), lo, hi).astype(np.int32)
    if layer.kind == "relu_clip":
        return apply_requant(in_codes[0], rec.requants[0], out_bits, signed=signed_out)
    raise ModelMismatchError(f"layer {layer.id}: kind {layer.kind!r} is not executable")


def run_codes_network(g: NetworkGraph, model: PackedModel,
                      images: np.ndarray) -> dict[int, np.ndarray]:
    """Integer forward of a float image batch: every layer's int32 output
    codes (N, ...) by tensor id, the input's included."""
    check_model_matches(g, model)
    in_tid = g.input_layer.id
    codes = {in_tid: quantize_act(images, model.act_clip[in_tid], model.act_bits[in_tid])}
    for lid in topo_order(g):
        layer = g.layer(lid)
        if layer.kind not in ("input", "output"):
            codes[lid] = run_codes_layer(layer, model.layers[lid],
                                         [codes[t] for t in layer.input_ids])
    return codes


def run_batch_int(g: NetworkGraph, model: PackedModel, images: np.ndarray) -> np.ndarray:
    """Integer forward of a float image batch; returns int32 scores (N, classes)."""
    return run_codes_network(g, model, images)[g.output_layer.input_ids[0]]


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
    n_classes = dataset.num_classes
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
        counts += np.bincount(yb, minlength=n_classes)
        hits += np.bincount(yb[pred == yb], minlength=n_classes)
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
