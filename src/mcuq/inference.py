"""Integer-only mixed-precision forward pass.

Reference semantics for MCU backends: sub-byte codes, 32-bit accumulators
(overflow raises), per-channel requantization, saturating residual adds.
The weighted kernels and avg_pool are the training engine's own linear_fwd,
so the deployed arithmetic is the arithmetic that was trained. avg_pool sums
its codes in int64 through that kernel, every tap weighted 1. The weighted
layers run on the codes cast to float64, which puts the GEMMs on BLAS, and
the result is cast back to int64. That is exact: float64 holds every integer
below 2**53, and every partial sum of a weighted layer is an integer of
magnitude at most

    fan_in * (2**a_bits - 1) * 2**(w_bits - 1) + 2**31

(unsigned a_bits input codes, signed w_bits weight codes, an int32 bias).
For 8-bit codes that stays below 2**53 up to a fan-in of about 2.8e11.
Each weighted layer checks the bound, with its largest input code in place
of 2**a_bits - 1, before it runs; avg_pool needs no such check. The bound
holds for every partial sum in any order, so it does not depend on how the
kernel groups its sums: the blocked conv2d GEMMs and the per-tap depthwise
sums over phase planes (see qat.linear_fwd) are as exact as one dot product
per output.
"""

from __future__ import annotations

import math

import numpy as np

from . import qat
from .errors import AccumulatorOverflowError, DatasetError, ModelMismatchError
from .graph_ir import WEIGHTED_KINDS, NetworkGraph, topo_order
from .packed_model import PackedLayer, PackedModel, check_model_matches
from .quantizer import RequantParams, apply_requant, qrange, quantize_act

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
F64_EXACT = 1 << 53  # float64 represents every integer of smaller magnitude


def _check_f64_exact(layer_id: int, fan_in: int, x_max: int, w_bits: int) -> None:
    """Raise unless a float64 accumulator of this layer is exact (module docstring)."""
    if fan_in * x_max * (1 << (w_bits - 1)) + (1 << 31) >= F64_EXACT:
        raise AccumulatorOverflowError(
            f"layer {layer_id}: fan-in {fan_in} with input codes up to {x_max} at "
            f"{w_bits}-bit weights exceeds the exact float64 range")


def _check_acc(acc: np.ndarray, layer_id: int) -> None:
    if acc.size and (acc.min() < INT32_MIN or acc.max() > INT32_MAX):
        raise AccumulatorOverflowError(
            f"layer {layer_id}: 32-bit accumulator overflow "
            f"(range [{acc.min()}, {acc.max()}])")


def _per_channel_rq(rq: RequantParams, ndim: int) -> RequantParams:
    """Reshape per-channel params to broadcast over (N, C, ...) accumulators."""
    m = np.atleast_1d(rq.multiplier)
    s = np.atleast_1d(rq.shift)
    if m.size == 1:
        return rq
    tail = (1,) * (ndim - 2)
    return RequantParams(multiplier=m.reshape(-1, *tail), shift=s.reshape(-1, *tail))


def run_codes_layer(layer, rec: PackedLayer, in_codes: list[np.ndarray]) -> np.ndarray:
    """One layer on batched integer codes (N, ...) -> output codes (N, ...)."""
    out_bits = rec.out_bits
    signed_out = out_bits == 32  # raw logits keep sign; activations are unsigned
    if layer.kind in WEIGHTED_KINDS:
        x, w = in_codes[0], rec.weight.codes()
        if x.size:
            x_max = max(int(x.max()), -int(x.min()))
            _check_f64_exact(layer.id, math.prod(w.shape[1:]), x_max, rec.weight.bits)
        z, _ = qat.linear_fwd(layer, x.astype(np.float64), w.astype(np.float64),
                              rec.bias_int.astype(np.float64))
        acc = z.astype(np.int64)
        _check_acc(acc, layer.id)
        return apply_requant(acc, _per_channel_rq(rec.requants[0], acc.ndim), out_bits,
                             signed=signed_out)
    if layer.kind == "avg_pool":
        acc, _ = qat.linear_fwd(layer, in_codes[0], *qat.pool_weight(layer, 1, np.int64))
        _check_acc(acc, layer.id)
        return apply_requant(acc, rec.requants[0], out_bits, signed=signed_out)
    if layer.kind == "add_residual":
        lo, hi = qrange(out_bits, signed=signed_out)
        a = apply_requant(in_codes[0].astype(np.int64), rec.requants[0], out_bits,
                          signed=signed_out)
        b = apply_requant(in_codes[1].astype(np.int64), rec.requants[1], out_bits,
                          signed=signed_out)
        return np.clip(a.astype(np.int64) + b.astype(np.int64), lo, hi).astype(np.int32)
    if layer.kind == "relu_clip":
        return apply_requant(in_codes[0].astype(np.int64), rec.requants[0], out_bits,
                             signed=signed_out)
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
