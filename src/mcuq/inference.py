"""Integer-only mixed-precision forward pass.

Reference semantics for MCU backends: sub-byte codes, 32-bit accumulators
that no input can overflow (see below), per-channel requantization,
saturating residual adds.
Every linear layer, avg_pool included, runs through kernels.linear_acc, the
training forward's arithmetic without its bias, so the deployed arithmetic
is the arithmetic that was trained. avg_pool is a depthwise layer whose
every tap is weighted 1 (kernels.pool_weight), with no bias.
run_codes_network yields every layer's codes as graph_ir.walk runs them,
holding only the live set; run_codes_layer runs one layer. The input codes
are quantizer.quantize_act's: act_codes of the float32 images, the codes the
training forward fake-quantizes its input to.

The kernels run on BLAS, on the codes cast to a float type that holds every
partial sum exactly; check_model_matches proves which from the stored codes
(packed_model._kernel_dtype), once per graph, kept on the model. Every
encoded activation is unsigned, in [0, in_max] with in_max = 2**bits - 1 of
its encoding, so every partial sum of output channel c, in any order, lies in

    [in_max * sum of c's negative weight codes, in_max * sum of its positive ones]

and the accumulator plus bias_int[c] in that range shifted by bias_int[c].
A model where a shifted range leaves int32 is refused with
AccumulatorOverflowError, so no input can overflow it. Inside int32 every
partial sum is below 2**32 < 2**53, so float64 is exact. float32, which holds
every integer below 2**24, is chosen where in_max times the largest sum of
one sign is below 2**24. BLAS's order, the blocked conv2d GEMMs and the
per-tap depthwise sums over phase planes (see kernels) are therefore as
exact as one dot product per output.

The kernel runs without a bias, so the bias never enters the float sums.
Its output, uncopied (a strided view for the window kinds; conv2d computes
only the outputs it keeps), and the bias go to one requant epilogue,
quantizer.apply_requant, which adds the bias exactly: in float64 where that
is provably exact, in int64 otherwise. It walks the output in the kernel's
memory order and writes the codes in that order, so the codes between layers
are (N, C, H, W) int32 arrays whose strides follow the kernel that made them
(conv2d's run (y, x, n, c)). Every consumer reads them by value, so the
values at the API are those of C order.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import qat  # evaluate_accuracy's fake-quant branch only
from .errors import DatasetError, ModelMismatchError
from .graph_ir import LINEAR_KINDS, NetworkGraph, walk
from .kernels import channels_outer, linear_acc, pool_weight
from .packed_model import PackedLayer, PackedModel, check_model_matches
from .quantizer import apply_requant, qrange, quantize_act


def run_codes_layer(layer, rec: PackedLayer, in_codes: list[np.ndarray],
                    dtype: type | None) -> np.ndarray:
    """One layer on batched integer codes (N, ...) -> output codes (N, ...).
    A linear layer runs its kernel in dtype, which check_model_matches proved
    exact for input codes within the layer's input encoding; the input codes
    must lie there. Other kinds take dtype None."""
    if layer.kind in LINEAR_KINDS:
        w, bias = (pool_weight(layer, 1, np.int32) if layer.kind == "avg_pool"
                   else (rec.weight.codes(), rec.bias_int))
        x = in_codes[0]
        # the GEMM kinds reshape x: a view in C order or, for pointwise, channels_outer
        gemm = layer.kind == "fully_connected" or (layer.kind == "pointwise_conv2d"
                                                   and not channels_outer(x))
        z, _ = linear_acc(layer, x.astype(dtype, order="C" if gemm else "K"), w.astype(dtype))
        return apply_requant(z, rec.requants[0], rec.out_bits, bias=bias, memo=rec.memos[0])
    if layer.kind not in ("add_residual", "relu_clip"):
        raise ModelMismatchError(f"layer {layer.id}: kind {layer.kind!r} is not executable")
    # relu_clip requantizes its input, add_residual adds its two requantized inputs
    a, *b = (apply_requant(x, rq, rec.out_bits, memo=m)
             for x, rq, m in zip(in_codes, rec.requants, rec.memos))
    lo, hi = qrange(rec.out_bits, signed=rec.out_bits == 32)  # apply_requant's range
    return np.clip(a.astype(np.int64) + b[0], lo, hi).astype(np.int32) if b else a


def run_codes_network(g: NetworkGraph, model: PackedModel,
                      images: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """graph_ir.walk of the integer forward on a float image batch: yields
    (tensor id, int32 output codes (N, ...)) of every layer, the input's
    included. dict() of it keeps every layer's codes."""
    g.check_batch(images)
    dtypes = model.dtypes.get(g)
    if dtypes is None:  # the model cannot change, so one proof per graph holds
        dtypes = model.dtypes[g] = check_model_matches(g, model)

    def step(layer, ins: list[np.ndarray]) -> np.ndarray:
        if layer.kind == "input":
            return quantize_act(ins[0], model.act_clip[layer.id], model.act_bits[layer.id])
        return run_codes_layer(layer, model.layers[layer.id], ins, dtypes.get(layer.id))

    return walk(g, images, step)


def run_batch_int(g: NetworkGraph, model: PackedModel, images: np.ndarray) -> np.ndarray:
    """Integer forward of a float image batch; returns int32 scores (N, classes)."""
    out = g.output_layer.input_ids[0]
    (scores,) = [y for t, y in run_codes_network(g, model, images) if t == out]
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
