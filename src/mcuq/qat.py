"""Quantization-aware training engine.

Pure numpy forward/backward for the supported layer kinds. Weights train
through a straight-through estimator over the per-channel fake-quantizer;
activation clips train with PACT-style gradients (pass-through inside the
clip window, unit gradient to the clip where the input saturates).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ModelMismatchError, PackFormatError, PolicyError, TrainingDivergedError
from .graph_ir import LINEAR_KINDS, WEIGHTED_KINDS, NetworkGraph, topo_order
from .quantizer import (CLIP_FLOOR, CONV_BLOCK, ByteReader, act_codes, fake_quant_weights,
                        normal_act_scale)

# kinds whose float-mode output passes through a plain ReLU
_RELU_KINDS = WEIGHTED_KINDS + ("relu_clip",)
# linear kinds that run on phase planes
_WINDOW_KINDS = ("conv2d", "depthwise_conv2d", "avg_pool")

CKPT_MAGIC = b"MQC1"
CKPT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_BATCH = 256   # images per forward in evaluate
CALIB_BATCH = 128  # images per forward in collect_activations


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0


def init_weights(g: NetworkGraph, seed: int = 0) -> dict[int, dict[str, np.ndarray]]:
    """He-initialized float32 weights and zero biases for every weighted layer."""
    rng = np.random.default_rng(seed)
    weights = {}
    for layer in g.weighted_layers():
        shape = layer.weight_shape
        std = float(np.sqrt(2.0 / math.prod(shape[1:])))
        weights[layer.id] = {
            "w": rng.normal(0.0, std, size=shape).astype(np.float32),
            "b": np.zeros(layer.out_channels, dtype=np.float32),
        }
    return weights


def copy_weights(weights: dict) -> dict:
    return {lid: {k: v.copy() for k, v in entry.items()} for lid, entry in weights.items()}


# ---------------------------------------------------------------------------
# Layer ops
# ---------------------------------------------------------------------------

def _phase_grid(layer, x_shape: tuple) -> tuple[int, int, int, int]:
    """(oh, ow, h2, w2): a window layer's output size and the size of one phase plane."""
    _, _, h, w = x_shape
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - layer.kernel_h) // s + 1
    ow = (w + 2 * p - layer.kernel_w) // s + 1
    # every tap of a kept output stays inside its image: for y < oh and tap
    # row i, y + i//s <= (h + 2p - 1)//s < h2, and likewise for columns
    return oh, ow, -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)


def _phases(planes: np.ndarray, x: np.ndarray, s: int, p: int, h2: int, w2: int):
    """Yield (view of x, view of the planes) pairs of equal shape that put each
    pixel of x, (N, C, H, W), at its place in the planes, whose flat axis runs
    (y, n, x) over h2 rows of N images of w2 columns per phase."""
    n, c, h, w = x.shape
    grid = planes[..., :h2 * n * w2].reshape(s, s, c, h2, n, w2)
    for a, b in itertools.product(range(s), repeat=2):
        r0, c0 = (a - p) % s, (b - p) % s  # first input row and column of the phase
        y0, x0 = (r0 + p) // s, (c0 + p) // s
        rows, cols = len(range(r0, h, s)), len(range(c0, w, s))
        yield (x[:, :, r0::s, c0::s],
               grid[a, b, :, y0:y0 + rows, :, x0:x0 + cols].transpose(2, 0, 1, 3))


def _taps(layer, n: int, w2: int) -> list[tuple[int, int, int]]:
    """(a, b, offset) per kernel tap, row-major: tap (i, j) of output position
    q = (y*N + n)*w2 + x reads plane (a, b) = (i % s, j % s) at q + offset,
    offset = (i//s)*N*w2 + j//s."""
    s = layer.stride
    return [(i % s, j % s, (i // s) * n * w2 + j // s)
            for i in range(layer.kernel_h) for j in range(layer.kernel_w)]


def _col_blocks(planes: np.ndarray, taps: list, m: int):
    """Yield (m0, cols): cols is the (kh*kw*C, mb) im2col block of output
    positions m0 .. m0+mb, rows tap-major, held in one reused buffer."""
    c = planes.shape[2]
    k = len(taps) * c
    step = max(1, min(m, CONV_BLOCK // k))
    buf = np.empty(k * step, planes.dtype)
    for m0 in range(0, m, step):
        mb = min(step, m - m0)
        cols = buf[:k * mb].reshape(len(taps), c, mb)
        for t, (a, b, off) in enumerate(taps):
            cols[t] = planes[a, b, :, m0 + off:m0 + off + mb]
        yield m0, cols.reshape(k, mb)


def _out_grid(flat: np.ndarray, kind: str, n: int, o: int, oh: int, w2: int) -> np.ndarray:
    """A window kernel's flat output, positions in (y, n, x) order over the
    oh computed rows, as an (N, O, oh, w2) view: (oh*N*w2, O) for the conv2d
    GEMMs, (O, oh*N*w2) for the per-tap products. Columns x >= ow are computed
    and dropped by the caller."""
    if kind == "conv2d":
        return flat.reshape(oh, n, w2, o).transpose(1, 3, 0, 2)
    return flat.reshape(o, oh, n, w2).transpose(2, 0, 1, 3)


def _window_fwd(layer, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    n, c = x.shape[:2]
    s, o = layer.stride, len(b)
    oh, ow, h2, w2 = _phase_grid(layer, x.shape)
    m = oh * n * w2  # positions of the kept rows y < oh
    taps = _taps(layer, n, w2)
    dtype = np.result_type(x, w)
    # tail: columns x >= ow of the last row read up to (kw-1)//s past the grid
    planes = np.zeros((s, s, c, h2 * n * w2 + (layer.kernel_w - 1) // s), dtype)
    for xv, pv in _phases(planes, x, s, layer.padding, h2, w2):
        pv[...] = xv
    if layer.kind == "conv2d":
        wt = w.transpose(0, 2, 3, 1).reshape(o, -1)  # columns tap-major, as the blocks
        zm = np.empty((m, o), dtype)
        for m0, cols in _col_blocks(planes, taps, m):
            np.matmul(cols.T, wt.T, out=zm[m0:m0 + cols.shape[1]])
    else:  # one multiply-add per tap, (C, 1) weight columns, in blocks of channels
        zm = np.empty((c, m), dtype)
        wc, step = w.reshape(c, -1), max(1, CONV_BLOCK // m)
        prod = np.empty((min(c, step), m), dtype)
        (a0, b0, off0), *rest = taps
        for c0 in range(0, c, step):
            cs = slice(c0, c0 + step)
            zb = zm[cs]
            np.multiply(planes[a0, b0, cs, off0:off0 + m], wc[cs, :1], out=zb)
            for t, (a, bb, off) in enumerate(rest, 1):
                zb += np.multiply(planes[a, bb, cs, off:off + m], wc[cs, t, None],
                                  out=prod[:len(zb)])
    z = np.empty((n, o, oh, ow), dtype)
    np.add(_out_grid(zm, layer.kind, n, o, oh, w2)[..., :ow], b[None, :, None, None], out=z)
    return z, planes


def _window_bwd(layer, dz: np.ndarray, planes: np.ndarray, w: np.ndarray,
                x_shape: tuple, need_dx: bool):
    n, o, oh, ow = dz.shape
    c = x_shape[1]
    _, _, h2, w2 = _phase_grid(layer, x_shape)
    m = oh * n * w2
    taps = _taps(layer, n, w2)
    conv = layer.kind == "conv2d"
    # dropped columns get a zero gradient, so they add nothing
    dzm = np.zeros((m, o) if conv else (o, m), dz.dtype)
    _out_grid(dzm, layer.kind, n, o, oh, w2)[..., :ow] = dz
    dw = None  # avg_pool has no parameters
    if conv:
        dwt = np.zeros((len(taps) * c, o), np.result_type(planes, dz))
        for m0, cols in _col_blocks(planes, taps, m):
            dwt += cols @ dzm[m0:m0 + cols.shape[1]]
        dw = dwt.reshape(layer.kernel_h, layer.kernel_w, c, o).transpose(3, 2, 0, 1)
    elif layer.kind == "depthwise_conv2d":
        dw = np.stack([planes[a, b, :, None, off:off + m] @ dzm[..., None] for a, b, off in taps],
                      axis=1).reshape(w.shape)  # a (1, M) @ (M, 1) product per channel
    dx = None
    if need_dx:
        dtype = np.result_type(w, dz)
        if conv:
            wt = w.transpose(0, 2, 3, 1).reshape(o, -1)
            dcols = (wt.T @ dzm.T).reshape(len(taps), c, m)
        else:
            wc, prod = w.reshape(c, -1), np.empty((c, m), dtype)
            dcols = (np.multiply(wc[:, t, None], dzm, out=prod) for t in range(len(taps)))
        dplanes = np.zeros(planes.shape, dtype)
        for (a, b, off), dcol in zip(taps, dcols):
            dplanes[a, b, :, off:off + m] += dcol
        dx = np.empty(x_shape, dtype)
        for xv, pv in _phases(dplanes, dx, layer.stride, layer.padding, h2, w2):
            xv[...] = pv
    db = None if dw is None else dz.reshape(n, o, oh * ow).sum(axis=(0, 2))
    return dx, dw, db


def pool_weight(layer, value, dtype) -> tuple[np.ndarray, np.ndarray]:
    """avg_pool as a depthwise layer: (w, b) weighting every tap by value, no bias."""
    c = layer.out_channels
    return np.full((c, layer.kernel_h, layer.kernel_w), value, dtype), np.zeros(c, dtype)


def linear_fwd(layer, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One linear layer, z = w * x + b, in the dtype of its operands.

    Serves the float32 training forward and the integer accumulator of the
    deployed model, on float32 or float64 codes (whichever the accumulator
    bound proves exact, see inference) with a zero bias; avg_pool runs on
    pool_weight's constant kernel. Returns (z, cols): cols is the input as
    the kernel's operand, which linear_bwd needs.

    conv2d, depthwise_conv2d and avg_pool run over phase planes. The
    zero-padded input is written once into s*s phase planes (s the stride),
    plane (a, b) holding the padded pixels (s*Y + a, s*X + b) at (Y, X) of
    an h2 x w2 grid per image. The batch is folded into one flat axis that
    runs (y, n, x): row y of every image, then row y + 1. cols is the
    (s, s, C, h2*N*w2 + (kw-1)//s) plane array for all three kinds, and tap
    (i, j) of output position q = (y*N + n)*w2 + x is
    plane[i%s, j%s, :, q + (i//s)*N*w2 + j//s]: one contiguous slice per tap.
    The kernels compute the positions q < oh*N*w2 only, so the rows y >= oh
    form a suffix that is never computed. The columns x >= ow of each kept
    row are computed and dropped (on the toy CNN, 63 positions per image
    for 49 kept in its third conv2d and 20 for 16 in its fourth); their
    taps may read into the next image's row, or the (kw-1)//s tail past
    the last one. conv2d builds blocks of at most CONV_BLOCK elements,
    kh*kw*C rows by output positions, from those slices and multiplies each
    by the weights in one GEMM. depthwise_conv2d and avg_pool run over
    blocks of CONV_BLOCK // (oh*N*w2) channels (at least one), so a block's
    sums and products stay in cache: the first tap's slice times its (C, 1)
    weight column is written into the block, and each further tap's is
    added, so every output sums its taps in the same order whatever the
    block. The sums run in np.result_type(x, w).

    pointwise_conv2d is one GEMM per image, w @ x[n] over the (C, H*W)
    image, with the bias added in place. For pointwise_conv2d and
    fully_connected cols is the input itself.
    """
    if layer.kind in _WINDOW_KINDS:
        return _window_fwd(layer, x, w, b)
    if layer.kind == "pointwise_conv2d":
        n, c, h, wd = x.shape
        z = np.matmul(w, x.reshape(n, c, h * wd))
        z += b[:, None]
        return z.reshape(n, len(b), h, wd), x
    cols = x.reshape(x.shape[0], -1)  # fully_connected over the flattened input
    return cols @ w.T + b, cols


def linear_bwd(layer, dz: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape: tuple,
               need_dx: bool = True):
    """Adjoint of linear_fwd: (dx, dw, db) given dL/dz and the saved cols.

    dx is None when need_dx is false; dw and db do not depend on it, and are
    None for avg_pool, which has no parameters. The window kinds take dw from
    the phase planes in cols: conv2d rebuilds each im2col block for one dw
    GEMM per block, depthwise_conv2d takes one dot product per tap and
    channel. Their column gradients (one GEMM for conv2d, the weight column
    times dz per tap for depthwise_conv2d and avg_pool) go back into zeroed
    planes by kh*kw contiguous slice-adds; dx is those planes un-phased and
    cropped.
    """
    if layer.kind in _WINDOW_KINDS:
        return _window_bwd(layer, dz, cols, w, x_shape, need_dx)
    if layer.kind == "pointwise_conv2d":
        dw = np.einsum("nohw,nchw->oc", dz, cols, optimize=True)
        dx = np.einsum("oc,nohw->nchw", w, dz, optimize=True) if need_dx else None
        return dx, dw, dz.sum(axis=(0, 2, 3))
    return (dz @ w).reshape(x_shape) if need_dx else None, dz.T @ cols, dz.sum(axis=0)


# ---------------------------------------------------------------------------
# Network forward/backward
# ---------------------------------------------------------------------------

def _walk(g: NetworkGraph, weights: dict, x: np.ndarray, policy=None,
          ranges: dict[int, float] | None = None,
          cache: list | None = None) -> dict[int, np.ndarray]:
    """Every activation of the network on a batch, by tensor id (see
    forward_network). When cache is a list, each layer appends what
    backward_network needs to it."""
    g.check_batch(x)
    encoded = set(g.encoded_tensors())
    acts: dict[int, np.ndarray] = {}
    for lid in topo_order(g):
        layer = g.layer(lid)
        if layer.kind == "output":
            continue
        entry = {"layer": layer}

        if layer.kind == "input":
            z = x.astype(np.float32)
        elif layer.kind in LINEAR_KINDS:
            xin = acts[layer.input_ids[0]]
            if layer.kind == "avg_pool":
                wq, b = pool_weight(layer, 1.0 / (layer.kernel_h * layer.kernel_w), xin.dtype)
            else:
                w, b = weights[lid]["w"], weights[lid]["b"]
                wbits = 32 if policy is None else policy.weight_bits[lid]
                wq = w if wbits == 32 else fake_quant_weights(w, wbits)
            z, cols = linear_fwd(layer, xin, wq, b)
            entry.update(cols=cols, wq=wq, x_shape=xin.shape)
        elif layer.kind == "add_residual":
            z = acts[layer.input_ids[0]] + acts[layer.input_ids[1]]
        elif layer.kind == "relu_clip":
            z = acts[layer.input_ids[0]]
        else:
            raise PolicyError(f"cannot execute layer kind {layer.kind!r}")

        # output encoding: fake-quant when configured, else the float nonlinearity
        bits = 32
        if policy is not None and lid in encoded:
            bits = policy.act_bits.get(lid, 32)
        if bits != 32:
            if ranges is None or lid not in ranges:
                raise PolicyError(f"no activation range for tensor {lid}")
            clip = ranges[lid]
            y, s = act_codes(z, clip, bits)
            y *= s
            if cache is not None:  # PACT masks: to z where 0 < z < clip, to the clip above
                over = z >= clip
                entry.update(mask=(z > 0) ^ over, act_over=over, act_tid=lid)
        elif layer.kind in _RELU_KINDS and lid in encoded:
            y = np.maximum(z, 0.0)
            if cache is not None:
                entry.update(mask=z > 0)
        else:
            y = z
        acts[lid] = y
        if cache is not None:
            cache.append(entry)
    return acts


def forward_network(g: NetworkGraph, weights: dict, x: np.ndarray,
                    policy=None, ranges: dict[int, float] | None = None,
                    train: bool = False):
    """Run the network on a batch.

    With policy=None this is the plain float model (ReLU after weighted
    layers). With a policy, weights are fake-quantized per channel and every
    encoded tensor is clipped/rounded at its configured width; 32-bit entries
    fall back to the float behavior. Returns (logits, cache); cache is None
    unless train=True.
    """
    cache = [] if train else None
    acts = _walk(g, weights, x, policy, ranges, cache)
    return acts[g.output_layer.input_ids[0]].astype(np.float32), cache


def backward_network(g: NetworkGraph, weights: dict, cache: list,
                     dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Grads for weights, biases, and activation clips given dL/dlogits."""
    grads: dict[str, np.ndarray] = {}
    dacts: dict[int, np.ndarray] = {}
    out_layer = g.output_layer
    dacts[out_layer.input_ids[0]] = dlogits.astype(np.float32)
    # tensors whose gradient is used: those with a parameter at or above them,
    # a weighted layer or a trained activation clip (the input's included)
    wants: set[int] = set()
    for entry in cache:
        layer = entry["layer"]
        if layer.kind in WEIGHTED_KINDS or "act_tid" in entry \
                or not wants.isdisjoint(layer.input_ids):
            wants.add(layer.id)

    for entry in reversed(cache):
        layer = entry["layer"]
        dy = dacts.pop(layer.id, None)
        if dy is None:
            continue
        # back through the output encoding: saturated part to the clip, masked to z
        if "act_tid" in entry:
            key = f"clip.{entry['act_tid']}"
            grads[key] = grads.get(key, 0.0) + float((dy * entry["act_over"]).sum())
        dz = dy * entry["mask"] if "mask" in entry else dy

        if layer.kind == "input":
            continue
        need_dx = not wants.isdisjoint(layer.input_ids)
        if layer.kind in LINEAR_KINDS:
            dx, dw, db = linear_bwd(layer, dz, entry["cols"], entry["wq"], entry["x_shape"],
                                    need_dx)
            if layer.kind in WEIGHTED_KINDS:
                grads[f"w.{layer.id}"] = dw  # STE: latent weight takes the fake-quant grad
                grads[f"b.{layer.id}"] = db
        else:  # add_residual, relu_clip: dx is dz
            dx = dz
        if not need_dx:
            continue
        for src in layer.input_ids:
            dacts[src] = dacts.get(src, 0.0) + dx
    return grads


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and dL/dlogits for integer class labels."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = float(-np.log(np.maximum(p[np.arange(n), labels], 1e-12)).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One Adam step: {key: update} for the caller to subtract from each parameter."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        updates = {}
        for key, gval in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(gval)
                self.v[key] = np.zeros_like(gval)
            self.m[key] = ADAM_BETA1 * self.m[key] + (1 - ADAM_BETA1) * gval
            self.v[key] = ADAM_BETA2 * self.v[key] + (1 - ADAM_BETA2) * gval * gval
            updates[key] = self.lr * (self.m[key] / bc1) / (np.sqrt(self.v[key] / bc2) + ADAM_EPS)
        return updates


def train_network(g: NetworkGraph, weights: dict, dataset: Dataset,
                  cfg: TrainConfig, policy=None,
                  ranges: dict[int, float] | None = None) -> list[dict]:
    """SGD loop (Adam) over the train split; mutates weights and ranges.

    Float training when policy is None, fake-quant training otherwise. A step
    puts new arrays in weights, so arrays a caller holds keep their values,
    and floors each clip at CLIP_FLOOR. Returns one history record per epoch.
    Raises TrainingDivergedError on a non-finite loss.
    """
    images, labels = dataset.train
    n = len(images)
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg.lr)
    history = []

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            logits, cache = forward_network(g, weights, images[idx], policy=policy,
                                            ranges=ranges, train=True)
            loss, dlogits = softmax_xent(logits, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss} at epoch {epoch}")
            grads = backward_network(g, weights, cache, dlogits)
            for key, u in opt.step(grads).items():
                tag, i = key.split(".")
                if tag == "clip":  # float32, as the container stores it
                    ranges[int(i)] = float(np.float32(max(float(ranges[int(i)] - u), CLIP_FLOOR)))
                else:
                    weights[int(i)][tag] = weights[int(i)][tag] - u
            losses.append(loss)
        val_top1 = evaluate(g, weights, dataset, split="val", policy=policy, ranges=ranges)
        history.append({"epoch": epoch, "loss": float(np.mean(losses)), "val_top1": val_top1})
    return history


def pretrain_float(g: NetworkGraph, dataset: Dataset, cfg: TrainConfig) -> tuple[dict, list]:
    weights = init_weights(g, seed=cfg.seed)
    history = train_network(g, weights, dataset, cfg)
    return weights, history


def train_qat(g: NetworkGraph, weights: dict, policy, ranges: dict[int, float],
              dataset: Dataset, cfg: TrainConfig):
    """Fake-quant training under a policy; returns (weights, ranges, val_top1).

    The score is the last epoch's, which train_network takes on the final
    weights. Zero epochs leaves the parameters untouched and just scores the
    calibrated model.
    """
    history = train_network(g, weights, dataset, cfg, policy=policy, ranges=ranges)
    if history:
        return weights, ranges, history[-1]["val_top1"]
    return weights, ranges, evaluate(g, weights, dataset, split="val", policy=policy,
                                     ranges=ranges)


def evaluate(g: NetworkGraph, weights: dict, dataset: Dataset, split: str = "val",
             policy=None, ranges=None) -> float:
    """Top-1 accuracy on a split ("val", "train", or "all")."""
    images, labels = dataset.split(split)
    correct = 0
    for start in range(0, len(images), EVAL_BATCH):
        logits, _ = forward_network(g, weights, images[start:start + EVAL_BATCH],
                                    policy=policy, ranges=ranges)
        correct += int((logits.argmax(axis=1) == labels[start:start + EVAL_BATCH]).sum())
    return correct / len(images)


def collect_activations(g: NetworkGraph, weights: dict,
                        images: np.ndarray) -> dict[int, np.ndarray]:
    """Float-forward values of every encoded tensor, for range calibration.

    Each tensor's batches are concatenated along the batch axis; a single
    batch is returned as computed, without a copy.
    """
    encoded = g.encoded_tensors()
    chunks: dict[int, list] = {t: [] for t in encoded}
    for start in range(0, len(images), CALIB_BATCH):
        acts = _walk(g, weights, images[start:start + CALIB_BATCH])
        for t in encoded:
            chunks[t].append(acts[t])
    return {t: v[0] if len(v) == 1 else np.concatenate(v) for t, v in chunks.items()}


# ---------------------------------------------------------------------------
# Checkpoints: flat binary, deterministic byte-for-byte for a given state.
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, weights: dict, ranges: dict[int, float] | None = None):
    entries: dict[str, np.ndarray] = {}
    for lid, entry in weights.items():
        entries[f"w.{lid}"] = np.asarray(entry["w"], dtype=np.float32)
        entries[f"b.{lid}"] = np.asarray(entry["b"], dtype=np.float32)
    for tid, clip in (ranges or {}).items():
        entries[f"clip.{tid}"] = np.asarray([clip], dtype=np.float32)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, len(entries)))
        for key in sorted(entries):
            arr = entries[key]
            kb = key.encode("utf-8")
            f.write(struct.pack("<H", len(kb)))
            f.write(kb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4").tobytes())


def _checkpoint_key(key: bytes) -> tuple[str, int]:
    try:
        tag, ident = key.decode("utf-8").split(".", 1)
        return tag, int(ident)
    except ValueError as e:  # UnicodeDecodeError is a ValueError too
        raise PackFormatError(f"malformed checkpoint key {key!r}") from e


def load_checkpoint(path: str) -> tuple[dict, dict[int, float]]:
    """Weights and clips saved by save_checkpoint; a malformed file raises PackFormatError."""
    with open(path, "rb") as f:
        r = ByteReader(f.read(), f"checkpoint {path}")
    if r.take(4) != CKPT_MAGIC:
        raise PackFormatError(f"{path}: not a checkpoint file")
    version, count = r.unpack("<II")
    if version != CKPT_VERSION:
        raise PackFormatError(f"{path}: unsupported checkpoint version {version}")
    weights: dict[int, dict[str, np.ndarray]] = {}
    ranges: dict[int, float] = {}
    for _ in range(count):
        (klen,) = r.unpack("<H")
        tag, ident = _checkpoint_key(r.take(klen))
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        arr = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise PackFormatError(f"{path}: {tag}.{ident} holds values that are not finite")
        if tag == "clip":
            # at 8 bits, the width that gives a clip its smallest scale
            if arr.size != 1 or not normal_act_scale(arr.item(), 8):
                raise PackFormatError(f"{path}: clip {ident} is not one positive value "
                                      f"whose 8-bit scale is a normal float32")
            ranges[ident] = float(arr.item())
        elif tag in ("w", "b"):
            weights.setdefault(ident, {})[tag] = arr.copy()
        else:
            raise PackFormatError(f"{path}: unknown checkpoint entry {tag}.{ident}")
    r.finish()
    return weights, ranges


def check_checkpoint_matches(g: NetworkGraph, weights: dict,
                             ranges: dict[int, float]) -> None:
    """Raise ModelMismatchError unless loaded weights and clips fit the graph.

    Every weighted layer needs w of its kernel shape and b of its output
    channels; no other layer may have entries, and only encoded tensors
    may have clips.
    """
    weighted = {l.id: l for l in g.weighted_layers()}
    extra = sorted(set(weights) - set(weighted))
    if extra:
        raise ModelMismatchError(f"checkpoint has weights for layers {extra}, "
                                 f"which have none in the graph")
    for lid, layer in weighted.items():
        entry = weights.get(lid, {})
        for key, shape in (("w", layer.weight_shape), ("b", (layer.out_channels,))):
            if key not in entry:
                raise ModelMismatchError(f"checkpoint lacks {key}.{lid}")
            if entry[key].shape != shape:
                raise ModelMismatchError(f"checkpoint {key}.{lid} has shape "
                                         f"{entry[key].shape}, the graph needs {shape}")
    extra = sorted(set(ranges) - set(g.encoded_tensors()))
    if extra:
        raise ModelMismatchError(f"checkpoint has clips for tensors {extra}, "
                                 f"which carry no encoding")
