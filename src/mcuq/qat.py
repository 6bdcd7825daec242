"""Quantization-aware training engine.

Pure numpy forward/backward for the supported layer kinds. Weights train
through a straight-through estimator over the per-channel fake-quantizer;
activation clips train with PACT-style gradients (pass-through inside the
clip window, unit gradient to the clip where the input saturates).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .errors import ModelMismatchError, PackFormatError, PolicyError, TrainingDivergedError
from .graph_ir import WEIGHTED_KINDS, NetworkGraph, topo_order
from .quantizer import ActRange, ByteReader, fake_quant_act, fake_quant_weights

# kinds whose float-mode output passes through a plain ReLU
_RELU_KINDS = WEIGHTED_KINDS + ("relu_clip",)

CKPT_MAGIC = b"MQC1"
CKPT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    clip_floor: float = 1e-3  # learned clips never drop below this
    log_every: int = 0        # epochs between stdout lines, 0 = silent


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

def _pad(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _windows(x: np.ndarray, kh: int, kw: int, s: int, p: int) -> np.ndarray:
    """(N, C, OH, OW, kh, kw) view of all stride-s windows of the padded input."""
    xp = _pad(x, p)
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]


def _scatter_windows(dwin: np.ndarray, x_shape: tuple, kh: int, kw: int,
                     s: int, p: int) -> np.ndarray:
    """Adjoint of _windows: scatter-add window grads back onto the input."""
    n, c, h, w = x_shape
    oh, ow = dwin.shape[2], dwin.shape[3]
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dwin.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dwin[:, :, :, :, i, j]
    return dxp[:, :, p:p + h, p:p + w] if p else dxp


def linear_fwd(layer, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One weighted layer, z = w * x + b, in the dtype of its operands.

    Serves the float32 training forward and, on float64 codes, the integer
    accumulator of the deployed model. Returns (z, cols): cols is the input
    as the kernel's operand (im2col windows for conv2d, the window view for
    depthwise), which linear_bwd needs.
    """
    n = x.shape[0]
    if layer.kind == "conv2d":
        win = _windows(x, layer.kernel_h, layer.kernel_w, layer.stride, layer.padding)
        oh, ow = win.shape[2], win.shape[3]
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, -1, oh * ow)
        z = np.einsum("of,nfl->nol", w.reshape(w.shape[0], -1), cols, optimize=True)
        return z.reshape(n, w.shape[0], oh, ow) + b[None, :, None, None], cols
    if layer.kind == "depthwise_conv2d":
        # one multiply-accumulate per kernel tap over strided slices of the
        # window view; an im2col reshape would copy the input kh*kw times
        win = _windows(x, layer.kernel_h, layer.kernel_w, layer.stride, layer.padding)
        z = win[..., 0, 0] * w[None, :, 0, 0, None, None]
        tap = np.empty_like(z)
        for i, j in np.ndindex(layer.kernel_h, layer.kernel_w):
            if i or j:
                z += np.multiply(win[..., i, j], w[None, :, i, j, None, None], out=tap)
        z += b[None, :, None, None]
        return z, win
    if layer.kind == "pointwise_conv2d":
        return np.einsum("oc,nchw->nohw", w, x, optimize=True) + b[None, :, None, None], x
    cols = x.reshape(n, -1)  # fully_connected over the flattened input
    return cols @ w.T + b, cols


def linear_bwd(layer, dz: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape: tuple):
    """Adjoint of linear_fwd: (dx, dw, db) given dL/dz and the saved cols."""
    if layer.kind == "pointwise_conv2d":
        dw = np.einsum("nohw,nchw->oc", dz, cols, optimize=True)
        return np.einsum("oc,nohw->nchw", w, dz, optimize=True), dw, dz.sum(axis=(0, 2, 3))
    if layer.kind == "fully_connected":
        return (dz @ w).reshape(x_shape), dz.T @ cols, dz.sum(axis=0)
    n, c, oh, ow = dz.shape
    dzf = dz.reshape(n, c, oh * ow)
    w2 = w.reshape(c, -1)
    kh, kw = layer.kernel_h, layer.kernel_w
    if layer.kind == "conv2d":
        dw = np.einsum("nol,nfl->of", dzf, cols, optimize=True).reshape(w.shape)
        dcols = np.einsum("of,nol->nfl", w2, dzf, optimize=True)
        dwin = dcols.reshape(n, x_shape[1], kh, kw, oh, ow).transpose(0, 1, 4, 5, 2, 3)
    else:  # depthwise_conv2d; cols is the (N, C, OH, OW, kh, kw) window view
        dw = np.einsum("nchw,nchwij->cij", dz, cols, optimize=True)
        dcols = np.einsum("cf,ncl->nclf", w2, dzf, optimize=True)
        dwin = dcols.reshape(n, c, oh, ow, kh, kw)
    dx = _scatter_windows(dwin, x_shape, kh, kw, layer.stride, layer.padding)
    return dx, dw, dzf.sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# Network forward/backward
# ---------------------------------------------------------------------------

def _pact_masks(z: np.ndarray, clip_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Where the activation fake-quantizer passes the gradient to z (inside the
    clip window) and where it passes it to the clip (saturated)."""
    over = z >= clip_max
    return (z > 0) & ~over, over


def _walk(g: NetworkGraph, weights: dict, x: np.ndarray, policy=None,
          ranges: dict[int, ActRange] | None = None,
          cache: list | None = None) -> dict[int, np.ndarray]:
    """Every activation of the network on a batch, by tensor id (see
    forward_network). When cache is a list, each layer appends what
    backward_network needs to it."""
    encoded = set(g.encoded_tensors())
    acts: dict[int, np.ndarray] = {}
    for lid in topo_order(g):
        layer = g.layer(lid)
        if layer.kind == "output":
            continue
        entry = {"layer": layer}

        if layer.kind == "input":
            z = x.astype(np.float32)
        elif layer.kind in WEIGHTED_KINDS:
            xin = acts[layer.input_ids[0]]
            w = weights[lid]["w"]
            wbits = 32 if policy is None else policy.weight_bits[lid]
            wq = w if wbits == 32 else fake_quant_weights(w, wbits).astype(np.float32)
            z, cols = linear_fwd(layer, xin, wq, weights[lid]["b"])
            entry.update(cols=cols, wq=wq, x_shape=xin.shape)
        elif layer.kind == "avg_pool":
            xin = acts[layer.input_ids[0]]
            win = _windows(xin, layer.kernel_h, layer.kernel_w, layer.stride, layer.padding)
            z = win.mean(axis=(4, 5))
            entry.update(x_shape=xin.shape)
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
            clip_max = ranges[lid].clip_max
            y = fake_quant_act(z, clip_max, bits)
            if cache is not None:
                inside, over = _pact_masks(z, clip_max)
                entry.update(act_inside=inside, act_over=over, act_tid=lid)
        elif layer.kind in _RELU_KINDS and lid in encoded:
            y = np.maximum(z, 0.0)
            if cache is not None:
                entry.update(relu_mask=z > 0)
        else:
            y = z
        acts[lid] = y
        if cache is not None:
            cache.append(entry)
    return acts


def forward_network(g: NetworkGraph, weights: dict, x: np.ndarray,
                    policy=None, ranges: dict[int, ActRange] | None = None,
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

    for entry in reversed(cache):
        layer = entry["layer"]
        dy = dacts.pop(layer.id, None)
        if dy is None:
            continue
        # back through the output encoding
        if "act_tid" in entry:
            sat = dy * entry["act_over"]
            grads_key = f"clip.{entry['act_tid']}"
            grads[grads_key] = grads.get(grads_key, 0.0) + float(sat.sum())
            dz = dy * entry["act_inside"]
        elif "relu_mask" in entry:
            dz = dy * entry["relu_mask"]
        else:
            dz = dy

        if layer.kind == "input":
            continue
        if layer.kind in WEIGHTED_KINDS:
            dx, dw, db = linear_bwd(layer, dz, entry["cols"], entry["wq"], entry["x_shape"])
            grads[f"w.{layer.id}"] = dw  # STE: latent weight takes the fake-quant grad
            grads[f"b.{layer.id}"] = db
        elif layer.kind == "avg_pool":
            kh, kw = layer.kernel_h, layer.kernel_w
            dwin = np.broadcast_to((dz / (kh * kw))[:, :, :, :, None, None],
                                   dz.shape + (kh, kw))
            dx = _scatter_windows(dwin, entry["x_shape"], kh, kw, layer.stride, layer.padding)
        else:  # add_residual and relu_clip pass the gradient to every input
            dx = dz
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
    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for key, gval in grads.items():
            gval = np.asarray(gval, dtype=np.float64)
            if key not in self.m:
                self.m[key] = np.zeros_like(gval)
                self.v[key] = np.zeros_like(gval)
            self.m[key] = c.beta1 * self.m[key] + (1 - c.beta1) * gval
            self.v[key] = c.beta2 * self.v[key] + (1 - c.beta2) * gval * gval
            update = c.lr * (self.m[key] / bc1) / (np.sqrt(self.v[key] / bc2) + c.eps)
            params[key] = (params[key] - update).astype(params[key].dtype) \
                if isinstance(params[key], np.ndarray) else float(params[key] - update)


def _gather_params(weights: dict, ranges: dict[int, ActRange] | None):
    params: dict = {}
    for lid, entry in weights.items():
        params[f"w.{lid}"] = entry["w"]
        params[f"b.{lid}"] = entry["b"]
    if ranges:
        for tid, r in ranges.items():
            params[f"clip.{tid}"] = r.clip_max
    return params


def _scatter_params(params: dict, weights: dict, ranges: dict[int, ActRange] | None,
                    clip_floor: float):
    for lid, entry in weights.items():
        entry["w"] = params[f"w.{lid}"]
        entry["b"] = params[f"b.{lid}"]
    if ranges:
        for tid, r in ranges.items():
            r.clip_max = max(float(params[f"clip.{tid}"]), clip_floor)
            params[f"clip.{tid}"] = r.clip_max


def train_network(g: NetworkGraph, weights: dict, dataset: Dataset,
                  cfg: TrainConfig, policy=None,
                  ranges: dict[int, ActRange] | None = None) -> list[dict]:
    """SGD loop (Adam) over the train split; mutates weights and ranges.

    Float training when policy is None, fake-quant training otherwise.
    Returns one history record per epoch. Raises TrainingDivergedError on a
    non-finite loss.
    """
    images, labels = dataset.train
    n = len(images)
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg)
    params = _gather_params(weights, ranges)
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
            opt.step(params, grads)
            _scatter_params(params, weights, ranges, cfg.clip_floor)
            losses.append(loss)
        val_top1 = evaluate(g, weights, dataset, split="val", policy=policy, ranges=ranges)
        history.append({"epoch": epoch, "loss": float(np.mean(losses)), "val_top1": val_top1})
        if cfg.log_every and (epoch % cfg.log_every == 0 or epoch == cfg.epochs - 1):
            print(f"epoch {epoch}: loss {history[-1]['loss']:.4f} val_top1 {val_top1:.4f}")
    return history


def pretrain_float(g: NetworkGraph, dataset: Dataset, cfg: TrainConfig) -> tuple[dict, list]:
    weights = init_weights(g, seed=cfg.seed)
    history = train_network(g, weights, dataset, cfg)
    return weights, history


def train_qat(g: NetworkGraph, weights: dict, policy, ranges: dict[int, ActRange],
              dataset: Dataset, cfg: TrainConfig):
    """Fake-quant training under a policy; returns (weights, ranges, val_top1).

    Zero epochs leaves the parameters untouched and just scores the
    calibrated model.
    """
    train_network(g, weights, dataset, cfg, policy=policy, ranges=ranges)
    top1 = evaluate(g, weights, dataset, split="val", policy=policy, ranges=ranges)
    return weights, ranges, top1


def evaluate(g: NetworkGraph, weights: dict, dataset: Dataset, split: str = "val",
             policy=None, ranges=None, batch: int = 256) -> float:
    """Top-1 accuracy on a split ("val", "train", or "all")."""
    images, labels = dataset.split(split)
    correct = 0
    for start in range(0, len(images), batch):
        logits, _ = forward_network(g, weights, images[start:start + batch],
                                    policy=policy, ranges=ranges)
        correct += int((logits.argmax(axis=1) == labels[start:start + batch]).sum())
    return correct / len(images)


def collect_activations(g: NetworkGraph, weights: dict, images: np.ndarray,
                        batch: int = 128) -> dict[int, np.ndarray]:
    """Float-forward values of every encoded tensor, for range calibration.

    Each tensor's batches are concatenated along the batch axis.
    """
    encoded = g.encoded_tensors()
    chunks: dict[int, list] = {t: [] for t in encoded}
    for start in range(0, len(images), batch):
        acts = _walk(g, weights, images[start:start + batch])
        for t in encoded:
            chunks[t].append(acts[t])
    return {t: np.concatenate(v) for t, v in chunks.items()}


# ---------------------------------------------------------------------------
# Checkpoints: flat binary, deterministic byte-for-byte for a given state.
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, weights: dict, ranges: dict[int, ActRange] | None = None):
    entries: dict[str, np.ndarray] = {}
    for lid, entry in weights.items():
        entries[f"w.{lid}"] = np.asarray(entry["w"], dtype=np.float32)
        entries[f"b.{lid}"] = np.asarray(entry["b"], dtype=np.float32)
    for tid, r in (ranges or {}).items():
        entries[f"clip.{tid}"] = np.asarray([r.clip_max], dtype=np.float32)
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


def load_checkpoint(path: str) -> tuple[dict, dict[int, ActRange]]:
    """Weights and clips saved by save_checkpoint; a malformed file raises PackFormatError."""
    with open(path, "rb") as f:
        r = ByteReader(f.read(), f"checkpoint {path}")
    if r.take(4) != CKPT_MAGIC:
        raise PackFormatError(f"{path}: not a checkpoint file")
    version, count = r.unpack("<II")
    if version != CKPT_VERSION:
        raise PackFormatError(f"{path}: unsupported checkpoint version {version}")
    weights: dict[int, dict[str, np.ndarray]] = {}
    ranges: dict[int, ActRange] = {}
    for _ in range(count):
        (klen,) = r.unpack("<H")
        tag, ident = _checkpoint_key(r.take(klen))
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        arr = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if tag == "clip":
            if arr.size != 1 or not np.isfinite(arr).all() or arr.item() <= 0:
                raise PackFormatError(f"{path}: clip {ident} is not one positive value")
            ranges[ident] = ActRange(tensor_id=ident, clip_max=float(arr.item()))
        elif tag in ("w", "b"):
            weights.setdefault(ident, {})[tag] = arr.copy()
        else:
            raise PackFormatError(f"{path}: unknown checkpoint entry {tag}.{ident}")
    r.finish()
    return weights, ranges


def check_checkpoint_matches(g: NetworkGraph, weights: dict,
                             ranges: dict[int, ActRange]) -> None:
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
