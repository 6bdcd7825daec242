"""Quantization-aware training engine.

Network forward/backward over the layer arithmetic of kernels. Weights train
through a straight-through estimator over the per-channel fake-quantizer;
activation clips train with PACT-style gradients (pass-through inside the
clip window, unit gradient to the clip where the input saturates).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ModelMismatchError, PackFormatError, PolicyError, TrainingDivergedError
from .graph_ir import LINEAR_KINDS, WEIGHTED_KINDS, NetworkGraph, decimal_id, topo_order
from .kernels import linear_bwd, linear_fwd, pool_weight
from .quantizer import CLIP_FLOOR, ByteReader, act_codes, fake_quant_weights, normal_act_scale

# kinds whose float-mode output passes through a plain ReLU
_RELU_KINDS = WEIGHTED_KINDS + ("relu_clip",)

CKPT_MAGIC = b"MQC1"
CKPT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
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


def backward_network(g: NetworkGraph, cache: list, dlogits: np.ndarray) -> dict[str, np.ndarray]:
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
            grads = backward_network(g, cache, dlogits)
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
    """Top-1 accuracy on a split ("val", "train", or "all"): evaluate_accuracy's,
    so training, search and `mcuq eval` count over the same batches."""
    from . import inference  # deferred: inference builds on this module

    return inference.evaluate_accuracy(g, dataset, weights=weights, policy=policy,
                                       ranges=ranges, split=split)[0]


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
    """(tag, id) of a key "tag.id", the id in the decimal form str(id) writes."""
    try:
        tag, ident = key.decode("utf-8").split(".", 1)
    except ValueError as e:  # UnicodeDecodeError is a ValueError too
        raise PackFormatError(f"malformed checkpoint key {key!r}") from e
    lid = decimal_id(ident)
    if lid is None:
        raise PackFormatError(f"malformed checkpoint key {key!r}")
    return tag, lid


def load_checkpoint(path: str) -> tuple[dict, dict[int, float]]:
    """Weights and clips saved by save_checkpoint; a malformed file, or one that
    holds a key twice, raises PackFormatError."""
    try:
        with open(path, "rb") as f:
            r = ByteReader(f.read(), f"checkpoint {path}")
    except OSError as e:
        raise PackFormatError(f"cannot read {path}: {e}") from e
    if r.take(4) != CKPT_MAGIC:
        raise PackFormatError(f"{path}: not a checkpoint file")
    version, count = r.unpack("<II")
    if version != CKPT_VERSION:
        raise PackFormatError(f"{path}: unsupported checkpoint version {version}")
    weights: dict[int, dict[str, np.ndarray]] = {}
    ranges: dict[int, float] = {}
    seen: set[tuple[str, int]] = set()
    for _ in range(count):
        (klen,) = r.unpack("<H")
        tag, ident = _checkpoint_key(r.take(klen))
        if (tag, ident) in seen:
            raise PackFormatError(f"{path}: {tag}.{ident} written twice")
        seen.add((tag, ident))
        shape = r.shape(f"{path}: {tag}.{ident}")
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
