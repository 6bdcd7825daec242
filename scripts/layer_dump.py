"""Dump the per-layer outputs of one checkout, and compare two dumps.

    python scripts/layer_dump.py dump OUT.npz --models DIR
    python scripts/layer_dump.py diff A.npz B.npz

`dump` runs the checkout this script sits in and records:
- the integer codes of every layer, from inference.run_codes_network, of
  toycnn_mnist and toy_residual (all-8 and a seeded sub-byte policy, 16
  images each, and toycnn_mnist's two models again on 128 images, the
  `mcuq eval` batch, whose requant row blocks span several images, keys
  `int/toycnn_mnist/*/eval/...`), of 24 seeded random graphs under random
  policies (2 images each) and of MobileNetV1-224 under the enforced all-8
  anchor and under the unenforced all-8 policy (2 images each), keys
  `int/...`; the unenforced model keeps the 8-bit layers of fan-in 1024 (27
  and 29), whose accumulator bound takes the engine's float64 path, while the
  anchor's layers all run in float32;
- the float32 logits and every backward_network gradient of the toy graphs and
  the random graphs, in float mode and under the sub-byte policy, keys `float/...`.

The packed models are read from DIR, and written there by the first run that
misses them. Run the parent first, then the change on the same DIR: both then
execute the same bytes, whereas models built on each side would differ with
any change to the float forward that calibration runs. The fake-quant clips
come from the same models. Weights and images depend on seeds only.

`diff` says, per key, whether the two dumps hold identical arrays; for float
arrays it gives the largest absolute difference. It exits 1 when an integer
array differs, when a key's shapes differ or when a key is in one dump only.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "tests")]

import oracles  # noqa: E402
from mcuq import inference, memory_model, packed_model, qat, quantizer, search  # noqa: E402
from mcuq.graph_ir import fixture_path, load_graph  # noqa: E402

MBV1_BUDGET = memory_model.MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
RANDOM_GRAPHS = 24
EVAL_BATCH = 128  # images per batch of `mcuq eval` (evaluate_accuracy's default)


def _model(models_dir: str, name: str, build):
    """The packed model stored under name, built by build() and stored if missing."""
    path = os.path.join(models_dir, name.replace("/", ".") + ".mpq")
    if not os.path.exists(path):
        packed_model.save_packed(build(), path)
    return packed_model.load_packed(path)


def _float_step(out: dict, key: str, g, weights, images, policy=None, model=None):
    """float32 logits and backward_network grads of one batch, under a policy
    with the model's clips when one is given."""
    ranges = None if model is None else model.act_clip
    logits, cache = qat.forward_network(g, weights, images, policy, ranges, train=True)
    r = np.random.default_rng(3).normal(size=logits.shape).astype(np.float32)
    out[f"float/{key}/logits"] = logits
    for name, grad in qat.backward_network(g, weights, cache, r).items():
        out[f"float/{key}/grad.{name}"] = np.asarray(grad)


def _record(out: dict, key: str, g, weights, policy, models_dir: str, images,
            calib=None, float_too=True, eval_batch=None):
    """The integer codes of key's model on images, and on eval_batch when one
    is given (keys `int/{key}/eval/...`)."""
    model = _model(models_dir, key, lambda: packed_model.build_packed_model(
        g, weights, policy, quantizer.calibrate_act_ranges(
            g, weights, images if calib is None else calib)))
    for tag, batch in ((key, images), (f"{key}/eval", eval_batch)):
        if batch is not None:
            for lid, codes in inference.run_codes_network(g, model, batch).items():
                out[f"int/{tag}/{lid}"] = codes
    if float_too:
        _float_step(out, f"{key}/fq", g, weights, images, policy, model)


def dump(path: str, models_dir: str) -> None:
    os.makedirs(models_dir, exist_ok=True)
    out: dict[str, np.ndarray] = {}
    rng = np.random.default_rng(2024)
    for name in ("toycnn_mnist", "toy_residual"):
        g = load_graph(fixture_path(name + ".json"))
        weights = qat.init_weights(g, seed=1)
        shape = g.input_layer.output_shape
        images = rng.uniform(0, 1, size=(16,) + shape).astype(np.float32)
        # toycnn_mnist also at the `mcuq eval` batch, from its own generator so
        # every other key keeps its images
        eval_batch = None if name != "toycnn_mnist" else np.random.default_rng(
            EVAL_BATCH).uniform(0, 1, size=(EVAL_BATCH,) + shape).astype(np.float32)
        _float_step(out, f"{name}/float", g, weights, images)
        _record(out, f"{name}/all8", g, weights, memory_model.all_uniform_policy(g),
                models_dir, images, float_too=False, eval_batch=eval_batch)
        _record(out, f"{name}/sub", g, weights, oracles.random_policy(rng, g, allow_fp32=False),
                models_dir, images, eval_batch=eval_batch)
    for i in range(RANDOM_GRAPHS):
        g = oracles.random_graph(rng)
        weights = qat.init_weights(g, seed=i)
        for entry in weights.values():
            entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape).astype(np.float32)
        images = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        _float_step(out, f"random{i:02d}/float", g, weights, images)
        _record(out, f"random{i:02d}", g, weights,
                oracles.random_policy(rng, g, allow_fp32=False), models_dir, images)
    g = load_graph(fixture_path("mobilenet_v1_224_100.json"))
    policy = search.base_policy(g, search.SearchConfig(budget=MBV1_BUDGET))
    policy = memory_model.enforce_ram(g, memory_model.enforce_rom(g, policy, MBV1_BUDGET),
                                      MBV1_BUDGET)
    shape = g.input_layer.output_shape
    images = rng.uniform(0, 1, size=(2,) + shape).astype(np.float32)
    calib = rng.uniform(0, 1, size=(4,) + shape).astype(np.float32)
    weights = qat.init_weights(g, seed=0)
    _record(out, "mobilenet_v1_224", g, weights, policy, models_dir,
            images, calib=calib, float_too=False)
    _record(out, "mobilenet_v1_224_all8", g, weights, memory_model.all_uniform_policy(g),
            models_dir, images, calib=calib, float_too=False)
    np.savez_compressed(path, **out)
    print(f"{path}: {len(out)} arrays")


def diff(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    only = sorted(set(a.files) ^ set(b.files))
    for key in only:
        print(f"only in {path_a if key in a.files else path_b}: {key}")
    same_int = diff_int = bad_shape = 0
    worst: dict[str, float] = {}
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            bad_shape += 1
            print(f"shapes differ: {key} {x.shape} vs {y.shape}")
        elif key.startswith("int/"):
            if np.array_equal(x, y):
                same_int += 1
            else:
                diff_int += 1
                print(f"integer codes differ: {key}")
        else:
            d = float(np.abs(x.astype(np.float64) - y).max()) if x.size else 0.0
            kind = key.split("/")[-1].split(".")[0]  # logits or grad
            worst[kind] = max(worst.get(kind, 0.0), d)
            if d:
                print(f"{key}: max |d| {d:.3g} (largest |value| {np.abs(x).max():.3g})")
    print(f"integer arrays: {same_int} identical, {diff_int} differ")
    for kind, d in sorted(worst.items()):
        print(f"float {kind}: max |d| {d:.3g}")
    return 1 if diff_int or bad_shape or only else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out")
    d.add_argument("--models", required=True, help="directory of the shared packed models")
    c = sub.add_parser("diff")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out, args.models)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
