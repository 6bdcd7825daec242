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
  and 29), which check_model_matches's per-channel accumulator bound proves
  float32, as it does every layer of the anchor. No model here runs the
  engine's float64 kernel path. Only tests/test_inference.py runs it, on
  layers built past the float32 bound:
  test_same_sign_sums_near_the_float32_bound_are_exact (fan-in 576),
  test_int32_check_is_per_channel (fan-in 66311) and, inside a network walk,
  test_float64_kernel_inside_a_network_walk (MobileNetV1's classifier,
  fan-in 1024);
- the float32 logits and every backward_network gradient of the toy graphs and
  the random graphs, in float mode and under the sub-byte policy, keys `float/...`;
- two seeded searches of toycnn_mnist (SEARCHES: independent mode seed 0 and
  concurrent mode seed 3, 12 episodes with 4 warm-up, a 7000/1100 B budget,
  synthetic_shapes(400, 150, seed=5), 1 pretrain epoch): the history CSV,
  the best policy's JSON and the log lines as bytes, keys `search/...`;
- enforce_rom then enforce_ram of ENFORCE_POLICIES seeded random
  MobileNetV1 policies at 2 MB / 512 kB, and of ENFORCE_GRAPHS cases of
  oracles.random_enforce_case (random graphs under random policies, some
  entries frozen, and budgets from below their floor to their own
  footprint): the enforced weight and activation bits
  and footprint's per-step RAM, or the InfeasibleBudgetError's message as
  bytes where one is raised, keys `enforce/...`;
- the clips of quantizer.calibrate_act_ranges, one key per encoded tensor:
  toycnn_mnist pretrained as in each of SEARCHES, on the first 256 and on
  all 400 of its train images; toy_residual on CALIB_RESIDUAL uniform images
  and each random graph on CALIB_RANDOM, each set from its own generator so
  no other key changes its inputs; MobileNetV1 on the 4 images its two models
  calibrate on, keys `clip/...`. Every set but MobileNetV1's is larger than
  one 128-image batch;
- AGENT_ROUNDS seeded rounds of one search.DDPGAgent on synthetic
  transitions, each a buffer.push, an update and an act past warm-up (the
  two searches above reach update past its REPLAY_BATCH guard only 9
  times): every continuous action and, after the last round, every actor
  and critic parameter, keys `agent/...`;
- the per-class (count, correct) rows of inference.evaluate_accuracy for
  toycnn_mnist's two models on the SCORE_VAL val images of a seeded
  synthetic_shapes set (two 128-image batches and a last batch of 44): the
  fake-quant model under the model's clips and the packed model, keys
  `score/toycnn_mnist/{all8,sub}/{fq,int}`. qat.evaluate, which scores
  training and search, counts through the same function;
- the exception class name, or `ok`, of each artifact of a fixed corpus of
  malformed toycnn_mnist policies (memory_model.validate_policy), checkpoint
  weights and clips (qat.check_checkpoint_matches) and packed models
  (packed_model.check_model_matches), each beside a valid one, keys
  `reject/...`. No message is recorded, so a reworded one keeps the key.

The packed models are read from DIR, and written there by the first run that
misses them. Run the parent first, then the change on the same DIR: both then
execute the same bytes, whereas models built on each side would differ with
any change to the float forward that calibration runs. The fake-quant clips
come from the same models. Weights and images depend on seeds only. A change
that bumps the container's version cannot read the parent's models: give
each side its own DIR, which compares the same models only while
build_packed_model and calibration are unchanged.

`diff` says, per key, whether the two dumps hold identical arrays. For an
integer array that differs it gives how many elements differ out of how many,
and for integer and float arrays the largest absolute difference. It exits 1
when an integer array, a clip, a search, enforcement, agent, score or reject
record differs, when a key's shapes differ or when a key is in one dump only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "tests")]

import oracles  # noqa: E402
from mcuq import data, inference, memory_model, packed_model, qat, quantizer, search  # noqa: E402
from mcuq.errors import InfeasibleBudgetError  # noqa: E402
from mcuq.graph_ir import fixture_path, load_graph  # noqa: E402

MBV1_BUDGET = memory_model.MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
RANDOM_GRAPHS = 24
EVAL_BATCH = 128  # images per batch of `mcuq eval` (evaluate_accuracy's default)
SEARCHES = (("independent", 0), ("concurrent", 3))  # (mode, seed)
SEARCH_BUDGET = memory_model.MemoryBudget(rom_bytes=7000, ram_bytes=1100)
ENFORCE_POLICIES = 64
ENFORCE_GRAPHS = 24
SCORE_VAL = 300  # val images scored per model: batches of 128, 128 and 44
CALIB_SEARCH = (256, 400)  # toycnn_mnist train images calibrated on after each search
CALIB_RESIDUAL = 300  # toy_residual calibration images
CALIB_RANDOM = 130  # calibration images per random graph
AGENT_ROUNDS = 300  # push, update and act rounds of the agent record
EXACT = ("int/", "clip/", "search/", "enforce/", "agent/", "score/", "reject/")  # diff: exact keys


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
    for (tag, i), grad in qat.backward_network(g, cache, r).items():
        out[f"float/{key}/grad.{tag}.{i}"] = np.asarray(grad)


def _record(out: dict, key: str, g, weights, policy, models_dir: str, images,
            calib=None, float_too=True, eval_batch=None, score=None):
    """The integer codes of key's model on images, and on eval_batch when one
    is given (keys `int/{key}/eval/...`); with a score dataset, the per-class
    rows of both models' top-1 on its val split (keys `score/{key}/...`)."""
    model = _model(models_dir, key, lambda: packed_model.build_packed_model(
        g, weights, policy, quantizer.calibrate_act_ranges(
            g, weights, images if calib is None else calib)))
    for tag, batch in ((key, images), (f"{key}/eval", eval_batch)):
        if batch is not None:
            for lid, codes in inference.run_codes_network(g, model, batch):
                out[f"int/{tag}/{lid}"] = codes
    if float_too:
        _float_step(out, f"{key}/fq", g, weights, images, policy, model)
    if score is not None:
        for tag, kw in (("fq", dict(weights=weights, policy=policy, ranges=model.act_clip)),
                        ("int", dict(model=model))):
            _, rows = inference.evaluate_accuracy(g, score, **kw)
            out[f"score/{key}/{tag}"] = np.array([(r["count"], r["correct"]) for r in rows])


def _record_clips(out: dict, key: str, g, weights, images) -> None:
    """calibrate_act_ranges of images, one key `clip/{key}/{tensor id}` a clip."""
    for t, clip in quantizer.calibrate_act_ranges(g, weights, images).items():
        out[f"clip/{key}/{t}"] = np.array([clip])


def _record_searches(out: dict) -> None:
    """History CSV, best policy JSON and log lines of each of SEARCHES, as bytes,
    and the clips of its pretrained weights on CALIB_SEARCH train images."""
    g = load_graph(fixture_path("toycnn_mnist.json"))
    dataset = data.synthetic_shapes(400, 150, seed=5)
    for mode, seed in SEARCHES:
        cfg = search.SearchConfig(budget=SEARCH_BUDGET, episodes=12, warmup=4, mode=mode,
                                  seed=seed, pretrain_epochs=1)
        lines: list[str] = []
        result = search.search(g, cfg, dataset, log=lines.append)
        for name, text in (("history_csv", search.history_csv(result.history, result.is_best)),
                           ("policy", result.best_policy.to_json()),
                           ("log", "\n".join(lines))):
            out[f"search/{mode}/{name}"] = np.frombuffer(text.encode(), np.uint8)
        for n in CALIB_SEARCH:
            _record_clips(out, f"toycnn_mnist/{mode}/{n}", g, result.pretrained,
                          dataset.train[0][:n])


def _enforced(out: dict, key: str, g, policy, budget) -> None:
    """The enforced bits as (id, bits) rows and the per-step RAM, or the error message."""
    try:
        q = memory_model.enforce_ram(g, memory_model.enforce_rom(g, policy, budget), budget)
    except InfeasibleBudgetError as e:
        out[f"enforce/{key}/infeasible"] = np.frombuffer(str(e).encode(), np.uint8)
        return
    for name, bits in (("weight_bits", q.weight_bits), ("act_bits", q.act_bits)):
        out[f"enforce/{key}/{name}"] = np.array(sorted(bits.items()), np.int64).reshape(-1, 2)
    out[f"enforce/{key}/ram"] = np.array(memory_model.footprint(g, q).per_step_ram, np.int64)


def _record_enforcement(out: dict) -> None:
    """Enforced policies of MobileNetV1 and of random graphs, each from its own generator."""
    g = load_graph(fixture_path("mobilenet_v1_224_100.json"))
    cfg = search.SearchConfig(budget=MBV1_BUDGET)
    items = search.decision_items(g, "concurrent")
    rows = np.random.default_rng(ENFORCE_POLICIES).choice(
        search.BIT_CHOICES, size=(ENFORCE_POLICIES, len(items))).tolist()
    for i, row in enumerate(rows):
        p = search.base_policy(g, cfg)
        for (lid, is_weight), bits in zip(items, row):
            (p.weight_bits if is_weight else p.act_bits)[lid] = bits
        _enforced(out, f"mobilenet_v1_224/{i:02d}", g, p, MBV1_BUDGET)
    rng = np.random.default_rng(ENFORCE_GRAPHS)
    for i in range(ENFORCE_GRAPHS):
        g, p, _, budget = oracles.random_enforce_case(rng)
        _enforced(out, f"random{i:02d}", g, p, budget)


def _record_agent(out: dict) -> None:
    """AGENT_ROUNDS rounds of push, update and act of a DDPGAgent seeded 7 on
    transitions from its own generator: the actions and the final parameters."""
    cfg = search.SearchConfig(budget=SEARCH_BUDGET, episodes=AGENT_ROUNDS, warmup=1)
    agent, rng = search.DDPGAgent(cfg, seed=7), np.random.default_rng(AGENT_ROUNDS)
    actions = []
    for episode in range(1, AGENT_ROUNDS + 1):
        obs = rng.uniform(0, 1, size=search.OBS_DIM)
        agent.buffer.push(obs, rng.uniform(), rng.uniform())
        agent.update()
        actions.append(agent.act(obs, episode)[1])
    out["agent/actions"] = np.array(actions)
    for name, net in (("actor", agent.actor), ("critic", agent.critic)):
        for key, value in net.params.items():
            out[f"agent/{name}/{key}"] = value


def _rejections(g) -> dict:
    """A fixed corpus of artifacts for g, toycnn_mnist, by name: each a thunk
    that checks one, spoilt from a valid policy, checkpoint or model."""
    weights, ranges = qat.init_weights(g, seed=0), {t: 1.0 for t in g.encoded_tensors()}
    model = packed_model.build_packed_model(g, weights, memory_model.all_uniform_policy(g),
                                            ranges)

    def policy(spoil=lambda p: None):
        p = memory_model.all_uniform_policy(g)
        spoil(p)
        return lambda: memory_model.validate_policy(g, p)

    def checkpoint(spoil=lambda w, r: None):
        w, r = qat.copy_weights(weights), dict(ranges)
        spoil(w, r)
        return lambda: qat.check_checkpoint_matches(g, w, r)

    def packed(graph=g, **tables):
        return lambda: packed_model.check_model_matches(graph, replace(model, **tables))

    def drop(table, key):
        return {k: v for k, v in table.items() if k != key}

    def records(lid, rec=None, **kw):
        return {**model.layers, lid: replace(rec or model.layers[lid], **kw)}

    return {
        "policy/ok": policy(),
        "policy/missing_weight_3": policy(lambda p: p.weight_bits.pop(3)),
        "policy/missing_act_2": policy(lambda p: p.act_bits.pop(2)),
        "policy/weight_bits_pool_5": policy(lambda p: p.weight_bits.update({5: 8})),
        "policy/weight_bits_99": policy(lambda p: p.weight_bits.update({99: 8})),
        "policy/act_bits_logits_6": policy(lambda p: p.act_bits.update({6: 2})),
        "policy/frozen_weight_99": policy(lambda p: p.frozen_weights.add(99)),
        "policy/frozen_act_logits_6": policy(lambda p: p.frozen_acts.add(6)),
        "policy/bits_3_tensor_1": policy(lambda p: p.act_bits.update({1: 3})),
        "checkpoint/ok": checkpoint(),
        "checkpoint/extra_layer_5": checkpoint(lambda w, r: w.update({5: w[1]})),
        "checkpoint/missing_layer_3": checkpoint(lambda w, r: w.pop(3)),
        "checkpoint/missing_b_1": checkpoint(lambda w, r: w[1].pop("b")),
        "checkpoint/w_2_shape": checkpoint(lambda w, r: w[2].update(w=w[2]["w"][:, :1])),
        "checkpoint/clip_logits_6": checkpoint(lambda w, r: r.update({6: 1.0})),
        "model/ok": packed(),
        "model/dropped_encoding_2": packed(act_bits=drop(model.act_bits, 2),
                                           act_clip=drop(model.act_clip, 2)),
        "model/extra_encoding_99": packed(act_bits={**model.act_bits, 99: 8},
                                          act_clip={**model.act_clip, 99: 1.0}),
        "model/dropped_record_5": packed(layers=drop(model.layers, 5)),
        "model/extra_record_77": packed(layers=records(77, model.layers[5], layer_id=77)),
        "model/out_bits_2": packed(layers=records(2, out_bits=32)),
        "model/out_bits_logits_6": packed(layers=records(6, out_bits=8)),
        "model/toy_residual": packed(load_graph(fixture_path("toy_residual.json"))),
    }


def _record_rejections(out: dict) -> None:
    """Each artifact of _rejections: the class name of what checking it raises, or ok."""
    for name, check in _rejections(load_graph(fixture_path("toycnn_mnist.json"))).items():
        try:
            check()
            verdict = "ok"
        except Exception as e:  # noqa: BLE001 -- the class is the record
            verdict = type(e).__name__
        out[f"reject/{name}"] = np.frombuffer(verdict.encode(), np.uint8)


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
        score = None if name != "toycnn_mnist" else data.synthetic_shapes(
            1, SCORE_VAL, seed=SCORE_VAL)
        _float_step(out, f"{name}/float", g, weights, images)
        _record(out, f"{name}/all8", g, weights, memory_model.all_uniform_policy(g),
                models_dir, images, float_too=False, eval_batch=eval_batch, score=score)
        _record(out, f"{name}/sub", g, weights, oracles.random_policy(rng, g, allow_fp32=False),
                models_dir, images, eval_batch=eval_batch, score=score)
        if name == "toy_residual":
            _record_clips(out, name, g, weights, np.random.default_rng(CALIB_RESIDUAL).uniform(
                0, 1, size=(CALIB_RESIDUAL,) + shape).astype(np.float32))
    calib_rng = np.random.default_rng(CALIB_RANDOM)
    for i in range(RANDOM_GRAPHS):
        g = oracles.random_graph(rng)
        weights = qat.init_weights(g, seed=i)
        for entry in weights.values():
            entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape).astype(np.float32)
        images = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        _float_step(out, f"random{i:02d}/float", g, weights, images)
        _record(out, f"random{i:02d}", g, weights,
                oracles.random_policy(rng, g, allow_fp32=False), models_dir, images)
        _record_clips(out, f"random{i:02d}", g, weights, calib_rng.uniform(
            0, 1, size=(CALIB_RANDOM,) + g.input_layer.output_shape).astype(np.float32))
    g = load_graph(fixture_path("mobilenet_v1_224_100.json"))
    policy = search.base_policy(g, search.SearchConfig(budget=MBV1_BUDGET))
    policy = memory_model.enforce_ram(g, memory_model.enforce_rom(g, policy, MBV1_BUDGET),
                                      MBV1_BUDGET)
    shape = g.input_layer.output_shape
    images = rng.uniform(0, 1, size=(2,) + shape).astype(np.float32)
    calib = rng.uniform(0, 1, size=(4,) + shape).astype(np.float32)
    weights = qat.init_weights(g, seed=0)
    _record_clips(out, "mobilenet_v1_224", g, weights, calib)
    _record(out, "mobilenet_v1_224", g, weights, policy, models_dir,
            images, calib=calib, float_too=False)
    _record(out, "mobilenet_v1_224_all8", g, weights, memory_model.all_uniform_policy(g),
            models_dir, images, calib=calib, float_too=False)
    _record_searches(out)
    _record_enforcement(out)
    _record_agent(out)
    _record_rejections(out)
    np.savez_compressed(path, **out)
    print(f"{path}: {len(out)} arrays")


def diff(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    only = sorted(set(a.files) ^ set(b.files))
    for key in only:
        print(f"only in {path_a if key in a.files else path_b}: {key}")
    same_int = diff_int = bad_shape = 0  # the EXACT records
    worst: dict[str, float] = {}
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            bad_shape += 1
            print(f"shapes differ: {key} {x.shape} vs {y.shape}")
        elif key.startswith(EXACT):
            if np.array_equal(x, y):
                same_int += 1
            else:
                diff_int += 1
                if key.startswith("int/"):
                    d = np.abs(x.astype(np.int64) - y)
                    print(f"integer codes differ: {key}: {np.count_nonzero(d)} of {d.size}, "
                          f"max |d| {d.max()}")
                else:
                    print(f"{key.split('/')[0]} record differs: {key}")
        else:
            d = float(np.abs(x.astype(np.float64) - y).max()) if x.size else 0.0
            kind = key.split("/")[-1].split(".")[0]  # logits or grad
            worst[kind] = max(worst.get(kind, 0.0), d)
            if d:
                print(f"{key}: max |d| {d:.3g} (largest |value| {np.abs(x).max():.3g})")
    print(f"integer arrays, clip, search, enforcement, agent, score and reject records: "
          f"{same_int} identical, {diff_int} differ")
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
