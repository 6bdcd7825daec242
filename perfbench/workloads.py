"""The benchmark's workloads, each one closed-loop caller of ``mcuq``'s public API.

A workload object is built by its set-up (timed as ``setup_s``), then
``ops(span)`` yields one ``Op`` per timed operation, forever; the caller
decides when to stop. ``check(ops)`` verifies the outputs afterwards and
returns one list of failure messages per attempted operation.

Every call into ``mcuq`` goes through a module attribute (``search.run_episode``,
not a name imported into this module), so the tracer's rebinding sees it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple
from time import perf_counter

import numpy as np
import oracles

from mcuq import data, graph_ir, inference, memory_model, packed_model, qat, quantizer, search
from mcuq.errors import McuqError

import checks

BATCH = 128  # the `mcuq eval` batch size
# Strictly between the toy CNN's all-2-bit (3857 B / 490 B) and all-8-bit
# (12332 B / 1960 B) footprints, so both enforcers demote in most episodes.
TOY_BUDGET = memory_model.MemoryBudget(rom_bytes=7000, ram_bytes=1100)
MBV1_BUDGET = memory_model.MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
# Bit choices of the toy_eval policies: all-8, then seeded mixes down to low-bit.
TOY_EVAL_BITS = ((8,), (4, 8), (2, 4, 8), (2, 4))
ORACLE_KINDS = frozenset(graph_ir.COMPUTE_KINDS + ("relu_clip",))


class Size(NamedTuple):
    """Input sizes. ``FULL`` is what the benchmark runs; the self-tests use ``TINY``."""
    setup_repeats: int = 3
    n_train: int = 4000          # synthetic shapes, the CLI default
    n_val: int = 1500
    pretrain_epochs: int = 3     # the CLI default
    warmup: int = 8              # random episodes before the actor and DDPG updates run
    trace_episodes: int = 14
    toy_policies: int = 4
    oracle_images: int = 3       # toy images checked layer by layer, per policy
    min_random_graphs: int = 12
    enforce_pool: int = 2048     # more than a run times: every op, and so the tail, is a new policy
    trace_enforce: int = 256
    calib_images: int = 4
    mbv1_images: int = 2
    trace_images: int = 2
    exact_positions: int = 16    # sampled output positions per MobileNet layer


FULL = Size()
TINY = Size(setup_repeats=1, n_train=200, n_val=100, pretrain_epochs=1, warmup=2,
            trace_episodes=7, toy_policies=2, oracle_images=1, min_random_graphs=2,
            enforce_pool=4, trace_enforce=8, calib_images=1, mbv1_images=1,
            trace_images=1, exact_positions=2)


class Op(NamedTuple):
    seconds: float
    items: int
    out: object
    start: float  # perf_counter() when the op began


def _load(name: str):
    return graph_ir.load_graph(graph_ir.fixture_path(name))


def _pretrain(g, ds, seed: int, epochs: int):
    cfg = search.SearchConfig(budget=TOY_BUDGET)  # only for its pretraining defaults
    tc = qat.TrainConfig(epochs=epochs, batch_size=cfg.batch_size, lr=cfg.pretrain_lr,
                         seed=seed)
    weights, _ = qat.pretrain_float(g, ds, tc)
    return weights, quantizer.calibrate_act_ranges(g, weights, ds.train[0][:256])


class ToySearch:
    """``run_episode`` on the toy CNN as ``search`` runs it: QAT-bound, no integer engine."""
    name = "toy_search"
    # An episode (about 0.3 s) is long enough for the host's speed to change
    # within it, so the untraced run also times its reference after every QAT step.
    ref_inside = ("mcuq.qat", "backward_network")

    def __init__(self, seed: int, size: Size):
        self.g = _load("toycnn_mnist.json")
        ds = data.synthetic_shapes(size.n_train, size.n_val, seed=seed)
        self.cfg = search.SearchConfig(budget=TOY_BUDGET, episodes=10 ** 9,
                                       warmup=size.warmup, mode="concurrent", seed=seed,
                                       pretrain_epochs=size.pretrain_epochs)
        self.pretrained, self.ranges = _pretrain(self.g, ds, seed, size.pretrain_epochs)
        n_train = max(int(self.cfg.proxy_train_frac * ds.n_train), 1)
        n_val = max(int(self.cfg.proxy_val_frac * (len(ds) - ds.n_train)), 1)
        self.proxy = data.make_proxy(ds, n_train, n_val, seed=seed)
        self.trace_ops = size.trace_episodes

    def ops(self, span):
        agent = search.DDPGAgent(self.cfg, self.cfg.seed + 1)
        for e in itertools.count():
            with span("bench.episode"):
                t0 = perf_counter()
                rec = search.run_episode(self.g, agent, self.cfg, e, self.proxy,
                                         self.pretrained, self.ranges, anchor=(e == 0))
                dt = perf_counter() - t0
            yield Op(dt, 1, rec, t0)

    def check(self, ops):
        out = []
        for op in ops:
            rec = op.out
            bad = checks.budget_mismatches(self.g, rec.policy, self.cfg.budget,
                                           rec.rom_bytes, rec.ram_bytes)
            if not 0.0 <= rec.top1 <= 1.0:
                bad.append(f"episode {rec.episode}: top1 {rec.top1} outside [0, 1]")
            out.append(bad)
        return out

    def summary(self, ops):
        return {"search_best_top1": max(op.out.top1 for op in ops),
                "anchor_top1": ops[0].out.top1}


class ToyEval:
    """Pack seeded mixed-bit policies, then score the val split on both paths."""
    name = "toy_eval"

    def __init__(self, seed: int, size: Size):
        self.g = _load("toycnn_mnist.json")
        self.ds = data.synthetic_shapes(size.n_train, size.n_val, seed=seed)
        self.pretrained, self.ranges = _pretrain(self.g, self.ds, seed, size.pretrain_epochs)
        rng = np.random.default_rng([seed, 1])
        self.policies = []
        for k in range(size.toy_policies):
            bits = TOY_EVAL_BITS[k % len(TOY_EVAL_BITS)]
            p = memory_model.all_uniform_policy(self.g)
            for table in (p.weight_bits, p.act_bits):
                for key in table:
                    table[key] = int(rng.choice(bits))
            self.policies.append(p)
        images, labels = self.ds.val
        self.batches = [data.Dataset(images[s:s + BATCH], labels[s:s + BATCH], n_train=1)
                        for s in range(0, len(images), BATCH)]
        self.seed, self.size = seed, size
        self.trace_ops = size.toy_policies * len(self.batches)
        self.models, self.model_bytes, self.fq_top1, self.gap = {}, {}, {}, {}
        self.prep_s, self.fq_s, self.fq_images, self.random_graphs = [], 0.0, 0, 0

    def ops(self, span):
        for r in itertools.count():
            k = r % len(self.policies)
            policy = self.policies[k]
            with span("bench.pack"):
                t0 = perf_counter()
                model = packed_model.build_packed_model(self.g, self.pretrained, policy,
                                                        self.ranges)
                blob = packed_model.serialize(model)
                model = packed_model.deserialize(blob)
                self.prep_s.append(perf_counter() - t0)
            self.models[k], self.model_bytes[k] = model, len(blob)
            with span("bench.fq_eval"):
                t0 = perf_counter()
                top1, _ = inference.evaluate_accuracy(self.g, self.ds, weights=self.pretrained,
                                                      policy=policy, ranges=self.ranges,
                                                      split="val", batch=BATCH)
                self.fq_s += perf_counter() - t0
            self.fq_images += len(self.ds) - self.ds.n_train
            self.fq_top1[k] = top1
            for b, batch in enumerate(self.batches):
                with span("bench.int_batch"):
                    t0 = perf_counter()
                    _, rows = inference.evaluate_accuracy(self.g, batch, model=model,
                                                          split="all", batch=BATCH)
                    dt = perf_counter() - t0
                yield Op(dt, len(batch), (k, b, rows), t0)

    def _check_policy(self, k):
        """Reference scores for policy k, its oracle failures, and the int/fake-quant gap."""
        model, policy = self.models[k], self.policies[k]
        images, _ = self.ds.val
        scores = np.concatenate([inference.run_batch_int(self.g, model, b.images)
                                 for b in self.batches])
        rng = np.random.default_rng([self.seed, 2, k])
        pick = rng.choice(len(images), size=self.size.oracle_images, replace=False)
        picked, bad = checks.oracle_mismatches(self.g, model, images[pick])
        if not np.array_equal(picked, scores[pick]):
            bad.append(f"policy {k}: scores of oracle-checked images differ from batch run")
        logits, _ = qat.forward_network(self.g, self.pretrained, images, policy=policy,
                                        ranges=self.ranges)
        top = scores.max(axis=1, keepdims=True)
        gap = {"images": len(images),
               "argmax_agree": int((scores.argmax(1) == logits.argmax(1)).sum()),
               "tied_max": int(((scores == top).sum(axis=1) > 1).sum()),
               "distinct_int_scores": int(len(np.unique(scores)))}
        return scores, bad, gap

    def check(self, ops):
        ref = {}
        for k in sorted({op.out[0] for op in ops}):
            scores, bad, self.gap[k] = self._check_policy(k)
            ref[k] = (scores, bad)
        out = []
        for op in ops:
            k, b, rows = op.out
            scores, bad = ref[k]
            batch = self.batches[b]
            start = b * BATCH
            pred = scores[start:start + len(batch)].argmax(axis=1)
            want = [(c, int((batch.labels == c).sum()),
                     int(((batch.labels == c) & (pred == c)).sum()))
                    for c in range(int(batch.labels.max()) + 1)]
            got = [(r["class"], r["count"], r["correct"]) for r in rows]
            out.append(list(bad) + ([] if got == want else
                                    [f"policy {k} batch {b}: per-class rows disagree with scores"]))
        return out + self.random_graph_checks()

    def random_graph_checks(self):
        """Seeded random graphs x random sub-byte policies, layer by layer against the oracle,
        until all seven compute kinds have been covered."""
        rng = np.random.default_rng([self.seed, 3])
        kinds, out = set(), []
        while len(out) < self.size.min_random_graphs or (kinds < ORACLE_KINDS and len(out) < 400):
            g = oracles.random_graph(rng)
            policy = oracles.random_policy(rng, g, allow_fp32=False)
            weights = qat.init_weights(g, seed=len(out))
            images = rng.uniform(0, 1, size=(3,) + g.input_layer.output_shape).astype(np.float32)
            try:
                ranges = quantizer.calibrate_act_ranges(g, weights, images)
                model = packed_model.build_packed_model(g, weights, policy, ranges)
                _, bad = checks.oracle_mismatches(g, model, images)
            except (McuqError, ValueError) as e:
                bad = [f"random graph {len(out)}: {type(e).__name__}: {e}"]
            kinds |= {l.kind for l in g.layers} & ORACLE_KINDS
            out.append(bad)
        if kinds < ORACLE_KINDS:
            out.append([f"random graphs never produced {sorted(ORACLE_KINDS - kinds)}"])
        self.random_graphs = len(out)
        return out

    def summary(self, ops):
        images = sum(op.items for op in ops)
        correct = sum(r["correct"] for op in ops for r in op.out[2])
        return {"int_eval_top1": correct / images,
                "fq_eval_img_per_s": self.fq_images / self.fq_s if self.fq_s else None,
                "fq_top1": {str(k): v for k, v in self.fq_top1.items()},
                "pack_ms_p50": 1000 * float(np.median(self.prep_s)),
                "model_bytes": {str(k): v for k, v in self.model_bytes.items()},
                "int_vs_fq_gap": {str(k): v for k, v in self.gap.items()},
                "random_graphs_checked": self.random_graphs}


class Mbv1Enforce:
    """Greedy ROM then RAM enforcement of random 57-decision MobileNetV1 policies."""
    name = "mbv1_enforce"

    def __init__(self, seed: int, size: Size):
        self.g = _load("mobilenet_v1_224_100.json")
        cfg = search.SearchConfig(budget=MBV1_BUDGET)
        items = search.decision_items(self.g, "concurrent")
        rng = np.random.default_rng([seed, 4])
        self.pool = []
        # warm-up-style: random bits per decision
        for row in rng.choice(search.BIT_CHOICES, size=(size.enforce_pool, len(items))).tolist():
            p = search.base_policy(self.g, cfg)
            for (lid, is_weight), bits in zip(items, row):
                (p.weight_bits if is_weight else p.act_bits)[lid] = bits
            self.pool.append(p)
        self.trace_ops = size.trace_enforce

    def ops(self, span):
        g, b = self.g, MBV1_BUDGET
        for i in itertools.count():
            k = i % len(self.pool)
            with span("bench.enforce"):
                t0 = perf_counter()
                p = memory_model.enforce_rom(g, self.pool[k], b)
                p = memory_model.enforce_ram(g, p, b)
                memory_model.validate_policy(g, p)
                rep = memory_model.footprint(g, p)
                dt = perf_counter() - t0
            yield Op(dt, 1, (k, p, rep.rom_total, rep.ram_peak), t0)

    def check(self, ops):
        first, out = {}, []
        for op in ops:
            k, p, rom, ram = op.out
            key = (sorted(p.weight_bits.items()), sorted(p.act_bits.items()), rom, ram)
            if k not in first:
                first[k] = (key, checks.budget_mismatches(self.g, p, MBV1_BUDGET, rom, ram))
            want, bad = first[k]
            out.append(bad + ([] if key == want else [f"policy {k}: repeat gave another result"]))
        return out

    def summary(self, ops):
        return {"policies": len(self.pool),
                "rom_bytes_mean": float(np.mean([op.out[2] for op in ops])),
                "ram_bytes_mean": float(np.mean([op.out[3] for op in ops]))}


class Mbv1Int:
    """Batch-1 integer inference of MobileNetV1-224 under the enforced all-8 anchor policy."""
    name = "mbv1_int"
    # An image takes about a second: a reference after every layer, as in ToySearch.
    ref_inside = ("mcuq.inference", "run_codes_layer")

    def __init__(self, seed: int, size: Size):
        self.g = g = _load("mobilenet_v1_224_100.json")
        rng = np.random.default_rng([seed, 5])
        shape = g.input_layer.output_shape
        weights = qat.init_weights(g, seed=seed)
        calib = rng.uniform(0, 1, size=(size.calib_images,) + shape).astype(np.float32)
        ranges = quantizer.calibrate_act_ranges(g, weights, calib)
        policy = search.base_policy(g, search.SearchConfig(budget=MBV1_BUDGET))
        policy = memory_model.enforce_rom(g, policy, MBV1_BUDGET)
        policy = memory_model.enforce_ram(g, policy, MBV1_BUDGET)
        memory_model.validate_policy(g, policy)
        self.model = packed_model.build_packed_model(g, weights, policy, ranges)
        self.images = rng.uniform(0, 1, size=(size.mbv1_images,) + shape).astype(np.float32)
        self.seed, self.size = seed, size
        self.trace_ops = size.trace_images

    def ops(self, span):
        for i in itertools.count():
            k = i % len(self.images)
            with span("bench.image"):
                t0 = perf_counter()
                scores, top = inference.run_network_int(self.g, self.model, self.images[k])
                dt = perf_counter() - t0
            yield Op(dt, 1, (k, scores, top), t0)

    def check(self, ops):
        ref, out = {}, []
        for op in ops:
            k, scores, top = op.out
            if k not in ref:
                rng = np.random.default_rng([self.seed, 6, k])
                ref[k] = checks.sampled_mismatches(self.g, self.model, self.images[k], rng,
                                                   self.size.exact_positions)
            want, bad = ref[k]
            bad = list(bad)
            if not np.array_equal(scores, want):
                bad.append(f"image {k}: scores differ from the checked run")
            if top != int(np.argmax(scores)):
                bad.append(f"image {k}: returned class is not the argmax")
            out.append(bad)
        return out

    def summary(self, ops):
        return {"images": len(self.images)}


WORKLOADS = {w.name: w for w in (ToySearch, ToyEval, Mbv1Enforce, Mbv1Int)}

# What each workload's generic end-to-end metrics are called in its own terms.
ALIASES = {
    "toy_search": {"op_ms_p50": "episode_ms_p50", "op_ms_tail": "episode_ms_tail",
                   "items_per_s": "episodes_per_s"},
    "toy_eval": {"op_ms_p50": "int_batch_ms_p50", "op_ms_tail": "int_batch_ms_tail",
                 "items_per_s": "int_eval_img_per_s"},
    "mbv1_enforce": {"op_ms_p50": "enforce_ms_p50", "op_ms_tail": "enforce_ms_tail",
                     "items_per_s": "enforce_per_s"},
    "mbv1_int": {"op_ms_p50": "mbv1_int_ms_p50", "op_ms_tail": "mbv1_int_ms_tail",
                 "items_per_s": "mbv1_int_img_per_s"},
}
