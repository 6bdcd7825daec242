"""Lockstep A/B of two checkouts of mcuq, in one process.

    python scripts/ab.py PARENT_DIR CHANGE_DIR {qat,kernels,int,enforce} [--pairs N] [--seed 0]

Both trees' `src/mcuq` packages are imported side by side, as `mcuq_parent` and
`mcuq_change`, with one BLAS thread. The subject builds its cases from the seed
(its docstring says what they time). Each case runs once untimed on each tree,
to warm both up; then each pair times one run per tree, alternating which goes
first, so both time the same work and share the host's speed drift. Per case it
prints the median and quartiles of the per-pair time ratio change/parent, the
pairs the change won, and how far the two trees' outputs agree.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import sys
from collections.abc import Callable
from time import perf_counter
from typing import NamedTuple

TOY_EVAL_BITS = ((8,), (4, 8), (2, 4, 8), (2, 4))  # perfbench's toy_eval mixes
BATCH = 128
MBV1_BUDGET = {"rom_bytes": 2 * 2 ** 20, "ram_bytes": 512 * 2 ** 10}
POOL = 2048   # perfbench's enforce_pool
BLOCK = 256   # policies per timed enforce block
# (stage, channels, input side, stride, pointwise out channels) of the first
# depthwise/pointwise pair of each resolution stage of a MobileNetV1-0.25 at 128 px
MBV1_STAGES = ((64, 8, 64, 1, 16), (32, 16, 64, 2, 32), (16, 32, 32, 2, 64),
               (8, 64, 16, 2, 128), (4, 128, 8, 2, 256))
MBV1_BATCH = 32


class Case(NamedTuple):
    """One timed workload. run(tree, i) does pair i's work on one tree and returns its
    output; agree(outputs) reports on the [parent's, change's] outputs of every run,
    the untimed one first, and may run untimed comparisons of its own on the trees.
    prepare(tree), if given, runs untimed before each run of that tree."""
    label: str
    pairs: int  # default pair count
    run: Callable
    agree: Callable
    prepare: Callable | None = None


def _import_tree(root: str, alias: str):
    """The mcuq package of checkout root, with its submodules, imported as alias."""
    pkg = os.path.join(os.path.abspath(root), "src", "mcuq")
    init = os.path.join(pkg, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no mcuq package under {root}")
    for name in [n for n in sys.modules if n == alias or n.startswith(alias + ".")]:
        del sys.modules[name]  # an earlier main() in this process imported another tree
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[alias] = mod
    spec.loader.exec_module(mod)
    for sub in ("data", "graph_ir", "inference", "kernels", "memory_model", "packed_model",
                "qat", "quantizer", "search"):
        importlib.import_module(f"{alias}.{sub}")
    return mod


def _graph(tree, name: str):
    return tree.graph_ir.load_graph(os.path.join(tree.__path__[0], "fixtures", f"{name}.json"))


def _measure(case: Case, trees: tuple, pairs: int) -> None:
    """Time one case and print its ratio statistics and agreement report."""
    import numpy as np

    prepare, outputs = case.prepare or (lambda tree: None), []
    for t in trees:  # untimed: warms both trees up
        prepare(t)
        outputs.append([case.run(t, 0)])
    ratios = []
    for i in range(pairs):
        secs = [0.0, 0.0]
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            prepare(trees[k])
            t0 = perf_counter()
            outputs[k].append(case.run(trees[k], i))
            secs[k] = perf_counter() - t0
        ratios.append(secs[1] / secs[0])
    r = np.array(ratios)
    q1, med, q3 = np.percentile(r, [25, 50, 75])
    print(f"{case.label}: change/parent median x{med:.3f} (quartiles {q1:.3f}, {q3:.3f}); "
          f"change faster in {int((r < 1).sum())} of {len(r)}; {case.agree(outputs)}", flush=True)


def _toy_pretrained(parent, seed: int, n_val: int):
    """The parent's toy graph, seeded 800/n_val synthetic set, 1-epoch float weights, clips."""
    g, ds = _graph(parent, "toycnn_mnist"), parent.data.synthetic_shapes(800, n_val, seed=seed)
    q = parent.qat
    weights, _ = q.pretrain_float(g, ds, q.TrainConfig(epochs=1, lr=1e-2, seed=seed))
    return g, ds, weights, parent.quantizer.calibrate_act_ranges(g, weights, ds.train[0][:256])


def _grad_names(grads: dict) -> dict:
    """grads keyed "tag.id", whether a tree keys them so or as (tag, id)."""
    return {k if isinstance(k, str) else "%s.%d" % k: v for k, v in grads.items()}


def qat_cases(trees: tuple, seed: int) -> list[Case]:
    """One `train_qat` epoch of the toy CNN (40 pairs): pair i trains with seed + i
    under the i-th seeded random 2/4/8-bit policy, from the same weights and clips,
    on the parent's 800/150 synthetic set (the `toy_search` proxy's size). Agreement:
    identical top-1s, and max |d| of the logits and every gradient of one step, each
    named "tag.id"."""
    import numpy as np

    graph = {t: _graph(t, "toycnn_mnist") for t in trees}
    g, ds, weights, ranges = _toy_pretrained(trees[0], seed, 150)
    rng, drawn, bits = np.random.default_rng(seed), [], trees[0].search.BIT_CHOICES
    layers, encoded = [l.id for l in g.weighted_layers()], g.encoded_tensors()

    def policy(tree, i: int):
        while len(drawn) <= i:  # policy i is the stream's i-th draw, whatever the pair count
            drawn.append(({l: int(rng.choice(bits)) for l in layers},
                          {t: int(rng.choice(bits)) for t in encoded}))
        p = tree.memory_model.all_uniform_policy(graph[tree])
        p.weight_bits.update(drawn[i][0])
        p.act_bits.update(drawn[i][1])
        return p

    def run(tree, i: int) -> float:
        q = tree.qat
        tc = q.TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=seed + i)
        return q.train_qat(graph[tree], q.copy_weights(weights), policy(tree, i), dict(ranges),
                           ds, tc)[2]

    def step(tree):  # one training step of policy 0 on the first 32 train images
        q, (images, labels) = tree.qat, ds.train
        logits, cache = q.forward_network(graph[tree], weights, images[:32], train=True,
                                          policy=policy(tree, 0), ranges=dict(ranges))
        _, dlogits = q.softmax_xent(logits, labels[:32])
        return logits, _grad_names(q.backward_network(graph[tree], cache, dlogits))

    def agree(outputs) -> str:
        same = sum(a == b for a, b in zip(outputs[0][1:], outputs[1][1:]))
        (lp, gp), (lc, gc) = (step(t) for t in trees)
        lines = [f"top-1 identical in {same} of {len(outputs[0]) - 1}",
                 f"one step: logits max |d| {float(np.abs(lp.astype(np.float64) - lc).max()):.3g}"]
        if gp.keys() != gc.keys():
            raise SystemExit(f"error: gradient keys differ: {sorted(gp.keys() ^ gc.keys())}")
        for key in sorted(gp):
            d = float(np.abs(np.asarray(gp[key], np.float64) - gc[key]).max())
            lines.append(f"  grad {key}: max |d| {d:.3g} "
                         f"(largest |value| {float(np.abs(gp[key]).max()):.3g})")
        return "\n".join(lines)

    return [Case("train_qat epoch", 40, run, agree)]


def _relative(want, got) -> str:
    """max |d| of two arrays over want's largest |value|, in float64."""
    import numpy as np

    want = np.asarray(want, np.float64)
    return f"{float(np.abs(want - got).max() / max(float(np.abs(want).max()), 1e-300)):.3g}"


def _layer(tree, kind: str, c: int, o: int, k: int, s: int, p: int, hw: int):
    """tree's LayerSpec of one k x k linear layer of o outputs on a (c, hw, hw) input."""
    ohw = (hw + 2 * p - k) // s + 1
    return tree.graph_ir.LayerSpec(
        id=1, kind=kind, input_ids=(0,), out_channels=o, kernel_h=k, kernel_w=k, stride=s,
        padding=p, input_shape=(c, hw, hw), output_shape=(o, ohw, ohw),
        param_count=c * k * k * (1 if kind == "depthwise_conv2d" else o), bias_count=o)


def kernel_cases(trees: tuple, seed: int) -> list[Case]:
    """`linear_fwd` and `linear_bwd` (60 pairs each) of:
    - the toy CNN's four conv2d layers at batch 32 and 128, on the operands of one
      fake-quant training step that the parent's qat passes its kernels: the input,
      the weights fake-quantized under a seeded random 2/4/8-bit policy, the bias,
      dL/dz and need_dx, from the pretrained weights and clips on the first train
      images;
    - the depthwise (3x3, padding 1) and pointwise layer of each MBV1_STAGES pair
      at MBV1_BATCH, on seeded float32 operands, with need_dx.
    Each tree's backward takes the cols of its own forward. Agreement: max |d| of z,
    or of dx and dw, each over the parent's largest |value|."""
    import numpy as np

    parent, cases = trees[0], []
    g, ds, weights, ranges = _toy_pretrained(parent, seed, 150)
    rng, bits = np.random.default_rng([seed, 2]), parent.search.BIT_CHOICES
    policy = parent.memory_model.all_uniform_policy(g)
    for table in (policy.weight_bits, policy.act_bits):
        table.update({key: int(rng.choice(bits)) for key in table})
    q, calls = parent.qat, {}  # (batch, layer id) -> [x, w, b, dz, need_dx]
    fwd, bwd = q.linear_fwd, q.linear_bwd

    def spy_fwd(layer, x, w, b):
        if layer.kind == "conv2d":
            calls[len(x), layer.id] = [x, w, b]
        return fwd(layer, x, w, b)

    def spy_bwd(layer, dz, cols, w, x_shape, need_dx=True):
        if layer.kind == "conv2d":
            calls[len(dz), layer.id] += [dz, need_dx]
        return bwd(layer, dz, cols, w, x_shape, need_dx)

    q.linear_fwd, q.linear_bwd = spy_fwd, spy_bwd
    try:
        for batch in (32, 128):
            images, labels = (a[:batch] for a in ds.train)
            logits, cache = q.forward_network(g, weights, images, train=True, policy=policy,
                                              ranges=dict(ranges))
            q.backward_network(g, cache, q.softmax_xent(logits, labels)[1])
    finally:
        q.linear_fwd, q.linear_bwd = fwd, bwd

    def agree_z(outputs) -> str:
        return f"z max |d| {_relative(outputs[0][0], outputs[1][0])}"

    def agree_grads(outputs) -> str:
        (dxp, dwp, _), (dxc, dwc, _) = outputs[0][0], outputs[1][0]
        dx = "no dx" if dxp is None else f"dx max |d| {_relative(dxp, dxc)}"
        return f"{dx} and dw max |d| {_relative(dwp, dwc)}"

    def pair(label: str, layer: dict, x, w, b, dz, need_dx: bool) -> list[Case]:
        cols = {t: t.kernels.linear_fwd(layer[t], x, w, b)[1] for t in trees}

        def forward(tree, i: int):
            return tree.kernels.linear_fwd(layer[tree], x, w, b)[0]

        def backward(tree, i: int):
            return tree.kernels.linear_bwd(layer[tree], dz, cols[tree], w, x.shape, need_dx)

        return [Case(f"{label}, forward", 60, forward, agree_z),
                Case(f"{label}, backward{'' if need_dx else ' without dx'}", 60, backward,
                     agree_grads)]

    graph = {t: _graph(t, "toycnn_mnist") for t in trees}
    for (batch, lid), (x, w, b, dz, need_dx) in sorted(calls.items(), key=lambda kv: kv[0][::-1]):
        cases += pair(f"conv2d layer {lid}, batch {batch}", {t: graph[t].layer(lid) for t in trees},
                      x, w, b, dz, need_dx)
    rng = np.random.default_rng([seed, 3])
    for stage, c, hw, s, o in MBV1_STAGES:
        for kind, shape in (("depthwise_conv2d", (c, c, 3, s, 1, hw)),
                            ("pointwise_conv2d", (c, o, 1, 1, 0, (hw - 1) // s + 1))):
            layer = {t: _layer(t, kind, *shape) for t in trees}
            spec = layer[parent]
            x, w, b, dz = (rng.standard_normal(size, np.float32) for size in (
                (MBV1_BATCH,) + spec.input_shape, spec.weight_shape, (spec.out_channels,),
                (MBV1_BATCH,) + spec.output_shape))
            cases += pair(f"MobileNetV1-0.25 stage {stage} {kind}, batch {MBV1_BATCH}", layer,
                          x, w, b, dz, True)
    return cases


def _int_case(trees: tuple, label: str, pairs: int, name: str, blobs: list, images,
              cold: bool = False) -> Case:
    """run_batch_int of the model in blobs[0] or, cold, of a model freshly
    deserialized before each run, from the blobs in turn, timing its first batch."""
    import numpy as np

    graph = {t: _graph(t, name) for t in trees}
    model, loads = {}, {t: 0 for t in trees}

    def load(tree):
        model[tree] = tree.packed_model.deserialize(blobs[loads[tree] % len(blobs)])
        loads[tree] += 1

    for t in trees:
        load(t)

    def run(tree, i: int):
        return tree.inference.run_batch_int(graph[tree], model[tree], images)

    def agree(outputs) -> str:
        codes = [dict(t.inference.run_codes_network(graph[t], model[t], images)) for t in trees]
        keys = codes[0].keys() | codes[1].keys()
        same = sum(np.array_equal(codes[0].get(k), codes[1].get(k)) for k in keys)
        return f"codes identical on {same} of {len(keys)} layers"

    return Case(f"{label} (batch {len(images)})", pairs, run, agree, load if cold else None)


def int_cases(trees: tuple, seed: int) -> list[Case]:
    """`run_batch_int` on models the parent builds and serializes, so both trees run
    the same bytes: the toy CNN, pretrained as for qat on an 800/256 set, under
    perfbench's four `toy_eval` mixes at batch 128 (60 pairs each); the first batch
    of a freshly deserialized toy model, the four mixes in turn (60 pairs), which is
    what `toy_eval` times once per model built; and MobileNetV1 with seeded He
    weights under the enforced all-8 anchor at batch 1 (24 pairs). Agreement: the
    layers whose `run_codes_network` codes are identical."""
    import numpy as np

    parent, cases, blobs = trees[0], [], []
    pm, mm = parent.packed_model, parent.memory_model
    g, ds, weights, ranges = _toy_pretrained(parent, seed, BATCH * 2)
    rng = np.random.default_rng([seed, 1])  # perfbench's toy_eval policy stream
    for bits in TOY_EVAL_BITS:
        p = mm.all_uniform_policy(g)
        for table in (p.weight_bits, p.act_bits):
            table.update({key: int(rng.choice(bits)) for key in table})
        blobs.append(pm.serialize(pm.build_packed_model(g, weights, p, ranges)))
        cases.append(_int_case(trees, "toy " + "/".join(map(str, bits)), 60, "toycnn_mnist",
                               blobs[-1:], ds.val[0][:BATCH]))
    cases.append(_int_case(trees, "toy, first batch of a fresh model", 60, "toycnn_mnist",
                           blobs, ds.val[0][:BATCH], cold=True))

    g, rng = _graph(parent, "mobilenet_v1_224_100"), np.random.default_rng([seed, 5])
    shape, weights = g.input_layer.output_shape, parent.qat.init_weights(g, seed=seed)
    calib = rng.uniform(0, 1, size=(2,) + shape).astype(np.float32)
    ranges = parent.quantizer.calibrate_act_ranges(g, weights, calib)
    budget = mm.MemoryBudget(**MBV1_BUDGET)
    p = parent.search.base_policy(g, parent.search.SearchConfig(budget=budget))
    p = mm.enforce_ram(g, mm.enforce_rom(g, p, budget), budget)
    blob = pm.serialize(pm.build_packed_model(g, weights, p, ranges))
    image = rng.uniform(0, 1, size=(1,) + shape).astype(np.float32)
    cases.append(_int_case(trees, "mbv1 anchor", 24, "mobilenet_v1_224_100", [blob], image))
    return cases


def enforce_cases(trees: tuple, seed: int) -> list[Case]:
    """perfbench's `mbv1_enforce` op (`enforce_rom`, `enforce_ram`, `validate_policy`,
    `footprint`) on its seeded pool of 2048 MobileNetV1 policies at 2 MB / 512 kB,
    one 256-policy block per pair (40 pairs). Agreement: the pool policies whose
    enforced bits or footprint differ."""
    import numpy as np

    graph = {t: _graph(t, "mobilenet_v1_224_100") for t in trees}
    budget = {t: t.memory_model.MemoryBudget(**MBV1_BUDGET) for t in trees}
    items = {t: t.search.decision_items(graph[t], "concurrent") for t in trees}
    if items[trees[0]] != items[trees[1]]:
        raise SystemExit("error: the two trees make different search decisions")
    rng = np.random.default_rng([seed, 4])  # the stream perfbench's Mbv1Enforce draws
    rows = rng.choice(trees[0].search.BIT_CHOICES, size=(POOL, len(items[trees[0]]))).tolist()

    def policy(tree, row: list):  # the search's base policy with each decision set from row
        p = tree.search.base_policy(graph[tree], tree.search.SearchConfig(budget=budget[tree]))
        for (lid, is_weight), bits in zip(items[tree], row):
            (p.weight_bits if is_weight else p.act_bits)[lid] = bits
        return p

    pools = {t: [policy(t, row) for row in rows] for t in trees}

    def enforce(tree, p):  # the perfbench op
        mm, g, b = tree.memory_model, graph[tree], budget[tree]
        q = mm.enforce_ram(g, mm.enforce_rom(g, p, b), b)
        mm.validate_policy(g, q)
        return q, mm.footprint(g, q)

    def run(tree, i: int) -> None:
        k = i * BLOCK % POOL
        for p in pools[tree][k:k + BLOCK]:
            enforce(tree, p)

    def outcome(tree, p) -> tuple:
        q, rep = enforce(tree, p)
        return sorted(q.weight_bits.items()), sorted(q.act_bits.items()), dataclasses.astuple(rep)

    def agree(outputs) -> str:
        differ = sum(outcome(trees[0], p) != outcome(trees[1], q)
                     for p, q in zip(pools[trees[0]], pools[trees[1]]))
        return f"enforced bits or footprint differ in {differ} of {POOL} policies"

    return [Case(f"enforcement, {BLOCK}-policy blocks", 40, run, agree)]


SUBJECTS = {"qat": qat_cases, "kernels": kernel_cases, "int": int_cases,
            "enforce": enforce_cases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("subject", choices=SUBJECTS)
    ap.add_argument("--pairs", type=int, help="pairs per case (default: each case's own)")
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args(argv)
    if a.pairs is not None and a.pairs < 1:
        ap.error("--pairs must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read by the BLAS when numpy loads
    trees = (_import_tree(a.parent, "mcuq_parent"), _import_tree(a.change, "mcuq_change"))
    for case in SUBJECTS[a.subject](trees, a.seed):
        _measure(case, trees, a.pairs or case.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
