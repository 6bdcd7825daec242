"""Lockstep A/B of the QAT engine of two checkouts, in one process.

    python scripts/qat_ab.py PARENT_DIR CHANGE_DIR [--pairs 40] [--seed 0]

Both trees' `src/mcuq` packages are imported side by side, under the names
`mcuq_parent` and `mcuq_change`, with one BLAS thread. The script float-
pretrains the toy CNN (`toycnn_mnist`) once, with the parent, on a seeded
800/150 synthetic set (the `toy_search` proxy's size) and calibrates its
clips. Then each pair runs one epoch of `train_qat` under the same seeded
random 2/4/8-bit policy, from the same weights and clips, on each tree,
alternating which tree goes first. Both trees therefore time the same
episodes, whatever their float rounding does to later trajectories, and
share the host's speed drift.

It prints the median and quartiles of the per-pair time ratio change/parent,
the number of pairs the change won, and how many pairs' top-1s agree. Then
it runs one training step (forward, loss, backward) of the first policy on
both trees and prints the largest |difference| of the logits and of every
gradient. Both trees must have this checkout's API: `train_qat` takes a
`dict[int, float]` of clips.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from time import perf_counter

BITS = (2, 4, 8)


def _import_tree(root: str, alias: str):
    """The mcuq package of checkout root, imported as the module alias."""
    pkg = os.path.join(os.path.abspath(root), "src", "mcuq")
    init = os.path.join(pkg, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no mcuq package under {root}")
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[alias] = mod
    spec.loader.exec_module(mod)
    for sub in ("data", "graph_ir", "memory_model", "qat", "quantizer"):
        importlib.import_module(f"{alias}.{sub}")
    return mod


class Tree:
    """One checkout's modules, graph and dataset."""

    def __init__(self, root: str, alias: str, seed: int):
        self.name = alias
        self.m = _import_tree(root, alias)
        fixture = os.path.join(root, "src", "mcuq", "fixtures", "toycnn_mnist.json")
        self.g = self.m.graph_ir.load_graph(fixture)
        self.ds = self.m.data.synthetic_shapes(800, 150, seed=seed)

    def policy(self, bits: dict):
        p = self.m.memory_model.all_uniform_policy(self.g)
        p.weight_bits.update(bits["w"])
        p.act_bits.update(bits["a"])
        return p

    def qat(self, weights: dict, ranges: dict, bits: dict, seed: int) -> tuple[float, float]:
        """(seconds, val top-1) of one train_qat epoch on copies of weights and ranges."""
        q = self.m.qat
        tc = q.TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=seed)
        w, r, p = q.copy_weights(weights), dict(ranges), self.policy(bits)
        t0 = perf_counter()
        _, _, top1 = q.train_qat(self.g, w, p, r, self.ds, tc)
        return perf_counter() - t0, top1

    def step(self, weights: dict, ranges: dict, bits: dict):
        """(logits, grads) of one training step on the first 32 train images."""
        q = self.m.qat
        images, labels = self.ds.train
        logits, cache = q.forward_network(self.g, weights, images[:32], policy=self.policy(bits),
                                          ranges=dict(ranges), train=True)
        _, dlogits = q.softmax_xent(logits, labels[:32])
        return logits, q.backward_network(self.g, cache, dlogits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read by the BLAS when numpy loads
    import numpy as np

    parent = Tree(a.parent, "mcuq_parent", a.seed)
    change = Tree(a.change, "mcuq_change", a.seed)
    if not all(np.array_equal(x, y) for x, y in zip(parent.ds.train, change.ds.train)):
        raise SystemExit("error: the two trees make different datasets")
    pq = parent.m.qat
    weights, _ = pq.pretrain_float(parent.g, parent.ds,
                                   pq.TrainConfig(epochs=1, lr=1e-2, seed=a.seed))
    ranges = parent.m.quantizer.calibrate_act_ranges(parent.g, weights, parent.ds.train[0][:256])
    rng = np.random.default_rng(a.seed)
    encoded = parent.g.encoded_tensors()
    layers = [l.id for l in parent.g.weighted_layers()]
    policies = [{"w": {i: int(rng.choice(BITS)) for i in layers},
                 "a": {t: int(rng.choice(BITS)) for t in encoded}} for _ in range(a.pairs)]

    change.qat(weights, ranges, policies[0], a.seed)  # warm both trees' first calls
    parent.qat(weights, ranges, policies[0], a.seed)
    ratios, same_top1 = [], 0
    for i, bits in enumerate(policies):
        seed = a.seed + i
        order = (parent, change) if i % 2 == 0 else (change, parent)
        res = {t.name: t.qat(weights, ranges, bits, seed) for t in order}
        (t_par, top_par), (t_chg, top_chg) = res[parent.name], res[change.name]
        ratios.append(t_chg / t_par)
        same_top1 += top_par == top_chg
    r = np.array(ratios)
    q1, med, q3 = np.percentile(r, [25, 50, 75])
    print(f"train_qat time change/parent over {len(r)} pairs: median x{med:.3f} "
          f"(quartiles {q1:.3f}, {q3:.3f}); change faster in {int((r < 1).sum())} of {len(r)}; "
          f"top-1 identical in {same_top1} of {len(r)}")

    lp, gp = parent.step(weights, ranges, policies[0])
    lc, gc = change.step(weights, ranges, policies[0])
    print(f"one step: logits max |d| {float(np.abs(lp.astype(np.float64) - lc).max()):.3g}")
    if gp.keys() != gc.keys():
        raise SystemExit(f"error: gradient keys differ: {sorted(gp.keys() ^ gc.keys())}")
    for key in sorted(gp):
        d = float(np.abs(np.asarray(gp[key], np.float64) - gc[key]).max())
        print(f"  grad {key}: max |d| {d:.3g} (largest |value| {float(np.abs(gp[key]).max()):.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
