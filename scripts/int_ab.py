"""Lockstep A/B of the integer engine of two checkouts, in one process.

    python scripts/int_ab.py PARENT_DIR CHANGE_DIR [--pairs 60] [--mbv1-pairs 24] [--seed 0]

Both trees' `src/mcuq` packages are imported side by side, under the names
`mcuq_parent` and `mcuq_change` (with `qat_ab._import_tree`), with one BLAS
thread. The parent builds every packed model and both trees run the same
serialized bytes:
- the toy CNN (`toycnn_mnist`), float-pretrained for one epoch on a seeded
  800/256 synthetic set, under perfbench's four `toy_eval` policies (all-8,
  then seeded 4/8, 2/4/8 and 2/4 mixes), each on one batch of 128 images;
- MobileNetV1-224 with seeded He weights, under perfbench's `mbv1_int`
  policy (the enforced all-8 anchor at 2 MB / 512 kB), on one image.

Each pair times one `run_batch_int` call per tree, alternating which tree
goes first. Per workload the script prints the median and quartiles of the
per-pair time ratio change/parent, the number of pairs the change won, and
how many layers' integer codes (from `run_codes_network`) are identical.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from qat_ab import _import_tree  # noqa: E402

TOY_EVAL_BITS = ((8,), (4, 8), (2, 4, 8), (2, 4))  # perfbench's toy_eval mixes
BATCH = 128
MBV1_BUDGET = (2 * 2 ** 20, 512 * 2 ** 10)  # ROM, RAM bytes


class Tree:
    """One checkout's modules and fixtures."""

    def __init__(self, root: str, alias: str):
        self.name = alias
        self.m = _import_tree(root, alias)
        for sub in ("inference", "packed_model", "search"):
            setattr(self, sub, importlib.import_module(f"{alias}.{sub}"))
        fixtures = os.path.join(root, "src", "mcuq", "fixtures")
        self.graphs = {name: self.m.graph_ir.load_graph(os.path.join(fixtures, f"{name}.json"))
                       for name in ("toycnn_mnist", "mobilenet_v1_224_100")}

    def run(self, graph: str, model, images) -> float:
        t0 = perf_counter()
        self.inference.run_batch_int(self.graphs[graph], model, images)
        return perf_counter() - t0


def _models(tree: Tree, seed: int, np):
    """(label, graph name, serialized model, images) per workload, built by tree."""
    m, out = tree.m, []
    g = tree.graphs["toycnn_mnist"]
    ds = m.data.synthetic_shapes(800, BATCH * 2, seed=seed)
    weights, _ = m.qat.pretrain_float(g, ds, m.qat.TrainConfig(epochs=1, lr=1e-2, seed=seed))
    ranges = m.quantizer.calibrate_act_ranges(g, weights, ds.train[0][:256])
    images = ds.val[0][:BATCH]
    rng = np.random.default_rng([seed, 1])  # perfbench's policy stream
    for bits in TOY_EVAL_BITS:
        p = m.memory_model.all_uniform_policy(g)
        for table in (p.weight_bits, p.act_bits):
            for key in table:
                table[key] = int(rng.choice(bits))
        model = tree.packed_model.build_packed_model(g, weights, p, ranges)
        label = "toy " + "/".join(map(str, bits))
        out.append((label, "toycnn_mnist", tree.packed_model.serialize(model), images))

    g = tree.graphs["mobilenet_v1_224_100"]
    mm, rng = m.memory_model, np.random.default_rng([seed, 5])
    shape = g.input_layer.output_shape
    weights = m.qat.init_weights(g, seed=seed)
    calib = rng.uniform(0, 1, size=(2,) + shape).astype(np.float32)
    ranges = m.quantizer.calibrate_act_ranges(g, weights, calib)
    budget = mm.MemoryBudget(rom_bytes=MBV1_BUDGET[0], ram_bytes=MBV1_BUDGET[1])
    p = tree.search.base_policy(g, tree.search.SearchConfig(budget=budget))
    p = mm.enforce_ram(g, mm.enforce_rom(g, p, budget), budget)
    model = tree.packed_model.build_packed_model(g, weights, p, ranges)
    image = rng.uniform(0, 1, size=(1,) + shape).astype(np.float32)
    out.append(("mbv1 anchor", "mobilenet_v1_224_100", tree.packed_model.serialize(model), image))
    return out


def _same_codes(trees: list, graph: str, models: dict, images, np) -> tuple[int, int]:
    """(layers whose codes are identical on both trees, layers)."""
    codes = [t.inference.run_codes_network(t.graphs[graph], models[t.name], images)
             for t in trees]
    if codes[0].keys() != codes[1].keys():
        return 0, len(codes[0].keys() | codes[1].keys())
    return sum(np.array_equal(codes[0][k], codes[1][k]) for k in codes[0]), len(codes[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=60, help="pairs per toy policy")
    ap.add_argument("--mbv1-pairs", type=int, default=24)
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read by the BLAS when numpy loads
    import numpy as np

    parent = Tree(a.parent, "mcuq_parent")
    change = Tree(a.change, "mcuq_change")
    for label, graph, blob, images in _models(parent, a.seed, np):
        pairs = a.mbv1_pairs if graph.startswith("mobilenet") else a.pairs
        models = {t.name: t.packed_model.deserialize(blob) for t in (parent, change)}
        same, layers = _same_codes([parent, change], graph, models, images, np)  # also warms up
        ratios = []
        for i in range(pairs):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            res = {t.name: t.run(graph, models[t.name], images) for t in order}
            ratios.append(res[change.name] / res[parent.name])
        r = np.array(ratios)
        q1, med, q3 = np.percentile(r, [25, 50, 75])
        print(f"{label} (batch {len(images)}): change/parent median x{med:.3f} "
              f"(quartiles {q1:.3f}, {q3:.3f}); change faster in {int((r < 1).sum())} of "
              f"{len(r)}; codes identical on {same} of {layers} layers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
