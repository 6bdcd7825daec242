"""Lockstep A/B of the budget enforcement of two checkouts, in one process.

    python scripts/enforce_ab.py PARENT_DIR CHANGE_DIR [--pairs 40] [--seed 0]

Both trees' `src/mcuq` packages are imported side by side, under the names
`mcuq_parent` and `mcuq_change` (with `qat_ab._import_tree`). Each tree
builds perfbench's `mbv1_enforce` pool: 2048 random 2/4/8-bit choices over
the 57 concurrent search decisions of MobileNetV1, drawn from the seed, at
2 MB ROM / 512 kB RAM. Each pair times one block of 256 of those policies on
each tree, alternating which tree goes first, through the four calls of the
perfbench op: `enforce_rom`, `enforce_ram`, `validate_policy`, `footprint`.
Both trees therefore time the same policies and share the host's speed drift.

It prints the median and quartiles of the per-pair time ratio change/parent,
the number of pairs the change won, and the number of pool policies whose
enforced bits or footprint differ between the trees.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from qat_ab import _import_tree  # noqa: E402

POOL = 2048   # perfbench's enforce_pool
BLOCK = 256   # policies per timed block


class Tree:
    """One checkout's memory model, MobileNetV1 graph and policy pool."""

    def __init__(self, root: str, alias: str):
        self.name = alias
        self.m = _import_tree(root, alias)
        self.search = importlib.import_module(f"{alias}.search")
        self.mm = self.m.memory_model
        fixture = os.path.join(root, "src", "mcuq", "fixtures", "mobilenet_v1_224_100.json")
        self.g = self.m.graph_ir.load_graph(fixture)
        self.budget = self.mm.MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
        self.items = self.search.decision_items(self.g, "concurrent")

    def pool(self, rows: list) -> list:
        """perfbench's policies: the search's base policy with each decision set from a row."""
        cfg = self.search.SearchConfig(budget=self.budget)
        out = []
        for row in rows:
            p = self.search.base_policy(self.g, cfg)
            for (lid, is_weight), bits in zip(self.items, row):
                (p.weight_bits if is_weight else p.act_bits)[lid] = bits
            out.append(p)
        return out

    def enforce(self, p):
        """The perfbench op: the enforced policy and its footprint."""
        mm, g, b = self.mm, self.g, self.budget
        q = mm.enforce_ram(g, mm.enforce_rom(g, p, b), b)
        mm.validate_policy(g, q)
        return q, mm.footprint(g, q)

    def block(self, policies: list) -> float:
        t0 = perf_counter()
        for p in policies:
            self.enforce(p)
        return perf_counter() - t0


def _outcome(tree: Tree, p):
    q, rep = tree.enforce(p)
    return (sorted(q.weight_bits.items()), sorted(q.act_bits.items()),
            dataclasses.astuple(rep))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args(argv)
    parent = Tree(a.parent, "mcuq_parent")
    change = Tree(a.change, "mcuq_change")
    if parent.items != change.items:
        raise SystemExit("error: the two trees make different search decisions")
    rng = np.random.default_rng([a.seed, 4])  # the stream perfbench's Mbv1Enforce draws
    rows = rng.choice(parent.search.BIT_CHOICES, size=(POOL, len(parent.items))).tolist()
    pools = {t.name: t.pool(rows) for t in (parent, change)}

    # every policy once on each tree: the identity check, and the trees' warm-up
    differ = sum(_outcome(parent, p) != _outcome(change, q)
                 for p, q in zip(pools[parent.name], pools[change.name]))
    ratios = []
    for i in range(a.pairs):
        k = i * BLOCK % POOL
        order = (parent, change) if i % 2 == 0 else (change, parent)
        res = {t.name: t.block(pools[t.name][k:k + BLOCK]) for t in order}
        ratios.append(res[change.name] / res[parent.name])
    r = np.array(ratios)
    q1, med, q3 = np.percentile(r, [25, 50, 75])
    print(f"enforcement time change/parent over {len(r)} pairs of {BLOCK}-policy blocks: "
          f"median x{med:.3f} (quartiles {q1:.3f}, {q3:.3f}); change faster in "
          f"{int((r < 1).sum())} of {len(r)}; enforced bits or footprint differ in "
          f"{differ} of {POOL} policies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
