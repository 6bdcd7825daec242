"""Seeded corruption of the four JSON inputs: graph, policy, --config and split.json.

Each case flips one bit of a valid file, truncates it, inserts one byte or
repeats one of its keys. Reading the result must either raise that input's
McuqError subclass (for a config, a usage error too) or give a value that
passes its own validation and writes back to an equal value. Any other
exception fails the case.
"""

import json
import random
import re
from pathlib import Path

import numpy as np

from mcuq import cli
from mcuq.data import Dataset, DatasetError, load_raw_dir, save_raw_dir
from mcuq.errors import GraphValidationError, PolicyError
from mcuq.graph_ir import fixture_path, load_graph, save_graph
from mcuq.memory_model import all_uniform_policy, load_policy, validate_policy

CASES = 400  # per input; the config cases, which build the parser, take about 1.3 s
_INSERTS = b'{}[]:,"0123456789-.eE ntfaNI\\\xff\x00'
# a key with a scalar value, which a repeat turns into a duplicate key
_PAIR = re.compile(rb'"[^"\\]*":\s*(?:-?[0-9][0-9.eE+-]*|"[^"\\]*"|true|false|null)')


def mutants(data: bytes, seed: int):
    rng = random.Random(seed)
    pairs = list(_PAIR.finditer(data))
    for i in range(CASES):
        if i % 4 == 0:
            b = bytearray(data)
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
            yield bytes(b)
        elif i % 4 == 1:
            yield data[:rng.randrange(len(data))]
        elif i % 4 == 2:
            at = rng.randrange(len(data) + 1)
            yield data[:at] + bytes([rng.choice(_INSERTS)]) + data[at:]
        else:
            m = rng.choice(pairs)
            yield data[:m.end()] + b", " + m.group() + data[m.end():]


def test_mutants_cover_every_kind():
    data = b'{"a": 1, "b": [2]}'
    cases = list(mutants(data, 0))
    assert len(set(cases)) > CASES // 4
    assert all(b'"a": 1, "a": 1' in c for c in cases[3::4])
    assert all(len(c) < len(data) for c in cases[1::4])


def test_graph_file(tmp_path):
    path, back = tmp_path / "g.json", str(tmp_path / "back.json")
    loaded = 0
    for data in mutants(Path(fixture_path("toy_residual.json")).read_bytes(), seed=1):
        path.write_bytes(data)
        try:
            g = load_graph(str(path))
        except GraphValidationError:
            continue
        loaded += 1
        save_graph(g, back)
        assert load_graph(back) == g
    assert loaded  # whitespace flips at least


def test_policy_file(tmp_path, toy_graph):
    p = all_uniform_policy(toy_graph)
    p.weight_bits[3], p.act_bits[2] = 4, 2
    p.frozen_weights, p.frozen_acts = {1}, {0}
    path, back = tmp_path / "p.json", tmp_path / "back.json"
    loaded = 0
    for data in mutants(p.to_json().encode(), seed=2):
        path.write_bytes(data)
        try:
            q = load_policy(str(path))
            validate_policy(toy_graph, q)
        except PolicyError:
            continue
        loaded += 1
        back.write_text(q.to_json())
        assert load_policy(str(back)) == q
    assert loaded


def test_config_file(tmp_path):
    cfg = {"epochs": 2, "lr": 0.005, "batch-size": 16, "seed": 7, "dataset": "synthetic:60,40"}
    path = tmp_path / "cfg.json"
    argv = ["pretrain", "--graph", "g.json", "--dataset", "synthetic", "--out-checkpoint",
            "w.ckpt", "--config", str(path)]
    types = {"epochs": int, "lr": float, "batch_size": int, "seed": int}
    loaded = 0
    for data in mutants(json.dumps(cfg).encode(), seed=3):
        path.write_bytes(data)
        try:
            a = cli._parse_args(cli.build_parser(), argv)
        except (DatasetError, cli._UsageError):
            continue
        loaded += 1
        assert {k: type(a[k]) for k in types} == types
        path.write_text(json.dumps({k: a[k] for k in types}))
        assert cli._parse_args(cli.build_parser(), argv) == a
    assert loaded


def test_split_file(tmp_path):
    raw, back = str(tmp_path / "raw"), str(tmp_path / "back")
    save_raw_dir(Dataset(images=np.zeros((10, 1, 2, 2), np.float32),
                         labels=np.arange(10) % 3, n_train=8), raw)
    split = tmp_path / "raw" / "split.json"
    loaded = 0
    for data in mutants(split.read_bytes(), seed=4):
        split.write_bytes(data)
        try:
            d = load_raw_dir(raw)
        except DatasetError:
            continue
        loaded += 1
        save_raw_dir(d, back)
        again = load_raw_dir(back)
        assert again.n_train == d.n_train and np.array_equal(again.images, d.images)
        assert np.array_equal(again.labels, d.labels)
    assert loaded
