"""ROM/RAM accounting, policy serialization, budget enforcement."""

import json

import numpy as np
import pytest

import oracles
from mcuq.errors import InfeasibleBudgetError, PolicyError
from mcuq.memory_model import (
    MemoryBudget,
    QuantPolicy,
    all_uniform_policy,
    check_constraints,
    enforce_ram,
    enforce_rom,
    footprint,
    layer_rom_bytes,
    ram_csv,
    ram_footprint,
    rom_csv,
    rom_footprint,
    tensor_ram_bytes,
    validate_policy,
    weight_bytes,
)


# ---------------------------------------------------------------------------
# Byte accounting
# ---------------------------------------------------------------------------

def test_weight_bytes_rounds_up():
    assert weight_bytes(4, 2) == 1
    assert weight_bytes(5, 2) == 2
    assert weight_bytes(11, 4) == 6
    assert weight_bytes(3, 8) == 3
    assert weight_bytes(3, 32) == 12


def test_layer_rom_bytes_components(toy_graph):
    conv = toy_graph.layer(1)  # 36 params, 4 biases, 4 output channels
    assert layer_rom_bytes(conv, 8) == 36 + 4 * 4 + 4 * 8
    assert layer_rom_bytes(conv, 8, include_overheads=False) == 36 + 16
    # fp32 layers carry no requant tables
    assert layer_rom_bytes(conv, 32) == 36 * 4 + 16
    assert layer_rom_bytes(conv, 2) == 9 + 16 + 32


def test_tensor_ram_bytes_subbyte(toy_graph):
    p = all_uniform_policy(toy_graph)
    # tensor 1 is 4x14x14 = 784 values
    assert tensor_ram_bytes(toy_graph, p, 1) == 784
    p.act_bits[1] = 2
    assert tensor_ram_bytes(toy_graph, p, 1) == 196
    p.act_bits[1] = 32
    assert tensor_ram_bytes(toy_graph, p, 1) == 784 * 4
    # tensor 6 feeds only the output head: unencoded, held at 4 bytes/value
    assert tensor_ram_bytes(toy_graph, p, 6) == 40
    # an encoded tensor must have a policy entry
    del p.act_bits[1]
    with pytest.raises(PolicyError, match="tensor 1"):
        tensor_ram_bytes(toy_graph, p, 1)


def test_toy_all8_anchors(toy_graph):
    p = all_uniform_policy(toy_graph)
    rep = footprint(toy_graph, p)
    assert rep.rom_total == 12332
    assert rep.ram_peak == 1960
    fp32 = rom_footprint(toy_graph, all_uniform_policy(toy_graph, 32, 32),
                         include_overheads=False)
    assert fp32.rom_total == 45544


def test_footprint_matches_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        g = oracles.random_graph(rng)
        p = oracles.random_policy(rng, g)
        rep = footprint(g, p)
        assert rep.rom_total == oracles.ref_rom(g, p, True)
        peak, steps = oracles.ref_ram(g, p)
        assert rep.ram_peak == peak


# ---------------------------------------------------------------------------
# Policy container
# ---------------------------------------------------------------------------

def test_policy_json_schema(toy_graph):
    p = all_uniform_policy(toy_graph)
    p.weight_bits[3] = 4
    p.act_bits[2] = 2
    p.frozen_weights = {1}
    p.frozen_acts = {0}
    doc = json.loads(p.to_json())
    assert doc["weight_bits"]["3"] == 4
    assert doc["act_bits"]["2"] == 2
    assert doc["frozen"] == ["w:1", "a:0"]
    back = QuantPolicy.from_json(p.to_json())
    assert back.weight_bits == p.weight_bits
    assert back.act_bits == p.act_bits
    assert back.frozen_weights == {1} and back.frozen_acts == {0}


def test_policy_json_rejects_malformed():
    with pytest.raises(PolicyError):
        QuantPolicy.from_json('{"weight_bits": "nope"}')
    with pytest.raises(PolicyError):
        QuantPolicy.from_json("not json at all")


def test_validate_policy_errors(toy_graph):
    p = all_uniform_policy(toy_graph)
    del p.weight_bits[3]
    with pytest.raises(PolicyError):
        validate_policy(toy_graph, p)

    p = all_uniform_policy(toy_graph)
    p.act_bits[1] = 3
    with pytest.raises(PolicyError):
        validate_policy(toy_graph, p)

    p = all_uniform_policy(toy_graph)
    del p.act_bits[5]
    with pytest.raises(PolicyError):
        validate_policy(toy_graph, p)


def test_budget_requires_positive():
    with pytest.raises(ValueError):
        MemoryBudget(rom_bytes=0, ram_bytes=100)


# ---------------------------------------------------------------------------
# Constraint checks and enforcement
# ---------------------------------------------------------------------------

def test_check_constraints_report(toy_graph):
    p = all_uniform_policy(toy_graph)
    ok = check_constraints(toy_graph, p, MemoryBudget(rom_bytes=2 * 2 ** 20,
                                                      ram_bytes=2 ** 20))
    assert ok["m1_ok"] and ok["m2_ok"]
    tight = check_constraints(toy_graph, p, MemoryBudget(rom_bytes=12331,
                                                         ram_bytes=1960))
    assert not tight["m1_ok"] and tight["m2_ok"]


def test_enforce_noop_when_within_budget(toy_graph):
    p = all_uniform_policy(toy_graph)
    b = MemoryBudget(rom_bytes=10 ** 9, ram_bytes=10 ** 9)
    q = enforce_ram(toy_graph, enforce_rom(toy_graph, p, b), b)
    assert q.weight_bits == p.weight_bits and q.act_bits == p.act_bits


def test_enforce_nominal_toy_anchor(toy_graph):
    # 60% of all-8 ROM and 70% of all-8 RAM, the desk-scale search budgets
    b = MemoryBudget(rom_bytes=7399, ram_bytes=1372)
    p = enforce_ram(toy_graph, enforce_rom(toy_graph, all_uniform_policy(toy_graph), b), b)
    assert p.weight_bits == {1: 8, 2: 8, 3: 4, 4: 4, 6: 8}
    assert p.act_bits == {0: 4, 1: 4, 2: 8, 3: 4, 4: 8, 5: 8}
    rep = footprint(toy_graph, p)
    assert rep.rom_total == 7148
    assert rep.ram_peak == 1372


def test_enforce_respects_frozen(toy_graph):
    p = all_uniform_policy(toy_graph)
    p.frozen_weights = {3}
    b = MemoryBudget(rom_bytes=11000, ram_bytes=10 ** 9)
    q = enforce_rom(toy_graph, p, b)
    assert q.weight_bits[3] == 8
    assert footprint(toy_graph, q).rom_total <= 11000


def test_enforce_infeasible_raises(toy_graph):
    floor = footprint(toy_graph, all_uniform_policy(toy_graph, 2, 8)).rom_total
    with pytest.raises(InfeasibleBudgetError):
        enforce_rom(toy_graph, all_uniform_policy(toy_graph),
                    MemoryBudget(rom_bytes=floor - 1, ram_bytes=10 ** 9))
    ram_floor = footprint(toy_graph, all_uniform_policy(toy_graph, 8, 2)).ram_peak
    with pytest.raises(InfeasibleBudgetError):
        enforce_ram(toy_graph, all_uniform_policy(toy_graph),
                    MemoryBudget(rom_bytes=10 ** 9, ram_bytes=ram_floor - 1))


def test_enforce_never_raises_bits(toy_graph):
    rng = np.random.default_rng(37)
    for _ in range(30):
        p = all_uniform_policy(toy_graph)
        for k in p.weight_bits:
            p.weight_bits[k] = int(rng.choice([4, 8]))
        rom0 = footprint(toy_graph, p).rom_total
        b = MemoryBudget(rom_bytes=max(rom0 * 3 // 4, 4000), ram_bytes=10 ** 9)
        q = enforce_rom(toy_graph, p, b)
        assert all(q.weight_bits[k] <= p.weight_bits[k] for k in p.weight_bits)


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def test_rom_csv_schema(toy_graph):
    rep = rom_footprint(toy_graph, all_uniform_policy(toy_graph))
    lines = rom_csv(rep).strip().splitlines()
    assert lines[0] == "layer,rom_bytes"
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 6]
    assert sum(int(r[1]) for r in rows) == 12332


def test_ram_csv_schema(toy_graph):
    rep = ram_footprint(toy_graph, all_uniform_policy(toy_graph))
    lines = ram_csv(rep).strip().splitlines()
    assert lines[0] == "step,ram_bytes"
    vals = [int(l.split(",")[1]) for l in lines[1:]]
    assert len(vals) == 8
    assert max(vals) == 1960
