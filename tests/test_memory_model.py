"""ROM/RAM accounting, policy serialization, budget enforcement."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from mcuq import search
from mcuq.errors import InfeasibleBudgetError, PolicyError
from mcuq.graph_ir import NetworkGraph, liveness, topo_order
from mcuq.memory_model import (
    MemoryBudget,
    QuantPolicy,
    all_uniform_policy,
    enforce_ram,
    enforce_rom,
    footprint,
    layer_rom_bytes,
    load_policy,
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
    fp32 = rom_footprint(toy_graph, all_uniform_policy(toy_graph, 32, 32))
    assert fp32.rom_total == 45544


def test_footprint_matches_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        g = oracles.random_graph(rng)
        p = oracles.random_policy(rng, g)
        rep = footprint(g, p)
        assert rep.rom_total == oracles.ref_rom(g, p)
        peak, steps = oracles.ref_ram(g, p)
        assert rep.ram_peak == peak
        step = steps.index(peak)
        assert rep.ram_peak_live == {t: oracles.ref_tensor_bytes(g, p, t)
                                     for t in oracles.sim_liveness(g)[step]}
        rom = rom_footprint(g, p)
        assert (rep.rom_total, rep.rom_per_layer) == (rom.rom_total, rom.rom_per_layer)
        assert replace(rep, rom_total=0, rom_per_layer={}) == ram_footprint(g, p)


# ---------------------------------------------------------------------------
# Policy container
# ---------------------------------------------------------------------------

def _policy(tmp_path, text: str) -> QuantPolicy:
    path = tmp_path / "p.json"
    path.write_text(text)
    return load_policy(str(path))


def test_policy_json_schema(tmp_path, toy_graph):
    p = all_uniform_policy(toy_graph)
    p.weight_bits[3] = 4
    p.act_bits[2] = 2
    p.frozen_weights = {1}
    p.frozen_acts = {0}
    doc = json.loads(p.to_json())
    assert doc["weight_bits"]["3"] == 4
    assert doc["act_bits"]["2"] == 2
    assert doc["frozen"] == ["w:1", "a:0"]
    back = _policy(tmp_path, p.to_json())
    assert back.weight_bits == p.weight_bits
    assert back.act_bits == p.act_bits
    assert back.frozen_weights == {1} and back.frozen_acts == {0}


def test_policy_json_rejects_malformed(tmp_path):
    with pytest.raises(PolicyError):
        _policy(tmp_path, '{"weight_bits": "nope"}')
    with pytest.raises(PolicyError):
        _policy(tmp_path, "not json at all")


@pytest.mark.parametrize("text, named", [
    ('[8]', "top level"),
    ('{"weight_bits": {"1": 8.9}}', "weight_bits['1'] = 8.9"),
    ('{"weight_bits": {"1": "8"}}', "weight_bits['1'] = '8'"),
    ('{"act_bits": {"2": true}}', "act_bits['2'] = True"),
    ('{"act_bits": {"2": null}}', "act_bits['2'] = None"),
    ('{"weight_bits": {"1.0": 8}}', "weight_bits id '1.0'"),
    ('{"weight_bits": {" 1": 8}}', "weight_bits id ' 1'"),
    ('{"weight_bits": {"01": 8}}', "weight_bits id '01'"),
    ('{"act_bits": {"x": 8}}', "act_bits id 'x'"),
    ('{"act_bits": [8]}', "act_bits must be an object"),
    ('{"frozen": [3]}', "frozen entry 3 "),
    ('{"frozen": ["3"]}', "frozen entry '3' "),
    ('{"frozen": ["x:3"]}', "frozen entry 'x:3' "),
    ('{"frozen": ["w:"]}', "frozen entry 'w:' id ''"),
    ('{"frozen": ["a:2.5"]}', "frozen entry 'a:2.5' id '2.5'"),
    ('{"frozen": "w:1"}', "frozen must be a list"),
    # json alone would keep the last value of a duplicated key
    ('{"weight_bits": {"1": 8, "1": 2}, "act_bits": {}}', "duplicate key '1'"),
    ('{"act_bits": {"0": 8}, "act_bits": {}}', "duplicate key 'act_bits'"),
    ('{"act_bits": {"0": NaN}}', "NaN is not a JSON value"),
    # a misspelt key would load as no entries: here, nothing frozen
    ('{"weight_bits": {}, "frozem": ["w:1"]}', "unknown keys ['frozem']"),
])
def test_policy_json_accepts_only_what_to_json_writes(tmp_path, text, named):
    with pytest.raises(PolicyError, match=re.escape(named)):
        _policy(tmp_path, text)


def test_policy_json_round_trips_negative_ids(tmp_path):
    p = QuantPolicy({-1: 4, 0: 8}, {-2: 2}, {-1}, {-2})
    assert _policy(tmp_path, p.to_json()) == p


def test_validate_policy_rejects_entries_the_graph_has_no_use_for(toy_graph):
    p = all_uniform_policy(toy_graph)
    p.act_bits[6] = 2  # the logits feed only the output sink: the engine keeps them int32
    with pytest.raises(PolicyError, match=r"unexpected act_bits for tensors \[6\]"):
        validate_policy(toy_graph, p)
    for lid in (5, 7, 99):  # avg_pool, the output sink, no such layer
        p = all_uniform_policy(toy_graph)
        p.weight_bits[lid] = 8
        with pytest.raises(PolicyError, match=rf"unexpected weight_bits for layers \[{lid}\]"):
            validate_policy(toy_graph, p)


@pytest.mark.parametrize("frozen_w, frozen_a, says", [
    ({99}, set(), r"frozen weights of layers \[99\]"),
    ({5}, set(), r"frozen weights of layers \[5\]"),  # the avg_pool has no weights
    (set(), {6}, r"frozen activations of tensors \[6\]"),  # the logits carry no encoding
    (set(), {7}, r"frozen activations of tensors \[7\]"),  # the output sink is no tensor
])
def test_validate_policy_rejects_frozen_ids_outside_the_policy(toy_graph, frozen_w,
                                                               frozen_a, says):
    p = all_uniform_policy(toy_graph)
    p.frozen_weights, p.frozen_acts = frozen_w, frozen_a
    with pytest.raises(PolicyError, match=says):
        validate_policy(toy_graph, p)
    p.frozen_weights, p.frozen_acts = {1, 6}, {0, 5}
    validate_policy(toy_graph, p)


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

    for table, bits in (("weight_bits", 8.0), ("act_bits", 4.0)):  # 8.0 == 8, yet not bits
        p = all_uniform_policy(toy_graph)
        getattr(p, table)[1] = bits
        with pytest.raises(PolicyError, match=rf"^bits for 1 must be in .*, got {bits}$"):
            validate_policy(toy_graph, p)


def test_budget_requires_positive():
    with pytest.raises(ValueError):
        MemoryBudget(rom_bytes=0, ram_bytes=100)


# ---------------------------------------------------------------------------
# Constraint checks and enforcement
# ---------------------------------------------------------------------------

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


def test_enforce_on_random_graphs_meets_the_budget_or_raises():
    """Seeded random graphs and policies, with some tensors frozen, under
    budgets from a little below the floor (every free sub-byte tensor at 2
    bits) up to the policy's own footprint: enforce_rom then enforce_ram
    return a policy within budget by the oracles that raises no bitwidth, or
    raise InfeasibleBudgetError where the floor itself is over budget."""
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(120):
        g, p, lo, b = oracles.random_enforce_case(rng)
        rom, ram = b.rom_bytes, b.ram_bytes
        try:
            q = enforce_ram(g, enforce_rom(g, p, b), b)
        except InfeasibleBudgetError:
            assert lo[0] > rom or lo[1] > ram
            seen.add("infeasible")
            continue
        assert oracles.ref_rom(g, q) <= rom and oracles.ref_ram(g, q)[0] <= ram
        for got, was in ((q.weight_bits, p.weight_bits), (q.act_bits, p.act_bits)):
            assert got.keys() == was.keys() and all(got[k] <= was[k] for k in was)
        seen.add("fits")
    assert seen == {"fits", "infeasible"}


def _enforced_or_error(enforce, g, p, b):
    """The enforced policy, or the message of the InfeasibleBudgetError raised."""
    try:
        return enforce(g, p, b)
    except InfeasibleBudgetError as e:
        return f"InfeasibleBudgetError: {e}"


def _enforce(g, p, b):
    return enforce_ram(g, enforce_rom(g, p, b), b)


def _assert_report_matches_the_oracles(g, q):
    rep = footprint(g, q)
    peak, steps = oracles.ref_ram(g, q)
    assert rep.rom_total == oracles.ref_rom(g, q)
    assert rep.per_step_ram == steps
    assert (rep.ram_peak, rep.ram_peak_step) == (peak, topo_order(g)[steps.index(peak)])
    assert list(rep.step_layer_ids) == list(topo_order(g))


def test_enforce_matches_the_reference_greedy_on_random_graphs():
    """200 seeded random graphs and policies (residual branches, 32-bit and
    frozen entries), under budgets from below the floor to the policy's own
    footprint: enforce_rom then enforce_ram return the policy of
    oracles.ref_enforce, which recounts the footprint after every demotion,
    or raise the same InfeasibleBudgetError; the enforced footprint is the
    oracles' per-step RAM, first peak and ROM."""
    rng = np.random.default_rng(47)
    seen = set()
    for _ in range(200):
        g, p, _, b = oracles.random_enforce_case(rng)
        got = _enforced_or_error(_enforce, g, p, b)
        assert got == _enforced_or_error(oracles.ref_enforce, g, p, b)
        if isinstance(got, str):
            seen.add(got.split(" budget")[0])
        else:
            _assert_report_matches_the_oracles(g, got)
            seen.add("fits")
    assert seen == {"fits", "InfeasibleBudgetError: ROM", "InfeasibleBudgetError: RAM"}


def _self_add_graph():
    """A residual add (layer 3) that reads tensor 1 twice, listed before the
    pointwise conv (layer 2) that also reads tensor 1 and runs first."""
    mk, s = oracles._mk, (2, 4, 4)
    return NetworkGraph(layers=(
        mk(0, "input", [], 1, 0, 0, 1, 0, (1, 4, 4)),
        mk(1, "conv2d", [0], 2, 3, 3, 1, 1, (1, 4, 4), bias=2),
        mk(3, "add_residual", [1, 1], 2, 0, 0, 1, 0, s),
        mk(2, "pointwise_conv2d", [1], 2, 1, 1, 1, 0, s, bias=2),
        mk(4, "add_residual", [3, 2], 2, 0, 0, 1, 0, s),
        mk(5, "avg_pool", [4], 2, 4, 4, 4, 0, s),
        mk(6, "fully_connected", [5], 3, 0, 0, 1, 0, (2, 1, 1), bias=3),
        mk(7, "output", [6], 3, 0, 0, 1, 0, (3, 1, 1)),
    ), resolution=4, width_multiplier=1.0)


def test_a_layer_reading_one_tensor_twice():
    """The add waits for both of its reads of tensor 1, lists as one consumer
    of it, and ends tensor 1's span; footprint and enforcement agree with the
    oracles under budgets from below the floor to the all-8 footprint."""
    g = _self_add_graph()
    assert topo_order(g) == tuple(range(8))
    assert [l.id for l in g.consumers(1)] == [3, 2]
    assert list(g.tensor_spans().items()) == [
        (0, range(0, 2)), (1, range(1, 4)), (2, range(2, 5)), (3, range(3, 5)),
        (4, range(4, 6)), (5, range(5, 7)), (6, range(6, 8))]
    assert liveness(g) == oracles.sim_liveness(g)
    rng = np.random.default_rng(61)
    policies = [all_uniform_policy(g)] + [oracles.random_policy(rng, g) for _ in range(20)]
    for p in policies:
        rep = footprint(g, p)
        assert rep.rom_total == oracles.ref_rom(g, p)
        assert (rep.ram_peak, rep.per_step_ram) == oracles.ref_ram(g, p)
    hi = footprint(g, policies[0])
    lo = footprint(g, all_uniform_policy(g, 2, 2))
    seen = set()
    for rom in np.linspace(lo.rom_total - 8, hi.rom_total, 6).astype(int).tolist():
        for ram in np.linspace(lo.ram_peak - 8, hi.ram_peak, 6).astype(int).tolist():
            b = MemoryBudget(rom_bytes=rom, ram_bytes=ram)
            for p in policies:
                got = _enforced_or_error(_enforce, g, p, b)
                assert got == _enforced_or_error(oracles.ref_enforce, g, p, b)
                if not isinstance(got, str):
                    _assert_report_matches_the_oracles(g, got)
                seen.add(isinstance(got, str))
    assert seen == {False, True}


def test_random_graphs_with_a_layer_reading_one_tensor_twice():
    """Random graphs whose add reads one tensor twice, each under four random
    enforcement cases: the policy's footprint is the oracles', and enforcement
    gives ref_enforce's policy or error."""
    rng = np.random.default_rng(67)
    seen = set()
    for g in oracles.self_read_graphs(rng, 30):
        for _ in range(4):
            _, p, _, b = oracles.random_enforce_case(rng, g)
            _assert_report_matches_the_oracles(g, p)
            got = _enforced_or_error(_enforce, g, p, b)
            assert got == _enforced_or_error(oracles.ref_enforce, g, p, b)
            if not isinstance(got, str):
                _assert_report_matches_the_oracles(g, got)
            seen.add(isinstance(got, str))
    assert seen == {False, True}


MBV1_BUDGET = MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)


def _mobilenet_pool(g, n, seed):
    """n random 2/4/8 choices over the search's concurrent decisions."""
    cfg = search.SearchConfig(budget=MBV1_BUDGET)
    items = search.decision_items(g, "concurrent")
    rng = np.random.default_rng(seed)
    for row in rng.choice(search.BIT_CHOICES, size=(n, len(items))).tolist():
        p = search.base_policy(g, cfg)
        for (lid, is_weight), bits in zip(items, row):
            (p.weight_bits if is_weight else p.act_bits)[lid] = bits
        yield p


def test_enforce_matches_the_reference_greedy_on_mobilenet(mobilenet_graph):
    """256 seeded random MobileNetV1 policies at 2 MB / 512 kB."""
    g = mobilenet_graph
    demoted = 0
    for p in _mobilenet_pool(g, 256, 53):
        got = _enforce(g, p, MBV1_BUDGET)
        assert got == oracles.ref_enforce(g, p, MBV1_BUDGET)
        _assert_report_matches_the_oracles(g, got)
        demoted += got != p
    assert demoted > 128


def test_a_missing_weight_entry_raises_a_policy_error(toy_graph):
    p = all_uniform_policy(toy_graph)
    del p.weight_bits[3]
    b = MemoryBudget(rom_bytes=10 ** 9, ram_bytes=10 ** 9)
    for call in (lambda: enforce_rom(toy_graph, p, b), lambda: footprint(toy_graph, p),
                 lambda: rom_footprint(toy_graph, p)):
        with pytest.raises(PolicyError, match=r"^missing weight_bits entry for layer 3$"):
            call()


def test_a_missing_act_entry_of_a_live_tensor_raises_a_policy_error(toy_graph):
    """With tensors 2 and 4 missing, the one produced first is named."""
    p = all_uniform_policy(toy_graph)
    del p.act_bits[4], p.act_bits[2]
    b = MemoryBudget(rom_bytes=10 ** 9, ram_bytes=1)
    for call in (lambda: enforce_ram(toy_graph, p, b), lambda: footprint(toy_graph, p),
                 lambda: ram_footprint(toy_graph, p)):
        with pytest.raises(PolicyError, match=r"^missing act_bits entry for live tensor 2$"):
            call()


def test_32_bit_entries_are_never_demoted(toy_graph):
    """32-bit weights and tensors keep their bits while the rest are demoted:
    16625 B is the ROM with every other layer at 2 bits, 3430 B the RAM of
    layer 3's step with tensor 3 at 2 bits beside the 32-bit tensor 2."""
    p = all_uniform_policy(toy_graph)
    p.weight_bits[3] = p.act_bits[2] = 32
    b = MemoryBudget(rom_bytes=16625, ram_bytes=3430)
    q = _enforce(toy_graph, p, b)
    assert q.weight_bits == {1: 2, 2: 2, 3: 32, 4: 2, 6: 2}
    assert q.act_bits == {0: 8, 1: 2, 2: 32, 3: 2, 4: 8, 5: 8}
    assert q == oracles.ref_enforce(toy_graph, p, b)


@pytest.mark.parametrize("acts, frozen, step", [
    # every tensor at 32 bits: the peak is layer 3's step (tensors 2 and 3, 7840 B)
    ({t: 32 for t in range(6)}, set(), 3),
    # tensors 0 and 1 frozen at 8 bits, the rest at 32: the peak is layer 3's step
    ({0: 8, 1: 8, 2: 32, 3: 32, 4: 32, 5: 32}, {0, 1}, 3),
    # tensors 2 and 3 at 32 bits, the rest frozen: a demotion elsewhere would not help
    ({0: 8, 1: 8, 2: 32, 3: 32, 4: 8, 5: 8}, {0, 1, 4, 5}, 3),
])
def test_a_budget_only_32_bit_or_frozen_tensors_could_meet_raises(toy_graph, acts, frozen,
                                                                   step):
    p = all_uniform_policy(toy_graph)
    p.act_bits, p.frozen_acts = acts, frozen
    ram = footprint(toy_graph, p).ram_peak
    with pytest.raises(InfeasibleBudgetError, match=rf"^RAM budget {ram - 1} B unreachable "
                       rf"at step of layer {step}: every live tensor is frozen or at 2 bits$"):
        enforce_ram(toy_graph, p, MemoryBudget(rom_bytes=10 ** 9, ram_bytes=ram - 1))
    p.weight_bits = {1: 32, 2: 32, 3: 8, 4: 32, 6: 8}
    p.frozen_weights = {3, 6}
    rom = footprint(toy_graph, p).rom_total
    with pytest.raises(InfeasibleBudgetError, match=rf"^ROM budget {rom - 1} B unreachable"):
        enforce_rom(toy_graph, p, MemoryBudget(rom_bytes=rom - 1, ram_bytes=10 ** 9))


def _three_pointwise_graph():
    """input (2,1,1) -> pointwise layers 1, 2, 3 of 8, 4 and 4 weights -> output."""
    layers = [oracles._mk(0, "input", [], 2, 0, 0, 1, 0, (2, 1, 1))]
    for i, o in ((1, 4), (2, 1), (3, 4)):
        layers.append(oracles._mk(i, "pointwise_conv2d", [i - 1], o, 1, 1, 1, 0,
                                  layers[-1].output_shape))
    layers.append(oracles._mk(4, "output", [3], 4, 0, 0, 1, 0, (4, 1, 1)))
    return NetworkGraph(layers=tuple(layers), resolution=1, width_multiplier=1.0)


def test_enforce_rom_demotion_order_breaks_ties_by_bits_then_id():
    """Each budget allows exactly k demotions from all-8. The largest tensor in
    bytes goes first (step 1); at equal bytes the higher bitwidth (steps 3 and
    5), and at equal bytes and bits the lower id (step 2)."""
    g = _three_pointwise_graph()
    assert [l.param_count for l in g.weighted_layers()] == [8, 4, 4]
    order = [{1: 8, 2: 8, 3: 8}, {1: 4, 2: 8, 3: 8}, {1: 4, 2: 4, 3: 8}, {1: 4, 2: 4, 3: 4},
             {1: 2, 2: 4, 3: 4}, {1: 2, 2: 2, 3: 4}, {1: 2, 2: 2, 3: 2}]
    for want in order:
        rom = rom_footprint(g, QuantPolicy(want, {0: 8, 1: 8, 2: 8})).rom_total
        p = enforce_rom(g, all_uniform_policy(g), MemoryBudget(rom_bytes=rom, ram_bytes=1))
        assert p.weight_bits == want, rom


def test_enforce_ram_breaks_a_tie_of_bytes_and_bits_by_the_lower_id(toy_graph):
    """Tensors 0, 1 and 2 hold 784 elements each. With tensor 3 at 2 bits the
    peak is the step of layer 1 (tensors 0 and 1, 1568 B), tied with layer 2's
    (tensors 1 and 2). Demoting 0 first leaves layer 2's step over 1567 B, so
    1 follows; demoting 1 first would have fitted at once."""
    p = all_uniform_policy(toy_graph)
    p.act_bits[3] = 2
    q = enforce_ram(toy_graph, p, MemoryBudget(rom_bytes=10 ** 9, ram_bytes=1567))
    assert q.act_bits == {0: 4, 1: 4, 2: 8, 3: 2, 4: 8, 5: 8}


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
