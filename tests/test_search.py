"""Policy search: observations, agent mechanics, episodes, the phase loop."""

import numpy as np
import pytest

import oracles
from mcuq.data import Dataset
from mcuq.errors import InfeasibleBudgetError
from mcuq.graph_ir import NetworkGraph
from mcuq.memory_model import MemoryBudget, footprint, validate_policy
from mcuq.search import (
    BIT_MIDPOINT,
    OBS_DIM,
    DDPGAgent,
    ReplayBuffer,
    SearchConfig,
    base_policy,
    bits_from_action,
    decision_items,
    history_csv,
    observe,
    run_episode,
    search,
)
from mcuq import qat, search as search_mod

BIG = MemoryBudget(rom_bytes=10 ** 9, ram_bytes=10 ** 9)
SMALL_REPLAY_BATCH = 8  # the tiny test searches fill a replay batch within a few episodes


@pytest.fixture(autouse=True)
def small_replay_batch(monkeypatch):
    monkeypatch.setattr(search_mod, "REPLAY_BATCH", SMALL_REPLAY_BATCH)


def small_cfg(**kw):
    defaults = dict(budget=BIG, episodes=4, warmup=2, mode="concurrent",
                    seed=0, proxy_train_frac=0.5, proxy_val_frac=0.5)
    defaults.update(kw)
    return SearchConfig(**defaults)


def tiny_dataset(seed=0, n=48, n_val=24):
    rng = np.random.default_rng(seed)
    imgs = rng.uniform(0, 1, size=(n + n_val, 3, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 5, size=n + n_val).astype(np.int64)
    return Dataset(images=imgs, labels=labels, n_train=n)


# ---------------------------------------------------------------------------
# Action discretization and observations
# ---------------------------------------------------------------------------

def test_bits_from_action_thresholds():
    assert bits_from_action(0.0) == 2
    assert bits_from_action(0.3) == 2
    assert bits_from_action(1 / 3) == 4
    assert bits_from_action(0.5) == 4
    assert bits_from_action(2 / 3) == 8
    assert bits_from_action(0.99) == 8
    assert bits_from_action(1.0) == 8


def test_bit_midpoints_map_back():
    for bits, a in BIT_MIDPOINT.items():
        assert bits_from_action(a) == bits


def test_observe_shape_and_bounds(mobilenet_graph):
    for layer in mobilenet_graph.layers:
        for is_w in (True, False):
            v = observe(mobilenet_graph, layer.id, is_w, 0.5)
            assert v.shape == (OBS_DIM,)
            assert (v >= 0.0).all() and (v <= 1.0).all()


def test_observe_golden_first_conv(mobilenet_graph):
    got = observe(mobilenet_graph, 1, True, 0.0)
    want = np.array([
        0.03333333333333333,  # topo position
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,  # conv2d one-hot
        0.0029296875,         # in_channels / max channels
        0.03125,              # out_channels / max channels
        0.42857142857142855,  # kernel / 7
        0.5,                  # stride / 4
        0.4878277825670542,   # log param share
        0.9490179503397916,   # log fmap share
        1.0,                  # weight decision flag
        0.0,                  # previous action
    ])
    assert np.allclose(got, want, atol=1e-12)


def test_observe_deterministic(residual_graph):
    a = observe(residual_graph, 2, True, 0.25)
    b = observe(residual_graph, 2, True, 0.25)
    assert np.array_equal(a, b)
    c = observe(residual_graph, 2, False, 0.25)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget=BIG, mode="both")
    with pytest.raises(ValueError):
        SearchConfig(budget=BIG, episodes=5, warmup=0)
    with pytest.raises(ValueError):
        SearchConfig(budget=BIG, episodes=5, warmup=6)
    SearchConfig(budget=BIG, episodes=1, warmup=1)  # boundary allowed


def test_config_defaults_follow_the_mode():
    """300 episodes and 60 warm-up per phase, doubled in concurrent mode; a
    given count is kept and the other still defaults."""
    for mode, (episodes, warmup) in (("independent", (300, 60)), ("concurrent", (600, 120))):
        cfg = SearchConfig(budget=BIG, mode=mode)
        assert (cfg.episodes, cfg.warmup) == (episodes, warmup)
        cfg = SearchConfig(budget=BIG, mode=mode, episodes=700)
        assert (cfg.episodes, cfg.warmup) == (700, warmup)
        cfg = SearchConfig(budget=BIG, mode=mode, warmup=5)
        assert (cfg.episodes, cfg.warmup) == (episodes, 5)
    with pytest.raises(ValueError, match="warmup"):
        SearchConfig(budget=BIG, mode="concurrent", episodes=100)  # 120 > 100


# ---------------------------------------------------------------------------
# Agent mechanics
# ---------------------------------------------------------------------------

def test_warmup_actions_uniform_chi2():
    agent = DDPGAgent(small_cfg(episodes=10, warmup=9), seed=0)
    obs = np.zeros(OBS_DIM)
    counts = {2: 0, 4: 0, 8: 0}
    n = 3000
    for _ in range(n):
        bits, a = agent.act(obs, episode=0)
        assert a == BIT_MIDPOINT[bits]
        counts[bits] += 1
    chi2 = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
    assert chi2 < 9.21  # 1% critical value, 2 dof


def test_noise_sigma_decay(monkeypatch):
    monkeypatch.setattr(search_mod, "NOISE", 0.5)
    monkeypatch.setattr(search_mod, "NOISE_DECAY", 0.9)
    agent = DDPGAgent(small_cfg(episodes=20, warmup=5), seed=0)
    assert agent.noise_sigma(3) == 0.5
    assert agent.noise_sigma(5) == 0.5
    assert agent.noise_sigma(7) == pytest.approx(0.5 * 0.9 ** 2)


def test_post_warmup_actions_clipped(monkeypatch):
    monkeypatch.setattr(search_mod, "NOISE", 2.0)
    agent = DDPGAgent(small_cfg(episodes=10, warmup=1), seed=3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        obs = rng.uniform(0, 1, size=OBS_DIM)
        bits, a = agent.act(obs, episode=5)
        assert 0.0 <= a <= 1.0
        assert bits == bits_from_action(a)


def test_replay_buffer_ring():
    buf = ReplayBuffer(capacity=4)
    for i in range(6):
        buf.push(np.full(OBS_DIM, i), 0.1, float(i))
    assert len(buf) == 4 and buf.rows.shape == (4, OBS_DIM + 2)
    # the oldest two evicted, each overwritten in its slot of the ring
    assert buf.rows[:, -1].tolist() == [4.0, 5.0, 2.0, 3.0]
    assert np.array_equal(buf.rows[:, :OBS_DIM], np.repeat([[4.0], [5.0], [2.0], [3.0]],
                                                          OBS_DIM, axis=1))
    assert np.all(buf.rows[:, OBS_DIM] == 0.1)


def test_replay_sample_is_rows_split_into_s_a_r():
    buf = ReplayBuffer(capacity=8)
    rng = np.random.default_rng(5)
    pushed = [(rng.uniform(0, 1, OBS_DIM), float(rng.uniform()), float(i)) for i in range(5)]
    for t in pushed:
        buf.push(*t)
    s, a, r = buf.sample(3, np.random.default_rng(1))
    idx = np.random.default_rng(1).choice(5, size=3, replace=False)
    assert s.shape == (3, OBS_DIM) and a.shape == r.shape == (3, 1)
    for row, i in enumerate(idx):
        assert np.array_equal(s[row], pushed[i][0])
        assert (a[row, 0], r[row, 0]) == pushed[i][1:]


def test_critic_regresses_constant_reward(monkeypatch):
    monkeypatch.setattr(search_mod, "REPLAY_BATCH", 16)
    agent = DDPGAgent(small_cfg(episodes=10, warmup=1), seed=1)
    rng = np.random.default_rng(7)
    for _ in range(64):
        agent.buffer.push(rng.uniform(0, 1, OBS_DIM), float(rng.uniform()), 0.7)

    def critic_mse():
        q, _ = agent.critic.forward(agent.buffer.rows[:len(agent.buffer), :-1])
        return float(((q - 0.7) ** 2).mean())

    before = critic_mse()
    for _ in range(100):
        agent.update()
    assert critic_mse() < before


def test_zero_lr_update_is_identity(monkeypatch):
    monkeypatch.setattr(search_mod, "ACTOR_LR", 0.0)
    monkeypatch.setattr(search_mod, "CRITIC_LR", 0.0)
    agent = DDPGAgent(small_cfg(), seed=2)
    rng = np.random.default_rng(0)
    for _ in range(16):
        agent.buffer.push(rng.uniform(0, 1, OBS_DIM), 0.5, 0.5)
    actor_before = {k: v.copy() for k, v in agent.actor.params.items()}
    critic_before = {k: v.copy() for k, v in agent.critic.params.items()}
    agent.update()
    for k in actor_before:
        assert np.array_equal(agent.actor.params[k], actor_before[k])
        assert np.array_equal(agent.critic.params[k], critic_before[k])


def test_update_deterministic():
    rng = np.random.default_rng(4)
    transitions = [(rng.uniform(0, 1, OBS_DIM), float(rng.uniform()), float(rng.uniform()))
                   for _ in range(32)]
    weights = []
    for _ in range(2):
        agent = DDPGAgent(small_cfg(), seed=11)
        for t in transitions:
            agent.buffer.push(*t)
        for _ in range(10):
            agent.update()
        weights.append({k: v.copy() for k, v in agent.actor.params.items()})
    for k in weights[0]:
        assert np.array_equal(weights[0][k], weights[1][k])


def test_update_noop_until_batch_full():
    agent = DDPGAgent(small_cfg(), seed=0)
    agent.buffer.push(np.zeros(OBS_DIM), 0.5, 0.5)
    before = {k: v.copy() for k, v in agent.critic.params.items()}
    agent.update()
    for k in before:
        assert np.array_equal(agent.critic.params[k], before[k])


@pytest.mark.parametrize("sigmoid_head", [True, False])
def test_mlp_backward_matches_central_differences(sigmoid_head):
    """_MLP.backward's parameter gradients and dx against central differences
    of forward, in float64, of L = sum(out * g) on a seeded batch: the actor's
    sigmoid head and the critic's linear one."""
    rng = np.random.default_rng(int(sigmoid_head))
    mlp = search_mod._MLP(5, (7, 6), rng, sigmoid_head=sigmoid_head, lr=1e-3)
    for key, p in mlp.params.items():  # O(1) weights and biases, so no gradient is tiny
        mlp.params[key] = rng.normal(size=p.shape)
    x, g = rng.normal(size=(4, 5)), rng.normal(size=(4, 1))
    out, inputs = mlp.forward(x)
    grads, dx = mlp.backward(out, inputs, g)
    assert list(inputs) and inputs[0] is x and set(grads) == set(mlp.params)

    def central(arr, eps=1e-6):
        num = np.empty_like(arr)
        for i in np.ndindex(arr.shape):
            keep, loss = arr[i], []
            for v in (keep + eps, keep - eps):
                arr[i] = v
                loss.append(float((mlp.forward(x)[0] * g).sum()))
            arr[i] = keep
            num[i] = (loss[0] - loss[1]) / (2 * eps)
        return num

    for key, p in mlp.params.items():
        np.testing.assert_allclose(grads[key], central(p), rtol=1e-6, atol=1e-8, err_msg=key)
    np.testing.assert_allclose(dx, central(x), rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# Decision items and base policy
# ---------------------------------------------------------------------------

def test_decision_items_phases(residual_graph):
    conc = decision_items(residual_graph, "concurrent")
    w = decision_items(residual_graph, "weights")
    a = decision_items(residual_graph, "acts")
    assert conc == w + a
    assert w == [(1, True), (2, True), (6, True)]
    # residual tensors 1, 2 are frozen; 0, 4, 5 remain decidable
    assert a == [(0, False), (4, False), (5, False)]


def test_decision_items_freeze_first_last(toy_graph):
    w = decision_items(toy_graph, "weights", freeze_first_last=True)
    assert w == [(2, True), (3, True), (4, True)]


def test_base_policy_frozen_residuals(residual_graph):
    p = base_policy(residual_graph, small_cfg())
    assert p.frozen_acts == {1, 2, 3}
    assert all(v == 8 for v in p.weight_bits.values())
    assert all(v == 8 for v in p.act_bits.values())


def test_base_policy_freezes_only_encoded_residual_tensors():
    """A residual add that feeds the output sink leaves an unencoded tensor,
    which the policy must not name."""
    shape = (2, 3, 3)
    g = NetworkGraph(layers=(
        oracles._mk(0, "input", [], 2, 0, 0, 1, 0, shape, shape),
        oracles._mk(1, "pointwise_conv2d", [0], 2, 1, 1, 1, 0, shape, shape),
        oracles._mk(2, "add_residual", [1, 0], 2, 0, 0, 1, 0, shape, shape),
        oracles._mk(3, "output", [2], 2, 0, 0, 1, 0, shape, shape)), resolution=3,
        width_multiplier=1.0)
    assert g.residual_tensors() == {0, 1, 2} and not g.is_encoded(2)
    p = base_policy(g, small_cfg())
    assert p.frozen_acts == {0, 1}
    validate_policy(g, p)


def test_base_policy_fixed_weight_bits(residual_graph):
    p = base_policy(residual_graph, small_cfg(), fixed_weight_bits={2: 4})
    assert p.weight_bits[2] == 4
    assert 2 in p.frozen_weights


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def res_setup(residual_graph):
    d = tiny_dataset()
    weights = qat.init_weights(residual_graph, seed=0)
    ranges = {t: 1.0 for t in residual_graph.encoded_tensors()}
    return d, weights, ranges


def test_episode_infinite_budget_keeps_raw_actions(residual_graph, res_setup):
    d, weights, ranges = res_setup
    cfg = small_cfg(episodes=4, warmup=1)
    proxy = d

    # replay the agent decisions with an identical twin to get expected bits
    twin = DDPGAgent(cfg, seed=9)
    items = decision_items(residual_graph, "concurrent")
    expected = {}
    prev = 0.0
    for lid, is_w in items:
        obs = observe(residual_graph, lid, is_w, prev)
        bits, action = twin.act(obs, episode=1)
        expected[(lid, is_w)] = bits
        prev = action

    agent = DDPGAgent(cfg, seed=9)
    rec = run_episode(residual_graph, agent, cfg, 1, proxy, weights, ranges)
    for (lid, is_w), bits in expected.items():
        got = rec.policy.weight_bits[lid] if is_w else rec.policy.act_bits[lid]
        assert got == bits


def test_episode_anchor_records_enforced_nominal(residual_graph, res_setup):
    d, weights, ranges = res_setup
    cfg = small_cfg()
    agent = DDPGAgent(cfg, seed=0)
    rec = run_episode(residual_graph, agent, cfg, 0, d, weights, ranges,
                      anchor=True)
    assert all(v == 8 for v in rec.policy.weight_bits.values())
    assert all(v == 8 for v in rec.policy.act_bits.values())
    rep = footprint(residual_graph, rec.policy)
    assert rec.rom_bytes == rep.rom_total and rec.ram_bytes == rep.ram_peak


def test_episode_respects_budget(residual_graph, res_setup):
    d, weights, ranges = res_setup
    all8 = footprint(residual_graph, base_policy(residual_graph, small_cfg()))
    cfg = small_cfg(budget=MemoryBudget(rom_bytes=int(all8.rom_total * 0.7),
                                        ram_bytes=all8.ram_peak))
    agent = DDPGAgent(cfg, seed=1)
    for e in range(3):
        rec = run_episode(residual_graph, agent, cfg, e, d, weights, ranges,
                          anchor=(e == 0))
        assert rec.rom_bytes <= cfg.budget.rom_bytes
        assert rec.ram_bytes <= cfg.budget.ram_bytes
        # frozen residual activations stay at 8 bits
        for t in residual_graph.residual_tensors() & set(rec.policy.act_bits):
            assert rec.policy.act_bits[t] == 8


def test_episode_infeasible_budget_raises(residual_graph, res_setup):
    d, weights, ranges = res_setup
    cfg = small_cfg(budget=MemoryBudget(rom_bytes=10, ram_bytes=10 ** 9))
    agent = DDPGAgent(cfg, seed=0)
    with pytest.raises(InfeasibleBudgetError):
        run_episode(residual_graph, agent, cfg, 0, d, weights, ranges,
                    anchor=True)


def test_episode_pushes_top1_for_every_item(residual_graph, res_setup):
    d, weights, ranges = res_setup
    cfg = small_cfg()
    agent = DDPGAgent(cfg, seed=4)
    rec = run_episode(residual_graph, agent, cfg, 0, d, weights, ranges,
                      anchor=True)
    assert 0.0 <= rec.top1 <= 1.0
    n_items = len(decision_items(residual_graph, "concurrent"))
    assert len(agent.buffer) == n_items
    assert np.all(agent.buffer.rows[:n_items, -1] == rec.top1)


# ---------------------------------------------------------------------------
# Full searches (small but real)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_search(residual_graph):
    d = tiny_dataset()
    weights = qat.init_weights(residual_graph, seed=0)
    cfg = small_cfg(episodes=6, warmup=2)
    changed = []  # per agent.update call: did it move the actor's weights?
    real_update = DDPGAgent.update

    def update(agent):
        before = {k: v.copy() for k, v in agent.actor.params.items()}
        real_update(agent)
        changed.append(any(not np.array_equal(agent.actor.params[k], v)
                           for k, v in before.items()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "REPLAY_BATCH", SMALL_REPLAY_BATCH)
        mp.setattr(DDPGAgent, "update", update)
        res = search(residual_graph, cfg, d, pretrained=weights)
    return cfg, d, weights, res, changed


def test_search_history_and_best(residual_graph, quick_search):
    cfg, d, weights, res, _ = quick_search
    assert len(res.history) == 6
    assert [r.episode for r in res.history] == list(range(6))
    best_so_far = -1.0
    for rec, flag in zip(res.history, res.is_best):
        if flag:
            assert rec.top1 > best_so_far
        best_so_far = max(best_so_far, rec.top1)
    assert res.best_record.top1 == max(r.top1 for r in res.history)
    # ties resolve to the earliest episode
    firsts = [r for r in res.history if r.top1 == res.best_record.top1]
    assert res.best_record.episode == firsts[0].episode


def test_search_runs_agent_updates(quick_search):
    *_, changed = quick_search
    assert any(changed)


def test_search_reproducible(residual_graph, quick_search):
    cfg, d, weights, res, _ = quick_search
    res2 = search(residual_graph, cfg, d, pretrained=weights)
    assert history_csv(res.history, res.is_best) == history_csv(res2.history,
                                                                res2.is_best)
    assert res.best_policy.to_json() == res2.best_policy.to_json()


def test_search_single_episode_edge(residual_graph):
    d = tiny_dataset()
    weights = qat.init_weights(residual_graph, seed=0)
    cfg = small_cfg(episodes=1, warmup=1)
    res = search(residual_graph, cfg, d, pretrained=weights)
    assert len(res.history) == 1
    assert res.best_record is res.history[0]


def test_search_independent_mode(residual_graph):
    d = tiny_dataset()
    weights = qat.init_weights(residual_graph, seed=0)
    cfg = small_cfg(episodes=3, warmup=1, mode="independent")
    res = search(residual_graph, cfg, d, pretrained=weights)
    assert len(res.history) == 6  # episodes per phase
    phases = [r.phase for r in res.history]
    assert phases == ["weights"] * 3 + ["acts"] * 3
    # acts phase inherits the weight bits of the weights-phase winner
    w_best = max((r for r in res.history[:3]), key=lambda r: (r.top1, -r.episode))
    for r in res.history[3:]:
        assert r.policy.weight_bits == w_best.policy.weight_bits


@pytest.mark.parametrize("mode, logged", [
    ("concurrent", ["concurrent"]),
    ("independent", ["weights phase", "acts phase"]),
])
def test_search_phases_seed_their_agents_and_log_their_winners(residual_graph, monkeypatch,
                                                               mode, logged):
    """Phase k's agent is seeded cfg.seed + 1 + k, and each phase logs one line."""
    seeds = []
    real_init = DDPGAgent.__init__
    monkeypatch.setattr(DDPGAgent, "__init__",
                        lambda agent, cfg, seed: seeds.append(seed) or real_init(agent, cfg, seed))
    lines = []
    cfg = small_cfg(episodes=2, warmup=1, mode=mode, seed=5)
    res = search(residual_graph, cfg, tiny_dataset(), pretrained=qat.init_weights(residual_graph),
                 log=lines.append)
    assert seeds == [6 + k for k in range(len(logged))]
    assert [r.episode for r in res.history] == list(range(2 * len(logged)))
    assert res.is_best[::2] == [True] * len(logged)  # each phase's first episode sets its bar
    for line, name, base in zip(lines, logged, range(0, len(res.history), 2), strict=True):
        best = max(res.history[base:base + 2], key=lambda r: (r.top1, -r.episode))
        assert line == f"{name} best top1 {best.top1:.4f} at episode {best.episode}"


def test_history_csv_schema(quick_search):
    cfg, d, weights, res, _ = quick_search
    lines = history_csv(res.history, res.is_best).strip().splitlines()
    assert lines[0] == "episode,top1,rom_bytes,ram_bytes,is_best"
    assert len(lines) == 7
    row = lines[1].split(",")
    assert int(row[0]) == 0
    float(row[1])
    assert row[4] in ("0", "1")


def test_history_round_trips_losslessly(quick_search):
    cfg, d, weights, res, _ = quick_search
    lines = history_csv(res.history, res.is_best).strip().splitlines()[1:]
    for line, rec in zip(lines, res.history):
        parts = line.split(",")
        assert float(parts[1]) == rec.top1
        assert int(parts[2]) == rec.rom_bytes
