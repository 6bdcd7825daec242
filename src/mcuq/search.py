"""RL policy search: DDPG-style agent over per-tensor bitwidth decisions.

One episode walks every decidable tensor (weight tensors first, then
activations), picks a continuous action in [0,1] per tensor, discretizes to
{2,4,8}, enforces the ROM then RAM budgets by greedy demotion, trains the
candidate for one epoch on the proxy set, and uses proxy validation top-1 as
the shared reward of all the episode's transitions. The reward is terminal
and shared, so the critic regresses straight onto it: there is no
bootstrapped target and hence no target networks.

A search runs, in order, the phases that PHASES lists for its mode, phase k
with a fresh agent seeded cfg.seed + 1 + k. The "acts" phase starts from the
bits of the "weights" phase's winner, which was scored at 32-bit activations.

The agent's hyper-parameters are HAQ's (arXiv 1811.08886) and fixed for every
search: two hidden layers of HIDDEN units, Adam at ACTOR_LR and CRITIC_LR,
exploration noise NOISE decaying by NOISE_DECAY per episode after warm-up,
a replay ring of REPLAY_CAPACITY transitions sampled REPLAY_BATCH at a time.
Each candidate trains QAT_EPOCHS proxy epochs at QAT_LR.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import qat
from .data import Dataset, make_proxy
from .graph_ir import ALL_KINDS, NetworkGraph, topo_order
from .memory_model import (
    MemoryBudget,
    QuantPolicy,
    enforce_ram,
    enforce_rom,
    footprint,
    validate_policy,
)
from .quantizer import calibrate_act_ranges

BIT_CHOICES = (2, 4, 8)
# replay stores the midpoint of the chosen bin, post enforcement
BIT_MIDPOINT = {2: 1.0 / 6.0, 4: 0.5, 8: 5.0 / 6.0}
PHASES = {"independent": ("weights", "acts"), "concurrent": ("concurrent",)}

OBS_DIM = 18

HIDDEN = (64, 64)
ACTOR_LR = 1e-4
CRITIC_LR = 1e-3
NOISE = 0.5
NOISE_DECAY = 0.99
REPLAY_BATCH = 64
REPLAY_CAPACITY = 10000
QAT_EPOCHS = 1
QAT_LR = 1e-4


def bits_from_action(a: float) -> int:
    if a < 1.0 / 3.0:
        return 2
    if a < 2.0 / 3.0:
        return 4
    return 8


@dataclass
class SearchConfig:
    budget: MemoryBudget
    episodes: int = 300          # per phase in independent mode
    warmup: int = 60
    mode: str = "independent"    # or "concurrent" (doubled defaults: 600/120)
    seed: int = 0
    proxy_train_frac: float = 0.2
    proxy_val_frac: float = 0.1
    batch_size: int = 32
    pretrain_epochs: int = 3
    pretrain_lr: float = 1e-2
    freeze_first_last: bool = False

    def __post_init__(self):
        if self.mode not in PHASES:
            raise ValueError(f"unknown search mode {self.mode!r}")
        if not 0 < self.warmup <= self.episodes:
            raise ValueError("need 0 < warmup <= episodes")


@dataclass
class EpisodeRecord:
    episode: int
    policy: QuantPolicy
    top1: float
    rom_bytes: int
    ram_bytes: int
    phase: str = "concurrent"


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def _graph_scales(g: NetworkGraph):
    max_ch = max(l.out_channels for l in g.layers) or 1
    max_par = max((l.param_count for l in g.layers), default=0)
    max_fmap = max(l.out_numel for l in g.layers) or 1
    return max_ch, max_par, max_fmap


def observe(g: NetworkGraph, layer_id: int, is_weight: bool,
            prev_action: float) -> np.ndarray:
    """Deterministic [0,1]-scaled feature vector for one bitwidth decision."""
    layer = g.layer(layer_id)
    order = topo_order(g)
    idx = order.index(layer_id) / max(len(order) - 1, 1)
    max_ch, max_par, max_fmap = _graph_scales(g)
    onehot = [1.0 if layer.kind == k else 0.0 for k in ALL_KINDS]
    feats = [
        idx,
        *onehot,
        layer.in_channels / max_ch,
        layer.out_channels / max_ch,
        min(layer.kernel_h / 7.0, 1.0),
        min(layer.stride / 4.0, 1.0),
        float(np.log1p(layer.param_count) / np.log1p(max_par)) if max_par else 0.0,
        float(np.log1p(layer.out_numel) / np.log1p(max_fmap)),
        1.0 if is_weight else 0.0,
        prev_action,
    ]
    v = np.asarray(feats, dtype=np.float64)
    assert v.shape == (OBS_DIM,)
    return v


# ---------------------------------------------------------------------------
# Tiny MLPs and the DDPG agent
# ---------------------------------------------------------------------------

class _MLP:
    """Two-hidden-layer ReLU MLP; head is sigmoid (actor) or linear (critic)."""

    def __init__(self, in_dim: int, hidden: tuple[int, int], rng, sigmoid_head: bool):
        self.sigmoid_head = sigmoid_head
        sizes = [in_dim, hidden[0], hidden[1], 1]
        self.params: dict[str, np.ndarray] = {}
        for i in range(3):
            fan_in = sizes[i]
            bound = 3e-3 if i == 2 else 1.0 / np.sqrt(fan_in)
            self.params[f"W{i}"] = rng.uniform(-bound, bound, size=(sizes[i + 1], fan_in))
            self.params[f"b{i}"] = np.zeros(sizes[i + 1])

    def forward(self, x: np.ndarray):
        p = self.params
        h1 = np.maximum(x @ p["W0"].T + p["b0"], 0.0)
        h2 = np.maximum(h1 @ p["W1"].T + p["b1"], 0.0)
        out = h2 @ p["W2"].T + p["b2"]
        if self.sigmoid_head:
            out = 1.0 / (1.0 + np.exp(-out))
        return out, (x, h1, h2, out)

    def backward(self, cache, dout):
        x, h1, h2, out = cache
        p = self.params
        if self.sigmoid_head:
            dout = dout * out * (1.0 - out)
        grads = {
            "W2": dout.T @ h2, "b2": dout.sum(axis=0),
        }
        dh2 = (dout @ p["W2"]) * (h2 > 0)
        grads["W1"] = dh2.T @ h1
        grads["b1"] = dh2.sum(axis=0)
        dh1 = (dh2 @ p["W1"]) * (h1 > 0)
        grads["W0"] = dh1.T @ x
        grads["b0"] = dh1.sum(axis=0)
        dx = dh1 @ p["W0"]
        return grads, dx


class ReplayBuffer:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list[tuple] = []
        self.pos = 0

    def __len__(self):
        return len(self.items)

    def push(self, obs, action, reward):
        entry = (obs, float(action), float(reward))
        if len(self.items) < self.capacity:
            self.items.append(entry)
        else:
            self.items[self.pos] = entry
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch: int, rng):
        idx = rng.choice(len(self.items), size=batch, replace=False)
        obs = np.stack([self.items[i][0] for i in idx])
        act = np.array([[self.items[i][1]] for i in idx])
        rew = np.array([[self.items[i][2]] for i in idx])
        return obs, act, rew


class DDPGAgent:
    def __init__(self, cfg: SearchConfig, seed: int):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.actor = _MLP(OBS_DIM, HIDDEN, self.rng, sigmoid_head=True)
        self.critic = _MLP(OBS_DIM + 1, HIDDEN, self.rng, sigmoid_head=False)
        self.buffer = ReplayBuffer(REPLAY_CAPACITY)
        self.actor_opt = qat._Adam(ACTOR_LR)
        self.critic_opt = qat._Adam(CRITIC_LR)

    def noise_sigma(self, episode: int) -> float:
        steps = max(episode - self.cfg.warmup, 0)
        return NOISE * NOISE_DECAY ** steps

    def act(self, obs: np.ndarray, episode: int) -> tuple[int, float]:
        """(bits, continuous action) for one decision."""
        if episode < self.cfg.warmup:
            bits = int(self.rng.choice(BIT_CHOICES))
            return bits, BIT_MIDPOINT[bits]
        a, _ = self.actor.forward(obs[None, :])
        a = float(a[0, 0])
        sigma = self.noise_sigma(episode)
        if sigma > 0:
            a += float(np.clip(self.rng.normal(0.0, sigma), -2 * sigma, 2 * sigma))
        a = float(np.clip(a, 0.0, 1.0))
        return bits_from_action(a), a

    def update(self) -> None:
        """One DDPG step: critic regression onto the reward, then actor ascent."""
        if len(self.buffer) < REPLAY_BATCH:
            return
        s, a, r = self.buffer.sample(REPLAY_BATCH, self.rng)
        q, cache = self.critic.forward(np.concatenate([s, a], axis=1))
        dq = 2.0 * (q - r) / len(q)
        grads, _ = self.critic.backward(cache, dq)
        for key, u in self.critic_opt.step(grads).items():
            self.critic.params[key] = self.critic.params[key] - u

        a_pred, a_cache = self.actor.forward(s)
        q_a, c_cache = self.critic.forward(np.concatenate([s, a_pred], axis=1))
        _, dinput = self.critic.backward(c_cache, -np.ones_like(q_a) / len(q_a))
        da = dinput[:, OBS_DIM:]
        a_grads, _ = self.actor.backward(a_cache, da)
        for key, u in self.actor_opt.step(a_grads).items():
            self.actor.params[key] = self.actor.params[key] - u


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

def _frozen_ends(g: NetworkGraph, freeze_first_last: bool) -> set[int]:
    """Ids of the first and last weighted layers when those stay at 8 bits."""
    if not freeze_first_last:
        return set()
    wl = g.weighted_layers()
    return {wl[0].id, wl[-1].id}


def decision_items(g: NetworkGraph, phase: str,
                   freeze_first_last: bool = False) -> list[tuple[int, bool]]:
    """(layer/tensor id, is_weight) pairs the agent decides, in decision order."""
    frozen_w = _frozen_ends(g, freeze_first_last)
    witems = [(l.id, True) for l in g.weighted_layers() if l.id not in frozen_w]
    frozen_a = g.residual_tensors()
    aitems = [(t, False) for t in g.decidable_act_tensors() if t not in frozen_a]
    if phase == "weights":
        return witems
    if phase == "acts":
        return aitems
    return witems + aitems  # concurrent: weights first


def base_policy(g: NetworkGraph, cfg: SearchConfig,
                fixed_weight_bits: dict[int, int] | None = None) -> QuantPolicy:
    """All-8 starting point with the encoded residual activations frozen at 8-bit."""
    weight_bits = {l.id: 8 for l in g.weighted_layers()}
    if fixed_weight_bits:
        weight_bits.update(fixed_weight_bits)
    act_bits = {t: 8 for t in g.encoded_tensors()}
    frozen_w = _frozen_ends(g, cfg.freeze_first_last)
    if fixed_weight_bits:
        frozen_w |= set(fixed_weight_bits)
    return QuantPolicy(weight_bits=weight_bits, act_bits=act_bits, frozen_weights=frozen_w,
                       frozen_acts=g.residual_tensors() & act_bits.keys())


def run_episode(g: NetworkGraph, agent: DDPGAgent, cfg: SearchConfig, episode: int,
                proxy: Dataset, pretrained: dict, ranges: dict[int, float],
                phase: str = "concurrent",
                fixed_weight_bits: dict[int, int] | None = None,
                anchor: bool = False) -> EpisodeRecord:
    """One episode: pick bits per decision item, enforce budgets, score by proxy QAT.

    With anchor=True the agent is bypassed and every item gets the nominal 8
    bits; enforcement then demotes greedily. search uses this for each
    phase's first warm-up episode so the replay buffer always holds the
    enforced baseline as a reference point.
    """
    items = decision_items(g, phase, cfg.freeze_first_last)
    policy = base_policy(g, cfg, fixed_weight_bits)

    obs_list = []
    prev = 0.0
    for lid, is_weight in items:
        obs = observe(g, lid, is_weight, prev)
        if anchor:
            bits, action = 8, BIT_MIDPOINT[8]
        else:
            bits, action = agent.act(obs, episode)
        obs_list.append(obs)
        prev = action
        if is_weight:
            policy.weight_bits[lid] = bits
        else:
            policy.act_bits[lid] = bits

    policy = enforce_rom(g, policy, cfg.budget)
    policy = enforce_ram(g, policy, cfg.budget)
    validate_policy(g, policy)
    report = footprint(g, policy)

    eval_policy = policy
    if phase == "weights":
        eval_policy = policy.copy()
        eval_policy.act_bits = {t: 32 for t in eval_policy.act_bits}

    weights = qat.copy_weights(pretrained)
    tc = qat.TrainConfig(epochs=QAT_EPOCHS, batch_size=cfg.batch_size,
                         lr=QAT_LR, seed=cfg.seed + episode)
    _, _, top1 = qat.train_qat(g, weights, eval_policy, dict(ranges), proxy, tc)

    # every transition of the episode shares the terminal reward
    for (lid, is_weight), obs in zip(items, obs_list):
        bits = policy.weight_bits[lid] if is_weight else policy.act_bits[lid]
        agent.buffer.push(obs, BIT_MIDPOINT[bits], top1)
    if episode >= cfg.warmup:
        agent.update()

    return EpisodeRecord(episode=episode, policy=policy, top1=top1,
                         rom_bytes=report.rom_total, ram_bytes=report.ram_peak,
                         phase=phase)


@dataclass
class SearchResult:
    best_policy: QuantPolicy
    best_record: EpisodeRecord
    history: list[EpisodeRecord]
    is_best: list[bool]
    pretrained: dict = field(repr=False, default_factory=dict)
    ranges: dict = field(repr=False, default_factory=dict)


def search(g: NetworkGraph, cfg: SearchConfig, dataset: Dataset,
           pretrained: dict | None = None, log=None) -> SearchResult:
    """Full policy search; returns the best policy and the episode history."""
    if pretrained is None:
        ptc = qat.TrainConfig(epochs=cfg.pretrain_epochs, batch_size=cfg.batch_size,
                              lr=cfg.pretrain_lr, seed=cfg.seed)
        pretrained, _ = qat.pretrain_float(g, dataset, ptc)
    calib = dataset.train[0][:256]
    ranges = calibrate_act_ranges(g, pretrained, calib)

    n_train = max(int(cfg.proxy_train_frac * dataset.n_train), 1)
    n_val = max(int(cfg.proxy_val_frac * (len(dataset) - dataset.n_train)), 1)
    proxy = make_proxy(dataset, n_train, n_val, seed=cfg.seed)

    history, is_best, fixed = [], [], None
    for k, phase in enumerate(PHASES[cfg.mode]):
        agent = DDPGAgent(cfg, cfg.seed + 1 + k)
        for e in range(cfg.episodes):
            rec = run_episode(g, agent, cfg, e, proxy, pretrained, ranges, phase=phase,
                              fixed_weight_bits=fixed, anchor=(e == 0))
            rec.episode = len(history)
            is_best.append(e == 0 or rec.top1 > best.top1)
            if is_best[-1]:
                best = rec
            history.append(rec)
        if log:
            name = phase if phase == "concurrent" else f"{phase} phase"
            log(f"{name} best top1 {best.top1:.4f} at episode {best.episode}")
        fixed = dict(best.policy.weight_bits)
    return SearchResult(best_policy=best.policy, best_record=best, history=history,
                        is_best=is_best, pretrained=pretrained, ranges=ranges)


def history_csv(records: list[EpisodeRecord], is_best: list[bool]) -> str:
    """Search history as CSV; floats via repr so parsing back is lossless."""
    buf = io.StringIO()
    buf.write("episode,top1,rom_bytes,ram_bytes,is_best\n")
    for rec, flag in zip(records, is_best):
        buf.write(f"{rec.episode},{rec.top1!r},{rec.rom_bytes},{rec.ram_bytes},"
                  f"{int(flag)}\n")
    return buf.getvalue()
