"""ROM/RAM footprint computation and budget enforcement by bitwidth demotion.

ROM holds, per weighted layer, what the container puts on the device: the
weight codes packed at their policy bits, 4 bytes per bias (the container
keeps one per output channel; the MobileNetV1 fixture counts three) and 8
bytes of requant (int32 multiplier and shift) per output channel, as the M1
constraint of Rusci et al. (arXiv 1905.13082) counts them. Not charged: host
metadata (float32 weight scales, shapes, clips, headers) and the on-device
scalar requant of each avg_pool, relu_clip and add_residual record, 8 bytes
per input (8 B on toycnn_mnist and MobileNetV1, 32 B on toy_residual).

RAM holds the activation tensors live at each step of the deterministic
schedule (graph_ir.liveness, worked out once per graph from each tensor's
span of steps, NetworkGraph.tensor_spans). Tensors at 32 bits (full-precision
placeholders, and the logits) cost 4 bytes per element and are never demoted.
A footprint adds each tensor's bytes to the steps of its span. Enforcement
counts ROM and per-step RAM once per call, with one dict of each tensor's
bytes at its current bits, then applies each demotion as a delta: it updates
the demoted tensor's entry, and takes the bytes saved off the ROM total or off
the steps of that tensor's span. The greedy order is the one a full recount
after every demotion gives: the largest tensor in bytes, at the first peak
step for RAM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from .errors import InfeasibleBudgetError, PolicyError
from .graph_ir import (
    NetworkGraph,
    check_ids,
    check_keys,
    decimal_id,
    is_int,
    liveness,
    read_json,
    topo_order,
)

VALID_BITS = (2, 4, 8, 32)
REQUANT_BYTES_PER_CHANNEL = 8
BIAS_BYTES = 4
DEMOTE = {8: 4, 4: 2}


@dataclass
class QuantPolicy:
    weight_bits: dict[int, int]
    act_bits: dict[int, int]
    frozen_weights: set[int] = field(default_factory=set)
    frozen_acts: set[int] = field(default_factory=set)

    def copy(self) -> "QuantPolicy":
        return QuantPolicy(dict(self.weight_bits), dict(self.act_bits),
                           set(self.frozen_weights), set(self.frozen_acts))

    def to_json(self) -> str:
        frozen = [f"w:{i}" for i in sorted(self.frozen_weights)]
        frozen += [f"a:{i}" for i in sorted(self.frozen_acts)]
        doc = {
            "weight_bits": {str(k): v for k, v in sorted(self.weight_bits.items())},
            "act_bits": {str(k): v for k, v in sorted(self.act_bits.items())},
            "frozen": frozen,
        }
        return json.dumps(doc, indent=1) + "\n"


def load_policy(path: str) -> QuantPolicy:
    """The policy in a file of the form QuantPolicy.to_json writes: JSON-integer bits
    keyed by decimal ids, and "w:<id>" or "a:<id>" frozen entries. Anything else,
    a key written twice or one of another name included, raises PolicyError."""
    doc = read_json(path, PolicyError)
    check_keys(doc, ("weight_bits", "act_bits", "frozen"), PolicyError)
    wb, ab = (_bits_table(doc, name) for name in ("weight_bits", "act_bits"))
    frozen = doc.get("frozen", [])
    if not isinstance(frozen, list):
        raise PolicyError("malformed policy file: frozen must be a list")
    fw, fa = set(), set()
    for item in frozen:
        tag, _, ident = item.partition(":") if isinstance(item, str) else ("", "", "")
        if tag not in ("w", "a"):
            raise PolicyError(f"malformed policy file: frozen entry {item!r} is not "
                              f"'w:<id>' or 'a:<id>'")
        (fw if tag == "w" else fa).add(_policy_id(ident, f"frozen entry {item!r}"))
    return QuantPolicy(wb, ab, fw, fa)


def _policy_id(key: str, where: str) -> int:
    """A layer or tensor id as to_json writes it: a decimal integer string."""
    ident = decimal_id(key)
    if ident is None:
        raise PolicyError(f"malformed policy file: {where} id {key!r} is not a decimal integer")
    return ident


def _bits_table(doc: dict, name: str) -> dict[int, int]:
    table = doc.get(name, {})
    if not isinstance(table, dict):
        raise PolicyError(f"malformed policy file: {name} must be an object")
    out = {}
    for k, v in table.items():
        if not is_int(v):
            raise PolicyError(f"malformed policy file: {name}[{k!r}] = {v!r} is not an integer")
        out[_policy_id(k, name)] = v
    return out


@dataclass(frozen=True)
class MemoryBudget:
    rom_bytes: int
    ram_bytes: int

    def __post_init__(self):
        if self.rom_bytes <= 0 or self.ram_bytes <= 0:
            raise ValueError("budgets must be strictly positive")


@dataclass
class FootprintReport:
    rom_total: int = 0
    rom_per_layer: dict[int, int] = field(default_factory=dict)
    ram_peak: int = 0
    ram_peak_step: int = -1
    per_step_ram: list[int] = field(default_factory=list)
    step_layer_ids: list[int] = field(default_factory=list)
    ram_peak_live: dict[int, int] = field(default_factory=dict)  # tensor id -> bytes


def validate_policy(g: NetworkGraph, p: QuantPolicy) -> None:
    """Raise PolicyError unless p gives valid bits to exactly the graph's
    weighted layers and encoded tensors, and freezes only those; check_ids
    names the ids at fault."""
    weighted, encoded = g.weighted_by_id(), g.encoded_tensors()
    check_ids(p.weight_bits, weighted, "weight_bits for layers", PolicyError)
    check_ids(p.act_bits, encoded, "act_bits for tensors", PolicyError)
    for k, v in chain(p.weight_bits.items(), p.act_bits.items()):
        if type(v) is not int or v not in VALID_BITS:  # == would pass 8.0
            raise PolicyError(f"bits for {k} must be in {VALID_BITS}, got {v!r}")
    check_ids(p.frozen_weights, weighted, "frozen weights of layers", PolicyError, exact=False)
    check_ids(p.frozen_acts, encoded, "frozen activations of tensors", PolicyError, exact=False)


def all_uniform_policy(g: NetworkGraph, weight_bits: int = 8, act_bits: int = 8) -> QuantPolicy:
    return QuantPolicy(
        weight_bits={l.id: weight_bits for l in g.weighted_layers()},
        act_bits={t: act_bits for t in g.encoded_tensors()},
    )


def weight_bytes(param_count: int, bits: int) -> int:
    return (param_count * bits + 7) // 8


def layer_rom_bytes(layer, bits: int) -> int:
    total = weight_bytes(layer.param_count, bits) + layer.bias_count * BIAS_BYTES
    if bits != 32:
        total += layer.out_channels * REQUANT_BYTES_PER_CHANNEL
    return total


def tensor_ram_bytes(g: NetworkGraph, p: QuantPolicy, tensor_id: int) -> int:
    numel = g.tensor_numel(tensor_id)
    bits = p.act_bits.get(tensor_id)
    if bits is None:
        if g.is_encoded(tensor_id):
            raise PolicyError(f"missing act_bits entry for live tensor {tensor_id}")
        return numel * 4  # the logits, unencoded at 32 bits
    return (numel * bits + 7) // 8


def rom_footprint(g: NetworkGraph, p: QuantPolicy) -> FootprintReport:
    per_layer = {}
    for lid, layer in g.weighted_by_id().items():
        if lid not in p.weight_bits:
            raise PolicyError(f"missing weight_bits entry for layer {lid}")
        per_layer[lid] = layer_rom_bytes(layer, p.weight_bits[lid])
    return FootprintReport(rom_total=sum(per_layer.values()), rom_per_layer=per_layer)


def _ram_steps(g: NetworkGraph, p: QuantPolicy) -> tuple[dict[int, int], list[int]]:
    """Each tensor's bytes, and per-step RAM: each tensor's bytes on every
    step of its span. Tensors go in the order they are produced, so a
    missing entry is reported for the tensor a step-by-step count would
    meet first."""
    size, steps = {}, [0] * len(topo_order(g))
    for t, span in g.tensor_spans().items():
        n = size[t] = tensor_ram_bytes(g, p, t)
        for i in span:
            steps[i] += n
    return size, steps


def _fill_ram(report: FootprintReport, g: NetworkGraph, p: QuantPolicy) -> FootprintReport:
    """Per-step RAM, its first peak and the tensors live there."""
    order, (size, steps) = topo_order(g), _ram_steps(g, p)
    report.step_layer_ids, report.per_step_ram = order, steps
    top = max(steps)
    if top > 0:
        i = steps.index(top)
        report.ram_peak, report.ram_peak_step = top, order[i]
        report.ram_peak_live = {t: size[t] for t in sorted(liveness(g)[i])}
    return report


def ram_footprint(g: NetworkGraph, p: QuantPolicy) -> FootprintReport:
    return _fill_ram(FootprintReport(), g, p)


def footprint(g: NetworkGraph, p: QuantPolicy) -> FootprintReport:
    return _fill_ram(rom_footprint(g, p), g, p)


def _demote_largest(bits: dict[int, int], ids, frozen: set[int], size: dict[int, int], nbytes):
    """Demote one step (8->4->2) the tensor of ids, neither frozen nor at 2
    bits, that takes the most bytes (size[id]); ties go to the higher
    bitwidth, then the lower id. Set its size to nbytes(id) at the new bits;
    return its id and the bytes the demotion saved, or None when no tensor
    is left to demote."""
    best = max(((size[i], bits[i], -i) for i in ids if i not in frozen and bits.get(i) in DEMOTE),
               default=None)
    if best is None:
        return None
    was, _, neg_id = best
    pick = -neg_id
    bits[pick] = DEMOTE[bits[pick]]
    size[pick] = nbytes(pick)
    return pick, was - size[pick]


def enforce_rom(g: NetworkGraph, p: QuantPolicy, b: MemoryBudget) -> QuantPolicy:
    """Demote the largest non-frozen weight tensor (8->4->2) until ROM fits."""
    out, layers, rom, size = p.copy(), g.weighted_by_id(), 0, {}
    for lid, layer in layers.items():  # rom_footprint's total, and each layer's weight bytes
        if lid not in out.weight_bits:
            raise PolicyError(f"missing weight_bits entry for layer {lid}")
        rom += layer_rom_bytes(layer, out.weight_bits[lid])
        size[lid] = weight_bytes(layer.param_count, out.weight_bits[lid])
    while rom > b.rom_bytes:
        demoted = _demote_largest(out.weight_bits, size, out.frozen_weights, size,
                                  lambda lid: weight_bytes(layers[lid].param_count,
                                                           out.weight_bits[lid]))
        if demoted is None:
            raise InfeasibleBudgetError(
                f"ROM budget {b.rom_bytes} B unreachable: every demotable weight tensor "
                f"is already at 2 bits or frozen")
        rom -= demoted[1]
    return out


def enforce_ram(g: NetworkGraph, p: QuantPolicy, b: MemoryBudget) -> QuantPolicy:
    """Demote the largest non-frozen activation tensor live at the peak step until RAM fits."""
    out = p.copy()
    size, steps = _ram_steps(g, out)
    while (top := max(steps)) > b.ram_bytes:
        i = steps.index(top)
        demoted = _demote_largest(out.act_bits, liveness(g)[i], out.frozen_acts, size,
                                  lambda t: tensor_ram_bytes(g, out, t))
        if demoted is None:
            raise InfeasibleBudgetError(
                f"RAM budget {b.ram_bytes} B unreachable at step of layer "
                f"{topo_order(g)[i]}: every live tensor is frozen or at 2 bits")
        t, saved = demoted
        for j in g.tensor_spans()[t]:
            steps[j] -= saved
    return out


def rom_csv(report: FootprintReport) -> str:
    lines = ["layer,rom_bytes"]
    lines += [f"{lid},{b}" for lid, b in sorted(report.rom_per_layer.items())]
    return "\n".join(lines) + "\n"


def ram_csv(report: FootprintReport) -> str:
    lines = ["step,ram_bytes"]
    lines += [f"{lid},{b}" for lid, b in zip(report.step_layer_ids, report.per_step_ram)]
    return "\n".join(lines) + "\n"
