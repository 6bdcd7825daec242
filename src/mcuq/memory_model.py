"""ROM/RAM footprint computation and budget enforcement by bitwidth demotion.

ROM holds weights (packed at their policy bits), biases (4 bytes each), and
per-output-channel requantization constants (8 bytes: integer multiplier plus
packed shift/zero-point). RAM holds the activation tensors live at each step
of the deterministic schedule. Tensors at 32 bits (full-precision
placeholders, and tensors feeding only the output sink) cost 4 bytes per
element and are never demoted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .errors import InfeasibleBudgetError, PolicyError
from .graph_ir import NetworkGraph, liveness, topo_order

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

    @staticmethod
    def from_json(text: str) -> "QuantPolicy":
        try:
            doc = json.loads(text)
            wb = {int(k): int(v) for k, v in doc.get("weight_bits", {}).items()}
            ab = {int(k): int(v) for k, v in doc.get("act_bits", {}).items()}
            fw, fa = set(), set()
            for item in doc.get("frozen", []):
                if isinstance(item, str) and item.startswith("w:"):
                    fw.add(int(item[2:]))
                elif isinstance(item, str) and item.startswith("a:"):
                    fa.add(int(item[2:]))
                else:
                    fa.add(int(item))
        except (json.JSONDecodeError, TypeError, ValueError, AttributeError) as e:
            raise PolicyError(f"malformed policy file: {e}") from e
        return QuantPolicy(wb, ab, fw, fa)


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


def validate_policy(g: NetworkGraph, p: QuantPolicy) -> None:
    for layer in g.weighted_layers():
        if layer.id not in p.weight_bits:
            raise PolicyError(f"missing weight_bits entry for layer {layer.id}")
    for t in g.encoded_tensors():
        if t not in p.act_bits:
            raise PolicyError(f"missing act_bits entry for tensor {t}")
    for k, v in list(p.weight_bits.items()) + list(p.act_bits.items()):
        if v not in VALID_BITS:
            raise PolicyError(f"bits for {k} must be in {VALID_BITS}, got {v}")


def all_uniform_policy(g: NetworkGraph, weight_bits: int = 8, act_bits: int = 8) -> QuantPolicy:
    return QuantPolicy(
        weight_bits={l.id: weight_bits for l in g.weighted_layers()},
        act_bits={t: act_bits for t in g.encoded_tensors()},
    )


def weight_bytes(param_count: int, bits: int) -> int:
    if bits == 32:
        return param_count * 4
    return (param_count * bits + 7) // 8


def layer_rom_bytes(layer, bits: int, include_overheads: bool = True) -> int:
    total = weight_bytes(layer.param_count, bits) + layer.bias_count * BIAS_BYTES
    if bits != 32 and include_overheads:
        total += layer.out_channels * REQUANT_BYTES_PER_CHANNEL
    return total


def tensor_ram_bytes(g: NetworkGraph, p: QuantPolicy, tensor_id: int) -> int:
    numel = g.tensor_numel(tensor_id)
    bits = p.act_bits.get(tensor_id)
    if bits is None:
        if g.is_encoded(tensor_id):
            raise PolicyError(f"missing act_bits entry for live tensor {tensor_id}")
        return numel * 4  # unencoded sink input (e.g. 32-bit logits)
    if bits == 32:
        return numel * 4
    return (numel * bits + 7) // 8


def rom_footprint(g: NetworkGraph, p: QuantPolicy,
                  include_overheads: bool = True) -> FootprintReport:
    report = FootprintReport()
    for layer in g.weighted_layers():
        if layer.id not in p.weight_bits:
            raise PolicyError(f"missing weight_bits entry for layer {layer.id}")
        b = layer_rom_bytes(layer, p.weight_bits[layer.id], include_overheads)
        report.rom_per_layer[layer.id] = b
        report.rom_total += b
    return report


def _fill_ram(report: FootprintReport, g: NetworkGraph, p: QuantPolicy,
              order: list[int], live: list[frozenset[int]]) -> FootprintReport:
    """Per-step RAM and its peak, given the schedule and its liveness table."""
    report.step_layer_ids = order
    for lid, tensors in zip(order, live):
        step_bytes = sum(tensor_ram_bytes(g, p, t) for t in sorted(tensors))
        report.per_step_ram.append(step_bytes)
        if step_bytes > report.ram_peak:
            report.ram_peak = step_bytes
            report.ram_peak_step = lid
    return report


def ram_footprint(g: NetworkGraph, p: QuantPolicy) -> FootprintReport:
    return _fill_ram(FootprintReport(), g, p, topo_order(g), liveness(g))


def footprint(g: NetworkGraph, p: QuantPolicy,
              include_overheads: bool = True) -> FootprintReport:
    return _fill_ram(rom_footprint(g, p, include_overheads), g, p,
                     topo_order(g), liveness(g))


def check_constraints(g: NetworkGraph, p: QuantPolicy, b: MemoryBudget,
                      include_overheads: bool = True) -> dict:
    report = footprint(g, p, include_overheads)
    return {
        "m1_ok": report.rom_total <= b.rom_bytes,
        "m2_ok": report.ram_peak <= b.ram_bytes,
        "report": report,
    }


def _demote_pick(candidates):
    """Largest current byte footprint wins; ties prefer the higher bitwidth, then the lower id."""
    return max(candidates, key=lambda c: (c[1], c[2], -c[0]))[0]


def enforce_rom(g: NetworkGraph, p: QuantPolicy, b: MemoryBudget,
                include_overheads: bool = True) -> QuantPolicy:
    """Demote the largest non-frozen weight tensor (8->4->2) until ROM fits."""
    out = p.copy()
    while rom_footprint(g, out, include_overheads).rom_total > b.rom_bytes:
        candidates = [
            (l.id, weight_bytes(l.param_count, out.weight_bits[l.id]), out.weight_bits[l.id])
            for l in g.weighted_layers()
            if l.id not in out.frozen_weights and out.weight_bits[l.id] in DEMOTE
        ]
        if not candidates:
            raise InfeasibleBudgetError(
                f"ROM budget {b.rom_bytes} B unreachable: every demotable weight tensor "
                f"is already at 2 bits or frozen")
        lid = _demote_pick(candidates)
        out.weight_bits[lid] = DEMOTE[out.weight_bits[lid]]
    return out


def enforce_ram(g: NetworkGraph, p: QuantPolicy, b: MemoryBudget) -> QuantPolicy:
    """Demote the largest non-frozen activation tensor live at the peak step until RAM fits."""
    out = p.copy()
    order, live = topo_order(g), liveness(g)
    while True:
        report = _fill_ram(FootprintReport(), g, out, order, live)
        if report.ram_peak <= b.ram_bytes:
            return out
        peak_tensors = live[order.index(report.ram_peak_step)]
        candidates = [
            (t, tensor_ram_bytes(g, out, t), out.act_bits[t])
            for t in sorted(peak_tensors)
            if t in out.act_bits and t not in out.frozen_acts and out.act_bits[t] in DEMOTE
        ]
        if not candidates:
            raise InfeasibleBudgetError(
                f"RAM budget {b.ram_bytes} B unreachable at step of layer "
                f"{report.ram_peak_step}: every live tensor is frozen or at 2 bits")
        t = _demote_pick(candidates)
        out.act_bits[t] = DEMOTE[out.act_bits[t]]


def rom_csv(report: FootprintReport) -> str:
    lines = ["layer,rom_bytes"]
    lines += [f"{lid},{b}" for lid, b in sorted(report.rom_per_layer.items())]
    return "\n".join(lines) + "\n"


def ram_csv(report: FootprintReport) -> str:
    lines = ["step,ram_bytes"]
    lines += [f"{lid},{b}" for lid, b in zip(report.step_layer_ids, report.per_step_ram)]
    return "\n".join(lines) + "\n"
