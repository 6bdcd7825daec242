"""Output checks. They run outside the timed region and are never skipped.

Integer codes are compared layer by layer with exact arithmetic: the toy
models against ``oracles.ref_layer_codes`` in full, MobileNetV1 at seeded
output positions (the full oracle is too slow at 224x224). Budget
enforcement is compared with ``oracles.ref_rom``/``ref_ram``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import oracles

from tracing import rebound


@contextmanager
def captured_layers():
    """Record (input codes, output codes) of every ``run_codes_layer`` call, by layer id."""
    seen: dict[int, tuple[list, np.ndarray]] = {}

    def make(fn):
        def capture(layer, rec, in_codes, *args, **kwargs):
            out = fn(layer, rec, in_codes, *args, **kwargs)
            seen[layer.id] = (list(in_codes), out)
            return out
        return capture

    with rebound({("mcuq.inference", "run_codes_layer"): make}):
        yield seen


def oracle_mismatches(g, model, images) -> tuple[np.ndarray, list[str]]:
    """Integer scores of ``images`` and every layer whose codes differ from the oracle."""
    from mcuq import inference

    with captured_layers() as seen:
        scores = inference.run_batch_int(g, model, images)
    bad = []
    for lid, (ins, out) in sorted(seen.items()):
        layer, rec = g.layer(lid), model.layers[lid]
        for j in range(len(images)):
            ref = oracles.ref_layer_codes(layer, rec, [x[j] for x in ins])
            if not np.array_equal(ref, out[j]):
                bad.append(f"layer {lid} ({layer.kind}) image {j}: codes differ from oracle")
    if len(seen) != len(model.layers):
        bad.append("not every compute layer ran")
    return scores, bad


def _weight_code(packed: bytes, bits: int, idx: int) -> int:
    per = 8 // bits
    v = (packed[idx // per] >> (bits * (idx % per))) & ((1 << bits) - 1)
    return v - (1 << bits) if v >= 1 << (bits - 1) else v


def _exact_at(layer, rec, x: list, pos: tuple[int, int, int]) -> int:
    """One output code of one layer over python ints; x is the (C, H, W) input as lists."""
    oc, oy, ox = pos
    kind = layer.kind
    ci, ih, iw = layer.input_shape
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding

    def at(c, y, xx):
        y, xx = y - p, xx - p
        return x[c][y][xx] if 0 <= y < ih and 0 <= xx < iw else 0

    def w(i):
        return _weight_code(rec.weight.packed, rec.weight.bits, i)

    if kind == "conv2d":
        acc = sum(at(c, oy * s + ky, ox * s + kx) * w(((oc * ci + c) * kh + ky) * kw + kx)
                  for c in range(ci) for ky in range(kh) for kx in range(kw))
    elif kind == "depthwise_conv2d":
        acc = sum(at(oc, oy * s + ky, ox * s + kx) * w((oc * kh + ky) * kw + kx)
                  for ky in range(kh) for kx in range(kw))
    elif kind == "pointwise_conv2d":
        acc = sum(x[c][oy][ox] * w(oc * ci + c) for c in range(ci))
    elif kind == "fully_connected":
        flat = [v for plane in x for row in plane for v in row]
        acc = sum(v * w(oc * len(flat) + i) for i, v in enumerate(flat))
    elif kind == "avg_pool":
        acc = sum(at(oc, oy * s + ky, ox * s + kx) for ky in range(kh) for kx in range(kw))
    else:
        raise AssertionError(f"no sampled oracle for {kind}")
    if rec.bias_int is not None:
        acc += int(rec.bias_int[oc])
    rq = rec.requants[0]
    ch = oc if np.size(rq.multiplier) > 1 else 0
    mult = int(np.atleast_1d(rq.multiplier)[ch])
    shift = int(np.atleast_1d(rq.shift)[ch])
    lo, hi = ((-(1 << 31), (1 << 31) - 1) if rec.out_bits == 32
              else (0, (1 << rec.out_bits) - 1))
    return oracles.ref_requant(acc, mult, shift, lo, hi)


def sampled_mismatches(g, model, image, rng, per_layer: int) -> tuple[np.ndarray, list[str]]:
    """Single-image integer scores, checked at ``per_layer`` seeded positions of every layer."""
    from mcuq import inference

    with captured_layers() as seen:
        scores, _ = inference.run_network_int(g, model, image)
    bad = []
    for lid, (ins, out) in sorted(seen.items()):
        layer, rec = g.layer(lid), model.layers[lid]
        x = ins[0][0].tolist()
        out = out[0].reshape(layer.output_shape)
        for _ in range(per_layer):
            pos = tuple(int(rng.integers(0, d)) for d in layer.output_shape)
            if _exact_at(layer, rec, x, pos) != int(out[pos]):
                bad.append(f"layer {lid} ({layer.kind}) at {pos}: code differs from exact value")
    if len(seen) != len(model.layers):
        bad.append("not every compute layer ran")
    return scores, bad


def budget_mismatches(g, policy, budget, rom: int, ram: int) -> list[str]:
    """An enforced policy must fit its budget, and its footprint must match the oracles."""
    ref_rom = oracles.ref_rom(g, policy)
    ref_ram, _ = oracles.ref_ram(g, policy)
    bad = []
    bits = list(policy.weight_bits.values()) + list(policy.act_bits.values())
    if any(b not in (2, 4, 8) for b in bits):
        bad.append("enforced policy holds bits outside 2/4/8")
    if rom != ref_rom or ram != ref_ram:
        bad.append(f"footprint {rom}/{ram} B != oracle {ref_rom}/{ref_ram} B")
    if ref_rom > budget.rom_bytes or ref_ram > budget.ram_bytes:
        bad.append(f"footprint {ref_rom}/{ref_ram} B exceeds budget "
                   f"{budget.rom_bytes}/{budget.ram_bytes} B")
    return bad
