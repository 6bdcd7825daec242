"""Independent reference implementations backing the test suite.

Every function here re-derives a quantity the package also computes, but by
a different route: pure-python integer arithmetic instead of vectorized
numpy, refcounted simulation instead of interval liveness, nested loops
instead of im2col. Tests compare the two unrelated code paths; agreement is
the evidence.
"""

from __future__ import annotations

import weakref
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np

from mcuq.errors import GraphValidationError, InfeasibleBudgetError
from mcuq.graph_ir import (
    WEIGHTED_KINDS,
    LayerSpec,
    NetworkGraph,
    derive,
    topo_order,
)
from mcuq.memory_model import MemoryBudget, QuantPolicy


# ---------------------------------------------------------------------------
# Exact integer rounding and requantization
# ---------------------------------------------------------------------------

def round_haz_ratio(num: int, den: int) -> int:
    """round(num / den) with ties away from zero, exact over python ints (den > 0)."""
    if num < 0:
        return -round_haz_ratio(-num, den)
    q, r = divmod(num, den)
    return q + (1 if 2 * r >= den else 0)


def code_boundary_values(clip: float, bits: int) -> np.ndarray:
    """float32 activations at the unsigned codes' rounding boundaries: the
    value nearest each (k + 1/2) * s, s = clip / (2**bits - 1), and the values
    1 and 2 ulps either side of it."""
    s = clip / ((1 << bits) - 1)
    mid = ((np.arange((1 << bits) - 1) + 0.5) * s).astype(np.float32)
    down, up = np.float32(0), np.float32(np.inf)
    lo, hi = np.nextafter(mid, down), np.nextafter(mid, up)
    return np.concatenate([np.nextafter(lo, down), lo, mid, hi, np.nextafter(hi, up)])


def ref_requant_params(m_real: float) -> tuple[int, int]:
    """Decompose a positive ratio as multiplier/2**shift, multiplier in [2**30, 2**31).

    Independent of frexp: scans for the power of two bracketing m_real, then
    rounds the mantissa at 31 bits. Mirrors the shift cap for tiny ratios.
    """
    num, den = float(m_real).as_integer_ratio()
    exp = 0
    while num < den:  # m < 0.5 ... scale up
        num *= 2
        exp -= 1
    while num >= 2 * den:  # m >= 1 ... scale down
        den *= 2
        exp += 1
    # now num/den in [0.5, 1) * 2 ... i.e. m_real = (num/den/2) * 2**(exp+1)
    mult = round_haz_ratio(num * (1 << 30), den)
    if mult == 1 << 31:
        mult >>= 1
        exp += 1
    shift = 31 - (exp + 1)
    if shift > 62:
        n2, d2 = float(m_real).as_integer_ratio()
        return round_haz_ratio(n2 * (1 << 62), d2), 62
    return mult, shift


def ref_requant(acc: int, mult: int, shift: int, lo: int, hi: int) -> int:
    """sat(round(acc * mult / 2**shift)) half away from zero, exact."""
    y = round_haz_ratio(acc * mult, 1 << shift)
    return min(max(y, lo), hi)


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------

def ref_pack(codes, bits: int, signed: bool = False) -> bytes:
    """Little-endian-in-byte packing, first value in the least significant bits."""
    mask = (1 << bits) - 1
    per_byte = 8 // bits
    vals = [int(v) & mask for v in np.asarray(codes).ravel().tolist()]
    out = bytearray((len(vals) + per_byte - 1) // per_byte)
    for i, v in enumerate(vals):
        out[i // per_byte] |= v << (bits * (i % per_byte))
    return bytes(out)


def ref_unpack(data: bytes, bits: int, n: int, signed: bool = False) -> list[int]:
    per_byte = 8 // bits
    mask = (1 << bits) - 1
    out = []
    for i in range(n):
        v = (data[i // per_byte] >> (bits * (i % per_byte))) & mask
        if signed and v >= 1 << (bits - 1):
            v -= 1 << bits
        out.append(v)
    return out


def seal(body: bytes) -> bytes:
    """body as a file that ByteReader accepts: with the trailer that ByteWriter
    appends, the CRC32 of every byte before it as a little-endian u32. Tests
    that build or patch a file by hand seal it, so its contents are checked."""
    return body + zlib.crc32(body).to_bytes(4, "little")


# What each of HEADER_SPOILS makes the load of a spoiled file say.
HEADER_SPOILS = {"magic": "bad magic", "version_1": "unsupported version 1",
                 "trailer": "CRC32 mismatch"}


def spoil_header(data: bytes, how: str) -> bytes:
    """A file that ByteWriter wrote, spoiled as HEADER_SPOILS names: another
    magic, or version 1, each re-sealed so the header check itself must raise,
    or one flipped bit in the trailer."""
    body = data[:-4]
    if how == "magic":
        return seal(b"XXXX" + body[4:])
    if how == "version_1":
        return seal(body[:4] + (1).to_bytes(4, "little") + body[8:])
    return data[:-1] + bytes([data[-1] ^ 0x80])


# ---------------------------------------------------------------------------
# Integer layer reference (nested loops over python ints)
# ---------------------------------------------------------------------------

def _pad_codes(x: list, p: int) -> list:
    """Zero-pad a (C, H, W) nested list spatially."""
    if p == 0:
        return x
    c = len(x)
    h, w = len(x[0]), len(x[0][0])
    out = [[[0] * (w + 2 * p) for _ in range(h + 2 * p)] for _ in range(c)]
    for ci in range(c):
        for yi in range(h):
            for xi in range(w):
                out[ci][yi + p][xi + p] = x[ci][yi][xi]
    return out


def _rq_lists(rq) -> tuple[list[int], list[int]]:
    m = [int(v) for v in np.atleast_1d(rq.multiplier).ravel().tolist()]
    s = [int(v) for v in np.atleast_1d(rq.shift).ravel().tolist()]
    return m, s


def _out_range(out_bits: int) -> tuple[int, int]:
    if out_bits == 32:
        return -(1 << 31), (1 << 31) - 1
    return 0, (1 << out_bits) - 1


def ref_layer_codes(layer: LayerSpec, rec, in_codes: list[np.ndarray]) -> np.ndarray:
    """Single-sample integer forward of one layer, mirrored in exact arithmetic.

    in_codes holds (C, H, W) int arrays. Accumulators, the multiplier/shift
    requantization, and saturation all run over unbounded python ints, so the
    result is the mathematically exact value of the declared semantics.
    """
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
    co, (ci, ih, iw) = layer.out_channels, layer.input_shape
    _, oh, ow = layer.output_shape
    lo, hi = _out_range(rec.out_bits)

    if layer.kind in WEIGHTED_KINDS:
        w = ref_unpack(rec.weight.packed, rec.weight.bits, rec.weight.numel,
                       signed=True)
        bias = [int(b) for b in rec.bias_int.tolist()]
        m, sh = _rq_lists(rec.requants[0])
        x = _pad_codes(in_codes[0].tolist(), p)
        out = np.zeros((co, oh, ow), dtype=np.int64)
        if layer.kind == "conv2d":
            for oc in range(co):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = bias[oc]
                        for c in range(ci):
                            for ky in range(kh):
                                for kx in range(kw):
                                    acc += x[c][oy * s + ky][ox * s + kx] * \
                                        w[((oc * ci + c) * kh + ky) * kw + kx]
                        out[oc, oy, ox] = ref_requant(acc, m[oc], sh[oc], lo, hi)
        elif layer.kind == "depthwise_conv2d":
            for c in range(co):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = bias[c]
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += x[c][oy * s + ky][ox * s + kx] * \
                                    w[(c * kh + ky) * kw + kx]
                        out[c, oy, ox] = ref_requant(acc, m[c], sh[c], lo, hi)
        elif layer.kind == "pointwise_conv2d":
            for oc in range(co):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = bias[oc]
                        for c in range(ci):
                            acc += x[c][oy][ox] * w[oc * ci + c]
                        out[oc, oy, ox] = ref_requant(acc, m[oc], sh[oc], lo, hi)
        else:  # fully_connected over the flattened (C, H, W) input
            flat = [x[c][yi][xi] for c in range(ci) for yi in range(ih)
                    for xi in range(iw)]
            n_in = len(flat)
            out = np.zeros((co,), dtype=np.int64)
            for oc in range(co):
                acc = bias[oc]
                for i, v in enumerate(flat):
                    acc += v * w[oc * n_in + i]
                out[oc] = ref_requant(acc, m[oc], sh[oc], lo, hi)
        return out.astype(np.int32)

    if layer.kind == "avg_pool":
        m, sh = _rq_lists(rec.requants[0])
        x = _pad_codes(in_codes[0].tolist(), p)
        out = np.zeros((co, oh, ow), dtype=np.int64)
        for c in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += x[c][oy * s + ky][ox * s + kx]
                    out[c, oy, ox] = ref_requant(acc, m[0], sh[0], lo, hi)
        return out.astype(np.int32)

    if layer.kind == "add_residual":
        ma, sa = _rq_lists(rec.requants[0])
        mb, sb = _rq_lists(rec.requants[1])
        a = in_codes[0].ravel().tolist()
        b = in_codes[1].ravel().tolist()
        out = []
        for va, vb in zip(a, b):
            ya = ref_requant(int(va), ma[0], sa[0], lo, hi)
            yb = ref_requant(int(vb), mb[0], sb[0], lo, hi)
            out.append(min(max(ya + yb, lo), hi))
        return np.asarray(out, dtype=np.int32).reshape(in_codes[0].shape)

    if layer.kind == "relu_clip":
        m, sh = _rq_lists(rec.requants[0])
        flat = [ref_requant(int(v), m[0], sh[0], lo, hi)
                for v in in_codes[0].ravel().tolist()]
        return np.asarray(flat, dtype=np.int32).reshape(in_codes[0].shape)

    raise AssertionError(f"no reference for kind {layer.kind}")


def ref_acc_range(layer: LayerSpec, rec, in_max: int) -> list[tuple[int, int, int]]:
    """Per output channel of a linear layer on input codes in [0, in_max], in
    python ints: (lo, hi) of its accumulator plus bias over every such input,
    each product at its own extreme, and the largest magnitude that a partial
    sum of its products can reach. avg_pool weights each tap 1, with no bias."""
    if rec.weight is None:
        taps = layer.kernel_h * layer.kernel_w
        return [(0, in_max * taps, in_max * taps)] * layer.out_channels
    out = []
    for row, b in zip(rec.weight.codes().reshape(len(rec.bias_int), -1).tolist(),
                      rec.bias_int.tolist()):
        low = sum(min(v * in_max, 0) for v in row)
        high = sum(max(v * in_max, 0) for v in row)
        out.append((low + b, high + b, max(high, -low)))
    return out


# ---------------------------------------------------------------------------
# Float conv2d reference (loops over output positions and kernel taps)
# ---------------------------------------------------------------------------

def ref_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int,
               dz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """conv2d z = w * x + b and, for an upstream gradient dz, (dw, dx).

    Walks every output position and kernel tap of the explicitly zero-padded
    input, contracting over channels only; no im2col, no strided view.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    p = padding
    oh, ow = (h + 2 * p - kh) // stride + 1, (wd + 2 * p - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=np.float64)
    xp[:, :, p:p + h, p:p + wd] = x
    z = np.zeros((n, o, oh, ow), dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    dxp = np.zeros(xp.shape, dtype=np.float64)
    for oy in range(oh):
        for ox in range(ow):
            z[:, :, oy, ox] = b
            g = dz[:, :, oy, ox]
            for ky in range(kh):
                for kx in range(kw):
                    iy, ix = oy * stride + ky, ox * stride + kx
                    z[:, :, oy, ox] += xp[:, :, iy, ix] @ w[:, :, ky, kx].T
                    dw[:, :, ky, kx] += g.T @ xp[:, :, iy, ix]
                    dxp[:, :, iy, ix] += g @ w[:, :, ky, kx]
    return z, dw, dxp[:, :, p:p + h, p:p + wd]


# ---------------------------------------------------------------------------
# Memory accounting
# ---------------------------------------------------------------------------

def sim_liveness(g: NetworkGraph) -> list[set[int]]:
    """Materializing execution: allocate on produce, free after the last consumer runs."""
    order = topo_order(g)
    remaining = Counter(t for l in g.layers for t in l.input_ids)  # reads, not readers
    alive: set[int] = set()
    live_steps: list[set[int]] = []
    for lid in order:
        layer = g.layer(lid)
        if layer.kind != "output":
            alive.add(lid)  # output buffer exists while the layer runs
        live_steps.append(set(alive))
        for t in layer.input_ids:
            remaining[t] -= 1
        # tensors whose consumers all ran (or that never had any) free here
        alive = {t for t in alive if remaining.get(t, 0) > 0}
    return live_steps


def live_set_breaches(g: NetworkGraph, pairs) -> list[tuple[int, int]]:
    """(step, tensor) for each array of pairs, the (tensor id, array) a walk
    yields in schedule order, that is still alive at a later yield although
    its tensor is not live at that step (sim_liveness) and it is not the very
    array of a tensor that is."""
    live, step_of = sim_liveness(g), {lid: i for i, lid in enumerate(topo_order(g))}
    refs: dict[int, weakref.ref] = {}
    breaches = []
    for t, y in pairs:
        refs[t] = weakref.ref(y)
        step = step_of[t]
        alive = {u: r() for u, r in refs.items()}  # None once collected
        held = {id(a) for u, a in alive.items() if u in live[step]}
        breaches += [(step, u) for u, a in alive.items() if a is not None and id(a) not in held]
        del alive  # holds the arrays until the next yield otherwise
    return breaches


def ref_tensor_bytes(g: NetworkGraph, policy: QuantPolicy, t: int) -> int:
    numel = g.tensor_numel(t)
    bits = policy.act_bits.get(t, 32)
    if bits == 32:
        return numel * 4
    return -(-numel * bits // 8)  # ceil division


def ref_rom(g: NetworkGraph, policy: QuantPolicy) -> int:
    total = 0
    for layer in g.weighted_layers():
        bits = policy.weight_bits[layer.id]
        wb = layer.param_count * 4 if bits == 32 else -(-layer.param_count * bits // 8)
        total += wb + layer.bias_count * 4
        if bits != 32:
            total += layer.out_channels * 8
    return total


def ref_ram(g: NetworkGraph, policy: QuantPolicy) -> tuple[int, list[int]]:
    steps = [sum(ref_tensor_bytes(g, policy, t) for t in live)
             for live in sim_liveness(g)]
    return max(steps), steps


def _ref_demote(bits: dict[int, int], ids, frozen: set[int], nbytes) -> bool:
    """Demote 8->4 or 4->2 the free id of most nbytes(id), then higher bits, then lower id."""
    free = sorted(i for i in ids if i not in frozen and bits.get(i) in (8, 4))
    if not free:
        return False
    best = free[0]
    for i in free[1:]:  # ascending ids: a later id wins only on strictly more bytes or bits
        if (nbytes(i), bits[i]) > (nbytes(best), bits[best]):
            best = i
    bits[best] //= 2
    return True


def ref_enforce(g: NetworkGraph, policy: QuantPolicy, budget: MemoryBudget) -> QuantPolicy:
    """Greedy ROM then RAM demotion, recounting ref_rom/ref_ram after every
    single step. ROM demotes the weighted layer whose packed weights take the
    most bytes; RAM demotes among the tensors live at the first peak step of
    sim_liveness. Raises InfeasibleBudgetError, with the package's message,
    when nothing demotable is left."""
    out = policy.copy()
    params = {l.id: l.param_count for l in g.weighted_layers()}
    while ref_rom(g, out) > budget.rom_bytes:
        if not _ref_demote(out.weight_bits, params, out.frozen_weights,
                           lambda i: -(-params[i] * out.weight_bits[i] // 8)):
            raise InfeasibleBudgetError(
                f"ROM budget {budget.rom_bytes} B unreachable: every demotable weight tensor "
                f"is already at 2 bits or frozen")
    live = sim_liveness(g)
    while True:
        peak, steps = ref_ram(g, out)
        if peak <= budget.ram_bytes:
            return out
        step = steps.index(peak)
        if not _ref_demote(out.act_bits, live[step], out.frozen_acts,
                           lambda t: ref_tensor_bytes(g, out, t)):
            raise InfeasibleBudgetError(
                f"RAM budget {budget.ram_bytes} B unreachable at step of layer "
                f"{topo_order(g)[step]}: every live tensor is frozen or at 2 bits")


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_grad(f, x: np.ndarray, indices, eps: float = 1e-5) -> dict[tuple, float]:
    """Central finite differences of scalar f at selected flat indices of x."""
    grads = {}
    flat = x.reshape(-1)
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + eps
        up = f()
        flat[idx] = orig - eps
        down = f()
        flat[idx] = orig
        grads[idx] = (up - down) / (2 * eps)
    return grads


# ---------------------------------------------------------------------------
# Random graph and policy generators
# ---------------------------------------------------------------------------

def _mk(id, kind, input_ids, out_channels, kh, kw, stride, padding, in_shape,
        out_shape=None, bias=0):
    """A LayerSpec of these decisions, its output_shape and param_count from
    derive; an out_shape given instead is kept, with param_count 0, for a
    window that derive cannot size."""
    layer = LayerSpec(id=id, kind=kind, input_ids=tuple(input_ids), out_channels=out_channels,
                      kernel_h=kh, kernel_w=kw, stride=stride, padding=padding,
                      input_shape=tuple(in_shape), output_shape=(), param_count=0,
                      bias_count=bias)
    return derive(layer) if out_shape is None else replace(layer, output_shape=tuple(out_shape))


def random_graph(rng: np.random.Generator, max_layers: int = 8) -> NetworkGraph:
    """Random small chain with optional residual branch, valid by construction."""
    c = int(rng.integers(1, 4))
    hw = int(rng.integers(4, 11))
    layers = [_mk(0, "input", [], c, 0, 0, 1, 0, (c, hw, hw))]
    n_body = int(rng.integers(1, max_layers - 1))
    fc_done = False
    for i in range(1, n_body + 1):
        shape = layers[-1].output_shape
        c, h, _ = shape
        choices = ["relu_clip"]
        if not fc_done:
            if h >= 2:
                choices += ["conv2d", "depthwise_conv2d", "avg_pool"]
            choices += ["pointwise_conv2d", "fully_connected"]
            prev_same = [l.id for l in layers[:-1] if l.output_shape == shape]
            if prev_same and rng.random() < 0.35:
                choices.append("add_residual")
        kind = choices[int(rng.integers(0, len(choices)))]
        bias = int(rng.integers(0, 2))
        inputs, co, kh, s, p = [i - 1], c, 0, 1, 0
        if kind in ("conv2d", "depthwise_conv2d"):
            kh = int(rng.integers(1, min(3, h) + 1))  # <= h, so the output is never empty
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2)) if kh > 1 else 0
            if kind == "conv2d":
                co = int(rng.integers(1, 5))
        elif kind == "pointwise_conv2d":
            co, kh = int(rng.integers(1, 5)), 1
        elif kind == "fully_connected":
            co, fc_done = int(rng.integers(2, 7)), True
        elif kind == "avg_pool":
            kh = s = int(rng.integers(1, h + 1))
        elif kind == "add_residual":
            inputs.append(prev_same[int(rng.integers(0, len(prev_same)))])
        layers.append(_mk(i, kind, inputs, co, kh, kh, s, p, shape,
                          bias=bias * co if kind in WEIGHTED_KINDS else 0))
    shape = layers[-1].output_shape
    layers.append(_mk(n_body + 1, "output", [n_body], shape[0], 0, 0, 1, 0, shape))
    return NetworkGraph(layers=tuple(layers), resolution=hw, width_multiplier=1.0)


def self_read_graphs(rng: np.random.Generator, n: int) -> list[NetworkGraph]:
    """n random_graph draws with an add_residual, the first of which is
    rewired to read one of its two inputs twice (random_graph never draws
    such a layer). Draws without an add, or that NetworkGraph rejects once
    rewired, are skipped."""
    out = []
    while len(out) < n:
        g = random_graph(rng)
        add = next((l for l in g.layers if l.kind == "add_residual"), None)
        if add is None:
            continue
        t = add.input_ids[int(rng.integers(0, 2))]
        layers = tuple(replace(l, input_ids=(t, t)) if l is add else l for l in g.layers)
        try:
            out.append(NetworkGraph(layers=layers, resolution=g.resolution,
                                    width_multiplier=g.width_multiplier))
        except GraphValidationError:
            continue
    return out


def random_policy(rng: np.random.Generator, g: NetworkGraph,
                  allow_fp32: bool = True) -> QuantPolicy:
    bits = (2, 4, 8, 32) if allow_fp32 else (2, 4, 8)
    return QuantPolicy(
        weight_bits={l.id: int(bits[rng.integers(0, len(bits))])
                     for l in g.weighted_layers()},
        act_bits={t: int(bits[rng.integers(0, len(bits))])
                  for t in g.encoded_tensors()},
    )


def random_enforce_case(rng: np.random.Generator, g: NetworkGraph | None = None):
    """A random graph (or g) and policy with about a fifth of its entries
    frozen, the (ROM, RAM) floor with every free sub-byte entry at 2 bits, and
    a budget drawn from a little below that floor up to the policy's own
    footprint."""
    g = random_graph(rng) if g is None else g
    p = random_policy(rng, g)
    p.frozen_weights = {k for k in p.weight_bits if rng.random() < 0.2}
    p.frozen_acts = {k for k in p.act_bits if rng.random() < 0.2}
    floor = p.copy()
    for bits, frozen in ((floor.weight_bits, p.frozen_weights),
                         (floor.act_bits, p.frozen_acts)):
        bits.update({k: 2 for k, v in bits.items() if k not in frozen and v != 32})
    lo = ref_rom(g, floor), ref_ram(g, floor)[0]
    hi = ref_rom(g, p), ref_ram(g, p)[0]
    rom, ram = (int(rng.integers(max(1, l - (h - l) // 8), max(1, h) + 1))
                for l, h in zip(lo, hi))
    return g, p, lo, MemoryBudget(rom_bytes=rom, ram_bytes=ram)

