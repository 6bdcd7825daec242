"""Training loop: forward/backward, Adam, fake-quant training, checkpoints."""

import contextlib
import functools
import itertools
import math
import re
import struct

import numpy as np
import pytest

import oracles
from conftest import fresh_ranges
from mcuq import kernels, qat
from mcuq.data import Dataset, synthetic_shapes
from mcuq.errors import (
    McuqError,
    ModelMismatchError,
    PackFormatError,
    PolicyError,
    TrainingDivergedError,
)
from mcuq.graph_ir import COMPUTE_KINDS, WEIGHTED_KINDS, NetworkGraph
from mcuq.memory_model import all_uniform_policy
from mcuq.quantizer import CLIP_FLOOR, ByteReader, calibrate_act_ranges, percentile_clip


def tiny_fc_graph(cin=2, classes=3):
    layers = (
        oracles._mk(0, "input", [], cin, 0, 0, 1, 0, (cin, 1, 1)),
        oracles._mk(1, "fully_connected", [0], classes, 0, 0, 1, 0, (cin, 1, 1), bias=classes),
        oracles._mk(2, "output", [1], classes, 0, 0, 1, 0, (classes, 1, 1)),
    )
    return NetworkGraph(layers=layers, resolution=1, width_multiplier=1.0)


# ---------------------------------------------------------------------------
# Initialization and plumbing
# ---------------------------------------------------------------------------

def test_init_weights_shapes_and_determinism(toy_graph):
    a = qat.init_weights(toy_graph, seed=4)
    b = qat.init_weights(toy_graph, seed=4)
    c = qat.init_weights(toy_graph, seed=5)
    assert sorted(a) == [1, 2, 3, 4, 6]
    assert a[1]["w"].shape == (4, 1, 3, 3)
    assert a[6]["w"].shape == (10, 32)
    assert not a[3]["b"].any()
    for lid in a:
        assert np.array_equal(a[lid]["w"], b[lid]["w"])
    assert not np.array_equal(a[1]["w"], c[1]["w"])


def test_copy_weights_is_deep(toy_graph):
    w = qat.init_weights(toy_graph)
    w2 = qat.copy_weights(w)
    w2[1]["w"][0, 0, 0, 0] += 1.0
    assert w[1]["w"][0, 0, 0, 0] != w2[1]["w"][0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_fc_hand_case():
    g = tiny_fc_graph()
    weights = {1: {"w": np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]],
                                 dtype=np.float32),
                   "b": np.array([0.1, 0.2, -0.3], dtype=np.float32)}}
    x = np.array([[[[0.5]], [[2.0]]]], dtype=np.float32)  # (1, 2, 1, 1)
    logits, _ = qat.forward_network(g, weights, x)
    want = np.array([0.5 + 4.0 + 0.1, -2.0 + 0.2, 1.5 + 1.0 - 0.3])
    assert np.allclose(logits[0], want, atol=1e-6)


def test_forward_avgpool_and_relu(toy_graph, pretrained, desk_small):
    weights, _ = pretrained
    logits, _ = qat.forward_network(toy_graph, weights, desk_small.images[:4])
    assert logits.shape == (4, 10)
    assert np.isfinite(logits).all()


def test_forward_of_an_encoded_tensor_without_a_clip_raises(toy_graph, pretrained, toy_ranges,
                                                           desk_small):
    """A policy that encodes a tensor at fewer than 32 bits needs its clip."""
    policy = all_uniform_policy(toy_graph)
    for ranges in (None, {t: r for t, r in toy_ranges.items() if t != 3}):
        with pytest.raises(PolicyError, match="no activation range for tensor "):
            qat.forward_network(toy_graph, pretrained[0], desk_small.images[:2], policy=policy,
                                ranges=ranges)


def test_forward_avg_pool_is_the_window_mean():
    """A non-square pool whose windows overlap and reach into the zero padding
    averages each window over its full area, padding included."""
    c, h, w, kh, kw, s, p = 2, 5, 7, 3, 2, 1, 1
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    layers = (
        oracles._mk(0, "input", [], c, 0, 0, 1, 0, (c, h, w)),
        oracles._mk(1, "avg_pool", [0], c, kh, kw, s, p, (c, h, w)),
        oracles._mk(2, "output", [1], c, 0, 0, 1, 0, (c, oh, ow)),
    )
    g = NetworkGraph(layers=layers, resolution=h, width_multiplier=1.0)
    x = np.random.default_rng(0).uniform(0, 1, size=(3, c, h, w)).astype(np.float32)
    z, _ = qat.forward_network(g, {}, x)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    want = np.array([[[xp[n, ch, y * s:y * s + kh, u * s:u * s + kw].mean()
                       for u in range(ow)] for y in range(oh)]
                     for n in range(3) for ch in range(c)]).reshape(3, c, oh, ow)
    assert np.allclose(z, want, rtol=1e-6)


def test_forward_residual_add(residual_graph):
    weights = qat.init_weights(residual_graph, seed=1)
    x = np.random.default_rng(0).uniform(0, 1, size=(2, 3, 8, 8)).astype(np.float32)
    logits, _ = qat.forward_network(residual_graph, weights, x)
    assert logits.shape == (2, 5)
    assert np.isfinite(logits).all()


def _has_weighted_ancestor(g, layer) -> bool:
    todo, seen = list(layer.input_ids), set()
    while todo:
        up = g.layer(todo.pop())
        if up.kind in WEIGHTED_KINDS:
            return True
        if up.id not in seen:
            seen.add(up.id)
            todo.extend(up.input_ids)
    return False


def test_backward_matches_finite_differences_on_random_graphs():
    """Float-mode weight and bias grads of backward_network against central
    differences, until every compute kind has run downstream of a weighted
    layer: there its input grad feeds a checked weight grad."""
    rng = np.random.default_rng(11)
    want = frozenset(COMPUTE_KINDS + ("relu_clip",))
    covered, graphs = set(), 0
    while covered < want:
        graphs += 1
        assert graphs <= 200, f"random graphs never covered {sorted(want - covered)}"
        g = oracles.random_graph(rng)
        weights = qat.init_weights(g, seed=graphs)
        for entry in weights.values():  # float64 keeps the differences exact enough
            entry["w"] = entry["w"].astype(np.float64)
            entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape)
        x = rng.uniform(0.1, 1.0, size=(2,) + g.input_layer.output_shape)
        logits, cache = qat.forward_network(g, weights, x, train=True)
        r = rng.normal(size=logits.shape).astype(np.float32)  # loss = sum(r * logits)
        grads = qat.backward_network(g, cache, r)
        out_id = g.output_layer.input_ids[0]

        def loss():
            return float((dict(qat._walk(g, weights, x))[out_id] * r).sum())

        for lid, entry in weights.items():
            for key in ("w", "b"):
                arr = entry[key]
                idx = rng.choice(arr.size, size=min(arr.size, 4), replace=False).tolist()
                fd = oracles.fd_grad(loss, arr, idx, eps=1e-6)
                got = grads[key, lid].reshape(-1)
                for i in idx:
                    assert got[i] == pytest.approx(fd[i], rel=1e-4, abs=1e-6), \
                        f"graph {graphs} {key}.{lid}[{i}]"
        covered |= {l.kind for l in g.layers if _has_weighted_ancestor(g, l)} & want


class _Tap:
    """Stands in for a cache entry's act_over and keeps the gradient dy that
    backward_network multiplies by it: numpy hands dy * tap to __rmul__."""
    __array_ufunc__ = None

    def __rmul__(self, dy):
        self.dy = dy.copy()
        return np.zeros_like(dy)


def _tapped_backward(g, cache, dlogits, ids, cut=None):
    """backward_network on a copy of cache whose entries of ids carry a _Tap,
    and whose entry of the layer cut, if given, masks all of its gradient;
    the taps by id."""
    entries = [dict(e) for e in cache]
    by_id = {e["layer"].id: e for e in entries}
    taps = {lid: _Tap() for lid in ids}
    for lid, tap in taps.items():
        by_id[lid]["act_over"] = tap
    if cut is not None:
        by_id[cut.id]["mask"] = np.zeros((len(dlogits),) + cut.output_shape, bool)
    qat.backward_network(g, entries, dlogits)
    return taps


def test_backward_sends_twice_the_gradient_into_a_tensor_read_twice():
    """Random graphs whose add reads tensor t twice, under random sub-byte
    policies: cutting the add's gradient (a zero mask) takes twice the add's
    input gradient off t's gradient, to float32 rounding of the other reads."""
    rng = np.random.default_rng(71)
    moved = 0
    for i, g in enumerate(oracles.self_read_graphs(rng, 12)):
        add = next(l for l in g.layers if l.kind == "add_residual"
                   and l.input_ids[0] == l.input_ids[1])
        t = add.input_ids[0]
        weights = qat.init_weights(g, seed=i)
        x = rng.uniform(0.1, 1.0, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        policy = oracles.random_policy(rng, g, allow_fp32=False)
        logits, cache = qat.forward_network(g, weights, x, policy,
                                            calibrate_act_ranges(g, weights, x), train=True)
        dlogits = rng.normal(size=logits.shape).astype(np.float32)
        full = _tapped_backward(g, cache, dlogits, (t, add.id))
        cut = _tapped_backward(g, cache, dlogits, (t,), cut=add)
        entry = next(e for e in cache if e["layer"] is add)
        dz = full[add.id].dy * entry["mask"] if "mask" in entry else full[add.id].dy
        scale = max(np.abs(full[t].dy).max(), np.abs(cut[t].dy).max())
        np.testing.assert_allclose(full[t].dy - cut[t].dy, 2 * dz, rtol=0, atol=1e-6 * scale)
        moved += bool(dz.any())
    assert moved >= 6


def _conv2d_cases(stride, padding):
    """Every kernel of sides {1, 2, 3, 5} that fits the padded input, on odd and
    even input sides and on one and three images."""
    for (kh, kw), (h, w), n in itertools.product(
            itertools.product((1, 2, 3, 5), repeat=2), ((5, 8), (8, 5)), (1, 3)):
        if kh <= h + 2 * padding and kw <= w + 2 * padding:
            yield kh, kw, h, w, n


def _window_operands(layer, draw, dtype, pool_value):
    """(w, b, dense w) of a window layer: w and b from draw(shape), or
    pool_weight's constant pool_value for avg_pool, and w as the conv2d weight
    oracles.ref_conv2d takes, diagonal for the per-channel kinds."""
    if layer.kind == "avg_pool":
        w, b = kernels.pool_weight(layer, pool_value, dtype)
    else:
        w, b = (draw(shape).astype(dtype) for shape in (layer.weight_shape, (layer.out_channels,)))
    if layer.kind == "conv2d":
        return w, b, w
    dense = np.zeros((len(b),) + w.shape, dtype)
    dense[np.arange(len(b)), np.arange(len(b))] = w
    return w, b, dense


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_matches_loop_reference(stride, padding):
    """conv2d, depthwise_conv2d and avg_pool forward, dw and dx against
    oracles.ref_conv2d over a geometry grid, the per-channel kinds through a
    diagonal weight (dw is the diagonal of the reference's): exact on
    integer-valued float64 operands (every partial sum is an exact integer),
    within 1e-5 relative in float32. avg_pool weights its taps by 1 in float64,
    as the integer engine does, and by 1/area in float32, as training does."""
    rng = np.random.default_rng([stride, padding])
    for kind, (kh, kw, h, w, n) in itertools.product(
            ("conv2d", "depthwise_conv2d", "avg_pool"), _conv2d_cases(stride, padding)):
        c = 2
        o = 3 if kind == "conv2d" else c
        layer = oracles._mk(1, kind, [0], o, kh, kw, stride, padding, (c, h, w), bias=o)
        diag = np.arange(o) if kind != "conv2d" else slice(None)
        x = rng.integers(-8, 8, size=(n, c, h, w)).astype(np.float64)
        wt, b, dense = _window_operands(layer, lambda shape: rng.integers(-8, 8, size=shape),
                                        np.float64, 1)
        dz = rng.integers(-8, 8, size=(n,) + layer.output_shape).astype(np.float64)
        case = f"{kind} k={kh}x{kw} hw={h}x{w} n={n}"
        z, cols = kernels.linear_fwd(layer, x, wt, b)
        dx, dw, db = kernels.linear_bwd(layer, dz, cols, wt, x.shape)
        rz, rdw, rdx = oracles.ref_conv2d(x, dense, b, stride, padding, dz)
        assert z.flags.c_contiguous, case
        assert np.array_equal(z, rz) and np.array_equal(dx, rdx), case
        if kind == "avg_pool":
            assert dw is None and db is None, case
        else:
            assert np.array_equal(dw, rdw[diag, diag]), case
            assert np.array_equal(db, dz.sum(axis=(0, 2, 3))), case

        x, dz = (rng.normal(size=a.shape).astype(np.float32) for a in (x, dz))
        wt, b, dense = _window_operands(layer, lambda shape: rng.normal(size=shape),
                                        np.float32, 1 / (kh * kw))
        z, cols = kernels.linear_fwd(layer, x, wt, b)
        dx, dw, _ = kernels.linear_bwd(layer, dz, cols, wt, x.shape)
        rz, rdw, rdx = oracles.ref_conv2d(x, dense, b, stride, padding, dz)
        pairs = [(z, rz), (dx, rdx)] + ([] if dw is None else [(dw, rdw[diag, diag])])
        for got, want in pairs:
            assert got.dtype == np.float32, case
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max(),
                                       err_msg=case)


@pytest.mark.parametrize("kind", ["depthwise_conv2d", "avg_pool"])
@pytest.mark.parametrize("stride, padding, k", [(1, 1, 3), (2, 1, 3), (2, 0, 2), (3, 2, 4)])
def test_window_channel_blocks_match_reference(monkeypatch, kind, stride, padding, k):
    """depthwise_conv2d and avg_pool with CONV_BLOCK small enough for several
    channel blocks with a remainder (3 + 3 + 1 channels), and for blocks below
    one channel's row (one channel each): exact against oracles.ref_conv2d on
    integer-valued float64 operands, and float32 z bit-identical to one block."""
    rng = np.random.default_rng([stride, padding, k])
    c, n, h, w = 7, 2, 9, 8
    layer = oracles._mk(1, kind, [0], c, k, k, stride, padding, (c, h, w), bias=c)
    m = kernels._geometry(layer, (n, c, h, w))[4]  # the positions the kernel computes
    assert c * m <= kernels.CONV_BLOCK  # one block unpatched
    x = rng.integers(-8, 8, size=(n, c, h, w)).astype(np.float64)
    wt, b, dense = _window_operands(layer, lambda shape: rng.integers(-8, 8, size=shape),
                                    np.float64, 1)
    rz, _, _ = oracles.ref_conv2d(x, dense, b, stride, padding,
                                  np.zeros((n,) + layer.output_shape))
    x32 = rng.normal(size=x.shape).astype(np.float32)
    w32, b32, _ = _window_operands(layer, lambda shape: rng.normal(size=shape),
                                   np.float32, 1 / (k * k))
    one_block = kernels.linear_fwd(layer, x32, w32, b32)[0]
    for block in (3 * m, 3 * m + m // 2, m - 1, 1):
        monkeypatch.setattr(kernels, "CONV_BLOCK", block)
        z, _ = kernels.linear_fwd(layer, x, wt, b)
        assert np.array_equal(z, rz), block
        z32, _ = kernels.linear_fwd(layer, x32, w32, b32)
        assert z32.dtype == np.float32 and z32.tobytes() == one_block.tobytes(), block


@pytest.mark.parametrize("kind", ["depthwise_conv2d", "avg_pool"])
@pytest.mark.parametrize("stride, padding, k", [(1, 1, 3), (2, 0, 2)])
@pytest.mark.parametrize("n, hw", [(2, 6), (1, 130)], ids=["short_rows", "long_rows"])
def test_channel_loops_change_no_window_result(monkeypatch, caller_bufsize, kind, stride,
                                               padding, k, n, hw):
    """Under any buffer size of the caller's, linear_acc on int32 codes,
    linear_fwd and linear_bwd of the per-channel kinds give the bits they give
    with their channel loops unscoped at numpy's default buffer, and leave the
    caller's size set. The short rows (18 or 96 positions a channel) are ones
    numpy buffers at its default size, the long ones (4225 or 17160) are not."""
    rng = np.random.default_rng([stride, k, hw])
    c = 16  # several channel blocks at the long rows
    layer = oracles._mk(1, kind, [0], c, k, k, stride, padding, (c, hw, hw), bias=c)
    x, dz = (rng.normal(size=(n,) + s).astype(np.float32)
             for s in (layer.input_shape, layer.output_shape))
    w, b, _ = _window_operands(layer, lambda shape: rng.normal(size=shape), np.float32,
                               1 / (k * k))
    codes = rng.integers(0, 256, size=x.shape).astype(np.int32)
    wc = (kernels.pool_weight(layer, 1, np.int32)[0] if kind == "avg_pool"
          else rng.integers(-128, 128, size=w.shape)).astype(np.float64)

    def run():
        z, cols = kernels.linear_fwd(layer, x, w, b)
        return (kernels.linear_acc(layer, codes, wc)[0], z) + \
            kernels.linear_bwd(layer, dz, cols, w, x.shape)

    got = run()
    assert np.getbufsize() == caller_bufsize
    monkeypatch.setattr(kernels, "channel_loops", contextlib.nullcontext)
    np.setbufsize(8192)
    for g, want in zip(got, run(), strict=True):
        assert (g is None) == (want is None)
        assert g is None or (g.dtype == want.dtype and np.array_equal(g, want))


def _row_blocks(oh: int, run: int):
    """(positions per block, what they cover) of a conv2d with oh output rows
    of run positions, where oh and run allow: several whole-row blocks and a
    shorter last one, chunks below one row, the last one shorter, and blocks
    that leave a last one of a single position, which the kernel joins to the
    one before (numpy multiplies a single position as a vector, in another
    order, so its float32 sums may differ by rounding)."""
    rows = next((r for r in range(2, oh) if oh % r), None)
    if rows is not None:
        yield rows * run, "whole-row blocks"
    if run > 4:
        yield run - 2, "chunks of a row"
    if run > 2:
        yield run - 1, "a last chunk of one position"
    rows = next((r for r in range(2, oh) if oh % r == 1), None)
    if run == 1 and rows is not None:
        yield rows, "a last row of one position"
    if oh * run > 1:
        yield 1, "blocks of one position"


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_blocks_match_reference(monkeypatch, stride, padding):
    """conv2d with CONV_BLOCK small enough for several whole-row im2col blocks
    with a shorter last one, for chunks below one output row, and for blocks
    that leave a last one of a single position: forward, dw and dx exact
    against oracles.ref_conv2d on integer-valued float64 operands, and
    float32 z and dx bit-identical to one block."""
    rng = np.random.default_rng([stride, padding, 7])
    c, o, h, w = 2, 3, 11, 7
    covered = set()
    for (kh, kw), n in itertools.product(itertools.product((1, 2, 3, 5), repeat=2), (1, 3)):
        oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
        layer = oracles._mk(1, "conv2d", [0], o, kh, kw, stride, padding, (c, h, w), bias=o)
        assert kernels._geometry(layer, (n, c, h, w))[4] == oh * ow * n
        x = rng.integers(-8, 8, size=(n, c, h, w)).astype(np.float64)
        wt, b = (rng.integers(-8, 8, size=shape).astype(np.float64)
                 for shape in (layer.weight_shape, (o,)))
        dz = rng.integers(-8, 8, size=(n, o, oh, ow)).astype(np.float64)
        rz, rdw, rdx = oracles.ref_conv2d(x, wt, b, stride, padding, dz)
        x32, w32, b32, dz32 = (rng.normal(size=a.shape).astype(np.float32)
                               for a in (x, wt, b, dz))
        assert kh * kw * c * oh * ow * n <= kernels.CONV_BLOCK  # one block unpatched
        z, cols = kernels.linear_fwd(layer, x32, w32, b32)
        one_block = z.tobytes(), kernels.linear_bwd(layer, dz32, cols, w32, x.shape)[0].tobytes()
        for positions, what in _row_blocks(oh, ow * n):
            covered.add(what)
            case = f"k={kh}x{kw} n={n} {what}"
            monkeypatch.setattr(kernels, "CONV_BLOCK", kh * kw * c * positions)
            z, cols = kernels.linear_fwd(layer, x, wt, b)
            dx, dw, _ = kernels.linear_bwd(layer, dz, cols, wt, x.shape)
            assert np.array_equal(z, rz) and np.array_equal(dw, rdw), case
            assert np.array_equal(dx, rdx), case
            z, cols = kernels.linear_fwd(layer, x32, w32, b32)
            dx = kernels.linear_bwd(layer, dz32, cols, w32, x.shape)[0]
            assert (z.tobytes(), dx.tobytes()) == one_block, case
        monkeypatch.undo()
    assert covered >= {"whole-row blocks", "chunks of a row", "a last chunk of one position",
                       "blocks of one position"}
    assert ("a last row of one position" in covered) == ((stride, padding) == (3, 0))


@pytest.mark.parametrize("n", [1, 3, 32])
def test_conv2d_computes_only_the_outputs_it_keeps(n):
    """conv2d's GEMM writes one column per kept output position, N*oh*ow, and
    no columns past ow, channel-major, (O, N*oh*ow), in the integer engine's
    linear_acc; training's linear_fwd keeps the (N*oh*ow, O) GEMM, whose
    output it copies: on the toy CNN's conv layers 3 and 4 at stride 1 and 2."""
    rng = np.random.default_rng(n)
    for (c, o, hw, s) in ((16, 24, 7, 1), (24, 32, 7, 2)):
        ohw = (hw + 2 - 3) // s + 1
        layer = oracles._mk(1, "conv2d", [0], o, 3, 3, s, 1, (c, hw, hw), bias=o)
        x, w = (rng.normal(size=shape).astype(np.float32)
                for shape in ((n, c, hw, hw), layer.weight_shape))
        acc, _ = kernels.linear_acc(layer, x, w)
        assert acc.shape == (n, o, ohw, ohw) and acc.base.shape == (o, n * ohw * ohw)
        train, _ = kernels._window_fwd(layer, x, w)
        assert train.shape == acc.shape and train.base.shape == (n * ohw * ohw, o)
        z, _ = kernels.linear_fwd(layer, x, w, np.zeros(o, np.float32))
        assert z.tobytes() == np.ascontiguousarray(train).tobytes()


# (kind, kernel side, stride, padding, input side) of one layer per linear
# kind; the last avg_pool covers its whole input, the global pool
_ACC_LAYERS = [("conv2d", 3, 2, 1, 9), ("depthwise_conv2d", 3, 1, 1, 7),
               ("pointwise_conv2d", 1, 1, 0, 5), ("fully_connected", 0, 1, 0, 3),
               ("avg_pool", 2, 2, 0, 6), ("avg_pool", 4, 4, 0, 4)]


@pytest.mark.parametrize("kind, k, s, p, hw", _ACC_LAYERS)
def test_linear_acc_plus_bias_is_linear_fwd(kind, k, s, p, hw):
    """The bias-free accumulator plus the bias is the training forward, bit
    for bit; acc is the kernel's own output, a strided view for the phase-
    plane kinds, and C-contiguous z has acc's shape. conv2d's operands are
    integer-valued, the engine's domain: its GEMM runs channel-major in
    linear_acc and position-major in linear_fwd, so only exact sums agree."""
    rng = np.random.default_rng(len(kind) + k)
    c = 3
    o = 5 if kind in ("conv2d", "pointwise_conv2d", "fully_connected") else c
    layer = oracles._mk(1, kind, [0], o, k, k, s, p, (c, hw, hw), bias=o)
    draw = functools.partial(rng.integers, -8, 8) if kind == "conv2d" else rng.normal
    x = draw(size=(4, c, hw, hw)).astype(np.float32)
    if kind == "avg_pool":
        w, b = kernels.pool_weight(layer, 1 / (k * k), np.float32)
    else:
        w = draw(size=layer.weight_shape).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32)
    acc, cols = kernels.linear_acc(layer, x, w)
    z, cols_fwd = kernels.linear_fwd(layer, x, w, b)
    assert z.flags.c_contiguous and z.shape == acc.shape and z.dtype == np.float32
    assert kernels._is_global(layer, x.shape) == (kind == "avg_pool" and k == hw)
    window = kind in ("conv2d", "depthwise_conv2d") or kind == "avg_pool" and k < hw
    assert acc.flags.c_contiguous != window
    added = acc + (b[:, None, None] if acc.ndim == 4 else b)
    assert np.ascontiguousarray(added).tobytes() == z.tobytes()
    assert np.array_equal(cols, cols_fwd)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, k, s, p, hw", _ACC_LAYERS)
def test_linear_acc_reads_int32_codes_in_w_dtype(kind, k, s, p, hw, dtype):
    """linear_acc on int32 codes at N > 1, in C order, in (c, y, n, x) as the
    depthwise and avg_pool codes run and in (c, y, x, n) as conv2d's do,
    computes in w's dtype and gives, bit for bit, the accumulator of the
    same codes cast to that dtype beforehand, in the same memory order."""
    rng = np.random.default_rng([len(kind), k, hw])
    c = 3
    o = 5 if kind in ("conv2d", "pointwise_conv2d", "fully_connected") else c
    layer = oracles._mk(1, kind, [0], o, k, k, s, p, (c, hw, hw), bias=o)
    w = (kernels.pool_weight(layer, 1, dtype)[0] if kind == "avg_pool"
         else rng.normal(size=layer.weight_shape).astype(dtype))
    x = rng.integers(0, 256, size=(4, c, hw, hw)).astype(np.int32)
    for axes in ((0, 1, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0)):
        codes = np.ascontiguousarray(x.transpose(axes)).transpose(np.argsort(axes))
        want, _ = kernels.linear_acc(layer, codes.astype(dtype), w)
        acc, _ = kernels.linear_acc(layer, codes, w)
        assert acc.dtype == dtype and acc.shape == want.shape, axes
        assert np.ascontiguousarray(acc).tobytes() == np.ascontiguousarray(want).tobytes(), axes


@pytest.mark.parametrize("n, c, hw", [(32, 32, 4), (3, 5, 7), (2, 1, 1)])
def test_global_avg_pool_is_bit_identical_to_phase_planes(monkeypatch, n, c, hw):
    """A pool whose window covers its unpadded input sums its taps in the
    row-major order of the phase-plane path: forward and dx are bit-identical
    to that path's, signed zeros included, in float32 with the training
    weight 1/area and in float64 with the integer engine's weight 1."""
    layer = oracles._mk(1, "avg_pool", [0], c, hw, hw, hw, 0, (c, hw, hw))
    rng = np.random.default_rng([n, c, hw])
    assert kernels._is_global(layer, (n, c, hw, hw))
    for dtype, value in ((np.float32, 1 / (hw * hw)), (np.float64, 1)):
        x = rng.normal(size=(n, c, hw, hw)).astype(dtype)
        dz = rng.normal(size=(n, c, 1, 1)).astype(dtype)
        x.flat[::7], dz.flat[::5] = -0.0, -0.0
        w, b = kernels.pool_weight(layer, value, dtype)
        runs = []
        for is_global in (kernels._is_global, lambda layer, shape: False):
            monkeypatch.setattr(kernels, "_is_global", is_global)
            z, cols = kernels.linear_fwd(layer, x, w, b)
            dx, dw, db = kernels.linear_bwd(layer, dz, cols, w, x.shape)
            assert dw is None and db is None
            assert kernels.linear_bwd(layer, dz, cols, w, x.shape, need_dx=False)[0] is None
            runs.append((z.dtype, z.shape, z.tobytes(), dx.dtype, dx.shape, dx.tobytes()))
        assert runs[0] == runs[1], dtype


@pytest.mark.parametrize("kind", WEIGHTED_KINDS)
def test_linear_bwd_without_dx_keeps_dw_and_db(kind):
    rng = np.random.default_rng(5)
    c, o, hw = 3, 4, 6
    k, s, p = (3, 2, 1) if kind in ("conv2d", "depthwise_conv2d") else (1, 1, 0)
    if kind == "depthwise_conv2d":
        o = c
    layer = oracles._mk(1, kind, [0], o, k, k, s, p, (c, hw, hw), bias=o)
    x = rng.normal(size=(2, c, hw, hw)).astype(np.float32)
    w = rng.normal(size=layer.weight_shape).astype(np.float32)
    z, cols = kernels.linear_fwd(layer, x, w, np.zeros(o, np.float32))
    dz = rng.normal(size=z.shape).astype(np.float32)
    dx, dw, db = kernels.linear_bwd(layer, dz, cols, w, x.shape)
    none, dw2, db2 = kernels.linear_bwd(layer, dz, cols, w, x.shape, need_dx=False)
    assert dx.shape == x.shape and none is None
    assert np.array_equal(dw, dw2) and np.array_equal(db, db2)


def test_backward_skips_only_unused_input_grads(toy_graph, pretrained, toy_ranges, desk_small,
                                                monkeypatch):
    """The first conv's input gradient is computed only where the input tensor
    carries a trained clip, and every gradient equals the one computed with
    each input gradient."""
    weights, x = pretrained[0], desk_small.images[:8]
    bwd, asked = qat.linear_bwd, {}

    def spy(layer, dz, cols, w, x_shape, need_dx=True):
        asked[layer.id] = need_dx
        return bwd(layer, dz, cols, w, x_shape, need_dx)

    def always(layer, dz, cols, w, x_shape, need_dx=True):
        return bwd(layer, dz, cols, w, x_shape)

    for policy, ranges in ((None, None), (all_uniform_policy(toy_graph), toy_ranges)):
        logits, cache = qat.forward_network(toy_graph, weights, x, policy, ranges, train=True)
        r = np.random.default_rng(0).normal(size=logits.shape).astype(np.float32)
        monkeypatch.setattr(qat, "linear_bwd", spy)
        grads = qat.backward_network(toy_graph, cache, r)
        monkeypatch.setattr(qat, "linear_bwd", always)
        full = qat.backward_network(toy_graph, cache, r)
        assert asked == {1: policy is not None, 2: True, 3: True, 4: True, 5: True, 6: True}
        assert (("clip", 0) in grads) == (policy is not None)
        assert sorted(grads) == sorted(full)
        assert all(np.array_equal(grads[k], full[k]) for k in grads)


def test_softmax_xent_hand_case():
    logits = np.array([[1.0, 2.0, 3.0]])
    labels = np.array([2])
    loss, grad = qat.softmax_xent(logits, labels)
    z = np.exp(logits[0] - 3.0)
    p = z / z.sum()
    assert loss == pytest.approx(-np.log(p[2]), rel=1e-6)
    want = (p - np.array([0.0, 0.0, 1.0])) / 1.0
    assert np.allclose(grad[0], want, atol=1e-7)


def test_softmax_xent_gradient_fd():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)

    def f():
        l, _ = qat.softmax_xent(logits, labels)
        return l

    _, grad = qat.softmax_xent(logits, labels)
    fd = oracles.fd_grad(f, logits, list(range(24)), eps=1e-6)
    for i, v in fd.items():
        assert grad.ravel()[i] == pytest.approx(v, abs=1e-5)


def test_softmax_xent_flushes_only_gradients_below_its_floor():
    """Entries of dL/dlogits below 2**-100 in magnitude become 0; the rest are
    the unflushed p - onehot over n, bit for bit."""
    logits = np.array([[0.0, -66.0, -72.0, -90.0], [0.0, 1.0, -69.0, -75.0]], np.float32)
    labels = np.array([0, 1])
    _, grad = qat.softmax_xent(logits, labels)
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[[0, 1], labels] -= 1.0
    want = p / 2
    small = (np.abs(want) < 2.0 ** -100) & (want != 0)
    assert small.sum() == 4
    assert grad.dtype == np.float32
    assert (grad[small] == 0).all() and np.array_equal(grad[~small], want[~small])


def test_a_confident_batch_backpropagates_no_subnormal(monkeypatch, toy_graph, pretrained, desk):
    """On a batch that the pretrained toy net classifies with p_y rounding to
    1, no dz, dx or dw of any linear layer's backward holds a subnormal
    float32: the flushed dL/dlogits starts no underflow."""
    weights, _ = pretrained
    images, labels = (a[:128] for a in desk.train)
    tiny, seen = np.finfo(np.float32).tiny, {}

    def spy(layer, dz, cols, w, x_shape, need_dx=True):
        dx, dw, db = kernels.linear_bwd(layer, dz, cols, w, x_shape, need_dx)
        for name, a in (("dz", dz), ("dx", dx), ("dw", dw)):
            if a is not None:
                seen[layer.id, name] = int(np.count_nonzero((a != 0) & (np.abs(a) < tiny)))
        return dx, dw, db

    monkeypatch.setattr(qat, "linear_bwd", spy)
    logits, cache = qat.forward_network(toy_graph, weights, images, train=True)
    z = logits - logits.max(axis=1, keepdims=True)
    p_y = (np.exp(z) / np.exp(z).sum(axis=1, keepdims=True))[np.arange(128), labels]
    assert (p_y == 1).sum() > 10  # confident images
    qat.backward_network(toy_graph, cache, qat.softmax_xent(logits, labels)[1])
    assert {lid for lid, _ in seen} == {1, 2, 3, 4, 5, 6}
    assert set(seen.values()) == {0}, seen


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_single_step_hand():
    opt = qat._Adam(0.1)
    p = {"x": np.array([1.0])}
    updates = opt.step({"x": np.array([0.5])})
    assert list(updates) == ["x"]
    p["x"] = p["x"] - updates["x"]
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    want = 1.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert p["x"][0] == pytest.approx(want, rel=1e-12)


def test_adam_defaults_match_contract():
    cfg = qat.TrainConfig()
    assert (cfg.lr, qat.ADAM_BETA1, qat.ADAM_BETA2, qat.ADAM_EPS) == (1e-4, 0.9, 0.999, 1e-8)
    assert cfg.batch_size == 32


def test_training_leaves_callers_arrays_unchanged(toy_graph, desk_small, pretrained,
                                                  toy_ranges):
    """Each step puts new arrays in weights; arrays held elsewhere keep their values."""
    weights = qat.copy_weights(pretrained[0])
    held = {lid: dict(entry) for lid, entry in weights.items()}
    qat.train_network(toy_graph, weights, desk_small, qat.TrainConfig(epochs=1, lr=1e-2),
                      policy=all_uniform_policy(toy_graph), ranges=fresh_ranges(toy_ranges))
    for lid, entry in held.items():
        for key, arr in entry.items():
            assert np.array_equal(arr, pretrained[0][lid][key])
            assert weights[lid][key].dtype == np.float32
            assert not np.array_equal(weights[lid][key], arr)


# ---------------------------------------------------------------------------
# Training behavior
# ---------------------------------------------------------------------------

def test_zero_epochs_is_identity(toy_graph, desk_small):
    weights = qat.init_weights(toy_graph, seed=0)
    before = qat.copy_weights(weights)
    hist = qat.train_network(toy_graph, weights, desk_small,
                             qat.TrainConfig(epochs=0))
    assert hist == []
    for lid in weights:
        assert np.array_equal(weights[lid]["w"], before[lid]["w"])


def test_train_qat_zero_epochs_scores_only(toy_graph, desk_small, pretrained,
                                           toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    ranges = fresh_ranges(toy_ranges)
    p = all_uniform_policy(toy_graph)
    w, r, top1 = qat.train_qat(toy_graph, weights, p, ranges, desk_small,
                               qat.TrainConfig(epochs=0))
    assert 0.0 <= top1 <= 1.0
    assert all(np.array_equal(w[l]["w"], pretrained[0][l]["w"]) for l in w)


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_qat_evaluates_once(toy_graph, desk_small, pretrained, toy_ranges, monkeypatch,
                                  epochs):
    weights = qat.copy_weights(pretrained[0])
    ranges = fresh_ranges(toy_ranges)
    p = all_uniform_policy(toy_graph)
    evaluate, calls = qat.evaluate, []
    monkeypatch.setattr(qat, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    _, _, top1 = qat.train_qat(toy_graph, weights, p, ranges, desk_small,
                               qat.TrainConfig(epochs=epochs))
    assert len(calls) == 1
    assert top1 == evaluate(toy_graph, weights, desk_small, split="val", policy=p, ranges=ranges)


def test_loss_decreases_over_first_epochs(toy_graph, desk, pretrained, toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    ranges = fresh_ranges(toy_ranges)
    p = all_uniform_policy(toy_graph)
    cfg = qat.TrainConfig(epochs=2, lr=1e-4, seed=3)
    hist = qat.train_network(toy_graph, weights, desk, cfg, policy=p, ranges=ranges)
    assert hist[1]["loss"] < hist[0]["loss"]


def test_qat_all8_recovers_float_accuracy(toy_graph, desk, pretrained, toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    ranges = fresh_ranges(toy_ranges)
    p = all_uniform_policy(toy_graph)
    cfg = qat.TrainConfig(epochs=3, lr=1e-4, seed=0)
    _, _, top1 = qat.train_qat(toy_graph, weights, p, ranges, desk, cfg)
    assert top1 >= 0.90


def test_training_is_deterministic(toy_graph, desk_small, toy_ranges, pretrained):
    runs = []
    for _ in range(2):
        weights = qat.copy_weights(pretrained[0])
        ranges = fresh_ranges(toy_ranges)
        cfg = qat.TrainConfig(epochs=1, lr=1e-4, seed=7)
        qat.train_network(toy_graph, weights, desk_small, cfg,
                          policy=all_uniform_policy(toy_graph), ranges=ranges)
        runs.append((weights, ranges))
    for lid in runs[0][0]:
        assert np.array_equal(runs[0][0][lid]["w"], runs[1][0][lid]["w"])
        assert np.array_equal(runs[0][0][lid]["b"], runs[1][0][lid]["b"])
    for t in runs[0][1]:
        assert runs[0][1][t] == runs[1][1][t]


def test_pact_clips_move_and_respect_floor(toy_graph, desk_small, pretrained,
                                           toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    ranges = fresh_ranges(toy_ranges)
    before = dict(ranges)
    cfg = qat.TrainConfig(epochs=1, lr=1e-2, seed=0)
    qat.train_network(toy_graph, weights, desk_small, cfg,
                      policy=all_uniform_policy(toy_graph), ranges=ranges)
    assert any(ranges[t] != before[t] for t in ranges)
    assert all(type(c) is float and c >= CLIP_FLOOR for c in ranges.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    g = tiny_fc_graph()
    weights = qat.init_weights(g, seed=0)
    weights[1]["w"][:] = np.inf
    imgs = np.random.default_rng(0).uniform(size=(8, 2, 1, 1)).astype(np.float32)
    d = Dataset(images=imgs, labels=np.zeros(8, dtype=np.int64), n_train=6)
    with pytest.raises(TrainingDivergedError):
        qat.train_network(g, weights, d, qat.TrainConfig(epochs=1, batch_size=4))


def test_float_training_memorizes_tiny_set(toy_graph):
    d = synthetic_shapes(20, 8, seed=3)
    weights = qat.init_weights(toy_graph, seed=0)
    cfg = qat.TrainConfig(epochs=60, lr=1e-2, batch_size=8, seed=0)
    qat.train_network(toy_graph, weights, d, cfg)
    assert qat.evaluate(toy_graph, weights, d, split="train") == 1.0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, toy_graph, toy_ranges, pretrained):
    weights = pretrained[0]
    path = str(tmp_path / "w.ckpt")
    qat.save_checkpoint(path, weights, toy_ranges)
    w2, r2 = qat.load_checkpoint(path)
    assert sorted(w2) == sorted(weights)
    for lid in weights:
        assert np.array_equal(w2[lid]["w"], weights[lid]["w"])
        assert np.array_equal(w2[lid]["b"], weights[lid]["b"])
    assert sorted(r2) == sorted(toy_ranges)
    for t in toy_ranges:
        assert type(r2[t]) is float and r2[t] == float(np.float32(toy_ranges[t]))


def test_checkpoint_without_ranges(tmp_path, toy_graph):
    weights = qat.init_weights(toy_graph)
    path = str(tmp_path / "w.ckpt")
    qat.save_checkpoint(path, weights)
    _, ranges = qat.load_checkpoint(path)
    assert ranges == {}


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        qat.load_checkpoint(str(p))


def test_checkpoint_rejects_wrong_version(tmp_path, toy_graph):
    path = tmp_path / "w.ckpt"
    qat.save_checkpoint(str(path), qat.init_weights(toy_graph))
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        qat.load_checkpoint(str(path))


def test_checkpoint_every_prefix_raises_mcuq_error(tmp_path, residual_graph):
    path = tmp_path / "w.ckpt"
    ranges = {t: 1.5 for t in residual_graph.encoded_tensors()}
    qat.save_checkpoint(str(path), qat.init_weights(residual_graph), ranges)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(McuqError):
            qat.load_checkpoint(str(cut))
    cut.write_bytes(blob + b"\0")
    with pytest.raises(McuqError, match="trailing"):
        qat.load_checkpoint(str(cut))


W, B, CLIP = range(3)  # tag codes of the checkpoint's entries


def _checkpoint_bytes(*entries) -> bytes:
    """A checkpoint of ((tag code, id), values) entries in the given order, each 1-D."""
    out = qat.CKPT_MAGIC + struct.pack("<II", qat.CKPT_VERSION, len(entries))
    for key, values in entries:
        arr = np.asarray(values, dtype="<f4")
        out += struct.pack("<BIBI", *key, 1, arr.size) + arr.tobytes()
    return oracles.seal(out)


@pytest.mark.parametrize("key, values", [
    ((3, 1), [1.0]),            # unknown tag code
    ((CLIP, 1), [0.0]),         # a clip must be positive
    ((CLIP, 1), [1.0, 2.0]),    # and a single value
    ((CLIP, 1), [1e-37]),       # whose 8-bit scale is a normal float32
    ((W, 1), [1.0, np.nan]),    # weights and biases must be finite
    ((B, 1), [-np.inf]),
], ids=["q.1-values3", "clip.1-values4", "clip.1-values5", "clip.1-values6", "w.1-values7",
        "b.1-values8"])
def test_checkpoint_rejects_malformed_entries(tmp_path, key, values):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_checkpoint_bytes((key, values)))
    with pytest.raises(McuqError):
        qat.load_checkpoint(str(path))


@pytest.mark.parametrize("rank", [5, 65])
def test_checkpoint_rejects_a_rank_no_writer_stores(tmp_path, rank):
    """An entry of rank 65 with a zero dimension holds 0 bytes, but numpy cannot
    reshape to it and would raise a bare ValueError. No writer stores rank 5."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(oracles.seal(qat.CKPT_MAGIC + struct.pack("<IIBI", qat.CKPT_VERSION, 1, W, 1)
                                  + struct.pack(f"<B{rank}I", rank, 0, *[1] * (rank - 1))))
    with pytest.raises(PackFormatError, match=f"w.1 has rank {rank}, more than 4"):
        qat.load_checkpoint(str(path))


def test_checkpoint_entry_builder_matches_save(tmp_path):
    path = tmp_path / "ok.ckpt"
    qat.save_checkpoint(str(path), {}, {1: 2.0})
    assert path.read_bytes() == _checkpoint_bytes(((CLIP, 1), [2.0]))
    assert qat.CKPT_TAGS == ("w", "b", "clip")  # W, B, CLIP: pinned by the file format


def test_checkpoint_rejects_a_key_written_twice(tmp_path):
    """Without the check the last copy wins, and clip.1 loads as 2.0."""
    path = tmp_path / "twice.ckpt"
    path.write_bytes(_checkpoint_bytes(((CLIP, 1), [1.0]), ((CLIP, 1), [2.0])))
    with pytest.raises(PackFormatError, match="clip.1 written twice"):
        qat.load_checkpoint(str(path))


@pytest.mark.parametrize("graph", ["toy_graph", "residual_graph"])
def test_gradients_are_keyed_as_the_checkpoint_keys_its_entries(tmp_path, request, graph):
    """One fake-quant step trains exactly the entries that save_checkpoint
    writes: gradient key (tag, id) is entry (CKPT_TAGS.index(tag), id)."""
    g = request.getfixturevalue(graph)
    weights, ranges = qat.init_weights(g), {t: 1.0 for t in g.encoded_tensors()}
    x = np.random.default_rng(0).uniform(0, 1, size=(2,) + g.input_layer.output_shape)
    logits, cache = qat.forward_network(g, weights, x, all_uniform_policy(g), ranges, train=True)
    grads = qat.backward_network(g, cache, np.ones_like(logits))
    qat.save_checkpoint(str(tmp_path / "w.ckpt"), weights, ranges)
    r = ByteReader((tmp_path / "w.ckpt").read_bytes(), "checkpoint", qat.CKPT_MAGIC,
                   qat.CKPT_VERSION)
    written = set()
    for _ in range(r.unpack("<I")[0]):
        written.add(r.unpack("<BI"))
        r.array("<f4", math.prod(r.shape("entry")))
    r.finish()
    assert {(qat.CKPT_TAGS.index(tag), i) for tag, i in grads} == written


@pytest.mark.parametrize("how", list(oracles.HEADER_SPOILS))
def test_checkpoint_header_and_trailer_are_checked(tmp_path, toy_graph, how):
    path = tmp_path / "w.ckpt"
    qat.save_checkpoint(str(path), qat.init_weights(toy_graph), {1: 2.0})
    path.write_bytes(oracles.spoil_header(path.read_bytes(), how))
    with pytest.raises(PackFormatError, match=oracles.HEADER_SPOILS[how]):
        qat.load_checkpoint(str(path))


def test_checkpoint_that_cannot_be_read_raises_naming_it(tmp_path):
    path = str(tmp_path / "missing.ckpt")
    with pytest.raises(PackFormatError, match=f"cannot read {re.escape(path)}: "):
        qat.load_checkpoint(path)


def _drop_b1(w, r):
    del w[1]["b"]


def _reshape_w1(w, r):
    w[1]["w"] = w[1]["w"].reshape(4, 9)


def _long_b3(w, r):
    w[3]["b"] = np.zeros(w[3]["b"].size + 1, dtype=np.float32)


def _weights_for_pool(w, r):
    w[5] = {"w": np.zeros((1, 1), dtype=np.float32), "b": np.zeros(1, dtype=np.float32)}


def _clip_for_logits(w, r):
    r[6] = 1.0  # tensor 6 feeds only the output sink


@pytest.mark.parametrize("spoil", [_drop_b1, _reshape_w1, _long_b3, _weights_for_pool,
                                   _clip_for_logits])
def test_checkpoint_must_match_its_graph(toy_graph, toy_ranges, spoil):
    weights, ranges = qat.init_weights(toy_graph), fresh_ranges(toy_ranges)
    qat.check_checkpoint_matches(toy_graph, weights, ranges)
    spoil(weights, ranges)
    with pytest.raises(ModelMismatchError):
        qat.check_checkpoint_matches(toy_graph, weights, ranges)


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def test_evaluate_splits(toy_graph, pretrained, desk_small):
    weights, _ = pretrained
    tr = qat.evaluate(toy_graph, weights, desk_small, split="train")
    va = qat.evaluate(toy_graph, weights, desk_small, split="val")
    al = qat.evaluate(toy_graph, weights, desk_small, split="all")
    n_tr, n_va = desk_small.n_train, len(desk_small) - desk_small.n_train
    want = (tr * n_tr + va * n_va) / (n_tr + n_va)
    assert al == pytest.approx(want, abs=1e-9)


def test_walk_holds_only_the_live_set(toy_graph, residual_graph):
    """Without a cache the walk keeps no activation past its span, in float
    mode and under a random policy."""
    rng = np.random.default_rng(25)
    graphs = [toy_graph, residual_graph, *(oracles.random_graph(rng) for _ in range(20)),
              *oracles.self_read_graphs(rng, 5)]
    for i, g in enumerate(graphs):
        weights = qat.init_weights(g, seed=i)
        x = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        ranges = {t: 1.0 for t in g.encoded_tensors()}
        policy = oracles.random_policy(rng, g)
        assert oracles.live_set_breaches(g, qat._walk(g, weights, x)) == [], f"graph {i}, float"
        assert oracles.live_set_breaches(g, qat._walk(g, weights, x, policy, ranges)) == [], \
            f"graph {i}, {policy}"


def test_collect_activations_covers_encoded(toy_graph, pretrained, desk_small):
    """One walk's clips equal percentile_clip of each encoded tensor's values
    gathered from two half-batch walks: the clips do not depend on the batch."""
    weights, _ = pretrained
    images = desk_small.images[:32]
    clips = qat.collect_activations(toy_graph, weights, images)
    assert tuple(sorted(clips)) == toy_graph.encoded_tensors()
    halves = [dict(qat._walk(toy_graph, weights, h)) for h in (images[:16], images[16:])]
    for t, clip in clips.items():
        assert clip == percentile_clip(np.concatenate([h[t] for h in halves]))
