"""Integer execution: identity cases, oracle agreement, saturation, accuracy."""

import types
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import fresh_ranges
from mcuq import inference, qat, quantizer, search
from mcuq.errors import AccumulatorOverflowError, DatasetError, ModelMismatchError
from mcuq.graph_ir import COMPUTE_KINDS, fixture_path, load_graph, topo_order
from mcuq.inference import (
    evaluate_accuracy,
    per_class_csv,
    run_batch_int,
    run_codes_layer,
    run_codes_network,
    run_network_int,
)
from mcuq.memory_model import MemoryBudget, all_uniform_policy, enforce_ram, enforce_rom
from mcuq.packed_model import (
    PackedLayer,
    _kernel_dtype,
    build_packed_model,
    check_model_matches,
    deserialize,
    serialize,
)
from mcuq.quantizer import (
    QuantizedTensor,
    RequantParams,
    calibrate_act_ranges,
    pack_subbyte,
    quantize_act,
)


def _unit_rq(n_ch):
    """A requant of M = 1 on n_ch channels."""
    return RequantParams(multiplier=np.full(n_ch, 1 << 30, dtype=np.int32),
                         shift=np.full(n_ch, 30, dtype=np.int32))


def identity_conv_rec(n_ch=1, bits=8):
    """1x1 conv with weight code 1 at scale 1 and unit requant (M = 1)."""
    codes = np.ones((n_ch, n_ch, 1, 1), dtype=np.int64)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.eye(n_ch).reshape(-1), 8),
                         shape=(n_ch, n_ch, 1, 1), scales=np.ones(n_ch))
    return PackedLayer(layer_id=1, kind="conv2d", weight_bits=8, out_bits=bits,
                       weight=qw, bias_int=np.zeros(n_ch, dtype=np.int32),
                       requants=(_unit_rq(n_ch),)), codes


def _fc(codes, bias, bits=8):
    """A fully_connected layer of weight codes (C, fan_in) at bits, an int32
    bias per channel and M = 1 to raw 32-bit outputs, and its record."""
    c, fan_in = codes.shape
    layer = oracles._mk(1, "fully_connected", [0], c, 0, 0, 1, 0, (fan_in, 1, 1), bias=c)
    qw = QuantizedTensor(bits=bits, packed=pack_subbyte(codes, bits), shape=(c, fan_in),
                         scales=np.ones(c))
    return layer, PackedLayer(layer_id=1, kind="fully_connected", weight_bits=bits,
                              out_bits=32, weight=qw,
                              bias_int=np.asarray(bias, dtype=np.int32),
                              requants=(_unit_rq(c),))


def test_identity_conv_passes_codes_through():
    layer = oracles._mk(1, "conv2d", [0], 1, 1, 1, 1, 0, (1, 4, 4), bias=1)
    rec, _ = identity_conv_rec()
    x = np.arange(256, dtype=np.int32).reshape(16, 1, 4, 4)[:16]
    out = run_codes_layer(layer, rec, [x], np.float64)
    assert np.array_equal(out, x)


def test_identity_conv_full_code_range():
    layer = oracles._mk(1, "conv2d", [0], 1, 1, 1, 1, 0, (1, 16, 16), bias=1)
    rec, _ = identity_conv_rec()
    x = np.arange(256, dtype=np.int32).reshape(1, 1, 16, 16)
    assert np.array_equal(run_codes_layer(layer, rec, [x], np.float64), x)


@pytest.mark.parametrize("lid", [0, 7], ids=["input", "output"])
def test_a_layer_without_a_kernel_is_refused(toy_graph, lid):
    """run_codes_network never hands run_codes_layer the input or the output,
    but a direct caller can: it refuses them rather than run one as another kind."""
    layer = toy_graph.layer(lid)
    x = np.zeros((1,) + layer.input_shape, np.int32)
    with pytest.raises(ModelMismatchError, match=f"layer {lid}: kind '{layer.kind}' is not exec"):
        run_codes_layer(layer, identity_conv_rec()[0], [x], None)


def toy_int_model(toy_graph, weights, ranges, policy=None):
    p = policy or all_uniform_policy(toy_graph)
    return build_packed_model(toy_graph, weights, p, ranges)


def test_zero_image_propagates_biases(toy_graph, pretrained, toy_ranges):
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    zero = np.zeros((1, 28, 28), dtype=np.float32)
    scores, pred = run_network_int(toy_graph, model, zero)
    # walk the oracle over zero input codes: layer 1 sees only its bias
    codes = {0: np.zeros((1, 28, 28), dtype=np.int64)}
    for lid in [1, 2, 3, 4, 5, 6]:
        layer = toy_graph.layer(lid)
        codes[lid] = oracles.ref_layer_codes(
            layer, model.layers[lid], [codes[t] for t in layer.input_ids])
    assert np.array_equal(scores, codes[6].ravel())
    assert pred == int(codes[6].ravel().argmax())


def test_network_codes_match_oracle_per_layer(toy_graph, pretrained, toy_ranges):
    policy = all_uniform_policy(toy_graph)
    policy.weight_bits[3] = 4
    policy.act_bits[2] = 4
    policy.act_bits[4] = 2
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges, policy)
    rng = np.random.default_rng(2)
    from mcuq.quantizer import quantize_act

    img = rng.uniform(0, 1, size=(1, 28, 28)).astype(np.float32)
    codes = {0: quantize_act(img, model.act_clip[0], model.act_bits[0]).astype(np.int64)}
    for lid in [1, 2, 3, 4, 5, 6]:
        layer = toy_graph.layer(lid)
        codes[lid] = oracles.ref_layer_codes(
            layer, model.layers[lid], [codes[t] for t in layer.input_ids])
    scores, _ = run_network_int(toy_graph, model, img)
    assert np.array_equal(scores, codes[6].ravel())


def test_residual_codes_match_oracle(residual_graph):
    weights = qat.init_weights(residual_graph, seed=5)
    ranges = {t: 1.5 for t in residual_graph.encoded_tensors()}
    model = build_packed_model(residual_graph, weights,
                               all_uniform_policy(residual_graph), ranges)
    rng = np.random.default_rng(3)
    from mcuq.quantizer import quantize_act

    img = rng.uniform(0, 1.5, size=(3, 8, 8)).astype(np.float32)
    codes = {0: quantize_act(img, model.act_clip[0], model.act_bits[0]).astype(np.int64)}
    for lid in [1, 2, 3, 4, 5, 6]:
        layer = residual_graph.layer(lid)
        codes[lid] = oracles.ref_layer_codes(
            layer, model.layers[lid], [codes[t] for t in layer.input_ids])
    scores, _ = run_network_int(residual_graph, model, img)
    assert np.array_equal(scores, codes[6].ravel())


def test_random_graph_codes_match_oracle_per_layer():
    """Seeded random graphs x sub-byte policies until all seven compute kinds ran.

    At least 24 graphs: their pools are mostly global, where an accumulator
    that is off by one moves a code only now and then.
    """
    rng = np.random.default_rng(21)
    want = frozenset(COMPUTE_KINDS + ("relu_clip",))
    kinds, graphs = set(), 0
    while kinds < want or graphs < 24:
        graphs += 1
        assert graphs <= 200, f"random graphs never produced {sorted(want - kinds)}"
        g = oracles.random_graph(rng)
        _assert_codes_match_oracle_per_layer(g, rng, graphs)
        kinds |= {l.kind for l in g.layers} & want


def test_codes_of_a_layer_reading_one_tensor_twice_match_oracle_per_layer():
    """Random graphs whose add reads one tensor twice."""
    rng = np.random.default_rng(29)
    for i, g in enumerate(oracles.self_read_graphs(rng, 12)):
        _assert_codes_match_oracle_per_layer(g, rng, i)


def _random_model(g, rng, seed):
    """(model, images): g packed under a random sub-byte policy from
    init_weights(seed) with random biases, and two random images."""
    policy = oracles.random_policy(rng, g, allow_fp32=False)
    weights = qat.init_weights(g, seed=seed)
    for entry in weights.values():
        entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape).astype(np.float32)
    images = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
    return build_packed_model(g, weights, policy, calibrate_act_ranges(g, weights, images)), images


def _assert_codes_match_oracle_per_layer(g, rng, seed):
    """Under _random_model: every layer's codes are the oracle's, and the
    input's are quantize_act's."""
    model, images = _random_model(g, rng, seed)
    codes = dict(run_codes_network(g, model, images))
    assert sorted(codes) == sorted(g.tensor_ids())
    in_id = g.input_layer.id
    assert np.array_equal(codes[in_id], quantize_act(images, model.act_clip[in_id],
                                                     model.act_bits[in_id]))
    for lid in topo_order(g):
        layer = g.layer(lid)
        if layer.kind in ("input", "output"):
            continue
        ins = [codes[t] for t in layer.input_ids]
        for j in range(len(images)):
            ref = oracles.ref_layer_codes(layer, model.layers[lid], [x[j] for x in ins])
            assert np.array_equal(codes[lid][j], ref), f"graph {seed} layer {lid}"
    assert np.array_equal(run_batch_int(g, model, images),
                          codes[g.output_layer.input_ids[0]])


# the memory orders the kernels leave codes in, outermost axis first: conv2d's
# (c, y, x, n), the depthwise and avg_pool views' (c, y, n, x); and channel-last
# and (y, x, n, c), the order of conv2d's codes before its GEMM ran channel-major
_ORDERS = [(1, 2, 3, 0), (1, 2, 0, 3), (0, 2, 3, 1), (2, 3, 0, 1)]


def _in_memory_order(x: np.ndarray, axes: tuple) -> np.ndarray:
    """x's values with its axes laid out in memory outermost-first as axes."""
    return np.ascontiguousarray(x.transpose(axes)).transpose(np.argsort(axes))


def test_layer_codes_do_not_depend_on_the_memory_order_of_their_input():
    """Seeded random graphs until all seven compute kinds and relu_clip ran:
    each layer on its input codes in C order and on copies in the memory
    orders the kernels leave (and channel-last; (c, n) for 2-D codes) gives
    identical codes, the oracle's. The walk yields codes in the memory order
    of the kernel that made them, so no consumer may depend on C order."""
    rng = np.random.default_rng(33)
    want = frozenset(COMPUTE_KINDS + ("relu_clip",))
    kinds, graphs = set(), 0
    while kinds < want:
        graphs += 1
        assert graphs <= 200, f"random graphs never produced {sorted(want - kinds)}"
        g = oracles.random_graph(rng)
        model, images = _random_model(g, rng, graphs)
        codes, dtypes = dict(run_codes_network(g, model, images)), check_model_matches(g, model)
        for lid in topo_order(g):
            layer, rec = g.layer(lid), model.layers.get(lid)
            if layer.kind in ("input", "output"):
                continue
            ins = [np.ascontiguousarray(codes[t]) for t in layer.input_ids]
            got = run_codes_layer(layer, rec, ins, dtypes.get(lid))
            for axes in _ORDERS if ins[0].ndim == 4 else [(1, 0)]:
                moved = [_in_memory_order(x, axes) for x in ins]
                assert np.array_equal(run_codes_layer(layer, rec, moved, dtypes.get(lid)), got)
            for j in range(len(images)):
                ref = oracles.ref_layer_codes(layer, rec, [x[j] for x in ins])
                assert np.array_equal(got[j], ref), f"graph {graphs} layer {lid}"
            kinds.add(layer.kind)


def test_pointwise_runs_one_gemm_in_the_order_of_channels_outermost_codes(monkeypatch):
    """Pointwise input codes in (c, y, n, x) order, as depthwise ones run at
    N > 1, reach the kernel uncopied; its one GEMM's accumulator and the codes
    run (o, y, n, x). C-order codes, as training's, keep C order. Both give
    the oracle's codes."""
    rng = np.random.default_rng(32)
    layer = oracles._mk(1, "pointwise_conv2d", [0], 3, 1, 1, 1, 0, (4, 5, 6), bias=3)
    codes = rng.integers(-8, 8, size=(3, 4))
    rec = PackedLayer(layer_id=1, kind=layer.kind, weight_bits=4, out_bits=8,
                      weight=QuantizedTensor(bits=4, packed=pack_subbyte(codes, 4), shape=(3, 4),
                                             scales=np.ones(3)),
                      bias_int=rng.integers(-50, 50, size=3).astype(np.int32),
                      requants=(RequantParams(np.full(3, 1 << 30, np.int32), np.full(3, 33)),))
    seen, real_acc = [], inference.linear_acc
    monkeypatch.setattr(inference, "linear_acc", lambda layer, x, w: seen.append(x) or
                        real_acc(layer, x, w))
    x = rng.integers(0, 256, size=(3, 4, 5, 6)).astype(np.int32)
    for axes, outer in (((1, 2, 0, 3), True), ((0, 1, 2, 3), False)):
        got = run_codes_layer(layer, rec, [_in_memory_order(x, axes)], np.float32)
        for a in (seen.pop(), got):
            assert (a.flags.c_contiguous, a.transpose(1, 2, 0, 3).flags.c_contiguous) == (
                not outer, outer)
        for j in range(len(x)):
            assert np.array_equal(got[j], oracles.ref_layer_codes(layer, rec, [x[j]]))


def _requant_splits(g, model) -> list[tuple]:
    """(layer id, kind, the set-up's axes outermost-first, channel axis at, split
    axis k) of every requant set-up kept in model's records."""
    return [(lid, g.layer(lid).kind, tuple(shape[a] for a in setup[0]), *setup[1:3])
            for lid, rec in model.layers.items() for memo in rec.memos
            for (shape, _), setup in memo.items()]


def test_every_engine_requant_splits_outside_its_channel_axis(toy_graph, mobilenet_graph,
                                                              pretrained, toy_ranges, desk):
    """Every requant set-up the engine builds has its channel axis at or outside
    the axis k its blocks split, so a block takes one channel's parameters or
    a slice of them and no set-up needs them tiled over inner axes: each
    accumulator and each layer's codes run channels outermost. The one
    exception is fully_connected's (N, O), whose inner axis is the channel
    alone. On the toy CNN at batch 128 and on MobileNetV1's enforced all-8
    anchor at batches 1 and 8."""
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    run_batch_int(toy_graph, model, desk.val[0][:128])
    splits = {128: _requant_splits(toy_graph, model)}
    g, rng = mobilenet_graph, np.random.default_rng(35)
    budget = MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
    policy = search.base_policy(g, search.SearchConfig(budget=budget))
    policy = enforce_ram(g, enforce_rom(g, policy, budget), budget)
    weights = qat.init_weights(g, seed=35)
    images = rng.uniform(0, 1, size=(8,) + g.input_layer.output_shape).astype(np.float32)
    ranges = calibrate_act_ranges(g, weights, images[:2])
    for n in (1, 8):
        model = build_packed_model(g, weights, policy, ranges)
        run_batch_int(g, model, images[:n])
        splits[n] = _requant_splits(g, model)
    assert [len(v) for v in splits.values()] == [6, 29, 29]
    for n, rows in splits.items():
        for lid, kind, shape, ax, k in rows:
            assert ax <= k or (kind, shape[k + 1:]) == ("fully_connected", (shape[ax],)), (
                n, lid, kind, shape, ax, k)


def test_integer_walk_holds_only_the_live_set(toy_graph, residual_graph, mobilenet_graph):
    """The integer engine keeps no layer's codes past its span (the RAM model's
    live set): on the toy fixtures and random graphs under sub-byte policies,
    and on the MobileNetV1 anchor at batch 1."""
    rng = np.random.default_rng(27)
    graphs = [toy_graph, residual_graph, *(oracles.random_graph(rng) for _ in range(20)),
              *oracles.self_read_graphs(rng, 5)]
    for i, g in enumerate(graphs):
        weights = qat.init_weights(g, seed=i)
        images = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        policy = oracles.random_policy(rng, g, allow_fp32=False)
        model = build_packed_model(g, weights, policy, calibrate_act_ranges(g, weights, images))
        assert oracles.live_set_breaches(g, run_codes_network(g, model, images)) == [], i
    g = mobilenet_graph
    budget = MemoryBudget(rom_bytes=2 * 2 ** 20, ram_bytes=512 * 2 ** 10)
    policy = search.base_policy(g, search.SearchConfig(budget=budget))
    policy = enforce_ram(g, enforce_rom(g, policy, budget), budget)
    weights = qat.init_weights(g, seed=27)
    image = rng.uniform(0, 1, size=(1,) + g.input_layer.output_shape).astype(np.float32)
    model = build_packed_model(g, weights, policy, calibrate_act_ranges(g, weights, image))
    assert oracles.live_set_breaches(g, run_codes_network(g, model, image)) == []


def test_float64_kernel_inside_a_network_walk(mobilenet_graph):
    """MobileNetV1's classifier (fan-in 1024) with every weight code near 127
    and its input clip cut to 1/16, so that its input codes sit near 255: its
    sums pass 2**24, check_model_matches proves it float64 (and every other
    layer float32), and the walk's codes for it are the oracle's."""
    g, rng = mobilenet_graph, np.random.default_rng(26)
    fc = g.layer(29)
    weights = qat.init_weights(g, seed=26)
    weights[fc.id]["w"] = np.float32(0.01) + rng.normal(
        0.0, 1e-4, size=fc.weight_shape).astype(np.float32)
    image = rng.uniform(0, 1, size=(1,) + g.input_layer.output_shape).astype(np.float32)
    ranges = calibrate_act_ranges(g, weights, image)
    ranges[fc.input_ids[0]] /= 16
    model = build_packed_model(g, weights, all_uniform_policy(g), ranges)
    dtypes = check_model_matches(g, model)
    assert dtypes == {lid: np.float64 if lid == fc.id else np.float32 for lid in dtypes}
    codes = dict(run_codes_network(g, model, image))
    x = codes[fc.input_ids[0]][0]
    assert int((model.layers[fc.id].weight.codes() @ x.reshape(-1).astype(np.int64)).max()) \
        >= 2 ** 24
    assert np.array_equal(codes[fc.id][0], oracles.ref_layer_codes(fc, model.layers[fc.id], [x]))


@pytest.mark.parametrize("kh, kw, s, p", [
    (3, 3, 1, 0), (3, 3, 2, 0), (4, 2, 2, 0), (3, 3, 2, 1), (2, 2, 1, 1), (3, 3, 3, 1),
    (4, 4, 3, 2), (3, 2, 1, 1), (1, 1, 1, 1)])
@pytest.mark.parametrize("out_bits", [2, 8])
def test_overlapping_and_padded_pools_match_oracle(kh, kw, s, p, out_bits):
    """Integer avg_pool whose windows overlap (s < k) or reach into the zero
    padding (p > 0), against the oracle; random_graph only builds pools with
    s = k and p = 0."""
    rng = np.random.default_rng([kh, kw, s, p, out_bits])
    c, h, w = 3, 6, 8
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    layer = oracles._mk(1, "avg_pool", [0], c, kh, kw, s, p, (c, h, w))
    # an output scale that saturates some of the largest window sums
    rq = quantizer.compute_requant(1.0, np.array([1.0 / (kh * kw)]),
                                   0.9 * 255 / ((1 << out_bits) - 1))
    rec = PackedLayer(layer_id=1, kind="avg_pool", out_bits=out_bits, requants=(rq,))
    x = rng.integers(0, 256, size=(4, c, h, w)).astype(np.int32)
    out = run_codes_layer(layer, rec, [x], _kernel_dtype(layer, rec, 255))
    assert out.shape == (4, c, oh, ow)
    for j in range(len(x)):
        assert np.array_equal(out[j], oracles.ref_layer_codes(layer, rec, [x[j]])), j


def test_all_codes_stay_in_declared_range(toy_graph, pretrained, toy_ranges):
    # adversarial inputs: far beyond the calibration clip in both directions
    policy = all_uniform_policy(toy_graph)
    policy.act_bits[1] = 2
    policy.act_bits[3] = 2
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges, policy)
    extremes = np.stack([
        np.full((1, 28, 28), 100.0, dtype=np.float32),
        np.full((1, 28, 28), -100.0, dtype=np.float32),
        np.zeros((1, 28, 28), dtype=np.float32),
    ])
    scores = run_batch_int(toy_graph, model, extremes)
    assert scores.dtype == np.int32
    assert np.isfinite(scores.astype(np.float64)).all()


def test_saturation_clamps_not_wraps():
    """A 3x3 conv of weight codes 127 on input codes 255 sums to 291465, which
    saturates to 255 at M = 1."""
    layer = oracles._mk(1, "conv2d", [0], 1, 3, 3, 1, 0, (1, 3, 3), bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(9, 127), 8),
                         shape=(1, 1, 3, 3), scales=np.ones(1))
    rec = PackedLayer(layer_id=1, kind="conv2d", weight_bits=8, out_bits=8, weight=qw,
                      bias_int=np.zeros(1, dtype=np.int32), requants=(_unit_rq(1),))
    x = np.full((1, 1, 3, 3), 255, dtype=np.int32)
    assert oracles.ref_layer_codes(layer, replace(rec, out_bits=32), [x[0]]).item() == 291465
    out = run_codes_layer(layer, rec, [x], _kernel_dtype(layer, rec, 255))
    assert np.array_equal(out, np.full((1, 1, 1, 1), 255))


def test_int_batch_matches_single(toy_graph, pretrained, toy_ranges, desk_small):
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    imgs = desk_small.images[:6]
    batch = run_batch_int(toy_graph, model, imgs)
    for i in range(6):
        single, _ = run_network_int(toy_graph, model, imgs[i])
        assert np.array_equal(batch[i], single)


def test_int_inference_deterministic(toy_graph, pretrained, toy_ranges, desk_small):
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    a = run_batch_int(toy_graph, model, desk_small.images[:16])
    b = run_batch_int(toy_graph, model, desk_small.images[:16])
    assert np.array_equal(a, b)


def test_int_top1_equals_fake_quant_top1(toy_graph, pretrained, toy_ranges, desk_small):
    """The packed integer path and the fake-quant float path agree on argmax."""
    policy = all_uniform_policy(toy_graph)
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges, policy)
    int_top1, _ = evaluate_accuracy(toy_graph, desk_small, model=model)
    fq_top1, _ = evaluate_accuracy(toy_graph, desk_small, weights=pretrained[0],
                                   policy=policy, ranges=model.act_clip)
    assert int_top1 == pytest.approx(fq_top1, abs=0.02)
    assert int_top1 > 0.8


def test_overflow_check_flags_int32_excess():
    """Fan-in 4 of weight codes 127 under a bias of 2**31 - 1: on 8-bit input
    codes its accumulator could reach 2**31 - 1 + 4 * 255 * 127, so the model
    is refused before it runs."""
    layer, rec = _fc(np.full((1, 4), 127), [2 ** 31 - 1])
    with pytest.raises(AccumulatorOverflowError, match="layer 1 channel 0: accumulator range "
                                                       r"\[2147483647, 2147613187\] leaves int32"):
        _kernel_dtype(layer, rec, 255)


# fully_connected of fan-in 66311 on 8-bit input codes (in_max 255): channel 1
# of codes 127 reaches 255 * 127 * 66311 = 2**31 - 1913, channel 0 of codes 1
# reaches 255 * 66311 + _BIAS0 = 2**31 - 1
_FAN_IN, _BIAS0 = 66311, 2130574342


@pytest.mark.parametrize("bias0, overflows", [
    pytest.param(_BIAS0, False, id="each_channel_fits"),
    pytest.param(_BIAS0 + 1, True, id="channel_0_overflows"),
])
def test_int32_check_is_per_channel(bias0, overflows):
    """Channel 0 holds small sums under a bias near 2**31, channel 1 sums near
    2**31 under a zero bias: every accumulator fits int32, though the largest
    sum plus the largest bias does not, and all-255 inputs reach both maxima.
    One more on channel 0's bias is refused, naming channel 0."""
    layer, rec = _fc(np.repeat([[1], [127]], _FAN_IN, axis=1), [bias0, 0])
    if overflows:
        with pytest.raises(AccumulatorOverflowError, match="layer 1 channel 0: "):
            _kernel_dtype(layer, rec, 255)
        return
    dtype = _kernel_dtype(layer, rec, 255)
    assert dtype is np.float64  # 255 * 127 * 66311 passes 2**24
    x = np.random.default_rng(5).integers(0, 256, size=(2, _FAN_IN, 1, 1))
    x[0] = 255
    out = run_codes_layer(layer, rec, [x], dtype)
    for j in range(len(x)):
        assert np.array_equal(out[j], oracles.ref_layer_codes(layer, rec, [x[j]])), j
    assert out[0].tolist() == [2 ** 31 - 1, 2 ** 31 - 1913]


# fan-in 4 at in_max 255 and 8-bit weights: the coarse bound fan_in * in_max * 2**7
_COARSE_BOUND = 4 * 255 * 128


@pytest.mark.parametrize("bias, refused", [
    pytest.param(2 ** 31 - 1 - _COARSE_BOUND, False, id="bound_at_int32_max"),
    pytest.param(2 ** 31 - _COARSE_BOUND, False, id="bias_one_larger"),
    pytest.param(2 ** 31 - 1, True, id="overflow"),
])
def test_int32_proof_skips_only_a_passing_check(bias, refused):
    """Fan-in 4 of weight codes 127 on 8-bit inputs: the proof refuses the
    layer only where its channel's range 4 * 255 * 127 + bias leaves int32, so
    a bias one past the coarse bound fan_in * in_max * 2**7 is accepted. An
    accepted layer runs with no check of its own, reads no range of its input
    codes, and reaches its largest sum exactly."""
    layer, rec = _fc(np.full((1, 4), 127), [bias])
    if refused:
        with pytest.raises(AccumulatorOverflowError, match="layer 1 channel 0: "):
            _kernel_dtype(layer, rec, 255)
        return
    dtype = _kernel_dtype(layer, rec, 255)
    assert dtype is np.float32  # 4 * 255 * 127 is below 2**24
    x = np.full((1, 4, 1, 1), 255, dtype=np.int32).view(_CountedCodes)
    _CountedCodes.calls = 0
    out = run_codes_layer(layer, rec, [x], dtype)
    assert _CountedCodes.calls == 0
    assert np.array_equal(out[0], oracles.ref_layer_codes(layer, rec, [np.asarray(x[0])]))
    assert out[0].item() == 4 * 255 * 127 + bias


@pytest.mark.parametrize("a_bits", [2, 4, 8])
@pytest.mark.parametrize("w_bits", [2, 4, 8])
def test_float32_bound_at_its_boundary(a_bits, w_bits):
    """Every weight code at -2**(w_bits - 1), where the per-channel bound is
    fan_in * in_max * 2**(w_bits - 1): float32 up to the last fan-in below
    2**24, float64 from the first that reaches it."""
    in_max = 2 ** a_bits - 1
    first_f64 = -(-2 ** 24 // (in_max * 2 ** (w_bits - 1)))
    for fan_in, dtype in ((first_f64 - 1, np.float32), (first_f64, np.float64)):
        layer, rec = _fc(np.full((1, fan_in), -2 ** (w_bits - 1)), [0], bits=w_bits)
        assert _kernel_dtype(layer, rec, in_max) is dtype


# (kh, kw, input shape) of a one-output layer, per (kind, fan-in). Fan-in 576
# (24 * 24, the smallest square kernel) is the first where every sum of codes
# in [230, 255] times 127 passes 2**24; 514 * 255 * 127 is below 2**24
_ONE_DOT_LAYERS = {
    ("fully_connected", 576): (0, 0, (576, 1, 1)),
    ("pointwise_conv2d", 576): (1, 1, (576, 1, 1)),
    ("depthwise_conv2d", 576): (24, 24, (1, 24, 24)),
    ("conv2d", 576): (3, 3, (64, 3, 3)),
    ("fully_connected", 514): (0, 0, (514, 1, 1)),
    ("pointwise_conv2d", 514): (1, 1, (514, 1, 1)),
    ("depthwise_conv2d", 514): (2, 257, (1, 2, 257)),
    ("conv2d", 514): (1, 2, (257, 1, 2)),
}


@pytest.mark.parametrize("kind, fan_in", sorted(_ONE_DOT_LAYERS))
def test_same_sign_sums_near_the_float32_bound_are_exact(kind, fan_in):
    """Weight codes of 127 and input codes near 255, so nothing cancels. Past
    the float32 bound the exact sum is odd and above 2**24, which float32 cannot
    hold, so running such a layer in float32 would round it; just below the
    bound float32 is chosen and exact."""
    kh, kw, in_shape = _ONE_DOT_LAYERS[kind, fan_in]
    layer = oracles._mk(1, kind, [0], 1, kh, kw, 1, 0, in_shape, bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(fan_in, 127), 8),
                         shape=layer.weight_shape, scales=np.ones(1))
    rec = PackedLayer(layer_id=1, kind=kind, weight_bits=8, out_bits=32, weight=qw,
                      bias_int=np.array([-3], dtype=np.int32), requants=(_unit_rq(1),))
    rng = np.random.default_rng(fan_in)
    x = rng.integers(230, 256, size=(3,) + in_shape).astype(np.int32)
    flat = x.reshape(3, -1)
    flat[:, 0] = 255
    flat[flat.sum(axis=1) % 2 == 0, 1] ^= 1  # an odd sum per image
    sums = 127 * flat.sum(axis=1, dtype=np.int64)
    above = fan_in == 576
    dtype = _kernel_dtype(layer, rec, 255)
    assert dtype is (np.float64 if above else np.float32)
    assert (sums > 2 ** 24).all() if above else (sums < 2 ** 24).all()
    assert (sums.astype(np.float32).astype(np.int64) != sums).all() == above
    out = run_codes_layer(layer, rec, [x], dtype).reshape(3)
    for j in range(len(x)):
        assert out[j] == oracles.ref_layer_codes(layer, rec, [x[j]]).reshape(()), j
    assert np.array_equal(out, sums - 3)


def test_weight_codes_unpacked_once(monkeypatch, residual_graph):
    weights = qat.init_weights(residual_graph, seed=2)
    ranges = {t: 1.5 for t in residual_graph.encoded_tensors()}
    calls = []
    real = quantizer.unpack_subbyte
    monkeypatch.setattr(quantizer, "unpack_subbyte",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    once = [4] * len(residual_graph.weighted_layers())
    blob = serialize(build_packed_model(residual_graph, weights,
                                        all_uniform_policy(residual_graph, 4), ranges))
    assert calls == once
    calls.clear()
    model = deserialize(blob)
    images = np.random.default_rng(4).uniform(0, 1.5, size=(2, 3, 8, 8)).astype(np.float32)
    first = run_batch_int(residual_graph, model, images)
    assert np.array_equal(run_batch_int(residual_graph, model, images), first)
    assert calls == once
    for rec in model.layers.values():
        if rec.weight is not None:
            assert not rec.weight.codes().flags.writeable


class _NoTraining:
    """Stands in for the qat module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the integer path used qat.{name}")


def test_integer_path_runs_no_training_code(monkeypatch, toy_graph, residual_graph, pretrained,
                                            toy_ranges):
    """run_batch_int takes its arithmetic from kernels: with inference.qat
    replaced by a stub that raises on any use, it returns the same scores."""
    rng = np.random.default_rng(6)
    runs = []
    for g, weights, ranges in (
            (toy_graph, pretrained[0], toy_ranges),
            (residual_graph, qat.init_weights(residual_graph, seed=5),
             {t: 1.5 for t in residual_graph.encoded_tensors()})):
        model = build_packed_model(g, weights, all_uniform_policy(g, 4), ranges)
        images = rng.uniform(0, 1, size=(4,) + g.input_layer.output_shape).astype(np.float32)
        runs.append((g, model, images, run_batch_int(g, model, images)))
    monkeypatch.setattr(inference, "qat", _NoTraining())
    for g, model, images, want in runs:
        assert np.array_equal(run_batch_int(g, model, images), want)


def test_input_codes_are_the_training_codes(toy_graph, pretrained, toy_ranges):
    """Images of values at and around every rounding boundary of the model's
    input clip: run_codes_network's input codes equal rint(y / s) of the
    training forward's fake-quantized input y under the model's clips."""
    weights = pretrained[0]
    policy = all_uniform_policy(toy_graph)
    model = toy_int_model(toy_graph, weights, toy_ranges, policy)
    in_tid = toy_graph.input_layer.id
    x = oracles.code_boundary_values(model.act_clip[in_tid], model.act_bits[in_tid])
    per_image = int(np.prod(toy_graph.input_layer.output_shape))
    images = np.zeros(-(-x.size // per_image) * per_image, np.float32)
    images[:x.size] = x
    images = images.reshape((-1,) + toy_graph.input_layer.output_shape)
    codes = dict(run_codes_network(toy_graph, model, images))[in_tid]
    y = dict(qat._walk(toy_graph, weights, images, policy, model.act_clip))[in_tid]
    assert np.array_equal(codes, np.rint(y / model.act_scale(in_tid)))


# ---------------------------------------------------------------------------
# Accuracy reporting
# ---------------------------------------------------------------------------

def test_evaluate_accuracy_per_class_rows(toy_graph, pretrained, desk_small):
    top1, rows = evaluate_accuracy(toy_graph, desk_small, weights=pretrained[0])
    assert len(rows) == 10
    assert sum(r["count"] for r in rows) == 120
    agg = sum(r["correct"] for r in rows) / sum(r["count"] for r in rows)
    assert top1 == pytest.approx(agg, abs=1e-9)


def test_per_class_rows_cover_every_class_of_the_dataset(toy_graph, pretrained, toy_ranges,
                                                         desk_small):
    """A val split holding only labels 0-3 of a 10-class dataset still gets 10 rows."""
    from mcuq.data import Dataset

    labels = np.concatenate([np.arange(20) % 10, np.arange(20) % 4])
    d = Dataset(images=desk_small.images[:40], labels=labels, n_train=20)
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    for kwargs in ({"weights": pretrained[0]}, {"model": model}):
        _, rows = evaluate_accuracy(toy_graph, d, **kwargs)
        assert [r["class"] for r in rows] == list(range(10))
        assert [r["count"] for r in rows] == [5] * 4 + [0] * 6
        assert all(r["top1"] == 0.0 for r in rows[4:])


def test_per_class_csv_format():
    rows = [{"class": 0, "count": 5, "correct": 4, "top1": 0.8}]
    text = per_class_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "class,count,correct,top1"
    assert lines[1] == "0,5,4,0.8"


def test_empty_split_raises(toy_graph, pretrained):
    imgs = np.zeros((4, 1, 28, 28), dtype=np.float32)
    labels = np.zeros(4, dtype=np.int64)
    from mcuq.data import Dataset

    d = Dataset(images=imgs, labels=labels, n_train=3)
    d.n_train = 4  # fake an empty val view after construction
    with pytest.raises(DatasetError):
        evaluate_accuracy(toy_graph, d, weights=pretrained[0], split="val")


@pytest.mark.parametrize("shape", [(3, 1, 32, 32), (3, 3, 28, 28), (3, 28, 28)],
                         ids=["32x32", "3_channels", "3d"])
def test_library_walks_check_the_batch_geometry(toy_graph, pretrained, toy_ranges, shape):
    """A batch whose (C, H, W) is not the graph's input shape raises
    DatasetError in both engines, not a numpy error or scores of the wrong
    images (32x32 images end at 4x4 after the convs, as 28x28 ones do)."""
    weights = pretrained[0]
    model = toy_int_model(toy_graph, weights, toy_ranges)
    images = np.zeros(shape, np.float32)
    labels = np.zeros(shape[0], np.int64)
    dataset = types.SimpleNamespace(split=lambda name: (images, labels), num_classes=10)
    for run in (lambda: qat.forward_network(toy_graph, weights, images),
                lambda: run_batch_int(toy_graph, model, images),
                lambda: calibrate_act_ranges(toy_graph, weights, images),
                lambda: evaluate_accuracy(toy_graph, dataset, weights=weights),
                lambda: evaluate_accuracy(toy_graph, dataset, model=model)):
        with pytest.raises(DatasetError, match=r"dataset images are .* the graph's input is "
                                               r"\(1, 28, 28\)"):
            run()


class _CountedCodes(np.ndarray):
    """Input codes that count the max/min calls made on them."""
    calls = 0

    def max(self, *args, **kwargs):
        _CountedCodes.calls += 1
        return super().max(*args, **kwargs)

    def min(self, *args, **kwargs):
        _CountedCodes.calls += 1
        return super().min(*args, **kwargs)


@pytest.mark.parametrize("fan_in, code, in_max, bias, dtype", [
    pytest.param(4, 255, 255, 0, np.float32, id="static_proves_float32"),
    pytest.param(4, 255, None, 0, np.float64, id="no_static_bound"),
    pytest.param(4, 255, 255, 2 ** 31 - 1 - 4 * 255 * 127, np.float32,
                 id="static_needs_int32_check"),
    pytest.param(576, 227, 255, 0, np.float64, id="static_fails_float32_codes_below"),
    pytest.param(576, 255, 255, 0, np.float64, id="static_fails_float32_codes_at"),
])
def test_static_input_bound_is_used_only_where_it_proves_float32(monkeypatch, fan_in, code,
                                                                 in_max, bias, dtype):
    """A linear layer's kernel dtype comes from the static bound of its input
    encoding alone: float32 only where that bound proves it exact, float64
    elsewhere, also on a call whose own codes would fit float32 (576 * 227 *
    127 < 2**24 <= 576 * 255 * 127). A caller with no encoding at hand (in_max
    None) passes float64, exact for any proven layer. The kernel gets the
    weights in that dtype and the input codes as they are, int32. A bias
    that takes the range to exactly 2**31 - 1 needs no check of its own,
    and no call reads its codes' range."""
    layer, rec = _fc(np.full((1, fan_in), 127), [bias])
    run_dtype = np.float64 if in_max is None else _kernel_dtype(layer, rec, in_max)
    assert run_dtype is dtype
    x = np.full((2, fan_in, 1, 1), code, dtype=np.int32).view(_CountedCodes)
    seen, real_acc = [], inference.linear_acc
    monkeypatch.setattr(inference, "linear_acc",
                        lambda layer, x, w: seen.append((x, w.dtype)) or real_acc(layer, x, w))
    _CountedCodes.calls = 0
    out = run_codes_layer(layer, rec, [x], run_dtype)
    ((got_x, got_w),) = seen
    assert got_x is x and got_w == dtype and _CountedCodes.calls == 0
    assert np.array_equal(np.asarray(out[0]),
                          oracles.ref_layer_codes(layer, rec, [np.asarray(x[0])]))


def test_network_passes_each_linear_layer_its_input_encodings_bound(monkeypatch, toy_graph,
                                                                    pretrained, toy_ranges,
                                                                    desk_small):
    """run_codes_network runs every linear layer's kernel in the dtype that
    check_model_matches proved from 2**bits - 1 of the layer's input encoding:
    the weights arrive in it and the input codes as int32. It reads no max or
    min of any layer's input codes, and gives the codes of float64 runs,
    which are exact for any proven layer."""
    policy = oracles.random_policy(np.random.default_rng(3), toy_graph, allow_fp32=False)
    model = build_packed_model(toy_graph, pretrained[0], policy, fresh_ranges(toy_ranges))
    dtypes = check_model_matches(toy_graph, model)
    assert dtypes == {
        l.id: _kernel_dtype(l, model.layers[l.id], (1 << model.act_bits[l.input_ids[0]]) - 1)
        for l in toy_graph.layers if l.kind in inference.LINEAR_KINDS}
    seen, real_layer, real_acc = {}, inference.run_codes_layer, inference.linear_acc

    def spy(layer, rec, in_codes, dtype):
        return real_layer(layer, rec, [x.view(_CountedCodes) for x in in_codes], dtype)

    def acc(layer, x, w):
        seen[layer.id] = (x.dtype, w.dtype)
        return real_acc(layer, x, w)

    monkeypatch.setattr(inference, "run_codes_layer", spy)
    monkeypatch.setattr(inference, "linear_acc", acc)
    _CountedCodes.calls = 0
    codes = dict(run_codes_network(toy_graph, model, desk_small.images[:5]))
    assert seen == {lid: (np.int32, d) for lid, d in dtypes.items()}
    assert _CountedCodes.calls == 0
    for lid in model.layers:
        layer = toy_graph.layer(lid)
        want = real_layer(layer, model.layers[lid], [codes[t] for t in layer.input_ids],
                          np.float64 if lid in dtypes else None)
        assert np.array_equal(codes[lid], want), lid


def test_a_model_proves_itself_once_per_graph(monkeypatch, toy_graph, residual_graph,
                                              pretrained, toy_ranges, desk_small):
    """Two runs of one (graph, model) call check_model_matches once and give
    identical codes. The proof is kept with its graph, which the model holds
    (an id() key could be reused by a later graph), and a model that ran on
    its graph is still refused on one that it does not match."""
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    calls, check = [], inference.check_model_matches
    monkeypatch.setattr(inference, "check_model_matches",
                        lambda g, m: calls.append(g) or check(g, m))
    images = desk_small.images[:3]
    first, second = (dict(run_codes_network(toy_graph, model, images)) for _ in range(2))
    assert calls == [toy_graph]
    assert first.keys() == second.keys()
    assert all(np.array_equal(first[t], second[t]) for t in first)
    assert list(model.dtypes) == [toy_graph]
    other = np.zeros((1,) + residual_graph.input_layer.output_shape, np.float32)
    with pytest.raises(ModelMismatchError, match="does not match the graph"):
        run_batch_int(residual_graph, model, other)
    assert calls == [toy_graph, residual_graph]


def test_two_loads_of_one_graph_share_one_proof(monkeypatch, toy_graph, pretrained, toy_ranges,
                                                desk_small):
    """Two loads of one fixture are equal and hash equal, so a model run on
    each keeps one proof, checked once. The hash is taken once per graph and
    kept on it, as its other derived facts are."""
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    calls, check = [], inference.check_model_matches
    monkeypatch.setattr(inference, "check_model_matches",
                        lambda g, m: calls.append(g) or check(g, m))
    first, second = (load_graph(fixture_path("toycnn_mnist.json")) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first.__dict__["_hash"] == hash(first)
    images = desk_small.images[:3]
    assert np.array_equal(run_batch_int(first, model, images), run_batch_int(second, model, images))
    assert len(calls) == 1 and len(model.dtypes) == 1 and model.dtypes.get(second) is not None


@pytest.mark.parametrize("spoil, error", [
    (lambda rec: replace(rec, out_bits=32), ModelMismatchError),
    (lambda rec: replace(rec, bias_int=np.full_like(rec.bias_int, 2 ** 31 - 1)),
     AccumulatorOverflowError),
], ids=["wide_hidden_layer", "overflowing_bias"])
def test_a_bad_model_replaced_from_one_that_ran_is_refused_on_its_first_run(
        toy_graph, pretrained, toy_ranges, desk_small, spoil, error):
    """dataclasses.replace makes a new model, with a proof of its own to earn:
    a record spoiled in a copy of a model that already ran is refused."""
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    images = desk_small.images[:3]
    run_batch_int(toy_graph, model, images)
    bad = replace(model, layers={**model.layers, 4: spoil(model.layers[4])})
    with pytest.raises(error, match="layer 4"):
        run_batch_int(toy_graph, bad, images)
    run_batch_int(toy_graph, model, images)  # the original still runs


def test_each_requant_keeps_its_setup_per_layout(monkeypatch, toy_graph, pretrained, toy_ranges,
                                                 desk_small):
    """A record's requants keep apply_requant's set-up per accumulator layout:
    a second batch of one size builds none, a batch of another size builds
    one per requant, and every batch gives the codes of a model without memos."""
    model = toy_int_model(toy_graph, pretrained[0], toy_ranges)
    built, setup = [], quantizer._requant_setup
    monkeypatch.setattr(quantizer, "_requant_setup",
                        lambda *args: built.append(1) or setup(*args))
    n_requants = sum(len(rec.requants) for rec in model.layers.values())
    for size, builds in ((4, n_requants), (4, 0), (3, n_requants)):
        built.clear()
        images = desk_small.images[:size]
        codes = dict(run_codes_network(toy_graph, model, images))
        assert len(built) == builds, size
        fresh = deserialize(serialize(model))
        assert all(np.array_equal(codes[t], c)
                   for t, c in run_codes_network(toy_graph, fresh, images))
    assert [len(m) for rec in model.layers.values() for m in rec.memos] == [2] * n_requants
