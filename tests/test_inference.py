"""Integer execution: identity cases, oracle agreement, saturation, accuracy."""

import numpy as np
import pytest

import oracles
from conftest import fresh_ranges
from mcuq import inference, qat, quantizer
from mcuq.errors import AccumulatorOverflowError, DatasetError
from mcuq.graph_ir import COMPUTE_KINDS, NetworkGraph, topo_order, validate
from mcuq.inference import (
    evaluate_accuracy,
    per_class_csv,
    run_batch_int,
    run_codes_layer,
    run_codes_network,
    run_network_int,
)
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import PackedLayer, build_packed_model, deserialize, serialize
from mcuq.quantizer import (
    QuantizedTensor,
    RequantParams,
    calibrate_act_ranges,
    pack_subbyte,
    quantize_act,
)


def identity_conv_rec(n_ch=1, bits=8):
    """1x1 conv with weight code 1 at scale 1 and unit requant (M = 1)."""
    codes = np.ones((n_ch, n_ch, 1, 1), dtype=np.int64)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.eye(n_ch).reshape(-1), 8,
                                                     signed=True),
                         shape=(n_ch, n_ch, 1, 1), scales=np.ones(n_ch))
    rq = RequantParams(multiplier=np.full(n_ch, 1 << 30, dtype=np.int32),
                       shift=np.full(n_ch, 30, dtype=np.int32))
    return PackedLayer(layer_id=1, kind="conv2d", weight_bits=8, out_bits=bits,
                       weight=qw, bias_int=np.zeros(n_ch, dtype=np.int32),
                       requants=(rq,)), codes


def test_identity_conv_passes_codes_through():
    layer = oracles._mk(1, "conv2d", [0], 1, 1, 1, 1, 0, (1, 4, 4), (1, 4, 4),
                        bias=1)
    rec, _ = identity_conv_rec()
    x = np.arange(256, dtype=np.int32).reshape(16, 1, 4, 4)[:16]
    out = run_codes_layer(layer, rec, [x])
    assert np.array_equal(out, x)


def test_identity_conv_full_code_range():
    layer = oracles._mk(1, "conv2d", [0], 1, 1, 1, 1, 0, (1, 16, 16), (1, 16, 16),
                        bias=1)
    rec, _ = identity_conv_rec()
    x = np.arange(256, dtype=np.int32).reshape(1, 1, 16, 16)
    assert np.array_equal(run_codes_layer(layer, rec, [x]), x)


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
        policy = oracles.random_policy(rng, g, allow_fp32=False)
        weights = qat.init_weights(g, seed=graphs)
        for entry in weights.values():
            entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape).astype(np.float32)
        images = rng.uniform(0, 1, size=(2,) + g.input_layer.output_shape).astype(np.float32)
        model = build_packed_model(g, weights, policy, calibrate_act_ranges(g, weights, images))
        codes = run_codes_network(g, model, images)
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
                assert np.array_equal(codes[lid][j], ref), f"graph {graphs} layer {lid}"
        assert np.array_equal(run_batch_int(g, model, images),
                              codes[g.output_layer.input_ids[0]])
        kinds |= {l.kind for l in g.layers} & want


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
    layer = oracles._mk(1, "avg_pool", [0], c, kh, kw, s, p, (c, h, w), (c, oh, ow))
    # an output scale that saturates some of the largest window sums
    rq = quantizer.compute_requant(1.0, np.array([1.0 / (kh * kw)]),
                                   0.9 * 255 / ((1 << out_bits) - 1))
    rec = PackedLayer(layer_id=1, kind="avg_pool", out_bits=out_bits, requants=(rq,))
    x = rng.integers(0, 256, size=(4, c, h, w)).astype(np.int32)
    out = run_codes_layer(layer, rec, [x])
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
    layer = oracles._mk(1, "conv2d", [0], 1, 1, 1, 1, 0, (1, 2, 2), (1, 2, 2),
                        bias=1)
    rec, _ = identity_conv_rec(bits=8)
    big = np.full((1, 1, 2, 2), 4000, dtype=np.int32)
    out = run_codes_layer(layer, rec, [big])
    assert np.array_equal(out, np.full((1, 1, 2, 2), 255))


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
    layer = oracles._mk(1, "fully_connected", [0], 1, 0, 0, 1, 0,
                        (4, 1, 1), (1, 1, 1), bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(4, 127), 8, signed=True),
                         shape=(1, 4), scales=np.ones(1))
    rq = RequantParams(multiplier=np.array([1 << 30], dtype=np.int32),
                       shift=np.array([30], dtype=np.int32))
    rec = PackedLayer(layer_id=1, kind="fully_connected", weight_bits=8, out_bits=32,
                      weight=qw, bias_int=np.array([2 ** 31 - 1], dtype=np.int32),
                      requants=(rq,))
    x = np.full((1, 4, 1, 1), 255, dtype=np.int64)
    with pytest.raises(AccumulatorOverflowError):
        run_codes_layer(layer, rec, [x])
    # a 7x7 pool of codes near 2**31 - 1: its float64 window sums pass int32
    pool = oracles._mk(1, "avg_pool", [0], 1, 7, 7, 7, 0, (1, 7, 7), (1, 1, 1))
    rec = PackedLayer(layer_id=1, kind="avg_pool", out_bits=8, requants=(
        quantizer.compute_requant(1.0, np.array([1.0 / 49]), 1.0),))
    x = np.full((1, 1, 7, 7), 2 ** 31 - 2, dtype=np.int64)
    with pytest.raises(AccumulatorOverflowError, match="layer 1"):
        run_codes_layer(pool, rec, [x])


# 2x2 conv2d, one input channel, weight codes 1 (channel 0) and 127 (channel 1):
# at input codes up to _K channel 1's sums reach 4 * 127 * _K = 2**31 - 8 and
# channel 0's 4 * _K, so the bound 4 * _K * 2**7 passes int32 and the check runs
_K = 4227330


@pytest.mark.parametrize("bias0, overflows", [
    pytest.param(2 ** 31 - 1 - 4 * _K, False, id="each_channel_fits"),
    pytest.param(2 ** 31 - 4 * _K, True, id="channel_0_overflows"),
])
def test_int32_check_is_per_channel(bias0, overflows):
    """Channel 0 holds small sums under a bias near 2**31, channel 1 sums near
    2**31 under a zero bias: every accumulator fits int32, though the largest
    sum plus the largest bias does not. One more on channel 0's bias overflows
    channel 0 alone."""
    layer = oracles._mk(1, "conv2d", [0], 2, 2, 2, 1, 0, (1, 3, 3), (2, 2, 2), bias=1)
    codes = np.repeat([1, 127], 4)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(codes, 8, signed=True),
                         shape=(2, 1, 2, 2), scales=np.ones(2))
    rq = RequantParams(multiplier=np.full(2, 1 << 30, dtype=np.int32),
                       shift=np.full(2, 30, dtype=np.int32))  # M = 1
    rec = PackedLayer(layer_id=1, kind="conv2d", weight_bits=8, out_bits=32, weight=qw,
                      bias_int=np.array([bias0, 0], dtype=np.int32), requants=(rq,))
    x = np.random.default_rng(5).integers(0, _K, size=(2, 1, 3, 3))
    x[0] = _K  # image 0 reaches both channels' largest sums
    assert inference._acc_bound(1, 4, _K, 2 ** 7, rec.bias_int)[1]
    if overflows:
        with pytest.raises(AccumulatorOverflowError, match="layer 1"):
            run_codes_layer(layer, rec, [x])
        return
    out = run_codes_layer(layer, rec, [x])
    for j in range(len(x)):
        assert np.array_equal(out[j], oracles.ref_layer_codes(layer, rec, [x[j]])), j
    assert out[0, 0].max() == 2 ** 31 - 1 and out[0, 1].max() == 2 ** 31 - 8


# fan-in 4 at x_max 255 and 8-bit weights: fan_in * x_max * 2**7 = 130560
_PROOF_BOUND = 4 * 255 * 128


@pytest.mark.parametrize("bias, checked", [
    pytest.param(2 ** 31 - 1 - _PROOF_BOUND, False, id="bound_at_int32_max"),
    pytest.param(2 ** 31 - _PROOF_BOUND, True, id="bias_one_larger"),
    pytest.param(2 ** 31 - 1, True, id="overflow"),
])
def test_int32_proof_skips_only_a_passing_check(monkeypatch, bias, checked):
    """A weighted layer with unsigned 8-bit output skips _check_acc exactly
    where fan_in * x_max * 2**(w_bits - 1) + max|bias| <= 2**31 - 1; past it
    the check runs, and raises on a real overflow."""
    layer = oracles._mk(1, "fully_connected", [0], 1, 0, 0, 1, 0,
                        (4, 1, 1), (1, 1, 1), bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(4, 127), 8, signed=True),
                         shape=(1, 4), scales=np.ones(1))
    rq = RequantParams(multiplier=np.array([1 << 30], dtype=np.int32),
                       shift=np.array([54], dtype=np.int32))  # M = 2**-24
    rec = PackedLayer(layer_id=1, kind="fully_connected", weight_bits=8, out_bits=8,
                      weight=qw, bias_int=np.array([bias], dtype=np.int32), requants=(rq,))
    x = np.full((1, 4, 1, 1), 255, dtype=np.int32)
    calls = []
    real = inference._check_acc
    monkeypatch.setattr(inference, "_check_acc", lambda *a: calls.append(a[1]) or real(*a))
    assert inference._acc_bound(1, 4, 255, 2 ** 7, rec.bias_int)[1] is checked
    if 4 * 255 * 127 + bias > 2 ** 31 - 1:
        with pytest.raises(AccumulatorOverflowError, match="layer 1"):
            run_codes_layer(layer, rec, [x])
    else:
        out = run_codes_layer(layer, rec, [x])
        assert np.array_equal(out[0], oracles.ref_layer_codes(layer, rec, [x[0]]))
        assert 0 < out[0, 0] < 255
    assert calls == ([1] if checked else [])


@pytest.mark.parametrize("x_max, w_bits", [(255, 8), (15, 4), (3, 2), (2 ** 31 - 1, 8)])
def test_float64_exactness_bound_is_checked(x_max, w_bits):
    # first fan-in whose bound fan_in * x_max * 2**(w_bits - 1) + 2**31 reaches 2**53
    first_bad = -(-(2 ** 53 - 2 ** 31) // (x_max * 2 ** (w_bits - 1)))
    bias = np.zeros(1, dtype=np.int32)
    inference._acc_bound(7, first_bad - 1, x_max, 2 ** (w_bits - 1), bias)
    with pytest.raises(AccumulatorOverflowError, match="layer 7"):
        inference._acc_bound(7, first_bad, x_max, 2 ** (w_bits - 1), bias)


def test_run_codes_layer_checks_the_float64_range():
    # codes far past any activation width, as a malformed caller could pass
    fan_in = 2 ** 15 + 1
    layer = oracles._mk(1, "fully_connected", [0], 1, 0, 0, 1, 0,
                        (fan_in, 1, 1), (1, 1, 1), bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(fan_in, -128), 8, signed=True),
                         shape=(1, fan_in), scales=np.ones(1))
    rq = RequantParams(multiplier=np.array([1 << 30], dtype=np.int32),
                       shift=np.array([30], dtype=np.int32))
    rec = PackedLayer(layer_id=1, kind="fully_connected", weight_bits=8, out_bits=32,
                      weight=qw, bias_int=np.zeros(1, dtype=np.int32), requants=(rq,))
    x = np.full((1, fan_in, 1, 1), 2 ** 31 - 1, dtype=np.int64)
    with pytest.raises(AccumulatorOverflowError, match="float64"):
        run_codes_layer(layer, rec, [x])


@pytest.mark.parametrize("a_bits", [2, 4, 8])
@pytest.mark.parametrize("w_bits", [2, 4, 8])
def test_float32_bound_at_its_boundary(a_bits, w_bits):
    x_max = 2 ** a_bits - 1
    # first fan-in whose bound fan_in * x_max * 2**(w_bits - 1) reaches 2**24
    first_f64 = -(-2 ** 24 // (x_max * 2 ** (w_bits - 1)))
    bias = np.zeros(1, dtype=np.int32)
    dtype, _ = inference._acc_bound(1, first_f64 - 1, x_max, 2 ** (w_bits - 1), bias)
    assert dtype is np.float32
    dtype, _ = inference._acc_bound(1, first_f64, x_max, 2 ** (w_bits - 1), bias)
    assert dtype is np.float64


# (kh, kw, input shape) of a one-output layer, per (kind, fan-in). Fan-in 576
# (24 * 24, the smallest square kernel) is the first where every sum of codes
# in [230, 255] times 127 passes 2**24; 514 * 255 * 128 is just below 2**24
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
    layer = oracles._mk(1, kind, [0], 1, kh, kw, 1, 0, in_shape, (1, 1, 1), bias=1)
    qw = QuantizedTensor(bits=8, packed=pack_subbyte(np.full(fan_in, 127), 8, signed=True),
                         shape=layer.weight_shape, scales=np.ones(1))
    rq = RequantParams(multiplier=np.array([1 << 30], dtype=np.int32),
                       shift=np.array([30], dtype=np.int32))
    rec = PackedLayer(layer_id=1, kind=kind, weight_bits=8, out_bits=32, weight=qw,
                      bias_int=np.array([-3], dtype=np.int32), requants=(rq,))
    rng = np.random.default_rng(fan_in)
    x = rng.integers(230, 256, size=(3,) + in_shape).astype(np.int32)
    flat = x.reshape(3, -1)
    flat[:, 0] = 255
    flat[flat.sum(axis=1) % 2 == 0, 1] ^= 1  # an odd sum per image
    sums = 127 * flat.sum(axis=1, dtype=np.int64)
    above = fan_in == 576
    dtype, _ = inference._acc_bound(1, fan_in, 255, 2 ** 7, rec.bias_int)
    assert dtype is (np.float64 if above else np.float32)
    assert (sums > 2 ** 24).all() if above else (sums < 2 ** 24).all()
    assert (sums.astype(np.float32).astype(np.int64) != sums).all() == above
    out = run_codes_layer(layer, rec, [x]).reshape(3)
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
