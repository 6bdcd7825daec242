"""Quantizer primitives: rounding, packing, scales, requantization, calibration."""

import numpy as np
import pytest

import oracles
from mcuq import kernels, qat, quantizer
from mcuq.errors import PackFormatError
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import PackedModel
from mcuq.quantizer import (
    CLIP_FLOOR,
    RequantParams,
    act_codes,
    apply_requant,
    calibrate_act_ranges,
    compute_requant,
    fake_quant_weights,
    pack_subbyte,
    percentile_clip,
    qrange,
    quantize_act,
    quantize_weights_pc,
    round_half_away,
    unpack_subbyte,
    weight_codes,
)


# ---------------------------------------------------------------------------
# Ranges and rounding
# ---------------------------------------------------------------------------

def test_qrange_table():
    assert qrange(2, signed=True) == (-2, 1)
    assert qrange(2, signed=False) == (0, 3)
    assert qrange(4, signed=True) == (-8, 7)
    assert qrange(8, signed=True) == (-128, 127)
    assert qrange(8, signed=False) == (0, 255)
    assert qrange(32, signed=True) == (-(2 ** 31), 2 ** 31 - 1)


def test_round_half_away_ties():
    x = np.array([0.5, -0.5, 1.5, 2.5, -2.5, 0.49, -0.49, 3.0])
    want = np.array([1.0, -1.0, 2.0, 3.0, -3.0, 0.0, 0.0, 3.0])
    assert np.array_equal(round_half_away(x), want)


def test_round_half_away_matches_ratio_oracle():
    rng = np.random.default_rng(0)
    num = rng.integers(-10**6, 10**6, size=2000)
    den = rng.integers(1, 1000, size=2000)
    got = round_half_away(num / den)
    want = np.array([oracles.round_haz_ratio(int(n), int(d))
                     for n, d in zip(num, den)])
    assert np.array_equal(got.astype(np.int64), want)


# ---------------------------------------------------------------------------
# Sub-byte packing
# ---------------------------------------------------------------------------

def test_pack_layout_examples():
    assert pack_subbyte(np.array([1, -2, -1, 0]), 2) == b"\x39"
    assert pack_subbyte(np.array([-2, 1]), 2) == b"\x06"


def test_pack_roundtrip_exhaustive_2_4():
    for bits in (2, 4):
        lo, hi = qrange(bits, signed=True)
        v = np.arange(lo, hi + 1, dtype=np.int64)
        data = pack_subbyte(v, bits)
        assert len(data) == (v.size * bits + 7) // 8
        back = unpack_subbyte(data, bits, v.size)
        assert np.array_equal(back, v)
        ref = oracles.ref_pack(v.tolist(), bits, True)
        assert bytes(ref) == data


def test_pack_roundtrip_random_8bit():
    rng = np.random.default_rng(3)
    lo, hi = qrange(8, signed=True)
    v = rng.integers(lo, hi + 1, size=100000)
    back = unpack_subbyte(pack_subbyte(v, 8), 8, v.size)
    assert np.array_equal(back, v)


def test_pack_odd_length_pads_with_zero_fields():
    data = pack_subbyte(np.array([-1, 1, -2]), 2)
    assert data == b"\x27"
    assert np.array_equal(unpack_subbyte(data, 2, 4), [-1, 1, -2, 0])


def test_pack_rejects_out_of_range():
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([2]), 2)
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([-3]), 2)
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([1]), 3)


def test_unpack_rejects_short_buffer():
    with pytest.raises(PackFormatError):
        unpack_subbyte(b"\x00", 4, 3)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_unpack_every_byte_value_matches_oracle(bits):
    data = bytes(range(256))
    n = 256 * 8 // bits
    got = unpack_subbyte(data, bits, n)
    assert got.dtype == np.int32
    assert got.tolist() == oracles.ref_unpack(data, bits, n, True)


def test_pack_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bits = int(rng.choice([2, 4, 8]))
        lo, hi = qrange(bits, signed=True)
        v = rng.integers(lo, hi + 1, size=int(rng.integers(1, 40)))
        data = pack_subbyte(v, bits)
        assert data == bytes(oracles.ref_pack(v.tolist(), bits, True))
        assert oracles.ref_unpack(data, bits, v.size, True) == v.tolist()


# ---------------------------------------------------------------------------
# Weight quantization
# ---------------------------------------------------------------------------

def test_weight_scale_examples():
    w = np.array([[-1.0, 0.5, 1.0]])
    q = quantize_weights_pc(w, 2)
    assert q.scales[0] == 1.0
    assert np.array_equal(q.codes(), [[-1, 1, 1]])

    z = np.zeros((2, 3))
    qz = quantize_weights_pc(z, 8)
    assert np.array_equal(qz.scales, [1.0, 1.0])
    assert not qz.codes().any()


def test_weight_codes_decoded_once_read_only():
    q = quantize_weights_pc(np.array([[-1.0, 0.5, 1.0], [2.0, 0.0, -2.0]]), 4)
    codes = q.codes()
    assert codes is q.codes()
    assert codes.dtype == np.int8 and codes.shape == (2, 3)
    assert np.array_equal(codes, unpack_subbyte(q.packed, 4, 6).reshape(2, 3))
    with pytest.raises(ValueError):
        codes[0, 0] = 0


def test_weight_roundtrip_bound():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(6, 25)).astype(np.float32)
    q = quantize_weights_pc(w, 8)
    # the container holds weight_codes' codes and float32 scales
    codes, scales = weight_codes(w, 8)
    assert np.array_equal(q.codes(), codes) and np.array_equal(q.scales, scales)
    # w / s rounds once in float32 before the codes round: 2**-24 of 127 codes
    err = np.abs(q.codes() * q.scales[:, None] - w)
    assert (err <= q.scales[:, None] * (0.5 + 1e-5)).all()


def test_weight_codes_within_signed_range():
    rng = np.random.default_rng(10)
    for bits in (2, 4, 8):
        w = rng.normal(size=(4, 9)) * 10.0 ** rng.integers(-3, 3)
        q = quantize_weights_pc(w, bits)
        lo, hi = qrange(bits, signed=True)
        assert q.codes().min() >= lo and q.codes().max() <= hi


def test_fake_quant_weights_idempotent():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 16))
    for bits in (2, 4, 8):
        fq = fake_quant_weights(w, bits)
        assert np.allclose(fake_quant_weights(fq, bits), fq, atol=1e-12)


def test_scales_use_channel_absmax():
    w = np.array([[0.1, -0.4], [2.0, 0.0]])
    codes, s = weight_codes(w, 8)
    assert s.dtype == np.float32 and codes.dtype == w.dtype
    assert np.array_equal(s, np.float32([0.4 / 127, 2.0 / 127]))
    codes, s = weight_codes(w.astype(np.float32), 8)
    assert codes.dtype == np.float32 and np.array_equal(s, np.float32([0.4 / 127, 2.0 / 127]))


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_fake_quant_weights_equal_the_containers_weights(toy_graph, residual_graph,
                                                         mobilenet_graph, pretrained, bits):
    """The trained weights are the container's codes times its scales, bit for
    bit (+ 0.0 turns the -0.0 of a negative weight rounded to code 0 into the
    container's +0.0), on every weighted layer of the three fixtures."""
    for g, weights in ((toy_graph, pretrained[0]),
                       (residual_graph, qat.init_weights(residual_graph)),
                       (mobilenet_graph, qat.init_weights(mobilenet_graph))):
        for lid, entry in weights.items():
            w = entry["w"]
            assert w.dtype == np.float32
            q = quantize_weights_pc(w, bits)
            fq = fake_quant_weights(w, bits)
            want = np.float32(q.codes() * q.scales.reshape((-1,) + (1,) * (w.ndim - 1)))
            assert fq.dtype == np.float32
            assert np.array_equal((fq + 0.0).view(np.uint32), want.view(np.uint32)), (g, lid)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_a_channel_with_a_sub_normal_scale_encodes_as_zero(bits):
    """Channel 0's scale would be sub-normal in float32 (channel 1's is normal,
    at the smallest such value): scale 1 and codes 0, as for channel 2, all zero."""
    qpos = (1 << (bits - 1)) - 1
    tiny = np.finfo(np.float32).tiny
    w = np.zeros((3, 4), np.float32)
    w[0] = [1e-38 * qpos, -5e-39, 0.0, 1e-39]
    w[1] = [tiny * qpos, 0.0, 0.0, -tiny]
    codes, scales = weight_codes(w, bits)
    assert scales.tolist() == [1.0, np.float32(tiny * qpos) / np.float32(qpos), 1.0]
    assert scales[1] >= tiny
    assert not codes[0].any() and not codes[2].any() and codes[1, 0] == qpos
    q = quantize_weights_pc(w, bits)
    assert q.scales.tolist() == scales.tolist() and np.array_equal(q.codes(), codes)
    assert not fake_quant_weights(w, bits)[0].any()


@pytest.mark.parametrize("w, bits", [
    (np.array([[1.0, np.nan]]), 8),
    (np.array([[np.inf, 1.0]], np.float32), 4),
    (np.array([[1e39, 1.0]]), 2),   # finite, but not in float32
    (np.ones((2, 2)), 3),
    (np.ones((2, 2)), 16),
])
def test_quantize_weights_pc_rejects_non_finite_weights_and_bad_bits(w, bits):
    with pytest.raises(PackFormatError):
        quantize_weights_pc(w, bits)


# ---------------------------------------------------------------------------
# Activation fake-quant
# ---------------------------------------------------------------------------

def _walk_input(g, x: np.ndarray, clip: float, bits: int):
    """The training forward's fake-quantized input and its PACT masks (the
    input layer's cache entry of qat._walk) for the values x, laid out as
    zero-padded images of g under the policy all-8 with the input at bits."""
    in_tid = g.input_layer.id
    shape = (-1,) + g.input_layer.output_shape
    images = np.zeros(-(-x.size // np.prod(shape[1:])) * np.prod(shape[1:]), x.dtype)
    images[:x.size] = x
    policy = all_uniform_policy(g)
    policy.act_bits[in_tid] = bits
    ranges = {t: 1.0 for t in g.encoded_tensors()}
    ranges[in_tid] = clip
    cache = []
    acts = dict(qat._walk(g, qat.init_weights(g), images.reshape(shape), policy, ranges,
                          cache))
    entry = next(e for e in cache if e["layer"].id == in_tid)
    return [a.ravel()[:x.size] for a in (acts[in_tid], entry["mask"], entry["act_over"])]


def test_fake_quant_act_levels():
    x = np.linspace(0.0, 1.0, 101)
    q, s = act_codes(x, 1.0, 2)
    assert s == 1 / 3
    assert set(q.tolist()) == {0.0, 1.0, 2.0, 3.0}
    levels = {0.0, 1 / 3, 2 / 3, 1.0}
    assert all(min(abs(v - l) for l in levels) < 1e-9 for v in q * s)


def test_fake_quant_act_clip_exact():
    for bits in (2, 4, 8):
        for clip in (1.0, 0.37, 5.5):
            q, s = act_codes(np.array([clip, clip * 2, -1.0]), clip, bits)
            assert q.tolist() == [(1 << bits) - 1, (1 << bits) - 1, 0]
            y = q * s
            assert y[0] == pytest.approx(clip, abs=1e-7)
            assert y[1] == pytest.approx(clip, abs=1e-7)
            assert y[2] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("clip", [1.0, 0.37, 5.5])
def test_fake_quant_act_chain_matches_round_half_away(toy_graph, dtype, bits, clip):
    """act_codes' codes times s equal round_half_away(clip(x) / s) * s byte for
    byte, exact ties (k + 1/2)*s included, within [0, 2**bits - 1], and leave x
    unchanged. -0.0 is the one input that differs: it gives +0.0, not -0.0.
    The training forward's input is those codes times s for the float32
    values, and its masks are the PACT ones."""
    rng = np.random.default_rng([bits, int(clip * 100)])
    s = clip / ((1 << bits) - 1)
    ties = ((np.arange((1 << bits) - 1) + 0.5) * s).astype(dtype)
    at_clip = np.array([clip], dtype)
    x = np.concatenate([
        rng.uniform(-clip, 2 * clip, 500).astype(dtype),
        ties, np.nextafter(ties, dtype(0)), np.nextafter(ties, dtype(2 * clip)),
        at_clip, np.nextafter(at_clip, dtype(0)), np.nextafter(at_clip, dtype(2 * clip)),
        np.array([2 * clip, 1e30, -1e-30, -0.5, -3 * clip, 0.0, -0.0], dtype),
    ])
    q = np.clip(x, 0.0, clip) / s
    assert np.count_nonzero(q - np.floor(q) == 0.5) >= len(ties) // 2  # exact ties present
    x0 = x.copy()
    codes, s_out = act_codes(x, clip, bits)
    assert s_out == s
    assert x.tobytes() == x0.tobytes()
    assert codes.dtype == dtype and (codes == np.floor(codes)).all()
    assert codes.min() == 0 and codes.max() == (1 << bits) - 1
    y = codes * s
    want = round_half_away(np.clip(x, 0.0, clip) / s) * s
    assert y.dtype == want.dtype == dtype
    negzero = (x == 0) & np.signbit(x)
    assert negzero.sum() == 1
    assert np.signbit(want[negzero]).all() and not np.signbit(y[negzero]).any()
    assert y[~negzero].tobytes() == want[~negzero].tobytes()

    x32 = x.astype(np.float32)
    y_walk, inside, over = _walk_input(toy_graph, x32, clip, bits)
    assert y_walk.tobytes() == (act_codes(x32, clip, bits)[0] * s).tobytes()
    assert np.array_equal(inside, (x32 > 0) & (x32 < clip))
    assert np.array_equal(over, x32 >= clip)


@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("clip", [1.0, 0.7313, 2.3, 5.5])
def test_quantize_act_gives_the_training_codes_at_code_boundaries(toy_graph, bits, clip):
    """The integer engine's input codes are the training forward's: on the
    float32 values at and around every rounding boundary, quantize_act equals
    rint(y / s) of the fake-quantized input y of qat._walk."""
    x = oracles.code_boundary_values(clip, bits)
    y, _, _ = _walk_input(toy_graph, x, clip, bits)
    s = clip / ((1 << bits) - 1)
    codes = quantize_act(x, clip, bits)
    assert codes.dtype == np.int32
    assert np.array_equal(codes, np.rint(y / s))


def test_fake_quant_act_rejects_bad_clip():
    for clip in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="is not positive"):
            act_codes(np.zeros(3), clip, 8)
        with pytest.raises(ValueError, match="is not positive"):
            quantize_act(np.zeros(3), clip, 8)
    # a scale below the smallest normal float32 would divide out of the code range
    tiny = float(np.finfo(np.float32).tiny)
    for clip, bits in ((1e-45, 2), (1e-40, 8), (0.99 * 255 * tiny, 8)):
        with pytest.raises(ValueError, match="smallest normal float32"):
            quantize_act(np.ones(3), clip, bits)
    assert act_codes(np.ones(3), 1e-40, 8)[0].max() == 255  # a float64 batch encodes it
    x = np.array([0.0, 100 * tiny, 1.0], np.float32)
    assert quantize_act(x, 255 * tiny, 8).tolist() == [0, 100, 255]


def test_quantize_act_top_code():
    codes = quantize_act(np.array([1.0, 0.0, 2.0]), 1.0, 8)
    assert np.array_equal(codes, [255, 0, 255])


def test_fake_quant_act_gradient_fd(toy_graph):
    # straight-through surrogate: central fd of clamp(x, 0, clip) per element,
    # against the PACT masks of the training forward's input
    rng = np.random.default_rng(21)
    clip = 0.8
    x = rng.uniform(-0.5, 1.3, size=256)
    keep = (np.abs(x) > 1e-3) & (np.abs(x - clip) > 1e-3)  # non-boundary only
    x = x[keep].astype(np.float32)
    _, inside, over = _walk_input(toy_graph, x, clip, 8)
    x = x.astype(np.float64)
    eps = 1e-6
    surrogate = lambda v: np.clip(v, 0.0, clip)
    fd = (surrogate(x + eps) - surrogate(x - eps)) / (2 * eps)
    declared = inside.astype(np.float64)
    assert np.abs(fd - declared).max() <= 1e-4

    # PACT clip gradient: 1 exactly where x >= clip
    fd_clip = (np.clip(x, 0, clip + eps) - np.clip(x, 0, clip - eps)) / (2 * eps)
    assert np.abs(fd_clip - over.astype(np.float64)).max() <= 1e-4


# ---------------------------------------------------------------------------
# Requantization
# ---------------------------------------------------------------------------

def test_requant_fixed_points():
    rq = compute_requant(1.0, np.array([0.5]), 1.0)
    assert rq.multiplier[0] == 2 ** 30 and rq.shift[0] == 31
    rq1 = compute_requant(1.0, np.array([1.0]), 1.0)
    assert rq1.multiplier[0] == 2 ** 30 and rq1.shift[0] == 30


def test_requant_quarterish_example():
    rq = compute_requant(1.0, np.array([0.251]), 1.0)
    acc = np.array([100], dtype=np.int64)
    out = apply_requant(acc, rq, 8)
    assert out[0] == 25


def test_requant_mult_range_and_precision():
    rng = np.random.default_rng(17)
    ratios = 10.0 ** rng.uniform(-6, 0, size=500)
    for m_real in ratios:
        rq = compute_requant(1.0, np.array([m_real]), 1.0)
        m, s = int(rq.multiplier[0]), int(rq.shift[0])
        assert 2 ** 30 <= m < 2 ** 31 or s == 62
        assert abs(m * 2.0 ** -s - m_real) / m_real <= 2 ** -30


def test_requant_matches_oracle_params():
    rng = np.random.default_rng(19)
    ratios = np.concatenate([10.0 ** rng.uniform(-7, 0, size=300),
                             [0.5, 1.0, 0.251, 2 ** -20]])
    for m_real in ratios:
        rq = compute_requant(1.0, np.array([m_real]), 1.0)
        want = oracles.ref_requant_params(float(m_real))
        assert (int(rq.multiplier[0]), int(rq.shift[0])) == want


def test_requant_tiny_ratio_shift_cap():
    rq = compute_requant(1.0, np.array([1e-12]), 1.0)
    assert rq.shift[0] == 62


def test_apply_requant_matches_oracle_values():
    rng = np.random.default_rng(23)
    m_real = 0.0375
    rq = compute_requant(1.0, np.array([m_real]), 1.0)
    acc = rng.integers(-(2 ** 24), 2 ** 24, size=4000)
    got = apply_requant(acc, rq, 32)
    lo, hi = qrange(32, signed=True)
    want = [oracles.ref_requant(int(a), int(rq.multiplier[0]), int(rq.shift[0]), lo, hi)
            for a in acc]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bits, signed", [(2, False), (4, False), (8, False), (32, True)])
def test_apply_requant_matches_oracle_per_channel(bits, signed):
    """Shifts 0..62, one per channel, a zero multiplier, negative accumulators
    and exact half ties, against the exact oracle over the signed range at 32
    bits and the unsigned one below."""
    rng = np.random.default_rng(29 + bits)
    shift = np.arange(63, dtype=np.int32)
    mult = rng.integers(1 << 30, 1 << 31, size=63).astype(np.int32)
    mult[40] = 0
    mag = np.floor(2.0 ** rng.uniform(0, 31, size=(48, 63))).astype(np.int64)
    acc = np.where(rng.random((48, 63)) < 0.5, -mag, mag)
    # ties: a power-of-two multiplier puts acc * mult at (2k + 1) * 2**(shift - 1)
    tie_mult = np.ones(63, dtype=np.int32)
    tie_acc = np.zeros((4, 63), dtype=np.int64)
    for s in range(1, 62):
        j = max(0, s - 31)  # acc carries the part of 2**(s - 1) a multiplier cannot
        tie_mult[s] = 1 << (s - 1 - j)
        odd = 2 * np.array([rng.integers(0, 4), rng.integers(0, 1 << (30 - j))]) + 1
        tie_acc[:, s] = np.concatenate([odd, -odd]) << j
    lo, hi = qrange(bits, signed)
    for m, a in ((mult, acc), (tie_mult, tie_acc)):
        rq = RequantParams(multiplier=m, shift=shift)
        got = apply_requant(a, rq, bits)
        want = [[oracles.ref_requant(int(v), int(m[c]), int(shift[c]), lo, hi)
                 for c, v in enumerate(row)] for row in a.tolist()]
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def test_apply_requant_saturates():
    rq = compute_requant(1.0, np.array([1.0]), 1.0)
    out = apply_requant(np.array([300, -5], dtype=np.int64), rq, 8)
    assert np.array_equal(out, [255, 0])


def _channel_requant(rng, shape, ties: bool, exact_bits: int):
    """(acc, RequantParams, bias) over (N, 63, H, W): shift c and a random
    multiplier in channel c, a zero multiplier in channel 40, and a per-channel
    bias. With ties, acc + bias is an exact half tie (positive or negative) at
    every element of the channels with shift 1..61 (a power-of-two multiplier
    puts (acc + bias) * mult at (2k + 1) * 2**(shift - 1)). Every accumulator
    has fewer than exact_bits significant bits, and acc and acc + bias lie
    within int32."""
    n, c = shape[:2]
    shift = np.arange(c, dtype=np.int32)
    mult = rng.integers(1 << 30, 1 << 31, size=c).astype(np.int32)
    mult[40] = 0
    # bias and ties of channel c are multiples of 2**j[c], the part of
    # 2**(shift - 1) that a multiplier below 2**31 cannot carry
    j = np.maximum(0, shift - 31)
    top = np.clip(np.minimum(exact_bits - 2, 29 - j), 0, None)
    bias = (rng.integers(1 - (1 << top), 1 << top) << j).astype(np.int32)
    mag = np.floor(2.0 ** rng.uniform(0, min(exact_bits, 31) - 1, size=shape))
    acc = (np.where(rng.random(shape) < 0.5, -mag, mag)).astype(np.int64)
    if ties:
        for s in range(1, 62):
            mult[s] = 1 << (s - 1 - j[s])
            odd = 2 * rng.integers(0, 1 << int(top[s]), size=acc[:, s].shape) + 1
            sign = np.where(rng.random(odd.shape) < 0.5, -1, 1)
            acc[:, s] = ((sign * odd) << j[s]) - bias[s]
    return acc, RequantParams(multiplier=mult, shift=shift), bias


def _ref_channel_requant(acc, rq, bias, bits, signed):
    """oracles.ref_requant at every element of acc (N, C, ...), parameters and
    bias per channel on axis 1, or one multiplier for all."""
    lo, hi = qrange(bits, signed)
    c = acc.shape[1]
    m, s = (np.broadcast_to(np.asarray(v, np.int64).ravel(), c) for v in (rq.multiplier, rq.shift))
    b = np.zeros(c, np.int64) if bias is None else bias
    out = np.empty(acc.shape, np.int64)
    for idx in np.ndindex(acc.shape):
        ch = idx[1]
        out[idx] = oracles.ref_requant(int(acc[idx]) + int(b[ch]), int(m[ch]), int(s[ch]), lo, hi)
    return out


# (N, C, H, W) accumulators against a block of 24 elements, each image larger
# than a block, so blocks of channels of one image: 4 channels of 6 (15 blocks
# and a remainder of 3 per image), one channel of 30 (longer than a block, so
# a block of its own), and 24 channels of 1 (a remainder of 15)
_BLOCK = 24
_ROW_SHAPES = [(3, 63, 2, 3), (2, 63, 5, 6), (2, 63, 1, 1)]


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
@pytest.mark.parametrize("bits, signed", [(2, False), (8, False), (32, True)])
@pytest.mark.parametrize("ties", [False, True])
def test_blocked_requant_matches_oracle(monkeypatch, dtype, bits, signed, ties):
    """Blocks of rows, several rows per block with a remainder and single rows
    longer than a block, on N > 1 images, per-channel shifts 0..62 with a zero
    multiplier, a bias, and exact half ties; the accumulators are given as
    int64, float32 (below 2**24, as the float32 kernel's) or float64."""
    monkeypatch.setattr(quantizer, "CONV_BLOCK", _BLOCK)
    rng = np.random.default_rng([bits, signed, ties, np.dtype(dtype).itemsize])
    exact_bits = 24 if dtype == np.float32 else 31
    for shape in _ROW_SHAPES:
        acc, rq, bias = _channel_requant(rng, shape, ties, exact_bits)
        got = apply_requant(acc.astype(dtype), rq, bits, bias=bias)
        assert got.dtype == np.int32 and got.shape == shape
        assert np.array_equal(got, _ref_channel_requant(acc, rq, bias, bits, signed)), shape
        # without a bias, acc alone must lie within int32
        got = apply_requant(acc.astype(dtype), rq, bits)
        assert np.array_equal(got, _ref_channel_requant(acc, rq, None, bits, signed)), shape


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
@pytest.mark.parametrize("bits, signed", [(8, False), (32, True)])
def test_blocked_requant_with_one_multiplier(monkeypatch, dtype, bits, signed):
    """One multiplier and shift for every channel, with and without a
    per-channel bias, over rows shorter and longer than a block."""
    monkeypatch.setattr(quantizer, "CONV_BLOCK", _BLOCK)
    rng = np.random.default_rng([bits, np.dtype(dtype).itemsize])
    rq = compute_requant(1.0, np.array([0.0375]), 1.0)
    for shape in ((3, 4, 5, 5), (2, 5, 2, 2), (4, 3)):
        acc = rng.integers(-(1 << 23), 1 << 23, size=shape)
        bias = rng.integers(-(1 << 20), 1 << 20, size=shape[1]).astype(np.int32)
        for b in (None, bias):
            got = apply_requant(acc.astype(dtype), rq, bits, bias=b)
            assert np.array_equal(got, _ref_channel_requant(acc, rq, b, bits, signed)), shape


def _float64_boundary_case(rng, bits: int, top: int, shape: tuple, acc_bits: int):
    """(acc, RequantParams, bias) of (N, 16, ...) accumulators whose largest
    shift is top (channels 0 and 1), with shift 0 (channel 2), a zero
    multiplier (channel 3), exact half ties inside the output range (channels
    4-9), biases at both ends of int32 (channels 10 and 11), accumulators
    around the saturating value 2**bits - 1/2 (channels 12 and 13) and across
    the output range (14 and 15), and zeros throughout. |acc| stays below
    2**(acc_bits - 1) and acc + bias within int32."""
    c, hi = shape[1], 2 ** bits - 1
    col = (slice(None),) + (None,) * (len(shape) - 2)
    shift = rng.integers(0, top + 1, size=c)
    shift[:3] = top, top, 0
    mult = rng.integers(1 << 30, 1 << 31, size=c)
    mult[3] = 0
    # ties: with mult = 2**(s - 1), every odd a = acc + bias is a tie; with
    # mult = 2**30, every a = (2k + 1) * 2**(s - 31)
    shift[4:10] = 1, 17, 31, 32, 40, top
    mult[4:7] = 1 << (shift[4:7] - 1)
    mult[7:10] = 1 << 30
    bias = rng.integers(-(1 << 31), 1 << 31, size=c)
    bias[10:12] = (1 << 31) - 1, -(1 << 31)
    bias[4:10] = rng.integers(-50, 50, size=6)
    bias[12:] = rng.integers(-50, 50, size=c - 12)
    spread = 1 << (acc_bits - 1)
    a = rng.integers(1 - spread, spread, size=shape) + bias[col]
    # channels 4-9 and 12-15: a * multiplier / 2**shift over [-1, hi + 1]
    unit = 2.0 ** shift / np.maximum(mult, 1)
    for ch in list(range(4, 10)) + [14, 15]:
        a[:, ch] = np.floor(rng.uniform(-1, hi + 1, size=a[:, ch].shape) * unit[ch])
    for ch in (12, 13):
        a[:, ch] = np.floor((hi + 0.5) * unit[ch]) + rng.integers(-3, 4, size=a[:, ch].shape)
    a[:, 4:7] |= 1  # odd: ties at shifts 1, 17 and 31
    g = (1 << (shift[7:10] - 30))[col]
    a[:, 7:10] = (a[:, 7:10] // g) * g + g // 2
    acc = np.clip(a - bias[col], 1 - spread, spread - 1)
    acc[rng.random(shape) < 0.1] = 0
    acc = np.clip(acc, -(1 << 31) - bias[col], (1 << 31) - 1 - bias[col])
    return acc, RequantParams(multiplier=mult.astype(np.int32), shift=shift.astype(np.int32)), \
        bias.astype(np.int32)


@pytest.mark.parametrize("dtype, acc_bits", [(np.int64, 33), (np.float64, 33), (np.float32, 24)])
@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("top", [52, 53], ids=["shift_52-bits", "shift_53-bits"])
def test_requant_at_the_float64_boundary_matches_oracle(dtype, acc_bits, bits, top):
    """The float64 chain runs where the largest shift is 52 - bits and the
    int64 chain one shift later; both equal the exact oracle on ties,
    saturation at both ends, zero and negative accumulators, zero multipliers
    and |acc + bias| up to 2**31 - 1, on float32 accumulators (below 2**24,
    as a float32 kernel's) and on int64 and float64 ones."""
    rng = np.random.default_rng([bits, top, acc_bits])
    acc, rq, bias = _float64_boundary_case(rng, bits, top - bits, (6, 16, 3, 5), acc_bits)
    assert quantizer.float64_exact(bits, rq.shift) is (top == 52)
    got = apply_requant(acc.astype(dtype), rq, bits, bias=bias)
    want = _ref_channel_requant(acc, rq, bias, bits, False)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    a = acc + bias[:, None, None].astype(np.int64)
    m, sh = rq.multiplier.astype(np.int64)[:, None, None], rq.shift[:, None, None]
    p = [int(v) for v in (a * m).ravel()]  # exact products
    tie = np.array([s > 0 and v % (1 << s) == 1 << (s - 1)
                    for v, s in zip(p, np.broadcast_to(sh, a.shape).ravel().tolist())])
    inside = ((want > 0) & (want < 2 ** bits - 1)).ravel()
    assert (tie & inside).sum() > 100
    assert (want == 0).sum() > 50 and (want == 2 ** bits - 1).sum() > 50
    assert np.abs(a).max() >= 2 ** 31 - 2 ** 24 and (a < 0).any() and (acc == 0).any()


def _kernel_view(rng, kind: str, n: int, o: int, oh: int, ow: int, w2: int, dtype):
    """An (N, O, oh, ow) accumulator as a window kernel leaves it: a strided
    view of its flat per-position output (kernels._out_grid), conv2d's kept
    positions only, integers below 2**23 in magnitude."""
    flat_shape = (oh * ow * n, o) if kind == "conv2d" else (o, oh * n * w2)
    flat = rng.integers(-(1 << 23), 1 << 23, size=flat_shape).astype(dtype)
    view = kernels._out_grid(flat, kind, n, o, oh, ow, w2)
    assert not view.flags.c_contiguous
    return view


def _stride_order(a: np.ndarray) -> list[int]:
    """a's axes of length above 1, outermost-first in memory."""
    return sorted((k for k in range(a.ndim) if a.shape[k] > 1), key=lambda k: -abs(a.strides[k]))


# the ids name the images and the block size (3 images' codes and 5 in the
# second case); the comments give conv2d's blocks, whose view is (y, x, n, c)
# in memory. The depthwise view, (c, y, n, x), runs in channel slices, or in
# rows of one channel once one channel does not fit (a block of 20)
@pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d"])
@pytest.mark.parametrize("n, block", [
    pytest.param(92, None, id="92_images_default_block"),   # 4 rows a block, then 3
    pytest.param(7, 3 * 24 * 49 + 5, id="3_images_a_block"),  # 3 rows, 3, then 1
    pytest.param(2, 20, id="channel_blocks"),                 # 20 channels of a position, then 4
    pytest.param(2, 1, id="one_channel_a_block"),             # one code a block
    pytest.param(1, 100, id="1_image"),  # n and x of equal stride; 4 columns of a row, then 3
])
@pytest.mark.parametrize("bits", [4, 8, 32])
def test_requant_of_a_strided_kernel_view_matches_oracle(monkeypatch, kind, n, block, bits):
    """apply_requant reads the window kernels' strided (N, O, oh, ow) view in
    its memory order, with the float64 chain (unsigned outputs, shifts up to
    52 - bits) and the int64 one (raw logits), and writes codes of the view's
    shape in that order; every code equals the exact oracle and the result of
    a contiguous copy."""
    if block is not None:
        monkeypatch.setattr(quantizer, "CONV_BLOCK", block)
    rng = np.random.default_rng([n, bits, len(kind)])
    o, oh, ow, w2 = 24, 7, 7, 9  # the toy CNN's third conv2d at stride 1
    view = _kernel_view(rng, kind, n, o, oh, ow, w2, np.float32)
    shift = rng.integers(20, 44 if bits < 32 else 62, size=o)
    rq = RequantParams(multiplier=rng.integers(1 << 30, 1 << 31, size=o).astype(np.int32),
                       shift=shift.astype(np.int32))
    bias = rng.integers(-(1 << 26), 1 << 26, size=o).astype(np.int32)
    assert quantizer.float64_exact(bits, rq.shift) is (bits < 32)
    got = apply_requant(view, rq, bits, bias=bias)
    assert got.shape == view.shape and _stride_order(got) == _stride_order(view)
    assert np.array_equal(got, apply_requant(np.ascontiguousarray(view), rq, bits, bias=bias))
    want = _ref_channel_requant(view.astype(np.int64), rq, bias, bits, bits == 32)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, n, o, oh, ow, w2, block, most", [
    # rows longer than a block: 5 columns (of 2, 112) a block, then 2
    pytest.param("conv2d", 20, 32, 2, 112, 112, 20 * 32 * 5 + 7, 20 * 32 * 5, id="columns"),
    # a channel longer than a block: 4 rows of one channel a block, then 3
    pytest.param("depthwise_conv2d", 20, 2, 7, 112, 113, 20 * 112 * 4 + 7, 20 * 112 * 4,
                 id="rows_of_a_channel"),
    # a position's channels longer than a block: 20 channels a block, then 12
    pytest.param("conv2d", 2, 32, 2, 3, 3, 20, 20, id="channels_of_a_position"),
])
def test_requant_blocks_stay_within_the_block_at_large_batches(monkeypatch, kind, n, o, oh, ow,
                                                               w2, block, most):
    """Where a row of conv2d's view or a channel of the depthwise view holds
    more than CONV_BLOCK codes (large batches), every block apply_requant
    copies holds at most CONV_BLOCK, the largest as many as fit, and the
    codes equal the oracle's."""
    monkeypatch.setattr(quantizer, "CONV_BLOCK", block)
    rng = np.random.default_rng([n, o, ow])
    view = _kernel_view(rng, kind, n, o, oh, ow, w2, np.float32)
    rq = RequantParams(multiplier=rng.integers(1 << 30, 1 << 31, size=o).astype(np.int32),
                       shift=rng.integers(20, 44, size=o).astype(np.int32))
    bias = rng.integers(-(1 << 26), 1 << 26, size=o).astype(np.int32)
    sizes, copyto = [], np.copyto

    def spy(dst, src, **kw):
        sizes.append(src.size)
        copyto(dst, src, **kw)

    monkeypatch.setattr(np, "copyto", spy)
    got = apply_requant(view, rq, 8, bias=bias)
    monkeypatch.setattr(np, "copyto", copyto)
    assert sum(sizes) == view.size and max(sizes) == most <= block
    assert np.array_equal(got, _ref_channel_requant(view.astype(np.int64), rq, bias, 8, False))


@pytest.mark.parametrize("case", ["c_order", "channel_last", "zero_size", "1d", "1d_strided"])
@pytest.mark.parametrize("bits", [8, 32])
def test_requant_keeps_the_memory_order_of_acc(monkeypatch, case, bits):
    """A C-contiguous acc gives C-contiguous codes, a channel-last one
    channel-last codes, a zero-size acc zero-size codes and a 1-D acc (one
    channel) 1-D codes, each equal to the exact oracle, over several blocks."""
    monkeypatch.setattr(quantizer, "CONV_BLOCK", _BLOCK)
    rng = np.random.default_rng([bits, len(case)])
    shape = {"zero_size": (3, 4, 0, 5), "1d": (50,), "1d_strided": (100,)}.get(case, (3, 4, 5, 2))
    acc = rng.integers(-(1 << 23), 1 << 23, size=shape)
    if case == "channel_last":
        acc = np.ascontiguousarray(acc.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    elif case == "1d_strided":
        acc = acc[::2]
    c = acc.shape[1] if acc.ndim > 1 else 1
    rq = RequantParams(multiplier=rng.integers(1 << 30, 1 << 31, size=c).astype(np.int32),
                       shift=rng.integers(28, 40, size=c).astype(np.int32))
    bias = rng.integers(-(1 << 20), 1 << 20, size=c).astype(np.int32)
    got = apply_requant(acc, rq, bits, bias=bias)
    assert got.dtype == np.int32 and got.shape == acc.shape
    assert _stride_order(got) == _stride_order(acc)
    assert got.flags.c_contiguous is (case != "channel_last")
    a2 = acc.reshape(-1, 1) if acc.ndim == 1 else acc
    want = _ref_channel_requant(a2, rq, bias, bits, bits == 32)
    assert np.array_equal(got, want.reshape(acc.shape))


def test_apply_requant_rejects_mismatched_parameters():
    rq = RequantParams(multiplier=np.full(3, 1 << 30, np.int32), shift=np.full(3, 30, np.int32))
    with pytest.raises(ValueError, match="3 channels"):
        apply_requant(np.zeros((2, 4, 2, 2), np.int64), rq, 8)
    one = RequantParams(multiplier=np.array([1 << 30], np.int32), shift=np.array([30], np.int32))
    with pytest.raises(ValueError, match="bias for 3"):
        apply_requant(np.zeros((2, 4, 2, 2), np.int64), one, 8, bias=np.zeros(3, np.int32))


@pytest.mark.parametrize("bits", [4, 32])
def test_apply_requant_memo_keeps_one_setup_per_layout(monkeypatch, bits):
    """One memo over the calls of one (rq, bits, bias): each acc shape and
    strides gets one set-up, built on its first call, and every call gives
    the codes of a call without the memo, over several blocks."""
    monkeypatch.setattr(quantizer, "CONV_BLOCK", _BLOCK)
    rng = np.random.default_rng([bits, 34])
    acc = rng.integers(-(1 << 23), 1 << 23, size=(3, 4, 5, 2))
    rq = RequantParams(multiplier=rng.integers(1 << 30, 1 << 31, size=4).astype(np.int32),
                       shift=rng.integers(28, 40, size=4).astype(np.int32))
    bias = rng.integers(-(1 << 20), 1 << 20, size=4).astype(np.int32)
    layouts = [acc, np.ascontiguousarray(acc.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1),
               np.ascontiguousarray(acc.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3), acc[:2]]
    memo, built, setup = {}, [], quantizer._requant_setup
    monkeypatch.setattr(quantizer, "_requant_setup", lambda *a: built.append(1) or setup(*a))
    for a in layouts * 2:
        got = apply_requant(a, rq, bits, bias=bias, memo=memo)
        assert np.array_equal(got, apply_requant(a, rq, bits, bias=bias))
        assert _stride_order(got) == _stride_order(a)
    # once per layout with the memo, on every call without it
    assert len(memo) == len(layouts) and len(built) == 3 * len(layouts)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_percentile_clip_against_sort():
    rng = np.random.default_rng(29)
    v = rng.lognormal(size=20000)
    got = percentile_clip(v)
    want = float(np.percentile(v, 99.9, method="linear"))
    assert got == float(np.float32(want))  # float32, as the container stores it


def test_percentile_clip_floor_and_constant():
    assert percentile_clip(np.full(100, 1e-9)) == float(np.float32(1e-3))
    assert percentile_clip(np.full(100, 0.42)) == float(np.float32(0.42))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy interpolating towards inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])  # 1e39: inf in float32
def test_percentile_clip_rejects_a_non_finite_percentile(bad):
    v = np.full(100, 0.5)
    v[-1] = bad
    with pytest.raises(ValueError, match="not finite"):
        percentile_clip(v)


def test_calibration_batch_holding_a_nan_raises(toy_graph, pretrained, desk):
    images = desk.train[0][:8].copy()
    images[3, 0, 14, 14] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        calibrate_act_ranges(toy_graph, pretrained[0], images)


def test_calibrate_covers_encoded_tensors(toy_graph, pretrained, toy_ranges, desk):
    assert tuple(sorted(toy_ranges)) == toy_graph.encoded_tensors()
    for t, clip in toy_ranges.items():
        assert type(clip) is float
        assert clip >= CLIP_FLOOR
    # input tensor calibrates against the raw images
    want = percentile_clip(desk.train[0][:256].ravel())
    assert toy_ranges[0] == pytest.approx(want, rel=1e-6)


def test_act_scale_rule():
    # one activation scale rule: clip / (2^bits - 1)
    m = PackedModel(graph_layers=0, act_bits={0: 2, 1: 8}, act_clip={0: 1.0, 1: 1.0})
    assert m.act_scale(0) == pytest.approx(1 / 3)
    assert m.act_scale(1) == pytest.approx(1 / 255)
