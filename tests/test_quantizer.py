"""Quantizer primitives: rounding, packing, scales, requantization, calibration."""

import numpy as np
import pytest

import oracles
from mcuq import quantizer
from mcuq.errors import PackFormatError
from mcuq.packed_model import PackedModel
from mcuq.qat import _pact_masks
from mcuq.quantizer import (
    CLIP_FLOOR,
    RequantParams,
    apply_requant,
    calibrate_act_ranges,
    compute_requant,
    fake_quant_act,
    fake_quant_weights,
    pack_subbyte,
    percentile_clip,
    qrange,
    quantize_act,
    quantize_weights_pc,
    round_half_away,
    unpack_subbyte,
    weight_scales_pc,
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
    assert pack_subbyte(np.array([1, 2, 3, 0]), 2) == b"\x39"
    assert pack_subbyte(np.array([-2, 1]), 2, signed=True) == b"\x06"


def test_pack_roundtrip_exhaustive_2_4():
    for bits in (2, 4):
        for signed in (False, True):
            lo, hi = qrange(bits, signed)
            v = np.arange(lo, hi + 1, dtype=np.int64)
            data = pack_subbyte(v, bits, signed=signed)
            assert len(data) == (v.size * bits + 7) // 8
            back = unpack_subbyte(data, bits, v.size, signed=signed)
            assert np.array_equal(back, v)
            ref = oracles.ref_pack(v.tolist(), bits, signed)
            assert bytes(ref) == data


def test_pack_roundtrip_random_8bit():
    rng = np.random.default_rng(3)
    for signed in (False, True):
        lo, hi = qrange(8, signed)
        v = rng.integers(lo, hi + 1, size=100000)
        back = unpack_subbyte(pack_subbyte(v, 8, signed=signed), 8, v.size,
                              signed=signed)
        assert np.array_equal(back, v)


def test_pack_odd_length_pads_with_zero_fields():
    data = pack_subbyte(np.array([3, 1, 2]), 2)
    assert len(data) == 1
    assert np.array_equal(unpack_subbyte(data, 2, 3), [3, 1, 2])


def test_pack_rejects_out_of_range():
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([4]), 2)
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([-3]), 2, signed=True)
    with pytest.raises(PackFormatError):
        pack_subbyte(np.array([1]), 3)


def test_unpack_rejects_short_buffer():
    with pytest.raises(PackFormatError):
        unpack_subbyte(b"\x00", 4, 3)


@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("signed", [False, True])
def test_unpack_every_byte_value_matches_oracle(bits, signed):
    data = bytes(range(256))
    n = 256 * 8 // bits
    got = unpack_subbyte(data, bits, n, signed=signed)
    assert got.dtype == np.int32
    assert got.tolist() == oracles.ref_unpack(data, bits, n, signed)


def test_pack_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bits = int(rng.choice([2, 4, 8]))
        signed = bool(rng.integers(2))
        lo, hi = qrange(bits, signed)
        v = rng.integers(lo, hi + 1, size=int(rng.integers(1, 40)))
        data = pack_subbyte(v, bits, signed=signed)
        assert data == bytes(oracles.ref_pack(v.tolist(), bits, signed))
        assert oracles.ref_unpack(data, bits, v.size, signed) == v.tolist()


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
    assert np.array_equal(codes, unpack_subbyte(q.packed, 4, 6, signed=True).reshape(2, 3))
    with pytest.raises(ValueError):
        codes[0, 0] = 0


def test_weight_roundtrip_bound():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(6, 25)).astype(np.float64)
    q = quantize_weights_pc(w, 8)
    # the codes round at full precision; the scales are stored as float32
    assert np.array_equal(q.scales, np.float32(weight_scales_pc(w, 8)))
    err = np.abs(q.codes() * q.scales[:, None] - w)
    assert (err <= q.scales[:, None] / 2 + 1e-12).all()


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
    s = weight_scales_pc(w, 8)
    assert np.allclose(s, [0.4 / 127, 2.0 / 127])


# ---------------------------------------------------------------------------
# Activation fake-quant
# ---------------------------------------------------------------------------

def test_fake_quant_act_levels():
    x = np.linspace(0.0, 1.0, 101)
    y = fake_quant_act(x, 1.0, 2)
    levels = {0.0, 1 / 3, 2 / 3, 1.0}
    assert all(min(abs(v - l) for l in levels) < 1e-9 for v in y)


def test_fake_quant_act_clip_exact():
    for bits in (2, 4, 8):
        for clip in (1.0, 0.37, 5.5):
            y = fake_quant_act(np.array([clip, clip * 2, -1.0]), clip, bits)
            assert y[0] == pytest.approx(clip, abs=1e-7)
            assert y[1] == pytest.approx(clip, abs=1e-7)
            assert y[2] == 0.0


def test_fake_quant_act_rejects_bad_clip():
    with pytest.raises(ValueError):
        fake_quant_act(np.zeros(3), 0.0, 8)


def test_quantize_act_top_code():
    codes = quantize_act(np.array([1.0, 0.0, 2.0]), 1.0, 8)
    assert np.array_equal(codes, [255, 0, 255])


def test_fake_quant_act_gradient_fd():
    # straight-through surrogate: central fd of clamp(x, 0, clip) per element
    rng = np.random.default_rng(21)
    clip = 0.8
    x = rng.uniform(-0.5, 1.3, size=256)
    keep = (np.abs(x) > 1e-3) & (np.abs(x - clip) > 1e-3)  # non-boundary only
    x = x[keep]
    inside, over = _pact_masks(x, clip)
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
    out = apply_requant(acc, rq, 8, signed=False)
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
    got = apply_requant(acc, rq, 8, signed=True)
    lo, hi = qrange(8, signed=True)
    want = [oracles.ref_requant(int(a), int(rq.multiplier[0]), int(rq.shift[0]), lo, hi)
            for a in acc]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bits, signed", [(2, False), (4, False), (8, False),
                                          (8, True), (32, True)])
def test_apply_requant_matches_oracle_per_channel(bits, signed):
    """Shifts 0..62, one per channel, a zero multiplier, negative accumulators
    and exact half ties, against the exact oracle."""
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
        got = apply_requant(a, rq, bits, signed=signed)
        want = [[oracles.ref_requant(int(v), int(m[c]), int(shift[c]), lo, hi)
                 for c, v in enumerate(row)] for row in a.tolist()]
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def test_apply_requant_saturates():
    rq = compute_requant(1.0, np.array([1.0]), 1.0)
    out = apply_requant(np.array([300, -5], dtype=np.int64), rq, 8, signed=False)
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


# (N, C, H, W) accumulators against a block of 24 elements: rows of 6 (4 rows a
# block, 189 rows, a remainder of 1), rows of 30 (each longer than a block, so
# a block of its own), and rows of 1 (24 rows a block, a remainder of 6)
_BLOCK = 24
_ROW_SHAPES = [(3, 63, 2, 3), (2, 63, 5, 6), (2, 63, 1, 1)]


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
@pytest.mark.parametrize("bits, signed", [(2, False), (8, False), (8, True), (32, True)])
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
        got = apply_requant(acc.astype(dtype), rq, bits, signed=signed, bias=bias)
        assert got.dtype == np.int32 and got.shape == shape
        assert np.array_equal(got, _ref_channel_requant(acc, rq, bias, bits, signed)), shape
        # without a bias, acc alone must lie within int32
        got = apply_requant(acc.astype(dtype), rq, bits, signed=signed)
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
            got = apply_requant(acc.astype(dtype), rq, bits, signed=signed, bias=b)
            assert np.array_equal(got, _ref_channel_requant(acc, rq, b, bits, signed)), shape


def test_apply_requant_rejects_mismatched_parameters():
    rq = RequantParams(multiplier=np.full(3, 1 << 30, np.int32), shift=np.full(3, 30, np.int32))
    with pytest.raises(ValueError, match="3 channels"):
        apply_requant(np.zeros((2, 4, 2, 2), np.int64), rq, 8)
    one = RequantParams(multiplier=np.array([1 << 30], np.int32), shift=np.array([30], np.int32))
    with pytest.raises(ValueError, match="bias for 3"):
        apply_requant(np.zeros((2, 4, 2, 2), np.int64), one, 8, bias=np.zeros(3, np.int32))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_percentile_clip_against_sort():
    rng = np.random.default_rng(29)
    v = rng.lognormal(size=20000)
    got = percentile_clip(v)
    want = float(np.percentile(v, 99.9, method="linear"))
    assert got == pytest.approx(want, rel=1e-12)


def test_percentile_clip_floor_and_constant():
    assert percentile_clip(np.full(100, 1e-9)) == 1e-3
    assert percentile_clip(np.full(100, 0.42)) == pytest.approx(0.42)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy interpolating towards inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
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
