"""Quantizer primitives: rounding, packing, scales, requantization, calibration."""

import numpy as np
import pytest

import oracles
from mcuq.errors import PackFormatError
from mcuq.qat import _pact_masks
from mcuq.quantizer import (
    ActRange,
    RequantParams,
    apply_requant,
    compute_requant,
    dequantize,
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
    err = np.abs(dequantize(q) - w)
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


def test_calibrate_covers_encoded_tensors(toy_graph, pretrained, toy_ranges, desk):
    assert sorted(toy_ranges) == toy_graph.encoded_tensors()
    for t, r in toy_ranges.items():
        assert isinstance(r, ActRange)
        assert r.clip_max >= 1e-3
    # input tensor calibrates against the raw images
    want = percentile_clip(desk.train[0][:256].ravel())
    assert toy_ranges[0].clip_max == pytest.approx(want, rel=1e-6)


def test_act_scale_rule():
    r = ActRange(tensor_id=0, clip_max=1.0)
    assert r.scale(2) == pytest.approx(1 / 3)
    assert r.scale(8) == pytest.approx(1 / 255)
