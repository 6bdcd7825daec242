"""Uniform linear quantization primitives.

Weights: symmetric signed per-output-channel, zero-point 0. Activations:
unsigned per-tensor with a learnable upper clip (lower bound 0 after ReLU).
Sub-byte codes are packed little-endian within each byte, lowest index in the
least-significant bits, two's complement for signed fields. Rounding is
half-away-from-zero everywhere so the integer and fake-quant paths stay
bit-identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import PackFormatError

SUB_BYTE_BITS = (2, 4, 8)
CLIP_FLOOR = 1e-3  # activation clips, calibrated or learned, never drop below this
CALIB_PERCENTILE = 99.9  # calibration clips at this percentile of the observed values
# elements of one block of the window kernels' im2col (conv2d) and channel
# (depthwise, avg_pool) loops, see qat.linear_fwd, and of the requant epilogue
CONV_BLOCK = 1 << 16


def qrange(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (as an integer-valued float array)."""
    x = np.asarray(x)
    return np.trunc(x + np.copysign(np.asarray(0.5, dtype=x.dtype), x))


@dataclass(frozen=True)
class QuantizedTensor:
    """Packed signed weight codes. The payload is decoded once, at construction,
    so a short payload or a bad width raises PackFormatError here."""
    bits: int
    packed: bytes
    shape: tuple[int, ...]
    scales: np.ndarray  # one per output channel (axis 0)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = unpack_subbyte(self.packed, self.bits, self.numel, signed=True)
        q = q.astype(np.int8).reshape(self.shape)
        q.setflags(write=False)
        object.__setattr__(self, "_codes", q)

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def codes(self) -> np.ndarray:
        """The decoded codes, int8 in `shape`, read-only."""
        return self._codes


@dataclass(frozen=True)
class RequantParams:
    """Fixed-point rescaling: y = sat(round(acc * multiplier / 2**shift))."""
    multiplier: np.ndarray  # int32, in [2**30, 2**31) or 0
    shift: np.ndarray       # int32 >= 0


def pack_subbyte(values: np.ndarray, bits: int, signed: bool = False) -> bytes:
    """Pack integer codes at 2/4/8 bits, little-endian within each byte."""
    if bits not in SUB_BYTE_BITS:
        raise PackFormatError(f"bits must be one of {SUB_BYTE_BITS}, got {bits}")
    v = np.asarray(values, dtype=np.int64).ravel()
    lo, hi = qrange(bits, signed)
    if v.size and (v.min() < lo or v.max() > hi):
        raise PackFormatError(f"value out of range for {'signed' if signed else 'unsigned'} {bits}-bit")
    mask = (1 << bits) - 1
    fields = (v & mask).astype(np.uint8)
    per_byte = 8 // bits
    n_bytes = (v.size * bits + 7) // 8
    padded = np.zeros(n_bytes * per_byte, dtype=np.uint8)
    padded[: v.size] = fields
    out = np.zeros(n_bytes, dtype=np.uint8)
    for k in range(per_byte):
        out |= padded[k::per_byte] << (k * bits)
    return out.tobytes()


def unpack_subbyte(data: bytes, bits: int, n: int, signed: bool = False) -> np.ndarray:
    """Inverse of pack_subbyte; returns int32 codes of length n."""
    if bits not in SUB_BYTE_BITS:
        raise PackFormatError(f"bits must be one of {SUB_BYTE_BITS}, got {bits}")
    raw = np.frombuffer(data, dtype=np.uint8)
    per_byte = 8 // bits
    if raw.size * per_byte < n:
        raise PackFormatError(f"buffer holds {raw.size * per_byte} fields, need {n}")
    # shift each field to the top of its byte, then shift it back down:
    # arithmetic for int8 (sign extension), logical for uint8
    dtype = np.int8 if signed else np.uint8
    fields = np.empty(raw.size * per_byte, dtype=dtype)
    for k in range(per_byte):
        fields[k::per_byte] = (raw << (8 - (k + 1) * bits)).view(dtype) >> (8 - bits)
    return fields[:n].astype(np.int32)


class ByteReader:
    """Sequential reader over a binary file; running short raises PackFormatError."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.what = what  # names the file in error messages
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise PackFormatError(f"truncated {self.what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise PackFormatError(f"trailing bytes after {self.what}")


def weight_scales_pc(w: np.ndarray, bits: int) -> np.ndarray:
    """Per-output-channel symmetric scales; all-zero channels get scale 1."""
    qpos = (1 << (bits - 1)) - 1
    absmax = np.abs(w.reshape(w.shape[0], -1)).max(axis=1)
    scales = np.where(absmax > 0, absmax / qpos, 1.0)
    return scales.astype(np.float64)


def _round_weights(w: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel codes (integer-valued floats) and the broadcastable scales."""
    scales = weight_scales_pc(np.asarray(w, dtype=np.float64), bits)
    lo, hi = qrange(bits, signed=True)
    s = scales.reshape((-1,) + (1,) * (w.ndim - 1))
    return np.clip(round_half_away(w / s), lo, hi), s


def quantize_weights_pc(w: np.ndarray, bits: int) -> QuantizedTensor:
    """Uniform symmetric per-channel weight quantization (channel axis 0).

    The scales are rounded to float32, as the packed container stores them,
    after the codes are rounded at full precision.
    """
    if bits not in SUB_BYTE_BITS:
        raise ValueError(f"weight bits must be one of {SUB_BYTE_BITS}, got {bits}")
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite values")
    q, s = _round_weights(w, bits)
    return QuantizedTensor(
        bits=bits,
        packed=pack_subbyte(q, bits, signed=True),
        shape=w.shape,
        scales=np.float32(s.ravel()).astype(np.float64),
    )


def fake_quant_weights(w: np.ndarray, bits: int) -> np.ndarray:
    """Quantize-dequantize roundtrip used in the training forward pass."""
    q, s = _round_weights(w, bits)
    return (q * s).astype(w.dtype)


def fake_quant_act(x: np.ndarray, clip_max: float, bits: int) -> np.ndarray:
    """PACT-style fake quantization: clamp to [0, clip_max], round to 2**bits - 1 levels."""
    if not (clip_max > 0):
        raise ValueError(f"clip_max must be positive, got {clip_max}")
    s = clip_max / ((1 << bits) - 1)
    y = round_half_away(np.clip(x, 0.0, clip_max) / s) * s
    return y.astype(x.dtype) if isinstance(x, np.ndarray) else y


def quantize_act(x: np.ndarray, clip_max: float, bits: int) -> np.ndarray:
    """Encode activations to unsigned integer codes."""
    if not (clip_max > 0):
        raise ValueError(f"clip_max must be positive, got {clip_max}")
    s = clip_max / ((1 << bits) - 1)
    q = round_half_away(np.clip(np.asarray(x, dtype=np.float64), 0.0, clip_max) / s)
    return np.clip(q, 0, (1 << bits) - 1).astype(np.int32)


def compute_requant(s_in: float, s_w: np.ndarray, s_out: float) -> RequantParams:
    """Decompose M = s_in * s_w / s_out as multiplier * 2**-shift per channel."""
    s_w = np.atleast_1d(np.asarray(s_w, dtype=np.float64))
    if s_in <= 0 or s_out <= 0 or np.any(s_w <= 0):
        raise ValueError("scales must be strictly positive")
    m_real = s_in * s_w / s_out
    frac, exp = np.frexp(m_real)  # m_real = frac * 2**exp, frac in [0.5, 1)
    mult = round_half_away(frac * (1 << 31)).astype(np.int64)
    bump = mult == (1 << 31)
    mult = np.where(bump, mult >> 1, mult)
    exp = exp + bump
    shift = 31 - exp
    if np.any(shift < 0):
        bad = m_real[shift < 0]
        raise ValueError(f"requant multiplier out of range (M={bad.max():g} too large)")
    # Tiny ratios: cap the shift and let the multiplier fall below 2**30 (or to 0).
    cap = shift > 62
    if np.any(cap):
        mult = np.where(cap, round_half_away(m_real * float(1 << 62)).astype(np.int64), mult)
        shift = np.where(cap, 62, shift)
    return RequantParams(multiplier=mult.astype(np.int32), shift=shift.astype(np.int32))


def apply_requant(acc: np.ndarray, rq: RequantParams, bits: int, signed: bool = False,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Requantize 32-bit accumulators to the output bit range with saturation:
    int32 sat(round((acc + bias) * multiplier / 2**shift)), half away from zero.

    acc holds integers, as int64 or int32 or as the exact-integer floats of a
    float kernel; acc + bias lies within int32, so |acc| < 2**32. The
    parameters are one multiplier and shift, or one per channel on axis 1 of
    an (N, C, ...) acc; bias is one int32 per channel.

    One loop over blocks of whole rows, a row being one (image, channel)
    pair: a block holds as many rows as fit in CONV_BLOCK elements, or
    one longer row, in one reused int64 buffer. Per block the accumulators
    are cast and multiplied in one pass, one per-row offset is added,
    bias * multiplier + half with half = 2**shift // 2, and a floor shift and
    the clip write the int32 output. Everything fits int64:
    |acc * multiplier| < 2**63, the offset is below 2**62 + 2**61, and their
    sum is (acc + bias) * multiplier plus at most 2**61.
    One rounding rule: floor((p + half) / 2**shift) rounds p = (acc + bias) *
    multiplier half away from zero where p >= 0. Signed outputs first take 1
    off where p < 0 and shift > 0, which rounds a negative tie away from zero
    and moves nothing else; unsigned ones need not, as p < 0 clips to 0.
    """
    acc = np.asarray(acc)
    mult = np.atleast_1d(np.asarray(rq.multiplier, dtype=np.int64))
    shift = np.atleast_1d(np.asarray(rq.shift, dtype=np.int64))
    n, c = acc.shape[:2] if acc.ndim >= 2 else (1, 1)
    n_bias = c if bias is None else len(bias)
    if mult.size not in (1, c) or n_bias != c:
        raise ValueError(f"requant parameters for {mult.size} channels or a bias for "
                         f"{n_bias} do not fit accumulators of shape {acc.shape}")
    # per-row parameters, rows ordered (image, channel)
    mult, shift = (np.tile(np.broadcast_to(v, c), n) for v in (mult, shift))
    half = (1 << shift) >> 1
    off = half if bias is None else np.tile(np.asarray(bias) * mult[:c], n) + half
    if signed:  # p + half < half where p < 0; rows of shift 0 never match
        neg = np.where(shift > 0, half, np.iinfo(np.int64).min)
    rows = acc.reshape(n * c, acc.size // max(1, n * c))
    out = np.empty(rows.shape, np.int32)
    step = max(1, CONV_BLOCK // max(1, rows.shape[1]))
    buf = np.empty(min(step, len(rows)) * rows.shape[1], np.int64)
    lo, hi = qrange(bits, signed)
    for r0 in range(0, len(rows), step):
        r = slice(r0, r0 + step)
        block = rows[r]
        p = buf[:block.size].reshape(block.shape)
        np.multiply(block, mult[r, None], out=p, dtype=np.int64, casting="unsafe")
        p += off[r, None]
        if signed:
            p -= p < neg[r, None]
        p >>= shift[r, None]
        np.clip(p, lo, hi, out=out[r])
    return out.reshape(acc.shape)


def percentile_clip(values: np.ndarray) -> float:
    """Calibration clip: the CALIB_PERCENTILE percentile of the values, floored at
    CLIP_FLOOR. A non-finite percentile (a NaN or inf sample) raises ValueError."""
    # one copy whatever the layout; np.percentile partitions C order faster
    # than the channel-last memory order of the training engine's outputs
    v = np.asarray(values, dtype=np.float64, order="C").ravel()
    if v.size == 0:
        raise ValueError("empty calibration sample")
    clip = float(np.percentile(v, CALIB_PERCENTILE, method="linear"))
    if not math.isfinite(clip):
        raise ValueError(f"calibration percentile is {clip}, not finite")
    return max(clip, CLIP_FLOOR)


def calibrate_act_ranges(g, weights, images) -> dict[int, float]:
    """Activation clips by encoded tensor id: percentile_clip of a float forward on images."""
    from . import qat  # deferred: qat builds on this module

    if len(images) == 0:
        raise ValueError("empty calibration set")
    acts = qat.collect_activations(g, weights, images)
    return {t: percentile_clip(v) for t, v in acts.items()}
