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
FP32_BITS = 32  # full-precision marker used by policies, never packed


def qrange(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (as an integer-valued float array)."""
    x = np.asarray(x)
    return np.trunc(x + np.copysign(np.asarray(0.5, dtype=x.dtype), x))


def haz_rshift(p: np.ndarray, shift) -> np.ndarray:
    """Rounding right shift of int64 values: round(p / 2**shift) half away from zero."""
    p = np.asarray(p, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    half = np.where(shift > 0, np.int64(1) << np.maximum(shift - 1, 0), np.int64(0))
    mag = (np.abs(p) + half) >> shift
    return np.where(p < 0, -mag, mag)


@dataclass(frozen=True)
class QuantizedTensor:
    """Packed weight codes. The payload is decoded once, at construction, so a
    short payload or a bad width raises PackFormatError here."""
    bits: int
    packed: bytes
    shape: tuple[int, ...]
    scales: np.ndarray  # one per output channel (axis 0)
    signed: bool
    _codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = unpack_subbyte(self.packed, self.bits, self.numel, signed=self.signed)
        q = q.astype(np.int8).reshape(self.shape)
        q.setflags(write=False)
        object.__setattr__(self, "_codes", q)

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def codes(self) -> np.ndarray:
        """The decoded codes, int8 in `shape`, read-only."""
        return self._codes


@dataclass
class ActRange:
    tensor_id: int
    clip_max: float

    def __post_init__(self):
        if not math.isfinite(self.clip_max) or self.clip_max <= 0:
            raise ValueError(f"clip_max must be finite and > 0, got {self.clip_max}")

    def scale(self, bits: int) -> float:
        return self.clip_max / ((1 << bits) - 1)


@dataclass(frozen=True)
class RequantParams:
    """Fixed-point rescaling: y = sat(round(acc * multiplier / 2**shift) + out_zero)."""
    multiplier: np.ndarray  # int32, in [2**30, 2**31) or 0
    shift: np.ndarray       # int32 >= 0
    out_zero: int = 0


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
    mask = (1 << bits) - 1
    fields = np.empty(raw.size * per_byte, dtype=np.int32)
    for k in range(per_byte):
        fields[k::per_byte] = (raw >> (k * bits)) & mask
    v = fields[:n]
    if signed:
        sign = 1 << (bits - 1)
        v = np.where(v >= sign, v - (1 << bits), v)
    return v.astype(np.int32)


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


def quantize_weights_pc(w: np.ndarray, bits: int) -> QuantizedTensor:
    """Uniform symmetric per-channel weight quantization (channel axis 0)."""
    if bits not in SUB_BYTE_BITS:
        raise ValueError(f"weight bits must be one of {SUB_BYTE_BITS}, got {bits}")
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite values")
    scales = weight_scales_pc(w, bits)
    lo, hi = qrange(bits, signed=True)
    bshape = (-1,) + (1,) * (w.ndim - 1)
    q = np.clip(round_half_away(w / scales.reshape(bshape)), lo, hi).astype(np.int32)
    return QuantizedTensor(
        bits=bits,
        packed=pack_subbyte(q, bits, signed=True),
        shape=w.shape,
        scales=scales,
        signed=True,
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    bshape = (-1,) + (1,) * (len(q.shape) - 1)
    return (q.codes().astype(np.float64) * q.scales.reshape(bshape)).astype(np.float32)


def fake_quant_weights(w: np.ndarray, bits: int) -> np.ndarray:
    """Quantize-dequantize roundtrip used in the training forward pass."""
    scales = weight_scales_pc(np.asarray(w, dtype=np.float64), bits)
    lo, hi = qrange(bits, signed=True)
    bshape = (-1,) + (1,) * (w.ndim - 1)
    s = scales.reshape(bshape)
    q = np.clip(round_half_away(w / s), lo, hi)
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
    return RequantParams(
        multiplier=mult.astype(np.int32),
        shift=shift.astype(np.int32),
        out_zero=0,
    )


def apply_requant(acc: np.ndarray, rq: RequantParams, bits: int,
                  signed: bool = False) -> np.ndarray:
    """Requantize 32-bit accumulators to the output bit range with saturation."""
    p = np.multiply(acc, rq.multiplier, dtype=np.int64)
    lo, hi = qrange(bits, signed)
    if signed or rq.out_zero:
        y = haz_rshift(p, rq.shift) + rq.out_zero
        return np.clip(y, lo, hi).astype(np.int32)
    # Unsigned, zero point 0: add half and floor-shift in place. That equals
    # the half-away rounding wherever the result survives the clip; a negative
    # product rounds to <= 0 either way and clips to 0.
    shift = np.asarray(rq.shift, dtype=np.int64)
    p += (1 << shift) >> 1
    p >>= shift
    return np.clip(p, lo, hi, out=p).astype(np.int32)


def percentile_clip(values: np.ndarray, pct: float = 99.9, floor: float = 1e-3) -> float:
    """Clip bound for calibration: given percentile of the observed values, floored."""
    # one copy whatever the layout; np.percentile partitions C order faster
    # than the channel-last memory order of the training engine's outputs
    v = np.asarray(values, dtype=np.float64, order="C").ravel()
    if v.size == 0:
        raise ValueError("empty calibration sample")
    return float(max(np.percentile(v, pct, method="linear"), floor))


def calibrate_act_ranges(g, weights, images, pct: float = 99.9,
                         floor: float = 1e-3) -> dict[int, ActRange]:
    """Initialize activation clip bounds from a float forward over a calibration batch."""
    from . import qat  # deferred: qat builds on this module

    if len(images) == 0:
        raise ValueError("empty calibration set")
    acts = qat.collect_activations(g, weights, images)
    return {
        t: ActRange(tensor_id=t, clip_max=percentile_clip(v, pct, floor))
        for t, v in acts.items()
    }
