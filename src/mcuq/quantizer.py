"""Uniform linear quantization primitives.

Weights: symmetric signed per-output-channel, zero-point 0. Activations:
unsigned per-tensor with a learnable upper clip (lower bound 0 after ReLU).
Packed codes are signed weight codes, little-endian within each byte, lowest
index in the least-significant bits, two's complement. weight_codes is the
one weight encoder, of the training forward (fake_quant_weights) and of the
container (quantize_weights_pc), so the trained weights are the container's
codes times its float32 scales. act_codes is the one activation encoder, of
the training forward and of the integer engine's input. The integer
requantization and bias rounding still differ from the fake-quant forward's
float rescale.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import PackFormatError

SUB_BYTE_BITS = (2, 4, 8)
F32_MAX = float(np.finfo(np.float32).max)
CLIP_FLOOR = 1e-3  # activation clips, calibrated or learned, never drop below this
CALIB_PERCENTILE = 99.9  # calibration clips at this percentile of the observed values
MAX_RANK = 4  # highest array rank the checkpoint and container formats store
# elements of one block of the window kernels (see kernels): conv2d's im2col
# (whole output rows while they fit, else chunks of a row), the depthwise and
# avg_pool channel loops; and of one requant epilogue block
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
    scales: np.ndarray  # one per output channel (axis 0), a read-only float64 copy
    _codes: np.ndarray = field(init=False, repr=False, compare=False)
    _sums: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = unpack_subbyte(self.packed, self.bits, self.numel).reshape(self.shape)
        object.__setattr__(self, "_codes", q := read_only(q, np.int8))
        object.__setattr__(self, "scales", read_only(self.scales, np.float64))
        rows = q.reshape(self.shape[0], math.prod(self.shape[1:]))
        pos = np.maximum(rows, 0).sum(axis=1, dtype=np.int64)
        neg = rows.sum(axis=1, dtype=np.int64) - pos
        peak = int(max(pos.max(initial=0), -neg.min(initial=0)))
        object.__setattr__(self, "_sums", (neg, pos, peak))

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def codes(self) -> np.ndarray:
        """The decoded codes, int8 in `shape`, read-only."""
        return self._codes

    def channel_sums(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(neg, pos, peak): each output channel's int64 sum of its negative
        codes and of its positive codes, and the largest magnitude of either."""
        return self._sums


def read_only(a, dtype=None) -> np.ndarray:
    """A read-only copy of a, in dtype if given, so a record holding it cannot change."""
    (a := np.array(a, dtype)).setflags(write=False)
    return a


@dataclass(frozen=True)
class RequantParams:
    """Fixed-point rescaling, y = sat(round(acc * multiplier / 2**shift)), read-only."""
    multiplier: np.ndarray  # int32, in [2**30, 2**31) or 0
    shift: np.ndarray       # int32 >= 0

    def __post_init__(self):
        object.__setattr__(self, "multiplier", read_only(self.multiplier))
        object.__setattr__(self, "shift", read_only(self.shift))


def pack_subbyte(values: np.ndarray, bits: int) -> bytes:
    """Pack signed integer codes at 2/4/8 bits, little-endian within each byte."""
    if bits not in SUB_BYTE_BITS:
        raise PackFormatError(f"bits must be one of {SUB_BYTE_BITS}, got {bits}")
    v = np.asarray(values, dtype=np.int64).ravel()
    lo, hi = qrange(bits, signed=True)
    if v.size and (v.min() < lo or v.max() > hi):
        raise PackFormatError(f"value out of range for signed {bits}-bit")
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


def unpack_subbyte(data: bytes, bits: int, n: int) -> np.ndarray:
    """Inverse of pack_subbyte; returns int32 codes of length n."""
    if bits not in SUB_BYTE_BITS:
        raise PackFormatError(f"bits must be one of {SUB_BYTE_BITS}, got {bits}")
    raw = np.frombuffer(data, dtype=np.uint8)
    per_byte = 8 // bits
    if raw.size * per_byte < n:
        raise PackFormatError(f"buffer holds {raw.size * per_byte} fields, need {n}")
    # shift each field to the top of its byte, then arithmetically back down
    fields = np.empty(raw.size * per_byte, dtype=np.int8)
    for k in range(per_byte):
        fields[k::per_byte] = (raw << (8 - (k + 1) * bits)).view(np.int8) >> (8 - bits)
    return fields[:n].astype(np.int32)


class ByteWriter:
    """Sequential writer of a binary file: magic, a u32 version, then what the caller
    packs, all little-endian; finish() appends their CRC32 as a u32 trailer."""

    def __init__(self, magic: bytes, version: int):
        self.out = bytearray(magic)
        self.pack("<I", version)

    def pack(self, fmt: str, *values) -> None:
        self.out += struct.pack(fmt, *values)

    def shape(self, dims) -> None:
        """A rank byte, then the dimensions as uint32 (ByteReader.shape)."""
        self.pack(f"<B{len(dims)}I", len(dims), *dims)

    def array(self, a, dtype: str) -> None:
        self.out += np.asarray(a).astype(dtype).tobytes()

    def finish(self) -> bytes:
        self.pack("<I", zlib.crc32(self.out))
        return bytes(self.out)


class ByteReader:
    """Sequential reader of a file that ByteWriter wrote with this magic and version.
    A wrong magic or version, running short or, at finish once the structure has
    parsed, bytes left over or a wrong CRC32 trailer raise PackFormatError."""

    def __init__(self, data: bytes, what: str, magic: bytes, version: int):
        self.data, self.crc = data[:-4], data[-4:]  # the trailer is set aside
        self.what = what  # names the file in error messages
        self.pos = 0
        if self.take(len(magic)) != magic:
            raise PackFormatError(f"{what}: bad magic, not a {magic.decode()} file")
        (got,) = self.unpack("<I")
        if got != version:
            raise PackFormatError(f"{what}: unsupported version {got}, expected {version}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise PackFormatError(f"truncated {self.what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, n: int) -> np.ndarray:
        """n values of dtype, a read-only view of the file."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * n), dtype=dt)

    def shape(self, what: str) -> tuple[int, ...]:
        """A rank byte, then that many uint32 dimensions; a rank above MAX_RANK,
        which no writer stores, raises (numpy would fail above 64)."""
        (ndim,) = self.unpack("<B")
        if ndim > MAX_RANK:
            raise PackFormatError(f"{what} has rank {ndim}, more than {MAX_RANK}")
        return self.unpack(f"<{ndim}I")

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise PackFormatError(f"trailing bytes after {self.what}")
        if self.crc != struct.pack("<I", zlib.crc32(self.data)):
            raise PackFormatError(f"{self.what}: CRC32 mismatch, the file is corrupt")


def weight_codes(w: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight encoder of training and of the container: (codes, scales).

    scales are float32, one per output channel (axis 0): the channel's
    largest |w| over 2**(bits - 1) - 1. codes are round_half_away(w / s)
    clipped to the signed range, integer-valued in w's dtype. A channel whose
    scale falls below the smallest normal float32, an all-zero one included,
    gets scale 1 and so codes 0.
    """
    qpos = (1 << (bits - 1)) - 1
    scales = (np.abs(w.reshape(len(w), -1)).max(axis=1) / qpos).astype(np.float32)
    scales[scales < np.finfo(np.float32).tiny] = 1.0  # NaN stays, so training diverges
    codes = round_half_away(w / scales.reshape((-1,) + (1,) * (w.ndim - 1)))
    return np.clip(codes, -qpos - 1, qpos, out=codes), scales


def quantize_weights_pc(w: np.ndarray, bits: int) -> QuantizedTensor:
    """Pack weight_codes of w, taken as float32 as QAT trains it, with their
    scales. Bad bits, or weights that are not finite in float32, raise
    PackFormatError."""
    if bits not in SUB_BYTE_BITS:
        raise PackFormatError(f"weight bits must be one of {SUB_BYTE_BITS}, got {bits}")
    with np.errstate(over="ignore"):  # beyond float32 is inf, rejected below
        w = np.asarray(w, dtype=np.float32)
    if not np.isfinite(w).all():
        raise PackFormatError("weights contain values that are not finite in float32")
    codes, scales = weight_codes(w, bits)
    return QuantizedTensor(bits=bits, packed=pack_subbyte(codes, bits), shape=w.shape,
                           scales=scales)


def fake_quant_weights(w: np.ndarray, bits: int) -> np.ndarray:
    """Quantize-dequantize roundtrip used in the training forward pass:
    codes * scales of weight_codes, in w's dtype."""
    codes, scales = weight_codes(w, bits)
    codes *= scales.reshape((-1,) + (1,) * (w.ndim - 1))
    return codes


def normal_act_scale(clip_max: float, bits: int, dtype=np.float32) -> bool:
    """Whether the activation scale clip_max / (2**bits - 1) is a normal
    positive number of dtype (NaN is not). Below that, act_codes' division
    leaves the code range, so builds and loads check their clips with it."""
    return clip_max / ((1 << bits) - 1) >= np.finfo(dtype).tiny


def act_codes(x: np.ndarray, clip_max: float, bits: int) -> tuple[np.ndarray, float]:
    """The activation encoder of training and of the integer engine: (codes, s).

    codes are x's unsigned codes, integer-valued in x's dtype within
    [0, 2**bits - 1], and s = clip_max / (2**bits - 1), so codes * s is the
    fake-quantized x. The codes are one new array that the chain clip to
    [0, clip_max], /= s, += 0.5, floor writes in place: round_half_away of
    the clipped values, which are >= 0, but an input of -0.0 gives +0.0.
    x is left unchanged. A clip_max that fails normal_act_scale in x's dtype
    raises ValueError.
    """
    if not normal_act_scale(clip_max, bits, x.dtype):
        raise ValueError(f"clip_max {clip_max} is not positive or gives a scale below "
                         f"the smallest normal {x.dtype}")
    s = clip_max / ((1 << bits) - 1)
    q = np.clip(x, 0.0, clip_max)
    q /= s
    q += 0.5
    np.floor(q, out=q)
    return q, s


def quantize_act(x: np.ndarray, clip_max: float, bits: int) -> np.ndarray:
    """Encode a float batch to int32 codes: act_codes of the float32 values that
    the training forward (qat._walk) takes as its input."""
    return act_codes(np.asarray(x, dtype=np.float32), clip_max, bits)[0].astype(np.int32)


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


def float64_exact(bits: int, shift: np.ndarray) -> bool:
    """Whether apply_requant runs its exact float64 chain (its docstring)."""
    return bits < 32 and int(shift.max(initial=0)) <= 52 - bits


def apply_requant(acc: np.ndarray, rq: RequantParams, bits: int,
                  bias: np.ndarray | None = None, memo: dict | None = None) -> np.ndarray:
    """Requantize 32-bit accumulators to the output bit range with saturation:
    int32 sat(round((acc + bias) * multiplier / 2**shift)), half away from zero.
    The range is signed at 32 bits (raw logits) and unsigned below (activations).

    acc holds integers (int, or a float kernel's exact floats) in any layout,
    and acc + bias lies within int32. The parameters are one multiplier and
    shift, or one per channel on axis 1 of an (N, C, ...) acc; bias is one
    int32 per channel. The output has acc's shape and memory order. Both are
    walked in that order, acc's axes outermost-first by stride (length-1 axes
    last), in blocks of at most CONV_BLOCK elements copied into one buffer and
    requantized there: slices of the outermost axis k whose inner axes fit, at
    one index of the axes before k, the parameters tiled over the inner axes
    where the channel axis is one of them. So a C-contiguous acc runs in whole
    images or channels of one image, conv2d's (oh*ow*N, O) GEMM output in whole
    output rows (pieces of a row at large N), and the channels-outermost
    depthwise and avg_pool views in channel slices (rows of one at large N).

    Unsigned outputs whose largest shift is at most 52 - bits run in float64,
    exactly: a = acc + bias (below 2**33) and m = multiplier * 2**-shift are
    exact. Where |a * multiplier| < 2**52, so are a * m and a * m + 0.5 =
    (a * multiplier + 2**(shift - 1)) / 2**shift (numerator below 2**53),
    whose clip to [0, hi], truncated, is the exact result. Elsewhere
    |a * m| >= 2**(52 - shift) >= 2**bits > hi, and rounding is monotone, so
    the float and the exact value saturate alike.

    Everything else runs in int64: p = (acc + bias) * multiplier as acc *
    multiplier (below 2**63) plus bias * multiplier + half (below 2**62 +
    2**61), half = 2**shift // 2, then floor((p + half) / 2**shift), which
    rounds half away from zero where p >= 0, and the clip. Signed outputs
    first take 1 off where p < 0 and shift > 0, which rounds a negative tie
    away from zero and moves nothing else; unsigned ones clip p < 0 to 0.

    memo, a dict kept for one (rq, bits, bias), holds _requant_setup per acc
    shape and strides for later calls; the tile and the buffer are per call.
    """
    acc = np.asarray(acc)
    out = np.empty_like(acc, dtype=np.int32)  # in acc's memory order
    view, outv = (acc, out) if acc.ndim >= 2 else (acc.reshape(-1, 1), out.reshape(-1, 1))
    key, memo = (view.shape, view.strides), {} if memo is None else memo
    if key not in memo:
        memo[key] = _requant_setup(view, rq, bits, bias)
    order, ax, k, exact, lo, hi, params, blocks, size = memo[key]
    view, outv = view.transpose(order), outv.transpose(order)
    if ax > k:  # the parameters tiled over the inner axes
        tiled = np.empty((len(params),) + view.shape[k + 1:], params[0].dtype)
        for t, v in zip(tiled, params):
            t[...] = v
        params = tiled
    buf = np.empty(size, np.float64 if exact else np.int64)
    for idx, ch in blocks:
        block = view[idx]
        p = buf[:block.size].reshape(block.shape)
        np.copyto(p, block, casting="unsafe")  # the fastest read of a block, strided or not
        if exact:
            b, m = (v[ch] for v in params)
            p += b
            p *= m
            p += 0.5
        else:
            m, off, sh, neg = (v[ch] for v in params)
            p *= m
            p += off
            if bits == 32:
                p -= p < neg
            p >>= sh
        np.clip(p, lo, hi, out=outv[idx], casting="unsafe")  # truncates a float p
    return out


def _requant_setup(view: np.ndarray, rq: RequantParams, bits: int, bias) -> tuple:
    """apply_requant's work that depends on rq, bits, bias and its view's layout alone."""
    c = view.shape[1]
    mult, shift = (np.atleast_1d(a).astype(np.int64) for a in (rq.multiplier, rq.shift))
    bias = np.zeros(c, np.int64) if bias is None else np.asarray(bias, np.int64)
    if mult.size not in (1, c) or len(bias) != c:
        raise ValueError(f"requant parameters for {mult.size} channels or a bias for "
                         f"{len(bias)} do not fit accumulators of {c} channels")
    # the axes outermost-first in memory, those of length 1 last; the channel axis at ax
    order = sorted(range(view.ndim), key=lambda a: -abs(view.strides[a]) * (view.shape[a] > 1))
    view, ax = view.transpose(order), order.index(1)
    # blocks slice the outermost axis k whose inner axes fit, at each index of the outer ones
    k = next(k for k in range(view.ndim) if math.prod(view.shape[k + 1:]) <= CONV_BLOCK)
    chan = np.empty((3, c), np.int64)  # a single multiplier and shift broadcast
    chan[0], chan[1], chan[2] = mult, shift, bias
    # one value per block where the channel axis is outer to k, else over the channel axis
    mult, shift, bias = chan.reshape((3, c) + ((1,) * (view.ndim - 1 - ax) if ax >= k else ()))
    exact = float64_exact(bits, shift)
    if exact:
        params = [bias.astype(np.float64), np.ldexp(mult.astype(np.float64), -shift)]
    else:  # p + half < half where p < 0; channels of shift 0 never match
        half = (1 << shift) >> 1
        params = [mult, bias * mult + half, shift, np.where(shift > 0, half, -(1 << 63))]
    step = CONV_BLOCK // max(1, math.prod(view.shape[k + 1:]))
    slices = [slice(i, i + step) for i in range(0, view.shape[k], step)]
    # each block's parameters: one channel's (ax < k), a channel slice (ax == k) or the tile
    blocks = [(o + (s,), o[ax] if ax < k else s if ax == k else ())
              for o in itertools.product(*map(range, view.shape[:k])) for s in slices]
    size = view[blocks[0][0]].size if blocks else 0
    return order, ax, k, exact, *qrange(bits, bits == 32), params, blocks, size


def percentile_clip(values: np.ndarray) -> float:
    """Calibration clip: the CALIB_PERCENTILE percentile of the values, floored at
    CLIP_FLOOR and rounded to float32, as the container stores it. A percentile
    that is not finite in float32 (a NaN or inf sample) raises ValueError."""
    # the float64 cast is the one copy: np.percentile partitions it in place
    v = np.array(values, dtype=np.float64, order="C").ravel()
    if v.size == 0:
        raise ValueError("empty calibration sample")
    clip = float(np.percentile(v, CALIB_PERCENTILE, method="linear", overwrite_input=True))
    if not abs(clip) <= F32_MAX:
        raise ValueError(f"calibration percentile is {clip}, not finite in float32")
    return float(np.float32(max(clip, CLIP_FLOOR)))


def calibrate_act_ranges(g, weights, images) -> dict[int, float]:
    """Activation clips by encoded tensor id: percentile_clip of a float forward on images."""
    from . import qat  # deferred: qat builds on this module

    if len(images) == 0:
        raise ValueError("empty calibration set")
    return qat.collect_activations(g, weights, images)
