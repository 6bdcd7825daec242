"""Layer arithmetic of both engines: linear_acc, the bias-free accumulator
of the integer engine; linear_fwd, linear_acc plus the bias, the training
forward; and linear_bwd, its adjoint.

conv2d, depthwise_conv2d and avg_pool run over phase planes. The
zero-padded input is written once into s*s phase planes (s the stride),
plane (a, b) holding the padded pixels (s*Y + a, s*X + b) at (Y, X) of
an h2 x w2 grid per image; tap (i, j) of output (y, x) reads plane
(i%s, j%s) at (y + i//s, x + j//s). conv2d folds the batch innermost,
planes (s, s, C, h2, w2*N) running (Y, X, n), so the kept positions x < ow
of an output row, every image, are one run of ow*N: it computes exactly
the oh*ow*N outputs it keeps, as CMSIS-NN does. Its im2col blocks of at
most CONV_BLOCK elements, kh*kw*C rows by positions, are whole output rows
while they fit, else chunks of one row, each tap's slice a (C, rows, run)
view; one GEMM a block multiplies them by the weights, w @ cols into an
(O, M) array in linear_acc (cols.T @ w.T in linear_fwd). depthwise_conv2d
and avg_pool keep the (y, n, x) fold, whose fill copies whole image rows
(the batch-innermost fill was 4-6x slower on MobileNetV1's maps at N=4;
at N=1 the folds are one): planes (s, s, C, h2*N*w2 + (kw-1)//s), tap
(i, j) of q = (y*N + n)*w2 + x at plane[i%s, j%s, :, q + (i//s)*N*w2 +
j//s], one contiguous slice per tap. They compute q < oh*N*w2 and drop
the columns x >= ow, whose taps may read into the next image's row or
the tail, in blocks of CONV_BLOCK // (oh*N*w2) channels (at least one),
so a block's sums and products stay in cache: the first tap's slice
times its (C, 1) weight column is written into the block and each further
tap's is added, so every output sums its taps in the same order whatever
the block. The sums run in w's dtype, the planes', into which the fill
casts x. These tap loops and the backward's dx taps are elementwise and run
in quantizer.channel_loops: numpy would otherwise copy the (C, 1) weight
column through its ufunc buffer on every row shorter than 4096 positions,
which past its first stage is every row of MobileNetV1. The backward's
reductions, the depthwise dw products and the db sum, run outside it.
linear_acc returns the (O, M) output uncopied, as a strided (N, O, oh, ow)
view (_out_grid), so its channels run outermost: conv2d's (o, y, x, n), the
others' (c, y, n, x).

A global avg_pool (kernel H x W, padding 0) skips the phase planes: its
(N, C) output takes the same tap products in the same row-major order,
so the sums are bit-identical; its cols is the input, and dx is dz * w.

pointwise_conv2d is one GEMM per (C, H*W) image, or one over (C, H*N*W) where x
runs channels outermost, (c, y, n, x), as depthwise codes do at N > 1;
fully_connected is one GEMM. Both cast x to w's dtype as they reshape it; cols is x.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .quantizer import CONV_BLOCK, channel_loops

# linear kinds that run on phase planes
_WINDOW_KINDS = ("conv2d", "depthwise_conv2d", "avg_pool")


@functools.lru_cache(maxsize=1024)
def _geometry(layer, x_shape: tuple):
    """(oh, ow, h2, w2, m, taps, phases) of a window layer on an (N, C, H, W)
    input: the output size, one image's rows and columns in a phase plane,
    the m positions computed (oh*ow*N for conv2d, oh*N*w2 otherwise), the
    taps, row-major, and (a, b, r0, c0, y0, x0, rows, cols) per phase: its
    rows x cols input pixels from (r0, c0), every s-th, go to plane (a, b)
    from (y0, x0). A conv2d tap is (a, b, row offset, offset in the (X, n)
    run), the others' (a, b, flat offset). Kept per (layer, x_shape)."""
    n, _, h, w = x_shape
    s, p, kh, kw = layer.stride, layer.padding, layer.kernel_h, layer.kernel_w
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    # every tap of a kept output stays inside its image: for y < oh and tap
    # row i, y + i//s <= (h + 2p - 1)//s < h2, and likewise for columns
    h2, w2 = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    conv = layer.kind == "conv2d"
    taps = tuple((i % s, j % s) + ((i // s, j // s * n) if conv else (i // s * n * w2 + j // s,))
                 for i in range(kh) for j in range(kw))
    phases = []
    for a, b in itertools.product(range(s), repeat=2):
        r0, c0 = (a - p) % s, (b - p) % s
        y0, x0 = (r0 + p) // s, (c0 + p) // s
        phases.append((a, b, r0, c0, y0, x0, len(range(r0, h, s)), len(range(c0, w, s))))
    return oh, ow, h2, w2, oh * ow * n if conv else oh * n * w2, taps, tuple(phases)


def _phases(planes: np.ndarray, x: np.ndarray, h2: int, w2: int, phases: list):
    """Yield (view of x, view of the planes) pairs of equal shape that put each
    pixel of x, (N, C, H, W), at its place in the planes: conv2d's, 5-D, run
    (y, x, n), the others' flat axis (y, n, x)."""
    s, n = planes.shape[0], x.shape[0]
    if planes.ndim == 5:
        grid = planes.reshape(planes.shape[:3] + (h2, w2, n)).swapaxes(4, 5)
    else:
        grid = planes[..., :h2 * n * w2].reshape(planes.shape[:3] + (h2, n, w2))
    for a, b, r0, c0, y0, x0, rows, cols in phases:
        yield (x[:, :, r0::s, c0::s],
               grid[a, b, :, y0:y0 + rows, :, x0:x0 + cols].transpose(2, 0, 1, 3))


def _spans(n: int, size: int, join: bool = True) -> list:
    """(start, length) spans of size over range(n); with join, a last span of
    one joins the one before."""
    starts = list(range(0, n, size))
    starts = starts[:-1] if join and n - 1 in starts[1:] else starts
    return [(a, b - a) for a, b in zip(starts, starts[1:] + [n])]


def _col_blocks(planes: np.ndarray, taps: list, oh: int, run: int):
    """Yield (m0, cols): cols is the (kh*kw*C, mb) im2col block of conv2d's
    output positions m0 .. m0+mb, rows tap-major, held in one reused buffer:
    whole output rows of run = ow*N positions while they fit in CONV_BLOCK,
    else chunks of one row. A last block of one position joins the one before:
    numpy multiplies a (1, K) block as a vector, which rounds otherwise."""
    c = planes.shape[2]
    k = len(taps) * c
    step = max(2, CONV_BLOCK // k)
    rows, chunk = (min(oh, step // run), run) if step >= run else (1, step)
    blocks = list(itertools.product(_spans(oh, rows, join=run == 1), _spans(run, chunk)))
    buf = np.empty(k * max(r * mb for (_, r), (_, mb) in blocks), planes.dtype)
    for (y0, r), (p0, mb) in blocks:
        cols = buf[:k * r * mb].reshape(len(taps), c, r, mb)
        for t, (a, b, dy, dp) in enumerate(taps):
            cols[t] = planes[a, b, :, y0 + dy:y0 + dy + r, p0 + dp:p0 + dp + mb]
        yield y0 * run + p0, cols.reshape(k, r * mb)


def _out_grid(flat: np.ndarray, kind: str, n: int, oh: int, ow: int, w2: int) -> np.ndarray:
    """A window kernel's (O, M) output as an (N, O, oh, ow) view: conv2d's
    GEMM output (or the transpose of training's (M, O) one), positions
    (y, x, n), or the per-tap products', positions (y, n, x), whose columns
    x >= ow it drops."""
    if kind == "conv2d":
        return flat.reshape(len(flat), oh, ow, n).transpose(3, 0, 1, 2)
    return flat.reshape(len(flat), oh, n, w2).transpose(2, 0, 1, 3)[..., :ow]


def _window_fwd(layer, x: np.ndarray, w: np.ndarray, channel_major: bool = False):
    n, c = x.shape[:2]
    s, o = layer.stride, len(w)
    oh, ow, h2, w2, m, taps, phases = _geometry(layer, x.shape)
    dtype = w.dtype
    conv = layer.kind == "conv2d"
    # (y, n, x) planes have a tail: columns x >= ow of the last row read up to
    # (kw-1)//s past the grid
    planes = np.zeros((s, s, c) + ((h2, w2 * n) if conv else
                                   (h2 * n * w2 + (layer.kernel_w - 1) // s,)), dtype)
    for xv, pv in _phases(planes, x, h2, w2, phases):
        pv[...] = xv
    if conv:
        wt = w.transpose(0, 2, 3, 1).reshape(o, -1)  # columns tap-major, as the blocks
        zm = np.empty((o, m), dtype) if channel_major else np.empty((m, o), dtype).T  # (O, M)
        for m0, cols in _col_blocks(planes, taps, oh, ow * n):
            out = zm[:, m0:m0 + cols.shape[1]]
            if channel_major:
                np.matmul(wt, cols, out=out)
            else:
                np.matmul(cols.T, wt.T, out=out.T)
    else:  # one multiply-add per tap, (C, 1) weight columns, in blocks of channels
        zm = np.empty((c, m), dtype)
        wc, step = w.reshape(c, -1), max(1, CONV_BLOCK // m)
        prod = np.empty((min(c, step), m), dtype)
        (a0, b0, off0), *rest = taps
        with channel_loops():
            for c0 in range(0, c, step):
                cs = slice(c0, c0 + step)
                zb = zm[cs]
                np.multiply(planes[a0, b0, cs, off0:off0 + m], wc[cs, :1], out=zb)
                for t, (a, bb, off) in enumerate(rest, 1):
                    zb += np.multiply(planes[a, bb, cs, off:off + m], wc[cs, t, None],
                                      out=prod[:len(zb)])
    return _out_grid(zm, layer.kind, n, oh, ow, w2), planes


def _is_global(layer, x_shape: tuple) -> bool:
    """Whether an avg_pool's window is its whole unpadded input."""
    return layer.kind == "avg_pool" and (layer.padding, layer.kernel_h, layer.kernel_w) == \
        (0,) + tuple(x_shape[2:])


def _window_bwd(layer, dz: np.ndarray, planes: np.ndarray, w: np.ndarray,
                x_shape: tuple, need_dx: bool):
    n, o, oh, ow = dz.shape
    c = x_shape[1]
    _, _, h2, w2, m, taps, phases = _geometry(layer, x_shape)
    conv = layer.kind == "conv2d"
    # conv2d's dzm holds only kept positions; the others' dropped columns get a
    # zero gradient, so they add nothing
    dzm = np.empty((m, o), dz.dtype) if conv else np.zeros((o, m), dz.dtype)
    _out_grid(dzm.T if conv else dzm, layer.kind, n, oh, ow, w2)[...] = dz
    dw = None  # avg_pool has no parameters
    if conv:
        dwt = np.zeros((len(taps) * c, o), np.result_type(planes, dz))
        for m0, cols in _col_blocks(planes, taps, oh, ow * n):
            dwt += cols @ dzm[m0:m0 + cols.shape[1]]
        dw = dwt.reshape(layer.kernel_h, layer.kernel_w, c, o).transpose(3, 2, 0, 1)
    elif layer.kind == "depthwise_conv2d":
        dw = np.stack([planes[a, b, :, None, off:off + m] @ dzm[..., None] for a, b, off in taps],
                      axis=1).reshape(w.shape)  # a (1, M) @ (M, 1) product per channel
    dx = None
    if need_dx:
        dtype = np.result_type(w, dz)
        dplanes = np.zeros(planes.shape, dtype)
        if conv:
            wt = w.transpose(0, 2, 3, 1).reshape(o, -1)
            dcols = (wt.T @ dzm.T).reshape(len(taps), c, oh, ow * n)
            for (a, b, dy, dp), dcol in zip(taps, dcols):
                dplanes[a, b, :, dy:dy + oh, dp:dp + ow * n] += dcol
        else:
            wc, prod = w.reshape(c, -1), np.empty((c, m), dtype)
            with channel_loops():
                for t, (a, b, off) in enumerate(taps):
                    dplanes[a, b, :, off:off + m] += np.multiply(wc[:, t, None], dzm, out=prod)
        dx = np.empty(x_shape, dtype)
        for xv, pv in _phases(dplanes, dx, h2, w2, phases):
            xv[...] = pv
    db = None if dw is None else dz.reshape(n, o, oh * ow).sum(axis=(0, 2))
    return dx, dw, db


def pool_weight(layer, value, dtype) -> tuple[np.ndarray, np.ndarray]:
    """avg_pool as a depthwise layer: (w, b) weighting every tap by value, no bias."""
    c = layer.out_channels
    return np.full((c, layer.kernel_h, layer.kernel_w), value, dtype), np.zeros(c, dtype)


def linear_acc(layer, x: np.ndarray, w: np.ndarray):
    """One linear layer without its bias, acc = w * x, in w's dtype whatever x
    holds, each kind casting x as it reads it: the integer engine's
    accumulator, on int32 codes and weight codes in float32 or float64
    (whichever the accumulator bound proves exact, see inference); avg_pool
    runs on pool_weight's constant kernel. Returns (acc, cols): acc is the
    kernel's own output, uncopied, a strided view for the window kinds;
    cols is the input as the kernel's operand, which linear_bwd needs.
    linear_fwd's arithmetic, but conv2d's GEMM runs channel-major, so acc's
    channels run outermost; only exact sums come out as linear_fwd's bits.
    """
    if _is_global(layer, x.shape):  # its taps in the phase-plane order, as bit-identical sums
        wc, kw = w.reshape(len(w), -1), x.shape[3]
        z = np.multiply(x[:, :, 0, 0], wc[:, 0], dtype=w.dtype)
        prod = np.empty_like(z)
        for t in range(1, wc.shape[1]):
            z += np.multiply(x[:, :, t // kw, t % kw], wc[:, t], out=prod, dtype=w.dtype)
        return z[:, :, None, None], x
    if layer.kind in _WINDOW_KINDS:
        return _window_fwd(layer, x, w, channel_major=True)
    if layer.kind == "pointwise_conv2d":
        n, c, h, wd = x.shape
        xt = x.transpose(1, 2, 0, 3)
        if n > 1 and not x.flags.c_contiguous and xt.flags.c_contiguous:  # (c, y, n, x)
            z = w @ xt.astype(w.dtype, copy=False).reshape(c, h * n * wd)
            return z.reshape(len(w), h, n, wd).transpose(2, 0, 1, 3), x
        z = np.matmul(w, x.astype(w.dtype, order="C", copy=False).reshape(n, c, h * wd))
        return z.reshape(n, len(w), h, wd), x
    cols = x.astype(w.dtype, order="C", copy=False).reshape(len(x), -1)  # fully_connected
    return cols @ w.T, cols


def linear_fwd(layer, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The training forward, z = w * x + b: linear_acc plus the bias, added in
    place to acc or, for a strided acc, to a C-contiguous copy of it (a copy
    and an add read the view faster than np.add into z). Returns (z, cols)."""
    # conv2d's GEMM stays (M, O) here: (wt @ cols).T and cols.T @ wt.T differ in float32 bits
    # on 41 of 180 (K, O, M) shapes, which would move z and dw; exact integer sums do not
    acc, cols = _window_fwd(layer, x, w) if layer.kind == "conv2d" else linear_acc(layer, x, w)
    z = np.ascontiguousarray(acc)
    z += b[:, None, None] if z.ndim == 4 else b
    return z, cols


def linear_bwd(layer, dz: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape: tuple,
               need_dx: bool = True):
    """Adjoint of linear_fwd: (dx, dw, db) given dL/dz and the saved cols.

    dx is None when need_dx is false; dw and db do not depend on it, and are
    None for avg_pool, which has no parameters. The window kinds take dw from
    the phase planes in cols: conv2d rebuilds each im2col block for one dw
    GEMM per block, depthwise_conv2d takes one dot product per tap and
    channel. Their column gradients (one GEMM over the kept positions for
    conv2d, the weight column times dz per tap for depthwise_conv2d and
    avg_pool) go back into zeroed planes by kh*kw slice-adds; dx is those
    planes un-phased and cropped.
    """
    if _is_global(layer, x_shape):  # + 0.0: -0.0 to 0.0, as the zeroed planes make it
        return (dz * w + 0.0 if need_dx else None), None, None
    if layer.kind in _WINDOW_KINDS:
        return _window_bwd(layer, dz, cols, w, x_shape, need_dx)
    if layer.kind == "pointwise_conv2d":
        dw = np.einsum("nohw,nchw->oc", dz, cols, optimize=True)
        dx = np.einsum("oc,nohw->nchw", w, dz, optimize=True) if need_dx else None
        return dx, dw, dz.sum(axis=(0, 2, 3))
    return (dz @ w).reshape(x_shape) if need_dx else None, dz.T @ cols, dz.sum(axis=0)
