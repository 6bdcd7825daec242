"""Datasets: IDX (MNIST layout) and raw-tensor loaders, a bundled synthetic
10-class shape dataset for desk-scale runs, and proxy subset sampling."""

from __future__ import annotations

import gzip
import json
import math
import os
import re
import struct
import tokenize
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError
from .graph_ir import is_int, read_json

NUM_SHAPE_CLASSES = 10
SHAPE_HW = 28  # side of a synthetic shape image
SHAPE_NOISE = 0.10  # std of the Gaussian noise added to each pixel


@dataclass
class Dataset:
    """Images in [0,1], shape (N, C, H, W); first n_train samples are the train split."""
    images: np.ndarray
    labels: np.ndarray
    n_train: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DatasetError(f"images must be (N,C,H,W), got shape {self.images.shape}")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise DatasetError(f"labels must be a 1-D integer array, got {labels.dtype} "
                               f"of shape {labels.shape}")
        if labels.size and labels.min() < 0:
            raise DatasetError(f"labels must be >= 0, got {labels.min()}")
        if len(self.labels) != len(self.images):
            raise DatasetError("images and labels length mismatch")
        if not (0 < self.n_train < len(self.images)):
            raise DatasetError("both train and validation splits must be nonempty")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images[: self.n_train], self.labels[: self.n_train]

    @property
    def val(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images[self.n_train:], self.labels[self.n_train:]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Images and labels of the "train", "val" or "all" split."""
        if name == "train":
            return self.train
        if name == "val":
            return self.val
        if name == "all":
            return self.images, self.labels
        raise DatasetError(f"unknown split {name!r}; expected train, val or all")


def make_proxy(d: Dataset, n_train: int, n_val: int, seed: int) -> Dataset:
    """Random disjoint proxy subsets, train drawn from train and val from val."""
    if n_train < 1 or n_val < 1:
        raise DatasetError("proxy splits must be nonempty")
    tr_imgs, tr_lbls = d.train
    va_imgs, va_lbls = d.val
    if n_train > len(tr_imgs) or n_val > len(va_imgs):
        raise DatasetError(
            f"proxy request ({n_train}/{n_val}) exceeds available splits "
            f"({len(tr_imgs)}/{len(va_imgs)})")
    rng = np.random.default_rng(seed)
    ti = rng.choice(len(tr_imgs), size=n_train, replace=False)
    vi = rng.choice(len(va_imgs), size=n_val, replace=False)
    images = np.concatenate([tr_imgs[ti], va_imgs[vi]])
    labels = np.concatenate([tr_lbls[ti], va_lbls[vi]])
    return Dataset(images=images, labels=labels, n_train=n_train)


# ---------------------------------------------------------------------------
# Synthetic shapes: 10 geometric classes rendered with jitter and noise.
# ---------------------------------------------------------------------------

def _render_shape(cls: int, hw: int, rng: np.random.Generator) -> np.ndarray:
    img = np.zeros((hw, hw), dtype=np.float32)
    half = rng.integers(4, 8)  # shape half-size in pixels
    cy = hw // 2 + rng.integers(-4, 5)
    cx = hw // 2 + rng.integers(-4, 5)
    cy = int(np.clip(cy, half + 1, hw - half - 2))
    cx = int(np.clip(cx, half + 1, hw - half - 2))
    val = float(rng.uniform(0.55, 1.0))
    t = int(rng.integers(1, 3))  # stroke thickness
    yy, xx = np.mgrid[0:hw, 0:hw]
    dy, dx = yy - cy, xx - cx

    if cls == 0:    # filled square
        img[(np.abs(dy) <= half) & (np.abs(dx) <= half)] = val
    elif cls == 1:  # square outline
        box = (np.abs(dy) <= half) & (np.abs(dx) <= half)
        inner = (np.abs(dy) <= half - t) & (np.abs(dx) <= half - t)
        img[box & ~inner] = val
    elif cls == 2:  # horizontal bar
        img[(np.abs(dy) <= t) & (np.abs(dx) <= half)] = val
    elif cls == 3:  # vertical bar
        img[(np.abs(dx) <= t) & (np.abs(dy) <= half)] = val
    elif cls == 4:  # plus
        img[(np.abs(dy) <= t) & (np.abs(dx) <= half)] = val
        img[(np.abs(dx) <= t) & (np.abs(dy) <= half)] = val
    elif cls == 5:  # diagonal cross
        d1 = np.abs(dy - dx) <= t
        d2 = np.abs(dy + dx) <= t
        box = (np.abs(dy) <= half) & (np.abs(dx) <= half)
        img[(d1 | d2) & box] = val
    elif cls == 6:  # ring
        r = np.sqrt(dy ** 2 + dx ** 2)
        img[(r <= half) & (r >= half - t - 0.5)] = val
    elif cls == 7:  # disk
        img[dy ** 2 + dx ** 2 <= half ** 2] = val
    elif cls == 8:  # triangle (filled, apex up)
        inside = (dy >= -half) & (dy <= half) & (np.abs(dx) <= (dy + half) / 2 + 0.5)
        img[inside] = val
    elif cls == 9:  # checkerboard patch
        box = (np.abs(dy) <= half) & (np.abs(dx) <= half)
        cells = ((yy // 2) + (xx // 2)) % 2 == 0
        img[box & cells] = val
    else:
        raise ValueError(f"unknown shape class {cls}")
    return img


def synthetic_shapes(n_train: int, n_val: int, seed: int = 0) -> Dataset:
    """Bundled desk-scale dataset: 10 shape classes, reproducible by seed."""
    if n_train < 1 or n_val < 1:
        raise DatasetError("need at least one sample per split")
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    labels = rng.integers(0, NUM_SHAPE_CLASSES, size=n).astype(np.int64)
    images = np.empty((n, 1, SHAPE_HW, SHAPE_HW), dtype=np.float32)
    for i, cls in enumerate(labels):
        img = _render_shape(int(cls), SHAPE_HW, rng)
        img += rng.normal(0.0, SHAPE_NOISE, size=img.shape).astype(np.float32)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images=images, labels=labels, n_train=n_train)


# ---------------------------------------------------------------------------
# IDX (MNIST layout): big-endian dims, optional .gz.
# ---------------------------------------------------------------------------

def _open_maybe_gz(path: str):
    return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")


def _read_idx(path: str, ndim: int) -> np.ndarray:
    """The ndim-D uint8 array of an IDX file; a file that cannot be read, or
    whose header or size is wrong, raises DatasetError naming it."""
    try:
        with _open_maybe_gz(path) as f:
            raw = f.read()
    except (OSError, EOFError, zlib.error) as e:  # gzip.BadGzipFile is an OSError
        raise DatasetError(f"{path}: cannot read: {e}") from e
    if len(raw) < 4 or raw[:3] != b"\x00\x00\x08":
        raise DatasetError(f"{path}: bad IDX magic {raw[:4].hex()} (want uint8 data)")
    if raw[3] != ndim:
        raise DatasetError(f"{path}: holds {raw[3]}-D data, want {ndim}-D")
    if len(raw) < 4 + 4 * ndim:
        raise DatasetError(f"{path}: IDX header truncated")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    data = np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim)
    if data.size != math.prod(dims):
        raise DatasetError(f"{path}: payload size does not match header dims {dims}")
    return data.reshape(dims)


def _find_idx(dirname: str, stem: str) -> str:
    for suffix in ("", ".gz"):
        p = os.path.join(dirname, stem + suffix)
        if os.path.exists(p):
            return p
    raise DatasetError(f"missing IDX file {stem}[.gz] in {dirname}")


def load_idx_dir(dirname: str) -> Dataset:
    """Load a directory holding the four standard MNIST-layout IDX files:
    3-D images and 1-D labels, train and t10k images of one size."""
    tr_x = _read_idx(_find_idx(dirname, "train-images-idx3-ubyte"), 3)
    tr_y = _read_idx(_find_idx(dirname, "train-labels-idx1-ubyte"), 1)
    te_x = _read_idx(_find_idx(dirname, "t10k-images-idx3-ubyte"), 3)
    te_y = _read_idx(_find_idx(dirname, "t10k-labels-idx1-ubyte"), 1)
    if len(tr_x) != len(tr_y) or len(te_x) != len(te_y):
        raise DatasetError(f"{dirname}: image/label counts disagree")
    if tr_x.shape[1:] != te_x.shape[1:]:
        raise DatasetError(f"{dirname}: train images are {tr_x.shape[1:]}, "
                           f"t10k images {te_x.shape[1:]}")
    images = np.concatenate([tr_x, te_x]).astype(np.float32) / 255.0
    images = images[:, None, :, :]
    labels = np.concatenate([tr_y, te_y]).astype(np.int64)
    return Dataset(images=images, labels=labels, n_train=len(tr_x))


# ---------------------------------------------------------------------------
# Raw-tensor directory: images.npy (N,C,H,W), labels.npy, optional split.json.
# ---------------------------------------------------------------------------

def _load_npy(path: str) -> np.ndarray:
    """The array in a .npy file; one that cannot be read or parsed, or holds
    bytes after its array, raises DatasetError naming it (np.load parses the
    header with Python's tokenizer and literal_eval, whence their exceptions)."""
    try:
        with open(path, "rb") as f:
            arr = np.load(f)
            trailing = f.read(1)
    except (OSError, ValueError, EOFError, SyntaxError, TypeError, MemoryError,
            tokenize.TokenError) as e:
        raise DatasetError(f"{path}: cannot load: {e}") from e
    if not isinstance(arr, np.ndarray):  # an .npz archive loads as a lazy mapping
        arr.close()
        raise DatasetError(f"{path}: is an .npz archive, not a .npy array")
    if trailing:
        raise DatasetError(f"{path}: trailing bytes after the array")
    return arr


def load_raw_dir(dirname: str) -> Dataset:
    images = _load_npy(os.path.join(dirname, "images.npy"))
    labels = _load_npy(os.path.join(dirname, "labels.npy"))
    if images.dtype == np.uint8:
        images = images.astype(np.float32) / 255.0
    elif not (images.dtype.kind in "biuf" and np.isfinite(images).all()
              and images.min(initial=0) >= 0 and images.max(initial=0) <= 1):
        raise DatasetError(f"{dirname}: images must be uint8, or finite and within [0, 1]")
    images = images.astype(np.float32)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DatasetError(f"{dirname}: labels.npy must hold integers, got {labels.dtype}")
    split_path = os.path.join(dirname, "split.json")
    if os.path.exists(split_path):
        n_train = read_json(split_path, DatasetError).get("n_train")
        if not is_int(n_train):
            raise DatasetError(f"{split_path}: must be an object with an integer n_train")
    else:
        n_train = int(0.8 * len(images))
    return Dataset(images=images, labels=labels.astype(np.int64), n_train=n_train)


def save_raw_dir(d: Dataset, dirname: str) -> None:
    os.makedirs(dirname, exist_ok=True)
    np.save(os.path.join(dirname, "images.npy"), d.images)
    np.save(os.path.join(dirname, "labels.npy"), d.labels)
    with open(os.path.join(dirname, "split.json"), "w", encoding="utf-8") as f:
        json.dump({"n_train": d.n_train}, f)


def load_dataset(spec: str, seed: int = 0) -> Dataset:
    """Resolve a CLI dataset argument.

    ``synthetic`` and ``synthetic:N_TRAIN,N_VAL`` build the bundled shape
    dataset, and any other ``synthetic:`` spec raises DatasetError; any other
    spec is a directory: an IDX directory when it holds
    train-images-idx3-ubyte[.gz], a raw-tensor directory otherwise.
    """
    if spec == "synthetic":
        return synthetic_shapes(4000, 1500, seed=seed)
    if spec.startswith("synthetic:"):
        m = re.fullmatch(r"synthetic:([0-9]+),([0-9]+)", spec)
        if m is None:
            raise DatasetError(f"dataset spec {spec!r} is not synthetic:N_TRAIN,N_VAL")
        return synthetic_shapes(int(m[1]), int(m[2]), seed=seed)
    if not os.path.isdir(spec):
        raise DatasetError(f"dataset path {spec!r} is not a directory")
    try:
        _find_idx(spec, "train-images-idx3-ubyte")
    except DatasetError:
        return load_raw_dir(spec)
    return load_idx_dir(spec)
