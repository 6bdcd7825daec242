"""Dataset loaders, the synthetic desk set, and proxy sampling."""

import gzip
import io
import struct

import numpy as np
import pytest

from mcuq import data
from mcuq.data import (
    Dataset,
    load_dataset,
    load_idx_dir,
    load_raw_dir,
    make_proxy,
    save_raw_dir,
    synthetic_shapes,
)
from mcuq.errors import DatasetError


def test_dataset_split_views():
    imgs = np.zeros((10, 1, 4, 4), dtype=np.float32)
    labels = np.arange(10, dtype=np.int64)
    d = Dataset(images=imgs, labels=labels, n_train=7)
    assert len(d) == 10
    assert d.train[0].shape[0] == 7
    assert d.val[1].tolist() == [7, 8, 9]
    assert d.num_classes == 10
    with pytest.raises(DatasetError, match="unknown split 'test'; expected train, val or all"):
        d.split("test")


def test_dataset_rejects_bad_shapes():
    with pytest.raises(DatasetError, match="images must be"):
        Dataset(images=np.zeros((4, 4, 4)), labels=np.zeros(4, dtype=np.int64), n_train=2)
    with pytest.raises(DatasetError, match="length mismatch"):
        Dataset(images=np.zeros((4, 1, 4, 4)), labels=np.zeros(3, dtype=np.int64), n_train=2)
    with pytest.raises(DatasetError, match="splits must be nonempty"):
        Dataset(images=np.zeros((4, 1, 4, 4)), labels=np.zeros(4, dtype=np.int64), n_train=4)


@pytest.mark.parametrize("labels, match", [
    pytest.param(np.array([0.0, 1.0, 8.7, 3.0]), "integer", id="float"),
    pytest.param(np.array([True, False, True, False]), "integer", id="bool"),
    pytest.param(np.zeros((4, 1), dtype=np.int64), "1-D", id="2d"),
    pytest.param(np.array([0, 1, -1, 3]), ">= 0", id="negative"),
])
def test_dataset_rejects_labels_that_are_not_class_ids(labels, match):
    with pytest.raises(DatasetError, match=match):
        Dataset(images=np.zeros((4, 1, 4, 4), dtype=np.float32), labels=labels, n_train=2)


def test_synthetic_deterministic():
    a = synthetic_shapes(40, 20, seed=5)
    b = synthetic_shapes(40, 20, seed=5)
    c = synthetic_shapes(40, 20, seed=6)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_properties():
    d = synthetic_shapes(60, 30, seed=0)
    assert d.images.shape == (90, 1, 28, 28)
    assert d.images.dtype == np.float32
    assert float(d.images.min()) >= 0.0 and float(d.images.max()) <= 1.0
    assert d.labels.min() >= 0 and d.labels.max() <= 9
    assert d.n_train == 60


def test_make_proxy_draws_from_right_splits(desk_small):
    proxy = make_proxy(desk_small, 50, 25, seed=3)
    assert len(proxy) == 75 and proxy.n_train == 50
    # every proxy train image appears among the source train images
    src_train = {img.tobytes() for img in desk_small.train[0]}
    src_val = {img.tobytes() for img in desk_small.val[0]}
    assert all(img.tobytes() in src_train for img in proxy.train[0])
    assert all(img.tobytes() in src_val for img in proxy.val[0])


def test_make_proxy_deterministic(desk_small):
    a = make_proxy(desk_small, 40, 20, seed=9)
    b = make_proxy(desk_small, 40, 20, seed=9)
    assert np.array_equal(a.images, b.images)


def test_make_proxy_class_balance():
    d = synthetic_shapes(3000, 1000, seed=2)
    proxy = make_proxy(d, 1000, 300, seed=0)
    labels, counts = np.unique(proxy.train[1], return_counts=True)
    src_labels, src_counts = np.unique(d.train[1], return_counts=True)
    freq = dict(zip(src_labels.tolist(), (src_counts / d.n_train).tolist()))
    for cls, n in zip(labels.tolist(), counts.tolist()):
        p = freq[cls]
        sigma = np.sqrt(1000 * p * (1 - p))
        assert abs(n - 1000 * p) <= 3 * sigma + 1


def test_make_proxy_errors(desk_small):
    with pytest.raises(DatasetError):
        make_proxy(desk_small, 0, 10, seed=0)
    with pytest.raises(DatasetError):
        make_proxy(desk_small, 10 ** 6, 10, seed=0)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def write_idx(path, arr, gz=False):
    arr = np.asarray(arr, dtype=np.uint8)
    head = struct.pack(f">I{arr.ndim}I", 0x0800 | arr.ndim, *arr.shape)
    opener = gzip.open if gz else open
    with opener(path, "wb") as f:
        f.write(head + arr.tobytes())


def make_idx_dir(tmp_path, gz=False):
    rng = np.random.default_rng(0)
    suffix = ".gz" if gz else ""
    tr_x = rng.integers(0, 256, size=(12, 5, 5))
    te_x = rng.integers(0, 256, size=(6, 5, 5))
    write_idx(tmp_path / f"train-images-idx3-ubyte{suffix}", tr_x, gz)
    write_idx(tmp_path / f"train-labels-idx1-ubyte{suffix}", np.arange(12) % 3, gz)
    write_idx(tmp_path / f"t10k-images-idx3-ubyte{suffix}", te_x, gz)
    write_idx(tmp_path / f"t10k-labels-idx1-ubyte{suffix}", np.arange(6) % 3, gz)
    return tr_x, te_x


def test_idx_roundtrip(tmp_path):
    tr_x, te_x = make_idx_dir(tmp_path)
    d = load_idx_dir(str(tmp_path))
    assert d.images.shape == (18, 1, 5, 5)
    assert d.n_train == 12
    assert np.allclose(d.train[0][:, 0] * 255.0, tr_x)
    assert np.allclose(d.val[0][:, 0] * 255.0, te_x)
    assert d.labels.dtype == np.int64


def test_idx_gz_roundtrip(tmp_path):
    make_idx_dir(tmp_path, gz=True)
    d = load_idx_dir(str(tmp_path))
    assert len(d) == 18 and d.n_train == 12


def test_idx_bad_magic(tmp_path):
    (tmp_path / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x10\x03junk")
    with pytest.raises(DatasetError):
        load_idx_dir(str(tmp_path))


def test_idx_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        load_idx_dir(str(tmp_path))


def test_idx_truncated_payload(tmp_path):
    arr = np.zeros((4, 3, 3), dtype=np.uint8)
    head = struct.pack(">I3I", 0x0803, 4, 3, 3)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(head + arr.tobytes()[:-5])
    with pytest.raises(DatasetError):
        load_idx_dir(str(tmp_path))


_GZ_HEADER = b"\x1f\x8b\x08\x00" + bytes(6)


@pytest.mark.parametrize("gz, stem, corrupt, says", [
    pytest.param(False, "train-images-idx3-ubyte",
                 lambda p: p.write_bytes(struct.pack(">I2I", 0x0803, 12, 5)), "header truncated",
                 id="truncated_header"),
    pytest.param(True, "train-images-idx3-ubyte.gz",
                 lambda p: p.write_bytes(p.read_bytes()[:-20]), "cannot read", id="truncated_gz"),
    pytest.param(True, "train-labels-idx1-ubyte.gz",
                 lambda p: p.write_bytes(b"not a gzip stream"), "cannot read", id="not_gzip"),
    pytest.param(True, "t10k-images-idx3-ubyte.gz",
                 lambda p: p.write_bytes(_GZ_HEADER + b"\xff" * 8), "cannot read",
                 id="corrupt_deflate"),
    pytest.param(False, "train-images-idx3-ubyte", lambda p: write_idx(p, np.arange(12)),
                 "holds 1-D data, want 3-D", id="1d_images"),
    pytest.param(False, "", lambda p: write_idx(p / "t10k-images-idx3-ubyte",
                                                np.zeros((6, 4, 4))),
                 "train images are (5, 5), t10k images (4, 4)", id="image_sizes_differ"),
    pytest.param(False, "train-images-idx3-ubyte",
                 lambda p: p.write_bytes(b"\x00\x00\x10\x03junk"), "bad IDX magic",
                 id="bad_magic"),
    pytest.param(False, "train-labels-idx1-ubyte",
                 lambda p: write_idx(p, (np.arange(12) % 3)[:, None]), "holds 2-D data, want 1-D",
                 id="2d_labels"),
])
def test_a_malformed_idx_dir_raises_a_dataset_error_naming_the_file(tmp_path, gz, stem,
                                                                    corrupt, says):
    """load_dataset reads a directory holding IDX train images as IDX, so the
    error names the bad IDX file; it never falls back to raw tensors."""
    make_idx_dir(tmp_path, gz=gz)
    corrupt(tmp_path / stem)
    with pytest.raises(DatasetError) as e:
        load_dataset(str(tmp_path))
    assert says in str(e.value) and str(tmp_path / stem) in str(e.value), str(e.value)


# ---------------------------------------------------------------------------
# Raw tensor directories
# ---------------------------------------------------------------------------

def test_raw_dir_roundtrip(tmp_path, desk_small):
    save_raw_dir(desk_small, str(tmp_path / "raw"))
    back = load_raw_dir(str(tmp_path / "raw"))
    assert np.array_equal(back.images, desk_small.images)
    assert np.array_equal(back.labels, desk_small.labels)
    assert back.n_train == desk_small.n_train


def test_raw_dir_uint8_rescaled(tmp_path):
    d = tmp_path / "raw"
    d.mkdir()
    np.save(d / "images.npy", np.full((4, 1, 2, 2), 255, dtype=np.uint8))
    np.save(d / "labels.npy", np.zeros(4, dtype=np.int64))
    back = load_raw_dir(str(d))
    assert back.images.max() == 1.0
    assert back.n_train == 3  # default 80/20 split


def _raw_dir(tmp_path, labels=None, split=None) -> str:
    d = tmp_path / "raw"
    d.mkdir()
    np.save(d / "images.npy", np.zeros((10, 1, 2, 2), dtype=np.float32))
    np.save(d / "labels.npy", np.arange(10) % 3 if labels is None else labels)
    if split is not None:
        (d / "split.json").write_text(split)
    return str(d)


@pytest.mark.parametrize("split", ["{}", '{"n_train": 8.9}', '{"n_train": "8"}',
                                   '{"n_train": true}', "[8]", "8", '{"n_train": 8',
                                   '{"n_train": NaN}'])
def test_raw_dir_rejects_a_split_without_an_integer_n_train(tmp_path, split):
    with pytest.raises(DatasetError, match="split.json"):
        load_raw_dir(_raw_dir(tmp_path, split=split))


@pytest.mark.parametrize("split, match", [
    pytest.param(b'{"n_train": 8, "n_train": 2}', "duplicate key 'n_train'", id="duplicate_key"),
    pytest.param(b'{"n_train": 8, "\xff": 1}', "codec", id="not_utf8"),
])
def test_raw_dir_rejects_a_duplicate_key_or_bad_encoding_in_split(tmp_path, split, match):
    """json would load a repeated n_train with its last value and a non-UTF-8
    file as a bare UnicodeDecodeError; both raise DatasetError naming the file."""
    d = _raw_dir(tmp_path)
    (tmp_path / "raw" / "split.json").write_bytes(split)
    with pytest.raises(DatasetError, match=match) as e:
        load_raw_dir(d)
    assert "split.json" in str(e.value)


def test_raw_dir_reads_an_integer_n_train(tmp_path):
    assert load_raw_dir(_raw_dir(tmp_path, split='{"n_train": 6}')).n_train == 6


@pytest.mark.parametrize("labels, match", [
    pytest.param(np.full(10, 8.7), "labels.npy must hold integers", id="float"),
    pytest.param(np.arange(10) - 1, ">= 0", id="negative"),
])
def test_raw_dir_rejects_labels_that_are_not_class_ids(tmp_path, labels, match):
    with pytest.raises(DatasetError, match=match):
        load_raw_dir(_raw_dir(tmp_path, labels=labels))


@pytest.mark.parametrize("value", [200.0, np.nan, -3.0, np.inf])
def test_raw_dir_rejects_float_images_outside_the_unit_range(tmp_path, value):
    path = _raw_dir(tmp_path)
    images = np.zeros((10, 1, 2, 2))
    images[7, 0, 1, 0] = value
    np.save(tmp_path / "raw" / "images.npy", images)
    with pytest.raises(DatasetError, match=r"within \[0, 1\]"):
        load_raw_dir(path)


def test_raw_dir_accepts_float64_images_in_the_unit_range(tmp_path):
    path = _raw_dir(tmp_path)
    np.save(tmp_path / "raw" / "images.npy", np.linspace(0, 1, 40).reshape(10, 1, 2, 2))
    back = load_raw_dir(path)
    assert back.images.dtype == np.float32 and back.images.max() == 1.0


def _npy_header(**fields) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, fields)
    return buf.getvalue()


def _spoil(at: int, char: bytes):
    return lambda b: b[:at] + char + b[at + 1:]


@pytest.mark.parametrize("name, spoil", [
    pytest.param("labels.npy", _spoil(8, b"0"), id="TokenError"),  # header length
    pytest.param("labels.npy", _spoil(21, b","), id="SyntaxError"),
    pytest.param("labels.npy", _spoil(26, b"b"), id="TypeError"),  # a bytes key
    pytest.param("images.npy", lambda b: b"", id="EOFError"),
    pytest.param("images.npy", lambda b: _npy_header(
        descr="<f8", fortran_order=False, shape=(10 ** 13,)) + b"\0" * 8, id="MemoryError"),
])
@pytest.mark.filterwarnings("ignore:Reading `.npy`")  # a header numpy takes for Python 2's
def test_raw_dir_rejects_a_malformed_npy_naming_the_file(tmp_path, name, spoil):
    """np.load parses the header with Python's tokenizer and literal_eval, and
    each case makes it raise the exception its id names."""
    d = _raw_dir(tmp_path)
    path = tmp_path / "raw" / name
    path.write_bytes(spoil(path.read_bytes()))
    with pytest.raises(DatasetError, match="cannot load") as e:
        load_raw_dir(d)
    assert str(e.value).startswith(str(path))


def test_raw_dir_rejects_images_of_a_byte_string_dtype(tmp_path):
    """A changed descr ('<f4' to '|S4') gives byte-string images, on which
    isfinite raises a bare TypeError."""
    d = _raw_dir(tmp_path)
    path = tmp_path / "raw" / "images.npy"
    path.write_bytes(path.read_bytes().replace(b"'<f4'", b"'|S4'"))
    with pytest.raises(DatasetError, match="images must be uint8"):
        load_raw_dir(d)


@pytest.mark.parametrize("at", [-1, None], ids=["inside", "after"])
def test_raw_dir_rejects_a_npy_with_a_byte_added_to_its_data(tmp_path, at):
    """np.load reads the bytes the header asks for and ignores the rest, so a
    byte inserted into the data would load as shifted values."""
    d = _raw_dir(tmp_path)
    path = tmp_path / "raw" / "labels.npy"
    data = path.read_bytes()
    at = len(data) if at is None else len(data) + at
    path.write_bytes(data[:at] + b"\x07" + data[at:])
    with pytest.raises(DatasetError, match="labels.npy: trailing bytes after the array"):
        load_raw_dir(d)


def test_raw_dir_rejects_an_npz_archive(tmp_path):
    d = _raw_dir(tmp_path)
    with open(tmp_path / "raw" / "labels.npy", "wb") as f:
        np.savez(f, labels=np.arange(10))
    with pytest.raises(DatasetError, match="labels.npy: is an .npz archive"):
        load_raw_dir(d)


def test_raw_dir_missing(tmp_path):
    with pytest.raises(DatasetError):
        load_raw_dir(str(tmp_path))


# ---------------------------------------------------------------------------
# CLI dataset specs
# ---------------------------------------------------------------------------

def test_load_dataset_synthetic_spec():
    d = load_dataset("synthetic:64,32", seed=1)
    assert d.n_train == 64 and len(d) == 96


def test_load_dataset_synthetic_default(monkeypatch):
    monkeypatch.setattr(data, "synthetic_shapes", lambda n_train, n_val, seed: (n_train, n_val, seed))
    assert load_dataset("synthetic", seed=3) == (4000, 1500, 3)


@pytest.mark.parametrize("spec", ["synthetic:10", "synthetic:a,b", "synthetic:5,5,5",
                                  "synthetic:", "synthetic:-5,5", "synthetic:5, 5"])
def test_load_dataset_rejects_malformed_synthetic_specs(spec):
    with pytest.raises(DatasetError, match="synthetic:N_TRAIN,N_VAL"):
        load_dataset(spec)


def test_load_dataset_reads_a_directory_named_like_synthetic(tmp_path, monkeypatch, desk_small):
    """Only "synthetic" and "synthetic:N,M" name the bundled set; other names are paths."""
    monkeypatch.chdir(tmp_path)
    save_raw_dir(desk_small, "synthetic_digits")
    d = load_dataset("synthetic_digits")
    assert np.array_equal(d.images, desk_small.images) and d.n_train == desk_small.n_train
    with pytest.raises(DatasetError, match="not a directory"):
        load_dataset("synthetic_missing")


def test_load_dataset_directory_dispatch(tmp_path, desk_small):
    make_idx_dir(tmp_path)
    assert load_dataset(str(tmp_path)).n_train == 12
    raw = tmp_path / "raw"
    save_raw_dir(desk_small, str(raw))
    assert load_dataset(str(raw)).n_train == desk_small.n_train


def test_load_dataset_bad_path():
    with pytest.raises(DatasetError):
        load_dataset("/no/such/dir")
