"""Seeded corruption of the binary inputs: checkpoint, container, IDX files
(plain and .gz) and a raw directory's two .npy files.

Each case flips one bit of a valid file, truncates it, inserts one byte or
repeats one of its entries with the count that precedes it bumped. Loading the
result must either raise that input's McuqError subclass, or give a value that
passes its own validation and writes back to an equal value. Any other
exception fails the case. The fuzz_* functions return how many cases loaded:
flipped values that a format without a checksum cannot tell from written
ones (a .gz file's CRC32 guards its content, so its loads hold the written
values).
"""

import gzip
import io
import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest

import oracles
from mcuq import qat
from mcuq.data import Dataset, load_idx_dir, load_raw_dir, save_raw_dir
from mcuq.errors import AccumulatorOverflowError, DatasetError, ModelMismatchError, PackFormatError
from mcuq.inference import run_batch_int
from mcuq.packed_model import build_packed_model, check_model_matches, deserialize, serialize

CASES = 800  # per input; the slowest, the raw directory's, take about 0.55 s


def mutants(data: bytes, seed: int, cases: int = CASES, repeat=None):
    """cases mutants of data in turn: a bit flip, a truncation, a one-byte
    insertion and, when repeat is given, repeat(data, rng)."""
    rng = random.Random(seed)
    kinds = 3 if repeat is None else 4
    for i in range(cases):
        if i % kinds == 0:
            b = bytearray(data)
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
            yield bytes(b)
        elif i % kinds == 1:
            yield data[:rng.randrange(len(data))]
        elif i % kinds == 2:
            at = rng.randrange(len(data) + 1)
            yield data[:at] + bytes([rng.randrange(256)]) + data[at:]
        else:
            yield repeat(data, rng)


def repeat_entry(entries: list[tuple[int, int, int]], fmt: str):
    """A repeat for mutants: one of entries, (count offset, start, end), copied
    after itself, with the count at its offset, packed as fmt, bumped by one."""
    def repeat(data: bytes, rng: random.Random) -> bytes:
        at, start, end = rng.choice(entries)
        out = bytearray(data[:end] + data[start:end] + data[end:])
        struct.pack_into(fmt, out, at, struct.unpack_from(fmt, data, at)[0] + 1)
        return bytes(out)
    return repeat


def test_mutants_cover_every_kind():
    data = bytes(range(2, 12))
    cases = list(mutants(data, 0, 40, repeat_entry([(0, 4, 6)], "<B")))
    assert all(len(c) == 10 and sum(x != y for x, y in zip(c, data)) == 1 for c in cases[::4])
    assert all(len(c) < 10 for c in cases[1::4]) and all(len(c) == 11 for c in cases[2::4])
    assert set(cases[3::4]) == {bytes([3, 3, 4, 5, 6, 7, 6, 7, 8, 9, 10, 11])}


# ---------------------------------------------------------------------------
# Checkpoint (MQC1)
# ---------------------------------------------------------------------------

def _checkpoint_entries(data: bytes) -> list[tuple[int, int, int]]:
    """(count offset, start, end) of each entry of a checkpoint."""
    (count,) = struct.unpack_from("<I", data, 8)
    spans, pos = [], 12
    for _ in range(count):
        at = pos + 2 + struct.unpack_from("<H", data, pos)[0]
        dims = struct.unpack_from(f"<{data[at]}I", data, at + 1)
        end = at + 1 + 4 * len(dims) + 4 * math.prod(dims)
        spans.append((8, pos, end))
        pos = end
    return spans


def fuzz_checkpoint(tmp_path, g) -> int:
    path, back = tmp_path / "w.ckpt", str(tmp_path / "back.ckpt")
    qat.save_checkpoint(str(path), qat.init_weights(g, seed=5),
                        {t: 1.5 for t in g.encoded_tensors()})
    data = path.read_bytes()
    loaded = 0
    for bad in mutants(data, 1, repeat=repeat_entry(_checkpoint_entries(data), "<I")):
        path.write_bytes(bad)
        try:
            weights, ranges = qat.load_checkpoint(str(path))
            qat.check_checkpoint_matches(g, weights, ranges)
        except (PackFormatError, ModelMismatchError):
            continue
        loaded += 1
        qat.save_checkpoint(back, weights, ranges)
        weights2, ranges2 = qat.load_checkpoint(back)
        assert ranges2 == ranges and weights2.keys() == weights.keys()
        for lid, entry in weights.items():
            assert all(np.array_equal(weights2[lid][k], v) for k, v in entry.items())
    return loaded


def test_checkpoint(tmp_path, residual_graph):
    assert fuzz_checkpoint(tmp_path, residual_graph)


# ---------------------------------------------------------------------------
# Container (MPQ1)
# ---------------------------------------------------------------------------

def _container_entries(model) -> list[tuple[int, int, int]]:
    """(count offset, start, end) of each act-table entry and each record of
    serialize(model). Records are written in id order, so record k ends where
    a file of the first k + 1 records ends."""
    n_act = len(model.act_bits)
    spans = [(16, 20 + 9 * i, 29 + 9 * i) for i in range(n_act)]
    ids = sorted(model.layers)
    ends = [len(serialize(replace(model, layers={lid: model.layers[lid] for lid in ids[:k]})))
            for k in range(len(ids) + 1)]
    return spans + [(20 + 9 * n_act, a, b) for a, b in zip(ends, ends[1:])]


def fuzz_container(g) -> int:
    weights = qat.init_weights(g, seed=5)
    model = build_packed_model(g, weights, oracles.random_policy(
        np.random.default_rng(7), g, allow_fp32=False), {t: 1.5 for t in g.encoded_tensors()})
    data = serialize(model)
    images = np.random.default_rng(31).uniform(0, 1.5, size=(2,) + g.input_layer.output_shape)
    loaded = 0
    for bad in mutants(data, 2, repeat=repeat_entry(_container_entries(model), "<I")):
        try:
            m = deserialize(bad)
            check_model_matches(g, m)
            run_batch_int(g, m, images.astype(np.float32))
        except (PackFormatError, ModelMismatchError, AccumulatorOverflowError):
            continue
        loaded += 1
        assert serialize(deserialize(serialize(m))) == serialize(m)
    return loaded


def test_container(residual_graph):
    assert fuzz_container(residual_graph)


def test_container_entries_are_the_files_entries(residual_graph):
    model = build_packed_model(residual_graph, qat.init_weights(residual_graph),
                               oracles.random_policy(np.random.default_rng(7), residual_graph,
                                                     allow_fp32=False),
                               {t: 1.5 for t in residual_graph.encoded_tensors()})
    data, spans = serialize(model), _container_entries(model)
    assert len(spans) == len(model.act_bits) + len(model.layers)
    assert spans[-1][2] == len(data)
    assert [struct.unpack_from("<I", data, b)[0] for _, b, _ in spans[len(model.act_bits):]] \
        == sorted(model.layers)


# ---------------------------------------------------------------------------
# Datasets: IDX files and a raw directory's .npy files
# ---------------------------------------------------------------------------

def _same_dataset(a: Dataset, b: Dataset) -> bool:
    return (a.n_train == b.n_train and np.array_equal(a.images, b.images)
            and np.array_equal(a.labels, b.labels))


def _written_back(d: Dataset, dirname: str) -> Dataset:
    save_raw_dir(d, dirname)
    return load_raw_dir(dirname)


_IDX_FILES = {  # stem: array
    "train-images-idx3-ubyte": np.arange(8 * 3 * 3).reshape(8, 3, 3) * 3 % 256,
    "train-labels-idx1-ubyte": np.arange(8) % 3,
    "t10k-images-idx3-ubyte": np.arange(4 * 3 * 3).reshape(4, 3, 3) * 7 % 256,
    "t10k-labels-idx1-ubyte": np.arange(4) % 3,
}


def _idx_bytes(arr: np.ndarray) -> bytes:
    arr = arr.astype(np.uint8)
    return struct.pack(f">I{arr.ndim}I", 0x0800 | arr.ndim, *arr.shape) + arr.tobytes()


def fuzz_idx(tmp_path, gz: bool) -> int:
    """Each case spoils one of the four files. A .gz file's mutants are of the
    compressed stream, so they do not repeat entries."""
    suffix = ".gz" if gz else ""
    valid = {}
    for stem, arr in _IDX_FILES.items():
        data, head, size = _idx_bytes(arr), 4 + 4 * arr.ndim, arr[0].size
        repeat = repeat_entry([(4, head + i * size, head + (i + 1) * size)
                               for i in range(len(arr))], ">I")
        valid[stem + suffix] = (gzip.compress(data, mtime=0), None) if gz else (data, repeat)
    for name, (data, _) in valid.items():
        (tmp_path / name).write_bytes(data)
    loaded = 0
    for k, (name, (data, repeat)) in enumerate(valid.items()):
        for bad in mutants(data, 3 + k, CASES // len(valid), repeat):
            (tmp_path / name).write_bytes(bad)
            try:
                d = load_idx_dir(str(tmp_path))
            except DatasetError:
                continue
            loaded += 1
            assert _same_dataset(_written_back(d, str(tmp_path / "back")), d)
        (tmp_path / name).write_bytes(data)
    return loaded


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
def test_idx_dir(tmp_path, gz):
    assert fuzz_idx(tmp_path, gz)


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def fuzz_raw_dir(tmp_path) -> int:
    """Each case spoils images.npy or labels.npy; a repeat is a valid file of
    one more row, its first dimension bumped."""
    raw = tmp_path / "raw"
    save_raw_dir(Dataset(images=np.linspace(0, 1, 10 * 4, dtype=np.float32).reshape(10, 1, 2, 2),
                         labels=np.arange(10) % 3, n_train=8), str(raw))
    loaded = 0
    for k, name in enumerate(("images.npy", "labels.npy")):
        arr = np.load(raw / name)
        data = raw.joinpath(name).read_bytes()

        def repeat(_, rng, arr=arr):
            i = rng.randrange(len(arr))
            return _npy_bytes(np.insert(arr, i, arr[i], axis=0))

        for bad in mutants(data, 5 + k, CASES // 2, repeat):
            (raw / name).write_bytes(bad)
            try:
                d = load_raw_dir(str(raw))
            except DatasetError:
                continue
            loaded += 1
            assert _same_dataset(_written_back(d, str(tmp_path / "back")), d)
        (raw / name).write_bytes(data)
    return loaded


@pytest.mark.filterwarnings("ignore:Reading `.npy`")  # a header numpy takes for Python 2's
def test_raw_dir(tmp_path):
    assert fuzz_raw_dir(tmp_path)
