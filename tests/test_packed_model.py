"""Packed model construction and the MPQ1 container format."""

import re
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import oracles
from conftest import fresh_ranges
from mcuq import packed_model, qat
from mcuq.errors import (
    AccumulatorOverflowError,
    McuqError,
    ModelMismatchError,
    PackFormatError,
    PolicyError,
)
from mcuq.graph_ir import LINEAR_KINDS
from mcuq.inference import run_batch_int
from mcuq.memory_model import BIAS_BYTES, all_uniform_policy, rom_footprint
from mcuq.packed_model import (
    INT32_MAX,
    INT32_MIN,
    build_packed_model,
    check_model_matches,
    deserialize,
    load_packed,
    save_packed,
    serialize,
)
from mcuq.quantizer import QuantizedTensor, RequantParams, quantize_act


@pytest.fixture()
def toy_model(toy_graph, pretrained, toy_ranges):
    policy = all_uniform_policy(toy_graph)
    policy.weight_bits[3] = 4
    policy.act_bits[2] = 4
    return build_packed_model(toy_graph, pretrained[0], policy, toy_ranges)


def test_trained_clips_are_the_containers_and_encode_the_training_input(
        toy_graph, desk_small, pretrained, toy_ranges):
    """After a QAT epoch the clips are float32 values, so the packed model
    holds them unchanged, and the engine's input codes, decoded with the
    model's scale, are the training forward's fake-quantized input."""
    weights, ranges = qat.copy_weights(pretrained[0]), fresh_ranges(toy_ranges)
    policy = all_uniform_policy(toy_graph)
    policy.act_bits[0] = 4
    qat.train_qat(toy_graph, weights, policy, ranges, desk_small,
                  qat.TrainConfig(epochs=1, lr=1e-2))
    t = toy_graph.input_layer.id
    assert ranges[t] != toy_ranges[t]
    model = build_packed_model(toy_graph, weights, policy, ranges)
    assert model.act_clip == ranges
    images = desk_small.val[0]
    trained = dict(qat._walk(toy_graph, weights, images, policy, ranges))[t]
    codes = quantize_act(images, model.act_clip[t], policy.act_bits[t])
    assert np.array_equal(trained, codes.astype(np.float32) * model.act_scale(t))


def test_build_covers_compute_layers(toy_graph, toy_model):
    assert sorted(toy_model.layers) == [1, 2, 3, 4, 5, 6]
    assert toy_model.graph_layers == len(toy_graph.layers)
    rec = toy_model.layers[3]
    assert rec.weight_bits == 4
    assert rec.weight.scales.shape == (24,)
    assert rec.bias_int.dtype == np.int32
    assert len(rec.requants) == 1


def test_built_and_loaded_models_cannot_change_in_place(toy_model):
    """A model and its records are immutable, so what the engine proved of one
    cannot go stale: assigning an attribute, writing into an array and filing
    a record or an encoding all raise, on a built model and on a loaded one."""
    for model in (toy_model, deserialize(serialize(toy_model))):
        rec = model.layers[6]
        for owner, name in ((model, "logits_scale"), (rec, "out_bits"), (rec, "bias_int")):
            with pytest.raises(FrozenInstanceError):
                setattr(owner, name, getattr(owner, name))
        for array in (rec.bias_int, rec.weight.scales, rec.requants[0].multiplier,
                      rec.requants[0].shift):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        for table, value in ((model.layers, rec), (model.act_bits, 8), (model.act_clip, 1.0)):
            with pytest.raises(TypeError):
                table[77] = value


def test_a_record_copies_the_arrays_and_tables_it_is_given():
    """Changing what a model or record was built from leaves it unchanged."""
    bias, mult, shift = np.zeros(2, np.int32), np.full(2, 1 << 30, np.int32), np.full(2, 30)
    rec = packed_model.PackedLayer(1, "fully_connected", bias_int=bias,
                                   requants=(RequantParams(mult, shift),))
    layers, act_bits, act_clip = {1: rec}, {0: 8}, {0: 1.0}
    model = packed_model.PackedModel(2, act_bits, act_clip, layers)
    bias[0] = mult[0] = shift[0] = 7
    layers[2], act_bits[1], act_clip[1] = rec, 8, 1.0
    assert rec.bias_int[0] == 0 and rec.requants[0].multiplier[0] == 1 << 30
    assert rec.requants[0].shift[0] == 30
    assert list(model.layers) == [1] and list(model.act_bits) == list(model.act_clip) == [0]


def test_logits_record_is_wide(toy_model):
    fc = toy_model.layers[6]
    assert fc.out_bits == 32
    s_in = toy_model.act_scale(5)
    want = float(np.float32((s_in * fc.weight.scales).max()))
    assert toy_model.logits_scale == want


def test_act_table_matches_policy(toy_graph, toy_model):
    assert tuple(sorted(toy_model.act_bits)) == toy_graph.encoded_tensors()
    assert toy_model.act_bits[2] == 4
    assert toy_model.act_scale(2) == pytest.approx(toy_model.act_clip[2] / 15)
    assert toy_model.act_bits[1] == 8
    assert toy_model.act_scale(1) == pytest.approx(toy_model.act_clip[1] / 255)


def test_clips_are_f32_exact(toy_model, toy_ranges):
    for t, clip in toy_model.act_clip.items():
        assert clip == float(np.float32(toy_ranges[t]))


def test_build_rejects_fp32_policy_entries(toy_graph, pretrained, toy_ranges):
    p = all_uniform_policy(toy_graph)
    p.weight_bits[1] = 32
    with pytest.raises(PolicyError):
        build_packed_model(toy_graph, pretrained[0], p, toy_ranges)
    p = all_uniform_policy(toy_graph)
    p.act_bits[0] = 32
    with pytest.raises(PolicyError):
        build_packed_model(toy_graph, pretrained[0], p, toy_ranges)


def test_build_rejects_missing_range(toy_graph, pretrained, toy_ranges):
    ranges = fresh_ranges(toy_ranges)
    del ranges[3]
    with pytest.raises(PolicyError):
        build_packed_model(toy_graph, pretrained[0],
                           all_uniform_policy(toy_graph), ranges)


# 1e39: inf in float32; 1e-36: its 8-bit scale is below the smallest normal float32
@pytest.mark.parametrize("clip", [np.nan, np.inf, 0.0, -1.0, 1e39, 1e-36])
def test_build_rejects_a_clip_that_is_not_a_positive_float32(toy_graph, pretrained,
                                                             toy_ranges, clip):
    ranges = fresh_ranges(toy_ranges)
    ranges[3] = clip
    with pytest.raises(PolicyError, match="tensor 3: clip"):
        build_packed_model(toy_graph, pretrained[0], all_uniform_policy(toy_graph), ranges)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_weights(toy_graph, pretrained, toy_ranges, bad):
    weights = qat.copy_weights(pretrained[0])
    weights[3]["w"][2, 1, 0, 0] = bad
    with pytest.raises(PackFormatError, match="not finite"):
        build_packed_model(toy_graph, weights, all_uniform_policy(toy_graph), toy_ranges)


def test_bias_overflow_rejected(toy_graph, pretrained, toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    weights[1]["b"][0] = 1e12  # far beyond int32 at any plausible scale
    with pytest.raises(PackFormatError):
        build_packed_model(toy_graph, weights, all_uniform_policy(toy_graph),
                           toy_ranges)


def test_residual_model_has_two_requants(residual_graph):
    weights = qat.init_weights(residual_graph, seed=2)
    ranges = {t: 1.0 for t in residual_graph.encoded_tensors()}
    model = build_packed_model(residual_graph, weights,
                               all_uniform_policy(residual_graph), ranges)
    assert len(model.layers[3].requants) == 2


def _assert_rom_is_the_containers_on_device_bytes(g, policy, seed):
    """Per weighted layer, the ROM the search budgets is the record's packed
    codes, its int32 biases and its per-channel requant, plus BIAS_BYTES for
    each bias the graph counts beyond one per output channel."""
    weights = qat.init_weights(g, seed=seed)
    model = build_packed_model(g, weights, policy, {t: 1.0 for t in g.encoded_tensors()})
    rom = rom_footprint(g, policy).rom_per_layer
    assert rom.keys() == {l.id for l in g.weighted_layers()}
    for layer in g.weighted_layers():
        rec, cout = model.layers[layer.id], layer.out_channels
        requant = sum(rq.multiplier.nbytes + rq.shift.nbytes for rq in rec.requants)
        assert (rec.bias_int.nbytes, requant) == (4 * cout, 8 * cout)
        assert rom[layer.id] == (len(rec.weight.packed) + 4 * cout + 8 * cout
                                 + (layer.bias_count - cout) * BIAS_BYTES)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_rom_is_the_containers_on_device_bytes_on_the_fixtures(
        toy_graph, residual_graph, mobilenet_graph, bits):
    for g in (toy_graph, residual_graph, mobilenet_graph):
        _assert_rom_is_the_containers_on_device_bytes(g, all_uniform_policy(g, bits), bits)


def test_rom_is_the_containers_on_device_bytes_on_random_graphs():
    rng = np.random.default_rng(59)
    for i in range(40):
        g = oracles.random_graph(rng)
        _assert_rom_is_the_containers_on_device_bytes(
            g, oracles.random_policy(rng, g, allow_fp32=False), i)


# ---------------------------------------------------------------------------
# Container format
# ---------------------------------------------------------------------------

def test_serialize_roundtrip(toy_model):
    blob = serialize(toy_model)
    assert blob[:4] == b"MPQ1"
    back = deserialize(blob)
    assert back.graph_layers == toy_model.graph_layers
    assert back.act_bits == toy_model.act_bits
    assert back.act_clip == toy_model.act_clip
    assert back.logits_scale == toy_model.logits_scale
    assert sorted(back.layers) == sorted(toy_model.layers)
    for lid, rec in toy_model.layers.items():
        brec = back.layers[lid]
        assert brec.kind == rec.kind
        assert brec.out_bits == rec.out_bits
        assert brec.weight_bits == rec.weight_bits
        if rec.weight is not None:
            assert brec.weight.packed == rec.weight.packed
            assert np.array_equal(brec.weight.scales, rec.weight.scales)
            assert np.array_equal(brec.bias_int, rec.bias_int)
        for a, b in zip(rec.requants, brec.requants):
            assert np.array_equal(a.multiplier, b.multiplier)
            assert np.array_equal(a.shift, b.shift)
    # serialization is canonical: a second pass is byte-identical
    assert serialize(back) == blob


def test_save_load_file(tmp_path, toy_model):
    path = str(tmp_path / "m.mpq")
    save_packed(toy_model, path)
    back = load_packed(path)
    assert serialize(back) == serialize(toy_model)


def test_kind_codes_are_pinned(toy_model):
    assert packed_model._KIND_CODE == {
        "conv2d": 0, "depthwise_conv2d": 1, "pointwise_conv2d": 2, "fully_connected": 3,
        "add_residual": 4, "avg_pool": 5, "relu_clip": 6, "input": 7, "output": 8,
    }
    # the first record (layer 1, the toy's conv2d) carries its code in the file
    blob = serialize(toy_model)
    first = 4 + 4 + 4 + 4 + 4 + 9 * len(toy_model.act_bits) + 4
    assert blob[first:first + 5] == bytes([1, 0, 0, 0, 0])


def test_deserialize_rejects_bad_magic(toy_model):
    blob = bytearray(serialize(toy_model))
    blob[:4] = b"NOPE"
    with pytest.raises(PackFormatError):
        deserialize(bytes(blob))


def test_deserialize_rejects_bad_version(toy_model):
    blob = bytearray(serialize(toy_model))
    blob[4] = 42
    with pytest.raises(PackFormatError):
        deserialize(bytes(blob))


def test_deserialize_rejects_truncation(toy_model):
    blob = serialize(toy_model)
    for cut in (6, len(blob) // 2, len(blob) - 3):
        with pytest.raises(PackFormatError):
            deserialize(blob[:cut])


def _set(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """blob, a file's bytes before its trailer, with value packed at offset."""
    b = bytearray(blob)
    struct.pack_into(fmt, b, offset, value)
    return bytes(b)


def _with(model, lid: int, **changes):
    """A copy of model whose record of layer lid takes changes (models are immutable)."""
    return replace(model, layers={**model.layers, lid: replace(model.layers[lid], **changes)})


def _set_at(a: np.ndarray, i: int, value) -> np.ndarray:
    """A copy of array a with value at index i."""
    a = a.copy()
    a[i] = value
    return a


def _last_payload_len(model) -> int:
    return len(model.layers[max(model.layers)].weight.packed)


@pytest.mark.parametrize("spoil, match", [
    (lambda b, m: _set(b, 24, "<B", 3), "activation bits"),        # first act entry
    (lambda b, m: _set(b, 25, "<f", float("nan")), "clip"),
    (lambda b, m: _set(b, 25, "<f", float("inf")), "clip"),
    (lambda b, m: _set(b, 25, "<f", 0.0), "clip"),
    # a normal float32 whose 8-bit scale is not
    (lambda b, m: _set(b, 25, "<f", 1e-37), "8-bit scale"),
    # the last record's payload, one byte longer or shorter than its codes
    (lambda b, m: _set(b, len(b) - _last_payload_len(m) - 8, "<Q",
                       _last_payload_len(m) + 1) + b"\0", "payload"),
    (lambda b, m: _set(b, len(b) - _last_payload_len(m) - 8, "<Q",
                       _last_payload_len(m) - 1)[:-1], "payload"),
], ids=["act_bits", "nan_clip", "inf_clip", "zero_clip", "sub_normal_scale_clip",
        "long_payload", "short_payload"])
def test_deserialize_checks_contents(toy_model, spoil, match):
    blob = serialize(toy_model)[:-4]
    with pytest.raises(PackFormatError, match=match):
        deserialize(oracles.seal(spoil(blob, toy_model)))


@pytest.mark.parametrize("field, value, match", [
    ("scales", np.full(4, np.nan), "scales"),
    ("scales", np.zeros(4), "scales"),
    ("requants", (RequantParams(np.full(4, 1 << 30), np.full(4, 63)),), "shift"),
    ("requants", (RequantParams(np.full(4, -1), np.full(4, 30)),), "multiplier"),
])
def test_deserialize_checks_weight_scales_and_requants(toy_model, field, value, match):
    rec = toy_model.layers[1]  # conv2d with 4 output channels
    if field == "scales":
        model = _with(toy_model, 1, weight=replace(rec.weight, scales=value))
    else:
        model = _with(toy_model, 1, requants=value)
    with pytest.raises(PackFormatError, match=match):
        deserialize(serialize(model))


@pytest.mark.parametrize("rank", [5, 65])
def test_deserialize_rejects_a_weight_rank_no_writer_stores(toy_model, rank):
    """A record of rank 65 with a zero dimension has a 0-byte payload, but numpy
    cannot reshape to it and would raise a bare ValueError. No writer stores rank 5."""
    rec = toy_model.layers[1]
    model = _with(toy_model, 1, weight=replace(rec.weight, shape=(0,), scales=np.zeros(0),
                                               packed=b""), bias_int=np.zeros(0, dtype=np.int32))
    blob = serialize(model)[:-4]
    at = 24 + 9 * len(toy_model.act_bits) + 7  # the rank byte of the first record, layer 1's
    assert blob[at:at + 5] == struct.pack("<BI", 1, 0)
    blob = blob[:at] + struct.pack(f"<B{rank}I", rank, 0, *[1] * (rank - 1)) + blob[at + 5:]
    with pytest.raises(PackFormatError, match=f"layer 1: weight has rank {rank}, more than 4"):
        deserialize(oracles.seal(blob))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -3.0])
def test_deserialize_rejects_a_logits_scale_not_finite_and_nonnegative(toy_model, value):
    with pytest.raises(PackFormatError, match=f"logits scale {value}"):
        deserialize(oracles.seal(_set(serialize(toy_model)[:-4], 12, "<f", value)))


def test_deserialize_rejects_a_tensor_encoding_written_twice(toy_model):
    """Without the check the last copy wins. The act table starts at byte 20,
    9 bytes an entry."""
    blob = serialize(toy_model)[:-4]
    n = len(toy_model.act_bits)
    blob = _set(blob, 16, "<I", n + 1)
    blob = blob[:20 + 9 * n] + blob[20:29] + blob[20 + 9 * n:]
    with pytest.raises(PackFormatError, match="tensor 0: encoding written twice"):
        deserialize(oracles.seal(blob))


def test_deserialize_rejects_a_layer_record_written_twice(toy_model):
    """serialize writes each record's own layer id, so a record filed under a
    second key is written twice. Without the check the last copy wins."""
    model = replace(toy_model, layers={**toy_model.layers, 77: replace(toy_model.layers[5])})
    with pytest.raises(PackFormatError, match="layer 5: record written twice"):
        deserialize(serialize(model))


@pytest.mark.parametrize("spoil, match", [
    (lambda m: replace(m, act_bits={**m.act_bits, 99: 8}, act_clip={**m.act_clip, 99: 1.0}),
     r"encodings for tensors \[99\]"),
    (lambda m: replace(m, layers={**m.layers, 77: replace(m.layers[5], layer_id=77)}),
     r"records for layers \[77\]"),
], ids=["tensor_99", "layer_77"])
def test_a_model_with_ids_its_graph_lacks_is_a_mismatch(toy_graph, toy_model, spoil, match):
    """Both load from a file, and without the check they run."""
    model = deserialize(serialize(spoil(toy_model)))
    with pytest.raises(ModelMismatchError, match=match):
        check_model_matches(toy_graph, model)


@pytest.mark.parametrize("how", list(oracles.HEADER_SPOILS))
def test_container_header_and_trailer_are_checked(toy_model, how):
    with pytest.raises(PackFormatError, match=oracles.HEADER_SPOILS[how]):
        deserialize(oracles.spoil_header(serialize(toy_model), how))


def test_load_packed_of_a_file_that_cannot_be_read_raises_naming_it(tmp_path):
    path = str(tmp_path / "missing.mpq")
    with pytest.raises(PackFormatError, match=f"cannot read {re.escape(path)}: "):
        load_packed(path)


@pytest.mark.parametrize("how", ["truncated", *oracles.HEADER_SPOILS])
def test_load_packed_names_the_file_in_a_format_error(toy_model, tmp_path, how):
    path, data = tmp_path / "m.mpq", serialize(toy_model)
    says = {"truncated": "truncated packed-model file", **oracles.HEADER_SPOILS}[how]
    path.write_bytes(data[:40] if how == "truncated" else oracles.spoil_header(data, how))
    with pytest.raises(PackFormatError, match=f"^{re.escape(str(path))}: .*{says}"):
        load_packed(str(path))


def test_corrupted_models_load_and_run_or_raise_mcuq_error(residual_graph):
    """Seeded random corruptions: 1-3 bytes, a fifth also truncated, each file
    re-sealed so that its contents are checked."""
    weights = qat.init_weights(residual_graph, seed=5)
    ranges = {t: 1.5 for t in residual_graph.encoded_tensors()}
    blob = serialize(build_packed_model(residual_graph, weights,
                                        all_uniform_policy(residual_graph), ranges))[:-4]
    rng = np.random.default_rng(31)
    images = rng.uniform(0, 1.5, size=(2, 3, 8, 8)).astype(np.float32)
    loaded = 0
    for _ in range(3000):
        bad = bytearray(blob)
        for _ in range(rng.integers(1, 4)):
            bad[rng.integers(len(bad))] = rng.integers(256)
        if rng.random() < 0.2:
            bad = bad[:rng.integers(len(bad))]
        try:
            run_batch_int(residual_graph, deserialize(oracles.seal(bytes(bad))), images)
            loaded += 1
        except McuqError:
            pass
    assert 0 < loaded < 3000


def test_check_model_matches(toy_graph, residual_graph, toy_model):
    check_model_matches(toy_graph, toy_model)
    with pytest.raises(ModelMismatchError):
        check_model_matches(residual_graph, toy_model)
    # same element count, but not the conv2d kernel layout of layer 1
    rec = toy_model.layers[1]
    cout = rec.weight.shape[0]
    model = _with(toy_model, 1, weight=replace(rec.weight, shape=(cout, rec.weight.numel // cout)))
    with pytest.raises(ModelMismatchError, match="weight shape"):
        check_model_matches(toy_graph, model)


@pytest.mark.parametrize("spoil, match", [
    (lambda m: _with(m, 2, out_bits=32), "output width"),
    (lambda m: _with(m, 6, out_bits=8), "output width"),
    (lambda m: _with(m, 2, requants=()), "requants"),
    (lambda m: _with(m, 1, requants=m.layers[1].requants * 2), "requants"),
    (lambda m: _with(m, 1, requants=(RequantParams(np.ones(3, np.int32), np.ones(3, np.int32)),)),
     "requants"),
], ids=["encoded_as_wide", "logits_as_8bit", "no_requant", "two_requants", "three_channels"])
def test_check_model_matches_record_arithmetic(toy_graph, toy_model, spoil, match):
    with pytest.raises(ModelMismatchError, match=match):
        check_model_matches(toy_graph, spoil(toy_model))


def _positive_channel(rec) -> int:
    """The first output channel of a weighted record with a positive weight code."""
    rows = rec.weight.codes().reshape(len(rec.bias_int), -1)
    return int(np.flatnonzero((rows > 0).any(axis=1))[0])


def test_build_refuses_a_bias_whose_accumulator_could_overflow_int32(toy_graph, pretrained,
                                                                     toy_ranges):
    """A float bias that rounds to a valid int32 bias_int, 2**31 - 2, on a
    channel whose positive weight codes take its accumulator past 2**31 - 1
    on 8-bit inputs: the writer refuses the model, naming layer and channel."""
    weights, policy = qat.copy_weights(pretrained[0]), all_uniform_policy(toy_graph)
    model = build_packed_model(toy_graph, weights, policy, toy_ranges)
    rec, c = model.layers[6], _positive_channel(model.layers[6])
    s_in = model.act_scale(toy_graph.layer(6).input_ids[0])
    weights[6]["b"] = weights[6]["b"].astype(np.float64)
    weights[6]["b"][c] = (INT32_MAX - 1) * (s_in * rec.weight.scales[c])
    assert packed_model._bias_int(weights[6]["b"], s_in * rec.weight.scales)[c] == INT32_MAX - 1
    with pytest.raises(AccumulatorOverflowError, match=f"layer 6 channel {c}: "):
        build_packed_model(toy_graph, weights, policy, toy_ranges)


def test_a_stored_bias_that_could_overflow_int32_is_refused_at_load(toy_graph, toy_model):
    """2**31 - 1 in the stored bias of a channel with a positive weight code:
    the file loads, and check_model_matches refuses it, naming the layer and
    the channel, before any input runs."""
    rec = toy_model.layers[6]
    c = _positive_channel(rec)
    model = _with(toy_model, 6, bias_int=_set_at(rec.bias_int, c, INT32_MAX))
    model = deserialize(serialize(model))
    with pytest.raises(AccumulatorOverflowError, match=rf"layer 6 channel {c}: accumulator "
                                                       r"range \[-?\d+, \d+\] leaves int32"):
        check_model_matches(toy_graph, model)


def test_accumulator_proof_matches_the_oracle_on_random_graphs():
    """200 seeded random graphs under random sub-byte policies with random
    biases: check_model_matches's dtypes are the float32/float64 split of
    oracles.ref_acc_range. A weighted layer's channel whose bias puts its
    range's top at INT32_MAX, or its bottom at INT32_MIN, is accepted; one
    further is refused."""
    rng = np.random.default_rng(26)
    for i in range(200):
        g = oracles.random_graph(rng)
        weights = qat.init_weights(g, seed=i)
        for entry in weights.values():
            entry["b"] = rng.normal(0.0, 0.1, size=entry["b"].shape).astype(np.float32)
        model = build_packed_model(g, weights, oracles.random_policy(rng, g, allow_fp32=False),
                                   {t: 1.5 for t in g.encoded_tensors()})
        in_max = {l.id: (1 << model.act_bits[l.input_ids[0]]) - 1
                  for l in g.layers if l.kind in LINEAR_KINDS}
        peaks = {lid: max(p for *_, p in oracles.ref_acc_range(g.layer(lid), model.layers[lid], m))
                 for lid, m in in_max.items()}
        assert check_model_matches(g, model) == {
            lid: np.float32 if p < 2 ** 24 else np.float64 for lid, p in peaks.items()}, i
        if not g.weighted_layers():
            continue
        layer = g.weighted_layers()[int(rng.integers(len(g.weighted_layers())))]
        rec = model.layers[layer.id]
        bias = rec.bias_int
        free = oracles.ref_acc_range(layer, replace(rec, bias_int=np.zeros_like(bias)),
                                     in_max[layer.id])
        for side, edge, step in ((1, INT32_MAX, 1), (0, INT32_MIN, -1)):
            c = max(range(len(free)), key=lambda k: abs(free[k][side]))
            if free[c][side] == 0:  # no code of that sign: one further does not fit int32
                continue
            for extra in (0, step):
                edged = _with(model, layer.id,
                              bias_int=_set_at(bias, c, edge - free[c][side] + extra))
                if extra:
                    with pytest.raises(AccumulatorOverflowError,
                                       match=f"layer {layer.id} channel {c}: "):
                        check_model_matches(g, edged)
                else:
                    check_model_matches(g, edged)


# a 1-element 8-bit weight tensor with its 1-byte payload
_STRAY_WEIGHT = QuantizedTensor(bits=8, packed=b"\x01", shape=(1,), scales=np.ones(1))


@pytest.mark.parametrize("weight, weight_bits, through_file", [
    (None, 8, True),
    (_STRAY_WEIGHT, 8, True),
    (_STRAY_WEIGHT, 0, False),  # a file cannot hold it: its payload needs 8 bits
], ids=["weight_bits", "stray_weight", "stray_weight_in_memory"])
def test_weight_free_record_carrying_weights_is_a_mismatch(toy_graph, toy_model, weight,
                                                           weight_bits, through_file):
    """A container whose avg_pool record has weight bits or a weight tensor
    loads, but does not match the graph."""
    assert toy_model.layers[5].kind == "avg_pool"
    bias = None if weight is None else np.zeros(1, dtype=np.int32)
    model = _with(toy_model, 5, weight=weight, weight_bits=weight_bits, bias_int=bias)
    model = deserialize(serialize(model)) if through_file else model
    with pytest.raises(ModelMismatchError, match="layer 5: the avg_pool record"):
        check_model_matches(toy_graph, model)
