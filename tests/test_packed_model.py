"""Packed model construction and the MPQ1 container format."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fresh_ranges
from mcuq import packed_model, qat
from mcuq.errors import ModelMismatchError, PackFormatError, PolicyError
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import (
    build_packed_model,
    check_model_matches,
    deserialize,
    load_packed,
    save_packed,
    serialize,
)
from mcuq.quantizer import ActRange


@pytest.fixture()
def toy_model(toy_graph, pretrained, toy_ranges):
    policy = all_uniform_policy(toy_graph)
    policy.weight_bits[3] = 4
    policy.act_bits[2] = 4
    return build_packed_model(toy_graph, pretrained[0], policy, toy_ranges)


def test_build_covers_compute_layers(toy_graph, toy_model):
    assert sorted(toy_model.layers) == [1, 2, 3, 4, 5, 6]
    assert toy_model.graph_layers == len(toy_graph.layers)
    rec = toy_model.layers[3]
    assert rec.weight_bits == 4
    assert rec.weight.scales.shape == (24,)
    assert rec.bias_int.dtype == np.int32
    assert len(rec.requants) == 1


def test_logits_record_is_wide(toy_model):
    fc = toy_model.layers[6]
    assert fc.out_bits == 32
    s_in = toy_model.act_scale(5)
    want = float(np.float32((s_in * fc.weight.scales).max()))
    assert toy_model.logits_scale == want


def test_act_table_matches_policy(toy_graph, toy_model):
    assert sorted(toy_model.act_bits) == toy_graph.encoded_tensors()
    assert toy_model.act_bits[2] == 4
    assert toy_model.act_scale(2) == pytest.approx(toy_model.act_clip[2] / 15)


def test_clips_are_f32_exact(toy_model, toy_ranges):
    for t, clip in toy_model.act_clip.items():
        assert clip == float(np.float32(toy_ranges[t].clip_max))


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


def test_bias_overflow_rejected(toy_graph, pretrained, toy_ranges):
    weights = qat.copy_weights(pretrained[0])
    weights[1]["b"][0] = 1e12  # far beyond int32 at any plausible scale
    with pytest.raises(PackFormatError):
        build_packed_model(toy_graph, weights, all_uniform_policy(toy_graph),
                           toy_ranges)


def test_residual_model_has_two_requants(residual_graph):
    weights = qat.init_weights(residual_graph, seed=2)
    ranges = {t: ActRange(tensor_id=t, clip_max=1.0)
              for t in residual_graph.encoded_tensors()}
    model = build_packed_model(residual_graph, weights,
                               all_uniform_policy(residual_graph), ranges)
    assert len(model.layers[3].requants) == 2


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


def test_check_model_matches(toy_graph, residual_graph, toy_model):
    check_model_matches(toy_graph, toy_model)
    with pytest.raises(ModelMismatchError):
        check_model_matches(residual_graph, toy_model)
    # same element count, but not the conv2d kernel layout of layer 1
    rec = toy_model.layers[1]
    cout = rec.weight.shape[0]
    rec.weight = replace(rec.weight, shape=(cout, rec.weight.numel // cout))
    with pytest.raises(ModelMismatchError, match="weight shape"):
        check_model_matches(toy_graph, toy_model)
