"""Graph IR: fixture anchors, validation, topological order, liveness."""

import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from mcuq import graph_ir, qat, search
from mcuq.errors import GraphValidationError
from mcuq.graph_ir import (
    ALL_KINDS,
    WEIGHTED_KINDS,
    NetworkGraph,
    liveness,
    load_graph,
    save_graph,
    topo_order,
)


def replace_layer(g, layer_id, **kw):
    layers = tuple(
        dataclasses.replace(l, **kw) if l.id == layer_id else l for l in g.layers
    )
    return NetworkGraph(layers=layers, resolution=g.resolution,
                        width_multiplier=g.width_multiplier)


# ---------------------------------------------------------------------------
# Fixture anchors
# ---------------------------------------------------------------------------

def test_toy_fixture_shape(toy_graph):
    assert len(toy_graph.layers) == 8
    assert [l.kind for l in toy_graph.layers] == [
        "input", "conv2d", "conv2d", "conv2d", "conv2d",
        "avg_pool", "fully_connected", "output",
    ]
    assert sum(l.param_count for l in toy_graph.weighted_layers()) == 11300
    assert toy_graph.layer(4).output_shape == (32, 4, 4)
    assert toy_graph.layer(6).in_channels == 32
    assert toy_graph.layer(6).out_numel == 10


def test_mobilenet_fixture_counts(mobilenet_graph):
    g = mobilenet_graph
    assert len(g.layers) == 31
    assert g.resolution == 224
    assert sum(l.param_count for l in g.weighted_layers()) == 4209088
    assert sum(l.bias_count for l in g.weighted_layers()) == 33832
    kinds = {l.kind for l in g.layers}
    assert "depthwise_conv2d" in kinds and "pointwise_conv2d" in kinds


def test_weight_shape_holds_each_weighted_layers_parameters(toy_graph, residual_graph,
                                                             mobilenet_graph):
    """A weighted layer's kernel holds its param_count; every other kind has none."""
    for l in toy_graph.layers + residual_graph.layers + mobilenet_graph.layers:
        if l.kind in WEIGHTED_KINDS:
            assert l.weight_shape[0] == l.out_channels
            assert math.prod(l.weight_shape) == l.param_count
        else:
            assert l.weight_shape == ()


def test_residual_fixture_tensor_sets(residual_graph):
    g = residual_graph
    assert g.encoded_tensors() == (0, 1, 2, 3, 4, 5)
    assert g.decidable_act_tensors() == [0, 1, 2, 4, 5]
    assert g.residual_tensors() == {1, 2, 3}
    assert [l.id for l in g.consumers(1)] == [2, 3]


def test_toy_tensor_sets(toy_graph):
    assert toy_graph.encoded_tensors() == (0, 1, 2, 3, 4, 5)
    assert toy_graph.decidable_act_tensors() == [0, 1, 2, 3, 4, 5]
    assert toy_graph.residual_tensors() == set()
    # tensor 6 feeds only the output head, so it never gets an encoding
    assert 6 not in toy_graph.encoded_tensors()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_duplicate_id_rejected(toy_graph):
    bad = tuple(toy_graph.layers[:-1]) + (
        dataclasses.replace(toy_graph.layers[-1], id=0),
    )
    with pytest.raises(GraphValidationError):
        NetworkGraph(layers=bad, resolution=28, width_multiplier=1.0)


def test_a_replaced_graph_is_checked_again(toy_graph):
    """dataclasses.replace builds a new graph, so the checks run on it too."""
    with pytest.raises(GraphValidationError, match="exactly one input and one output"):
        dataclasses.replace(toy_graph, layers=toy_graph.layers[:-1])


@pytest.mark.parametrize("lid", [-1, 1 << 32])
def test_an_id_outside_u32_rejected(toy_graph, lid):
    """The checkpoint and the container store ids as u32; struct.pack would
    raise only when a file is written."""
    bad = tuple(toy_graph.layers[:-1]) + (dataclasses.replace(toy_graph.layers[-1], id=lid),)
    with pytest.raises(GraphValidationError, match=rf"layer {lid}: id is outside \[0, 2\^32 - 1\]"):
        NetworkGraph(layers=bad, resolution=28, width_multiplier=1.0)


def _relu_clip_on(g, lid, src):
    shape = g.layer(src).output_shape
    return graph_ir.LayerSpec(id=lid, kind="relu_clip", input_ids=(src,), out_channels=shape[0],
                              kernel_h=0, kernel_w=0, stride=1, padding=0, input_shape=shape,
                              output_shape=shape, param_count=0, bias_count=0)


@pytest.mark.parametrize("branches, dead", [({8: 2}, "[8]"), ({8: 2, 9: 0}, "[8, 9]")])
def test_a_dead_layer_rejected(toy_graph, branches, dead):
    """A non-output layer that no layer consumes would be taken for the logits
    (its scale written as the container's logits_scale) and held to the end of
    the walk, past its span."""
    extra = tuple(_relu_clip_on(toy_graph, lid, src) for lid, src in branches.items())
    with pytest.raises(GraphValidationError, match=re.escape(f"layers {dead} are dead")):
        NetworkGraph(layers=toy_graph.layers + extra, resolution=28, width_multiplier=1.0)


def test_unknown_kind_rejected(toy_graph):
    with pytest.raises(GraphValidationError):
        replace_layer(toy_graph, 3, kind="maxpool")


def test_dangling_input_rejected(toy_graph):
    with pytest.raises(GraphValidationError):
        replace_layer(toy_graph, 3, input_ids=(99,))


def test_param_count_mismatch_rejected(toy_graph):
    with pytest.raises(GraphValidationError):
        replace_layer(toy_graph, 3, param_count=999)


def test_output_shape_mismatch_rejected(toy_graph):
    with pytest.raises(GraphValidationError):
        replace_layer(toy_graph, 2, output_shape=(16, 9, 9))


def test_residual_shape_mismatch_rejected(residual_graph):
    # make branch 1 wider than branch 2 at the add
    with pytest.raises(GraphValidationError):
        replace_layer(residual_graph, 3, input_ids=(2, 0))


def test_cycle_rejected(residual_graph):
    # 2 -> 3 -> 2 with agreeing shapes, so only topology can catch it
    with pytest.raises(GraphValidationError):
        replace_layer(residual_graph, 2, input_ids=(3,))


def test_error_carries_layer_id(toy_graph):
    with pytest.raises(GraphValidationError) as ei:
        replace_layer(toy_graph, 3, param_count=999)
    assert "layer 3" in str(ei.value)


@pytest.mark.parametrize("lid, fields, says", [
    (0, {"out_channels": 0}, "out_channels 0 != output_shape (1, 28, 28)"),
    (7, {"out_channels": 9}, "out_channels 9 != output_shape (10, 1, 1)"),
    (6, {"kernel_h": 70}, "fully_connected takes no kernel, stride or padding"),
    (7, {"padding": 4}, "output takes no kernel, stride or padding"),
    (0, {"stride": 2}, "input takes no kernel, stride or padding"),
])
def test_fields_a_kind_does_not_use_keep_their_defaults(toy_graph, lid, fields, says):
    """A file could set them to anything and load: the engines never read them."""
    with pytest.raises(GraphValidationError, match=re.escape(f"layer {lid}: {says}")):
        replace_layer(toy_graph, lid, **fields)


@pytest.mark.parametrize("graph, lid, fields, says", [
    ("toy_graph", 3, {"input_ids": (2, 2)}, "conv2d expects 1 inputs, got 2"),
    ("toy_graph", 6, {"input_ids": (7,)}, "input id 7 is an output layer"),
    ("toy_graph", 3, {"input_shape": (16, 8, 8)},
     "input_shape (16, 8, 8) != producer output (16, 7, 7)"),
    ("mobilenet_graph", 2, {"out_channels": 16, "output_shape": (16, 112, 112)},
     "depthwise out_channels must equal in_channels"),
    ("toy_graph", 5, {"out_channels": 16, "output_shape": (16, 1, 1)},
     "avg_pool cannot change channel count"),
    ("toy_graph", 6, {"output_shape": (10, 2, 1)}, "fully_connected output_shape must be (out,1,1)"),
    ("residual_graph", 3, {"output_shape": (8, 8, 4)}, "residual output_shape must match inputs"),
    ("residual_graph", 4, {"output_shape": (8, 4, 8)}, "relu_clip must preserve shape"),
    ("toy_graph", 7, {"output_shape": (10, 2, 1)}, "output must preserve shape"),
], ids=["input_count", "output_as_input", "input_shape", "depthwise_channels",
        "pool_channels", "fc_output", "residual_output", "relu_clip_shape", "output_shape"])
def test_a_layer_that_breaks_a_rule_of_its_kind_rejected(request, graph, lid, fields, says):
    with pytest.raises(GraphValidationError, match=re.escape(f"layer {lid}: {says}")):
        replace_layer(request.getfixturevalue(graph), lid, **fields)


@pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d", "pointwise_conv2d", "avg_pool"])
@pytest.mark.parametrize("field, value", [
    ("kernel_h", 0), ("kernel_w", -1), ("stride", 0), ("stride", -2), ("padding", -1)])
def test_window_parameters_out_of_range_rejected(kind, field, value):
    """Each out-of-range kernel, stride or padding is rejected by its own check,
    on a 1x1 window that every other check accepts."""
    c = 2
    o = 3 if kind in ("conv2d", "pointwise_conv2d") else c
    geo = {"kernel_h": 1, "kernel_w": 1, "stride": 1, "padding": 0, field: value}
    layers = (
        oracles._mk(0, "input", [], c, 0, 0, 1, 0, (c, 4, 4), (c, 4, 4)),
        oracles._mk(1, kind, [0], o, geo["kernel_h"], geo["kernel_w"], geo["stride"],
                    geo["padding"], (c, 4, 4), (o, 4, 4)),
        oracles._mk(2, "output", [1], o, 0, 0, 1, 0, (o, 4, 4), (o, 4, 4)),
    )
    with pytest.raises(GraphValidationError, match="window needs") as ei:
        NetworkGraph(layers=layers, resolution=4, width_multiplier=1.0)
    assert "layer 1" in str(ei.value)


@pytest.mark.parametrize("stride, padding", [(2, 0), (1, 1)])
def test_strided_or_padded_pointwise_rejected(stride, padding):
    """pointwise_conv2d runs as a plain channel GEMM, so its output grid must be
    its input grid, even where the conv arithmetic would agree with the graph."""
    oh = (4 + 2 * padding - 1) // stride + 1
    layers = (
        oracles._mk(0, "input", [], 2, 0, 0, 1, 0, (2, 4, 4), (2, 4, 4)),
        oracles._mk(1, "pointwise_conv2d", [0], 3, 1, 1, stride, padding, (2, 4, 4),
                    (3, oh, oh)),
        oracles._mk(2, "output", [1], 3, 0, 0, 1, 0, (3, oh, oh), (3, oh, oh)),
    )
    with pytest.raises(GraphValidationError, match="pointwise"):
        NetworkGraph(layers=layers, resolution=4, width_multiplier=1.0)


# per layer id, the fields a malformed toy graph file changes
_MALFORMED = {
    "stride_0": {2: {"stride": 0}},
    "kernel_0_padding_-1": {2: {"kernel_h": 0, "kernel_w": 0, "padding": -1, "param_count": 0}},
    "input_shape_2d": {0: {"input_shape": [1, 28]}},
    "output_shape_4d": {0: {"output_shape": [1, 28, 28, 1]}, 1: {"input_shape": [1, 28, 28, 1]}},
    "pool_larger_than_input": {5: {"kernel_h": 8, "kernel_w": 8, "stride": 1,
                                   "output_shape": [32, -3, -3]},
                               6: {"input_shape": [32, -3, -3], "param_count": 2880}},
    "no_classes": {6: {"out_channels": 0, "output_shape": [0, 1, 1], "param_count": 0,
                       "bias_count": 0},
                   7: {"out_channels": 0, "input_shape": [0, 1, 1], "output_shape": [0, 1, 1]}},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_geometry_file_rejected_on_load(tmp_path, name):
    """Each file loads up to its first bad layer and fails there with a
    GraphValidationError, not a numpy or arithmetic error."""
    with open(graph_ir.fixture_path("toycnn_mnist.json"), encoding="utf-8") as f:
        doc = json.load(f)
    for entry in doc["layers"]:
        entry.update(_MALFORMED[name].get(entry["id"], {}))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError, match=f"layer {min(_MALFORMED[name])}"):
        load_graph(str(path))


# (layer id, field, value) that int() would truncate or coerce to the value
# the toy graph already has, so each file used to load silently
_NOT_INTEGERS = [
    (2, "stride", 2.9), (2, "padding", "1"), (2, "kernel_h", 3.99), (3, "stride", True),
    (0, "input_shape", [1.5, 28, 28]), (1, "input_ids", [0.0])]


@pytest.mark.parametrize("lid, field, value", _NOT_INTEGERS,
                         ids=[f"{f}={v!r}" for _, f, v in _NOT_INTEGERS])
def test_non_integer_layer_field_rejected_on_load(tmp_path, lid, field, value):
    with open(graph_ir.fixture_path("toycnn_mnist.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["layers"][lid][field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError, match=f"layer {lid}: {field} "):
        load_graph(str(path))


@pytest.mark.parametrize("name, lid, bias, says", [
    ("toy_residual.json", 6, 4, "bias_count 4 is not a multiple >= 0 of out_channels 5"),
    ("toy_residual.json", 6, -5, "bias_count -5 is not a multiple >= 0"),
    ("toycnn_mnist.json", 5, 1, "avg_pool has no bias, got bias_count 1"),
], ids=["digit_flip", "negative", "weight_free"])
def test_bias_count_outside_its_layer_rejected_on_load(tmp_path, name, lid, bias, says):
    """A bias_count off a whole number of biases per output channel would move
    ROM silently: the residual file's 5 -> 4 saves 4 bytes."""
    with open(graph_ir.fixture_path(name), encoding="utf-8") as f:
        doc = json.load(f)
    doc["layers"][lid]["bias_count"] = bias
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError, match=f"layer {lid}: {says}"):
        load_graph(str(path))


@pytest.mark.parametrize("field, value", [
    ("resolution", 28.5), ("resolution", "28"), ("width_multiplier", "1.0"),
    ("width_multiplier", True),
    pytest.param("width_multiplier", 10**400, id="width_multiplier-10**400")])
def test_non_numeric_graph_field_rejected_on_load(tmp_path, field, value):
    with open(graph_ir.fixture_path("toycnn_mnist.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc[field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError, match=field):
        load_graph(str(path))


@pytest.mark.parametrize("old, new, key", [
    ('"resolution": 28,', '"resolution": 28, "resolution": 14,', "resolution"),
    ('"id": 2,', '"id": 2, "stride": 9,', "stride"),
], ids=["resolution", "layer_stride"])
def test_duplicate_key_rejected_on_load(tmp_path, old, new, key):
    """json would keep a duplicated key's last value, so each file used to load."""
    with open(graph_ir.fixture_path("toycnn_mnist.json"), encoding="utf-8") as f:
        text = f.read()
    assert text.count(old) == 1
    path = tmp_path / "g.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(GraphValidationError, match=f"duplicate key '{key}'"):
        load_graph(str(path))


@pytest.mark.parametrize("old, new, says", [
    ('"width_multiplier": 1.0', '"width_multiplier": NaN', "cannot parse .*NaN is not a JSON value"),
    ('"width_multiplier": 1.0', '"width_multiplier": Infinity', "Infinity is not a JSON value"),
    ('"stride": 2', '"stride": -Infinity', "-Infinity is not a JSON value"),
    ('"width_multiplier": 1.0', '"width_multiplier": 1e400', "width_multiplier inf is not a finite"),
    ('"resolution": 28', '"resolutoin": 28', r"unknown keys \['resolutoin'\]"),
    ('"bias_count": 10', '"bias_cownt": 10', r"layer 6: unknown keys \['bias_cownt'\]"),
    ('"id": 2,', '"id": 2.0,', r"malformed layer entry: id 2.0 is not an integer"),
], ids=["nan", "infinity", "minus_infinity", "overflow", "top_level_typo", "layer_typo",
        "non_integer_id"])
def test_graph_file_outside_the_format_rejected_on_load(tmp_path, old, new, says):
    """json reads NaN and Infinity, which are not JSON, a misspelt key would
    load its field's default and an id of 2.0 would pass for 2, so each file
    used to load."""
    with open(graph_ir.fixture_path("toycnn_mnist.json"), encoding="utf-8") as f:
        text = f.read()
    assert old in text
    path = tmp_path / "g.json"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(GraphValidationError, match=says):
        load_graph(str(path))


def test_save_graph_writes_only_strict_json(tmp_path, toy_graph):
    g = dataclasses.replace(toy_graph, width_multiplier=float("nan"))
    with pytest.raises(ValueError):
        save_graph(g, str(tmp_path / "g.json"))


def test_bundled_fixtures_are_what_gen_fixtures_writes(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.main(str(tmp_path))
    names = ("mobilenet_v1_224_100.json", "toycnn_mnist.json", "toy_residual.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == Path(graph_ir.fixture_path(name)).read_bytes()
        load_graph(str(tmp_path / name))


# ---------------------------------------------------------------------------
# Topological order and liveness
# ---------------------------------------------------------------------------

def test_topo_order_fixtures(toy_graph, residual_graph):
    assert topo_order(toy_graph) == tuple(range(8))
    assert topo_order(residual_graph) == tuple(range(8))


def test_order_and_encodings_are_found_once(toy_graph, monkeypatch):
    """Building a graph sorts it once; a QAT step and the search's observations
    reuse that sort and one encoding scan per graph, and hand out tuples,
    which no caller can change."""
    sorts, scans = [], []
    sort, is_encoded = graph_ir._topo_sort, NetworkGraph.is_encoded
    monkeypatch.setattr(graph_ir, "_topo_sort", lambda g: sorts.append(1) or sort(g))
    monkeypatch.setattr(NetworkGraph, "is_encoded",
                        lambda self, t: scans.append(t) or is_encoded(self, t))
    g = replace_layer(toy_graph, 1)  # a fresh graph: nothing cached yet
    weights = qat.init_weights(g)
    x = np.zeros((2, 1, 28, 28), np.float32)
    for _ in range(2):
        logits, cache = qat.forward_network(g, weights, x, train=True)
        qat.backward_network(g, cache, logits)
        search.observe(g, 3, True, 0.5)
    assert sorts == [1] and scans == list(g.tensor_ids())
    assert isinstance(topo_order(g), tuple) and topo_order(g) is topo_order(g)
    assert isinstance(g.encoded_tensors(), tuple)
    assert topo_order(g) == topo_order(toy_graph)
    assert g.encoded_tensors() == toy_graph.encoded_tensors()


def test_numel_and_weighted_tables_match_the_layers(toy_graph, residual_graph, mobilenet_graph):
    """The per-graph element counts and weighted layers are what the layers
    say, on the fixtures and seeded random graphs; weighted_layers() hands
    out a new list on every call."""
    rng = np.random.default_rng(19)
    graphs = [toy_graph, residual_graph, mobilenet_graph]
    graphs += [oracles.random_graph(rng) for _ in range(60)]
    for g in graphs:
        for t in g.tensor_ids():
            assert g.tensor_numel(t) == g.layer(t).out_numel
        want = [l for l in g.layers if l.kind in WEIGHTED_KINDS]
        got = g.weighted_layers()
        assert got == want
        got.append(g.layers[0])
        assert g.weighted_layers() == want
        assert list(g.weighted_by_id().items()) == [(l.id, l) for l in want]


def test_topo_order_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = oracles.random_graph(rng)
        order = topo_order(g)
        assert sorted(order) == sorted(l.id for l in g.layers)
        seen = set()
        for lid in order:
            assert all(t in seen for t in g.layer(lid).input_ids)
            seen.add(lid)


def test_liveness_matches_simulation(toy_graph, residual_graph, mobilenet_graph):
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = oracles.random_graph(rng)
        assert liveness(g) == oracles.sim_liveness(g)
    for g in (toy_graph, residual_graph, mobilenet_graph):
        assert liveness(g) == oracles.sim_liveness(g)


def test_liveness_of_a_layer_reading_one_tensor_twice():
    """Random graphs whose add reads one tensor twice, against the simulation."""
    for g in oracles.self_read_graphs(np.random.default_rng(13), 20):
        assert liveness(g) == oracles.sim_liveness(g)


def test_liveness_residual_overlap(residual_graph):
    live = liveness(residual_graph)
    # tensor 1 stays live across the second conv because the add still needs it
    step_of = {lid: i for i, lid in enumerate(topo_order(residual_graph))}
    assert 1 in live[step_of[2]]
    assert {2, 1} <= live[step_of[3]]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip(tmp_path, residual_graph):
    p = tmp_path / "g.json"
    save_graph(residual_graph, str(p))
    back = load_graph(str(p))
    assert back.layers == residual_graph.layers
    assert back.resolution == residual_graph.resolution
    assert back.width_multiplier == residual_graph.width_multiplier


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    for doc in ('{"layers": "nope"}', '{"layers": null}', '{"layers": 5}'):
        p.write_text(doc)
        with pytest.raises(GraphValidationError):
            load_graph(str(p))
    p.write_bytes(b'{"layers": [\xff]}')  # not UTF-8
    with pytest.raises(GraphValidationError, match="cannot parse"):
        load_graph(str(p))
    for doc, says in (("[1]", "top level must be an object"), ("[" * 10**5, "recursion")):
        p.write_text(doc)
        with pytest.raises(GraphValidationError, match=f"cannot parse {re.escape(str(p))}: .*{says}"):
            load_graph(str(p))
    with pytest.raises(GraphValidationError, match="cannot read .*missing.json"):
        load_graph(str(tmp_path / "missing.json"))


def test_kind_tuple_is_frozen():
    # the observation one-hot depends on this exact order
    assert ALL_KINDS == (
        "conv2d", "depthwise_conv2d", "pointwise_conv2d", "fully_connected",
        "add_residual", "avg_pool", "relu_clip", "input", "output",
    )
