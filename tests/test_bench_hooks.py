"""The benchmark in perfbench/ calls and rebinds mcuq functions by name; they must
still bind, and the option surface it relies on must stay.

Reads perfbench/ only: it imports the tracer and the workload table and parses
the workload source.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_ranges
from mcuq import inference, qat, search
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import build_packed_model
from mcuq.quantizer import calibrate_act_ranges

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

MCUQ_MODULES = ("data", "graph_ir", "inference", "memory_model", "packed_model", "qat",
                "quantizer", "search")
# what the workloads' variables of these names hold
WORKLOAD_VARS = {"cfg": search.SearchConfig, "rec": search.EpisodeRecord}


def _targets():
    yield from ((module, path) for module, path, _, _ in tracing.TARGETS)
    for w in workloads.WORKLOADS.values():
        if hasattr(w, "ref_inside"):
            yield w.ref_inside


@pytest.mark.parametrize("module, path", sorted(set(_targets())))
def test_traced_name_resolves_to_a_function(module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr))


def test_rebinding_sees_every_compute_layer(toy_graph):
    weights = qat.init_weights(toy_graph, seed=0)
    images = np.random.default_rng(0).uniform(0, 1, size=(3, 1, 28, 28)).astype(np.float32)
    model = build_packed_model(toy_graph, weights, all_uniform_policy(toy_graph),
                               calibrate_act_ranges(toy_graph, weights, images))
    calls = []

    def spy(fn):
        def run(layer, rec, in_codes, *args, **kwargs):
            calls.append(layer.id)
            return fn(layer, rec, in_codes, *args, **kwargs)
        return run

    with tracing.rebound({("mcuq.inference", "run_codes_layer"): spy}):
        scores = inference.run_batch_int(toy_graph, model, images)
    assert sorted(calls) == sorted(model.layers)
    assert np.array_equal(scores, inference.run_batch_int(toy_graph, model, images))


def test_rebinding_sees_every_qat_step(toy_graph, desk_small, pretrained, toy_ranges):
    """toy_search times its host reference after each QAT step through this hook,
    so a fused training step must still make one backward_network call per batch."""
    hook = ("mcuq.qat", "backward_network")
    assert workloads.ToySearch.ref_inside == hook
    calls = []

    def spy(fn):
        def run(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return run

    cfg = qat.TrainConfig(epochs=2, batch_size=64)
    with tracing.rebound({hook: spy}):
        qat.train_qat(toy_graph, qat.copy_weights(pretrained[0]),
                      all_uniform_policy(toy_graph), fresh_ranges(toy_ranges), desk_small, cfg)
    assert len(calls) == cfg.epochs * -(-desk_small.n_train // cfg.batch_size)


def test_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(search.SearchConfig)] == [
        "budget", "episodes", "warmup", "mode", "seed", "proxy_train_frac", "proxy_val_frac",
        "batch_size", "pretrain_epochs", "pretrain_lr", "freeze_first_last"]
    assert [f.name for f in dataclasses.fields(qat.TrainConfig)] == [
        "epochs", "batch_size", "lr", "seed"]


def _var_name(node):
    """`x` for both `x` and `self.x`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_workload_calls_and_attributes_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    bad, called = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and _var_name(node.func.value) in MCUQ_MODULES:
            module = _var_name(node.func.value)
            name = f"{module}.{node.func.attr}"
            called.add(name)
            fn = getattr(importlib.import_module(f"mcuq.{module}"), node.func.attr, None)
            if not callable(fn):
                bad.append(f"{name} is not callable")
                continue
            params = inspect.signature(fn).parameters
            bad += [f"{name} takes no keyword {k.arg}" for k in node.keywords
                    if k.arg is not None and k.arg not in params]
        elif isinstance(node, ast.Attribute) and _var_name(node.value) in WORKLOAD_VARS:
            cls = WORKLOAD_VARS[_var_name(node.value)]
            if node.attr not in {f.name for f in dataclasses.fields(cls)}:
                bad.append(f"{cls.__name__} has no field {node.attr}")
    assert {"search.SearchConfig", "qat.TrainConfig", "search.run_episode"} <= called
    assert not bad
