"""The benchmark in perfbench/ rebinds mcuq functions by name; they must still bind.

Reads perfbench/ only: it imports the tracer and the workload table.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mcuq import inference, qat
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import build_packed_model
from mcuq.quantizer import calibrate_act_ranges

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


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
