"""Shared fixtures: bundled graphs, desk-scale data, a pretrained toy net."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))  # lets every module `import oracles`

from mcuq import qat
from mcuq.data import synthetic_shapes
from mcuq.graph_ir import fixture_path, load_graph
from mcuq.quantizer import calibrate_act_ranges


@pytest.fixture(scope="session")
def toy_graph():
    return load_graph(fixture_path("toycnn_mnist.json"))


@pytest.fixture(scope="session")
def residual_graph():
    return load_graph(fixture_path("toy_residual.json"))


@pytest.fixture(scope="session")
def mobilenet_graph():
    return load_graph(fixture_path("mobilenet_v1_224_100.json"))


@pytest.fixture(scope="session")
def desk():
    """Full desk-scale dataset, the size the CLI synthetic default resolves to."""
    return synthetic_shapes(4000, 1500, seed=0)


@pytest.fixture(scope="session")
def desk_small():
    return synthetic_shapes(300, 120, seed=1)


@pytest.fixture(scope="session")
def pretrained(toy_graph, desk):
    """Float-pretrained toy net and its float validation top-1.

    Session-scoped because several modules build on the same baseline; tests
    must copy the weights before mutating them.
    """
    cfg = qat.TrainConfig(epochs=3, lr=1e-2, batch_size=32, seed=0)
    weights, _ = qat.pretrain_float(toy_graph, desk, cfg)
    top1 = qat.evaluate(toy_graph, weights, desk, split="val")
    return weights, top1


@pytest.fixture(scope="session")
def toy_ranges(toy_graph, desk, pretrained):
    weights, _ = pretrained
    return calibrate_act_ranges(toy_graph, weights, desk.train[0][:256])


def fresh_ranges(ranges):
    """Copy calibration clips so QAT clip updates stay test-local."""
    return dict(ranges)


@pytest.fixture(params=[64, 8192, 65536], ids=lambda size: f"bufsize_{size}")
def caller_bufsize(request):
    """A caller's numpy ufunc buffer size, in elements: set for the test, restored after."""
    old = np.setbufsize(request.param)
    yield request.param
    np.setbufsize(old)
