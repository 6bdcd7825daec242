"""scripts/layer_dump.py diff: the identity gate, on tiny hand-written dumps."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]

BASE = {
    "int/toy/all8/1": np.array([[1, -2], [3, 4]], np.int8),
    "clip/toy/3": np.array([1.5]),
    "search/concurrent/history_csv": np.frombuffer(b"episode,top1\n0,0.5\n", np.uint8),
    "enforce/random00/weight_bits": np.array([[1, 8], [2, 4]], np.int64),
    "agent/actor/W2": np.array([[0.25, -0.5], [1.0, 2.0]]),
    "score/toy/all8/int": np.array([[10, 7], [12, 9]]),
    "reject/policy/missing_weight_3": np.frombuffer(b"PolicyError", np.uint8),
    "float/toy/float/logits": np.array([[0.25, -1.0]], np.float32),
    "float/toy/float/grad.w.1": np.array([0.5, 2.0], np.float32),
}


@pytest.fixture(scope="module")
def layer_dump():
    spec = importlib.util.spec_from_file_location("layer_dump",
                                                  ROOT / "scripts" / "layer_dump.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _diff(layer_dump, tmp_path, capsys, b: dict) -> tuple[int, str]:
    """diff's exit code and output on BASE against dump b."""
    np.savez(tmp_path / "a.npz", **BASE)
    np.savez(tmp_path / "b.npz", **b)
    code = layer_dump.main(["diff", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")])
    return code, capsys.readouterr().out


def test_identical_dumps_pass(layer_dump, tmp_path, capsys):
    code, out = _diff(layer_dump, tmp_path, capsys, dict(BASE))
    assert code == 0
    assert "7 identical, 0 differ" in out
    assert "float logits: max |d| 0\n" in out and "float grad: max |d| 0\n" in out


def test_a_float_difference_passes_and_is_reported(layer_dump, tmp_path, capsys):
    key = "float/toy/float/logits"
    code, out = _diff(layer_dump, tmp_path, capsys,
                      {**BASE, key: BASE[key] + np.float32(0.125)})
    assert code == 0
    assert f"{key}: max |d| 0.125 (largest |value| 1)" in out
    assert "float logits: max |d| 0.125" in out and "float grad: max |d| 0\n" in out


@pytest.mark.parametrize("key", [k for k in BASE if not k.startswith("float/")])
def test_an_exact_record_that_differs_fails(layer_dump, tmp_path, capsys, key):
    changed = BASE[key].copy()
    changed.flat[0] += 1
    code, out = _diff(layer_dump, tmp_path, capsys, {**BASE, key: changed})
    assert code == 1
    assert "6 identical, 1 differ" in out
    if key.startswith("int/"):
        assert f"integer codes differ: {key}: 1 of 4, max |d| 1" in out
    else:
        assert f"{key.split('/')[0]} record differs: {key}" in out


@pytest.mark.parametrize("key", ["int/toy/all8/1", "float/toy/float/logits"])
def test_shapes_that_differ_fail(layer_dump, tmp_path, capsys, key):
    code, out = _diff(layer_dump, tmp_path, capsys, {**BASE, key: BASE[key].ravel()})
    assert code == 1
    assert f"shapes differ: {key}" in out


@pytest.mark.parametrize("extra", [False, True])
def test_a_key_in_one_dump_only_fails(layer_dump, tmp_path, capsys, extra):
    b = dict(BASE)
    key = "int/toy/all8/2"
    if extra:
        b[key] = np.zeros(3, np.int8)
    else:
        key = "clip/toy/3"
        del b[key]
    code, out = _diff(layer_dump, tmp_path, capsys, b)
    assert code == 1
    assert f"only in {tmp_path / ('b.npz' if extra else 'a.npz')}: {key}" in out


def test_an_agent_update_that_goes_astray_changes_the_agent_record(layer_dump, tmp_path,
                                                                   capsys, monkeypatch):
    """The agent record repeats exactly, and skipping one late update (the
    200th of the 237 past REPLAY_BATCH) changes it, so diff fails."""
    base, again, changed = {}, {}, {}
    layer_dump._record_agent(base)
    layer_dump._record_agent(again)
    agent = layer_dump.search.DDPGAgent
    update, calls = agent.update, []

    def skip_one(self):
        if len(self.buffer) >= layer_dump.search.REPLAY_BATCH:
            calls.append(len(self.buffer))
            if len(calls) == 200:
                return
        update(self)

    monkeypatch.setattr(agent, "update", skip_one)
    layer_dump._record_agent(changed)
    assert len(calls) == layer_dump.AGENT_ROUNDS - layer_dump.search.REPLAY_BATCH + 1
    assert len(base) == 13 and all(k.startswith("agent/") for k in base)
    assert all(np.array_equal(base[k], again[k]) for k in base)
    np.savez(tmp_path / "a.npz", **base)
    np.savez(tmp_path / "b.npz", **changed)
    assert layer_dump.main(["diff", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    out = capsys.readouterr().out
    assert "agent record differs: agent/actions" in out
    assert "agent record differs: agent/actor/W0" in out
    assert "agent record differs: agent/critic/W0" in out
