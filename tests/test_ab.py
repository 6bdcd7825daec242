"""scripts/ab.py: each subject, this checkout against itself, agrees in full."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture()
def ab(monkeypatch):
    """The harness module; main's one-BLAS-thread pin is undone afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("subject, agreements", [
    ("enforce", ["differ in 0 of 2048 policies"]),
    ("int", ["codes identical on 7 of 7 layers"] * 5 + ["codes identical on 30 of 30 layers"]),
    ("qat", ["top-1 identical in 2 of 2"]),
])
def test_each_subject_agrees_in_full_on_one_tree(ab, capsys, subject, agreements):
    assert ab.main([str(ROOT), str(ROOT), subject, "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "change/parent median" in l]
    assert len(lines) == len(agreements)
    for line, agreement in zip(lines, agreements):
        assert re.search(r"median x\d\.\d{3} \(quartiles .*\); change faster in [0-2] of 2; ", line)
        assert line.endswith(agreement)
    if subject == "int":  # the four toy mixes, the fresh models in turn, MobileNetV1
        assert "toy, first batch of a fresh model (batch 128)" in lines[4]
    diffs = re.findall(r"max \|d\| (\S+)", out)  # qat's logits and gradients
    assert set(diffs) == ({"0"} if subject == "qat" else set())
    names = re.findall(r"grad (\S+):", out)  # qat's, each "tag.id"
    assert bool(names) == (subject == "qat")
    assert all(re.fullmatch(r"(w|b|clip)\.\d+", name) for name in names)


def test_kernels_subject_times_every_toy_conv_layer_both_ways(ab, capsys):
    """`kernels` runs the toy CNN's conv2d layers 1-4 at batch 32 and 128, then the
    depthwise and pointwise layer of each MobileNetV1-0.25 stage at batch 32,
    forward and backward with dx, and one tree against itself agrees to 0 in z,
    dx and dw."""
    assert ab.main([str(ROOT), str(ROOT), "kernels", "--pairs", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "change/parent median" in l]
    toy = [re.match(r"conv2d layer (\d), batch (\d+), (forward|backward)", l) for l in lines]
    labels = [m.groups() for m in toy if m]
    assert labels == [(str(lid), str(batch), way) for lid in range(1, 5) for batch in (32, 128)
                      for way in ("forward", "backward")]
    mbv1 = [re.match(r"MobileNetV1-0\.25 stage (\d+) (depthwise|pointwise)_conv2d, batch 32, "
                     r"(forward|backward):", l) for l in lines[len(labels):]]
    assert [m.groups() for m in mbv1 if m] == [
        (str(stage), kind, way) for stage in (64, 32, 16, 8, 4)
        for kind in ("depthwise", "pointwise") for way in ("forward", "backward")]
    assert len(lines) == len(labels) + 20
    for line in lines:
        assert line.endswith("z max |d| 0" if "forward" in line else "and dw max |d| 0"), line
        assert re.findall(r"max \|d\| (\S+)", line) == ["0"] * (1 + line.count("dx max"))
        assert "MobileNetV1" not in line or "forward" in line or "dx max |d| 0" in line


def test_a_case_prepares_each_run_untimed_on_its_own_tree(ab, capsys):
    """prepare(tree) runs before every run of that tree, the untimed first run
    included, so the cold `int` case times each fresh model's first batch."""
    events = []
    case = ab.Case("probe", 3, lambda tree, i: events.append(("run", tree)),
                   lambda outputs: f"{len(outputs[0])} and {len(outputs[1])} outputs",
                   lambda tree: events.append(("prepare", tree)))
    ab._measure(case, ("parent", "change"), 3)
    assert len(events) == 16
    assert events[::2] == [("prepare", tree) for _, tree in events[1::2]]
    assert [tree for _, tree in events[1::2]].count("change") == 4
    assert capsys.readouterr().out.rstrip().endswith("4 and 4 outputs")


def test_gradients_are_named_tag_dot_id_whichever_spelling_a_tree_keys(ab):
    """A tree that keys its gradients "w.3" compares with one that keys them ("w", 3)."""
    named = {"w.3": 1.0, "clip.0": 2.0}
    assert ab._grad_names({("w", 3): 1.0, ("clip", 0): 2.0}) == ab._grad_names(named) == named


def test_a_tree_without_the_package_is_refused(ab, tmp_path):
    with pytest.raises(SystemExit, match="no mcuq package"):
        ab.main([str(tmp_path), str(ROOT), "enforce"])
