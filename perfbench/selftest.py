"""Self-tests of the benchmark, kept out of the tier-1 suite (pytest does not
collect this file unless it is named):

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at minimal size, untraced and traced, and must emit
every metric ``BENCHMARK.json`` names, with its unit. Corrupted outputs,
injected through test doubles, must come out as failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert run.bootstrap(), "run from a checkout that holds src/mcuq and tests/oracles.py"

import workloads  # noqa: E402
from mcuq import inference, memory_model, search  # noqa: E402
from workloads import TINY  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    line, report = run.measure(name, seed=3, seconds=0.1, size=TINY)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert report["failures"] == []
    json.dumps([line, report])


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    line, report = run.traced(name, seed=3, size=TINY)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert line["correct"] and line["attempted"] >= 1
    assert (run.ROOT / report["spans_file"]).is_file()
    json.dumps([line, report])


@pytest.mark.parametrize("name", ["toy_eval", "mbv1_enforce"])
def test_work_counts_repeat_exactly(name):
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
    first, _ = run.traced(name, seed=4, size=TINY)
    second, _ = run.traced(name, seed=4, size=TINY)
    assert {k: first["metrics"][k] for k in counted} == {k: second["metrics"][k] for k in counted}


def _flip_codes(monkeypatch, layer_id):
    """Test double: the integer engine returns wrong codes for one layer."""
    real = inference.run_codes_layer

    def wrong(layer, rec, in_codes, *args, **kwargs):
        out = real(layer, rec, in_codes, *args, **kwargs)
        return out ^ 1 if layer.id == layer_id else out

    monkeypatch.setattr(inference, "run_codes_layer", wrong)


def test_wrong_integer_codes_fail_toy_eval(monkeypatch):
    _flip_codes(monkeypatch, layer_id=3)
    line, report = run.measure("toy_eval", seed=3, seconds=0.1, size=TINY)
    assert not line["correct"] and line["failed"] >= 1
    assert any("differ" in m for m in report["failures"])


def test_wrong_integer_codes_fail_mbv1_int(monkeypatch):
    _flip_codes(monkeypatch, layer_id=5)
    line, report = run.measure("mbv1_int", seed=3, seconds=0.1, size=TINY)
    assert not line["correct"] and line["failed"] == line["attempted"]


def test_skipped_ram_enforcement_fails_toy_search(monkeypatch):
    monkeypatch.setattr(search, "enforce_ram", lambda g, p, b: p)
    line, report = run.measure("toy_search", seed=3, seconds=0.1, size=TINY)
    assert not line["correct"] and line["failed"] >= 1
    assert any("exceeds budget" in m for m in report["failures"])


def test_wrong_footprint_fails_mbv1_enforce(monkeypatch):
    real = memory_model.footprint

    def off_by_one(g, p, *args, **kwargs):
        report = real(g, p, *args, **kwargs)
        report.ram_peak += 1
        return report

    monkeypatch.setattr(memory_model, "footprint", off_by_one)
    line, _ = run.measure("mbv1_enforce", seed=3, seconds=0.1, size=TINY)
    assert not line["correct"] and line["failed"] == line["attempted"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(5)))[0] == 50
    q, value = run.tail(list(range(1000)))
    assert q == 99 and value == pytest.approx(np.percentile(range(1000), 99))


def test_adjusted_drops_inner_references_and_scales_each_stretch():
    ref = run.REF_MS / 1000
    # marks (start, end, reference s): before the op, inside it, after it
    marks = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (6.0, 7.0, ref)]
    op = workloads.Op(seconds=5.0, items=1, out=None, start=1.0)  # 1..6, 1 s of it a reference
    raw, adj = run.adjusted(op, marks)
    assert raw == pytest.approx(4.0)
    assert adj == pytest.approx(2.0 / 2 + 2.0 / 2)  # both stretches ran at half the speed
    assert run.adjusted(op._replace(seconds=1.0), marks) == pytest.approx((1.0, 1.0 / 2))


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, exit non-zero and print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
