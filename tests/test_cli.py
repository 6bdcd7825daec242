"""Command-line front end: config precedence, exit codes, export -> eval round trip."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mcuq

from mcuq import cli, qat
from mcuq.data import load_dataset
from mcuq.graph_ir import fixture_path, load_graph
from mcuq.inference import evaluate_accuracy, per_class_csv
from mcuq.memory_model import all_uniform_policy
from mcuq.packed_model import build_packed_model
from mcuq.quantizer import calibrate_act_ranges

TOY = fixture_path("toycnn_mnist.json")
DATA = "synthetic:60,40"


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    """Every run writes its outputs and manifest into a fresh directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MCUQ_SEED", raising=False)
    return tmp_path


def parsed(argv):
    return cli._parse_args(cli.build_parser(), argv)


def test_config_file_beats_parser_defaults_and_flags_beat_the_file(in_tmp):
    (in_tmp / "cfg.json").write_text(json.dumps({"epochs": 2, "lr": 0.5, "batch-size": 8}))
    base = ["pretrain", "--graph", TOY, "--dataset", DATA, "--out-checkpoint", "w.ckpt"]
    a = parsed(base + ["--config", "cfg.json"])
    assert (a["epochs"], a["lr"], a["batch_size"]) == (2, 0.5, 8)
    a = parsed(base + ["--config", "cfg.json", "--epochs", "4"])
    assert (a["epochs"], a["lr"], a["batch_size"]) == (4, 0.5, 8)
    a = parsed(base)
    assert (a["epochs"], a["lr"], a["batch_size"]) == (3, 1e-2, 32)


def test_config_file_reaches_the_run(in_tmp):
    (in_tmp / "cfg.json").write_text(json.dumps({"epochs": 1, "lr": 2e-3, "seed": 7}))
    code = cli.main(["pretrain", "--graph", TOY, "--dataset", DATA, "--out-checkpoint",
                     "w.ckpt", "--config", "cfg.json", "--batch-size", "16"])
    assert code == cli.EXIT_OK
    manifest = json.loads((in_tmp / "w.ckpt.manifest.json").read_text())
    cfg = manifest["config"]
    assert (cfg["epochs"], cfg["lr"], cfg["batch_size"], manifest["seed"]) == (1, 2e-3, 16, 7)


def test_unreadable_config_is_bad_input(in_tmp):
    (in_tmp / "cfg.json").write_text("[1, 2]")
    assert cli.main(["footprint", "--graph", TOY, "--rom-bytes", "1", "--ram-bytes", "1",
                     "--config", "cfg.json"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv, code", [
    (["footprint", "--graph", TOY, "--rom-bytes", "100000", "--ram-bytes", "100000"],
     cli.EXIT_OK),
    (["footprint", "--graph", TOY, "--rom-bytes", "100", "--ram-bytes", "100000"],
     cli.EXIT_CONSTRAINT),
    (["footprint", "--graph", "missing.json", "--rom-bytes", "1", "--ram-bytes", "1"],
     cli.EXIT_INPUT),
    (["footprint", "--graph", TOY, "--rom-bytes", "1"], cli.EXIT_USAGE),
    (["eval", "--graph", TOY, "--dataset", DATA, "--model", "m", "--weights", "w"],
     cli.EXIT_USAGE),
    (["no-such-command"], cli.EXIT_USAGE),
])
def test_exit_codes(argv, code):
    assert cli.main(argv) == code


def test_export_then_eval_round_trip(in_tmp, capsys):
    g = load_graph(TOY)
    ds = load_dataset(DATA, seed=0)
    weights = qat.init_weights(g, seed=3)
    qat.save_checkpoint("w.ckpt", weights, calibrate_act_ranges(g, weights, ds.train[0]))
    policy = all_uniform_policy(g, weight_bits=4)
    (in_tmp / "p.json").write_text(policy.to_json())

    assert cli.main(["export", "--graph", TOY, "--weights", "w.ckpt", "--policy", "p.json",
                     "--out", "m.mpq"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["eval", "--graph", TOY, "--dataset", DATA, "--model", "m.mpq",
                     "--split", "all", "--per-class-csv", "c.csv"]) == cli.EXIT_OK

    w2, r2 = qat.load_checkpoint("w.ckpt")
    top1, rows = evaluate_accuracy(g, ds, model=build_packed_model(g, w2, policy, r2),
                                   split="all")
    assert capsys.readouterr().out == f"top1={top1!r}\n"
    assert (in_tmp / "c.csv").read_text() == per_class_csv(rows)


def test_export_of_a_truncated_checkpoint_is_bad_input(in_tmp, capsys):
    g = load_graph(TOY)
    qat.save_checkpoint("w.ckpt", qat.init_weights(g))
    (in_tmp / "cut.ckpt").write_bytes((in_tmp / "w.ckpt").read_bytes()[:20])
    (in_tmp / "p.json").write_text(all_uniform_policy(g).to_json())
    assert cli.main(["export", "--graph", TOY, "--weights", "cut.ckpt", "--policy", "p.json",
                     "--out", "m.mpq"]) == cli.EXIT_INPUT
    assert "truncated checkpoint" in capsys.readouterr().err


def test_export_of_a_checkpoint_lacking_a_bias_is_bad_input(in_tmp):
    g = load_graph(TOY)
    entries = {f"{tag}.{lid}": arr for lid, entry in qat.init_weights(g).items()
               for tag, arr in entry.items() if (tag, lid) != ("b", 1)}
    entries.update({f"clip.{t}": np.ones(1) for t in g.encoded_tensors()})
    blob = bytearray(b"MQC1" + struct.pack("<II", 1, len(entries)))
    for key in sorted(entries):
        arr = np.asarray(entries[key], dtype="<f4")
        blob += struct.pack("<H", len(key)) + key.encode()
        blob += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()
    (in_tmp / "w.ckpt").write_bytes(bytes(blob))
    (in_tmp / "p.json").write_text(all_uniform_policy(g).to_json())
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mcuq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "mcuq.cli", "export", "--graph", TOY,
                          "--weights", "w.ckpt", "--policy", "p.json", "--out", "m.mpq"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == cli.EXIT_INPUT
    assert "lacks b.1" in run.stderr and "Traceback" not in run.stderr
