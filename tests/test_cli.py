"""Command-line front end: config precedence, exit codes, export -> eval round trip."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mcuq
import oracles

from mcuq import cli, qat
from mcuq.data import Dataset, DatasetError, load_dataset, save_raw_dir
from mcuq.errors import PolicyError
from mcuq.graph_ir import fixture_path, load_graph, topo_order
from mcuq.inference import evaluate_accuracy, per_class_csv
from mcuq.memory_model import all_uniform_policy, footprint, load_policy, validate_policy
from mcuq.packed_model import build_packed_model, load_packed, save_packed
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


def test_unreadable_config_is_bad_input(in_tmp, capsys):
    (in_tmp / "cfg.json").write_text("[1, 2]")
    assert cli.main(["footprint", "--graph", TOY, "--rom-bytes", "1", "--ram-bytes", "1",
                     "--config", "cfg.json"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: cannot parse cfg.json: top level must be an object\n"


@pytest.mark.parametrize("content", [
    pytest.param(b'{"epochs": 5, "epochs": 1}', id="duplicate_key"),
    pytest.param(b'{"lr": 0.5, "\xff": 1}', id="not_utf8"),
    pytest.param(b'{"lr": NaN}', id="nan"),
])
def test_config_file_with_a_duplicate_key_or_bad_encoding_is_bad_input(in_tmp, content):
    """json would load a repeated key with its last value, NaN (not JSON) as a
    float and a non-UTF-8 file as a bare UnicodeDecodeError; each raises
    DatasetError naming the file."""
    (in_tmp / "cfg.json").write_bytes(content)
    base = ["pretrain", "--graph", TOY, "--dataset", DATA, "--out-checkpoint", "w.ckpt"]
    with pytest.raises(DatasetError, match="cfg.json"):
        parsed(base + ["--config", "cfg.json"])
    assert cli.main(base + ["--config", "cfg.json"]) == cli.EXIT_INPUT


_FOOTPRINT = ["footprint", "--graph", TOY, "--rom-bytes", "1", "--ram-bytes", "1"]
_SEARCH = ["search", "--graph", TOY, "--dataset", DATA, "--rom-bytes", "1", "--ram-bytes", "1",
           "--out-policy", "p.json"]
_PRETRAIN = ["pretrain", "--graph", TOY, "--dataset", DATA, "--out-checkpoint", "w.ckpt"]


@pytest.mark.parametrize("argv, cfg, says", [
    pytest.param(_PRETRAIN, {"epochs": 0.5}, "invalid int value: '0.5'", id="fractional_int"),
    pytest.param(_PRETRAIN, {"epochs": [1]}, "--epochs cannot take [1]", id="list"),
    pytest.param(_PRETRAIN, {"lr": "abc"}, "invalid float value: 'abc'", id="bad_float_text"),
    pytest.param(_PRETRAIN, {"lr": True}, "--lr cannot take True", id="bool_for_number"),
    pytest.param(_SEARCH, {"freeze_first_last": "no"}, "--freeze-first-last cannot take 'no'",
                 id="text_for_switch"),
    pytest.param(_SEARCH, {"mode": "bogus"}, "--mode cannot take 'bogus'", id="not_a_choice"),
    pytest.param(_FOOTPRINT, {"policy": 0}, "--policy cannot take 0", id="number_for_path"),
    pytest.param(_FOOTPRINT, {"rom-bytez": 1}, "'rom-bytez' names no flag", id="unknown_key"),
    pytest.param(_PRETRAIN, {"batch-size": 8, "batch_size": 16}, "--batch-size twice",
                 id="both_spellings"),
])
def test_config_value_the_command_line_could_not_give_is_a_usage_error(in_tmp, capsys, argv,
                                                                       cfg, says):
    """Values used to reach the run untyped: 0.5 epochs and [1] ended in a
    TypeError from range(), "no" switched the flag on and a policy of 0 read
    stdin; misspelt keys were ignored."""
    (in_tmp / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", "cfg.json"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and says in err, err


def test_config_values_take_the_flags_types(in_tmp):
    (in_tmp / "cfg.json").write_text(json.dumps(
        {"freeze-first-last": True, "proxy_train_frac": 1, "seed": "5", "mode": "concurrent",
         "lr": 0.5, "epochs": 2}))  # the last two name pretrain's flags: ignored by search
    a = parsed(_SEARCH + ["--config", "cfg.json"])
    assert (a["freeze_first_last"], a["proxy_train_frac"], a["seed"], a["mode"]) == (
        True, 1.0, 5, "concurrent")
    assert type(a["proxy_train_frac"]) is float and "lr" not in a


@pytest.mark.parametrize("argv, field", [
    pytest.param(_SEARCH + ["--out-weights", "w.ckpt", "--proxy-train-frac", frac],
                 "proxy_train_frac", id=f"frac_{frac}") for frac in ("inf", "-1", "0")] + [
    pytest.param(_PRETRAIN + ["--batch-size", "-5"], "batch_size", id="batch_size_-5"),
    pytest.param(_PRETRAIN + ["--epochs", "-1"], "epochs", id="epochs_-1"),
    pytest.param(_PRETRAIN + ["--lr", "nan"], "lr", id="lr_nan"),
])
def test_a_numeric_flag_outside_its_domain_is_bad_input(in_tmp, capsys, argv, field):
    """Each used to run: a fraction of inf escaped as an OverflowError
    traceback, -1 and 0 trained on a 1-image proxy, and a batch size of -5 or
    -1 epochs wrote an untrained checkpoint, after printing loss nan or
    top1=0.0."""
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ") and "Traceback" not in err, err
    assert not any(in_tmp.iterdir())  # no policy, checkpoint or manifest


@pytest.mark.parametrize("content, says", [
    pytest.param(b'{"weight_bits": {"1": 8}, "\xff": 1}', "cannot parse p.json: 'utf-8' codec",
                 id="not_utf8"),
    pytest.param(None, "cannot read p.json: [Errno 2]", id="missing"),
])
def test_unreadable_policy_file_is_bad_input(in_tmp, capsys, content, says):
    """Each used to escape as a bare UnicodeDecodeError or OSError."""
    if content is not None:
        (in_tmp / "p.json").write_bytes(content)
    with pytest.raises(PolicyError, match=re.escape(says)):
        cli._load_policy("p.json", load_graph(TOY))
    assert cli.main(_FOOTPRINT + ["--policy", "p.json"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and "Traceback" not in err, err


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


def test_footprint_of_a_zero_stride_graph_is_bad_input(in_tmp, capsys):
    with open(TOY, encoding="utf-8") as f:
        doc = json.load(f)
    doc["layers"][2]["stride"] = 0
    (in_tmp / "g.json").write_text(json.dumps(doc))
    assert cli.main(["footprint", "--graph", "g.json", "--rom-bytes", "1",
                     "--ram-bytes", "1"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "layer 2" in err and "stride 0" in err and "Traceback" not in err


def test_footprint_of_a_graph_without_a_layer_list_is_bad_input(in_tmp, capsys):
    for doc in ('{"layers": null}', '{"layers": 5}'):
        (in_tmp / "g.json").write_text(doc)
        assert cli.main(["footprint", "--graph", "g.json", "--rom-bytes", "1",
                         "--ram-bytes", "1"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layers" in err and "Traceback" not in err


def test_footprint_of_a_policy_with_unused_act_bits_is_bad_input(in_tmp, capsys):
    """Tensor 6 is the logits, which the engine keeps at int32: pricing them at
    2 bits would report 35 and 3 B of RAM at steps 6 and 7, not 72 and 40."""
    policy = all_uniform_policy(load_graph(TOY))
    policy.act_bits[6] = 2
    (in_tmp / "p.json").write_text(policy.to_json())
    assert cli.main(["footprint", "--graph", TOY, "--policy", "p.json", "--rom-bytes",
                     "100000", "--ram-bytes", "100000"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tensors [6]" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["synthetic:10", "synthetic:a,b"])
def test_pretrain_on_a_malformed_synthetic_spec_is_bad_input(in_tmp, capsys, spec):
    assert cli.main(["pretrain", "--graph", TOY, "--dataset", spec,
                     "--out-checkpoint", "w.ckpt"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and spec in err and "Traceback" not in err


@pytest.mark.parametrize("rom, ram, m1, m2, code", [
    pytest.param(2 * 2 ** 20, 2 ** 20, "true", "true", cli.EXIT_OK, id="fits"),
    # the all-8 toy CNN needs 12332 B of ROM and 1960 B of RAM
    pytest.param(12331, 1960, "false", "true", cli.EXIT_CONSTRAINT, id="rom_short"),
])
def test_footprint_prints_budget_verdicts(capsys, rom, ram, m1, m2, code):
    assert cli.main(["footprint", "--graph", TOY, "--rom-bytes", str(rom),
                     "--ram-bytes", str(ram)]) == code
    assert capsys.readouterr().out.splitlines() == [
        "rom_bytes=12332", "ram_bytes=1960", "ram_peak_step=3", "ram_peak_live=2:784,3:1176",
        f"rom_budget={rom}", f"ram_budget={ram}", f"m1_ok={m1}", f"m2_ok={m2}"]


@pytest.mark.parametrize("name", ["toycnn_mnist", "toy_residual", "mobilenet_v1_224_100"])
def test_footprint_names_the_tensors_live_at_the_ram_peak(capsys, name):
    """All-8: the tensors printed are those live at the peak step, and their
    bytes add up to the RAM peak."""
    path = fixture_path(name + ".json")
    assert cli.main(["footprint", "--graph", path, "--rom-bytes", str(2 ** 30),
                     "--ram-bytes", str(2 ** 30)]) == cli.EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    live = {int(t): int(n) for t, n in (e.split(":") for e in out["ram_peak_live"].split(","))}
    assert sum(live.values()) == int(out["ram_bytes"])
    g = load_graph(path)
    step = topo_order(g).index(int(out["ram_peak_step"]))
    assert sorted(live) == sorted(oracles.sim_liveness(g)[step])


def test_pretrain_prints_one_line_per_epoch(in_tmp, capsys):
    assert cli.main(["pretrain", "--graph", TOY, "--dataset", DATA, "--epochs", "2",
                     "--out-checkpoint", "w.ckpt"]) == cli.EXIT_OK
    *epochs, last = capsys.readouterr().out.splitlines()
    assert len(epochs) == 2
    for n, line in enumerate(epochs):
        assert re.fullmatch(rf"epoch {n}: loss \d+\.\d{{4}} val_top1 [01]\.\d{{4}}", line)
    assert last.startswith("top1=")
    assert epochs[-1].endswith(f"val_top1 {float(last[5:]):.4f}")


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
    entries = {(qat.CKPT_TAGS.index(tag), lid): arr for lid, entry in qat.init_weights(g).items()
               for tag, arr in entry.items() if (tag, lid) != ("b", 1)}
    entries.update({(qat.CKPT_TAGS.index("clip"), t): np.ones(1) for t in g.encoded_tensors()})
    blob = bytearray(qat.CKPT_MAGIC + struct.pack("<II", qat.CKPT_VERSION, len(entries)))
    for key in sorted(entries):
        arr = np.asarray(entries[key], dtype="<f4")
        blob += struct.pack(f"<BIB{arr.ndim}I", *key, arr.ndim, *arr.shape) + arr.tobytes()
    (in_tmp / "w.ckpt").write_bytes(oracles.seal(bytes(blob)))
    (in_tmp / "p.json").write_text(all_uniform_policy(g).to_json())
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mcuq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "mcuq.cli", "export", "--graph", TOY,
                          "--weights", "w.ckpt", "--policy", "p.json", "--out", "m.mpq"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == cli.EXIT_INPUT
    assert "lacks b.1" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("move", [lambda i: i + (1 << 32), lambda i: -i], ids=["shift", "negate"])
def test_export_on_a_graph_whose_ids_leave_u32_is_bad_input(in_tmp, capsys, move):
    """The checkpoint and the container store ids as u32, so the graph's load
    refuses such an id before anything is written."""
    g = load_graph(TOY)
    qat.save_checkpoint("w.ckpt", qat.init_weights(g), {t: 1.0 for t in g.encoded_tensors()})
    (in_tmp / "p.json").write_text(all_uniform_policy(g).to_json())
    with open(TOY, encoding="utf-8") as f:
        doc = json.load(f)
    for layer in doc["layers"]:
        layer["id"], layer["input_ids"] = move(layer["id"]), list(map(move, layer["input_ids"]))
    (in_tmp / "g.json").write_text(json.dumps(doc))
    assert cli.main(["export", "--graph", "g.json", "--weights", "w.ckpt", "--policy", "p.json",
                     "--out", "m.mpq"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: layer ") and "id is outside" in err and "Traceback" not in err
    assert not (in_tmp / "m.mpq").exists()


def test_eval_of_a_model_whose_pool_carries_weight_bits_is_bad_input(in_tmp, capsys):
    g = load_graph(TOY)
    weights = qat.init_weights(g, seed=3)
    ranges = calibrate_act_ranges(g, weights, load_dataset(DATA, seed=0).train[0])
    qat.save_checkpoint("w.ckpt", weights, ranges)
    (in_tmp / "p.json").write_text(all_uniform_policy(g).to_json())
    assert cli.main(["export", "--graph", TOY, "--weights", "w.ckpt", "--policy", "p.json",
                     "--out", "m.mpq"]) == cli.EXIT_OK
    model = load_packed("m.mpq")
    pool = replace(model.layers[5], weight_bits=8)  # layer 5 is the avg_pool
    save_packed(replace(model, layers={**model.layers, 5: pool}), "bad.mpq")
    capsys.readouterr()
    assert cli.main(["eval", "--graph", TOY, "--dataset", DATA,
                     "--model", "bad.mpq"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "layer 5" in err and "weight bits" in err and "Traceback" not in err


def test_eval_of_a_model_that_could_overflow_int32_is_bad_input(in_tmp, capsys):
    """2**31 - 1 in the stored bias of a logits channel with a positive weight
    code: eval refuses the model, naming layer and channel, and writes no
    report."""
    g = load_graph(TOY)
    weights = qat.init_weights(g, seed=3)
    ranges = calibrate_act_ranges(g, weights, load_dataset(DATA, seed=0).train[0])
    model = build_packed_model(g, weights, all_uniform_policy(g), ranges)
    rec = model.layers[6]  # fully_connected, codes (classes, fan-in)
    c = int(np.flatnonzero((rec.weight.codes() > 0).any(axis=1))[0])
    bias = rec.bias_int.copy()
    bias[c] = 2 ** 31 - 1
    save_packed(replace(model, layers={**model.layers, 6: replace(rec, bias_int=bias)}), "bad.mpq")
    assert cli.main(["eval", "--graph", TOY, "--dataset", DATA, "--model", "bad.mpq",
                     "--per-class-csv", "c.csv"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: layer 6 channel {c}: accumulator range [")
    assert err.rstrip().endswith("leaves int32") and "Traceback" not in err
    assert os.listdir(in_tmp) == ["bad.mpq"]


def _sha256(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _manifest(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _check_manifests(paths, command, inputs):
    for path in paths:
        doc = _manifest(path)
        assert doc["command"] == command
        assert doc["inputs"] == inputs
        assert doc["version"] == mcuq.__version__
        assert doc["duration_s"] >= 0


def test_export_and_eval_manifests_record_the_run(in_tmp):
    """Each field of the export, eval, footprint and pretrain manifests: the
    command, the sha256 of every input file (a synthetic: dataset spec hashed
    as its string), the package version and a non-negative duration; and where
    the manifest goes: --manifest, else the derived path, else
    mcuq_<command>.manifest.json."""
    g = load_graph(TOY)
    ds = load_dataset(DATA, seed=0)
    weights = qat.init_weights(g, seed=3)
    qat.save_checkpoint("w.ckpt", weights, calibrate_act_ranges(g, weights, ds.train[0]))
    (in_tmp / "p.json").write_text(all_uniform_policy(g, weight_bits=4).to_json())
    export = ["export", "--graph", TOY, "--weights", "w.ckpt", "--policy", "p.json",
              "--out", "m.mpq"]
    assert cli.main(export + ["--manifest", "ex.json"]) == cli.EXIT_OK
    assert not (in_tmp / "m.mpq.manifest.json").exists()
    assert cli.main(export) == cli.EXIT_OK
    files = {"graph": _sha256(TOY), "weights": _sha256("w.ckpt"), "policy": _sha256("p.json")}
    _check_manifests(("m.mpq.manifest.json", "ex.json"), "export", files)

    run = ["eval", "--graph", TOY, "--dataset", DATA, "--model", "m.mpq"]
    assert cli.main(run) == cli.EXIT_OK
    assert cli.main(run + ["--per-class-csv", "c.csv"]) == cli.EXIT_OK
    assert cli.main(run + ["--per-class-csv", "d.csv", "--manifest", "ev.json"]) == cli.EXIT_OK
    assert not (in_tmp / "d.csv.manifest.json").exists()
    data_hash = hashlib.sha256(DATA.encode()).hexdigest()
    files = {"graph": _sha256(TOY), "dataset": data_hash, "model": _sha256("m.mpq")}
    _check_manifests(("mcuq_eval.manifest.json", "c.csv.manifest.json", "ev.json"),
                     "eval", files)

    # the ROM CSV names the footprint manifest before the RAM CSV
    footprint = ["footprint", "--graph", TOY, "--rom-bytes", "100000",
                 "--ram-bytes", "100000"]
    assert cli.main(footprint) == cli.EXIT_OK
    _check_manifests(("mcuq_footprint.manifest.json",), "footprint", {"graph": _sha256(TOY)})
    footprint += ["--policy", "p.json"]
    assert cli.main(footprint + ["--ram-csv", "ram.csv"]) == cli.EXIT_OK
    assert cli.main(footprint + ["--rom-csv", "rom.csv", "--ram-csv", "ram2.csv"]) == cli.EXIT_OK
    assert cli.main(footprint + ["--rom-csv", "rom2.csv", "--manifest", "fp.json"]) == cli.EXIT_OK
    assert not any((in_tmp / f"{c}.manifest.json").exists() for c in ("ram2.csv", "rom2.csv"))
    _check_manifests(("ram.csv.manifest.json", "rom.csv.manifest.json", "fp.json"),
                     "footprint", {"graph": _sha256(TOY), "policy": _sha256("p.json")})

    pretrain = ["pretrain", "--graph", TOY, "--dataset", "synthetic:20,10", "--epochs", "1",
                "--out-checkpoint", "pre.ckpt"]
    assert cli.main(pretrain) == cli.EXIT_OK
    assert cli.main(pretrain[:-1] + ["pre2.ckpt", "--manifest", "pt.json"]) == cli.EXIT_OK
    assert not (in_tmp / "pre2.ckpt.manifest.json").exists()
    _check_manifests(("pre.ckpt.manifest.json", "pt.json"), "pretrain",
                     {"graph": _sha256(TOY),
                      "dataset": hashlib.sha256(b"synthetic:20,10").hexdigest()})


def test_eval_and_search_manifests_record_a_checkpoint_input(in_tmp, capsys):
    """eval --weights --policy and search --weights hash the checkpoint and the
    policy they read."""
    g = load_graph(TOY)
    weights = qat.init_weights(g, seed=3)
    qat.save_checkpoint("w.ckpt", weights,
                        calibrate_act_ranges(g, weights, load_dataset(DATA).train[0]))
    (in_tmp / "p.json").write_text(all_uniform_policy(g, weight_bits=4).to_json())
    files = {"graph": _sha256(TOY), "dataset": hashlib.sha256(DATA.encode()).hexdigest(),
             "weights": _sha256("w.ckpt")}
    assert cli.main(["eval", "--graph", TOY, "--dataset", DATA, "--weights", "w.ckpt",
                     "--policy", "p.json"]) == cli.EXIT_OK
    _check_manifests(("mcuq_eval.manifest.json",), "eval",
                     {**files, "policy": _sha256("p.json")})
    assert cli.main(["search", "--graph", TOY, "--dataset", DATA, "--weights", "w.ckpt",
                     "--rom-bytes", "7000", "--ram-bytes", "1100", "--mode", "concurrent",
                     "--episodes", "2", "--warmup", "1", "--out-policy", "s.json"]) == cli.EXIT_OK
    _check_manifests(("s.json.manifest.json",), "search", files)


def _raw_dataset(path, labels, split, pixel=0.0, shape=(1, 28, 28)):
    path.mkdir()
    images = np.zeros((10,) + shape)
    images[2, 0, 5, 5] = pixel
    np.save(path / "images.npy", images)
    np.save(path / "labels.npy", labels)
    (path / "split.json").write_text(split)
    return str(path)


@pytest.mark.parametrize("labels, split, pixel, says", [
    pytest.param(np.arange(10) % 3, "{}", 0.0, "n_train", id="split_without_n_train"),
    pytest.param(np.arange(10) % 3, '{"n_train": 8.9}', 0.0, "n_train", id="fractional_n_train"),
    pytest.param(np.full(10, 8.7), '{"n_train": 8}', 0.0, "integers", id="float_labels"),
    pytest.param(np.arange(10) - 1, '{"n_train": 8}', 0.0, ">= 0", id="negative_labels"),
    *(pytest.param(np.arange(10) % 3, '{"n_train": 8}', v, "[0, 1]", id=f"pixel_{v}")
      for v in (200.0, np.nan, -3.0)),
])
def test_pretrain_on_a_malformed_raw_dataset_is_bad_input(in_tmp, capsys, labels, split, pixel,
                                                          says):
    raw = _raw_dataset(in_tmp / "raw", labels, split, pixel)
    assert cli.main(["pretrain", "--graph", TOY, "--dataset", raw,
                     "--out-checkpoint", "w.ckpt"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err and "Traceback" not in err
    assert not (in_tmp / "w.ckpt").exists()


def test_pretrain_on_a_truncated_idx_dataset_is_bad_input(in_tmp, capsys):
    idx = in_tmp / "idx"
    idx.mkdir()
    (idx / "train-images-idx3-ubyte").write_bytes(struct.pack(">I2I", 0x0803, 60, 28))
    assert cli.main(["pretrain", "--graph", TOY, "--dataset", str(idx),
                     "--out-checkpoint", "w.ckpt"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train-images-idx3-ubyte" in err
    assert "Traceback" not in err and not (in_tmp / "w.ckpt").exists()


@pytest.mark.parametrize("command", [
    ["search", "--rom-bytes", "7000", "--ram-bytes", "1100", "--out-policy", "p.json"],
    ["finetune", "--policy", "p.json", "--out-checkpoint", "w.ckpt"],
    ["eval", "--model", "m.mpq"],
    ["pretrain", "--out-checkpoint", "w.ckpt"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("labels, shape, says", [
    pytest.param(np.arange(10) + 3, (1, 28, 28), "labels go up to 12, the graph has 10 classes",
                 id="labels_0_to_12"),
    pytest.param(np.arange(10), (1, 32, 32), "images are (1, 32, 32)", id="32x32_images"),
    pytest.param(np.arange(10), (3, 28, 28), "images are (3, 28, 28)", id="3_channels"),
])
def test_a_dataset_that_does_not_fit_the_graph_is_bad_input(in_tmp, capsys, command, labels,
                                                            shape, says):
    """Every dataset-taking command refuses images of another (C, H, W) than
    the graph's input, or labels at or above its class count, before it runs."""
    raw = _raw_dataset(in_tmp / "raw", labels, '{"n_train": 8}', shape=shape)
    assert cli.main([command[0], "--graph", TOY, "--dataset", raw, *command[1:]]) \
        == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: dataset ") and says in err and "Traceback" not in err
    assert os.listdir(in_tmp) == ["raw"]


def test_eval_per_class_csv_has_a_row_per_dataset_class(in_tmp):
    """The val split holds only labels 0-3 of the 10 classes; the CSV still has 10 rows."""
    g = load_graph(TOY)
    ds = load_dataset(DATA, seed=0)
    labels = np.concatenate([np.arange(60) % 10, np.arange(40) % 4])
    save_raw_dir(Dataset(images=ds.images, labels=labels, n_train=60), "raw")
    weights = qat.init_weights(g, seed=3)
    model = build_packed_model(g, weights, all_uniform_policy(g),
                               calibrate_act_ranges(g, weights, ds.train[0]))
    save_packed(model, "m.mpq")
    assert cli.main(["eval", "--graph", TOY, "--dataset", "raw", "--model", "m.mpq",
                     "--per-class-csv", "c.csv"]) == cli.EXIT_OK
    rows = (in_tmp / "c.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == \
        [[str(c), "10"] for c in range(4)] + [[str(c), "0"] for c in range(4, 10)]


def test_footprint_of_a_policy_freezing_unknown_ids_is_bad_input(in_tmp, capsys):
    """No layer 99 exists, and tensor 6, the logits, carries no encoding."""
    policy = all_uniform_policy(load_graph(TOY))
    policy.frozen_weights, policy.frozen_acts = {99}, {6}
    (in_tmp / "p.json").write_text(policy.to_json())
    assert cli.main(["footprint", "--graph", TOY, "--policy", "p.json", "--rom-bytes",
                     "100000", "--ram-bytes", "100000"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "layers [99]" in err and "Traceback" not in err


def test_search_writes_a_policy_that_fits_its_budget(in_tmp, capsys):
    rom, ram = 7000, 1100  # below the all-8 toy CNN's 12332 B of ROM and 1960 B of RAM
    assert cli.main(["search", "--graph", TOY, "--dataset", DATA, "--rom-bytes", str(rom),
                     "--ram-bytes", str(ram), "--mode", "concurrent", "--episodes", "2",
                     "--warmup", "1", "--pretrain-epochs", "1", "--out-policy", "p.json",
                     "--history-csv", "h.csv"]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    best = dict(line.split("=", 1) for line in out[-3:])
    assert sorted(best) == ["best_ram_bytes", "best_rom_bytes", "best_top1"]
    assert 0.0 <= float(best["best_top1"]) <= 1.0
    g = load_graph(TOY)
    policy = load_policy("p.json")
    validate_policy(g, policy)
    rep = footprint(g, policy)
    assert (rep.rom_total, rep.ram_peak) == (int(best["best_rom_bytes"]),
                                             int(best["best_ram_bytes"]))
    assert rep.rom_total <= rom and rep.ram_peak <= ram
    assert len((in_tmp / "h.csv").read_text().splitlines()) == 3  # header and 2 episodes
    _check_manifests(("p.json.manifest.json",), "search",
                     {"graph": _sha256(TOY), "dataset": hashlib.sha256(DATA.encode()).hexdigest()})
    cfg = _manifest("p.json.manifest.json")["config"]
    assert (cfg["episodes"], cfg["warmup"], cfg["freeze_first_last"]) == (2, 1, False)


def test_finetune_writes_a_checkpoint_and_a_model_that_eval_accepts(in_tmp, capsys):
    g = load_graph(TOY)
    (in_tmp / "p.json").write_text(all_uniform_policy(g, weight_bits=4).to_json())
    assert cli.main(["finetune", "--graph", TOY, "--dataset", DATA, "--policy", "p.json",
                     "--epochs", "1", "--pretrain-epochs", "1", "--out-checkpoint", "ft.ckpt",
                     "--out-model", "ft.mpq"]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and 0.0 <= float(out[0].removeprefix("top1=")) <= 1.0
    weights, ranges = qat.load_checkpoint("ft.ckpt")
    qat.check_checkpoint_matches(g, weights, ranges)
    assert sorted(ranges) == sorted(g.encoded_tensors())
    assert cli.main(["eval", "--graph", TOY, "--dataset", DATA, "--model", "ft.mpq"]) \
        == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("top1=")
    _check_manifests(("ft.ckpt.manifest.json",), "finetune",
                     {"graph": _sha256(TOY), "dataset": hashlib.sha256(DATA.encode()).hexdigest(),
                      "policy": _sha256("p.json")})


def test_eval_of_a_checkpoint_prints_the_top1_training_reports(in_tmp, capsys):
    """`mcuq eval --weights` and qat.evaluate, which scores training and search,
    count the same top-1 over the same batches. The 1500-image val split ends
    in a batch of 92, whose fully_connected logits differ by float32 rounding
    from those of the same images in a larger batch; counted over 256-image
    batches, a near-tie flips and the top-1 reads 0.102."""
    g = load_graph(TOY)
    weights = qat.init_weights(g, seed=1)
    rng = np.random.default_rng(0)
    ds = Dataset(images=rng.uniform(0, 1, size=(2500, 1, 28, 28)).astype(np.float32),
                 labels=rng.integers(0, 10, size=2500), n_train=1000)
    save_raw_dir(ds, "raw")
    qat.save_checkpoint("w.ckpt", weights, calibrate_act_ranges(g, weights, ds.train[0][:256]))
    policy = oracles.random_policy(np.random.default_rng(3), g, allow_fp32=False)
    (in_tmp / "p.json").write_text(policy.to_json())
    assert cli.main(["eval", "--graph", TOY, "--dataset", "raw", "--weights", "w.ckpt",
                     "--policy", "p.json"]) == cli.EXIT_OK
    weights, ranges = qat.load_checkpoint("w.ckpt")
    top1 = qat.evaluate(g, weights, ds, policy=policy, ranges=ranges)
    assert capsys.readouterr().out == f"top1={top1!r}\n"
    assert top1 == 0.10266666666666667
