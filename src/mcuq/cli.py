"""Command-line front end.

Subcommands: footprint, search, finetune, eval, export, pretrain. main loads
the graph, runs the subcommand and, whatever exit code the subcommand returns,
writes the run's manifest (config snapshot, seed, input hashes, version,
duration), so results are auditable and reproducible. A run stopped by an
error writes none.

--config FILE is a JSON object of flag defaults, keyed by flag name with
dashes or underscores; flags given on the command line win. Values are typed
like their flags: a switch takes a JSON boolean, a typed flag a number or a
string its type reads, any other flag a string (one of its choices). A key of
another command's flag is ignored. An unknown key or a bad value exits 64.

The seed is --seed, else $MCUQ_SEED, else 0: an integer >= 0 in decimal
digits, numpy's seed domain, or the run exits 64 naming its source.

Exit codes: 0 ok, 1 bad input, 2 constraint violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, qat
from .data import Dataset, DatasetError, load_dataset
from .errors import McuqError, InfeasibleBudgetError
from .graph_ir import load_graph, read_json
from .inference import evaluate_accuracy, per_class_csv
from .memory_model import (
    MemoryBudget,
    QuantPolicy,
    all_uniform_policy,
    footprint,
    load_policy,
    ram_csv,
    rom_csv,
    validate_policy,
)
from .packed_model import build_packed_model, load_packed, save_packed
from .quantizer import calibrate_act_ranges
from .search import SearchConfig, history_csv, search

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONSTRAINT = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_input(spec: str) -> str:
    if os.path.isfile(spec):
        return _sha256_file(spec)
    if os.path.isdir(spec):
        h = hashlib.sha256()
        for name in sorted(os.listdir(spec)):
            p = os.path.join(spec, name)
            if os.path.isfile(p):
                h.update(name.encode())
                h.update(bytes.fromhex(_sha256_file(p)))
        return h.hexdigest()
    return hashlib.sha256(spec.encode()).hexdigest()  # e.g. synthetic:N,M


# flags naming the files a run reads, hashed into its manifest
_INPUTS = ("graph", "dataset", "policy", "weights", "model")
# flags naming the files a run writes; the first one given names the manifest
_OUTPUTS = ("out_policy", "out_checkpoint", "out", "per_class_csv", "rom_csv", "ram_csv")


def _write_manifest(a: dict, started: float) -> None:
    """Record the run in --manifest, else beside its first output, else in
    mcuq_<command>.manifest.json."""
    path = a.get("manifest") or next(
        (a[k] + ".manifest.json" for k in _OUTPUTS if a.get(k)),
        f"mcuq_{a['command']}.manifest.json")
    doc = {
        "command": a["command"],
        "config": a,
        "seed": a.get("seed"),
        "inputs": {k: _hash_input(a[k]) for k in _INPUTS if a.get(k)},
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _seed(text: str, source: str = "--seed") -> int:
    """The type of --seed and of MCUQ_SEED: an integer >= 0 in decimal digits.
    argparse passes a _UsageError through, so its message names source."""
    if not text.strip().isdecimal():
        raise _UsageError(f"{source}: {text!r} is not an integer >= 0")
    return int(text)


def _add_common(p: _Parser):
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--manifest", help="manifest output path")
    p.add_argument("--seed", type=_seed, help="RNG seed (default $MCUQ_SEED or 0)")


def build_parser() -> _Parser:
    p = _Parser(prog="mcuq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("footprint", help="ROM/RAM analysis of a policy")
    fp.add_argument("--graph", required=True)
    fp.add_argument("--policy", help="policy JSON (default: uniform 8-bit)")
    fp.add_argument("--rom-bytes", type=int, required=True)
    fp.add_argument("--ram-bytes", type=int, required=True)
    fp.add_argument("--rom-csv", help="per-layer ROM CSV output")
    fp.add_argument("--ram-csv", help="per-step RAM CSV output")
    _add_common(fp)

    se = sub.add_parser("search", help="RL policy search under budgets")
    se.add_argument("--graph", required=True)
    se.add_argument("--dataset", required=True,
                    help="IDX dir, raw-tensor dir, or synthetic[:N_TRAIN,N_VAL]")
    se.add_argument("--rom-bytes", type=int, required=True)
    se.add_argument("--ram-bytes", type=int, required=True)
    se.add_argument("--mode", choices=["independent", "concurrent"],
                    default="independent")
    se.add_argument("--episodes", type=int,
                    help="episodes (per phase in independent mode); default 300, 600 concurrent")
    se.add_argument("--warmup", type=int,
                    help="random warm-up episodes; default 60, 120 concurrent")
    se.add_argument("--out-policy", required=True)
    se.add_argument("--history-csv")
    se.add_argument("--weights", help="pretrained float checkpoint (else pretrains)")
    se.add_argument("--out-weights", help="save the pretrained checkpoint here")
    se.add_argument("--pretrain-epochs", type=int, default=3)
    se.add_argument("--proxy-train-frac", type=float, default=0.2)
    se.add_argument("--proxy-val-frac", type=float, default=0.1)
    se.add_argument("--freeze-first-last", action="store_true")
    _add_common(se)

    ft = sub.add_parser("finetune", help="long QAT over a chosen policy")
    ft.add_argument("--graph", required=True)
    ft.add_argument("--dataset", required=True)
    ft.add_argument("--policy", required=True)
    ft.add_argument("--weights", help="float checkpoint to start from (else pretrains)")
    ft.add_argument("--epochs", type=int, default=15)
    ft.add_argument("--lr", type=float, default=1e-4)
    ft.add_argument("--batch-size", type=int, default=32)
    ft.add_argument("--pretrain-epochs", type=int, default=3)
    ft.add_argument("--pretrain-lr", type=float, default=1e-2)
    ft.add_argument("--out-checkpoint", required=True)
    ft.add_argument("--out-model", help="also export the packed model binary")
    _add_common(ft)

    ev = sub.add_parser("eval", help="accuracy of a packed or checkpointed model")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--model", help="packed model binary")
    ev.add_argument("--weights", help="checkpoint (with --policy) instead of --model")
    ev.add_argument("--policy")
    ev.add_argument("--split", choices=["train", "val", "all"], default="val")
    ev.add_argument("--per-class-csv")
    _add_common(ev)

    ex = sub.add_parser("export", help="pack a trained checkpoint for deployment")
    ex.add_argument("--graph", required=True)
    ex.add_argument("--weights", required=True)
    ex.add_argument("--policy", required=True)
    ex.add_argument("--out", required=True)
    _add_common(ex)

    pt = sub.add_parser("pretrain", help="float baseline training")
    pt.add_argument("--graph", required=True)
    pt.add_argument("--dataset", required=True)
    pt.add_argument("--epochs", type=int, default=3)
    pt.add_argument("--lr", type=float, default=1e-2)
    pt.add_argument("--batch-size", type=int, default=32)
    pt.add_argument("--out-checkpoint", required=True)
    _add_common(pt)
    p.commands = sub.choices  # subcommand parsers, by name
    return p


def _parse_args(parser: _Parser, argv=None) -> dict:
    """Flags win over --config file values, which win over parser defaults.

    The file's values become the subcommand's defaults and the command line
    is parsed again, so only flags actually given override them.
    """
    d = vars(parser.parse_args(argv))
    if d.get("config"):
        cfg = read_json(d["config"], DatasetError)
        parser.commands[d["command"]].set_defaults(**_config_defaults(parser, d["command"], cfg))
        d = vars(parser.parse_args(argv))
    if d.get("seed") is None:
        d["seed"] = _seed(os.environ.get("MCUQ_SEED", "0"), "MCUQ_SEED")
    return d


def _config_defaults(parser: _Parser, command: str, cfg: dict) -> dict:
    """The --config values of command's flags, typed as the module docstring
    says; a typed flag's value goes in as text, which its type then reads. A
    flag given under both spellings is a usage error too."""
    known = {a.dest for sub in parser.commands.values() for a in sub._actions}
    flags = {a.dest: a for a in parser.commands[command]._actions
             if a.dest not in ("help", "config")}
    out = {}
    for key, v in cfg.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise _UsageError(f"config key {key!r} names no flag of any command")
        a = flags.get(dest)
        if a is None:
            continue
        if dest in out:
            raise _UsageError(f"config key {key!r} sets {a.option_strings[0]} twice")
        if a.nargs == 0:  # a switch
            ok = isinstance(v, bool)
        elif a.type is not None:
            ok = isinstance(v, (int, float, str)) and not isinstance(v, bool)
        else:
            ok = isinstance(v, str) and (a.choices is None or v in a.choices)
        if not ok:
            raise _UsageError(f"config key {key!r}: {a.option_strings[0]} cannot take {v!r}")
        out[dest] = str(v) if a.type is not None else v
    return out


def _load_policy(path: str, g) -> QuantPolicy:
    """The policy in a JSON file, validated against the graph."""
    policy = load_policy(path)
    validate_policy(g, policy)
    return policy


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_footprint(a: dict, g) -> int:
    policy = _load_policy(a["policy"], g) if a.get("policy") else all_uniform_policy(g)
    budget = MemoryBudget(rom_bytes=a["rom_bytes"], ram_bytes=a["ram_bytes"])
    rep = footprint(g, policy)
    m1_ok = rep.rom_total <= budget.rom_bytes
    m2_ok = rep.ram_peak <= budget.ram_bytes
    print(f"rom_bytes={rep.rom_total}")
    print(f"ram_bytes={rep.ram_peak}")
    print(f"ram_peak_step={rep.ram_peak_step}")
    print("ram_peak_live=" + ",".join(f"{t}:{n}" for t, n in rep.ram_peak_live.items()))
    print(f"rom_budget={budget.rom_bytes}")
    print(f"ram_budget={budget.ram_bytes}")
    print(f"m1_ok={str(m1_ok).lower()}")
    print(f"m2_ok={str(m2_ok).lower()}")
    if a.get("rom_csv"):
        _write(a["rom_csv"], rom_csv(rep))
    if a.get("ram_csv"):
        _write(a["ram_csv"], ram_csv(rep))
    return EXIT_OK if m1_ok and m2_ok else EXIT_CONSTRAINT


def _load_dataset(a: dict, g) -> Dataset:
    """The command's --dataset; DatasetError unless its images have the
    graph's input shape and its labels lie below the graph's class count."""
    dataset = load_dataset(a["dataset"], seed=a["seed"])
    g.check_batch(dataset.images)
    classes = g.output_layer.output_shape[0]
    if dataset.num_classes > classes:
        raise DatasetError(f"dataset labels go up to {dataset.num_classes - 1}, "
                           f"the graph has {classes} classes")
    return dataset


def _load_checkpoint(path: str, g):
    weights, ranges = qat.load_checkpoint(path)
    qat.check_checkpoint_matches(g, weights, ranges)
    return weights, ranges


def cmd_search(a: dict, g) -> int:
    dataset = _load_dataset(a, g)
    cfg = SearchConfig(
        budget=MemoryBudget(rom_bytes=a["rom_bytes"], ram_bytes=a["ram_bytes"]),
        episodes=a.get("episodes"), warmup=a.get("warmup"), mode=a["mode"], seed=a["seed"],
        proxy_train_frac=a["proxy_train_frac"], proxy_val_frac=a["proxy_val_frac"],
        pretrain_epochs=a["pretrain_epochs"],
        freeze_first_last=a["freeze_first_last"],
    )
    pretrained = None
    if a.get("weights"):
        pretrained, _ = _load_checkpoint(a["weights"], g)
    result = search(g, cfg, dataset, pretrained=pretrained, log=print)
    _write(a["out_policy"], result.best_policy.to_json())
    if a.get("history_csv"):
        _write(a["history_csv"], history_csv(result.history, result.is_best))
    if a.get("out_weights"):
        qat.save_checkpoint(a["out_weights"], result.pretrained, result.ranges)
    best = result.best_record
    print(f"best_top1={best.top1!r}")
    print(f"best_rom_bytes={best.rom_bytes}")
    print(f"best_ram_bytes={best.ram_bytes}")
    return EXIT_OK


def _pretrained_weights(a: dict, g, dataset):
    if a.get("weights"):
        return _load_checkpoint(a["weights"], g)
    tc = qat.TrainConfig(epochs=a["pretrain_epochs"], lr=a["pretrain_lr"],
                         batch_size=a["batch_size"], seed=a["seed"])
    weights, _ = qat.pretrain_float(g, dataset, tc)
    return weights, {}


def cmd_finetune(a: dict, g) -> int:
    dataset = _load_dataset(a, g)
    policy = _load_policy(a["policy"], g)
    weights, ranges = _pretrained_weights(a, g, dataset)
    if not ranges:
        ranges = calibrate_act_ranges(g, weights, dataset.train[0][:256])
    tc = qat.TrainConfig(epochs=a["epochs"], lr=a["lr"],
                         batch_size=a["batch_size"], seed=a["seed"])
    weights, ranges, top1 = qat.train_qat(g, weights, policy, ranges, dataset, tc)
    qat.save_checkpoint(a["out_checkpoint"], weights, ranges)
    if a.get("out_model"):
        save_packed(build_packed_model(g, weights, policy, ranges), a["out_model"])
    print(f"top1={top1!r}")
    return EXIT_OK


def cmd_eval(a: dict, g) -> int:
    dataset = _load_dataset(a, g)
    if bool(a.get("model")) == bool(a.get("weights")):
        raise _UsageError("eval needs exactly one of --model or --weights")
    if a.get("model"):
        model = load_packed(a["model"])
        top1, rows = evaluate_accuracy(g, dataset, model=model, split=a["split"])
    else:
        if not a.get("policy"):
            raise _UsageError("--weights eval also needs --policy")
        weights, ranges = _load_checkpoint(a["weights"], g)
        policy = _load_policy(a["policy"], g)
        top1, rows = evaluate_accuracy(g, dataset, weights=weights, policy=policy,
                                       ranges=ranges, split=a["split"])
    print(f"top1={top1!r}")
    if a.get("per_class_csv"):
        _write(a["per_class_csv"], per_class_csv(rows))
    return EXIT_OK


def cmd_export(a: dict, g) -> int:
    weights, ranges = _load_checkpoint(a["weights"], g)
    if not ranges:
        raise McuqError("checkpoint holds no activation ranges; finetune first")
    policy = _load_policy(a["policy"], g)
    save_packed(build_packed_model(g, weights, policy, ranges), a["out"])
    print(f"wrote {a['out']}")
    return EXIT_OK


def cmd_pretrain(a: dict, g) -> int:
    dataset = _load_dataset(a, g)
    tc = qat.TrainConfig(epochs=a["epochs"], lr=a["lr"],
                         batch_size=a["batch_size"], seed=a["seed"])
    weights, history = qat.pretrain_float(g, dataset, tc)
    for h in history:
        print(f"epoch {h['epoch']}: loss {h['loss']:.4f} val_top1 {h['val_top1']:.4f}")
    qat.save_checkpoint(a["out_checkpoint"], weights)
    top1 = history[-1]["val_top1"] if history else 0.0
    print(f"top1={top1!r}")
    return EXIT_OK


_COMMANDS = {
    "footprint": cmd_footprint,
    "search": cmd_search,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "export": cmd_export,
    "pretrain": cmd_pretrain,
}


def main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        code = _COMMANDS[args["command"]](args, load_graph(args["graph"]))
        _write_manifest(args, started)
        return code
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleBudgetError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (McuqError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
