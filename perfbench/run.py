"""Benchmark for mcuq: search, evaluation and deployment workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload toy_search --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
untraced, each timing adjusted to a fixed host speed by a reference kernel
timed between operations (see ``REF_MS``). ``--trace 1`` runs a fixed amount
of the same work untraced, traced and untraced again, and reports the
per-layer metrics and the tracing overhead.
Spans are written to ``.bench_out/``. The last line of standard output is the
result as one JSON object; the line before it is a JSON report with the
environment, sample counts, the workload's metrics under their own names,
and the check failures.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One process, one BLAS thread: steady figures, and never more threads than CPUs.
BLAS_THREADS = 1
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "items_per_s": "1/s"}


def bootstrap() -> bool:
    """Put the checkout's ``src`` and ``tests`` first on the path; False if they are missing."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "mcuq" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        return False
    sys.path[:0] = [str(src), str(tests)]
    import mcuq

    return Path(mcuq.__file__).resolve().is_relative_to(src)


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it (at least the median)."""
    import numpy as np

    q = max(50, math.floor(100 * (1 - 10 / len(samples))))
    return q, float(np.percentile(samples, q))


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "processes": 1, "seed": seed}


# This host's speed drifts by up to two thirds within a minute: other tenants
# share its cores and caches. A fixed reference kernel is timed after every
# op, inside long ops (see refs_inside) and around every set-up; each timing
# is divided by the reference time measured around it and given at REF_MS,
# the kernel's time on a quiet host (2-CPU x86 VM, numpy 2.4, OpenBLAS, one
# thread). Raw wall times stay in the report.
REF_MS = 6.0
REF_SETUP_CALLS = 9  # reference calls before and after each set-up


def host_ref_s() -> float:
    """One timing of the reference kernel: an int64 matrix product and a
    pure-Python dictionary loop, the two kinds of work mcuq's layers do."""
    import numpy as np

    a = np.arange(120 * 120, dtype=np.int64).reshape(120, 120) % 7
    t0 = perf_counter()
    for _ in range(3):
        np.einsum("ij,jk->ik", a, a)
    d = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i
    return perf_counter() - t0


def ref_block_s() -> float:
    return statistics.median(host_ref_s() for _ in range(REF_SETUP_CALLS))


@contextmanager
def refs_inside(w, mark):
    """Also time the reference after every call of ``w.ref_inside`` (a module
    and function name), for ops long enough that the host's speed changes
    within one."""
    if getattr(w, "ref_inside", None) is None:
        yield
        return
    import tracing

    def make(real):
        @functools.wraps(real)
        def call_then_mark(*args, **kwargs):
            out = real(*args, **kwargs)
            mark(1)
            return out
        return call_then_mark

    with tracing.rebound({w.ref_inside: make}):
        yield


def adjusted(op, marks) -> tuple[float, float]:
    """The op's raw time without the reference timings inside it, and that time
    at REF_MS: each stretch between two reference marks is scaled by the mean
    of those two references."""
    end = op.start + op.seconds
    i = bisect.bisect_right(marks, op.start, key=lambda m: m[1]) - 1  # last mark before
    prev, at, raw, adj = marks[i][2], op.start, 0.0, 0.0
    for t0, t1, ref in marks[i + 1:]:
        stretch = min(t0, end) - at
        raw += stretch
        adj += stretch * REF_MS / 1000 / ((prev + ref) / 2)
        if t0 >= end:
            return raw, adj
        prev, at = ref, t1
    raise AssertionError("every op is followed by a reference mark")


def _no_span(name):
    return nullcontext()


def _failures(verdicts: list[list[str]]) -> tuple[int, int, list[str]]:
    failed = [v for v in verdicts if v]
    messages = [m for v in failed for m in v]
    return len(verdicts), len(failed), messages[:10]


def measure(name: str, seed: int, seconds: float, size) -> tuple[dict, dict]:
    """Untraced run: set up several times, then time operations for ``seconds``."""
    from workloads import ALIASES, WORKLOADS

    setups, setup_refs = [], []
    for _ in range(size.setup_repeats):
        ref_before = ref_block_s()
        t0 = perf_counter()
        w = WORKLOADS[name](seed, size)
        setups.append(perf_counter() - t0)
        setup_refs.append((ref_before + ref_block_s()) / 2)
    ops, marks = [], []

    def mark(calls: int) -> None:
        t0 = perf_counter()
        ref = statistics.median(host_ref_s() for _ in range(calls))
        marks.append((t0, perf_counter(), ref))

    gen = w.ops(_no_span)
    mark(REF_SETUP_CALLS)
    start = perf_counter()
    with refs_inside(w, mark):
        for op in gen:
            ops.append(op)
            mark(min(9, 1 + int(op.seconds / 0.06)))  # about a tenth of the op's time
            if perf_counter() - start >= seconds:
                break
        gen.close()
    wall = perf_counter() - start
    attempted, failed, messages = _failures(w.check(ops))
    raw_s, durations = zip(*(adjusted(op, marks) for op in ops))
    q, tail_s = tail(durations)
    raw = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": 1000 * statistics.median(raw_s),
        "op_ms_tail": 1000 * tail(raw_s)[1],
        "items_per_s": sum(op.items for op in ops) / sum(raw_s),
    }
    metrics = {
        "setup_s": statistics.median(t * REF_MS / 1000 / r for t, r in zip(setups, setup_refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms_p50": 1000 * statistics.median(durations),
        "op_ms_tail": 1000 * tail_s,
        "items_per_s": sum(op.items for op in ops) / sum(durations),
    }
    named = {ALIASES[name].get(k, k): {"value": v, "unit": E2E_UNITS[k]}
             for k, v in metrics.items()}
    named["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    report = {"workload": name, "trace": 0, "env": environment(seed),
              "samples": len(ops), "tail_percentile": q, "measured_wall_s": wall,
              "ref_ms": REF_MS, "host_ref_ms_p50": 1000 * statistics.median(m[2] for m in marks),
              "setup_host_ref_ms": [1000 * r for r in setup_refs],
              "raw_wall": raw, "setup_runs_s": setups, "metrics": named,
              "workload_summary": w.summary(ops), "failures": messages}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    return line, report


def traced(name: str, seed: int, size) -> tuple[dict, dict]:
    """Traced run: a fixed amount of work, untraced then traced, and per-layer metrics."""
    import tracing
    from workloads import WORKLOADS

    from mcuq import graph_ir

    tr = tracing.Tracer()
    with tracing.instrumented(tr):
        w = WORKLOADS[name](seed, size)
    n = w.trace_ops

    def work(span):
        gen = w.ops(span)
        t0 = perf_counter()
        ops = list(islice(gen, n))
        gen.close()
        return ops, perf_counter() - t0

    # untraced passes bracket the traced one, so warm-up and drift cancel
    _, before_s = work(_no_span)
    tr.phase = "work"
    with tracing.instrumented(tr):
        ops, traced_s = work(tr.op)
    _, after_s = work(_no_span)
    untraced_s = (before_s + after_s) / 2
    attempted, failed, messages = _failures(w.check(ops))
    graphs = [graph_ir.load_graph(graph_ir.fixture_path(f))
              for f in ("toycnn_mnist.json", "mobilenet_v1_224_100.json")]
    names = tracing.layer_metric_names(graphs)
    values = tracing.layer_metrics(tr, names, w.g, n, untraced_s, traced_s)
    units = dict(names)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace_{name}_seed{seed}.json"
    tr.dump(spans_file)
    report = {"workload": name, "trace": 1, "env": environment(seed), "work_ops": n,
              "untraced_work_s": untraced_s, "traced_work_s": traced_s,
              "spans": len(tr.spans), "spans_file": str(spans_file.relative_to(ROOT)),
              "failures": messages}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    return line, report


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read by the BLAS when numpy loads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["toy_search", "toy_eval", "mbv1_enforce", "mbv1_int"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not bootstrap():
        print(f"perfbench: no mcuq sources under {ROOT / 'src'} (and tests/oracles.py); "
              "run from a full checkout", file=sys.stderr)
        return 2
    from workloads import FULL

    if args.trace:
        line, report = traced(args.workload, args.seed, FULL)
    else:
        line, report = measure(args.workload, args.seed, args.seconds, FULL)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
