"""Serving benchmark of the p-hom matching stack.

Usage, from the repository root::

    python3 servebench/run.py --workload flat-warm --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py            # every workload, summary table

One run measures one workload in ``CHILDREN`` fresh child processes, one
after another, each with its own fixed ``PYTHONHASHSEED`` (string-hash
order changes the engine's work by ~15%, so a single random hash seed
per run would be noise; a fixed set of several is both steady and not
tied to one arbitrary order).  Each child sets the workload up, measures
its share of ``--seconds``, and checks every response against the cold
reference path outside the timed window.  The parent prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1`` (a traced run measures half
its reads untraced and half traced, and reports the difference as the
tracing overhead).

Latency and throughput pool the samples of every child.  Their times are
each call's process CPU time scaled to a reference host speed, measured
by a fixed pure-Python gauge kernel timed before each request (see
``loadgen``): on the shared host this was built on, neither wall-clock
nor raw CPU time repeats between runs.  The summary also prints the
unscaled wall-clock read latencies, the gauge, the window's user and
system CPU, and on ``churn-async`` the write latencies, which are not an
end-to-end metric (see ``metrics``).

The program is imported from ``src/`` of the current directory with
``REPRO_BACKEND`` cleared, so the default backend is measured.  Scratch
files (the churn workload's index store, the span dump) live under
``.servebench/`` in the current directory and the store is removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = Path(".servebench")
#: String-hash seeds of the measuring child processes (one child each).
HASH_SEEDS = (11, 22, 33, 44)
CHILDREN = len(HASH_SEEDS)
#: Wall-clock budget of one run, children included; a child still running
#: at the deadline is killed and the run fails without a result.
RUN_DEADLINE_S = 170.0


def _child(args) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(Path("src").resolve()))
    from workloads import RUNNERS, Context

    workdir = SCRATCH / f"child-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(
            seed=f"{args.seed}.{args.child}",
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
        )
        outcome = RUNNERS[args.workload](ctx)
        if args.trace:
            dump = SCRATCH / f"spans-{args.workload}-seed{args.seed}-child{args.child}.json"
            dump.write_text(json.dumps(ctx.tracer.dump()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from repro.core.backends import get_backend

    result = asdict(outcome)
    result["backend"] = get_backend(None).name
    result["absent"] = list(ctx.tracer.absent)
    print(json.dumps(result))
    return 0


def _run_children(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    results = []
    share = seconds / CHILDREN
    deadline = time.perf_counter() + RUN_DEADLINE_S
    for child, hash_seed in enumerate(HASH_SEEDS):
        env["PYTHONHASHSEED"] = str(hash_seed)
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--child", str(child),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(share), "--trace", str(trace),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload}: measuring child {child} failed")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def _end_to_end(children: list[dict]) -> tuple[dict, list[str]]:
    from loadgen import percentile

    reads = [x for c in children for x in c["reads"]]
    if not reads:
        raise SystemExit("no read completed; raise --seconds")
    writes = [x for c in children for x in c["writes"]]
    wall = [x for c in children for x in c["wall_reads"]]
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": max(c["peak_rss_kb"] for c in children) / 1024,
        "ops_per_s": sum(c["completed"] for c in children)
        / sum(c["window_s"] for c in children),
        "match_p50_ms": percentile(reads, 0.5) * 1e3,
        "match_p95_ms": percentile(reads, 0.95) * 1e3,
    }
    notes = [
        f"match_p50_ms / match_p95_ms over n={len(reads)} reads "
        f"({len(reads) - math.ceil(0.95 * len(reads))} beyond p95); "
        f"p99 {percentile(reads, 0.99) * 1e3:.4f} ms "
        f"({len(reads) - math.ceil(0.99 * len(reads))} beyond)",
        f"wall-clock reads, unscaled: p50 {percentile(wall, 0.5) * 1e3:.4f} ms, "
        f"p99 {percentile(wall, 0.99) * 1e3:.4f} ms; gauge median per child ms "
        + " ".join(f"{c['gauge_s'] * 1e3:.4f}" for c in children),
        "timed-window CPU s user/system per child "
        + " ".join(f"{c['window_cpu'][0]:.2f}/{c['window_cpu'][1]:.2f}" for c in children),
        f"setup_s median of {len(children)} set-ups",
    ]
    if writes:
        notes.insert(1, (
            f"writes (not gated), scaled CPU time, n={len(writes)}, each checked against a cold "
            f"build: p50 {percentile(writes, 0.5) * 1e3:.4f} ms, "
            f"p95 {percentile(writes, 0.95) * 1e3:.4f} ms, p99 {percentile(writes, 0.99) * 1e3:.4f} ms"
        ))
    return metrics, notes


def _per_layer(children: list[dict]) -> dict:
    from loadgen import percentile
    from metrics import PER_LAYER

    sums: dict[str, float] = {}
    for c in children:
        for key, value in c["layer_sums"].items():
            sums[key] = sums.get(key, 0) + value
    samples: dict[str, list[float]] = {}
    for c in children:
        for key, values in c["samples"].items():
            samples.setdefault(key, []).extend(values)
    ops = sums.get("ops", 0) or 1
    values = {}
    for layer in PER_LAYER:
        key = layer.source
        if layer.kind == "per_op":
            value = sums.get(key, 0) / ops
        elif layer.kind == "ratio":
            base = sums.get(layer.base, 0)
            value = sums.get(key, 0) / base if base else 0.0
        elif layer.kind in ("p50", "p99"):
            pooled = samples.get(key, [])
            q = 0.5 if layer.kind == "p50" else 0.99
            value = percentile(pooled, q) * 1e3 if pooled else 0.0
        elif layer.kind == "mean":
            value = sums.get(key, 0) / len(children)
        elif layer.kind == "per_setup":
            value = sums.get(key, 0) / (sums.get("setups", 0) or 1)
        else:  # overhead
            untraced = samples.get("reads_untraced", [])
            traced = samples.get("reads_traced", [])
            value = (
                (percentile(traced, 0.5) / percentile(untraced, 0.5) - 1) * 100
                if untraced and traced
                else 0.0
            )
        values[layer.name] = value
    return values


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from metrics import END_TO_END, PER_LAYER

    children = _run_children(workload, seed, seconds, trace)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if trace:
        values = _per_layer(children)
        units = {m.name: m.unit for m in PER_LAYER}
        notes = []
    else:
        values, notes = _end_to_end(children)
        units = {m.name: m.unit for m in END_TO_END}
    errors = [e for c in children for e in c["errors"]]
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
        f"backend {children[0]['backend']}  children {len(children)}",
        f"  inputs {json.dumps(children[0]['inputs'], sort_keys=True)}",
    ]
    if not trace:
        tiers = {
            k: statistics.mean(c["tiers"].get(k, 0.0) for c in children)
            for k in children[0]["tiers"]
        }
        lines.append(f"  tier shares of index lookups {json.dumps(tiers, sort_keys=True)}")
    lines.append(
        f"  attempted {attempted}  failed {failed}  error_rate {failed / max(1, attempted):.6f}"
    )
    lines.extend(f"  {note}" for note in notes)
    what = {m.name: m.what for m in END_TO_END}
    for name, value in values.items():
        lines.append(f"  {name:32s} {value:14.4f} {units[name]:6s} {what.get(name, '')}".rstrip())
    absent = sorted({a for c in children for a in c["absent"]})
    if absent:
        lines.append(f"  absent trace bindings: {', '.join(absent)}")
    lines.extend(f"  error: {e}" for e in errors[:5])
    return {
        "summary": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("servebench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from metrics import WORKLOADS

    if args.child is not None:
        return _child(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    SCRATCH.mkdir(exist_ok=True)
    started = time.perf_counter()
    results = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, args.trace)
        print("\n".join(run["summary"]), flush=True)
        results[name] = run["result"]
    print(f"total wall time {time.perf_counter() - started:.1f} s", file=sys.stderr)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
