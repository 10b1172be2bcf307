"""The benchmark command.

    python3 perfbench/run.py --workload historical --seed 1 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--workload`` is one of ``historical``, ``standing``, ``served``,
``catchup`` (each run in this process, whose peak RSS is reported), or
``all``, which runs each workload in its own child process in turn and
prints a table.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.

A traced run measures half its time untraced and half with the span
wrappers of :mod:`perfbench.trace` installed, reports the per-layer
metrics of the traced half per operation, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".perfbench")
NAMES = ("historical", "standing", "served", "catchup")
MIN_ROUNDS = 5  # per-envelope medians on standing/served need several rounds


def _import_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro under the current directory; "
                         "run from the repository root\n")
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def measure(workload, seconds: float, tracer=None, min_rounds: int = MIN_ROUNDS,
            setups: int | None = None):
    """Set up, then run whole rounds until ``seconds`` have passed."""
    from perfbench.workloads import Recorder

    rec = Recorder()
    count = workload.setups if setups is None else setups
    for _ in range(count):
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        workload.setup()
        rec.setup_s.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = False
    if count and hasattr(workload, "warm"):
        workload.warm()
    started = time.perf_counter()
    while True:
        workload.round(rec, tracer)
        if (time.perf_counter() - started >= seconds
                and len(rec.rounds) >= min_rounds):
            return rec


def end_to_end(rec) -> dict:
    deciles = statistics.quantiles(rec.lat_ms, n=10)
    throughput = statistics.median(ops / s for ops, s in rec.rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(rec.setup_s), "unit": "s"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "p50_ms": {"value": deciles[4], "unit": "ms"},
        "p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(rec, tracer, overhead_pct: float) -> dict:
    """Per-operation layer figures from a traced run's spans and counters."""
    from perfbench.trace import GROUPS

    ops = max(1, rec.attempted)
    layer = rec.layer
    out: dict = {}

    def put(name: str, value, unit: str) -> None:
        if value is not None:
            out[name] = {"value": value, "unit": unit}

    for metric in GROUPS:
        total = tracer.metric(metric)
        if metric.endswith("_calls"):
            put(metric, None if total is None else total / ops, "count/op")
        else:
            put(metric, None if total is None else total * 1000.0 / ops, "ms/op")

    def ratio(num: str, den: float) -> float:
        return layer.get(num, 0.0) / den if den else 0.0

    put("core.plan_cache_hit_ratio",
        ratio("plan_hits", layer.get("plan_hits", 0.0) + layer.get("plan_misses", 0.0)),
        "ratio")
    put("core.automaton_buffered_peak", layer.get("buffered_peak", 0.0), "count")
    ticks = layer.get("ticks", 0.0)
    for key in ("automaton_runs", "shared_runs", "delta_runs", "full_runs",
                "automaton_fallbacks"):
        put(f"streams.scheduler.{key}", ratio(key, ticks), "count/tick")
    put("streams.scheduler.route_skip_ratio",
        ratio("route_skips", layer.get("route_probes", 0.0)), "ratio")
    # On served an operation is one envelope.
    put("streams.net.frames_per_kenv", ratio("frames", ops) * 1000.0, "count")
    put("streams.net.bytes_per_env", ratio("bytes", ops), "B")
    put("streams.net.routing_skip_ratio",
        ratio("net_routing_skips",
              layer.get("net_routing_skips", 0.0) + layer.get("net_fanned", 0.0)),
        "ratio")
    put("streams.net.replay_skip_ratio",
        ratio("replay_skipped",
              layer.get("replayed", 0.0) + layer.get("replay_skipped", 0.0)),
        "ratio")
    record_bytes = layer.get("record_bytes", 0.0)
    scanned = layer.get("scan_bytes", 0.0) / record_bytes if record_bytes else 0.0
    put("fragments.journal_records_per_replayed",
        scanned / layer["replayed"] if layer.get("replayed") else 0.0, "ratio")
    for key, name in (("post", "post_ms"), ("wait", "wait_ms"), ("merge", "merge_ms"),
                      ("cpu_max", "shard_cpu_max_ms"), ("cpu_sum", "shard_cpu_sum_ms")):
        put(f"streams.sharding.{name}", ratio("shard_" + key, ops) * 1000.0, "ms/op")
    put("streams.sharding.failovers", layer.get("failovers", 0.0), "count")
    put("streams.net.dropped_frames", layer.get("dropped_frames", 0.0), "count")
    put("trace.overhead_pct", overhead_pct, "%")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    from perfbench.workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](seed, WORKDIR)
    try:
        if not trace:
            rec = measure(workload, seconds)
            metrics = end_to_end(rec)
            failed, attempted, unexpected = rec.failed, rec.attempted, rec.unexpected
        else:
            from perfbench.trace import Tracer

            plain = measure(workload, seconds / 2, min_rounds=1)
            tracer = Tracer()
            tracer.install()
            rec = measure(workload, seconds / 2, tracer, min_rounds=1,
                          setups=min(1, workload.setups))
            tracer.uninstall()
            per_op = (sum(s for _, s in rec.rounds) / sum(n for n, _ in rec.rounds))
            base = (sum(s for _, s in plain.rounds) / sum(n for n, _ in plain.rounds))
            metrics = per_layer(rec, tracer, (per_op / base - 1.0) * 100.0)
            tracer.dump(os.path.join(WORKDIR, f"trace-{name}-{seed}.jsonl"))
            failed = plain.failed + rec.failed
            attempted = plain.attempted + rec.attempted
            unexpected = plain.unexpected + rec.unexpected
    finally:
        workload.close()
    return {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own child process; a table, then all results."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, item in result["metrics"].items():
            print(f"  {metric:<42} {item['value']:>14.4f} {item['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": item for name, r in results.items()
                    for metric, item in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_program()
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:  # a traced run leaves its span dump behind
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
