"""Benchmark for the torusmetrics slope-tree sup engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports torusmetrics from its src/.
Each measurement runs in a fresh single-threaded worker process (worker.py).
With --trace 0 the last stdout line reports the end-to-end metrics; set-up
is measured SETUP_RUNS times and the median is reported.  With --trace 1 it
reports the per-layer metrics of a traced pass over the same query list.
Time metrics are given at the reference host's speed: each is scaled by
PROBE_REF_MS over the median of a machine-speed probe sampled between the
queries of the same pass.  Detail lines before the result give the raw
times, the probe, the exact counts, the query-list hash, and the percentile
and sample count behind query_ms_tail.  See README.md for the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
DEADLINE_S = 170.0
# Median probe sample on the reference host (2-vCPU x86-64 VM, CPython
# 3.11.7) when it ran at its quiet speed: the scale of every time metric.
PROBE_REF_MS = 2.5
WORKLOADS = ("thurston-cold", "thurston-warm", "thurston-certified", "flat-torus")


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode, deadline):
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - started), check=False
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_query_at"] - started
    return report


def tail(latencies):
    """(percentile, value, samples above): the highest whole percentile with >= 10 above.

    Nearest-rank percentiles; needs at least 20 samples.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    raise ValueError(f"{n} samples leave no percentile with 10 samples above it")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            report = run_worker(args, "trace", deadline)
            setup_samples = [report["setup_s"]]
        else:
            setup_samples = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
            report = run_worker(args, "run", deadline)
            setup_samples.append(report["setup_s"])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = report["untraced"]
    latencies = untraced["latencies_s"]
    attempted = len(latencies)
    p50_s = statistics.median(latencies)
    pct, tail_s, above = tail(latencies)
    probe_ms = statistics.median(untraced["probes_s"]) * 1e3
    speed = PROBE_REF_MS / probe_ms
    failed = untraced["failed"]
    # Spans must not change any result: the traced pass repeats every count.
    consistent = not args.trace or all(
        report["traced"][k] == untraced[k] for k in ("ok", "failed", "certified", "evals")
    )
    for line in untraced["errors"] + (report["traced"]["errors"] if args.trace else []):
        print(f"check failed: {line}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "queries": attempted,
        "evals": untraced["evals"],
        "certified": untraced["certified"],
        "certified_share": untraced["certified"] / attempted,
        "query_list_sha256": report["query_list_sha256"],
        "query_ms_tail_percentile": pct,
        "query_ms_tail_n": attempted,
        "query_ms_tail_above": above,
        "setup_s_samples": setup_samples,
        "probe_ms_median": probe_ms,
        "probe_samples": len(untraced["probes_s"]),
        "raw_wall_s": untraced["wall_s"],
        "raw_query_ms_p50": p50_s * 1e3,
        "raw_query_ms_tail": tail_s * 1e3,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.trace:
        detail["bound_calls"] = report["layers"]["supratio.bound_calls"][0]
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (untraced["wall_s"] * speed, "s"),
            "query_ms_p50": (p50_s * 1e3 * speed, "ms"),
            "query_ms_tail": (tail_s * 1e3 * speed, "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
            "ok_share": (untraced["ok"] / attempted, "fraction"),
        }
    print("detail " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        note = f"  (p{pct} of n={attempted}, {above} samples above)" if name == "query_ms_tail" else ""
        print(f"{name:32s} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
