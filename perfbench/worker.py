"""One benchmark worker process: set up a workload, time its queries, check them.

Started by run.py, one fresh single-threaded process per measurement.  Modes:
  setup  build the inputs and set up, then stop (a set-up time sample);
  run    also time the fixed query list and check every output;
  trace  also run the list a second time with spans installed.
Prints one JSON report line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

# Queries are timed back to back in chunks; a chunk's outputs are checked
# after the chunk, so the checks stay out of the timed intervals and at most
# one chunk of outputs is held at a time.
CHUNK = 64
# The machine-speed probe is sampled between queries, once per PROBE_EVERY_S
# of query time, so its samples cover the timed phase as the queries do.
PROBE_EVERY_S = 0.1
PROBE_DEPTH = 7  # about 2.5 ms per sample on the reference host


def make_probe():
    """A fixed stdlib computation, timed: SL(2,R) word products to PROBE_DEPTH.

    It shares the interpreter work of the program (float arithmetic, tuple
    allocation, calls) but not its code, so a change to torusmetrics never
    moves it while the host's speed does.  The collector is off while it
    runs, so the probe never pays for collecting the program's objects.
    """
    import reference as ref

    gens_src = ref.holonomy(3.1, 3.7, ref.chart_z(3.1, 3.7).real)
    gens_dst = ref.holonomy(4.2, 5.1, ref.chart_z(4.2, 5.1).real)
    clock = time.perf_counter

    def probe_s():
        gc.disable()
        try:
            t0 = clock()
            ref.bruteforce_max_ratio(gens_src, gens_dst, PROBE_DEPTH)
            return clock() - t0
        finally:
            gc.enable()

    return probe_s


def timed_pass(workload, queries, prepared, probe_s, tracer=None):
    """Time every query, check every output; latencies, probe samples, exact tallies."""
    clock = time.perf_counter
    latencies = []
    probes = []
    since_probe = 0.0
    tally = {"ok": 0, "failed": 0, "certified": 0, "evals": 0, "exit3": 0, "exit_other": 0}
    errors = []
    for start in range(0, len(queries), CHUNK):
        outputs = []
        for item in prepared[start:start + CHUNK]:
            t0 = clock()
            try:
                out = workload.call(item)
            except Exception as exc:  # a failed query is counted, not fatal
                out = exc
            latency = clock() - t0
            latencies.append(latency)
            outputs.append(out)
            if tracer is not None:
                tracer.end_query()
            since_probe += latency
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe_s())
                since_probe = 0.0
        for query, out in zip(queries[start:start + CHUNK], outputs):
            try:
                if isinstance(out, Exception):
                    raise out
                check = workload.check(query, out)
            except Exception as exc:
                errors.append(f"{query!r}: {exc!r}")
                tally["failed"] += 1
                continue
            tally["ok" if check.ok else "failed"] += 1
            if not check.ok:
                errors.append(f"{query!r}: output failed its check")
            tally["certified"] += bool(check.certified)
            tally["evals"] += check.evals
            if check.exit_code == 3:
                tally["exit3"] += 1
            elif check.exit_code != 0:
                tally["exit_other"] += 1
    if not probes:
        probes.append(probe_s())
    return {
        "latencies_s": latencies, "wall_s": sum(latencies), "probes_s": probes, "errors": errors[:5], **tally
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path[:0] = [str(src), str(here)]
    import torusmetrics

    if Path(torusmetrics.__file__).resolve().parent.parent != src:
        sys.exit(f"torusmetrics was imported from {torusmetrics.__file__}, not from {src}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    queries = workload.build(args.seed, args.seconds)
    prepared = workload.setup(queries)
    report = {"first_query_at": time.monotonic()}
    if args.mode != "setup":
        probe_s = make_probe()
        untraced = timed_pass(workload, queries, prepared, probe_s)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["query_list_sha256"] = hashlib.sha256(json.dumps(queries).encode()).hexdigest()
        report["untraced"] = untraced
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced = timed_pass(workload, queries, prepared, probe_s, tracer)
        report["traced"] = {k: v for k, v in traced.items() if k not in ("latencies_s", "probes_s")}
        report["layers"] = tracer.metrics(
            traced["wall_s"], untraced["wall_s"], traced["exit3"], traced["exit_other"]
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
