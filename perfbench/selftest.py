"""Self-test of the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

For every workload it runs seed 1 twice with tracing and seed 2 once
without, each at --seconds 1, and asserts that
  - the exact counts (queries, evals, bound calls, certified) of one seed
    repeat across runs;
  - a different seed gives a different query list;
  - every query_ms_tail has at least 10 samples above its percentile;
  - every run reports correct outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

COUNTS = ("queries", "evals", "bound_calls", "certified")
SECONDS = 1


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return detail, json.loads(lines[-1])


def main():
    for workload in WORKLOADS:
        first, first_result = bench(workload, 1, SECONDS, 1)
        again, again_result = bench(workload, 1, SECONDS, 1)
        other, other_result = bench(workload, 2, SECONDS, 0)
        for name in COUNTS:
            assert first[name] == again[name], f"{workload}: {name} {first[name]} != {again[name]}"
        assert first["query_list_sha256"] == again["query_list_sha256"], f"{workload}: seed 1 lists differ"
        assert first["query_list_sha256"] != other["query_list_sha256"], f"{workload}: seeds 1 and 2 agree"
        for detail, result in ((first, first_result), (again, again_result), (other, other_result)):
            assert detail["query_ms_tail_above"] >= 10, f"{workload}: tail has {detail['query_ms_tail_above']} above"
            assert result["correct"], f"{workload} seed {detail['seed']}: outputs failed their checks"
        print(f"ok {workload}: " + ", ".join(f"{name}={first[name]}" for name in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
