"""Golden outputs: CLI stdout and engine results must stay bit-identical.

The files under ``golden/`` were recorded (CPython 3.11, x86-64 Linux libm)
before the trace recursion was carried down the sweep; a performance change
to the sweep or to random-access traces must reproduce them exactly.  To
record them again, only for a deliberate change of results, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

from torusmetrics import cli, ptorus
from torusmetrics.farey import Slope, sweep, tier_slope
from torusmetrics.ptorus import TraceCache, from_parameters, tangent_from_chart

GOLDEN = Path(__file__).resolve().parent / "golden"

CLI_CASES = {
    "dist_thurston_d14": [
        "dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--max-depth", "14"],
    "dist_thurston_certified": [
        "dist-thurston", "--from", "3,3,3", "--to", "3,3,6",
        "--certified-bound", "--tol", "0.005", "--max-depth", "2000"],
    "norm_thurston": ["norm-thurston", "--at", "3,3,6", "--vx", "1", "--vy", "0"],
    "converge_boundary_csv": [
        "converge-boundary", "--base", "3,3,3", "--ks", "10,25,50",
        "--slopes", "1/3,2/3,1/2", "--format", "csv"],
}


def cli_stdout(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


# (max_depth, max_evals) of the exhaustive cases: full sweeps, a depth-0
# sweep and sweeps cut by max_evals inside the root tier and deeper down
EXHAUSTIVE_LIMITS = [(9, 200_000), (10, 200_000), (11, 200_000), (0, 200_000),
                     (10, 4), (10, 5), (11, 1000), (12, 200_000)]
CERTIFIED_TOLS = [1e-2, 5e-3, 2e-3, 1e-3, 3e-4, 1e-2, 5e-3, 1e-3]


def panel_inputs():
    """Seeded chart points: 8 exhaustive distances, 8 norms and 8 certified distances."""
    rng = random.Random(20261018)

    def chart():
        return [rng.uniform(3.0, 6.0), rng.uniform(3.0, 6.0)]

    cases = []
    for depth, evals in EXHAUSTIVE_LIMITS:
        cases.append({"kind": "dist", "src": chart(), "dst": chart(),
                      "max_depth": depth, "max_evals": evals})
    for depth, evals in EXHAUSTIVE_LIMITS:
        cases.append({"kind": "norm", "at": chart(), "v": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                      "max_depth": depth, "max_evals": evals})
    for tol in CERTIFIED_TOLS:
        cases.append({"kind": "certified", "src": chart(), "dst": chart(), "tol": tol})
    return cases


def panel_result(case):
    if case["kind"] == "norm":
        point = from_parameters(*case["at"])
        v = tangent_from_chart(point, *case["v"])
        res = ptorus.thurston_norm(
            point, v, max_depth=case["max_depth"], max_evals=case["max_evals"])
    elif case["kind"] == "dist":
        res = ptorus.thurston_distance(
            from_parameters(*case["src"]), from_parameters(*case["dst"]),
            max_depth=case["max_depth"], max_evals=case["max_evals"])
    else:
        res = ptorus.thurston_distance(
            from_parameters(*case["src"]), from_parameters(*case["dst"]),
            tol=case["tol"], max_depth=2000, certified_bound=True)
    return res.to_json_dict()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_is_golden(name):
    code, out = cli_stdout(CLI_CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_engine_panel_is_golden():
    recorded = json.loads((GOLDEN / "panel.json").read_text(encoding="utf-8"))
    assert [entry["case"] for entry in recorded] == panel_inputs()
    for entry in recorded:
        assert panel_result(entry["case"]) == entry["result"], entry["case"]


@pytest.mark.parametrize("params", [(3.0, 3.0), (3.7, 5.2)])
def test_sweep_log_traces_match_random_access(params):
    # the tier sweep and the root-to-slope path walk must agree bit for bit
    # at every slope down to depth 10
    cache = TraceCache(from_parameters(*params))
    roots = tuple(cache.log_trace(Slope(p, q)) for p, q in ((0, 1), (1, 0), (1, 1)))
    tiers = sweep(roots, ptorus._log_step, 10, math.inf)
    _, root_tier = next(tiers)
    assert root_tier == [*roots, cache.log_trace(Slope(-1, 1))]
    seen = 1
    for depth, blocks in tiers:
        for block, states in enumerate(blocks):
            for i, state in enumerate(states):
                assert state == cache.log_trace(tier_slope(depth, block, i))
                seen += 1
    assert seen == 3 * 2 ** 10 - 3


def _record():
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CLI_CASES.items():
        code, out = cli_stdout(args)
        assert code == 0, name
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
    panel = [{"case": case, "result": panel_result(case)} for case in panel_inputs()]
    (GOLDEN / "panel.json").write_text(json.dumps(panel, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
