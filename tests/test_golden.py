"""Golden outputs: CLI stdout and engine results must stay bit-identical.

The files under ``golden/`` were recorded (CPython 3.11, x86-64 Linux libm)
before the trace recursion was carried down the sweep, and ``flat_torus.json``
and ``dist_teich.txt`` before the flat-torus queries carried slope states; a
performance or design change to the engine, the sweep or random-access traces
must reproduce them exactly.  To record them again, only for a deliberate
change of results, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

from torusmetrics import cli, ptorus, torus
from torusmetrics.errors import InvalidPointError
from torusmetrics.farey import SLOPE_ROOTS, Slope, add_slopes, enumerate_slopes
from torusmetrics.ptorus import TraceCache, dehn_twist, from_parameters, tangent_from_chart

from _oracles import swept_states, teich_norm_sup_parts

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
    "dist_teich": ["dist-teich", "--from", "0.3+0.7i", "--to=-0.45+2.2i"],
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


# (max_depth, max_evals) of the flat-torus cases beyond the default limits:
# truncation at shallow depths and eval caps inside the root tier and deeper
FLAT_LIMITS = [(0, 200_000), (1, 200_000), (3, 200_000), (256, 4), (256, 5), (256, 20)]


def flat_torus_inputs():
    """Seeded moduli drawn like the flat-torus benchmark's: x in [-1, 1], log y in [-2, 2]."""
    rng = random.Random(20261019)

    def modulus():
        return [rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-2.0, 2.0))]

    cases = [{"kind": "enum", "src": modulus(), "dst": modulus(),
              "max_depth": 256, "max_evals": 200_000} for _ in range(200)]
    for depth, evals in FLAT_LIMITS:
        cases.append({"kind": "enum", "src": modulus(), "dst": modulus(),
                      "max_depth": depth, "max_evals": evals})
    for _ in range(8):
        cases.append({"kind": "norm", "at": modulus(), "v": [rng.uniform(-1, 1), rng.uniform(-1, 1)]})
    return cases


def flat_torus_result(case):
    if case["kind"] == "enum":
        res = torus.teich_distance_enum(
            torus.TorusPoint(*case["src"]), torus.TorusPoint(*case["dst"]),
            max_depth=case["max_depth"], max_evals=case["max_evals"])
        return {**res.to_json_dict(), "depth_reached": res.depth_reached}
    circle, res = teich_norm_sup_parts(
        torus.TorusPoint(*case["at"]), torus.TangentVector(*case["v"]), 1e-9, 48, 200_000)
    return {**res.to_json_dict(), "depth_reached": res.depth_reached, "circle": circle}


# deep slopes on long partial quotients, and Fibonacci ratios on both sides
DLOG_SLOPES = enumerate_slopes(8) + [Slope.parse(s) for s in ("1/40", "-40/1", "-987/610", "144/233")]


def length_dlog_points():
    """Seeded chart points, thin points whose 1/0 curve is short, and Dehn-twisted points."""
    rng = random.Random(20261021)

    def chart():
        return from_parameters(rng.uniform(3.0, 6.0), rng.uniform(3.0, 6.0))

    points = [chart(), chart()]
    for _ in range(2):
        x = rng.uniform(2.2, 3.0)
        y_min = 2.0 * x / math.sqrt(x * x - 4.0)  # the chart is real from here on
        points.append(from_parameters(x, rng.uniform(1.01 * y_min, y_min + 3.0)))
    for about in ("1/0", "0/1", "1/1") * 2:
        base = chart()
        k = rng.choice((-1, 1)) * rng.randrange(10, 25)
        points.append(dehn_twist(base, Slope.parse(about), k))
    return points


def length_dlog_result(point):
    """TraceCache.length_dlog at every slope of DLOG_SLOPES, as a digest and the deep values.

    Each slope's (length, gradient) or error message enters the digest in
    repr, so a change in any bit of any value changes it.
    """
    cache = TraceCache(point)
    values = []
    for slope in DLOG_SLOPES:
        try:
            values.append(list(cache.length_dlog(slope)))
        except InvalidPointError as exc:
            values.append(str(exc))
    text = json.dumps([[str(s), v] for s, v in zip(DLOG_SLOPES, values)])
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "errors": sum(isinstance(v, str) for v in values),
            "deep": {str(s): v for s, v in zip(DLOG_SLOPES[-4:], values[-4:])}}


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


def test_flat_torus_panel_is_golden():
    recorded = json.loads((GOLDEN / "flat_torus.json").read_text(encoding="utf-8"))
    assert [entry["case"] for entry in recorded] == flat_torus_inputs()
    results = [entry["result"] for entry in recorded]
    # the panel must keep covering argmaxes on both sides of the tree and
    # the searches that max_depth stops uncertified
    assert any(r["argmax"].startswith("-") for r in results)
    assert any(not r["certified"] and r["depth_reached"] == 256 for r in results)
    for entry in recorded:
        assert flat_torus_result(entry["case"]) == entry["result"], entry["case"]


def test_length_dlog_is_golden():
    recorded = json.loads((GOLDEN / "length_dlog.json").read_text(encoding="utf-8"))
    assert [entry["point"] for entry in recorded] == [p.to_json_dict() for p in length_dlog_points()]
    # the panel must keep covering slopes where the recursion degenerates
    assert sum(entry["result"]["errors"] for entry in recorded) > 0
    for entry, point in zip(recorded, length_dlog_points()):
        assert length_dlog_result(point) == entry["result"], entry["point"]


@pytest.mark.parametrize("params", [(3.0, 3.0), (3.7, 5.2)])
def test_sweep_log_traces_match_random_access(params):
    # the tier sweep and the root-to-slope path walk must agree bit for bit
    # at every slope down to depth 10
    cache = TraceCache(from_parameters(*params))
    roots = tuple(cache.log_trace(Slope(p, q)) for p, q in ((0, 1), (1, 0), (1, 1)))
    states, _ = swept_states(roots, ptorus._log_step, 10)
    # the same sweep over slope states labels each state with its slope
    slopes, _ = swept_states(SLOPE_ROOTS, add_slopes, 10)
    assert len(states) == len(slopes) == 3 * 2 ** 10
    for slope, state in zip(slopes, states):
        assert state == cache.log_trace(slope), slope


def _record():
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CLI_CASES.items():
        code, out = cli_stdout(args)
        assert code == 0, name
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
    panel = [{"case": case, "result": panel_result(case)} for case in panel_inputs()]
    (GOLDEN / "panel.json").write_text(json.dumps(panel, indent=1) + "\n", encoding="utf-8")
    flat = [{"case": case, "result": flat_torus_result(case)} for case in flat_torus_inputs()]
    (GOLDEN / "flat_torus.json").write_text(json.dumps(flat, indent=1) + "\n", encoding="utf-8")
    dlog = [{"point": p.to_json_dict(), "result": length_dlog_result(p)} for p in length_dlog_points()]
    (GOLDEN / "length_dlog.json").write_text(json.dumps(dlog, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
