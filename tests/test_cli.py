import contextlib
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torusmetrics
from torusmetrics import cli, torus
from torusmetrics.cli import main

from _oracles import polygon_is_convex_with_origin


def run_to_file(tmp_path, args, name="out"):
    path = tmp_path / name
    code = main(args + ["--output", str(path)])
    return code, path


class TestDistTeich:
    def test_square_to_double(self, tmp_path):
        code, path = run_to_file(tmp_path, ["dist-teich", "--from", "i", "--to", "2i"])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["distance"] == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert payload["engine"]["certified"] is True
        assert payload["engine"]["argmax"] == "0/1"
        assert payload["engine"]["tol"] == 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        args = ["dist-teich", "--from", "0.25+1.5i", "--to=-0.75+0.8i"]
        _, first = run_to_file(tmp_path, args, "a.json")
        _, second = run_to_file(tmp_path, args, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_point_exits_2(self, capsys):
        assert main(["dist-teich", "--from", "i", "--to=-2i"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("src, dst", [("i", "1e300i"), ("1e-300i", "i")])
    def test_extreme_moduli_exit_0_with_a_finite_distance(self, capsys, src, dst):
        assert main(["dist-teich", "--from", src, "--to", dst]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == pytest.approx(0.5 * math.log(1e300), rel=1e-15)
        assert payload["engine"]["certified"] is True

    def test_forms_that_overflow_only_at_the_given_points_exit_0(self, capsys):
        src, dst = "7.57711401583171e+169+0.3236965357034844i", "3.51894288113125e+169+8.201004751305414e+169i"
        assert main(["dist-teich", "--from", src, "--to", dst]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = torus.teich_distance_oracle(torus.TorusPoint.parse(src), torus.TorusPoint.parse(dst))
        assert payload["distance"] == pytest.approx(expected, rel=1e-15)
        assert payload["engine"]["certified"] is True

    def test_stdout_when_no_output_path(self, capsys):
        assert main(["dist-teich", "--from", "i", "--to", "2i"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "dist-teich"

    def test_depth_cap_is_noted_on_stderr(self, capsys):
        # the argmax -602/1 lies 602 deep, past the cap
        assert main(["dist-teich", "--from=-0.198+6.648i", "--to=-0.271+0.471i",
                     "--max-depth", "20"]) == 0
        out, err = capsys.readouterr()
        engine = json.loads(out)["engine"]
        assert engine["certified"] is False
        gap = engine["frontier_bound"] - engine["value"]
        assert err.splitlines() == [
            f"note: not certified at tol 1e-06: depth cap at 20, "
            f"gap frontier_bound - value = {gap!r}"
        ]

    def test_eval_cap_is_noted_on_stderr(self, capsys, monkeypatch):
        # the walk certifies this pair in 5 evaluations, so only a cap at
        # the 4 root evaluations stops it
        args = ["dist-teich", "--from=-0.198+6.648i", "--to=-0.271+0.471i"]
        capped = functools.partial(torus.teich_distance_enum, max_evals=4)
        monkeypatch.setattr(torus, "teich_distance_enum", capped)
        assert main(args) == 0
        out, err = capsys.readouterr()
        engine = json.loads(out)["engine"]
        assert engine["evals"] == 4
        gap = engine["frontier_bound"] - engine["value"]
        assert err.splitlines() == [
            f"note: not certified at tol 1e-06: eval cap after 4 evaluations, "
            f"gap frontier_bound - value = {gap!r}"
        ]

    def test_deep_argmax_certifies_with_no_cap(self, capsys):
        # the argmax n/1 lies past 10**6 and past the float range
        args = ["dist-teich", "--from=-4.9607694239991494e153+9.887243906821714e153i",
                "--to=-2.898885002286508e153+11.160320892826977i"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        engine = json.loads(out)["engine"]
        assert engine["certified"] is True and engine["max_depth"] is None and err == ""
        # a cap stops the walk there, under the same finite frontier bound
        assert main(args + ["--max-depth", "1000000"]) == 0
        out, err = capsys.readouterr()
        capped = json.loads(out)["engine"]
        assert capped["certified"] is False
        assert capped["frontier_bound"] == engine["frontier_bound"]
        gap = capped["frontier_bound"] - capped["value"]
        assert err.splitlines() == [
            f"note: not certified at tol 1e-06: depth cap at 1000000, "
            f"gap frontier_bound - value = {gap!r}"
        ]

    def test_ray_pair_certifies_at_the_default_depth_cap(self, capsys):
        # its argmax -602/1 lies 602 deep, below the former default cap of 256
        assert main(["dist-teich", "--from=-0.198+6.648i", "--to=-0.271+0.471i"]) == 0
        out, err = capsys.readouterr()
        engine = json.loads(out)["engine"]
        assert (engine["certified"], engine["argmax"], engine["max_depth"]) == (True, "-602/1", None)
        assert engine["evals"] <= 10
        assert err == ""

    def test_argmax_past_the_former_cap_certifies(self, capsys):
        # 1/3000000 lies 2999999 deep, past the former default cap of 10**6
        assert main(["dist-teich", "--from", "i", "--to", "3000000+i", "--require-certified"]) == 0
        engine = json.loads(capsys.readouterr().out)["engine"]
        assert (engine["value"], engine["argmax"]) == (9000000000002.0, "1/3000000")

    @pytest.mark.parametrize(
        "src, dst",
        [("2.225073858507203e-309i", "i"), ("1e-300i", "1e300i"),
         ("2.2e-309i", "3e-309i"),
         ("1e300i", "1e308+1e308i")],
        ids=["subnormal-y", "ratio-overflows", "subnormal-y-both", "form-overflows"],
    )
    def test_numeric_fault_exits_1_with_one_error_line(self, capsys, src, dst):
        # an extremal-length form or the supremum e^(2d) overflows: valid
        # input, so not exit 2
        assert main(["dist-teich", "--from", src, "--to", dst]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric fault (OverflowError)") and err.count("\n") == 1


class TestDistThurston:
    def test_documented_pair(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--max-depth", "14"],
        )
        assert code == 0
        payload = json.loads(path.read_text())
        expected = math.log(math.acosh(3.0) / math.acosh(1.5))
        assert payload["distance"] == pytest.approx(expected, abs=1e-9)
        assert payload["engine"]["argmax"] == "1/1"
        assert "stabilization_depth" in payload["engine"]

    def test_chart_input(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["dist-thurston", "--from", "3,3,3", "--to", "chart:3,3"]
        )
        assert code == 0
        assert json.loads(path.read_text())["to"] == {"x": 3.0, "y": 3.0, "z": 6.0}

    def test_require_certified_fails_heuristic(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--require-certified"],
        )
        assert code == 3
        assert path.exists()  # result still written alongside the status

    def test_require_certified_passes_with_bound(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            [
                "dist-thurston", "--from", "3,3,3", "--to", "3,3,6",
                "--certified-bound", "--tol", "0.005", "--max-depth", "2000",
                "--require-certified",
            ],
        )
        assert code == 0
        assert json.loads(path.read_text())["engine"]["certified"] is True

    def test_off_variety_point_exits_2(self):
        assert main(["dist-thurston", "--from", "3,3,4", "--to", "3,3,6"]) == 2

    def test_overflowing_residual_exits_2(self, capsys):
        # x^2 + y^2 + z^2 and xyz both overflow, so the residual is NaN
        argv = ["dist-thurston", "--from", "1e200,1e200,1e200", "--to", "3,3,3", "--max-depth", "3"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: triple") and "misses the trace relation" in err

    def test_sweep_stopped_by_max_evals_is_noted_on_stderr(self, capsys):
        # a self-distance: every ratio is 1, so no cell is ever pruned
        assert main(["dist-thurston", "--from", "3,3,3", "--to", "3,3,3", "--max-depth", "30"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["engine"]["evals"] == 200_000
        assert err.splitlines() == [
            "note: max_evals stopped the sweep at depth 17 of 30 after 200000 of 3221225472 "
            "evaluations"
        ]

    def test_note_for_a_huge_max_depth_gives_the_count_as_a_power(self, capsys):
        # 3 * 2**20000 has more digits than int-to-str conversion allows
        assert main(["dist-thurston", "--from", "3,3,3", "--to", "3,3,3", "--max-depth", "20000"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["engine"]["max_depth"] == 20000
        assert err.splitlines() == [
            "note: max_evals stopped the sweep at depth 17 of 20000 after 200000 of 3*2^20000 "
            "evaluations"
        ]

    def test_no_note_for_a_pruned_sweep_that_finishes(self, capsys):
        # the prune empties the tree long before depth 30, in far fewer than
        # max_evals evaluations: nothing was cut
        assert main(["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--max-depth", "30"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["engine"]["evals"] < 200_000
        assert err == ""

    def test_no_note_for_full_sweeps_or_certified_searches(self, capsys):
        pair = ["--from", "3,3,3", "--to", "3,3,6"]
        assert main(["dist-thurston", *pair, "--max-depth", "16"]) == 0
        assert main(["dist-thurston", *pair, "--certified-bound", "--tol", "0.005",
                     "--max-depth", "2000"]) == 0
        assert capsys.readouterr().err == ""

    def test_out_of_chart_exits_2(self):
        assert main(["dist-thurston", "--from", "chart:2.5,2.5", "--to", "3,3,6"]) == 2

    def test_uncertified_search_notes_the_depth_cap_and_keeps_stdout(self, capsys):
        args = ["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--certified-bound",
                "--tol", "1e-9", "--max-depth", "5"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        engine = json.loads(out)["engine"]
        assert engine["certified"] is False
        gap = engine["frontier_bound"] - engine["value"]
        assert err.splitlines() == [
            f"note: not certified at tol 1e-09: depth cap at 5, "
            f"gap frontier_bound - value = {gap!r}"
        ]
        assert main(args + ["--require-certified"]) == 3
        out3, err3 = capsys.readouterr()
        assert out3 == out
        assert err3.splitlines()[0] == err.splitlines()[0]


class TestNorms:
    def test_norm_teich_oracle_value(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["norm-teich", "--at", "i", "--vx", "1", "--vy", "0"]
        )
        assert code == 0
        assert json.loads(path.read_text())["norm"] == pytest.approx(0.5, abs=1e-9)

    def test_norm_teich_past_the_float_range_is_a_numeric_fault(self, capsys):
        # |V|/(2y) = 5e309 is no float: one error line, not "norm": Infinity
        assert main(["norm-teich", "--at", "1e-310i", "--vx", "1", "--vy", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric fault (OverflowError)") and err.count("\n") == 1
        assert main(["norm-teich", "--at", "1e-310i", "--vx", "1e-10", "--vy", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(5e299, rel=1e-12)

    def test_norm_thurston_runs(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["norm-thurston", "--at", "3,3,6", "--vx", "1", "--vy", "0",
             "--max-depth", "8"],
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["norm"] > 0
        assert payload["engine"]["certified"] is False

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("component", ["--vx", "--vy"])
    def test_norm_thurston_non_finite_tangent_exits_2(self, capsys, component, bad):
        args = {"--vx": "1", "--vy": "0", component: bad}
        argv = ["norm-thurston", "--at", "3,3,6", *(f"{k}={v}" for k, v in args.items())]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tangent vector entries must be finite\n"

    def test_norm_thurston_is_homogeneous_at_huge_tangents(self, capsys):
        # neither the tangency check nor the objectives may overflow where the
        # norm is finite; the payload keeps the caller's tangent and tol
        payloads = []
        for vx in ("1", "1e300", "1e307", "1e308"):
            assert main(["norm-thurston", "--at", "3,3,6", "--vx", vx, "--vy", "0"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        unit = payloads[0]["norm"]
        for vx, payload in zip((1e300, 1e307, 1e308), payloads[1:]):
            assert payload["norm"] == pytest.approx(vx * unit, rel=1e-12)
            assert payload["engine"]["value"] == payload["norm"]
            assert (payload["chart_vx"], payload["engine"]["tol"]) == (vx, 1e-6)

    def test_norm_thurston_is_homogeneous_at_subnormal_tangents(self, capsys):
        # a subnormal tangent is scaled up first, so the lift and the objectives
        # keep their digits: the argmax is that of the same direction at unit size
        def engine(vx, vy):
            argv = ["norm-thurston", "--at", "3,3,6", f"--vx={vx!r}", f"--vy={vy!r}",
                    "--max-depth", "6"]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["engine"]

        for k in (1, 2, 6):
            tiny, unit = engine(k * 5e-324, 5e-324), engine(float(k), 1.0)
            assert tiny["argmax"] == unit["argmax"]
            assert tiny["value"] == pytest.approx(unit["value"] * 5e-324, abs=5e-324)
        assert main(["norm-thurston", "--at", "3,3,6", "--vx", "1e-310", "--vy", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["norm"] == 4.646743619034771e-311

    @pytest.mark.parametrize("vx", ["1e-300", "1e-310", "1", "1e308"])
    def test_norm_thurston_takes_a_huge_tol_at_any_tangent(self, capsys, vx):
        # the scaled tol must stay finite, whichever way the tangent is scaled
        assert main(["norm-thurston", "--at", "3,3,6", "--vx", vx, "--vy", "0",
                     "--tol", "1e300", "--max-depth", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["engine"]["tol"] == 1e300

    @pytest.mark.parametrize("tol,depth", [(0.3, 0), (0.03, 3)])
    def test_norm_thurston_stabilization_depth_is_homogeneous(self, capsys, tol, depth):
        # tol is in the norm's units, so it scales with the tangent
        for scale in (1.0, 1e308):
            argv = ["norm-thurston", "--at", "chart:3.3,4.1", f"--vx={scale!r}",
                    f"--vy={-0.7 * scale!r}", f"--tol={tol * scale!r}"]
            assert main(argv) == 0
            engine = json.loads(capsys.readouterr().out)["engine"]
            assert (engine["argmax"], engine["stabilization_depth"]) == ("-3/1", depth)

    def test_norm_thurston_notes_a_cut_inside_the_last_tier(self, capsys):
        args = ["norm-thurston", "--at", "3,3,6", "--vx", "1", "--vy", "0", "--max-depth", "17"]
        assert main(args) == 0
        assert capsys.readouterr().err == (
            "note: max_evals stopped the sweep at depth 17 of 17 after 200000 of 393216 "
            "evaluations\n"
        )


class TestDualSphere:
    def test_csv_polygon(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["dual-sphere", "--at", "0.3+1.2i", "--samples", "256", "--format", "csv"],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "gx,gy,slope_or_angle"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 256
        assert rows[0][2] == "1/0"
        points = [(float(r[0]), float(r[1])) for r in rows]
        assert polygon_is_convex_with_origin(points)

    def test_json_format(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["dual-sphere", "--at", "i", "--samples", "32"]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["points"]) == 32

    def test_too_few_samples_rejected(self, capsys):
        assert main(["dual-sphere", "--at", "i", "--samples", "4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("at", ["1e-300i", "1e300i", "1e300+1i", "2+1.6e-154i"])
    def test_extreme_moduli_exit_0_with_the_exact_covectors(self, capsys, at):
        # the closed form below is checked against the differentiated form in test_torus
        assert main(["dual-sphere", "--at", at, "--samples", "64"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        tau = complex(at.replace("i", "j"))
        x, y = tau.real, tau.imag
        for j, point in enumerate(points):
            # sample j is the foliation of angle phi = pi*j/64 at i, where dExt/Ext
            # is (sin 2phi, -cos 2phi); at x + iy that over y, labelled with the
            # angle of its direction (cos phi - x sin(phi)/y, sin(phi)/y) at tau
            phi = math.pi * j / 64
            assert math.isfinite(point["gx"]) and math.isfinite(point["gy"])
            assert abs(point["gx"] - math.sin(2 * phi) / y) <= 1e-12 / y
            assert abs(point["gy"] + math.cos(2 * phi) / y) <= 1e-12 / y
            v = math.sin(phi) / y
            theta = math.atan2(v, math.cos(phi) - x * v)
            assert 0.0 <= point["angle"] < math.pi
            assert abs(point["angle"] - theta) <= 1e-12 or point["angle"] == theta - math.pi


class TestExperiments:
    def test_converge_boundary_csv(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            [
                "converge-boundary", "--base", "3,3,3", "--about", "1/0",
                "--ks", "5,10", "--slopes", "0/1,1/1", "--max-depth", "10",
                "--format", "csv",
            ],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "k,slope,length,stretch,normalized_value"
        assert len(lines) == 2 + 2 * 2
        k, slope, ell, stretch, norm_val = lines[2].split(",")
        assert float(norm_val) == pytest.approx(float(ell) / float(stretch), rel=1e-12)

    def test_converge_boundary_json_ratio_trend(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            [
                "converge-boundary", "--base", "3,3,3", "--about", "1/0",
                "--ks", "10,50", "--slopes", "0/1,1/1", "--max-depth", "10",
            ],
        )
        assert code == 0
        rows = json.loads(path.read_text())["rows"]
        by_k = {}
        for row in rows:
            by_k.setdefault(row["k"], {})[row["slope"]] = row["normalized_value"]
        err10 = abs(by_k[10]["0/1"] / by_k[10]["1/1"] - 1.0)
        err50 = abs(by_k[50]["0/1"] / by_k[50]["1/1"] - 1.0)
        assert err50 < err10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_converge_boundary_require_certified_exits_3(self, tmp_path, fmt):
        # the exhaustive sweeps behind every row are uncertified
        code, path = run_to_file(
            tmp_path,
            [
                "converge-boundary", "--base", "3,3,3", "--ks", "5", "--slopes", "0/1",
                "--max-depth", "6", "--format", fmt, "--require-certified",
            ],
        )
        assert code == 3
        if fmt == "json":
            assert [row["certified"] for row in json.loads(path.read_text())["rows"]] == [False]

    def test_converge_boundary_notes_each_sweep_max_evals_stopped(self, capsys):
        # k = 0 is a self-distance, a full sweep that the cap stops inside
        # depth 17; the pruned k = 1 distance finishes well under it
        args = ["converge-boundary", "--base", "3,3,3", "--ks", "0,1", "--slopes", "1/2",
                "--max-depth", "17"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == (
            "note: max_evals stopped the sweep for k=0 at depth 17 of 17 after 200000 of "
            "393216 evaluations\n"
        )
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [0, 1] and rows[0]["stretch"] == 1.0

    def test_converge_boundary_overflowing_twist_exits_2(self, capsys):
        code = main(["converge-boundary", "--base", "3,3,3", "--ks", "400", "--max-depth", "6"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --ks 400:") and "exceed" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        # list options are split by the runners, so bad items exit 2 as well
        for command, base in (("converge-boundary", "3,3,3"), ("converge-gm", "i")):
            for bad in (["--ks", "x"], ["--slopes", "0/1,1"], ["--slopes", "0/1,1/x"]):
                assert main([command, "--base", base, *bad]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1

    def test_converge_gm_csv(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["converge-gm", "--base", "i", "--ks", "2,4", "--slopes", "0/1,1/1",
             "--format", "csv"],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "k,slope,ext_root,dilatation_root,normalized_value"
        assert len(lines) == 2 + 4

    def test_converge_gm_rows_are_the_library_functional(self, capsys):
        base = torus.TorusPoint(0.3, 1.7)
        assert main(["converge-gm", "--base", "0.3+1.7i", "--slopes", "0/1,1/1,-2/3"]) == 0
        for row in json.loads(capsys.readouterr().out)["rows"]:
            lam = torus.WeightedFoliation(1.0, torusmetrics.Slope.parse(row["slope"]))
            point = torus.TorusPoint(base.x + row["k"], base.y)
            assert row["ext_root"] == torus.extremal_length_root(lam, point)
            assert row["normalized_value"] == torus.normalized_extremal_functional(base, point, lam)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_gardiner_check_needs_a_sample(self, capsys, samples):
        assert main(["gardiner-check", "--at", "i", "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: samples must be at least 1\n"

    def test_gardiner_check_passes(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["gardiner-check", "--at", "0.4+0.9i", "--samples", "60"]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["pass"] is True
        assert payload["max_rel_err"] <= 1e-6


# every command that takes --tol, with small but valid other arguments
TOL_COMMANDS = [
    ["dist-teich", "--from", "i", "--to", "2+3i"],
    ["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--max-depth", "4"],
    ["dist-thurston", "--certified-bound", "--from", "3,3,3", "--to", "3,3,6"],
    ["norm-thurston", "--at", "3,3,6", "--vx", "1", "--vy", "0", "--max-depth", "4"],
    ["converge-boundary", "--base", "3,3,3", "--ks", "2", "--max-depth", "4"],
    ["gardiner-check", "--at", "i", "--samples", "5"],
]


class TestArgumentHandling:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_bad_tol_exits_2(self):
        assert main(["dist-teich", "--from", "i", "--to", "2i", "--tol", "-1"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", TOL_COMMANDS, ids=lambda argv: argv[0] + " --certified-bound" * ("--certified-bound" in argv))
    def test_non_finite_tol_exits_2(self, capsys, argv, tol):
        assert main([*argv, f"--tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tol must be positive and finite\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ["converge-gm", "--base", "0.5+1e-310i", "--ks", "1"],
            ["gardiner-check", "--at", "1e-300i", "--samples", "5"],
        ],
        ids=["converge-gm", "gardiner-check"],
    )
    def test_numeric_fault_exits_1_with_one_error_line(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric fault (") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_past_the_float_range_is_a_numeric_fault(self, capsys, fmt):
        # the dilatation root e^d is about 1e310 here, which no float holds
        argv = ["converge-gm", "--base", "0.5+1e-310i", "--ks", "1", "--format", fmt]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: numeric fault (FloatingPointError): "
                       "a value in the output is not finite\n")

    def test_converge_gm_takes_roots_without_squaring_y(self, capsys):
        # every extremal length is about 1e300, finite, but (q*y)**2 = 1e600
        # on the way to it was not
        assert main(["converge-gm", "--base", "1e300i"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["k"], row["slope"]) for row in rows[:3]] == [(10, "0/1"), (10, "1/1"), (10, "1/2")]
        assert [row["ext_root"] for row in rows[:3]] == [1e150, 1e150, 2e150]

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, monkeypatch):
        # one parser serves every call; options of one call must not leak
        parser = cli._PARSER
        monkeypatch.setattr(cli, "_new_parser", None)  # a call that built one would fail
        args = ["dist-teich", "--from", "0.25+1.5i", "--to=-0.75+0.8i"]
        outs = []
        for extra in ([], ["--tol", "1e-3", "--max-depth", "7"], []):
            assert main(args + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2] != outs[1]
        assert json.loads(outs[2])["engine"]["tol"] == 1e-6
        assert cli._PARSER is parser


JSON_ONLY = {
    "dist-teich": ["--from", "i", "--to", "2i"],
    "dist-thurston": ["--from", "3,3,3", "--to", "3,3,6", "--max-depth", "4"],
    "norm-teich": ["--at", "i", "--vx", "1", "--vy", "0"],
    "norm-thurston": ["--at", "3,3,6", "--vx", "1", "--vy", "0", "--max-depth", "4"],
    "gardiner-check": ["--at", "i", "--samples", "5"],
}


class TestJsonOnlyCommands:
    # JSON is their only output, so they take no --format at all
    @pytest.mark.parametrize("command", sorted(JSON_ONLY))
    def test_csv_is_rejected_by_the_parser(self, command):
        env = dict(os.environ, PYTHONPATH=str(Path(torusmetrics.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "torusmetrics", command, *JSON_ONLY[command], "--format", "csv"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments: --format csv" in proc.stderr

    @pytest.mark.parametrize("command", sorted(JSON_ONLY))
    def test_format_json_is_rejected_too(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *JSON_ONLY[command], "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


# the options of the searches, which the closed-form commands do not take
REMOVED_FLAGS = [
    (command, flag)
    for command in ("norm-teich", "dual-sphere", "converge-gm")
    for flag in (["--tol", "1e-3"], ["--max-depth", "6"], ["--require-certified"])
] + [("gardiner-check", ["--max-depth", "6"]), ("gardiner-check", ["--require-certified"])]
CLOSED_FORM_ARGS = {
    "norm-teich": ["--at", "i", "--vx", "1", "--vy", "0"],
    "dual-sphere": ["--at", "i", "--samples", "8"],
    "converge-gm": ["--base", "i", "--ks", "2"],
    "gardiner-check": ["--at", "i", "--samples", "5"],
}


class TestClosedFormOptions:
    @pytest.mark.parametrize(
        "command, flag", REMOVED_FLAGS, ids=[f"{c} {f[0]}" for c, f in REMOVED_FLAGS])
    def test_search_option_is_rejected_by_the_parser(self, command, flag):
        env = dict(os.environ, PYTHONPATH=str(Path(torusmetrics.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "torusmetrics", command, *CLOSED_FORM_ARGS[command], *flag],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["torusmetrics", "torusmetrics.cli"])
    def test_python_dash_m_matches_main(self, module, capsys):
        args = ["dist-teich", "--from", "0.25+1.5i", "--to=-0.75+0.8i"]
        assert main(args) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(torusmetrics.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    def test_python_dash_m_bad_input_exits_2(self):
        env = dict(os.environ, PYTHONPATH=str(Path(torusmetrics.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "torusmetrics", "dist-teich", "--from", "i", "--to=-2i"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


def readme_cli_examples():
    """Each ``torusmetrics ...`` command of the README's CLI block, as argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("torusmetrics ")]


class TestReadme:
    def test_every_cli_example_exits_0(self, capsys):
        examples = readme_cli_examples()
        assert len(examples) == 9
        for argv in examples:
            assert main(argv) == 0, argv
            capsys.readouterr()


# one argument slot per parsed point; the other arguments are valid and cheap
POINT_SLOTS = {
    "dist-teich --from": (["dist-teich", "--to=i"], "--from"),
    "dist-teich --to": (["dist-teich", "--from=i"], "--to"),
    "dist-thurston --from": (["dist-thurston", "--to=3,3,6", "--max-depth", "3"], "--from"),
    "dist-thurston --to": (["dist-thurston", "--from=3,3,3", "--max-depth", "3"], "--to"),
    "dual-sphere --at": (["dual-sphere", "--samples", "16"], "--at"),
}

_numbers = st.floats() | st.integers(-10, 10) | st.sampled_from(["1e300", "1e-300", "-0", "inf"])
POINT_TEXT = (
    st.text(max_size=30)
    | st.builds("{}+{}i".format, _numbers, _numbers)
    | st.builds("{}i".format, _numbers)
    | st.builds("{},{},{}".format, _numbers, _numbers, _numbers)
    | st.builds("chart:{},{}".format, _numbers, _numbers)
)


class TestPointParsingFuzz:
    @pytest.mark.parametrize("slot", sorted(POINT_SLOTS))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(text=POINT_TEXT)
    def test_any_point_text_exits_0_1_or_2_without_a_traceback(self, slot, text):
        argv, flag = POINT_SLOTS[slot]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, f"{flag}={text}"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()
        if code == 0:  # a finite answer: no NaN or Infinity in the JSON
            json.loads(out.getvalue(), parse_constant=pytest.fail)
