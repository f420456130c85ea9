import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusmetrics
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

    def test_stdout_when_no_output_path(self, capsys):
        assert main(["dist-teich", "--from", "i", "--to", "2i"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "dist-teich"


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

    def test_sweep_stopped_by_max_evals_is_noted_on_stderr(self, capsys):
        assert main(["dist-thurston", "--from", "3,3,3", "--to", "3,3,6", "--max-depth", "30"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["engine"]["evals"] == 200_000
        assert err.splitlines() == [
            "note: max_evals stopped the sweep at depth 17 of 30 after 200000 of 3221225472 "
            "evaluations"
        ]

    def test_no_note_for_full_sweeps_or_certified_searches(self, capsys):
        pair = ["--from", "3,3,3", "--to", "3,3,6"]
        assert main(["dist-thurston", *pair, "--max-depth", "16"]) == 0
        assert main(["dist-thurston", *pair, "--certified-bound", "--tol", "0.005",
                     "--max-depth", "2000"]) == 0
        assert capsys.readouterr().err == ""

    def test_out_of_chart_exits_2(self):
        assert main(["dist-thurston", "--from", "chart:2.5,2.5", "--to", "3,3,6"]) == 2


class TestNorms:
    def test_norm_teich_oracle_value(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["norm-teich", "--at", "i", "--vx", "1", "--vy", "0"]
        )
        assert code == 0
        assert json.loads(path.read_text())["norm"] == pytest.approx(0.5, abs=1e-9)

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
        assert lines[1] == "k,slope,length,L_X,normalized_value"
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

    def test_converge_boundary_overflowing_twist_exits_2(self, capsys):
        code = main(["converge-boundary", "--base", "3,3,3", "--ks", "400", "--max-depth", "6"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --ks 400:") and "exceed" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_converge_gm_csv(self, tmp_path):
        code, path = run_to_file(
            tmp_path,
            ["converge-gm", "--base", "i", "--ks", "2,4", "--slopes", "0/1,1/1",
             "--format", "csv"],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "k,slope,ext_root,K_root,normalized_value"
        assert len(lines) == 2 + 4

    def test_gardiner_check_passes(self, tmp_path):
        code, path = run_to_file(
            tmp_path, ["gardiner-check", "--at", "0.4+0.9i", "--samples", "60"]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["pass"] is True
        assert payload["max_rel_err"] <= 1e-6


class TestArgumentHandling:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_bad_tol_exits_2(self):
        assert main(["dist-teich", "--from", "i", "--to", "2i", "--tol", "-1"]) == 2


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
