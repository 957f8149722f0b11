"""CLI surface: subcommands, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chshlab import cli, verify
from chshlab.cli import MAX_GRID_STEPS, Emitter, main
from chshlab.errors import NonFiniteOutputError

TSIRELSON = 2.8284271247461903


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _process_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_process(argv):
    """`python -m chshlab.cli ARGV` in a fresh interpreter, for what only a
    whole process shows (warnings written to stderr, the entry point)."""
    return subprocess.run(
        [sys.executable, "-m", "chshlab.cli", *argv], capture_output=True, text=True, env=_process_env()
    )


def write_state(path, entries):
    path.write_text(json.dumps({"rho": entries}))
    return str(path)


class TestJm:
    def test_incompatible_above_threshold(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes", "z,x", "--lambda", "0.8"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["status"] == "Incompatible"

    def test_parallel_axes_compatible(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes", "z,z", "--lambda", "0.99"])
        assert rc == 0
        assert json.loads(out)["verdicts"][0]["status"] == "Compatible"

    def test_threshold(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes", "z,x", "--threshold", "--precision", "15"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["threshold"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_lambda_range_includes_threshold(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes", "z,x", "--lambda", "0.5:1:6"])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["verdicts"]) == 6
        statuses = [v["status"] for v in doc["verdicts"]]
        assert statuses[0] == "Compatible"
        assert statuses[-1] == "Incompatible"
        assert doc["threshold"] == pytest.approx(0.707107, abs=1e-5)

    def test_feasibility_method(self, capsys):
        # Incompatible comes from the exact criterion, Compatible from a certificate
        rc, out, _ = run(
            capsys, ["jm", "--axes", "z,x", "--lambda", "0.5:0.9:2", "--method", "feasibility"]
        )
        assert rc == 0
        compatible, incompatible = json.loads(out)["verdicts"]
        assert compatible["status"] == "Compatible"
        assert compatible["method"] == "Feasibility"
        assert incompatible["status"] == "Incompatible"
        assert incompatible["method"] == "Analytic"
        assert incompatible["margin"] == pytest.approx(1 - 2 * 0.9**2, abs=1e-6)

    def test_feasibility_margin_zero_is_not_negative(self, capsys):
        # a certificate with residual 0 has margin 0.0, which prints as 0, never -0
        argv = ["jm", "--axes=z,x", "--lambda=0:1:5", "--method=feasibility"]
        _, out, _ = run(capsys, argv + ["--format=csv"])
        assert out.splitlines()[2:5] == [
            "0,Compatible,0,Feasibility",
            "0.25,Compatible,0,Feasibility",
            "0.5,Compatible,0,Feasibility",
        ]
        _, out, _ = run(capsys, argv + ["--format=json"])
        assert '"margin": -0.0' not in out
        assert [v["margin"] for v in json.loads(out)["verdicts"][:3]] == [0.0, 0.0, 0.0]

    def test_analytic_margins_unchanged(self, capsys):
        _, out, _ = run(capsys, ["jm", "--axes=z,x", "--lambda=0:1:5", "--format=csv"])
        assert out == (
            "# threshold = 0.707107\n"
            "lambda,status,margin,method\n"
            "0,Compatible,2,AnalyticUnbiased\n"
            "0.25,Compatible,1.29289,AnalyticUnbiased\n"
            "0.5,Compatible,0.585786,AnalyticUnbiased\n"
            "0.75,Incompatible,-0.12132,AnalyticUnbiased\n"
            "1,Incompatible,-0.828427,AnalyticUnbiased\n"
        )

    def test_huge_axis_components(self):
        # the norm of 1e308:1e308:0 overflows unless the axis is scaled first
        proc = run_process(["jm", "--axes=1e308:1e308:0,z", "--threshold"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["threshold"] == 0.707107

    def test_triple_axis_token(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes", "z,1:0:1", "--threshold", "--precision", "12"])
        assert rc == 0
        # 45 degrees between axes: threshold = 2/(|a+b| + |a-b|)
        a = np.array([0, 0, 1.0])
        b = np.array([1.0, 0, 1.0]) / np.sqrt(2)
        expected = 2 / (np.linalg.norm(a + b) + np.linalg.norm(a - b))
        assert json.loads(out)["threshold"] == pytest.approx(expected, abs=1e-6)

    def test_malformed_axes(self, capsys):
        rc, _, err = run(capsys, ["jm", "--axes", "z", "--lambda", "0.5"])
        assert rc == 2
        assert json.loads(err)["code"] == "usage"

    def test_non_finite_axis_component(self, capsys):
        rc, out, err = run(capsys, ["jm", "--axes=nan:0:0,z", "--lambda=0.5"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "usage"

    def test_infinite_tol_refused_by_feasibility(self, capsys):
        rc, out, err = run(
            capsys, ["jm", "--axes=z,x", "--lambda=0.9", "--method=feasibility", "--tol=inf"]
        )
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "invalid_tolerance"

    @pytest.mark.parametrize("lam,tol", [("0.9", "1e308"), ("0.72", "0.3"), ("0.75", "0.3"), ("0.8", "0.3")])
    def test_tol_above_cap_refused(self, capsys, lam, tol):
        # both criteria call these pairs Incompatible; at such a tol the
        # search used to print Compatible, with a parent whose effects have
        # eigenvalues down to -tol
        rc, out, err = run(
            capsys, ["jm", "--axes=z,x", f"--lambda={lam}", "--method=feasibility", f"--tol={tol}"]
        )
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "invalid_tolerance"

    def test_nan_tol_refused_by_threshold(self, capsys):
        rc, out, err = run(capsys, ["jm", "--axes=z,x", "--threshold", "--tol=nan"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "invalid_tolerance"

    def test_nan_tol_refused_by_analytic(self, capsys):
        rc, out, err = run(capsys, ["jm", "--axes=z,x", "--lambda=0.5", "--tol=nan"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "invalid_tolerance"

    def test_tol_does_not_move_threshold(self, capsys):
        rc, out, _ = run(capsys, ["jm", "--axes=z,x", "--threshold", "--tol=1e-4"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["threshold"] == doc["closed_form"] == 0.707107
        assert doc["tol"] == 1e-4

    def test_non_numeric_lambda(self, capsys):
        rc, out, err = run(capsys, ["jm", "--axes=z,x", "--lambda=abc"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "usage"


class TestChsh:
    def test_tsirelson(self, capsys):
        rc, out, _ = run(
            capsys,
            ["chsh", "--canonical", "pi/2,pi/2", "--state", "phi+", "--precision", "15"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(TSIRELSON, abs=1e-9)
        assert doc["violates"] is True

    def test_noisy_boundary(self, capsys):
        rc, out, _ = run(capsys, ["chsh", "--noisy", "0.840896", "--max"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2.0, abs=1e-5)
        assert doc["violates"] is False

    def test_commuting_canonical_max(self, capsys):
        rc, out, _ = run(capsys, ["chsh", "--canonical", "0,0", "--max", "--precision", "12"])
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)

    def test_schmidt_state(self, capsys):
        rc, out, _ = run(
            capsys,
            ["chsh", "--canonical", "pi/2,pi/2", "--state", "schmidt:0.25", "--precision", "15"],
        )
        assert rc == 0
        # closed form at delta=1: (2-X) sqrt(2)
        x = 1 - 2 * np.sqrt(0.25 * 0.75)
        assert json.loads(out)["value"] == pytest.approx((2 - x) * np.sqrt(2), abs=1e-9)

    def test_state_file(self, capsys, tmp_path):
        rho = np.eye(4) / 4
        payload = {"rho": [[[float(c.real), float(c.imag)] for c in row] for row in rho]}
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(payload))
        rc, out, _ = run(capsys, ["chsh", "--canonical", "pi/2,pi/2", "--state", str(path)])
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_state_file(self, capsys, tmp_path):
        rho = np.eye(4)  # trace 4
        payload = [[[float(c.real), float(c.imag)] for c in row] for row in rho]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(payload))
        rc, _, err = run(capsys, ["chsh", "--canonical", "pi/2,pi/2", "--state", str(path)])
        assert rc == 2
        assert json.loads(err)["code"] == "invalid_state"

    def test_ragged_state_file(self, capsys, tmp_path):
        state = write_state(tmp_path / "rho.json", [[[0.25, 0.0]] * 4] * 3 + [[[0.25, 0.0]]])
        rc, out, err = run(capsys, ["chsh", "--canonical=pi/2,pi/2", f"--state={state}"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.parametrize(
        "entry", [[0.25, 0.0, 7.0], [0.25], {"re": 0.25}, "0.25", [10**400, 0]]
    )
    def test_state_entry_not_a_pair(self, capsys, tmp_path, entry):
        entries = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        entries[0][0] = entry
        state = write_state(tmp_path / "rho.json", entries)
        rc, out, err = run(capsys, ["chsh", "--canonical=1,0.7", f"--state={state}"])
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "usage" and state in doc["message"]

    def test_non_finite_state_entry(self, capsys, tmp_path):
        entries = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        entries[0][1] = [float("nan"), 0.0]
        state = write_state(tmp_path / "rho.json", entries)
        rc, out, err = run(capsys, ["chsh", "--canonical=pi/2,pi/2", f"--state={state}"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "invalid_state"

    def test_degrees_rejected(self, capsys):
        rc, _, err = run(capsys, ["chsh", "--canonical", "90deg,90deg", "--max"])
        assert rc == 2
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.parametrize("angle", ["pi/0", "pi/0.0"])
    def test_zero_denominator_refused(self, angle):
        proc = run_process(["chsh", f"--canonical={angle},0", "--max"])
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "usage"

    def test_needs_state_or_max(self, capsys):
        rc, _, err = run(capsys, ["chsh", "--canonical", "0,0"])
        assert rc == 2


class TestRegion:
    def test_rows_and_flags(self, capsys):
        rc, out, _ = run(
            capsys,
            ["region", "--e-grid", "0.03:0.03:1", "--delta-grid", "0.1:1:2", "--precision", "12"],
        )
        assert rc == 0
        doc = json.loads(out)
        rows = doc["rows"]
        assert rows[0]["nonlocal"] is True  # (0.03, 0.1)
        assert rows[1]["nonlocal"] is False  # (0.03, 1.0)
        assert rows[0]["chsh_max"] == pytest.approx(2.031652424931163, abs=1e-9)
        assert rows[1]["chsh_max"] == pytest.approx(1.896707085645688, abs=1e-9)
        assert doc["entanglement_threshold"] == pytest.approx(0.04491013943777261, abs=1e-9)

    def test_maximal_cell(self, capsys):
        rc, out, _ = run(capsys, ["region", "--e-grid", "0.5:0.5:1", "--delta-grid", "1:1:1"])
        doc = json.loads(out)
        assert doc["rows"][0]["chsh_max"] == pytest.approx(2.82843, abs=1e-5)
        assert doc["rows"][0]["nonlocal"] is True

    def test_zero_delta_never_nonlocal(self, capsys):
        rc, out, _ = run(capsys, ["region", "--e-grid", "0:0.5:6", "--delta-grid", "0:0:1"])
        for row in json.loads(out)["rows"]:
            assert row["chsh_max"] == 2
            assert row["nonlocal"] is False

    def test_csv_schema(self, capsys):
        rc, out, _ = run(
            capsys,
            ["region", "--e-grid", "0:0.5:2", "--delta-grid", "0:1:3", "--format", "csv"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# entanglement_threshold = ")
        assert lines[1] == "E,delta,chsh_max,nonlocal"
        assert len(lines) == 2 + 2 * 3
        first = lines[2].split(",")
        assert first[3] in ("true", "false")

    def test_byte_determinism(self, capsys):
        argv = ["region", "--e-grid", "0:0.5:4", "--delta-grid", "0:1:4", "--format", "csv"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_malformed_grid(self, capsys):
        rc, _, err = run(capsys, ["region", "--e-grid", "0.5:0:3", "--delta-grid", "0:1:3"])
        assert rc == 2
        assert json.loads(err)["code"] == "usage"
        rc, _, _ = run(capsys, ["region", "--e-grid", "0:0.5:0", "--delta-grid", "0:1:3"])
        assert rc == 2
        rc, _, err = run(capsys, ["region", "--e-grid", "0:0.9:3", "--delta-grid", "0:1:3"])
        assert rc == 2
        assert json.loads(err)["code"] == "out_of_range"

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--e-grid=0:0:1", "--delta-grid=-1e308:1e308:1"],
            ["region", "--e-grid=-1e308:1e308:3", "--delta-grid=0:1:2"],
            ["jm", "--axes=z,x", "--lambda=-1e308:1e308:3"],
        ],
    )
    def test_grid_span_overflow_refused(self, capsys, argv):
        # numpy.linspace warned "overflow encountered in subtract" on stderr
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        grid = next(a.split("=")[1] for a in argv if "1e308" in a)
        assert json.loads(err) == {"code": "usage", "message": f"grid {grid!r}: stop - start overflows"}

    def test_non_finite_grid_writes_one_json_line(self):
        proc = run_process(["region", "--e-grid=0:0.5:3", "--delta-grid=0:inf:2"])
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "usage"


class TestSample:
    ARGS = ["sample", "--canonical", "pi/2,pi/2", "--state", "phi+", "--shots", "20000"]

    def test_estimate_within_5_sigma(self, capsys):
        rc, out, _ = run(capsys, self.ARGS + ["--seed", "3", "--precision", "15"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["exact"] == pytest.approx(TSIRELSON, abs=1e-9)
        assert abs(doc["estimate"] - doc["exact"]) <= 5 * doc["std_error"]
        assert doc["n_sigma"] <= 5

    def test_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, self.ARGS + ["--seed", "3"])
        _, out2, _ = run(capsys, self.ARGS + ["--seed", "3"])
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, self.ARGS + ["--seed", "1"])
        _, out2, _ = run(capsys, self.ARGS + ["--seed", "2"])
        assert out1 != out2

    @pytest.mark.parametrize("flag", ["--seed=-1", f"--shots={2**63}"])
    def test_draw_out_of_range(self, capsys, flag):
        rc, out, err = run(capsys, self.ARGS + [flag])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "out_of_range"


class TestVerify:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--list"])
        assert rc == 0
        assert out.split() == ["f1", "jm", "landau"]
        rc, out, _ = run(capsys, ["verify", "--list", "--format", "json"])
        assert json.loads(out)["suites"] == ["f1", "jm", "landau"]

    def test_jm_suite_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "jm", "--seed", "7", "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {c["check"] for c in doc["checks"]} == {
            "analytic_vs_feasibility",
            "criterion_vs_feasibility",
            "certificate_defect",
            "threshold_z_x",
        }

    def test_text_output_lines(self, capsys):
        rc, out, _ = run(capsys, ["verify", "jm", "--seed", "7"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "OK"

    def test_landau_suite_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "landau", "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 3

    @pytest.mark.parametrize("suite", ["f1", "landau", "jm"])
    def test_negative_seed_refused(self, capsys, suite):
        rc, out, err = run(capsys, ["verify", suite, "--seed=-1"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "usage"

    def test_unknown_suite(self, capsys):
        rc, _, err = run(capsys, ["verify", "nope"])
        assert rc == 2
        assert json.loads(err)["code"] == "usage"

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify.SUITES, "stub", lambda seed: [{"check": "broken", "max_dev": 1.0, "tol": 0.0}]
        )
        rc, out, _ = run(capsys, ["verify", "stub"])
        assert rc == 1
        assert out.strip().splitlines()[-1] == "FAILED"


class TestNonFiniteOutput:
    """NaN and ±inf are refused in every format: exit 2, one JSON line on
    stderr, nothing on stdout."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_json_refuses(self, bad):
        buf = io.StringIO()
        with pytest.raises(NonFiniteOutputError):
            Emitter("json", 6, buf).json({"ok": 1.0, "rows": [[0.5, bad]]})
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_csv_refuses(self, bad):
        em = Emitter("csv", 6, io.StringIO())
        with pytest.raises(NonFiniteOutputError):
            em.text(bad)
        with pytest.raises(NonFiniteOutputError):
            em.table({}, ["a", "b"], [[0.5, 1.0], [bad, 2.0]], comments=["c = 1"])
        assert em.out.getvalue() == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exit_code(self, capsys, monkeypatch, fmt):
        def emits_nan(args, em):
            em.table({"value": float("nan")}, ["value"])
            return 0

        monkeypatch.setattr(cli, "cmd_chsh", emits_nan)
        rc, out, err = run(capsys, ["chsh", "--canonical=0,0", "--max", f"--format={fmt}"])
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "non_finite_output"
        assert "nan" in lines[0] and "NaN" not in lines[0]


class TestPlumbing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["jm", "--axes=z,x", "--lambda=0:1:100000000000000"],
            ["region", "--e-grid=0:0.5:100000000000000", "--delta-grid=0:1:2"],
            ["region", "--e-grid=0:0.5:1001", "--delta-grid=0:1:1000"],
        ],
        ids=["jm-lambda", "region-e", "region-cells"],
    )
    def test_grid_size_bounded(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "usage"

    def test_output_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        rc, out, err = run(capsys, ["chsh", "--canonical=0,0", "--max", f"--output={path}"])
        assert rc == 2 and out == ""
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_output_write_fails(self):
        # /dev/full opens fine and refuses every write with ENOSPC
        proc = run_process(["jm", "--axes=z,x", "--lambda=0.5", "--output=/dev/full"])
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["code"] == "usage" and doc["message"].startswith("--output:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_stdout_write_fails(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "chshlab.cli", "jm", "--axes=z,x", "--lambda=0.5"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=_process_env(),
            )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["code"] == "usage" and doc["message"].startswith("stdout:")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc, out, _ = run(
            capsys, ["chsh", "--canonical", "0,0", "--max", "--output", str(path)]
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text())["value"] == 2

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"e_grid": "0:0.5:2", "delta_grid": "0:1:2", "precision": 9}))
        rc, out, _ = run(capsys, ["region", "--config", str(cfg)])
        assert rc == 0
        assert len(json.loads(out)["rows"]) == 4
        # flag overrides config
        rc, out, _ = run(capsys, ["region", "--config", str(cfg), "--delta-grid", "0:1:3"])
        assert len(json.loads(out)["rows"]) == 6

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        rc, _, err = run(capsys, ["region", "--config", str(cfg), "--e-grid", "0:0:1", "--delta-grid", "0:0:1"])
        assert rc == 2
        assert "no_such_flag" in json.loads(err)["message"]

    def test_config_fractional_shots_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 1.5}))
        argv = ["sample", "--canonical=pi/2,pi/2", "--state=phi+", f"--config={cfg}"]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert "--shots" in json.loads(err)["message"]

    def test_config_method_checked_against_choices(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bogus"}))
        rc, out, err = run(capsys, ["jm", "--axes=z,x", "--lambda=0.8", f"--config={cfg}"])
        assert rc == 2 and out == ""
        assert "--method" in json.loads(err)["message"]

    def test_config_on_off_flag_takes_json_bool(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max": "false"}))
        rc, out, err = run(capsys, ["chsh", "--canonical=0,0", f"--config={cfg}"])
        assert rc == 2 and out == ""
        assert "max" in json.loads(err)["message"]
        cfg.write_text(json.dumps({"max": True}))
        rc, out, _ = run(capsys, ["chsh", "--canonical=0,0", f"--config={cfg}"])
        assert rc == 0
        assert json.loads(out)["value"] == 2

    def test_config_positional_suite(self, capsys, tmp_path, monkeypatch):
        for name in ("stub_a", "stub_b"):
            monkeypatch.setitem(
                verify.SUITES, name, lambda seed, name=name: [{"check": name, "max_dev": 0.0, "tol": 0.0}]
            )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "stub_a", "seed": 3}))
        rc, out, _ = run(capsys, ["verify", f"--config={cfg}", "--format=json"])
        assert rc == 0
        doc = json.loads(out)
        assert (doc["suite"], doc["seed"], doc["checks"][0]["check"]) == ("stub_a", 3, "stub_a")
        # a suite named on the command line wins over the config file's
        rc, out, _ = run(capsys, ["verify", "stub_b", f"--config={cfg}", "--format=json"])
        assert rc == 0
        assert json.loads(out)["suite"] == "stub_b"

    def test_precision_flag_width(self, capsys):
        _, out6, _ = run(capsys, ["chsh", "--canonical", "pi/2,pi/2", "--state", "phi+"])
        _, out15, _ = run(
            capsys,
            ["chsh", "--canonical", "pi/2,pi/2", "--state", "phi+", "--precision", "15"],
        )
        assert json.loads(out6)["value"] == 2.82843
        assert json.loads(out15)["value"] == pytest.approx(TSIRELSON, abs=1e-14)

    def test_precision_out_of_range(self, capsys):
        rc, _, _ = run(capsys, ["chsh", "--canonical", "0,0", "--max", "--precision", "16"])
        assert rc == 2

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, ["region", "--e-grid", "0:0.5:3", "--delta-grid", "0:1:3"])
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_reader_closes_pipe_early(self):
        # `chshlab region ... | head -1`: the 1.2 MB table overfills the pipe,
        # so the writer is blocked when the reader goes away
        argv = ["region", "--e-grid=0:0.5:200", "--delta-grid=0:1:200", "--format=csv"]
        with subprocess.Popen(
            [sys.executable, "-m", "chshlab.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_process_env(),
        ) as proc:
            assert proc.stdout.readline().startswith(b"# ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_module_entrypoint(self):
        proc = run_process(["chsh", "--canonical", "0,0", "--max"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 2


def _grid(lo, hi):
    bound = st.floats(lo, hi).map(lambda v: round(v, 6))
    return st.tuples(bound, bound, st.integers(1, 4)).map(
        lambda t: f"{min(t[:2])!r}:{max(t[:2])!r}:{t[2]}"
    )


_PRECISION = st.integers(1, 15).map(lambda p: ("precision", "--precision", p))
_FORMAT = st.sampled_from(["json", "csv"]).map(lambda f: ("format", "--format", f))
_AXIS = st.sampled_from(["x", "y", "z", "0.6:0:0.8", "-0.6:0:0.8", "1:1:0"])
_UNIT = st.floats(0.0, 1.0).map(lambda v: round(v, 6))
_ANGLE = st.floats(0.0, 1.5707).map(lambda v: round(v, 4))

# (subcommand, [(dest, flag, value)]): value True stands for a bare on/off flag
_REGION = st.tuples(
    st.just("region"),
    st.tuples(
        _grid(0.0, 0.5).map(lambda g: ("e_grid", "--e-grid", g)),
        _grid(0.0, 1.0).map(lambda g: ("delta_grid", "--delta-grid", g)),
        _PRECISION,
        _FORMAT,
    ),
)
_JM = st.tuples(
    st.just("jm"),
    st.tuples(
        st.tuples(_AXIS, _AXIS).map(lambda a: ("axes", "--axes", ",".join(a))),
        st.one_of(
            _UNIT.map(lambda v: ("lam", "--lambda", repr(v))),
            _grid(0.0, 1.0).map(lambda g: ("lam", "--lambda", g)),
            st.just(("threshold", "--threshold", True)),
        ),
        st.sampled_from(["analytic", "feasibility"]).map(lambda m: ("method", "--method", m)),
        st.sampled_from([1e-9, 1e-6, 1e-3]).map(lambda t: ("tol", "--tol", t)),
        _PRECISION,
        _FORMAT,
    ),
)
_SAMPLE = st.tuples(
    st.just("sample"),
    st.tuples(
        st.one_of(
            st.tuples(_ANGLE, _ANGLE).map(lambda a: ("canonical", "--canonical", f"{a[0]!r},{a[1]!r}")),
            _UNIT.map(lambda v: ("noisy", "--noisy", v)),
        ),
        st.one_of(
            st.just("phi+"), st.floats(0.0, 0.5).map(lambda e: f"schmidt:{round(e, 6)!r}")
        ).map(lambda s: ("state", "--state", s)),
        st.integers(1, 5000).map(lambda n: ("shots", "--shots", n)),
        st.integers(0, 2**31).map(lambda n: ("seed", "--seed", n)),
        _PRECISION,
        _FORMAT,
    ),
)


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestConfigMatchesFlags:
    """A config file is one more way to write the same tokens: any split of
    valid options between the file and the command line prints the same
    bytes as passing every option as a flag."""

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(_REGION, _JM, _SAMPLE), st.data())
    def test_same_stdout(self, command, data):
        name, options = command
        in_config = data.draw(st.lists(st.booleans(), min_size=len(options), max_size=len(options)))

        def token(flag, value):
            return flag if value is True else f"{flag}={value}"

        flags_run = _main_output([name, *(token(f, v) for _, f, v in options)])
        assert flags_run[0] == 0, flags_run[2]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({d: v for (d, _, v), c in zip(options, in_config) if c}, fh)
            argv = [name, *(token(f, v) for (_, f, v), c in zip(options, in_config) if not c)]
            config_run = _main_output([*argv, f"--config={cfg}"])
        assert config_run == flags_run


# jm options drawn valid, edge values included; then at most one is
# replaced by an odd one
_COMPONENT = st.one_of(
    st.floats(-2.0, 2.0).map(repr), st.sampled_from(["0", "-0", "5e-324", "-5e-324", "1e308", "-1e308"])
)
_AXIS_TOKEN = st.one_of(st.sampled_from(["x", "y", "z"]), st.tuples(*[_COMPONENT] * 3).map(":".join))
_UNIT_TOKEN = st.floats(0.0, 1.0).map(repr)
_BAD_NUMBER = st.sampled_from(["nan", "inf", "-inf", "1e999", "1e308", "-1e308", "-0.5", "abc", ""])
_ODD_AXIS_TOKEN = st.one_of(
    st.sampled_from(["w", "", "1:2", "1:2:3:4", "0:-0:0"]),
    st.tuples(_BAD_NUMBER, _COMPONENT, _COMPONENT).map(":".join),
)
_OPTIONS = {
    "axes": st.tuples(_AXIS_TOKEN, _AXIS_TOKEN).map(",".join),
    "lambda": st.none() | _UNIT_TOKEN | st.tuples(_UNIT_TOKEN, _UNIT_TOKEN, st.integers(1, 50)).map(
        lambda t: f"{min(t[:2], key=float)}:{max(t[:2], key=float)}:{t[2]}"
    ),
    "tol": st.none() | st.sampled_from(["1e-9", "1e-6", "1e-3"]),
    "precision": st.none() | st.integers(1, 15).map(str),
}
_ODD_OPTIONS = {
    "axes": st.one_of(
        st.tuples(_ODD_AXIS_TOKEN, _AXIS_TOKEN).map(",".join),
        st.tuples(_AXIS_TOKEN, _ODD_AXIS_TOKEN).map(",".join),
    ),
    "lambda": st.one_of(
        _BAD_NUMBER,
        st.tuples(
            _BAD_NUMBER | _UNIT_TOKEN,
            _BAD_NUMBER | _UNIT_TOKEN,
            st.sampled_from(["0", "-1", "1.5", "x", str(MAX_GRID_STEPS + 1)]),
        ).map(":".join),
    ),
    "tol": st.sampled_from(["0", "-1e-9", "0.3", "1e308", "nan", "inf", "x"]),
    "precision": st.sampled_from(["0", "16", "x"]),
}


def _refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


def _assert_exit_contract(argv, fmt):
    """main(argv) returns 0 with parseable stdout and an empty stderr, or 2
    with an empty stdout and one JSON line on stderr."""
    rc, out, err = _main_output(argv)
    assert rc in (0, 2)
    if rc == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"code", "message"}
        return
    assert err == ""
    if fmt == "json":
        assert len(out.splitlines()) == 1
        json.loads(out, parse_constant=_refuse_constant)
    else:
        header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert rows and all(len(row) == len(header) for row in rows)


class TestJmExitContract:
    """Whatever the jm command line, main() returns 0 with parseable stdout
    and an empty stderr, or 2 with an empty stdout and one JSON line on
    stderr.  No exception escapes it, and the suite turns warnings into
    exceptions."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exits_0_or_2(self, data):
        options = {name: data.draw(strategy, label=name) for name, strategy in _OPTIONS.items()}
        odd = data.draw(st.sampled_from([None, *_ODD_OPTIONS]), label="odd")
        if odd is not None:
            options[odd] = data.draw(_ODD_OPTIONS[odd], label=f"odd {odd}")
        fmt = data.draw(st.sampled_from(["json", "csv"]), label="format")
        argv = ["jm", f"--method={data.draw(st.sampled_from(['analytic', 'feasibility']))}", f"--format={fmt}"]
        argv += ["--threshold"] if data.draw(st.booleans(), label="threshold") else []
        argv += [f"--{name}={value}" for name, value in options.items() if value is not None]
        _assert_exit_contract(argv, fmt)


# odd numbers for every numeric token of chsh and region
_ODD_NUMBER = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324", "-0", "-1e-300", "x", ""]
)


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), _ODD_NUMBER)


_ANGLE_TOKEN = st.one_of(
    _number(0.0, 1.5707963267948966),
    st.sampled_from(["pi/2", "0.5pi", "pi/4", "2pi", "-pi", "pi/0", "1e308pi", "90deg", "pi/1e-300"]),
)
_STATE_TOKEN = st.one_of(
    st.just("phi+"),
    _number(0.0, 0.5).map(lambda v: f"schmidt:{v}"),
    st.sampled_from(["schmidt:0.5000000001", "schmidt:", "nope", "no/such/state.json"]),
)
# step counts at the cell limit pair with a second grid that pushes the
# product past it, so no accepted grid holds more than 50 x 50 cells
_STEPS = st.one_of(
    st.integers(1, 50).map(str),
    st.sampled_from(["0", "-1", "1.5", "x", str(MAX_GRID_STEPS - 1), str(MAX_GRID_STEPS), str(MAX_GRID_STEPS + 1)]),
)


def _grid_token(lo, hi):
    return st.tuples(_number(lo, hi), _number(lo, hi), _STEPS).map(":".join)


def _small_enough(e_grid, d_grid):
    counts = []
    for grid in (e_grid, d_grid):
        try:
            counts.append(int(grid.rsplit(":", 1)[1]))
        except ValueError:
            return True  # refused while parsing
    return max(counts) <= 50 or counts[0] * counts[1] > MAX_GRID_STEPS


class TestChshExitContract:
    """The jm exit contract, for chsh: odd angles, sharpness and states."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exits_0_or_2(self, data):
        fmt = data.draw(st.sampled_from(["json", "csv"]), label="format")
        argv = ["chsh", f"--format={fmt}"]
        if data.draw(st.booleans(), label="canonical"):
            angles = data.draw(st.tuples(_ANGLE_TOKEN, _ANGLE_TOKEN), label="angles")
            argv.append(f"--canonical={','.join(angles)}")
        else:
            argv.append(f"--noisy={data.draw(_number(0.0, 1.0), label='noisy')}")
        mode = data.draw(st.sampled_from(["max", "state", "both"]), label="mode")
        if mode != "state":
            argv.append("--max")
        if mode != "max":
            argv.append(f"--state={data.draw(_STATE_TOKEN, label='state')}")
        precision = data.draw(st.none() | st.integers(0, 16), label="precision")
        argv += [] if precision is None else [f"--precision={precision}"]
        _assert_exit_contract(argv, fmt)


class TestRegionExitContract:
    """The jm exit contract, for region: odd grid bounds and step counts."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exits_0_or_2(self, data):
        e_grid = data.draw(_grid_token(0.0, 0.5), label="e-grid")
        d_grid = data.draw(_grid_token(0.0, 1.0), label="delta-grid")
        assume(_small_enough(e_grid, d_grid))
        fmt = data.draw(st.sampled_from(["json", "csv"]), label="format")
        _assert_exit_contract(["region", f"--e-grid={e_grid}", f"--delta-grid={d_grid}", f"--format={fmt}"], fmt)
