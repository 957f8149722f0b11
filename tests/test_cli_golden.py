"""Byte-identity of the CLI: fixed `main()` invocations against recorded output.

Each case is an argv; its exit code, stdout and stderr must equal the
record in cli_golden.json byte for byte.  `--precision=15` appears only
on runs whose numbers come from closed forms (analytic `jm`, `region`),
so the record does not pin LAPACK's last digits.

An intended output change rewrites the record:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

_JM_AXES = ["z,x", "z,z", "x,y", "z,0.6:0:0.8", "1:1:0,z", "-0.6:0:0.8,0:1:0", "0.3:-0.4:0.5,1:2:2"]
_CANONICAL = ["pi/2,pi/2", "0,0", "pi/4,pi/3", "1,0.7", "0.25pi,pi/2"]
_STATES = ["phi+", "schmidt:0", "schmidt:0.1", "schmidt:0.25", "schmidt:0.5"]


def _cases() -> list[list[str]]:
    cases = []
    for axes in _JM_AXES:
        cases.append(["jm", f"--axes={axes}", "--threshold"])
        cases.append(["jm", f"--axes={axes}", "--threshold", "--format=csv", "--precision=15"])
        cases.append(["jm", f"--axes={axes}", "--lambda=0:1:11", "--precision=15"])
        cases.append(["jm", f"--axes={axes}", "--lambda=0:1:11", "--format=csv"])
        cases.append(["jm", f"--axes={axes}", "--lambda=0.3:1:8", "--method=feasibility"])
        cases.append(["jm", f"--axes={axes}", "--lambda=0.3:1:8", "--method=feasibility", "--format=csv"])
    for lam in ["0", "0.5", "0.7071", "0.70710678118654757", "0.8", "1"]:
        cases.append(["jm", "--axes=z,x", f"--lambda={lam}", "--precision=15"])
        cases.append(["jm", "--axes=z,x", f"--lambda={lam}", "--method=feasibility", "--tol=1e-6"])
    for canonical in _CANONICAL:
        cases.append(["chsh", f"--canonical={canonical}", "--max"])
        cases.append(["chsh", f"--canonical={canonical}", "--max", "--format=csv"])
        for state in _STATES:
            cases.append(["chsh", f"--canonical={canonical}", f"--state={state}"])
    for lam in ["0", "0.5", "0.75", "0.840896", "1"]:
        cases.append(["chsh", f"--noisy={lam}", "--max"])
        cases.append(["chsh", f"--noisy={lam}", "--state=phi+", "--format=csv"])
    for e_grid, d_grid in [("0:0.5:6", "0:1:5"), ("0.5:0.5:1", "1:1:1"), ("0:0.05:4", "0.9:1:3")]:
        for fmt in ["json", "csv"]:
            cases.append(["region", f"--e-grid={e_grid}", f"--delta-grid={d_grid}", f"--format={fmt}"])
            cases.append(
                ["region", f"--e-grid={e_grid}", f"--delta-grid={d_grid}", f"--format={fmt}", "--precision=15"]
            )
    for setting in ["--canonical=pi/2,pi/2", "--canonical=1,0.7", "--noisy=0.9"]:
        for state in ["phi+", "schmidt:0.2"]:
            for fmt in ["json", "csv"]:
                cases.append(["sample", setting, f"--state={state}", "--shots=5000", "--seed=3", f"--format={fmt}"])
    cases += [
        ["verify", "--list"],
        ["verify", "--list", "--format=json"],
        ["verify", "landau"],
        ["verify", "landau", "--seed=1", "--format=json"],
        ["verify", "jm", "--seed=9", "--format=json"],
    ]
    # signed zeros and subnormal sharpness
    cases += [
        ["jm", "--axes=z,x", "--lambda=5e-324", "--precision=15"],
        ["jm", "--axes=-0.6:-0.8:-0,-1:-0:-0", "--lambda=5e-324:1e-323:3", "--method=feasibility"],
        ["jm", "--axes=1:5e-324:0,-0:-1:-0", "--lambda=0:1:4", "--method=feasibility", "--format=csv"],
        ["jm", "--axes=0.6:0.8:0,-0.6:-0.8:0", "--lambda=0:1:5", "--method=feasibility"],
        ["chsh", "--canonical=-0,-0", "--max"],
        ["chsh", "--canonical=-0,pi/2", "--state=schmidt:-0"],
        ["chsh", "--noisy=1", "--state=schmidt:0.3", "--format=csv"],
        ["region", "--e-grid=-0:0.5:3", "--delta-grid=-0:-0:1", "--precision=15"],
        ["sample", "--canonical=-0,1", "--state=phi+", "--shots=100"],
    ]
    # refusals: the exit code and the one JSON line on stderr
    cases += [
        ["jm", "--axes=z", "--lambda=0.5"],
        ["jm", "--axes=nan:0:0,z", "--lambda=0.5"],
        ["jm", "--axes=0:0:0,z", "--threshold"],
        ["jm", "--axes=z,x", "--lambda=1.5"],
        ["jm", "--axes=z,x", "--lambda=0.9", "--method=feasibility", "--tol=0.3"],
        ["jm", "--axes=z,x", "--lambda=1:0:3"],
        ["chsh", "--canonical=90deg,90deg", "--max"],
        ["chsh", "--canonical=pi/0,1", "--max"],
        ["chsh", "--canonical=1,1", "--state=schmidt:0.7"],
        ["chsh", "--noisy=1.5", "--max"],
        ["region", "--e-grid=0:0.9:3", "--delta-grid=0:1:3"],
        ["sample", "--canonical=1,1", "--state=phi+", "--seed=-1"],
        ["verify", "nope"],
    ]
    return cases


CASES = _cases()


def run_main(argv: list[str]) -> list:
    """[argv, exit code, stdout, stderr] of one in-process `main()` call."""
    from chshlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return [argv, rc, out.getvalue(), err.getvalue()]


def _load() -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_lists_every_case():
    assert [rec[0] for rec in _load()] == CASES


@pytest.fixture(scope="module")
def golden():
    return {tuple(rec[0]): rec for rec in _load()}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_record(argv, golden):
    assert run_main(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    records = [run_main(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
