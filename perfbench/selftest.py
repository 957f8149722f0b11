"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # or: python -m pytest perfbench/selftest.py

- the same seed gives identical inputs and identical layer counts;
- the bypass predictions hold as exact counts: spectral_scan makes no
  kernel calls, unitary_search no eig_hermitian and no compat calls, and
  jm_sweep no maximize_chsh calls;
- the tracer wraps functions where callers bound them by name, and
  puts the originals back;
- without the package source next to it, the benchmark exits nonzero
  and prints no result.
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from tracer import Tracer, aggregate  # noqa: E402

# items per traced pass: enough to reach every kind in each mix
SELFTEST_ITEMS = {"unitary_search": 4, "spectral_scan": 16, "jm_sweep": 64, "cli_session": 12}


def traced_counts(name, seed):
    """Exact counts of one traced pass over the workload's first items."""
    wl, items = run.setup(name, seed)
    run.OUT.mkdir(exist_ok=True)
    tracer = Tracer(child_file=run.OUT / "selftest-child-spans.json")
    tracer.install()
    try:
        run.closed_loop(wl, items[: SELFTEST_ITEMS[name]], 0.0, tracer=tracer, whole_passes=True)
    finally:
        tracer.uninstall()
    return {
        f"{fn}.{key}": value
        for fn, row in aggregate(tracer.spans).items()
        for key, value in row.items()
        if key not in ("busy_s", "self_s")
    }


def calls(counts, prefix):
    return sum(v for k, v in counts.items() if k.startswith(prefix) and k.endswith(".calls"))


def test_same_seed_same_inputs():
    import workloads

    for cls in workloads.WORKLOADS.values():
        assert cls().generate(11) == cls().generate(11), cls.name
        assert cls().generate(11) != cls().generate(12), cls.name


def test_same_seed_same_counts_and_bypasses():
    for name in run.WORKLOAD_NAMES:
        first = traced_counts(name, 5)
        assert first == traced_counts(name, 5), name
        assert calls(first, "item.") == SELFTEST_ITEMS[name], name
        if name == "spectral_scan":
            assert calls(first, "kernels.") == 0
            assert calls(first, "linalg.eig_hermitian.d4") > 0
        elif name == "unitary_search":
            assert calls(first, "linalg.eig_hermitian") == 0
            assert calls(first, "compat.") == 0
            assert first["kernels.maximize_chsh.calls"] == 20 * SELFTEST_ITEMS[name]
            assert first["kernels.maximize_chsh.evals"] > 0
        elif name == "jm_sweep":
            assert calls(first, "kernels.maximize_chsh") == 0
            assert first["kernels.dykstra_feasibility.iterations"] > 0
        else:
            assert first["cli.main.calls"] == SELFTEST_ITEMS[name]
            assert first["cli.import.calls"] == SELFTEST_ITEMS[name]


def test_tracer_wraps_every_lookup_site():
    import chshlab
    import chshlab.chsh
    import chshlab.linalg
    import chshlab.measurement

    eig, psd = chshlab.linalg.eig_hermitian, chshlab.linalg.is_psd
    tracer = Tracer()
    tracer.install()
    try:
        assert chshlab.chsh.eig_hermitian is not eig
        assert chshlab.chsh.eig_hermitian is chshlab.linalg.eig_hermitian is chshlab.eig_hermitian
        assert chshlab.measurement.is_psd is not psd
        chshlab.noisy_pauli_povm((0.0, 0.0, 1.0), 0.5)
    finally:
        tracer.uninstall()
    assert chshlab.chsh.eig_hermitian is eig and chshlab.measurement.is_psd is psd
    names = {span[0] for span in tracer.spans}
    assert {"measurement.noisy_pauli_povm", "linalg.is_psd", "linalg.eig_hermitian.d2"} <= names


def test_fails_without_package_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jm_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
