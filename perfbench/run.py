#!/usr/bin/env python3
"""chshlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src, as
checked out; nothing is installed).  Workloads: unitary_search,
spectral_scan, jm_sweep, cli_session (see perfbench/README.md).

--trace 0 measures the end-to-end metrics: a closed loop, one item at a
time from this process, for S seconds of wall time after set-up; set-up
itself is timed in separate fresh interpreters.  Times are reported at
reference speed (see calibrate.py): a fixed kernel timed between items
tracks the shared host's drifting speed, and each time is scaled by it.
Wall times are printed beside them and kept in the record.  --trace 1 repeats a
fixed block of items, first untraced and then with every layer wrapped
in spans, and reports per-layer metrics per pass over the block.  Each
output is checked by an oracle right after its item, outside the timed
region.  The last line of stdout is the JSON result; the full record
goes to perfbench/out/.
"""

import os

# BLAS/OpenMP pools pinned to one thread, for this process and every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("unitary_search", "spectral_scan", "jm_sweep", "cli_session")
SETUP_RUNS = 7
SETUP_REPS = 9  # kernel calls per speed sample around a set-up probe
SLICE_S = 0.05  # item time between two machine-speed samples
NPROC = len(os.sched_getaffinity(0))  # before pinning
PROBE_TIMEOUT_S = 60
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
CLI_SUBCOMMANDS = ("jm", "chsh", "region", "sample")

# (layer function, metrics taken from its spans), in the order reported
LAYER_TIMES = (
    ("kernels.maximize_chsh", ("calls", "busy_s")),
    ("entanglement.max_chsh_over_unitaries", ("calls", "busy_s", "self_s")),
    ("kernels.dykstra_feasibility", ("calls", "busy_s")),
    ("compat.busch_criterion", ("calls", "busy_s", "self_s")),
    ("compat.parent_povm_search", ("calls", "busy_s", "self_s")),
    ("linalg.eig_hermitian.d2", ("calls", "busy_s")),
    ("linalg.eig_hermitian.d4", ("calls", "busy_s")),
    ("linalg.operator_norm", ("calls", "busy_s")),
    ("measurement.noisy_pauli_povm", ("calls", "busy_s", "self_s")),
    ("measurement.incompatibility_degree", ("calls", "busy_s", "self_s")),
    ("chsh.landau_bound", ("calls", "busy_s", "self_s")),
    ("chsh.max_over_states", ("calls", "busy_s", "self_s")),
    ("chsh.chsh_value", ("calls", "busy_s", "self_s")),
    ("chsh.born_table", ("calls", "busy_s", "self_s")),
    ("chsh.sample_estimate", ("calls", "busy_s", "self_s")),
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)  # set-up only, for setup_s
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------- set-up


def setup(name, seed):
    """Everything before the first timed item: import, inputs, one warm-up item."""
    import workloads

    wl = workloads.WORKLOADS[name]()
    items = wl.generate(seed)
    wl.run(wl.warmup())
    return wl, items


def measure_setup(args):
    """Set-up time of SETUP_RUNS fresh interpreters, one at a time.

    Returns (raw, scaled) lists: each probe is scaled to reference speed
    by the mean of speed samples taken just before and just after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--probe"]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        before = calibrate.sample(SETUP_REPS)
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT), text=True) as proc:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            watchdog.cancel()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        after = calibrate.sample(SETUP_REPS)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * calibrate.REF_S / (0.5 * (before + after)))
    return raw, scaled


# ---------------------------------------------------------------- timed loop


class Tally:
    """Latencies and oracle outcomes of the items one loop ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at reference speed, when the loop sampled speed
        self.speed_samples: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.worst = 0.0
        self.messages: list[str] = []

    @property
    def attempted(self):
        return len(self.latencies)

    def check(self, wl, item, out, err):
        if err is None:
            try:
                ok, dev, msg = wl.check(item, out)
            except Exception as exc:  # an output the oracle cannot digest is a failed item
                ok, dev, msg = False, 0.0, f"oracle raised {type(exc).__name__}: {exc}"
        else:
            ok, dev, msg = False, 0.0, err
        self.worst = max(self.worst, dev)
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"[{wl.label(item)}] {msg}")


def closed_loop(wl, items, seconds, tracer=None, whole_passes=False, speed=False):
    """Run items in order, one at a time, for `seconds` of wall time.

    Each output goes to the oracle right after its item, outside the timed
    region and with the tracer paused.  With whole_passes the loop only
    stops at the end of a pass over `items`.  With speed, a machine-speed
    sample is taken (untimed) after every SLICE_S of item time, and each
    item is also scaled to reference speed by the mean of the samples
    on either side of its slice (tally.scaled).
    """
    tally = Tally()
    cal = tally.speed_samples
    slice_of = []
    since_cal = 0.0
    if speed:
        cal.append(calibrate.sample())
    start = perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        span = tracer.begin(f"item.{wl.label(item)}") if tracer is not None else None
        t0 = perf_counter()
        try:
            out, err = wl.run(item, tracer), None
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end(span)
        with tracer.paused() if tracer is not None else nullcontext():
            tally.check(wl, item, out, err)
        tally.latencies.append(t1 - t0)
        tally.labels.append(wl.label(item))
        i += 1
        if speed:
            slice_of.append(len(cal) - 1)
            since_cal += t1 - t0
            if since_cal >= SLICE_S:
                cal.append(calibrate.sample())
                since_cal = 0.0
        if perf_counter() - start >= seconds and not (whole_passes and i % len(items)):
            break
    if speed:
        if since_cal > 0.0:
            cal.append(calibrate.sample())
        tally.scaled = [
            t * calibrate.REF_S / (0.5 * (cal[k] + cal[k + 1])) for t, k in zip(tally.latencies, slice_of)
        ]
    return tally


def tail_percentile(n, cap):
    """Highest ladder percentile (at most cap) with at least ten items beyond it."""
    fit = [p for p in LADDER if p <= cap and n * (100.0 - p) / 100.0 >= 10.0]
    return fit[-1] if fit else LADDER[0]


# ---------------------------------------------------------------- records


def git_rev():
    try:
        top, rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return None
    return rev if Path(top).resolve() == ROOT else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import chshlab
    import numpy

    return {
        "backend": chshlab.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def emit(args, metrics, notes, attempted, failed, worst, messages, extra):
    """Human-readable lines, the record file, and the JSON result as the last line."""
    env = environment()
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  diagnostic: failed_frac {failed / attempted:.6g} ({failed} of {attempted} items), "
          f"worst oracle deviation {worst:.3e}")
    for msg in messages:
        print(f"  failure: {msg}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "worst_oracle_deviation": worst, "failures": messages,
        **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------- the two kinds of run


def run_end_to_end(args):
    import numpy as np
    import workloads

    setup_raw, setup_scaled = measure_setup(args)
    wl, items = setup(args.workload, args.seed)
    tally = closed_loop(wl, items, args.seconds, speed=True)
    rss = workloads.peak_rss_mb(wl)
    n, lat, raw = tally.attempted, tally.scaled, tally.latencies
    p = tail_percentile(n, wl.tail_cap)
    metrics = {
        "items_per_s": {"value": n / sum(lat), "unit": "1/s", "samples": n},
        "item_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms", "samples": n},
        "item_tail_ms": {"value": float(np.percentile(lat, p)) * 1e3, "unit": "ms", "samples": n, "percentile": p},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s", "samples": len(setup_scaled)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
        "ok_frac": {"value": (n - tally.failed) / n, "unit": "ratio", "samples": n},
    }
    wall = {
        "items_per_s": n / sum(raw),
        "item_p50_ms": statistics.median(raw) * 1e3,
        "item_tail_ms": float(np.percentile(raw, p)) * 1e3,
        "setup_s": statistics.median(setup_raw),
    }
    cal = tally.speed_samples
    notes = {
        "items_per_s": f"{n} items in {sum(raw):.3f} s of item time (wall {wall['items_per_s']:.4g})",
        "item_p50_ms": f"median of {n} items (wall {wall['item_p50_ms']:.4g})",
        "item_tail_ms": f"p{p:g} of {n} items, {n - int(n * p / 100)} beyond (wall {wall['item_tail_ms']:.4g})",
        "setup_s": f"median of {len(setup_raw)} fresh interpreters (wall {wall['setup_s']:.4g}): "
        + " ".join(f"{t:.3f}" for t in setup_raw),
        "peak_rss_mb": "this process" + (" + largest CLI child" if args.workload == "cli_session" else ""),
        "ok_frac": f"1 - failed_frac: {n - tally.failed} of {n} items passed their oracle",
    }
    print(f"  times are scaled to reference speed ({calibrate.REF_S * 1e3:g} ms per reference kernel); "
          f"{len(cal)} speed samples, median {statistics.median(cal) * 1e3:.4g} ms, "
          f"range {min(cal) * 1e3:.4g}-{max(cal) * 1e3:.4g} ms")
    by_kind = {}
    for label, t in zip(tally.labels, lat):
        by_kind.setdefault(label, []).append(t)
    extra = {
        "wall": wall,
        "ladder_ms": {f"p{q:g}": float(np.percentile(lat, q)) * 1e3 for q in LADDER if n * (100.0 - q) / 100.0 >= 10.0},
        "speed_samples_ms": [c * 1e3 for c in cal],
        "p50_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
    }
    emit(args, metrics, notes, n, tally.failed, tally.worst, tally.messages, extra)


def layer_metrics(spans, passes, ips_plain, ips_traced):
    """Per-layer metrics per pass over the traced block, from the recorded spans."""
    from tracer import aggregate, restart_hits

    agg = aggregate(spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def get(fn, key):
        return agg.get(fn, {}).get(key, 0.0)

    for fn, keys in LAYER_TIMES:
        for key in keys:
            put(f"{fn}.{key}", get(fn, key) / passes, UNITS[key])
        if fn == "kernels.maximize_chsh":
            evals = get(fn, "evals")
            put(f"{fn}.evals", evals / passes, "count")
            put(f"{fn}.us_per_eval", get(fn, "busy_s") / evals * 1e6 if evals else 0.0, "us")
        elif fn == "entanglement.max_chsh_over_unitaries":
            restarts, hits = restart_hits(spans)
            put(f"{fn}.restarts", restarts / passes, "count")
            put(f"{fn}.restart_hit_ratio", hits / restarts if restarts else 0.0, "ratio")
        elif fn == "kernels.dykstra_feasibility":
            put(f"{fn}.iterations", get(fn, "iterations") / passes, "count")
            put(f"{fn}.plateaued", get(fn, "plateaued") / passes, "count")
        elif fn == "compat.parent_povm_search":
            calls = get(fn, "calls")
            decided = get(fn, "status.Compatible") + get(fn, "status.Incompatible")
            put(f"{fn}.decided_ratio", decided / calls if calls else 0.0, "ratio")

    put("cli.import_s", get("cli.import", "busy_s") / passes, "s")
    put("cli.main.self_s", get("cli.main", "self_s") / passes, "s")
    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.wall_s", get(f"item.{sub}", "busy_s") / passes, "s")
    put("trace.overhead_frac", 1.0 - ips_traced / ips_plain, "ratio")
    items = [row for name, row in agg.items() if name.startswith("item.")]
    uncovered = sum(row["self_s"] for row in items) / sum(row["busy_s"] for row in items)
    put("trace.uncovered_frac", uncovered, "ratio")
    return m, agg


def _pass_end(spans, block_len):
    """Index of the first span after the first pass over the block."""
    seen = 0
    for i, (name, parent, *_) in enumerate(spans):
        if name.startswith("item.") and parent == -1:
            if seen == block_len:
                return i
            seen += 1
    return len(spans)


def run_traced(args):
    from kernels_micro import kernel_micro
    from tracer import Tracer

    wl, items = setup(args.workload, args.seed)
    block = items[: wl.block]
    plain = closed_loop(wl, block, args.seconds / 2.0, whole_passes=True, speed=True)
    micro = kernel_micro()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer(child_file=OUT / f"child-spans-{os.getpid()}.json")
    tracer.install()
    try:
        traced = closed_loop(wl, block, args.seconds / 2.0, tracer=tracer, whole_passes=True, speed=True)
    finally:
        tracer.uninstall()
    passes = traced.attempted // len(block)
    # both at reference speed, so the machine's drift between the halves cancels
    ips_plain = plain.attempted / sum(plain.scaled)
    ips_traced = traced.attempted / sum(traced.scaled)
    metrics, agg = layer_metrics(tracer.spans, passes, ips_plain, ips_traced)
    for name, us in micro.items():
        metrics[name] = {"value": us, "unit": "us"}
    # later passes repeat the first one's items, so only the first pass is written out
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", 0, _pass_end(tracer.spans, len(block)))

    notes = {"trace.overhead_frac": f"items/s untraced {ips_plain:.4g}, traced {ips_traced:.4g}"}
    print(f"  traced block: {len(block)} items, {passes} traced passes; per-layer values are per pass")
    extra = {
        "block_items": len(block), "passes": passes,
        "items_per_s_untraced": ips_plain, "items_per_s_traced": ips_traced,
        "all_layers": {k: {kk: vv / passes for kk, vv in v.items()} for k, v in sorted(agg.items())},
    }
    emit(
        args, metrics, notes, plain.attempted + traced.attempted, plain.failed + traced.failed,
        max(plain.worst, traced.worst), (plain.messages + traced.messages)[:20], extra,
    )


def pin_to_one_cpu():
    """Run this process and its children on the first CPU it may use.

    On a shared host the CPUs can differ in speed by a quarter, and a
    process the scheduler moves between them changes speed mid-run.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chshlab" / "__init__.py").is_file():
        print(f"perfbench: no chshlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chshlab

    if Path(chshlab.__file__).resolve().parent != SRC / "chshlab":
        print(f"perfbench: imported chshlab from {chshlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:  # inherits the parent's CPU
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    pin_to_one_cpu()
    if args.trace:
        run_traced(args)
    else:
        run_end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
