"""The four benchmark workloads: seeded inputs, one item, and its oracle.

Each workload turns a seed into a pool of items, runs one item through
the public chshlab API (or one CLI process), and checks the output
against an oracle that does not use the code path being timed.  The
oracle checks each output between items, outside the timed region.

Every workload exposes:

  generate(seed)      -> list of `pool` items (same seed, same list); the
                         timed loop cycles through them
  warmup()            -> a fixed, seed-independent item run untimed in set-up
  run(item, tracer)   -> output (tracer is None outside the traced run)
  check(item, output) -> (ok, deviation, message)
  label(item)         -> short kind name used in diagnostics
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from math import cos, pi, sin, sqrt
from pathlib import Path

import numpy as np

import chshlab

HERE = Path(__file__).resolve().parent

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _unit_rows(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _lattice(rng, n, dims):
    """n points in [0, 1)^dims: a Kronecker lattice with a random shift.

    The generalised golden-ratio lattice (Roberts' R_d sequence) covers
    the cube evenly in every stretch of consecutive points, so the mix of
    cheap and costly items a run reaches varies little from seed to seed;
    the seed only shifts the lattice.
    """
    g = 2.0
    for _ in range(60):  # g: the real root of g**(dims + 1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = (1.0 / g) ** np.arange(1, dims + 1)
    return (rng.random(dims) + np.arange(1, n + 1)[:, None] * alpha) % 1.0


def _obs(axis, scale=1.0):
    """scale * a.sigma, built here so oracles share no code with chshlab."""
    return scale * sum(a * s for a, s in zip(axis, _PAULI))


def _chsh_matrix(a0, a1, b0, b1):
    return np.kron(a0, b0 + b1) + np.kron(a1, b0 - b1)


def _schmidt_rho(e):
    v = np.array([sqrt(e), 0.0, 0.0, sqrt(1.0 - e)], dtype=complex)
    return np.outer(v, v.conj())


def _born(axes, lam, rho):
    """p[x, y, i, j] for noisy-Pauli effects (I +- lam a.sigma)/2."""
    eff = [[(_I2 + sgn * _obs(ax, lam)) / 2 for sgn in (1, -1)] for ax in axes]
    table = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for i in range(2):
                for j in range(2):
                    op = np.kron(eff[x][i], eff[2 + y][j])
                    table[x, y, i, j] = np.trace(rho @ op).real
    return table


def _chsh_of_table(t):
    e = t[:, :, 0, 0] - t[:, :, 0, 1] - t[:, :, 1, 0] + t[:, :, 1, 1]
    return abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def _close(got, want, rel=0.0, abs_=0.0):
    dev = abs(float(got) - float(want))
    return dev <= abs_ + rel * abs(float(want)), dev


class Checks:
    """Collects named oracle comparisons for one item."""

    def __init__(self):
        self.worst = 0.0
        self.failures: list[str] = []

    def close(self, what, got, want, rel=0.0, abs_=0.0):
        ok, dev = _close(got, want, rel, abs_)
        self.worst = max(self.worst, dev)
        if not ok:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what, cond):
        if not cond:
            self.failures.append(what)

    def result(self):
        return not self.failures, self.worst, "; ".join(self.failures)


# ---------------------------------------------------------------- unitary_search


class UnitarySearch:
    """One max_chsh_over_unitaries call (20 restarts) per item.

    The mix cycles through four kinds: an interior point, and points on the
    f1 grid's boundary faces (E in {0, 1/2}, theta in {0, pi/2}, phi in
    {0, pi/2}) where the landscape is flat.  Item cost depends on the
    inputs (Nelder-Mead evaluations rise with E), so each kind's inputs
    lie on a randomly shifted lattice.
    """

    name = "unitary_search"
    pool = 4096
    block = 8  # items per traced pass
    tail_cap = 75.0
    KINDS = ("interior", "e_edge", "theta_edge", "phi_edge")

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        items = [None] * self.pool
        for kind in range(len(self.KINDS)):
            slots = range(kind, self.pool, len(self.KINDS))
            u = _lattice(rng, len(slots), 4)
            e, th, ph = 0.5 * u[:, 0], pi / 2 * u[:, 1], pi / 2 * u[:, 2]
            upper = u[:, 3] >= 0.5  # which face of the edge
            for j, i in enumerate(slots):
                ej, tj, pj = float(e[j]), float(th[j]), float(ph[j])
                if kind == 1:
                    ej = 0.5 if upper[j] else 0.0
                elif kind == 2:
                    tj = pi / 2 if upper[j] else 0.0
                elif kind == 3:
                    pj = pi / 2 if upper[j] else 0.0
                items[i] = (kind, ej, tj, pj)
        return items

    def warmup(self):
        return (0, 0.3, 1.2, 0.9)

    def label(self, item):
        return self.KINDS[item[0]]

    def run(self, item, tracer=None):
        _, e, th, ph = item
        value, _ = chshlab.max_chsh_over_unitaries(e, chshlab.CanonicalAngles(theta=th, phi=ph))
        return value

    def check(self, item, value):
        _, e, th, ph = item
        c = Checks()
        delta = min(1.0, sin(th) * sin(ph))
        c.close("max over unitaries vs closed form", value, chshlab.max_chsh_closed_form(e, delta), abs_=1e-6)
        return c.result()


# ---------------------------------------------------------------- spectral_scan


class SpectralScan:
    """Spectral bounds, Born table and a 10^5-shot estimate per item."""

    name = "spectral_scan"
    pool = 8192
    block = 64
    tail_cap = 95.0
    SHOTS = 100_000

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        axes = _unit_rows(rng, 4 * self.pool).reshape(self.pool, 4, 3)
        lam = rng.uniform(0.0, 1.0, self.pool)
        e = rng.uniform(0.0, 0.5, self.pool)
        shot_seed = rng.integers(0, 2**31, self.pool)
        return [
            (tuple(map(tuple, axes[i].tolist())), float(lam[i]), float(e[i]), int(shot_seed[i]))
            for i in range(self.pool)
        ]

    def warmup(self):
        s = 1 / sqrt(2)
        return (((0, 0, 1), (1, 0, 0), (s, 0, s), (-s, 0, s)), 0.9, 0.5, 1)

    def label(self, item):
        return "scan"

    def run(self, item, tracer=None):
        axes, lam, e, shot_seed = item
        setting = chshlab.ChshSetting.from_axes(*axes)
        landau = chshlab.landau_bound(setting)
        top = chshlab.max_over_states(setting)
        delta = chshlab.incompatibility_degree(setting)
        rho = chshlab.schmidt_state(e).density_matrix()
        value = chshlab.chsh_value(setting, rho)
        povms = tuple(chshlab.noisy_pauli_povm(ax, lam) for ax in axes)
        table = chshlab.born_table(*povms, rho)
        est = chshlab.sample_estimate(povms, rho, self.SHOTS, shot_seed)
        return landau.bound, landau.mu, top.value, delta, value, table, est.estimate, est.std_error

    def check(self, item, out):
        axes, lam, e, _ = item
        bound, mu, top, delta, value, table, estimate, std_error = out
        c = Checks()
        a0, a1, b0, b1 = (_obs(ax) for ax in axes)
        s = _chsh_matrix(a0, a1, b0, b1)
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        c.close("landau bound vs eigvalsh", bound, spectral, abs_=1e-9)
        c.close("max over states vs eigvalsh", top, spectral, abs_=1e-9)
        j = 0.25 * np.kron(a1 @ a0 - a0 @ a1, b0 @ b1 - b1 @ b0)
        c.close("mu vs eigvalsh(J)", mu, float(np.linalg.eigvalsh(j)[-1]), abs_=1e-9)
        c.close("S^2 = 4(I+J): bound^2 vs 4(1+mu)", bound * bound, 4.0 * (1.0 + mu), abs_=1e-9)
        ca = np.linalg.norm(a0 @ a1 - a1 @ a0, 2)
        cb = np.linalg.norm(b0 @ b1 - b1 @ b0, 2)
        c.close("incompatibility degree vs factorized norm", delta, 0.25 * ca * cb, abs_=1e-9)
        rho = _schmidt_rho(e)
        c.close("chsh value vs tr(rho S)", value, abs(np.trace(rho @ s).real), abs_=1e-9)
        want = _born(axes, lam, rho)
        c.close("born table", float(np.max(np.abs(np.asarray(table) - want))), 0.0, abs_=1e-10)
        exact = _chsh_of_table(want)
        c.true(
            f"estimate {estimate!r} beyond 6 sigma ({std_error!r}) of exact {exact!r}",
            abs(estimate - exact) <= 6.0 * std_error + 1e-9,
        )
        return c.result()


# ---------------------------------------------------------------- jm_sweep


class JmSweep:
    """Analytic criterion and Dykstra parent-POVM search per item."""

    name = "jm_sweep"
    pool = 16384
    block = 256
    tail_cap = 99.0
    GRID = 8
    DECIDE_MARGIN = 5e-3
    PSD_SLACK = 1e-9 + 1e-12  # the search's default tol plus roundoff

    def generate(self, seed):
        """Isotropic axis pairs and uniform lambda, on a jittered grid.

        Cost depends on (lambda, angle between the axes): pairs near the
        boundary run Dykstra to its plateau.  Each block of GRID**2 items
        puts one item in every cell of a GRID x GRID grid over (lambda,
        cos angle), so every block has the same share of costly items.
        """
        rng = np.random.default_rng(seed)
        cells = np.concatenate([rng.permutation(self.GRID**2) for _ in range(-(-self.pool // self.GRID**2))])
        cells = cells[: self.pool]
        lam = (cells // self.GRID + rng.random(self.pool)) / self.GRID
        cos_ab = 2.0 * (cells % self.GRID + rng.random(self.pool)) / self.GRID - 1.0
        a = _unit_rows(rng, self.pool)
        r = rng.normal(size=(self.pool, 3))
        perp = r - np.sum(r * a, axis=1, keepdims=True) * a
        perp /= np.linalg.norm(perp, axis=1, keepdims=True)
        b = cos_ab[:, None] * a + np.sqrt(1.0 - cos_ab**2)[:, None] * perp
        return [(tuple(a[i].tolist()), tuple(b[i].tolist()), float(lam[i])) for i in range(self.pool)]

    def warmup(self):
        return ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.6)

    def label(self, item):
        return "pair"

    def run(self, item, tracer=None):
        a, b, lam = item
        p = chshlab.noisy_pauli_povm(a, lam)
        q = chshlab.noisy_pauli_povm(b, lam)
        return chshlab.busch_criterion(p, q), chshlab.parent_povm_search(p, q)

    def check(self, item, out):
        a, b, lam = item
        analytic, numeric = out
        c = Checks()
        va, vb = np.array(a), np.array(b)
        margin = 2.0 - lam * (np.linalg.norm(va + vb) + np.linalg.norm(va - vb))
        c.close("analytic margin", analytic.margin, margin, abs_=1e-9)
        if abs(margin) >= self.DECIDE_MARGIN:
            want = "Compatible" if margin > 0 else "Incompatible"
            c.true(f"analytic verdict {analytic.status.value} != {want}", analytic.status.value == want)
            c.true(f"feasibility verdict {numeric.status.value} != {want}", numeric.status.value == want)
        if numeric.status.value == "Compatible":
            g = numeric.parent.effects()
            for key, eff in g.items():
                low = float(np.linalg.eigvalsh((eff + eff.conj().T) / 2)[0])
                c.true(f"certificate effect {key} min eigenvalue {low:.3e}", low >= -self.PSD_SLACK)
            m_plus = (_I2 + _obs(a, lam)) / 2
            n_plus = (_I2 + _obs(b, lam)) / 2
            c.close("parent marginal M+", np.max(np.abs(g[1, 1] + g[1, -1] - m_plus)), 0.0, abs_=1e-12)
            c.close("parent marginal N+", np.max(np.abs(g[1, 1] + g[-1, 1] - n_plus)), 0.0, abs_=1e-12)
        return c.result()


# ---------------------------------------------------------------- cli_session


def _axis_token(v):
    return ":".join(f"{x:.6f}" for x in v)


def _cell(v):
    if v in ("true", "false"):
        return v == "true"
    try:
        return float(v)
    except ValueError:
        return v


def _parse(stdout, fmt):
    """CLI output as a list of records, one per result row."""
    if fmt == "json":
        doc = json.loads(stdout)
        if "verdicts" in doc:
            return doc["verdicts"]
        return doc.get("rows", [doc])
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [{k.lower(): _cell(v) for k, v in zip(header, ln.split(","))} for ln in lines[1:]]


def _options(args):
    """{--flag: value} of a CLI argument list in --flag=value form; bare flags map to True."""
    opt = {}
    for tok in args[1:]:
        key, sep, value = tok.partition("=")
        opt[key] = value if sep else True
    return opt


class CliSession:
    """One fresh `python -m chshlab.cli` process per item, run one at a time.

    The mix cycles through six commands in both output formats.  Values
    are passed as --flag=value: argparse takes a separate value that
    starts with '-' (an axis like -0.6:0:0.8) for an option and rejects it.
    """

    name = "cli_session"
    pool = 2048
    block = 12  # one full cycle of the mix
    tail_cap = 75.0
    KINDS = ("jm", "jm_threshold", "chsh_state", "chsh_max", "region", "sample")
    REL = 1e-5  # output is rounded to 6 significant digits
    TIMEOUT_S = 60.0  # a CLI process still running then is killed and fails its item

    def __init__(self):
        src = str(HERE.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.child_peak_kb = 0

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for i in range(self.pool):
            kind = self.KINDS[(i // 2) % len(self.KINDS)]
            fmt = ("json", "csv")[i % 2]
            a, b = _unit_rows(rng, 2)
            lam = round(float(rng.uniform(0.0, 1.0)), 6)
            th = round(float(rng.uniform(0.0, pi / 2)), 6)
            ph = round(float(rng.uniform(0.0, pi / 2)), 6)
            e = round(float(rng.uniform(0.0, 0.5)), 6)
            axes = f"{_axis_token(a)},{_axis_token(b)}"
            if kind == "jm":
                args = ["jm", f"--axes={axes}", f"--lambda={lam!r}"]
            elif kind == "jm_threshold":
                args = ["jm", f"--axes={axes}", "--threshold"]
            elif kind == "chsh_state":
                args = ["chsh", f"--canonical={th!r},{ph!r}", f"--state=schmidt:{e!r}"]
            elif kind == "chsh_max":
                args = ["chsh", f"--noisy={lam!r}", "--max"]
            elif kind == "region":
                ne, nd = (int(n) for n in rng.integers(2, 7, 2))
                d0 = round(float(rng.uniform(0.0, 0.5)), 6)
                args = ["region", f"--e-grid=0:0.5:{ne}", f"--delta-grid={d0!r}:1:{nd}"]
            else:
                shots = int(rng.integers(10_000, 100_001))
                seed_arg = int(rng.integers(0, 2**31))
                args = [
                    "sample", f"--canonical={th!r},{ph!r}", f"--state=schmidt:{e!r}",
                    f"--shots={shots}", f"--seed={seed_arg}",
                ]
            items.append((kind, args + [f"--format={fmt}"]))
        return items

    def warmup(self):
        return ("jm", ["jm", "--axes=z,x", "--lambda=0.6", "--format=json"])

    def label(self, item):
        return item[1][0]

    def run(self, item, tracer=None):
        _, args = item
        if tracer is None:
            cmd = [sys.executable, "-m", "chshlab.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(tracer.child_file), *args]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=str(HERE.parent), text=True
        )
        # reaped with wait4, not communicate, to read this child's own peak RSS
        watchdog = threading.Timer(self.TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if tracer is not None:
            tracer.adopt_child()
        return proc.returncode, out, err

    def check(self, item, out):
        kind, args = item
        code, stdout, stderr = out
        c = Checks()
        if code != 0:
            c.true(f"exit {code}: {stderr.strip()[:200]}", False)
            return c.result()
        opt = _options(args)
        try:
            records = _parse(stdout, opt["--format"])
        except (ValueError, IndexError) as exc:
            c.true(f"unparseable output ({exc}): {stdout[:200]!r}", False)
            return c.result()
        try:
            getattr(self, "_check_" + kind)(c, opt, records)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            c.true(f"output lacks an expected field ({exc!r}): {stdout[:200]!r}", False)
        return c.result()

    # --- per-command oracles: closed form or eigvalsh where one exists

    def _axes(self, opt):
        a, b = (np.array([float(x) for x in t.split(":")]) for t in opt["--axes"].split(","))
        return a / np.linalg.norm(a), b / np.linalg.norm(b)

    def _check_jm(self, c, opt, records):
        a, b = self._axes(opt)
        lam = float(opt["--lambda"])
        margin = 2.0 - lam * (np.linalg.norm(a + b) + np.linalg.norm(a - b))
        v = records[0]
        c.close("jm margin", v["margin"], margin, rel=self.REL, abs_=1e-9)
        if abs(margin) > 1e-6:
            want = "Compatible" if margin > 0 else "Incompatible"
            c.true(f"jm verdict {v['status']} != {want}", v["status"] == want)

    def _check_jm_threshold(self, c, opt, records):
        doc = records[0]
        a, b = self._axes(opt)
        want = min(1.0, 2.0 / (np.linalg.norm(a + b) + np.linalg.norm(a - b)))
        c.close("threshold", doc["threshold"], want, rel=self.REL, abs_=1e-8)
        c.close("threshold closed form", doc["closed_form"], want, rel=self.REL)

    def _canonical_axes(self, opt):
        th, ph = (float(t) for t in opt["--canonical"].split(","))
        return ((0, 0, 1), (sin(ph), 0, cos(ph)), (sin(th / 2), 0, cos(th / 2)), (-sin(th / 2), 0, cos(th / 2)))

    def _check_chsh_state(self, c, opt, records):
        doc = records[0]
        axes = self._canonical_axes(opt)
        s = _chsh_matrix(*(_obs(ax) for ax in axes))
        rho = _schmidt_rho(float(opt["--state"].split(":")[1]))
        c.close("chsh bound", doc["bound"], np.max(np.abs(np.linalg.eigvalsh(s))), rel=self.REL)
        value = abs(np.trace(rho @ s).real)
        c.close("chsh value", doc["value"], value, rel=self.REL, abs_=1e-9)
        if abs(value - 2.0) > 1e-6:
            c.true("chsh violates flag", doc["violates"] == (value > 2.0))

    def _check_chsh_max(self, c, opt, records):
        doc = records[0]
        lam = float(opt["--noisy"])
        d = np.array([1.0, 0.0, 1.0]) / sqrt(2)
        e = np.array([-1.0, 0.0, 1.0]) / sqrt(2)
        s = _chsh_matrix(_obs((0, 0, 1), lam), _obs((1, 0, 0), lam), _obs(d, lam), _obs(e, lam))
        top = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        c.close("chsh max value", doc["value"], top, rel=self.REL)
        c.close("chsh max bound", doc["bound"], top, rel=self.REL)

    def _check_region(self, c, opt, rows):
        e0, e1, ne = opt["--e-grid"].split(":")
        d0, d1, nd = opt["--delta-grid"].split(":")
        grid = [(e, d) for e in np.linspace(float(e0), float(e1), int(ne)) for d in np.linspace(float(d0), float(d1), int(nd))]
        c.true(f"region has {len(rows)} rows, want {len(grid)}", len(rows) == len(grid))
        for row, (e, d) in zip(rows, grid):
            x = 1.0 - 2.0 * sqrt(e * (1.0 - e))
            f = (2.0 - x) * sqrt(1.0 + d) + x * sqrt(1.0 - d)
            c.close("region E", row["e"], e, rel=self.REL, abs_=1e-12)
            c.close("region delta", row["delta"], d, rel=self.REL, abs_=1e-12)
            c.close("region chsh_max", row["chsh_max"], f, rel=self.REL)
            if abs(f - 2.0) > 1e-6:
                c.true("region nonlocal flag", row["nonlocal"] == (f > 2.0))

    def _check_sample(self, c, opt, records):
        doc = records[0]
        axes = self._canonical_axes(opt)
        e = float(opt["--state"].split(":")[1])
        shots, seed = int(opt["--shots"]), int(opt["--seed"])
        exact = _chsh_of_table(_born(axes, 1.0, _schmidt_rho(e)))
        c.close("sample exact vs Born closed form", doc["exact"], exact, rel=self.REL, abs_=1e-9)
        # no closed form for a seeded draw: compare with the library in-process
        povms = tuple(chshlab.noisy_pauli_povm(np.array(ax, dtype=float), 1.0) for ax in axes)
        lib = chshlab.sample_estimate(povms, chshlab.schmidt_state(e).density_matrix(), shots, seed)
        c.close("sample estimate vs library", doc["estimate"], lib.estimate, rel=self.REL, abs_=1e-12)
        c.close("sample std_error vs library", doc["std_error"], lib.std_error, rel=self.REL, abs_=1e-12)


WORKLOADS = {w.name: w for w in (UnitarySearch, SpectralScan, JmSweep, CliSession)}


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process, plus the largest CLI child for cli_session."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += getattr(workload, "child_peak_kb", 0)
    return kb / 1024.0
