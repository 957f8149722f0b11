"""Command-line front end: single-shot queries and grid scans.

Subcommands: jm, chsh, region, sample, verify.  Angles are radians only
(tokens like pi/2 are accepted); numeric output defaults to 6 significant
digits; results are emitted as JSON or CSV.  Identical invocations with
identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from math import isfinite, pi

import numpy as np

from .chsh import chsh_value, landau_bound, max_over_states, sample_estimate, violates
from .compat import DEFAULT_TOL, busch_criterion, parent_povm_search, sharpness_threshold
from .entanglement import (
    CanonicalAngles,
    canonical_axes,
    canonical_setting,
    entanglement_threshold,
    max_chsh_closed_form,
    schmidt_state,
)
from .errors import ChshLabError, NonFiniteOutputError
from .linalg import _is_number
from .measurement import (
    ChshSetting,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    noisy_family_povms,
    noisy_pauli_povm,
)

PROG = "chshlab"
DEFAULT_PRECISION = 6
MAX_PRECISION = 15
MAX_GRID_STEPS = 10**6  # numpy.linspace allocates all steps at once


class UsageError(ChshLabError):
    """Bad command-line input; reported under the code "usage"."""


class _Parser(argparse.ArgumentParser):
    """argparse with JSON diagnostics, keeping its arguments by dest so a
    config file's keys can be mapped back to the tokens they stand for."""

    def __init__(self, *args, **kwargs):
        self.arguments: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest != "help":
            self.arguments[action.dest] = action
        return action

    def error(self, message):  # JSON diagnostics instead of argparse's exit
        raise UsageError(message)


# ---------- token parsing ----------

_PI_TOKEN = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*pi\s*(?:/\s*(\d*\.?\d+))?$")

_NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


def parse_angle(token: str) -> float:
    """Radians; plain floats or pi expressions like 'pi/2', '0.25pi', '2pi'.

    A negative zero reads as 0.0 (x + 0.0 is +0.0 for x = -0.0 and x for
    every other x), so '-0' is not echoed as -0.0.
    """
    t = token.strip().lower()
    if "deg" in t or t.endswith("d"):
        raise UsageError(f"angle {token!r}: degrees are not accepted, use radians")
    m = _PI_TOKEN.match(t)
    if m:
        coef = m.group(1)
        num = float(coef) if coef not in ("", "+", "-") else float(coef + "1")
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise UsageError(f"angle {token!r}: zero denominator")
        return num * pi / den + 0.0
    try:
        return float(t) + 0.0
    except ValueError:
        raise UsageError(f"cannot parse angle {token!r}") from None


def parse_axis(token: str) -> np.ndarray:
    """Named axis x|y|z or a colon triple like 0:0:1 (normalized)."""
    t = token.strip().lower()
    if t in _NAMED_AXES:
        return _NAMED_AXES[t].copy()
    parts = t.split(":")
    if len(parts) != 3:
        raise UsageError(f"axis {token!r}: expected x, y, z or a colon triple a:b:c")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise UsageError(f"axis {token!r}: non-numeric component") from None
    if not np.isfinite(v).all():
        raise UsageError(f"axis {token!r}: non-finite component")
    top = float(np.max(np.abs(v)))
    if top == 0.0:
        raise UsageError(f"axis {token!r} has zero norm")
    # scaled by the power of two at the largest component: the norm can no
    # longer overflow, and where v/|v| did not, it is unchanged bit for bit
    v = np.ldexp(v, -np.frexp(top)[1])
    return v / float(np.linalg.norm(v))


def parse_grid(token: str) -> np.ndarray:
    """start:stop:steps with 1 <= steps <= MAX_GRID_STEPS and start <= stop."""
    parts = token.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {token!r}: expected start:stop:steps")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"grid {token!r}: non-numeric field") from None
    if not (isfinite(start) and isfinite(stop)):
        raise UsageError(f"grid {token!r}: non-finite field")
    if not 1 <= steps <= MAX_GRID_STEPS:
        raise UsageError(f"grid {token!r}: steps must be in [1, {MAX_GRID_STEPS}]")
    if start > stop:
        raise UsageError(f"grid {token!r}: start must be <= stop")
    if not isfinite(stop - start):  # numpy.linspace would overflow, with a warning
        raise UsageError(f"grid {token!r}: stop - start overflows")
    return np.linspace(start, stop, steps)


# ---------- output ----------


class Emitter:
    def __init__(self, fmt: str, precision: int, out):
        self.fmt = fmt
        self.precision = precision
        self.out = out

    def num(self, v) -> float:
        """v to `precision` significant digits; NaN and ±inf are refused, so
        no format ever writes them."""
        v = float(v)
        if not isfinite(v):
            raise NonFiniteOutputError(f"result holds the non-finite number {v!r}")
        return float(f"{v:.{self.precision}g}")

    def _rounded(self, obj):
        if isinstance(obj, bool) or obj is None:
            return obj
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            return self.num(obj)
        if isinstance(obj, dict):
            return {k: self._rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [self._rounded(v) for v in obj]
        return obj

    def json(self, doc: dict) -> None:
        print(json.dumps(self._rounded(doc), allow_nan=False), file=self.out)

    def text(self, v) -> str:
        """v as written in CSV cells, CSV comments and verify's text lines."""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return f"{self.num(v):.{self.precision}g}"
        return str(v)

    def table(self, doc: dict, header: list[str], records: list[dict] | None = None, comments=()) -> None:
        """Tabular result: JSON writes doc; CSV writes the comments, the header
        and one line per record, reading column h under the key h.lower().
        records are the dicts doc already holds for JSON, so both formats
        print one list; without them, doc itself is the one record."""
        if self.fmt != "csv":
            self.json(doc)
            return
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(header))
        keys = [h.lower() for h in header]
        for record in [doc] if records is None else records:
            lines.append(",".join(self.text(record[k]) for k in keys))
        print("\n".join(lines), file=self.out)  # formatted in full first: a refusal writes nothing


# ---------- setting construction shared by chsh/sample ----------


def _setting_from_args(args) -> tuple[ChshSetting, dict, bool, tuple | None]:
    """Returns (setting, descriptor, projective, povms-or-None)."""
    if args.canonical is not None and args.noisy is not None:
        raise UsageError("--canonical and --noisy are mutually exclusive")
    if args.canonical is not None:
        tokens = args.canonical.split(",")
        if len(tokens) != 2:
            raise UsageError("--canonical expects two comma-separated angles: theta,phi")
        theta, phi = (parse_angle(t) for t in tokens)
        angles = CanonicalAngles(theta=theta, phi=phi)
        setting = canonical_setting(angles)
        povms = tuple(noisy_pauli_povm(ax, 1.0) for ax in canonical_axes(angles))
        desc = {"kind": "canonical", "theta": theta, "phi": phi, "delta": angles.delta}
        return setting, desc, True, povms
    if args.noisy is not None:
        lam = float(args.noisy)
        povms = noisy_family_povms(lam)
        setting = ChshSetting.from_povms(*povms)
        desc = {"kind": "noisy", "lambda": lam}
        return setting, desc, lam >= 1.0, povms
    raise UsageError("a setting is required: --canonical theta,phi or --noisy lambda")


# what json.load raises on a file it cannot turn into a value: ValueError
# covers JSONDecodeError, bytes that are not UTF-8 (UnicodeDecodeError) and
# an integer past Python's digit limit; RecursionError, nesting too deep
_UNREADABLE_JSON = (ValueError, RecursionError)


def _entry(pair) -> complex:
    """re + i·im of a state-file entry [re, im] of two numbers, not bools (`linalg._is_number`); else TypeError."""
    if not (isinstance(pair, list) and len(pair) == 2 and _is_number(pair[0]) and _is_number(pair[1])):
        raise TypeError(f"expected [re, im], got {pair!r}")
    return complex(*pair)


def _state_from_spec(spec: str) -> np.ndarray:
    s = spec.strip()
    if s == "phi+":
        return schmidt_state(0.5).density_matrix()
    if s.startswith("schmidt:"):
        try:
            e = float(s.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"state {spec!r}: bad entanglement value") from None
        return schmidt_state(e).density_matrix()
    try:
        with open(s, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"state {spec!r}: {exc}") from None
    except _UNREADABLE_JSON as exc:
        raise UsageError(f"state file {spec!r}: invalid JSON ({exc})") from None
    entries = payload.get("rho") if isinstance(payload, dict) else payload
    try:
        rho = np.array([[_entry(c) for c in row] for row in entries])
    except (TypeError, ValueError, OverflowError):  # ragged rows; ints beyond float
        raise UsageError(
            f"state file {spec!r}: expected a 4x4 matrix of [re, im] pairs"
        ) from None
    return rho


# ---------- subcommands ----------


def cmd_jm(args, em: Emitter) -> int:
    axes_tokens = _require(args.axes, "--axes").split(",")
    if len(axes_tokens) != 2:
        raise UsageError("--axes expects two comma-separated axes, e.g. z,x")
    axis1, axis2 = (parse_axis(t) for t in axes_tokens)
    threshold = sharpness_threshold(axis1, axis2)
    if args.threshold:
        doc = {
            "axes": [list(axis1), list(axis2)],
            "threshold": threshold,
            "closed_form": threshold,
            "tol": DEFAULT_TOL,
        }
        em.table(doc, ["threshold", "closed_form", "tol"])
        return 0
    if args.lam is None:
        raise UsageError("jm requires --lambda VALUE, --lambda START:STOP:STEPS or --threshold")
    if ":" in args.lam:
        lams = parse_grid(args.lam)
    else:
        try:
            lams = [float(args.lam)]
        except ValueError:
            raise UsageError(f"--lambda {args.lam!r}: expected a number or START:STOP:STEPS") from None

    def decide(lam):
        p = noisy_pauli_povm(axis1, lam)
        q = noisy_pauli_povm(axis2, lam)
        if args.method == "feasibility":
            return parent_povm_search(p, q)
        return busch_criterion(p, q)

    verdicts = []
    for lam in lams:
        v = decide(float(lam))
        verdicts.append(
            {
                "lambda": float(lam),
                "status": v.status.value,
                "margin": v.margin,
                "method": v.method.value,
            }
        )
    doc = {"axes": [list(axis1), list(axis2)], "verdicts": verdicts}
    comments = []
    if len(verdicts) > 1:
        doc["threshold"] = threshold
        comments.append(f"threshold = {em.text(threshold)}")
    em.table(doc, ["lambda", "status", "margin", "method"], verdicts, comments)
    return 0


def cmd_chsh(args, em: Emitter) -> int:
    setting, desc, projective, _ = _setting_from_args(args)
    if args.max and args.state:
        raise UsageError("--state and --max are mutually exclusive")
    if not args.max and not args.state:
        raise UsageError("chsh requires --state SPEC or --max")
    rep = landau_bound(setting) if projective else max_over_states(setting)
    doc: dict = {"setting": desc, "bound": rep.bound}
    if projective:
        doc["mu"] = rep.mu
    if args.max:
        doc["value"] = max_over_states(setting).value if projective else rep.value
    else:
        rho = _state_from_spec(args.state)
        doc["state"] = args.state
        doc["value"] = chsh_value(setting, rho)
    doc["violates"] = violates(doc["value"])
    em.table(doc, ["value", "bound", "violates"])
    return 0


def cmd_region(args, em: Emitter) -> int:
    e_grid = parse_grid(_require(args.e_grid, "--e-grid"))
    d_grid = parse_grid(_require(args.delta_grid, "--delta-grid"))
    if e_grid.size * d_grid.size > MAX_GRID_STEPS:
        raise UsageError(f"region: {e_grid.size}x{d_grid.size} cells, more than {MAX_GRID_STEPS}")
    threshold = entanglement_threshold()
    rows = []
    for e in e_grid.tolist():
        for d in d_grid.tolist():
            chsh_max = max_chsh_closed_form(e, d)
            rows.append({"e": e, "delta": d, "chsh_max": chsh_max, "nonlocal": violates(chsh_max)})
    doc = {"entanglement_threshold": threshold, "rows": rows}
    em.table(
        doc,
        ["E", "delta", "chsh_max", "nonlocal"],
        rows,
        comments=[f"entanglement_threshold = {em.text(threshold)}"],
    )
    return 0


def cmd_sample(args, em: Emitter) -> int:
    setting, desc, _, povms = _setting_from_args(args)
    if not args.state:
        raise UsageError("sample requires --state SPEC")
    if args.shots < 1:
        raise UsageError("--shots must be >= 1")
    rho = _state_from_spec(args.state)
    result = sample_estimate(povms, rho, args.shots, args.seed)
    diff = abs(result.estimate - result.exact)
    if result.std_error > 0.0:
        n_sigma = diff / result.std_error
    else:
        n_sigma = 0.0 if diff == 0.0 else None
    doc = {
        "setting": desc,
        "state": args.state,
        "shots_per_pair": result.shots_per_pair,
        "seed": result.seed,
        "estimate": result.estimate,
        "std_error": result.std_error,
        "exact": result.exact,
        "n_sigma": n_sigma,
    }
    em.table(doc, ["estimate", "std_error", "exact", "n_sigma"])
    return 0


def cmd_verify(args, em: Emitter) -> int:
    from .verify import SUITES  # on use: every other subcommand starts without it

    if args.list:
        if em.fmt == "json":
            em.json({"suites": sorted(SUITES)})
        else:
            for name in sorted(SUITES):
                print(name, file=em.out)
        return 0
    if not args.suite:
        raise UsageError("verify requires a suite name or --list")
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    checks = SUITES[args.suite](args.seed)
    all_passed = True
    for c in checks:
        c["passed"] = bool(c["max_dev"] <= c["tol"])
        all_passed &= c["passed"]
    if em.fmt == "json":
        em.json({"suite": args.suite, "seed": args.seed, "checks": checks, "passed": all_passed})
    else:
        lines = [
            f"{'PASS' if c['passed'] else 'FAIL'} {args.suite}.{c['check']} "
            f"max_dev={em.text(c['max_dev'])} tol={em.text(c['tol'])}"
            for c in checks
        ]
        lines.append("OK" if all_passed else "FAILED")
        print("\n".join(lines), file=em.out)
    return 0 if all_passed else 1


# ---------- parser ----------


def _add_common(sp, formats=("json", "csv"), default_format="json") -> None:
    sp.add_argument("--format", choices=formats, default=default_format)
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.add_argument("--output", default=None, help="write to a file instead of stdout")
    sp.add_argument("--config", default=None, help="JSON file with flag defaults")


def _require(value, flag: str):
    # required flags stay optional at the argparse level: main() first parses
    # the command line alone, before a config file can supply them
    if value is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    jm = sub.add_parser("jm", description="joint measurability of a noisy-Pauli pair")
    jm.add_argument("--axes", default=None, help="two axes, e.g. z,x or z,0.6:0:0.8")
    jm.add_argument("--lambda", dest="lam", default=None, help="sharpness value or START:STOP:STEPS")
    jm.add_argument("--threshold", action="store_true", help="critical sharpness (closed form)")
    jm.add_argument("--method", choices=("analytic", "feasibility"), default="analytic")
    _add_common(jm)
    jm.set_defaults(func=cmd_jm)

    ch = sub.add_parser("chsh", description="CHSH value / spectral bound for a setting")
    ch.add_argument("--canonical", default=None, help="theta,phi in radians (pi tokens ok)")
    ch.add_argument("--noisy", default=None, type=float, help="noisy-Pauli family sharpness")
    ch.add_argument("--state", default=None, help="phi+ | schmidt:E | JSON file")
    ch.add_argument("--max", action="store_true", help="maximize over states instead")
    _add_common(ch)
    ch.set_defaults(func=cmd_chsh)

    rg = sub.add_parser("region", description="nonlocality region scan over (E, delta)")
    rg.add_argument("--e-grid", dest="e_grid", default=None, help="START:STOP:STEPS over [0, 0.5]")
    rg.add_argument("--delta-grid", dest="delta_grid", default=None, help="START:STOP:STEPS over [0, 1]")
    _add_common(rg)
    rg.set_defaults(func=cmd_region)

    sm = sub.add_parser("sample", description="finite-shot CHSH estimate")
    sm.add_argument("--canonical", default=None)
    sm.add_argument("--noisy", default=None, type=float)
    sm.add_argument("--state", default=None)
    sm.add_argument("--shots", type=int, default=1_000_000)
    sm.add_argument("--seed", type=int, default=0)
    _add_common(sm)
    sm.set_defaults(func=cmd_sample)

    vf = sub.add_parser("verify", description="cross-oracle verification suites")
    vf.add_argument("suite", nargs="?", default=None)
    vf.add_argument("--list", action="store_true")
    vf.add_argument("--seed", type=int, default=0)
    _add_common(vf, formats=("text", "json"), default_format="text")
    vf.set_defaults(func=cmd_verify)

    return parser, sub.choices


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: {exc}") from None
    except _UNREADABLE_JSON as exc:
        raise UsageError(f"config {path!r}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path!r}: expected a JSON object")
    return cfg


def _config_tokens(cfg: dict, commands: dict[str, _Parser], args) -> tuple[list[str], dict[str, str]]:
    """The command-line tokens a config file's flags stand for, and the
    positional values the command line left unset.

    Tokens go ahead of the user's own, so argparse converts and checks them
    like flags and a flag on the command line still wins.  Positional values
    are assigned after the parse, so "--help" names a suite, not an option.
    Keys of other subcommands are ignored; keys of none are refused.
    """
    unknown = set(cfg).difference(*(sp.arguments for sp in commands.values()))
    if unknown:
        raise UsageError(f"config: unknown keys {sorted(unknown)}")
    tokens, positionals = [], {}
    for key, value in cfg.items():
        action = commands[args.command].arguments.get(key)
        if action is None:
            continue
        if action.nargs == 0:  # on/off flag
            if not isinstance(value, bool):
                raise UsageError(f"config: {key!r} must be true or false")
            if value:
                tokens.append(action.option_strings[0])
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config: {key!r} must be a string or a number")
        elif action.option_strings:
            tokens.append(f"{action.option_strings[0]}={value}")
        elif getattr(args, key) is None:  # positional not given on the command line
            positionals[key] = str(value)
    return tokens, positionals


def _silence_stdout() -> None:
    """Point stdout at devnull, so that the interpreter's last flush of what
    is still buffered cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, commands = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # the top-level parser takes no options, so argv[0] is the subcommand
            tokens, positionals = _config_tokens(_load_config(args.config), commands, args)
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            vars(args).update(positionals)
        if not 1 <= args.precision <= MAX_PRECISION:
            raise UsageError(f"--precision must be in [1, {MAX_PRECISION}]")
        try:
            out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        except OSError as exc:
            raise UsageError(f"--output: {exc}") from None
        try:
            with out if args.output else contextlib.nullcontext(out):
                code = args.func(args, Emitter(args.format, args.precision, out))
                out.flush()  # a closed pipe shows here, not at interpreter exit
                return code
        except OSError as exc:  # a full disk shows at a write, the flush or the close
            if isinstance(exc, BrokenPipeError):
                raise
            if args.output:
                raise UsageError(f"--output: {exc}") from None
            _silence_stdout()
            raise UsageError(f"stdout: {exc}") from None
    except BrokenPipeError:
        # The reader stopped reading (`chshlab ... | head -1`): what it read
        # is all it wants.
        _silence_stdout()
        return 0
    except ChshLabError as exc:
        code = type(exc).__name__.removesuffix("Error")
        code = re.sub(r"(?<!^)(?=[A-Z])", "_", code).lower()
        print(json.dumps({"code": code, "message": str(exc)}), file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
