"""Span tracing of chshlab's layers, installed from the benchmark's side.

install() replaces every public function of the layer modules with a
timing wrapper, at every place a module binds it by name (for example
chshlab.chsh.eig_hermitian and chshlab.measurement.is_psd, not only
chshlab.linalg.eig_hermitian), and uninstall() puts the originals back.
Nothing under src/ changes.

A span is (name, parent index, start, end, outermost, payload).  Spans
stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children; calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("_kernels", "linalg", "measurement", "chsh", "compat", "entanglement", "cli")


def layer_name(module_name: str) -> str:
    """chshlab._kernels -> kernels: metric names start with a letter."""
    return module_name.split(".")[1].lstrip("_")


def _payload(name, result):
    """Counters a layer returns but does not expose elsewhere."""
    if name == "kernels.maximize_chsh":
        return {"evals": result[2], "value": result[0]}
    if name == "kernels.dykstra_feasibility":
        return {"iterations": result[2], "plateaued": bool(result[3])}
    if name == "compat.parent_povm_search":
        return {"status": result.status.value}
    return None


def _span_name(name, args):
    if name == "linalg.eig_hermitian" and args:
        return f"{name}.d{len(args[0])}"
    return name


class Tracer:
    def __init__(self, child_file: Path | None = None):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self.recording = True
        self.child_file = child_file  # where a traced CLI child writes its spans

    # ---------------------------------------------------------------- wrapping

    def _targets(self):
        """{original function: layer-qualified name} for each layer's public functions."""
        import chshlab  # noqa: F401  (loads every layer module)
        import chshlab.cli  # noqa: F401

        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"chshlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if origin == mod.__name__ or (layer == "_kernels" and origin.startswith(mod.__name__)):
                    targets[obj] = f"{layer_name(mod.__name__)}.{attr}"
        return targets

    def install(self) -> None:
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chshlab" or mod_name.startswith("chshlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """No spans inside, e.g. while an oracle calls chshlab between items."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _wrap(self, fn, name):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = _span_name(name, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                stack.pop()
                payload = _payload(name, result) if result is not None else None
                spans[idx] = (span, parent, t0, t1, outer, payload)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---------------------------------------------------------------- explicit spans

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, parent, perf_counter(), None, True, None))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, parent, t0, _, outer, payload = self.spans[idx]
        self._stack.pop()
        self.spans[idx] = (name, parent, t0, perf_counter(), outer, payload)

    def adopt_child(self) -> None:
        """Graft the spans a traced CLI child wrote under the current span."""
        child = json.loads(self.child_file.read_text())
        self.child_file.unlink()
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, p, t0, t1, outer, payload in child:
            self.spans.append((name, parent if p < 0 else base + p, t0, t1, outer, payload))

    def dump(self, path: Path, first: int, last: int) -> None:
        """Write spans[first:last] as JSON lines, parents relative to `first`."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, p, t0, t1, outer, payload in self.spans[first:last]:
                rec = {"name": name, "parent": p - first if p >= first else -1, "start": t0, "end": t1}
                if payload:
                    rec.update(payload)
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans) -> dict:
    """Per-name calls, busy time (outermost spans only), self time and payload sums."""
    child_time = defaultdict(float)
    for _, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for idx, (name, _, t0, t1, outer, payload) in enumerate(spans):
        row = table[name]
        dur = t1 - t0
        row["calls"] += 1
        if outer:
            row["busy_s"] += dur
        row["self_s"] += dur - child_time[idx]
        if payload:
            for key, val in payload.items():
                if isinstance(val, (bool, int, float)) and key != "value":
                    row[key] += val
                elif key == "status":
                    row["status." + val] += 1
    return {k: dict(v) for k, v in table.items()}


def restart_hits(spans, tol: float = 1e-9) -> tuple[int, int]:
    """(restarts, restarts within tol of their call's best) over all unitary searches."""
    values = defaultdict(list)
    for name, parent, _, _, _, payload in spans:
        if name == "kernels.maximize_chsh" and parent >= 0 and spans[parent][0] == "entanglement.max_chsh_over_unitaries":
            values[parent].append(payload["value"])
    restarts = sum(len(v) for v in values.values())
    hits = sum(sum(1 for x in v if x >= max(v) - tol) for v in values.values())
    return restarts, hits
