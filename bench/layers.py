"""Per-layer spans and counts for the traced run, hooked from outside smio.

A hook replaces one public function or method of a module under
``src/smio`` with a wrapper that records a span: its duration, and the part
of it that hooked calls nested inside cover, so that self time is the rest.
A function imported by name into another smio module is replaced there as
well.  A hook whose target no longer exists is skipped, and every metric
that needs it is left out of the result rather than read as 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path)
HOOKS = {
    "model.detectability": ("smio.model", "check_strong_detectability"),
    "decomposition.decompose": ("smio.decomposition", "decompose_mode"),
    "decomposition.synthesize": ("smio.decomposition", "synthesize_gains"),
    "decomposition.error_dynamics": ("smio.decomposition", "error_dynamics"),
    "observer.step": ("smio.observer", "step"),
    "observer.set_estimates": ("smio.observer", "set_estimates"),
    "modeguard.advance": ("smio.modeguard", "ThresholdTracker.advance"),
    "modeguard.stacked": ("smio.modeguard", "ThresholdTracker.stacked"),
    "modeguard.tracker_tri": ("smio.modeguard", "ThresholdTracker.threshold_tri"),
    "modeguard.threshold_inf": ("smio.modeguard", "threshold_inf"),
    "modeguard.residual": ("smio.modeguard", "residual"),
    "modeguard.fuse": ("smio.modeguard", "fuse"),
    "modeguard.detectability_report": ("smio.modeguard", "detectability_report"),
    "sim.run_pipeline": ("smio.sim", "run_pipeline"),
    "cli.load_scenario": ("smio.cli", "load_scenario"),
    "cli.write_trace_csv": ("smio.cli", "write_trace_csv"),
    "cli.analyze": ("smio.cli", "cmd_analyze"),
}

# metric -> (spans it needs, how it is read: total / self / calls / count)
METRICS = {
    "model.detectability_s": (("model.detectability",), "total"),
    "decomposition.decompose_s": (("decomposition.decompose",), "total"),
    "decomposition.synthesize_s": (("decomposition.synthesize",), "total"),
    "decomposition.error_dynamics_s": (("decomposition.error_dynamics",), "total"),
    "decomposition.modes_built": (("decomposition.error_dynamics",), "count"),
    "observer.step_s": (("observer.step",), "total"),
    "observer.step_calls": (("observer.step",), "calls"),
    "observer.set_estimates_s": (("observer.set_estimates",), "total"),
    "modeguard.tracker_self_s": (
        ("modeguard.advance", "modeguard.stacked", "modeguard.tracker_tri", "modeguard.threshold_inf"),
        "self",
    ),
    "modeguard.matrix_2norms": (("modeguard.np",), "count"),
    "modeguard.stacked_s": (("modeguard.stacked",), "total"),
    "modeguard.stacked_bytes": (("modeguard.stacked",), "count"),
    "modeguard.threshold_inf_s": (("modeguard.threshold_inf",), "total"),
    "modeguard.enum_bytes": (("modeguard.threshold_inf",), "count"),
    "modeguard.path_single_row": (("modeguard.advance", "modeguard.threshold_inf"), "count"),
    "modeguard.path_enum": (("modeguard.advance", "modeguard.threshold_inf"), "count"),
    "modeguard.path_relaxed": (("modeguard.advance", "modeguard.threshold_inf"), "count"),
    "modeguard.path_tri_only": (("modeguard.advance", "modeguard.threshold_inf"), "count"),
    "modeguard.residual_s": (("modeguard.residual",), "total"),
    "modeguard.fuse_s": (("modeguard.fuse",), "total"),
    "modeguard.detectability_report_s": (("modeguard.detectability_report",), "total"),
    "cli.analyze_s": (("cli.analyze",), "total"),
    "sim.run_pipeline_s": (("sim.run_pipeline",), "total"),
    "sim.loop_self_s": (("sim.run_pipeline",), "self"),
    "cli.load_scenario_s": (("cli.load_scenario",), "total"),
    "cli.write_trace_csv_s": (("cli.write_trace_csv",), "total"),
}

# metrics that read another span than the first one they need
_SPAN_OF = {
    "modeguard.tracker_self_s": "modeguard.advance",
    "sim.loop_self_s": "sim.run_pipeline",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a hook target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not callable(fn):
        return None
    return owner, attr, fn


class _CountingLinalg:
    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def norm(self, x, ord=None, *args, **kwargs):
        if ord == 2 and getattr(x, "ndim", 0) == 2:
            self._tracer.counts["modeguard.matrix_2norms"] += 1
        return self._real.norm(x, ord, *args, **kwargs)

    def __getattr__(self, name):
        value = getattr(self._real, name)
        setattr(self, name, value)
        return value


class _CountingNumpy:
    """Stands in for ``numpy`` inside smio.modeguard to count the ord=2
    matrix norms it requests; everything else goes to numpy itself."""

    def __init__(self, real, tracer):
        self._real = real
        self.linalg = _CountingLinalg(real.linalg, tracer)

    def __getattr__(self, name):
        value = getattr(self._real, name)
        setattr(self, name, value)
        return value


class Tracer:
    """Installs the hooks, records spans and counts, and removes the hooks."""

    def __init__(self, hooks: dict | None = None):
        self.hooks = HOOKS if hooks is None else hooks
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self._undo: list = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.enum_bytes = 0

    # -------------------------------------------------------- installation

    def install(self) -> None:
        for span, (module_name, path) in self.hooks.items():
            target = _resolve(module_name, path)
            if target is None:
                continue
            owner, attr, fn = target
            wrapper = self._wrap(span, fn)
            self._replace(owner, attr, fn, wrapper)
            if not inspect.isclass(owner):
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("smio") and mod is not owner and vars(mod).get(attr) is fn:
                        self._replace(mod, attr, fn, wrapper)
            self.installed.add(span)
        mg = sys.modules.get("smio.modeguard")
        if mg is not None and getattr(mg, "np", None) is not None:
            self._replace(mg, "np", mg.np, _CountingNumpy(mg.np, self))
            self.installed.add("modeguard.np")

    def _replace(self, owner, attr, original, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --------------------------------------------------------------- spans

    def _wrap(self, span: str, fn):
        after = getattr(self, "_after_" + span.split(".", 1)[1], None)
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[0]
                self.calls[span] += 1
            if after is not None and span not in self.broken:
                try:
                    bound = dict(defaults)
                    bound.update(zip(names, args))
                    bound.update(kwargs)
                    after(bound, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the target's arguments or result changed shape
                    self.broken.add(span)
            return result

        return wrapper

    def _after_error_dynamics(self, args, result) -> None:
        self.counts["decomposition.modes_built"] += 1

    def _after_stacked(self, args, result) -> None:
        self.counts["modeguard.stacked_bytes"] += result.Aq_k.nbytes + result.bounds.nbytes

    def _after_threshold_inf(self, args, result) -> None:
        rows, cols = args["sm"].Aq_k.shape
        budget = args["enum_budget"]
        if rows <= 1 or cols == 0:
            self.counts["modeguard.path_single_row"] += 1
        elif cols <= budget:
            self.counts["modeguard.path_enum"] += 1
            # sign and vertex arrays (count x cols) and the values (count x rows)
            size = (1 << (cols - 1)) * (2 * cols + rows) * 8
            self.enum_bytes = max(self.enum_bytes, size)
        else:
            self.counts["modeguard.path_relaxed"] += 1

    def _after_advance(self, args, result) -> None:
        if result[0] is None:
            self.counts["modeguard.path_tri_only"] += 1

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer figures; metrics whose hooks are missing are absent."""
        out = {}
        for name, (spans, kind) in METRICS.items():
            if not all(s in self.installed for s in spans):
                continue
            if kind == "count" and any(s in self.broken for s in spans):
                continue
            span = _SPAN_OF.get(name, spans[0])
            if kind == "total":
                out[name] = self.total[span]
            elif kind == "self":
                out[name] = self.self_time[span]
            elif kind == "calls":
                out[name] = self.calls[span]
            elif name == "modeguard.enum_bytes":
                out[name] = self.enum_bytes
            else:
                out[name] = self.counts[name]
        return out
