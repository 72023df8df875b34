"""Span tracing around vpkit's public functions, and the per-layer metrics.

A traced pass replaces each layer function listed in LAYER_FUNCTIONS with a
wrapper at every name a caller looks it up under: every vpkit module global
bound to the function (``from .kinetic import step`` copies the binding, so
``vpkit.acceptance.step`` is patched as well as ``vpkit.kinetic.step``). For
a class the wrapper goes on ``__init__``, so a span covers one construction,
validation included. The benchmark's own job runner adds the ``cli`` and
``acceptance`` spans around the calls it makes into those modules.

Spans (name, start, end, parent, job) are kept in flat arrays in memory and
written out once, when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np

# Layer module -> public names wrapped in a traced pass.
LAYER_FUNCTIONS = {
    "profiles": ("profile_fourier", "profile_sample", "interaction_hat"),
    "lintheory": (
        "volterra_solve", "dispersion_L", "free_streaming_response",
        "stability_scan", "damping_rate_fit", "VolterraKernel",
    ),
    "hybridnorms": ("f_norm", "y_norm", "z_norm", "prop13_battery"),
    "echo": (
        "echo_kernel", "echo_moment_forward", "echo_moment_backward",
        "growth_verify", "piecewise_integral_check",
    ),
    "kinetic": (
        "step", "PhaseState", "collision_substep", "poisson_field",
        "resolution_guard", "FieldHistory", "spectral_snapshot", "run",
        "echo_experiment",
    ),
}

# Every (k_max, n_v) grid a workload steps on; named like k4_v512.
STEP_SHAPES = ((2, 128), (2, 512), (4, 256), (4, 512), (8, 512), (16, 1024))

BATTERY_CRITERIA = tuple(range(1, 13))

# Jobs of the scenarios workload, in the order a pass issues them (shipped
# configs, then the seeded wide-grid variant).
SCENARIO_JOBS = (
    "collision_sweep", "echo", "free_transport", "kernel_table",
    "linear_landau", "norm_battery", "stability_scan", "linear_landau_wide",
)


def shape_name(k_max: int, n_v: int) -> str:
    return f"k{k_max}_v{n_v}"


def step_bytes_computed(k_max: int, n_v: int) -> int:
    """Computed (not measured) complex128 working set of one step.

    The state array, (2 k_max + 1) x n_v, plus the four n_x x n_v arrays the
    kick holds (spectrum grid, f(x, v), f(x, eta) and the phase factor), with
    n_x = max(4 k_max, 8) as in kinetic.step. Cache misses are not counted.
    """
    n_x = max(4 * k_max, 8)
    return 16 * n_v * ((2 * k_max + 1) + 4 * n_x)


def _vpkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vpkit" or name.startswith("vpkit."))]


def patch_everywhere(original, replacement) -> list:
    """Rebind every vpkit module global that is ``original``; return undo records."""
    undo = []
    for module in _vpkit_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def unpatch(undo) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


class Tracer:
    """In-memory span recorder for one traced pass over a workload."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_job = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = 0
        self._stack = [-1]
        self._child = [0.0]
        # span name -> [calls, total seconds, self seconds]; by_key holds the
        # same for secondary keys such as kinetic.step.k4_v512
        self.stats: dict[str, list] = {}
        self.by_key: dict[str, list] = {}
        self.marches_requested = 0
        self.marches_distinct: set = set()
        self._undo: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _end(self, idx: int, name: str, t0: float, t1: float, extra: str | None):
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - t0
        self._child[-1] += dur
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if extra is not None:
            st = self.by_key.setdefault(extra, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - child

    @contextmanager
    def span(self, name: str, extra: str | None = None):
        """Record one span around a block of the benchmark's own code."""
        nid = self._id(name)
        idx = self._begin(nid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(idx, name, t0, time.perf_counter(), extra)

    def _wrap(self, fn, name: str, extra_fn=None):
        nid = self._id(name)
        begin, end, clock = self._begin, self._end, time.perf_counter

        def wrapper(*args, **kwargs):
            extra = extra_fn(args, kwargs) if extra_fn is not None else None
            idx = begin(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx, name, t0, clock(), extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _step_shape(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        rows, n_v = state.f.shape
        return "kinetic.step." + shape_name((rows - 1) // 2, n_v)

    def _echo_marches(self, args, kwargs):
        config, l, m, s_force, eps1, eps2 = args[:6]
        key = (repr(config), int(l), int(m), float(s_force), float(eps1))
        self.marches_requested += 2  # the kicked march and its quiet baseline
        self.marches_distinct.add(key + (float(eps2),))
        self.marches_distinct.add(key + (0.0,))
        return None

    def install(self) -> None:
        """Wrap every layer function at all the names vpkit looks it up under."""
        extras = {"kinetic.step": self._step_shape,
                  "kinetic.echo_experiment": self._echo_marches}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"vpkit.{layer}")
            for attr in names:
                full = f"{layer}.{attr}"
                target = getattr(module, attr)
                if isinstance(target, type):
                    init = target.__init__
                    target.__init__ = self._wrap(init, full)
                    self._undo.append((target, "__init__", init))
                else:
                    wrapped = self._wrap(target, full, extras.get(full))
                    self._undo.extend(patch_everywhere(target, wrapped))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.span_job, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def _mask_under(self, arr, child: str, parents) -> np.ndarray:
        """Spans named ``child`` whose direct parent is one of ``parents``."""
        if child not in self._ids:
            return np.zeros(arr["name"].size, dtype=bool)
        pids = [self._ids[p] for p in parents if p in self._ids]
        has_parent = arr["parent"] >= 0
        parent_name = np.full(arr["name"].size, -1, dtype=np.int64)
        parent_name[has_parent] = arr["name"][arr["parent"][has_parent]]
        return (arr["name"] == self._ids[child]) & np.isin(parent_name, pids)

    def _count(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def layer_metrics(self, job_names: list[str]) -> dict:
        """Per-layer metrics of this pass as name -> (value, unit)."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        out: dict = {}

        def calls_s(name):
            out[f"{name}.calls"] = (self._count(name), "count")
            out[f"{name}.s"] = (self._seconds(name), "s")

        step = self.stats.get("kinetic.step", [0, 0.0, 0.0])
        out["kinetic.step.calls"] = (step[0], "count")
        out["kinetic.step.s"] = (step[1], "s")
        out["kinetic.step.self_s"] = (step[2], "s")
        for k_max, n_v in STEP_SHAPES:
            key = "kinetic.step." + shape_name(k_max, n_v)
            calls, total, _ = self.by_key.get(key, [0, 0.0, 0.0])
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.us"] = (1e6 * total / calls if calls else 0.0, "us")
            out[f"{key}.bytes_computed"] = (
                step_bytes_computed(k_max, n_v) if calls else 0, "B_computed")
        calls_s("kinetic.PhaseState")
        in_step = self._mask_under(arr, "kinetic.PhaseState", ["kinetic.step"])
        out["kinetic.validation_share"] = (
            float(dur[in_step].sum()) / step[1] if step[1] else 0.0, "ratio")
        for name in ("collision_substep", "poisson_field", "FieldHistory",
                     "spectral_snapshot", "run", "echo_experiment"):
            calls_s(f"kinetic.{name}")
        guard = self.stats.get("kinetic.resolution_guard", [0, 0.0, 0.0])
        out["kinetic.resolution_guard.calls"] = (guard[0], "count")
        out["kinetic.resolution_guard.us"] = (
            1e6 * guard[1] / guard[0] if guard[0] else 0.0, "us")
        requested = self.marches_requested
        out["kinetic.echo_marches.requested"] = (requested, "count")
        out["kinetic.echo_marches.distinct"] = (len(self.marches_distinct), "count")
        out["kinetic.echo_marches.distinct_ratio"] = (
            len(self.marches_distinct) / requested if requested else 0.0, "ratio")

        kern = self.stats.get("echo.echo_kernel", [0, 0.0, 0.0])
        out["echo.echo_kernel.calls"] = (kern[0], "count")
        out["echo.echo_kernel.s"] = (kern[1], "s")
        out["echo.echo_kernel.us"] = (1e6 * kern[1] / kern[0] if kern[0] else 0.0, "us")
        if "criterion_8" in job_names and "echo.echo_kernel" in self._ids:
            in_c8 = ((arr["name"] == self._ids["echo.echo_kernel"])
                     & (arr["job"] == job_names.index("criterion_8")))
            out["echo.echo_kernel.criterion_8.calls"] = (int(in_c8.sum()), "count")
        else:
            out["echo.echo_kernel.criterion_8.calls"] = (0, "count")
        moments = ["echo.echo_moment_forward", "echo.echo_moment_backward"]
        for name in moments:
            calls_s(name)
        n_moments = sum(self._count(m) for m in moments)
        in_moment = self._mask_under(arr, "echo.echo_kernel", moments)
        out["echo.kernel_points_per_moment"] = (
            int(in_moment.sum()) / n_moments if n_moments else 0.0, "count")
        calls_s("echo.growth_verify")
        calls_s("echo.piecewise_integral_check")

        for layer in ("lintheory", "hybridnorms", "profiles"):
            for name in LAYER_FUNCTIONS[layer]:
                calls_s(f"{layer}.{name}")

        for n in BATTERY_CRITERIA:
            out[f"acceptance.criterion_{n}.s"] = (self._seconds(f"acceptance.criterion_{n}"), "s")

        rs = self.stats.get("cli.run_scenario", [0, 0.0, 0.0])
        out["cli.run_scenario.s"] = (rs[1], "s")
        out["cli.run_scenario.self_s"] = (rs[2], "s")
        for job in SCENARIO_JOBS:
            out[f"cli.run_scenario.{job}.s"] = (
                self.by_key.get(f"cli.run_scenario.{job}", [0, 0.0, 0.0])[1], "s")
        out["trace.spans"] = (int(arr["name"].size), "count")
        return out

    def self_time_table(self) -> list[str]:
        """Self time per layer (module), largest first, as printable lines."""
        per_layer: dict = {}
        for name, (calls, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            row = per_layer.setdefault(layer, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        grand = sum(row[1] for row in per_layer.values()) or 1.0
        lines = [f"  {'layer':<12} {'spans':>9} {'self_s':>9} {'share':>7}"]
        for layer, (calls, self_s) in sorted(per_layer.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {layer:<12} {calls:>9d} {self_s:>9.3f} {self_s / grand:>7.1%}")
        return lines

    def save(self, path, job_names: list[str]) -> None:
        np.savez(path, names=np.array(self.names), jobs=np.array(job_names), **self.arrays())


class NoTrace:
    """Stand-in for Tracer in untraced passes: spans cost nothing."""

    job = 0

    def span(self, name: str, extra: str | None = None):
        return nullcontext()
