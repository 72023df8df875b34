"""vpkit benchmark: three closed-loop workloads, timed end to end, traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 5 --trace 0

Workloads (see workloads.py and predictions.json):
  scenarios       every configs/*.ini through cli.run_scenario, plus a seeded
                  linear_landau variant on the wide (16, 1024) grid
  march_battery   acceptance criteria 1, 2, 3, 4, 5, 9, 12, one cache per pass
  kernel_battery  acceptance criteria 6, 7, 8, 10, 11, one cache per pass

A run first measures set-up several times, each in a fresh interpreter that
imports vpkit, generates and parses the workload's configs and stops where
the first job would be issued. It then builds the workload in-process and
issues passes over the job list back to back, one client, until --seconds
have passed and at least two passes ran. Every job is checked: it fails when
it raises, when a criterion fails, when its output (scenario content hash,
or the criterion's acceptance summary line) differs from its first pass, or
when a kinetic.run inside it stopped before t_end.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (median pass,
the cold first pass included) and peak_rss_mb. --trace 1 alternates traced
and untraced passes after an untraced first pass, and reports the per-layer
metrics of the traced passes (counts from the first traced pass, times as
medians) with the tracing overhead. The last stdout line is the JSON
result; a fuller record, with the environment and, for traced runs, the
spans, is written under .perfbench_out/ in the repository root.
"""

import os

# One BLAS thread for this process and its children, so the load stays on
# the cores the run is measured on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scenarios", "march_battery", "kernel_battery")
SETUP_PROBES = 5
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _check_layout() -> None:
    missing = [p for p in ("src/vpkit/cli.py", "src/vpkit/acceptance.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(
            f"perfbench: {ROOT} is not a vpkit checkout (missing {', '.join(missing)})"
        )
    sys.path.insert(0, str(ROOT / "src"))


def _setup_probe(args) -> int:
    """Child side of a set-up measurement: import, generate, parse, report."""
    t0 = time.perf_counter()
    import vpkit.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    work = OUT / f"probe-{os.getpid()}"
    try:
        workloads.build(args.workload, ROOT, args.seed, work)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[list, list]:
    """Interpreter start to first job issued, once per fresh probe process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        setup.append(t1 - t0)
        imports.append(json.loads(line)["import_s"])
    return setup, imports


def install_stop_guard(truncations: list) -> list:
    """Wrap kinetic.run at every name vpkit calls it by; note early stops.

    Returns the undo records for tracing.unpatch."""
    import vpkit.kinetic as kinetic
    from tracing import patch_everywhere

    original = kinetic.run

    def run(*args, **kwargs):
        hist, diag = original(*args, **kwargs)
        if diag["stop_reason"] != "t_end":
            truncations.append(
                f"kinetic.run stopped early ({diag['stop_reason']}) at "
                f"t={float(hist.times[-1]):g}"
            )
        return hist, diag

    return patch_everywhere(original, run)


class Runner:
    """Issues passes over a workload's jobs and checks every job it ran."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.truncations: list = []
        self.first: dict = {}  # job name -> fingerprint of its first pass
        self.attempted = 0
        self.failures: list = []
        self.passes = 0
        self.cpu_s: list = []  # process CPU seconds of each pass
        self.last_cache = None
        self.output_bytes = 0

    def run_pass(self, tracer) -> float:
        from workloads import CountingCache, PassContext

        self.passes += 1
        out_dir = self.work / f"pass-{self.passes}"
        out_dir.mkdir(parents=True)
        ctx = PassContext(CountingCache(), out_dir, tracer)
        results = []
        c0, t0 = time.process_time(), time.perf_counter()
        for j, job in enumerate(self.workload.jobs):
            tracer.job = j
            mark = len(self.truncations)
            with tracer.span("bench.job"):
                try:
                    outcome, error = job.run(ctx), None
                except Exception:
                    outcome, error = None, traceback.format_exc(limit=3)
            results.append((job.name, outcome, error, self.truncations[mark:]))
        wall = time.perf_counter() - t0
        self.cpu_s.append(time.process_time() - c0)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.last_cache = ctx.cache
        self.output_bytes = sum(o.output_bytes for _, o, _, _ in results if o)
        for name, outcome, error, truncated in results:
            self._check(name, outcome, error, truncated)
        return wall

    def _check(self, name, outcome, error, truncated) -> None:
        self.attempted += 1
        reasons = []
        if error is not None:
            reasons.append(f"raised: {error.strip()}")
        else:
            if not outcome.passed:
                reasons.append("a criterion failed")
            first = self.first.setdefault(name, outcome.fingerprint)
            if outcome.fingerprint != first:
                reasons.append(
                    f"output differs from the first pass ({outcome.fingerprint[:60]!r} "
                    f"vs {first[:60]!r})"
                )
            if self.passes == 1:
                for line in outcome.lines:
                    print(f"  [{name}] {line}")
        reasons.extend(truncated)
        if reasons:
            self.failures.append((self.passes, name, reasons))
            print(f"FAILED job {name} (pass {self.passes}): {'; '.join(reasons)}")
            for line in (outcome.lines if outcome else []):
                print(f"  [{name}] {line}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _traced_metrics(tracers, job_names) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    samples = [t.layer_metrics(job_names) for t in tracers]
    metrics = {}
    for key, (value, unit) in samples[0].items():
        if unit in ("count", "B_computed"):
            metrics[key] = (value, unit)
        else:
            metrics[key] = (_median([s[key][0] for s in samples]), unit)
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _check_layout()
    if args.setup_probe:
        return _setup_probe(args)

    import workloads

    ticks0 = machine.cpu_ticks()
    setup, imports = measure_setup(args)
    work = OUT / f"run-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, ROOT, args.seed, work)
        return _measure(args, workload, work, setup, imports, ticks0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, work, setup, imports, ticks0) -> int:
    import tracing

    job_names = [job.name for job in workload.jobs]
    runner = Runner(workload, work)
    install_stop_guard(runner.truncations)
    print(f"workload {workload.name} seed {args.seed}: {len(job_names)} jobs per pass, "
          f"closed loop, 1 client, trace {args.trace}")

    null = tracing.NoTrace()
    tracers, traced_walls, untraced_walls = [], [], []
    start = time.perf_counter()
    if args.trace:
        # untraced first pass: the reference output, and it fills the lazy
        # caches so that traced and untraced passes compare warm with warm
        walls = [runner.run_pass(null)]
        while not tracers or time.perf_counter() - start < args.seconds:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            untraced_walls.append(runner.run_pass(null))
        walls += untraced_walls
    else:
        # The first pass runs cold (lazy caches and the allocator's heap
        # fill up), as a fresh vpkit process does, and is timed with the rest.
        walls = []
        while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            walls.append(runner.run_pass(null))
    print("pass wall s: " + ", ".join(f"{w:.3f}" for w in walls))
    if traced_walls:
        print("traced pass wall s: " + ", ".join(f"{w:.3f}" for w in traced_walls))
    print("pass cpu s (all passes, in order): " + ", ".join(f"{c:.3f}" for c in runner.cpu_s))

    failed = len(runner.failures)
    setup_s = _median(setup)
    wall_s = _median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cell_steps_per_s = workload.cell_steps / wall_s if wall_s else 0.0
    print(f"setup_s = {setup_s:.4f} s (median of {len(setup)} fresh interpreters; "
          f"import of vpkit.cli {_median(imports):.4f} s)")
    print(f"wall_s = {wall_s:.4f} s (median of {len(walls)} passes)")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
    if workload.cell_steps:
        print(f"cell_steps_per_s = {cell_steps_per_s:.4g} 1/s "
              f"({workload.cell_steps} cell steps defined per pass)")
    print(f"fail_frac = {failed}/{runner.attempted} = {failed / runner.attempted:.3g}")

    if args.trace:
        metrics = _traced_metrics(tracers, job_names)
        traced_s, untraced_s = _median(traced_walls), _median(untraced_walls)
        cache = runner.last_cache
        metrics.update({
            "kinetic.cell_steps": (workload.cell_steps, "count"),
            "kinetic.cell_steps_per_s": (
                workload.cell_steps / untraced_s if untraced_s else 0.0, "1/s"),
            "acceptance.cache.lookups": (cache.lookups, "count"),
            "acceptance.cache.hit_ratio": (
                cache.hits / cache.lookups if cache.lookups else 0.0, "ratio"),
            "cli.import_s": (_median(imports), "s"),
            "cli.parse_config.s": (workload.parse_s, "s"),
            "cli.output_bytes": (runner.output_bytes, "count"),
            "trace.traced_wall_s": (traced_s, "s"),
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        })
        print(f"per-layer self time, first traced pass of {workload.name}:")
        for line in tracers[0].self_time_table():
            print(line)
        print(f"tracing overhead = {traced_s - untraced_s:.4f} s "
              f"(traced {traced_s:.4f} s - untraced {untraced_s:.4f} s per pass)")
        for key in sorted(metrics):
            value, unit = metrics[key]
            print(f"  {key} = {value:.6g} {unit}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    env = machine.environment(ROOT, args.seed)
    env.update(machine.tick_delta(ticks0, machine.cpu_ticks()))
    env["generated_configs"] = workload.configs
    print("env: " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": walls, "setup_samples": setup, "import_samples": imports,
        "traced_passes": traced_walls, "pass_cpu_s": runner.cpu_s,
        "failures": runner.failures, "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for n, tracer in enumerate(tracers, 1):
        tracer.save(OUT / f"spans-{workload.name}-pass{n}.npz", job_names)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
