"""Smoke test of the benchmark harness in perfbench/.

Every workload builds, and one scenario job and one criterion job run through
the harness and pass; the echo scenario job and criterion 9's job, and the
jobs that reach the wrapped linear-theory and growth names, pass under an
installed tracer, so a change that breaks what the benchmark calls or wraps
fails here rather than only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_build_and_their_jobs_pass(tmp_path):
    workloads = _perfbench("workloads")
    tracing = _perfbench("tracing")
    built = {
        name: workloads.build(name, ROOT, 0, tmp_path / name) for name in workloads.WORKLOADS
    }
    jobs = {job.name: job for workload in built.values() for job in workload.jobs}
    ctx = workloads.PassContext(workloads.CountingCache(), tmp_path / "out", tracing.NoTrace())
    for name in ("stability_scan", "criterion_2"):
        outcome = jobs[name].run(ctx)
        assert outcome.passed, (name, outcome.lines)


def _run_traced(tmp_path, workload_names, job_names):
    """Run the named jobs of the named workloads under an installed tracer;
    assert each passes and return the tracer's layer metrics."""
    workloads = _perfbench("workloads")
    tracing = _perfbench("tracing")
    jobs = {
        job.name: job
        for name in workload_names
        for job in workloads.build(name, ROOT, 0, tmp_path / name).jobs
    }
    tracer = tracing.Tracer()
    ctx = workloads.PassContext(workloads.CountingCache(), tmp_path / "out", tracer)
    tracer.install()
    try:
        for name in job_names:
            outcome = jobs[name].run(ctx)
            assert outcome.passed, (name, outcome.lines)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(list(job_names))


def test_echo_jobs_pass_under_the_tracer(tmp_path):
    # a traced pass wraps every name in tracing.LAYER_FUNCTIONS, and reads
    # kinetic.echo_experiment's first six positional arguments: a name that
    # is gone or re-signatured fails here, not only inside a benchmark run
    metrics = _run_traced(tmp_path, ("scenarios", "march_battery"), ("echo", "criterion_9"))
    assert metrics["kinetic.echo_experiment.calls"][0] == 1  # the echo scenario's probe


def test_linear_theory_jobs_pass_under_the_tracer(tmp_path):
    # these jobs reach every wrapped linear-theory and growth name: the
    # stability scan, the dispersion root, the Volterra march and its kernel,
    # and the growth verifier
    metrics = _run_traced(
        tmp_path, ("scenarios", "kernel_battery"),
        ("stability_scan", "linear_landau", "collision_sweep", "criterion_11"))
    for name in ("lintheory.stability_scan", "lintheory.dispersion_L",
                 "lintheory.volterra_solve", "lintheory.VolterraKernel", "echo.growth_verify"):
        assert metrics[f"{name}.calls"][0] > 0, name
