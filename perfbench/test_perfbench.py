"""Tests of the benchmark itself: its output contract, its job check, and the
structural counts predictions.json records. They start two traced runs of
every workload, so they take a few minutes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with the same seed."""
    args = ("--seed", "3", "--seconds", "0", "--trace", "1")
    return {
        wl: [_result(_bench("--workload", wl, *args)) for _ in range(2)]
        for wl in run.WORKLOADS
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert set(PREDICTIONS["workloads"]) == set(run.WORKLOADS)


def test_traced_runs_pass_and_report_every_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for wl, results in traced.items():
        for res in results:
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, wl
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == declared, wl


def test_bypass_predictions_hold(traced):
    for wl, expected in PREDICTIONS["structural_counts"].items():
        metrics = traced[wl][0]["metrics"]
        for name, value in expected.items():
            assert metrics[name]["value"] == pytest.approx(value, rel=0, abs=1e-12), (wl, name)


def test_counts_repeat_exactly_between_traced_runs(traced):
    exact_units = ("count", "B_computed")
    exact_ratios = ("kinetic.echo_marches.distinct_ratio", "acceptance.cache.hit_ratio")
    for wl, (first, second) in traced.items():
        for name, m in first["metrics"].items():
            if m["unit"] in exact_units or name in exact_ratios:
                assert second["metrics"][name]["value"] == m["value"], (wl, name)


def test_cell_steps_from_inputs_match_traced_steps(traced):
    for wl, (res, _) in traced.items():
        metrics = res["metrics"]
        stepped = sum(
            (2 * k + 1) * n_v * metrics[f"kinetic.step.{tracing.shape_name(k, n_v)}.calls"]["value"]
            for k, n_v in tracing.STEP_SHAPES
        )
        assert metrics["kinetic.cell_steps"]["value"] == stepped, wl


def test_untraced_run_reports_end_to_end_metrics():
    res = _result(_bench("--workload", "march_battery", "--seed", "5", "--seconds", "0",
                         "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 14
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "scenarios", "--seed", "1", "--seconds", "10",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_job_check_flags_every_failure_kind(tmp_path):
    from vpkit import kinetic
    from vpkit.profiles import Interaction, VelocityProfile

    def truncated(ctx):
        # n_v = 64 is too coarse for t_end = 45: the resolution guard stops
        # the march early and kinetic.run still returns normally
        kinetic.run(kinetic.KineticRun(
            profile=VelocityProfile.maxwellian(0.05), interaction=Interaction.power_law(2.0),
            nu=0.0, dt=0.05, t_end=45.0, amplitude=1e-5, k_max=4, n_v=64,
        ))
        return workloads.Outcome(True, "same", [])

    drift = iter(("first", "second"))

    def raising(ctx):
        raise RuntimeError("boom")

    jobs = [
        workloads.Job("ok", lambda ctx: workloads.Outcome(True, "same", [])),
        workloads.Job("truncated", truncated),
        workloads.Job("drifting", lambda ctx: workloads.Outcome(True, next(drift), [])),
        workloads.Job("raising", raising),
        workloads.Job("failing", lambda ctx: workloads.Outcome(False, "same", ["FAIL x"])),
    ]
    runner = run.Runner(workloads.Workload("fake", jobs, 0, {}, 0.0), tmp_path)
    original = kinetic.run
    undo = run.install_stop_guard(runner.truncations)
    try:
        for _ in range(2):
            runner.run_pass(tracing.NoTrace())
    finally:
        tracing.unpatch(undo)
    failed = {(p, name) for p, name, _ in runner.failures}
    assert runner.attempted == 10
    assert failed == {
        (1, "truncated"), (2, "truncated"), (2, "drifting"),
        (1, "raising"), (2, "raising"), (1, "failing"), (2, "failing"),
    }
    assert kinetic.run is original
