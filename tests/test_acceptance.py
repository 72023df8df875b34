"""Acceptance gate: every numbered criterion asserted, one line per check.

Each test runs one criterion through the shared battery cache (so the Landau
runs, dispersion roots, and echo marches are computed once) and prints the
criterion's PASS/FAIL line with its measured values. The assertion message
carries the same line, so a red test names the number that moved and the
tolerance it was held to.
"""

import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from vpkit import acceptance, echo, kinetic
from vpkit.acceptance import CRITERIA, SUITES, BatteryReport, run_battery
from vpkit.errors import TooFewPeaks, ValidationError
from vpkit.kinetic import RESOLUTION_TOL
from vpkit.lintheory import free_streaming_response


# Exact summary-CSV lines of the kernel and norm criteria. Their numbers come
# from the closed-form phase integrals, the echo kernel, the closed-form
# forward moments, the backward moments over the kernel's exact envelope and
# the compensated norm sums, all deterministic to the bit, so any drift in
# that numerics fails here even inside the tolerances.
PINNED_LINES = {
    7: "7,phase_integral_table,true,cases=200;violations=0;worst_ratio=1.0000000000000071;"
       "exact_cases=9;exact_case_gap=7.1054273576010019e-15",
    8: "8,moment_decay_shapes,true,dyadic_exponent=0.95947019058236305;"
       "exponent_floor=0.80000000000000004;forward_constant_ratio=0.11841259144366238;"
       "backward_constant_ratio=0.23323510812144449",
    11: "11,weighted_growth_control,true,hypothesis_ratio=0.99537899292645904;"
        "crude_bound_ratio=0.40747369623834145;envelope_ratio=0.002217159139367735;"
        "check_points=97",
    10: "10,norm_battery,true,fields=20;param_sets=5;slack_i=3.6875589201066293e-16;"
        "slack_ii=0;slack_viii=1.1680276533501571e-16;slack_viiii=0;"
        "slack_iX=2.9169730110003373e-16",
}


def _csv_line(result):
    return BatteryReport("pinned", (result,), 0.0).summary_csv().splitlines()[1]


@pytest.fixture(scope="module")
def cache():
    return {}


def _check(fn, cache):
    result = fn(cache)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_free_transport_exactness(cache):
    result = _check(acceptance.criterion_1, cache)
    assert result.measured["trace_error"] < 1e-10
    assert result.measured["spectrum_error"] < 1e-10
    assert result.wall_seconds < 10.0
    # the march observes the resolution guard: it trips at t = 412 of 680 and
    # the criterion reports it (the exact shift is the stronger test here)
    assert result.measured["guard_trip_time"] == 412.0
    assert result.measured["guard_peak"] > RESOLUTION_TOL


def test_criterion_02_collision_closed_form(cache):
    result = _check(acceptance.criterion_2, cache)
    assert result.measured["ode_error"] < 1e-12
    assert result.measured["rho_invariance_error"] < 1e-14
    assert result.wall_seconds < 1.0
    # the RK4 reference converges at fourth order: 2^4 per halving
    assert 14.0 <= result.measured["rk4_halving_ratio"] <= 18.0


def test_criterion_02_fails_on_a_doubled_relaxation_rate(monkeypatch):
    # the velocity-shaped probe sits away from its relaxation target, so a
    # substep relaxing at 2 nu misses the reference by far more than 1e-12
    real = acceptance.collision_substep

    def doubled(f, rho, dt, nu, *args, **kwargs):
        return real(f, rho, dt, 2.0 * nu, *args, **kwargs)

    monkeypatch.setattr(acceptance, "collision_substep", doubled)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.measured["ode_error"] > 1e-4
    assert result.measured["rho_invariance_error"] < 1e-14


def test_criterion_03_conservation_audit(cache):
    result = _check(acceptance.criterion_3, cache)
    assert result.measured["runs_audited"] >= 4
    assert result.measured["max_mass_drift"] < 1e-10
    assert result.tolerance["runs_audited"] == ">= 4"


def test_criterion_03_fails_when_a_run_stops_before_t_end(monkeypatch):
    # the Landau runs' edge fraction passes 1e-17 before t = 1 (the
    # nonlinear run's stays below 2e-19): with the guard at that tolerance
    # both stop there. The runs go side by side, so the one at nu = 0.01
    # stops in the forked child, out of sight of any wrapper of kinetic.run
    # in this process
    from vpkit import kinetic

    monkeypatch.setattr(kinetic, "RESOLUTION_TOL", 1e-17)
    monkeypatch.setattr(kinetic, "_may_fork", lambda: True)
    cache = {}
    result = acceptance.criterion_3(cache)
    _, diag = cache[("landau", 0.0)]
    assert not result.passed
    assert result.measured["stopped_run"] == "landau nu=0"
    assert result.measured["stop_reason"] == diag["stop_reason"] == "resolution_exceeded"
    assert result.measured["stop_time"] == diag["stop_time"] < acceptance.LANDAU_CONFIG.t_end
    assert result.measured["max_mass_drift"] < 1e-10  # the mass gate alone would pass


# Wraps kinetic._march and acceptance.perturbation_march in this interpreter,
# runs the echo suite and prints the guard of each kinetic march and the
# number of second-order oracle marches.
_WATCHED_ECHO = """
import json
from vpkit import acceptance, kinetic

march, oracle = kinetic._march, acceptance.perturbation_march
seen = {"marches": [], "oracles": 0}

def watched_march(*args, guard, **kwargs):
    seen["marches"].append(guard)
    return march(*args, guard=guard, **kwargs)

def watched_oracle(*args, **kwargs):
    seen["oracles"] += 1
    return oracle(*args, **kwargs)

kinetic._march = acceptance._march = watched_march
acceptance.perturbation_march = watched_oracle
seen["passed"] = acceptance.run_battery("echo").passed
print(json.dumps(seen))
"""


def test_the_echo_probe_marches_in_the_calling_process():
    # BLAS on one thread, as the benchmark runs the battery, so that
    # kinetic._side_by_side may fork its child: criterion 9's probe run and
    # its oracle must both reach this interpreter's wrappers
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WATCHED_ECHO], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(done.stdout)
    assert seen["passed"]
    # the probe run to the kick and on from it, then its oracle
    assert seen["marches"] == ["raise", "raise"]
    assert seen["oracles"] == 1


def test_criterion_04_damping_rate_three_routes(cache):
    result = _check(acceptance.criterion_4, cache)
    assert result.measured["worst_pairwise_gap"] <= 0.05
    assert result.wall_seconds < 120.0


def test_criterion_05_collision_continuity(cache):
    result = _check(acceptance.criterion_5, cache)
    assert result.measured["decade_ratio_2_3"] >= 8.0
    assert result.measured["decade_ratio_3_4"] >= 8.0


def test_criterion_06_free_streaming_identities(cache):
    result = _check(acceptance.criterion_6, cache)
    assert result.measured["grid_points"] == 100
    assert result.measured["quadrature_converged"] is True
    assert result.measured["worst_quadrature_error"] <= 1e-8
    assert result.tolerance["grid_points"] == "= 100"


def test_criterion_06_substituted_integral_matches_direct_quad():
    # case layout: (k, nu) pairs k-major, then 5 x 5 (omega, v) omega-major
    fixed = acceptance._averaged_by_rule(50)
    for case in (0, 13, 37, 61, 99):
        pair, point = divmod(case, 25)
        k, nu = ((1.0, 0.2), (1.0, 0.35), (2.0, 0.2), (2.0, 0.35))[pair]
        omega = (0.0, 0.7, 1.4, 2.1, 2.8)[point // 5]
        v = (-1.2, -0.4, 0.3, 0.8, 1.5)[point % 5]

        def direct(s, part):
            val = nu * np.exp(-nu * s) * free_streaming_response(
                omega, k, v, 0.0, 0.0, s, acceptance.PROFILE_UNIT, form="transient"
            )
            return (val.real, val.imag)[part]

        for part in (0, 1):
            ref = quad(direct, 0.0, 50.0 / nu, args=(part,), limit=800, epsabs=1e-12)[0]
            got = (fixed[case].real, fixed[case].imag)[part]
            assert abs(got - ref) <= 1e-10, (case, part)


def test_criterion_06_fails_when_the_quadrature_does_not_converge(monkeypatch):
    # the 100-panel rule drifts 1e-11 from the 50-panel one: a rule that
    # has not settled, though either is still 1e-8 close to the closed form
    real = acceptance._averaged_by_rule

    def unsettled(panels):
        return real(panels) + (1e-11 if panels == 100 else 0.0)

    monkeypatch.setattr(acceptance, "_averaged_by_rule", unsettled)
    result = acceptance.criterion_6()
    assert not result.passed
    assert result.measured["quadrature_converged"] is False
    assert "quadrature_converged=False" in result.line()
    assert result.measured["worst_quadrature_error"] <= 1e-8


def test_criterion_07_phase_integral_table(cache):
    result = _check(acceptance.criterion_7, cache)
    assert result.measured["cases"] == 200
    assert result.measured["violations"] == 0
    assert result.wall_seconds < 30.0
    assert result.measured["exact_cases"] == 9
    assert result.measured["exact_case_gap"] <= 1e-12
    assert _csv_line(result) == PINNED_LINES[7]


def test_criterion_07_fails_on_phase_integrals_that_come_out_too_small(monkeypatch):
    # halved values stay under every bound; the exact l = k cases catch them
    real = echo.piecewise_integral_check

    def halved(*args):
        numeric, bound = real(*args)
        return 0.5 * numeric, bound

    monkeypatch.setattr(echo, "piecewise_integral_check", halved)
    result = acceptance.criterion_7()
    assert not result.passed
    assert result.measured["violations"] == 0
    assert result.measured["exact_case_gap"] == pytest.approx(0.5)


def test_criterion_08_moment_decay_shapes(cache):
    result = _check(acceptance.criterion_8, cache)
    assert result.measured["dyadic_exponent"] >= result.measured["exponent_floor"]
    assert result.measured["forward_constant_ratio"] <= 1.0
    assert result.measured["backward_constant_ratio"] <= 1.0
    assert _csv_line(result) == PINNED_LINES[8]


def test_criterion_09_plasma_echo_arrival(cache):
    result = _check(acceptance.criterion_9, cache)
    assert result.measured["arrival_offset"] <= 0.05
    assert result.measured["oracle_gap"] <= 1e-7  # 7.9e-8: the eps^3 terms and roundoff
    assert result.tolerance["oracle_gap"].startswith("<= 1e-05: ")  # the shipped probe's bound
    assert list(result.measured) == ["t_predicted", "t_measured", "arrival_offset", "oracle_gap",
                                     "wall_seconds"]
    assert result.wall_seconds < 120.0


# One-function mutants of the step and of the echo impulse, each a
# monkeypatch, that the echo trace's second-order march must catch.
REAL_ADVANCE, REAL_STEP = kinetic._advance, kinetic.step


def _lie_split(plan, src, f, work, external=None):
    np.multiply(src, plan.half * plan.half, out=f)  # the whole transport before the kick
    REAL_ADVANCE(plan._replace(half=1.0), f, f, work, external)


def _field_from_start_of_step(plan, src, f, work, external=None):
    e_hat = plan.field * (plan.dv * src.sum(axis=1))
    e_hat[0] = 0.0
    if external is not None:
        e_hat = e_hat + external
    np.multiply(src, plan.half, out=f)
    kinetic._kick(plan, f, e_hat, work)
    f *= plan.half


def _kick_sign_flipped(plan, src, f, work, external=None):
    REAL_ADVANCE(plan._replace(shift=-plan.shift), src, f, work, external)


def _impulse_doubled(state, dt, W, profile, nu, external_field_hat=None):
    if external_field_hat is not None:  # the echo run's kicked step
        external_field_hat = 2.0 * external_field_hat
    return REAL_STEP(state, dt, W, profile, nu, external_field_hat)


ECHO_MUTANTS = {
    "lie_split": ("_advance", _lie_split),
    "field_from_start_of_step": ("_advance", _field_from_start_of_step),
    "kick_sign_flipped": ("_advance", _kick_sign_flipped),
    "impulse_doubled": ("step", _impulse_doubled),
}


@pytest.mark.parametrize("mutant", ECHO_MUTANTS)
def test_criterion_09_fails_each_echo_mutant_on_the_oracle_gap(monkeypatch, mutant):
    monkeypatch.setattr(kinetic, *ECHO_MUTANTS[mutant])
    result = acceptance.criterion_9()
    assert not result.passed, result.line()
    assert result.measured["oracle_gap"] > 1e-5
    assert result.measured["arrival_offset"] <= 0.05  # the arrival gate alone lets it pass


@pytest.mark.parametrize("mutant", ["lie_split", "field_from_start_of_step"])
def test_the_echo_scenario_fails_a_wrong_step_on_its_oracle_gap(tmp_path, monkeypatch, mutant):
    # `vpkit run` holds the echo to the same oracle and gate as criterion 9
    from vpkit.cli import main

    monkeypatch.setattr(kinetic, *ECHO_MUTANTS[mutant])
    out = tmp_path / "out"
    config = Path(__file__).resolve().parents[1] / "configs" / "echo.ini"
    assert main(["run", str(config), "--out", str(out), "--quiet"]) == 1
    arrival, oracle = json.loads((out / "report.json").read_text())["criteria"]
    assert arrival["passed"]  # the arrival gate alone lets it pass
    assert oracle["name"] == "echo_follows_its_oracle" and not oracle["passed"]
    assert float(oracle["measured"]["oracle_gap"]) > 1e-5
    assert json.loads((out / "echo.json").read_text())["oracle_gap"] == (
        oracle["measured"]["oracle_gap"])


def test_echo_oracle_first_order_row_matches_the_trace_before_the_kick():
    e, config = acceptance.ECHO.echo, acceptance.ECHO_CONFIG
    probe = (config, e.l, e.force_mode, e.s_force, e.eps1, e.eps2)
    _, trace = kinetic.echo_experiment(*probe)
    oracle = acceptance.echo_oracle(*probe)
    j_kick = round(e.s_force / config.dt)
    assert np.max(np.abs(trace - oracle)[: j_kick + 1]) <= 1e-13
    assert np.max(trace[: j_kick + 1]) > 1e-4  # the seed, 0.5 eps1 at t = 0


def test_perturbation_march_relaxes_each_row():
    # at nu = 0.1 the echo peak falls to 7.5e-8 from 2.0e-7, and the oracle
    # with its collision row follows the run as closely as at nu = 0 (8.06e-8
    # against 7.88e-8); the same oracle without the row misses it
    e = acceptance.ECHO.echo
    config = replace(acceptance.ECHO_CONFIG, nu=0.1)
    probe = (config, e.l, e.force_mode, e.s_force, e.eps1, e.eps2)
    report = acceptance.echo_probe(*probe)
    assert report["oracle_gap"] <= 1e-7
    assert report["peak_amp"] < 0.5 * acceptance.echo_probe(
        acceptance.ECHO_CONFIG, *probe[1:])["peak_amp"]
    _, trace = kinetic.echo_experiment(*probe)
    after = round(e.s_force / config.dt) + 3

    def gap(oracle):
        return float(np.max(np.abs(trace - oracle)[after:])) / report["peak_amp"]

    assert gap(acceptance.echo_oracle(*probe)) == report["oracle_gap"]
    assert gap(acceptance.echo_oracle(acceptance.ECHO_CONFIG, *probe[1:])) > 0.1


def test_the_echo_oracle_names_no_part_of_the_step():
    # the second-order march is an independent route to the echo: it shares
    # f0, W_hat and Q_OVER_M with the solver, never its step or its tables
    tree = ast.parse(Path(acceptance.__file__).read_text())
    marches = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name in ("perturbation_march", "echo_oracle")]
    assert len(marches) == 2
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    named = {getattr(node, fields[type(node)]) for march in marches
             for node in ast.walk(march) if type(node) in fields}
    assert "_equilibrium_rows" in named and "interaction_hat" in named
    forbidden = {"_advance", "_kick", "_relax", "_step_plan", "_phase_powers", "_x_transforms",
                 "step"}
    assert named & forbidden == set()


def test_oracle_gate_fails_a_zero_peak():
    # a silent echo's gap is 0/0: the gate fails it and divides by nothing
    gate = acceptance.check_echo_oracle(math.nan, 0.0, 0.0)
    assert not gate.passed and gate.measured["peak_amp"] == 0.0
    assert gate.tolerance.startswith("<= 0: ")
    assert not acceptance.check_echo_oracle(0.0, 0.0, 1e-3).passed
    # the bound is criterion 9's 1e-5 at the shipped eps2 = 1e-3, grows as
    # eps2^2 (7.1e-5 at eps2 = 3e-2 passes under 9e-3) and is floored at
    # ECHO_ROUNDOFF absolute (3.8e-7 of a 2e-9 peak at (1e-4, 1e-4) passes)
    shipped = acceptance.check_echo_oracle(7.9e-8, 2e-7, 1e-3)
    assert shipped.passed and shipped.tolerance.startswith("<= 1e-05: ")
    assert not acceptance.check_echo_oracle(1.1e-5, 2e-7, 1e-3).passed
    assert acceptance.check_echo_oracle(7.1e-5, 6e-6, 3e-2).tolerance.startswith("<= 0.009: ")
    assert acceptance.check_echo_oracle(3.8e-7, 2e-9, 1e-4).passed
    assert not acceptance.check_echo_oracle(3.8e-7, 2e-7, 1e-4).passed


def test_criterion_10_norm_battery(cache):
    result = _check(acceptance.criterion_10, cache)
    for item in ("i", "ii", "viii", "viiii", "iX"):
        assert result.measured[f"slack_{item}"] < 1e-9
    assert _csv_line(result) == PINNED_LINES[10]


def test_criterion_11_weighted_growth_control(cache):
    result = _check(acceptance.criterion_11, cache)
    assert result.measured["hypothesis_ratio"] <= 1.0 + 1e-9
    assert result.measured["crude_bound_ratio"] < 1.0
    assert result.measured["envelope_ratio"] < 1.0
    assert _csv_line(result) == PINNED_LINES[11]


def test_criterion_11_fails_on_an_envelope_ratio_of_one(monkeypatch):
    # growth_verify reports its ratios and gates none: an envelope ratio a
    # hair above 1 must fail the criterion's own "< 1" tolerance
    real = acceptance.growth_verify

    def touching(*args, **kwargs):
        return replace(real(*args, **kwargs), max_envelope_ratio=1.0 + 5e-10)

    monkeypatch.setattr(acceptance, "growth_verify", touching)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.measured["envelope_ratio"] == 1.0 + 5e-10


def test_criterion_11_fails_with_its_ratios_under_a_flipped_volterra_kernel(monkeypatch):
    from vpkit import lintheory

    real = lintheory._kernel_values
    monkeypatch.setattr(lintheory, "_kernel_values", lambda *args: -real(*args))
    result = acceptance.criterion_11()
    assert not result.passed
    assert "error" not in result.measured
    # the weighted density escapes its envelope (measured 51.5); the
    # hypothesis and the crude bound still hold
    assert result.measured["envelope_ratio"] > 1.0
    assert result.measured["hypothesis_ratio"] <= 1.0 + 1e-9
    assert result.measured["crude_bound_ratio"] < 1.0


def test_criterion_12_field_decay_slope(cache):
    result = _check(acceptance.criterion_12, cache)
    for nu_tag in ("nu0", "nu0.01"):
        assert result.measured[f"gap_{nu_tag}"] <= 0.05
        assert result.measured[f"fit_rms_{nu_tag}"] < 0.05


def test_decay_criteria_fail_with_their_numbers_when_no_fit_can_be_had(monkeypatch):
    def no_peaks(series, window):
        raise TooFewPeaks("found 0 envelope peaks")

    monkeypatch.setattr(acceptance, "damping_rate_fit", no_peaks)
    c4, c12 = run_battery("linear_landau").results
    for result in (c4, c12):
        assert not result.passed, result.line()
        assert "error" not in result.measured
        assert any(key.startswith("reason") for key in result.measured)
    assert "volterra_nu0: TooFewPeaks: found 0 envelope peaks" in c4.measured["reason"]
    assert c4.measured["dispersion_nu0"] > 0.0
    assert c12.measured["reason_nu0"] == "TooFewPeaks: found 0 envelope peaks"


class TestBattery:
    def test_registry_is_complete_and_ordered(self):
        assert sorted(CRITERIA) == list(range(1, 13))
        assert SUITES["all"] == tuple(range(1, 13))
        covered = set()
        for indices in SUITES.values():
            covered.update(indices)
        assert covered == set(range(1, 13))

    def test_norm_battery_suite_is_norms_only(self):
        assert SUITES["norm_battery"] == (10,)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError, match="unknown suite 'everything'"):
            run_battery("everything")

    def test_failures_become_report_content(self, monkeypatch):
        def boom(cache=None):
            raise RuntimeError("synthetic breakage")

        monkeypatch.setitem(acceptance.CRITERIA, 10, ("norm_battery", boom))
        report = run_battery("norm_battery")
        assert not report.passed
        (res,) = report.results
        assert not res.passed
        assert "synthetic breakage" in res.measured["error"]
        assert "FAIL" in res.line()

    def test_report_shapes(self, cache):
        report = run_battery("collisions", cache)
        assert isinstance(report, BatteryReport)
        assert [r.index for r in report.results] == [2, 5]
        assert report.passed
        d = report.as_dict()
        assert d["suite"] == "collisions"
        assert len(d["criteria"]) == 2
        lines = report.lines()
        assert len(lines) == 3 and lines[-1].startswith("PASS suite collisions")
        csv_text = report.summary_csv()
        head, *rows = csv_text.strip().split("\n")
        assert head == "index,name,passed,detail"
        assert rows[0].startswith("2,collision_closed_form,true,")
        assert "wall" not in csv_text

    def test_summary_csv_is_deterministic(self, cache):
        a = run_battery("free_streaming", cache).summary_csv()
        b = run_battery("free_streaming", cache).summary_csv()
        assert a == b

    def test_shared_cache_reuses_products(self, cache):
        # criteria 3, 4 and 12 lean on the same Landau runs: after the
        # battery above, the cache already holds them
        assert ("landau", 0.0) in cache
        assert ("landau", 0.01) in cache
        before = id(cache[("landau", 0.0)][0])
        acceptance.criterion_12(cache)
        assert id(cache[("landau", 0.0)][0]) == before


def test_echo_config_matches_marched_grid():
    # the echo check marches the same resolution the direct runs use; the
    # predicted arrival must sit on its record grid so the peak window is fair
    cfg = acceptance.ECHO_CONFIG
    assert cfg.dt * cfg.record_every == pytest.approx(0.5)
    assert cfg.t_end > 10.0
    t_star = 5.0 * (-1 - 1) / -1  # seed mode 1, response mode -1, s = 5
    assert t_star == 10.0
    assert np.isclose((t_star - 5.0) / cfg.dt, round((t_star - 5.0) / cfg.dt))
