"""Acceptance gate: every numbered criterion asserted, one line per check.

Each test runs one criterion through the shared battery cache (so the Landau
runs, dispersion roots, and echo marches are computed once) and prints the
criterion's PASS/FAIL line with its measured values. The assertion message
carries the same line, so a red test names the number that moved and the
tolerance it was held to.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from vpkit import acceptance
from vpkit.acceptance import CRITERIA, SUITES, BatteryReport, run_battery
from vpkit.errors import ConstraintViolation
from vpkit.kinetic import RESOLUTION_TOL, EchoReport
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
    # both stop there. The runs go side by side, so one stops in a forked
    # child, out of sight of any wrapper of kinetic.run in this process
    from vpkit import kinetic

    monkeypatch.setattr(kinetic, "RESOLUTION_TOL", 1e-17)
    monkeypatch.setattr(kinetic, "_lanes", lambda n: min(n, 2))
    cache = {}
    result = acceptance.criterion_3(cache)
    _, diag = cache[("landau", 0.0)]
    assert not result.passed
    assert result.measured["stopped_run"] == "landau nu=0"
    assert result.measured["stop_reason"] == diag["stop_reason"] == "resolution_exceeded"
    assert result.measured["stop_time"] == diag["stop_time"] < acceptance.LANDAU_CONFIG.t_end
    assert result.measured["max_mass_drift"] < 1e-10  # the mass gate alone would pass


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
    assert result.measured["resonance_scaling_deviation"] <= 1e-12
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
    real = acceptance.piecewise_integral_check

    def halved(*args):
        numeric, bound = real(*args)
        return 0.5 * numeric, bound

    monkeypatch.setattr(acceptance, "piecewise_integral_check", halved)
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
    assert result.measured["peak_to_baseline"] >= 100.0
    assert result.tolerance["peak_to_baseline"] == ">= 100 over the unforced baseline"
    assert abs(result.measured["seed_doubling_ratio"] - 2.0) <= 0.2
    assert abs(result.measured["force_doubling_ratio"] - 2.0) <= 0.2
    assert result.measured["quiet_peak"] < 1e-10
    assert result.wall_seconds < 120.0


def test_contrast_gate_floors_a_zero_baseline():
    report = EchoReport(l=1, k=-1, s_force=5.0, t_predicted=10.0, t_measured=10.0,
                        peak_amp=2e-7, baseline_amp=0.0)
    gate = acceptance.check_echo_contrast(report)
    assert gate.passed
    assert gate.measured["contrast"] == 2e-7 / 1e-300
    assert gate.measured["baseline_amp"] == 0.0


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
    # 1 + 5e-10 is inside growth_verify's own raise slack of 1e-9, so the
    # report comes back; the criterion still owes its "< 1" tolerance
    real = acceptance.growth_verify

    def touching(*args, **kwargs):
        return replace(real(*args, **kwargs), max_envelope_ratio=1.0 + 5e-10)

    monkeypatch.setattr(acceptance, "growth_verify", touching)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.measured["envelope_ratio"] == 1.0 + 5e-10


def test_criterion_12_field_decay_slope(cache):
    result = _check(acceptance.criterion_12, cache)
    for nu_tag in ("nu0", "nu0.01"):
        assert result.measured[f"gap_{nu_tag}"] <= 0.05
        assert result.measured[f"fit_rms_{nu_tag}"] < 0.05


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
        with pytest.raises(ConstraintViolation, match="unknown acceptance suite"):
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
