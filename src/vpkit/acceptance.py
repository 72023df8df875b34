"""Numbered acceptance battery: twelve end-to-end checks of the toolkit.

Each criterion_* function runs one self-contained numerical check and returns
a CriterionResult holding the measured numbers next to the tolerances they
were held to, plus its wall time (criteria with a time budget fail when they
blow it). Expensive products (Landau runs, Volterra solutions, dispersion
roots) are built once per battery through a shared cache, and the
conservation audit inspects the same histories the physics checks used.
The kinetic runs a criterion needs that do not depend on each other (the
Landau runs; the echo probe run and its second-order march) are marched
side by side, as kinetic's _side_by_side decides.

The Landau, free-transport, collision-sweep and echo scenarios the battery
checks are the command line's own: scenario_defaults gives the run a config
naming only the scenario describes. The products the command-line runner
reports on are defined here once and shared with the battery: the
free-transport march, the collision sweep, the unit-data Volterra density,
the seeded norm battery and the mass drift of a history.
The weighted growth scenario of criterion 11 is likewise built once, by
growth_scenario, for the criterion and the growth demo.

run_battery executes a named suite and never raises on a failed check: a
failure, including an unexpected exception inside a criterion, becomes
report content with passed = False.

The battery runs on numpy alone: criterion 2's ODE reference is a
fixed-step RK4 march, and the dispersion roots of criteria 4 and 12 come
from lintheory's Newton iteration.

Criterion 9 holds the kinetic echo trace to an independent route to the
same numbers: perturbation_march expands the split step to second order in
the perturbation amplitudes from the model's definitions, sharing only the
grid's f0, W_hat and Q_OVER_M with the solver, never its step, its kick or
their tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .echo import (
    BACKWARD_MOMENT_CONSTANT,
    FORWARD_MOMENT_CONSTANT,
    EXACT_CASE_GATE,
    GROWTH_CHECK_POINTS,
    PHASE_BOUND_GATE,
    EchoKernelSpec,
    GrowthParams,
    echo_moment_backward,
    echo_moment_forward,
    echo_time,
    growth_verify,
    phase_table_gate,
    random_phase_table,
)
from .config import scenario_defaults
from .errors import ConstraintViolation, MarginNonPositive, TooFewPeaks, ValidationError
from .hybridnorms import (
    SLACK_TOL,
    NormParams,
    PropertyReport,
    prop13_battery,
    pure_v_field,
    pure_x_field,
    random_field,
)
from .kinetic import (
    Q_OVER_M,
    RECURRENCE_SAFETY,
    EchoReport,
    FieldHistory,
    KineticRun,
    _equilibrium_rows,
    _history,
    _march,
    _side_by_side,
    collision_substep,
    echo_peak,
    echo_traces,
    equilibrium_state,
    perturb_density,
    rho_hat,
    run,
    spectral_snapshot,
)
from .lintheory import (
    DensityHistory,
    VolterraKernel,
    damping_rate_fit,
    dispersion_rate,
    free_streaming_response,
    volterra_solve,
)
from .profiles import interaction_hat, profile_fourier

# The scenarios of criteria 1, 3-5, 9 and 12, as `vpkit run` runs a config
# that names only the scenario: editing a default there changes both.
LANDAU, FREE_TRANSPORT, SWEEP, ECHO = map(scenario_defaults, (
    "linear_landau", "free_transport_check", "collision_sweep", "echo_experiment"))
# Direct Landau run of criteria 3, 4 and 12, collisionless; the battery sets nu.
LANDAU_CONFIG = LANDAU.run
# Its model, shared across the linear-theory criteria.
PROFILE_SHIPPED, REPULSIVE = LANDAU_CONFIG.profile, LANDAU_CONFIG.interaction
# The echo run of criterion 9; the seed is the probe's eps1, not a perturbation.
ECHO_CONFIG = replace(ECHO.run, amplitude=0.0)
PROFILE_UNIT = ECHO_CONFIG.profile
FIT_WINDOW = (4.0, 42.0)  # past the transient, before the noise floor

# The gates the command line's scenarios share with the battery's criteria;
# the check_* functions below hold each to its threshold.
MASS_DRIFT_TOL = 1e-10  # relative drift of the mean density over a history
EXACT_SHIFT_TOL = 1e-10  # free transport against the exact spectral shift
RATE_GAP_TOL = 0.05  # relative gap between two routes to a decay rate
FIT_RMS_TOL = 0.05  # rms residual of the affine log-envelope fit
ARRIVAL_TOL = 0.05  # relative offset of the echo peak from t*
CONTRAST_MIN = 100.0  # echo peak over the unforced baseline
ECHO_ORACLE_TOL = 1e-5  # echo trace against its second-order march, relative to the peak
DECADE_RATIO_MIN = 8.0  # growth of the collisional deviation per decade of nu
# hybridnorms.SLACK_TOL as the tolerance texts print it: 1e-9, not 1e-09
_SLACK_TEXT = format(SLACK_TOL, "g").replace("e-0", "e-")


def _fmt_value(v) -> str:
    return format(float(v), ".6g") if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class CriterionResult:
    """One checked criterion: measured values next to the tolerance they were
    held to, one text or one per measured quantity. A battery criterion
    carries its number and its wall time; a scenario's or a gate's has None."""

    index: int | None
    name: str
    passed: bool
    measured: dict
    tolerance: str | dict
    wall_seconds: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        """PASS or FAIL, the number of a battery criterion, the name and the
        measured values; an unnumbered criterion ends with its tolerance."""
        status = "PASS" if self.passed else "FAIL"
        body = "  ".join(f"{k}={_fmt_value(v)}" for k, v in self.measured.items())
        if self.index is None:
            return f"{status} {self.name}: {body}  [{self.tolerance}]"
        return f"{status} {self.index:2d} {self.name}: {body}"

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


def _result(index, t0, ok, measured, tolerance) -> CriterionResult:
    """Criterion index's record, under its name in CRITERIA."""
    wall = time.perf_counter() - t0
    measured = dict(measured)
    measured["wall_seconds"] = wall
    return CriterionResult(index, CRITERIA[index][0], ok, measured, dict(tolerance), wall)


def _cache(cache) -> dict:
    return {} if cache is None else cache


def mass_drift(hist: FieldHistory) -> float:
    """Largest relative change of the mean density (the mass) over a history."""
    masses = hist.rho_hat[:, hist.k_max].real
    return float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))


def check_mass_drift(drift: float) -> CriterionResult:
    """The mass gate: a relative mass drift (mass_drift) below MASS_DRIFT_TOL."""
    return CriterionResult(None, "mass_conserved", drift < MASS_DRIFT_TOL,
                           {"relative_drift": drift}, f"< {MASS_DRIFT_TOL:g}")


def check_exact_shift(march: dict) -> CriterionResult:
    """The exact-shift gate on a free_transport_march: its trace error below
    EXACT_SHIFT_TOL, reported with the resolution guard's peak and trip time."""
    return CriterionResult(
        None, "matches_exact_shift", march["trace_error"] < EXACT_SHIFT_TOL,
        {"max_trace_error": march["trace_error"], **{key: march[key] for key in (
            "compared_up_to", "recurrence_time", "guard_peak", "guard_trip_time")}},
        f"< {EXACT_SHIFT_TOL:g} up to {RECURRENCE_SAFETY:g} of the grid recurrence time",
    )


def check_decay_fit(hist: FieldHistory, k: int, window, predicted) -> CriterionResult:
    """The decay gate: the damping_rate_fit of |E_hat| on mode k of hist over
    window decays within RATE_GAP_TOL of predicted(), the dispersion-root
    rate, with an rms residual below FIT_RMS_TOL. A root or fit that cannot be
    had (MarginNonPositive, TooFewPeaks) fails the gate and names why."""
    name = "decay_matches_dispersion_root"
    tolerance = f"gap <= {RATE_GAP_TOL:g}, rms < {FIT_RMS_TOL:g}"
    try:
        rate_predicted = predicted()
        rate, _, rms = damping_rate_fit(
            (hist.times, np.abs(hist.e_hat[:, hist.k_max + k])), window)
    except (TooFewPeaks, MarginNonPositive) as err:
        return CriterionResult(None, name, False, {"reason": f"{type(err).__name__}: {err}"},
                               tolerance)
    gap = abs(-rate - rate_predicted) / rate_predicted
    return CriterionResult(
        None, name, rate < 0 and gap <= RATE_GAP_TOL and rms < FIT_RMS_TOL,
        {"fit_rate": -rate, "predicted": rate_predicted, "gap": gap, "fit_rms": rms}, tolerance,
    )


def check_echo_arrival(t_predicted: float, t_measured: float) -> CriterionResult:
    """The arrival gate: the echo peaks at t_measured within ARRIVAL_TOL of
    t* = t_predicted, relatively."""
    offset = abs((t_measured - t_predicted) / t_predicted)
    return CriterionResult(
        None, "echo_arrives_on_time", offset <= ARRIVAL_TOL,
        {"t_predicted": t_predicted, "t_measured": t_measured, "relative_offset": offset},
        f"<= {ARRIVAL_TOL:g}",
    )


def check_echo_contrast(report: EchoReport) -> CriterionResult:
    """The contrast gate: the echo peak stands CONTRAST_MIN times over the
    unforced baseline, floored at 1e-300 so a silent one gives a finite ratio."""
    contrast = report.peak_amp / max(report.baseline_amp, 1e-300)
    return CriterionResult(
        None, "echo_stands_out", contrast >= CONTRAST_MIN,
        {"peak_amp": report.peak_amp, "baseline_amp": report.baseline_amp, "contrast": contrast},
        f">= {CONTRAST_MIN:g} over the unforced baseline",
    )


def check_collision_sweep(nus, sups) -> list:
    """The sweep gates over ascending nus and their sup |rho_nu - rho_0|
    (collision_sweep): the deviation grows strictly with nu, and by at least
    DECADE_RATIO_MIN between decade-spaced nus."""
    ratios = {(a, b): sups[b] / sups[a] for a, b in zip(nus, nus[1:])}
    return [
        CriterionResult(
            None, "deviation_shrinks_with_nu", all(sups[a] < sups[b] for a, b in ratios),
            {f"sup_diff_nu{nu:g}": sups[nu] for nu in nus},
            "sup |rho_nu - rho_0| strictly increasing in nu",
        ),
        CriterionResult(
            None, f"decade_ratio_at_least_{DECADE_RATIO_MIN:g}",
            not any(r < DECADE_RATIO_MIN for (a, b), r in ratios.items()
                    if abs(b / a - 10.0) < 1e-9),
            {f"ratio_{a:g}_to_{b:g}": r for (a, b), r in ratios.items()},
            f">= {DECADE_RATIO_MIN:g} between decade-spaced nus",
        ),
    ]


def check_norm_item(item: str, entry: dict) -> CriterionResult:
    """The slack gate on a PropertyReport item: every case holds, slack < SLACK_TOL."""
    return CriterionResult(
        None, f"norm_item_{item}", entry["passed"] and entry["slack"] < SLACK_TOL,
        {"cases": entry["cases"], "max_slack": entry["slack"]}, f"slack < {_SLACK_TEXT}",
    )


def free_transport_march(config: KineticRun) -> dict:
    """March a free-transport run (zero interaction, nu = 0) against the exact shift.

    Free flight carries fhat_0(k, eta) to fhat_0(k, eta + k t), so the mode-k
    density of a state perturbed at mode k is (amplitude/2) f0_hat(k t)
    exactly. Records at t = j * dt every record_every steps and at the last
    step. The march observes the resolution guard at every record and keeps
    marching past a trip: the exact shift is the stronger test of this run.
    Returns a dict with the FieldHistory "hist", the recorded "trace"
    of mode k next to its "exact" value, "trace_error", the largest gap on
    records up to RECURRENCE_SAFETY of the "recurrence_time" 1/(k dv)
    ("compared_up_to" is the last such record), "mid_state", the state
    after n_steps // 2 steps, "guard_peak", the largest edge fraction over
    the records, and "guard_trip_time", the first record time it exceeded
    RESOLUTION_TOL (None when it never did).
    """
    profile, k, amplitude = config.profile, config.k_pert, config.amplitude
    k_max, n_v, v_max, n_steps = config.k_max, config.n_v, config.resolved_v_max(), config.n_steps
    state = perturb_density(
        equilibrium_state(profile, k_max, n_v, v_max), profile, k, amplitude, config.pert_shape
    )
    march = _march(config, state, 0, n_steps, guard="observe", keep=n_steps // 2)
    hist = _history(march, config)
    times = hist.times
    trace = hist.rho_hat[:, k_max + k]
    exact = np.array([0.5 * amplitude * profile_fourier(profile, k * t) for t in times])
    recurrence_time = 1.0 / (k * (2.0 * v_max / n_v))
    inside = times <= RECURRENCE_SAFETY * recurrence_time
    return {
        "hist": hist,
        "trace": trace,
        "exact": exact,
        "trace_error": float(np.max(np.abs(trace - exact)[inside])),
        "compared_up_to": float(times[inside][-1]),
        "recurrence_time": recurrence_time,
        "mid_state": march.kept,
        "guard_peak": max(march.edge),
        "guard_trip_time": None if march.trip is None else march.trip[0] * config.dt,
    }


def unit_density(profile, interaction, nu, k, T, dt) -> DensityHistory:
    """Volterra march of density mode k to time T from unit data.

    Unit data fhat_0(k, eta) = f0_hat(eta) is a density perturbation of unit
    amplitude; the memory kernel is sampled on the march grid.
    """
    kern = VolterraKernel(
        nu=nu, k=k, profile=profile, interaction=interaction, dt=dt, horizon=T
    )
    return volterra_solve(lambda t: profile_fourier(profile, k * t), kern)


def collision_sweep(config: KineticRun, nus) -> tuple:
    """Unit-data densities of config's mode over its horizon and step, at
    nu = 0 and at each of nus: (times, {nu: rho_hat} with 0.0 first,
    {nu: sup |rho_nu - rho_0|})."""
    rhos = {nu: unit_density(config.profile, config.interaction, nu, config.k_pert,
                             config.t_end, config.dt) for nu in (0.0, *nus)}
    base = rhos[0.0].rho_hat
    sups = {nu: float(np.max(np.abs(rhos[nu].rho_hat - base))) for nu in nus}
    return rhos[0.0].times, {nu: hist.rho_hat for nu, hist in rhos.items()}, sups


def norm_battery_report(seed: int) -> PropertyReport:
    """prop13_battery over a seeded suite of 20 mixed fields and 5 parameter sets.

    The suite cycles through pure-x fields, Gaussian pure-v fields and random
    mixed fields on a 128-point eta grid, all drawn from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    n = 128
    grid = (np.arange(n) - n // 2) * (8.0 / n)
    suite = []
    for i in range(20):
        kind = i % 3
        if kind == 0:
            amps = {k: 0.3 * (rng.normal() + 1j * rng.normal()) for k in (-2, -1, 1, 2)}
            suite.append(pure_x_field(amps, 4, grid))
        elif kind == 1:
            sigma = rng.uniform(0.3, 0.55)
            prof = rng.uniform(0.3, 1.0) * np.exp(-(grid**2) / (2 * sigma**2))
            suite.append(pure_v_field(prof, 4, grid))
        else:
            suite.append(random_field(rng, k_max=4, eta_grid=grid))
    params = [
        NormParams(0.0, 0.0, 0.0),
        NormParams(0.02, 0.1, 0.5),
        NormParams(0.05, 0.0, -1.0),
        NormParams(0.03, 0.2, 0.0, p=2.0),
        NormParams(0.02, 0.05, 1.0, p=np.inf),
    ]
    return prop13_battery(suite, params)


# The nonlinear run of criterion 3's audit, at ten times the Landau amplitude.
NONLINEAR_CONFIG = KineticRun(
    profile=PROFILE_UNIT, interaction=REPULSIVE, nu=0.01,
    dt=0.02, t_end=2.0, k_pert=1, amplitude=0.1,
    k_max=4, n_v=256, v_max=6.0, record_every=5,
)
# The kinetic runs of criteria 3, 4 and 12 by cache key: the Landau run at
# each nu, and the nonlinear run.
LANDAU_KEYS = (("landau", 0.0), ("landau", 0.01))
_RUNS = {**{key: (replace(LANDAU_CONFIG, nu=key[1]), f"landau nu={key[1]:g}")
            for key in LANDAU_KEYS},
         ("nonlinear",): (NONLINEAR_CONFIG, "nonlinear amp=0.1")}


def _run_products(cache, *keys) -> list:
    """The (history, diagnostics) of each run of _RUNS named by keys, marched
    once per cache: the runs not yet in it side by side (_side_by_side)."""
    todo = [key for key in keys if key not in cache]
    cache.update(zip(todo, _side_by_side([partial(run, _RUNS[key][0]) for key in todo])))
    return [cache[key] for key in keys]


def _free_transport_products(cache):
    """Free-transport march of criterion 1 and its two exact-shift errors.

    The free_transport_check defaults: cold Gaussian, mode k = 1 at amplitude
    1e-3, velocity box of six thermal speeds, t_end = 680 < 0.8 * t_rec =
    682.7. The density trace is checked on every record, and the velocity
    spectrum of the -k row at mid-run, 40 percent of the recurrence time 1/dv
    (past that the shifted transform center leaves the eta window). The
    resolution guard's peak and first trip time are reported, not gated.
    Returns (check_exact_shift of the march, the spectrum error, the mass
    drift of its history).
    """
    key = ("free",)
    if key not in cache:
        free = FREE_TRANSPORT.run
        march = free_transport_march(free)
        state = march["mid_state"]
        snap = spectral_snapshot(state)
        want_row = 0.5 * free.amplitude * profile_fourier(
            free.profile, snap.eta_grid - free.k_pert * state.time)
        got_row = snap.coeffs[free.k_max - free.k_pert]
        cache[key] = (check_exact_shift(march), float(np.max(np.abs(got_row - want_row))),
                      mass_drift(march["hist"]))
    return cache[key]


def _dispersion_rate(cache, nu):
    """Decay rate of the shipped k = 1 mode from its dispersion root, cached."""
    key = ("root", float(nu))
    if key not in cache:
        cache[key] = dispersion_rate(1, float(nu), PROFILE_SHIPPED, REPULSIVE)
    return cache[key]


def _volterra_rate(cache, nu):
    key = ("volterra_rate", float(nu))
    if key not in cache:
        hist = unit_density(PROFILE_SHIPPED, REPULSIVE, float(nu), 1, 60.0, 0.02)
        rate, _, _ = damping_rate_fit(hist, FIT_WINDOW)
        cache[key] = -rate
    return cache[key]


def _kinetic_rate(cache, nu):
    [(hist, _)] = _run_products(cache, ("landau", float(nu)))
    rate, _, _ = damping_rate_fit(
        (hist.times, hist.rho_hat[:, hist.k_max + 1]), FIT_WINDOW
    )
    return -rate


def criterion_1(cache=None) -> CriterionResult:
    """Free transport reproduces the exact spectral shift."""
    cache = _cache(cache)
    t0 = time.perf_counter()
    shift, spectrum_error, _ = _free_transport_products(cache)
    march, t_end = shift.measured, FREE_TRANSPORT.run.t_end
    ok = shift.passed and spectrum_error < EXACT_SHIFT_TOL and time.perf_counter() - t0 < 10.0
    return _result(
        1, t0, ok,
        {"trace_error": march["max_trace_error"], "spectrum_error": spectrum_error, "t_end": t_end,
         "recurrence_fraction": t_end / march["recurrence_time"],
         "guard_peak": march["guard_peak"], "guard_trip_time": march["guard_trip_time"]},
        {"trace_error": shift.tolerance, "spectrum_error": f"< {EXACT_SHIFT_TOL:g}",
         "wall_seconds": "< 10"},
    )


def _rk4_relaxation(f, target, nu, dt, steps):
    """Classical fourth-order Runge-Kutta march of df/dt = nu (target - f)
    over [0, dt] in equal steps: the ODE reference for the closed form."""
    h = dt / steps
    for _ in range(steps):
        k1 = nu * (target - f)
        k2 = nu * (target - (f + 0.5 * h * k1))
        k3 = nu * (target - (f + 0.5 * h * k2))
        k4 = nu * (target - (f + h * k3))
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f


def criterion_2(cache=None) -> CriterionResult:
    """Closed-form collision substep against a fixed-step RK4 reference.

    The probe is a velocity-shaped perturbation, which sits 3.6e-3 from its
    relaxation target rho f0 (a density-shaped one equals its target, so any
    relaxation rate would pass). The reference takes 256 steps.
    rk4_halving_ratio is the error of 32 steps over that of 64, both against
    the reference: about 16 for a fourth-order march, reported, not gated."""
    t0 = time.perf_counter()
    nu, dt = 0.7, 0.8
    v_max = 6.0
    state = equilibrium_state(PROFILE_UNIT, k_max=2, n_v=128, v_max=v_max)
    state = perturb_density(state, PROFILE_UNIT, 1, 3e-2, shape="velocity")
    f = state.f
    rho = rho_hat(state)
    exact = collision_substep(f, rho, dt, nu, PROFILE_UNIT, v_max=v_max)
    target = np.outer(rho, _equilibrium_rows(PROFILE_UNIT, state.n_v, v_max))
    ref, coarse, fine = (_rk4_relaxation(f, target, nu, dt, n) for n in (256, 32, 64))
    ode_error = float(np.max(np.abs(exact - ref)))
    halving_ratio = float(np.max(np.abs(coarse - ref)) / np.max(np.abs(fine - ref)))
    rho_after = state.dv * exact.sum(axis=1)
    rho_error = float(np.max(np.abs(rho_after - rho)))
    wall_ok = time.perf_counter() - t0 < 1.0
    ok = ode_error < 1e-12 and rho_error < 1e-14 and wall_ok
    return _result(
        2, t0, ok,
        {"ode_error": ode_error, "rho_invariance_error": rho_error,
         "rk4_halving_ratio": halving_ratio},
        {"ode_error": "< 1e-12", "rho_invariance_error": "< 1e-14",
         "wall_seconds": "< 1"},
    )


def criterion_3(cache=None) -> CriterionResult:
    """Mass audit over every marched history (its field is derived from rho_hat)."""
    cache = _cache(cache)
    t0 = time.perf_counter()
    drifts = {"free transport": _free_transport_products(cache)[2]}
    keys = (*LANDAU_KEYS, ("nonlinear",))
    runs = {_RUNS[key][1]: products for key, products in zip(keys, _run_products(cache, *keys))}
    drifts.update((label, mass_drift(hist)) for label, (hist, _) in runs.items())
    mass = check_mass_drift(max(drifts.values()))
    measured = {"runs_audited": len(drifts), "max_mass_drift": mass.measured["relative_drift"]}
    # a run that stopped early audits a truncated history: the criterion
    # names the first one (a wrapper of kinetic.run in this process does
    # not see a run marched in a forked lane)
    stopped = [(label, diag) for label, (_, diag) in runs.items()
               if diag["stop_reason"] != "t_end"]
    if stopped:
        label, diag = stopped[0]
        measured.update(stopped_run=label, stop_reason=diag["stop_reason"],
                        stop_time=diag["stop_time"])
    return _result(
        3, t0, mass.passed and len(drifts) >= 4 and not stopped,
        measured,
        {"runs_audited": ">= 4", "max_mass_drift": mass.tolerance,
         "stop_reason": "t_end for every kinetic run"},
    )


def criterion_4(cache=None) -> CriterionResult:
    """Damping rate three ways: dispersion root, Volterra march, direct run."""
    cache = _cache(cache)
    t0 = time.perf_counter()
    measured = {}
    worst_gap = 0.0
    reasons = []
    _run_products(cache, *LANDAU_KEYS)
    routes = {"dispersion": _dispersion_rate, "volterra": _volterra_rate, "kinetic": _kinetic_rate}
    for nu in (0.0, 1e-2):
        rates = {}
        for label, route in routes.items():
            try:
                rates[label] = route(cache, nu)
            except (TooFewPeaks, MarginNonPositive) as err:
                reasons.append(f"{label}_nu{nu:g}: {type(err).__name__}: {err}")
        names = list(rates)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = rates[names[i]], rates[names[j]]
                worst_gap = max(worst_gap, abs(a - b) / min(a, b))
        for label, value in rates.items():
            measured[f"{label}_nu{nu:g}"] = value
    measured["worst_pairwise_gap"] = worst_gap
    if reasons:
        measured["reason"] = "; ".join(reasons)
    wall_ok = time.perf_counter() - t0 < 120.0
    ok = not reasons and worst_gap <= RATE_GAP_TOL and wall_ok
    return _result(
        4, t0, ok, measured,
        {"worst_pairwise_gap": f"<= {RATE_GAP_TOL:g}", "wall_seconds": "< 120"},
    )


def criterion_5(cache=None) -> CriterionResult:
    """Volterra solutions converge to the collisionless one as nu -> 0."""
    t0 = time.perf_counter()
    _, _, sups = collision_sweep(SWEEP.run, SWEEP.sweep_nus)
    shrinks, decades = check_collision_sweep(SWEEP.sweep_nus, sups)
    nus = SWEEP.sweep_nus[::-1]  # the default decades 1e-2, 1e-3, 1e-4
    decade = {nu: -round(math.log10(nu)) for nu in nus}
    measured = {f"sup_diff_nu1e-{decade[nu]}": sups[nu] for nu in nus}
    measured.update((f"decade_ratio_{decade[a]}_{decade[b]}", sups[a] / sups[b])
                    for a, b in zip(nus, nus[1:]))
    return _result(
        5, t0, shrinks.passed and decades.passed, measured,
        {"sup_diffs": shrinks.tolerance, "decade_ratios": decades.tolerance},
    )


# Criterion 6's fixed rule: Gauss-Legendre points per panel, and nodes per
# evaluation of one (k, nu) pair, so its (25, nodes) temporaries stay small.
_GAUSS_POINTS = 20
_NODE_BLOCK = 160
# The 25 (omega, v) points, omega-major, and the four (k, nu) pairs, k-major.
_RESPONSE_OMEGA, _RESPONSE_V = (a.ravel() for a in np.meshgrid(
    (0.0, 0.7, 1.4, 2.1, 2.8), (-1.2, -0.4, 0.3, 0.8, 1.5), indexing="ij"))
_RESPONSE_PAIRS = tuple((k, nu) for k in (1.0, 2.0) for nu in (0.2, 0.35))


@lru_cache(maxsize=2)
def _panel_rule(panels: int) -> tuple:
    """Nodes u and weights of `panels` equal panels of _GAUSS_POINTS
    Gauss-Legendre points on [0, 50], each weight times e^{-u}."""
    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    width = 50.0 / panels
    u = (np.arange(panels)[:, None] + 0.5 * (1.0 + x)) * width
    return u.ravel(), (0.5 * width * w * np.exp(-u)).ravel()


def _averaged_by_rule(panels: int) -> np.ndarray:
    """int_0^50 e^{-u} R(u / nu) du of the transient response R at the 100
    cases of criterion 6, (k, nu) pairs k-major then 25 (omega, v) points
    omega-major, on the `panels`-panel rule."""
    u, w = _panel_rule(panels)
    omega, v = _RESPONSE_OMEGA[:, None], _RESPONSE_V[:, None]
    out = []
    for k, nu in _RESPONSE_PAIRS:
        total = np.zeros(omega.size, dtype=complex)
        for i in range(0, u.size, _NODE_BLOCK):
            block = slice(i, i + _NODE_BLOCK)
            total += free_streaming_response(
                omega, k, v, 0.0, 0.0, u[block] / nu, PROFILE_UNIT, form="transient"
            ) @ w[block]
        out.append(total)
    return np.concatenate(out)


def criterion_6(cache=None) -> CriterionResult:
    """Collision-averaged response: quadrature vs closed form, 100 points.

    The average nu * int_0^inf e^{-nu s} R(s) ds of the transient response
    becomes int_0^inf e^{-u} R(u / nu) du under u = nu s, so every case shares
    the interval [0, 50] (e^{-50} is below roundoff). The 25 (omega, v) points
    of each of the four (k, nu) pairs are integrated by a fixed rule of 50
    equal panels of 20 Gauss-Legendre points; the check fails unless the rule
    on 100 panels agrees with it to 1e-12 of max(1, |closed form|).
    """
    t0 = time.perf_counter()
    closed = np.concatenate([
        free_streaming_response(_RESPONSE_OMEGA, k, _RESPONSE_V, nu, 0.0, 1.0, PROFILE_UNIT,
                                form="averaged")
        for k, nu in _RESPONSE_PAIRS
    ])
    scale = np.maximum(1.0, np.abs(closed))
    numeric = _averaged_by_rule(50)
    converged = bool(np.max(np.abs(_averaged_by_rule(100) - numeric) / scale) <= 1e-12)
    cases = closed.size
    worst = float(np.max(np.abs(numeric - closed) / scale))
    res_dev = 0.0
    for k, v in ((1.0, 0.5), (2.0, -0.8)):
        for nu in (0.3, 0.12):
            r1 = free_streaming_response(k * v, k, v, nu, 0.0, 1.0, PROFILE_UNIT)
            r2 = free_streaming_response(k * v, k, v, 0.5 * nu, 0.0, 1.0, PROFILE_UNIT)
            res_dev = max(res_dev, abs(abs(r2) / abs(r1) - 2.0))
    ok = converged and worst <= 1e-8 and res_dev <= 1e-12 and cases == 100
    return _result(
        6, t0, ok,
        {"grid_points": cases, "quadrature_converged": converged,
         "worst_quadrature_error": worst, "resonance_scaling_deviation": res_dev},
        {"grid_points": "= 100",
         "quadrature_converged": "True (50 and 100 panels agree to 1e-12 of max(1, |closed|))",
         "worst_quadrature_error": "<= 1e-8",
         "resonance_scaling_deviation": "<= 1e-12 (modulus doubles when nu halves)"},
    )


def criterion_7(cache=None) -> CriterionResult:
    """Random phase-integral battery: never above its case bound, and on the
    bound where the bound is exact (l = k)."""
    t0 = time.perf_counter()
    cases = random_phase_table(np.random.default_rng(7031), 200, 30.0)
    table_ok, measured = phase_table_gate(cases)
    wall_ok = time.perf_counter() - t0 < 30.0
    return _result(
        7, t0, table_ok and wall_ok, measured,
        {"violations": f"= 0 ({PHASE_BOUND_GATE})",
         "exact_case_gap": EXACT_CASE_GATE,
         "wall_seconds": "< 30"},
    )


def criterion_8(cache=None) -> CriterionResult:
    """Kernel moments: dyadic decay exponent and frozen-constant bounds."""
    t0 = time.perf_counter()
    spec_half = EchoKernelSpec(alpha=0.5, gamma=2.0)
    ts = [30.0 * 2**j for j in range(5)]
    vals = [echo_moment_forward(spec_half, 0.2, t)[0] for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    exponent = -slope
    floor = spec_half.gamma - 1.0 - 0.2

    # verification grid: alpha = 0.6 is disjoint from the calibration grid
    # recorded next to the frozen constants
    fwd_worst = 0.0
    bwd_worst = 0.0
    for gamma in (1.7, 2.5):
        for nu in (0.18, 0.42):
            spec = EchoKernelSpec(alpha=0.6, gamma=gamma)
            for t in (3.0, 24.0):
                numeric, shape = echo_moment_forward(spec, nu, t)
                fwd_worst = max(fwd_worst, numeric / (FORWARD_MOMENT_CONSTANT * shape))
            for s in (0.0, 4.0):
                numeric, shape = echo_moment_backward(spec, nu, s, s + 80.0 / nu)
                bwd_worst = max(bwd_worst, numeric / (BACKWARD_MOMENT_CONSTANT * shape))
    ok = exponent >= floor and fwd_worst <= 1.0 and bwd_worst <= 1.0
    return _result(
        8, t0, ok,
        {
            "dyadic_exponent": exponent,
            "exponent_floor": floor,
            "forward_constant_ratio": fwd_worst,
            "backward_constant_ratio": bwd_worst,
        },
        {"dyadic_exponent": ">= gamma - 1 - 0.2",
         "constant_ratios": "<= 1 against the frozen constants"},
    )


def perturbation_march(config: KineticRun, modes, rows, impulse=None,
                       pair: bool = False) -> np.ndarray:
    """The split step of config expanded in the perturbation amplitudes,
    built from the model's definitions alone: the density dv sum_v row of
    each row at every step 0 .. n_steps, one column per row.

    rows holds one first-order perturbation of the grid's equilibrium f0 per
    signed x-mode p of modes, on config's velocity grid; with pair, a last
    row h of mode modes[0] + modes[1] carries the product order of rows 0
    and 1, from zero. The march shares only f0 (kinetic._equilibrium_rows),
    W_hat (interaction_hat) and Q_OVER_M with the solver, and runs at
    nu = 0. Each step applies, in order:

      1. half transport e^{-2 pi i p v dt/2} on the row of mode p;
      2. the accelerations a_p = Q_OVER_M 2 pi i p W_hat(p) dv sum_v row,
         with impulse = (j, i, a) adding a to row i's in the step from j dt;
      3. the kick f(x, v) -> f(x, v - dt a(x)) to the order kept, from the
         rows before it: g_p -= dt a_p D f0 on each first-order row, and
         h -= dt (a_h D f0 + a_0 D g_1 + a_1 D g_0) - dt^2 a_0 a_1 D^2 f0;
      4. half transport.

    D is the spectral v-derivative with its Nyquist bin dropped and D^2
    keeps that bin: the solver's kick keeps the real part of the Nyquist
    bin's shift, cos(2 pi dt a eta_N) = 1 - O(a^2). No DFT matrix and no
    phase table: per step, two diagonal products, a rank-one update of the
    first-order rows and, with pair, one FFT and one inverse FFT of a row."""
    if config.nu != 0.0:
        raise ConstraintViolation("nu: the perturbation march runs at nu = 0")
    n_v, v_max, dt = config.n_v, config.resolved_v_max(), config.dt
    dv = 2.0 * v_max / n_v
    f0 = _equilibrium_rows(config.profile, n_v, v_max)
    modes, g = list(modes), np.array(rows, dtype=complex)
    first = len(modes)
    if pair:
        modes.append(modes[0] + modes[1])
        g = np.vstack([g, np.zeros(n_v)])
    p = np.array(modes)
    half = np.exp(-1j * np.pi * dt * np.outer(p, -v_max + dv * np.arange(n_v)))
    field = Q_OVER_M * 2j * np.pi * p * interaction_hat(config.interaction, p) * dv
    eta = np.fft.fftfreq(n_v, dv)
    dt_d = 2j * np.pi * dt * eta  # dt D over the FFT bins, the Nyquist bin dropped
    dt_d[n_v // 2] = 0.0
    f0_hat = np.fft.fft(f0)
    kick_f0 = np.fft.ifft(dt_d * f0_hat)
    kick2_f0_hat = -((2.0 * np.pi * dt * eta) ** 2) * f0_hat  # dt^2 D^2 f0, Nyquist kept
    j_impulse, row_impulse, a_impulse = impulse or (-1, 0, 0.0)
    rho = np.empty((config.n_steps + 1, len(modes)), dtype=complex)
    rho[0] = dv * g.sum(axis=1)
    for j in range(config.n_steps):
        g *= half
        a = field * g.sum(axis=1)
        if j == j_impulse:
            a[row_impulse] += a_impulse
        # h's update is exactly zero while row 1, a_1 and a_h are (before an impulse)
        if pair and (a[1] or a[-1] or g[1].any()):
            mixed = dt_d * (np.fft.fft(a[0] * g[1] + a[1] * g[0]) + a[-1] * f0_hat)
            g[-1] -= np.fft.ifft(mixed - a[0] * a[1] * kick2_f0_hat)
        g[:first] -= np.outer(a[:first], kick_f0)
        g *= half
        rho[j + 1] = dv * g.sum(axis=1)
    return rho


def echo_oracle(config: KineticRun, l: int, force_mode: int, s_force: float,
                eps1: float, eps2: float) -> np.ndarray:
    """|rho_hat(t, k)|, k = l + force_mode, at every step of the echo run
    (eps1, eps2) of echo_traces' probe, to second order in the amplitudes.

    perturbation_march from the seed g_l = 0.5 eps1 f0 and the force row
    g_m = 0, m = force_mode, whose acceleration takes Q_OVER_M 0.5 eps2/dt in
    the step from s_force (the impulse of echo_traces), with the eps1 eps2
    row h at k. The first-order content at k is the conjugate of a row of
    mode -k (conj(g_l) at the shipped probe l = 1, m = -2, k = -1)."""
    f0 = _equilibrium_rows(config.profile, config.n_v, config.resolved_v_max())
    impulse = (round(s_force / config.dt), 1, Q_OVER_M * 0.5 * eps2 / config.dt)
    rho = perturbation_march(config, (l, force_mode), (0.5 * eps1 * f0, np.zeros_like(f0)),
                             impulse, pair=True)
    k = l + force_mode
    content = rho[:, 2] + sum(np.conj(rho[:, i]) for i, p in enumerate((l, force_mode))
                              if p == -k)
    return np.abs(content)


def criterion_9(cache=None) -> CriterionResult:
    """The seeded echo arrives on time and follows its second-order march.

    The echo scenario's probe run (eps1, eps2) is marched beside its
    echo_oracle (_side_by_side). The arrival gate reads the kinetic trace's
    peak; oracle_gap is max |kinetic - oracle| over the records from
    s_force + 3 dt on, relative to that peak. The oracle's terms of order
    eps^3 and the roundoff leave about 8e-8 at the shipped probe; a step
    that splits, places its field or signs its kick wrongly, or an impulse of
    the wrong size or step, reads 9e-4 or more."""
    cache = _cache(cache)
    t0 = time.perf_counter()
    key = ("echo",)
    if key not in cache:
        e = ECHO.echo
        probe = (ECHO_CONFIG, e.l, e.force_mode, e.s_force)
        [(times, trace)], oracle = _side_by_side([
            partial(echo_traces, *probe, [(e.eps1, e.eps2)]),
            partial(echo_oracle, *probe, e.eps1, e.eps2)])
        t_star = echo_time(e.l, e.l + e.force_mode, e.s_force)
        t_measured, peak, _ = echo_peak((times, trace), e.s_force, t_star)
        after = round(e.s_force / ECHO_CONFIG.dt) + 3
        cache[key] = (t_star, t_measured, float(np.max(np.abs(trace - oracle)[after:])) / peak)
    t_star, t_measured, gap = cache[key]
    arrival = check_echo_arrival(t_star, t_measured)
    wall_ok = time.perf_counter() - t0 < 120.0
    return _result(
        9, t0, arrival.passed and gap <= ECHO_ORACLE_TOL and wall_ok,
        {"t_predicted": t_star, "t_measured": t_measured,
         "arrival_offset": arrival.measured["relative_offset"], "oracle_gap": gap},
        {"arrival_offset": arrival.tolerance, "oracle_gap": f"<= {ECHO_ORACLE_TOL:g}",
         "wall_seconds": "< 120"},
    )


def criterion_10(cache=None) -> CriterionResult:
    """Norm battery: asserted inequality items over random mixed fields."""
    t0 = time.perf_counter()
    report = norm_battery_report(20125)
    measured = {"fields": report.n_fields, "param_sets": report.n_params}
    ok = True
    for item in ("i", "ii", "viii", "viiii", "iX"):
        entry = report.items.get(item)
        if entry is None or entry["cases"] == 0:
            ok = False
            measured[f"slack_{item}"] = float("nan")
            continue
        slack = check_norm_item(item, entry)
        measured[f"slack_{item}"] = slack.measured["max_slack"]
        ok = ok and slack.passed
    return _result(
        10, t0, ok, measured,
        {"slacks": f"< {_SLACK_TEXT} on items i, ii, viii, viiii, iX"},
    )


def growth_scenario():
    """Inputs (phi, k0_series, spec, params) of growth_verify for criterion 11.

    The shipped model at nu = 0.02, marched from unit data to t = 20 in steps
    of 0.04, with the density weighted by e^{2 pi (lam t + mu)}, lam = 0.008
    and mu = 0.1: phi is (times, weighted density), k0_series the weighted
    Volterra kernel on the march grid, spec the resonance kernel
    EchoKernelSpec(0.5, 2), and params holds the algebraic constants
    (c0, m) = (0.05, 1.5) and the bound A on the weighted free part.
    """
    nu_c, lam, mu = 0.02, 0.008, 0.1
    kern = VolterraKernel(nu=nu_c, k=1, profile=PROFILE_SHIPPED, interaction=REPULSIVE,
                          dt=0.04, horizon=20.0)
    times = kern.times
    weight = np.exp(2.0 * np.pi * (lam * times + mu))
    phi = volterra_solve(lambda t: profile_fourier(PROFILE_SHIPPED, t), kern).rho_hat * weight
    free = profile_fourier(PROFILE_SHIPPED, times) * np.exp(-nu_c * times) * weight
    k0w = kern.samples * np.exp(nu_c * times) * np.exp(2.0 * np.pi * lam * times)
    params = GrowthParams(
        A=float(np.max(np.abs(free))), c0=0.05, m=1.5, c=0.05, kappa=0.22, nu_env=nu_c,
        lambda0=0.02, lambda_weight=lam, C0=1.1, C_W=1.0,
    )
    return (times, phi), k0w, EchoKernelSpec(alpha=0.5, gamma=2.0), params


def criterion_11(cache=None) -> CriterionResult:
    """Weighted density obeys its integral hypothesis and certified bounds."""
    t0 = time.perf_counter()
    rep = growth_verify(*growth_scenario())
    ok = (
        rep.max_hypothesis_ratio <= 1.0 + 1e-9
        and rep.max_crude_ratio < 1.0
        and rep.max_envelope_ratio < 1.0
    )
    return _result(
        11, t0, ok,
        {
            "hypothesis_ratio": rep.max_hypothesis_ratio,
            "crude_bound_ratio": rep.max_crude_ratio,
            "envelope_ratio": rep.max_envelope_ratio,
            "check_points": GROWTH_CHECK_POINTS,
        },
        {"hypothesis_ratio": "<= 1 + 1e-9",
         "crude_bound_ratio": "< 1", "envelope_ratio": "< 1"},
    )


def criterion_12(cache=None) -> CriterionResult:
    """Field-mode envelope decays on an affine log-line at the predicted slope."""
    cache = _cache(cache)
    t0 = time.perf_counter()
    measured = {}
    ok = True
    for (_, nu), (hist, _) in zip(LANDAU_KEYS, _run_products(cache, *LANDAU_KEYS)):
        fit = check_decay_fit(hist, 1, FIT_WINDOW, lambda: _dispersion_rate(cache, nu))
        for key, value in fit.measured.items():
            measured[f"{'slope' if key == 'fit_rate' else key}_nu{nu:g}"] = value
        ok = ok and fit.passed
    return _result(
        12, t0, ok, measured, {"fit": fit.tolerance},
    )


CRITERIA = {
    1: ("free_transport_exactness", criterion_1),
    2: ("collision_closed_form", criterion_2),
    3: ("conservation_audit", criterion_3),
    4: ("damping_rate_three_routes", criterion_4),
    5: ("collision_continuity", criterion_5),
    6: ("free_streaming_identities", criterion_6),
    7: ("phase_integral_table", criterion_7),
    8: ("moment_decay_shapes", criterion_8),
    9: ("plasma_echo_arrival", criterion_9),
    10: ("norm_battery", criterion_10),
    11: ("weighted_growth_control", criterion_11),
    12: ("field_decay_slope", criterion_12),
}

SUITES = {
    "all": tuple(range(1, 13)),
    "free_transport": (1, 3),
    "collisions": (2, 5),
    "linear_landau": (4, 12),
    "free_streaming": (6,),
    "kernel_bounds": (7, 8),
    "echo": (9,),
    "norm_battery": (10,),
    "growth": (11,),
    "conservation": (3,),
}


@dataclass(frozen=True)
class BatteryReport:
    """Aggregated acceptance outcome for one suite."""

    suite: str
    results: tuple
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self):
        out = [r.line() for r in self.results]
        status = "PASS" if self.passed else "FAIL"
        n_ok = sum(r.passed for r in self.results)
        out.append(
            f"{status} suite {self.suite}: {n_ok}/{len(self.results)} criteria"
            f" in {self.wall_seconds:.1f} s"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "criteria": [r.as_dict() for r in self.results],
        }

    def summary_csv(self) -> str:
        """Deterministic per-criterion table (no wall times)."""
        lines = ["index,name,passed,detail"]
        for r in self.results:
            detail = ";".join(
                f"{k}={format(v, '.17g') if isinstance(v, float) else v}"
                for k, v in r.measured.items()
                if k != "wall_seconds"
            )
            lines.append(f"{r.index},{r.name},{str(r.passed).lower()},{detail}")
        return "\n".join(lines) + "\n"


def run_battery(suite: str = "all", cache: dict | None = None) -> BatteryReport:
    """Run one named acceptance suite; failures become report content. An
    unknown suite name is refused with ValidationError, which the CLI reports
    as a usage error."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValidationError([f"acceptance suite: unknown suite {suite!r} (known: {known})"])
    cache = _cache(cache)
    t0 = time.perf_counter()
    results = []
    for index in SUITES[suite]:
        name, fn = CRITERIA[index]
        t1 = time.perf_counter()
        try:
            res = fn(cache)
        except Exception as err:  # a crashed check is a failed check, not a crash
            res = CriterionResult(
                index, name, False, {"error": f"{type(err).__name__}: {err}"}, {},
                time.perf_counter() - t1,
            )
        results.append(res)
    return BatteryReport(suite, tuple(results), time.perf_counter() - t0)
