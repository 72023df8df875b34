"""Config-driven front end: flat INI scenarios in, CSV tables and JSON out.

Subcommands:
  run <config>            execute the configured scenario
  acceptance [suite]      run the numbered acceptance battery
  scan-stability <config> stability-margin scan for the configured model
  kernel-table <config>   phase-integral bound table for the configured kernel

A config is sectioned key = value text; sections mirror the library modules
([profile], [interaction], [grid], [time], ...) and unknown sections or keys
are rejected with the full list of problems, not just the first. Each
scenario ships working defaults, so a minimal config is just a [scenario]
block naming it.

Reports are deterministic: the same config and seed reproduce the same CSV
bytes, and report.json records a sha256 content hash over everything else
written. Floats are serialized with 17 significant digits everywhere (JSON
carries them as strings so no encoder shortens them); wall-clock time lives
only in report.json and never inside the hash. The output directory is the
only setting with an environment override (VPKIT_OUT, beaten by --out).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .acceptance import (
    SUITES,
    free_transport_march,
    mass_drift,
    norm_battery_report,
    run_battery,
    unit_density,
)
from .echo import echo_time, piecewise_integral_check
from .errors import (
    EchoBeyondRecurrence,
    MarginNonPositive,
    ParseError,
    ResolutionExceeded,
    TooFewPeaks,
    ValidationError,
    VpkitError,
)
from .kinetic import (
    PHASE_BUDGET,
    RESOLUTION_TOL,
    FieldHistory,
    KineticRun,
    default_v_max,
    echo_experiment,
    run,
)
from .lintheory import (
    VolterraKernel,
    damping_rate_fit,
    dispersion_rate,
    stability_scan,
)
from .profiles import Interaction, VelocityProfile

SCENARIOS = (
    "linear_landau",
    "collision_sweep",
    "echo_experiment",
    "kernel_bounds",
    "norm_battery",
    "free_transport_check",
    "stability_scan",
)

# Base defaults for every section; scenario defaults override these, and the
# user's file overrides both. Everything stays a string until typing.
_BASE_DEFAULTS = {
    "scenario": {"nu": "0", "seed": "0"},
    "profile": {"kind": "maxwellian", "thermal_speed": "1"},
    "interaction": {"kind": "power_law", "gamma": "2", "amplitude": "1", "sign": "1"},
    "perturbation": {"mode": "1", "amplitude": "1e-5", "shape": "density"},
    "grid": {"k_max": "4", "n_v": "512", "v_max": "auto"},
    "time": {"dt": "0.05", "t_end": "45"},
    "outputs": {"directory": "out", "cadence": "1"},
}

_SCENARIO_DEFAULTS = {
    "linear_landau": {"profile": {"thermal_speed": "0.05"}},
    "free_transport_check": {
        "profile": {"thermal_speed": "0.05"},
        "interaction": {"kind": "zero"},
        "perturbation": {"amplitude": "1e-3"},
        "grid": {"k_max": "2", "v_max": "0.3"},
        "time": {"dt": "0.5", "t_end": "680"},
        "outputs": {"cadence": "4"},
    },
    "echo_experiment": {
        "grid": {"k_max": "8", "v_max": "6"},
        "time": {"dt": "0.02", "t_end": "12.5"},
        "outputs": {"cadence": "25"},
        "echo": {
            "l": "1", "force_mode": "-2", "s_force": "5",
            "eps1": "1e-3", "eps2": "1e-3",
        },
    },
    "collision_sweep": {
        "profile": {"thermal_speed": "0.05"},
        "time": {"dt": "0.04", "t_end": "40"},
        "sweep": {"nus": "1e-4,1e-3,1e-2"},
    },
    "kernel_bounds": {
        "time": {"t_end": "30"},
        "kernel": {"alpha": "0.5", "cases": "200"},
    },
    "norm_battery": {},
    "stability_scan": {},
}

# Sections beyond the base set, allowed only for the scenario that reads them.
_EXTRA_SECTIONS = {
    "echo": "echo_experiment",
    "sweep": "collision_sweep",
    "kernel": "kernel_bounds",
}

_ALLOWED_KEYS = {
    "scenario": {"name", "nu", "seed"},
    "profile": {"kind", "thermal_speed", "components"},
    "interaction": {"kind", "gamma", "amplitude", "sign"},
    "perturbation": {"mode", "amplitude", "shape"},
    "grid": {"k_max", "n_v", "v_max"},
    "time": {"dt", "t_end"},
    "outputs": {"directory", "cadence"},
    "echo": {"l", "force_mode", "s_force", "eps1", "eps2"},
    "sweep": {"nus"},
    "kernel": {"alpha", "cases"},
}

@dataclass(frozen=True)
class EchoSettings:
    """Seed/force parameters of a two-mode echo run."""

    l: int
    force_mode: int
    s_force: float
    eps1: float
    eps2: float


@dataclass(frozen=True)
class SimConfig:
    """One fully validated scenario configuration."""

    scenario: str
    profile: VelocityProfile
    interaction: Interaction
    nu: float
    seed: int
    pert_mode: int
    pert_amplitude: float
    pert_shape: str
    k_max: int
    n_v: int
    v_max: float | None
    dt: float
    t_end: float
    out_dir: str
    cadence: int
    echo: EchoSettings | None = None
    sweep_nus: tuple = ()
    kernel_alpha: float = 0.5
    kernel_cases: int = 200
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def resolved_v_max(self) -> float:
        if self.v_max is not None:
            return float(self.v_max)
        return default_v_max(self.profile)


def _merge_defaults(scenario: str) -> dict:
    merged = {sec: dict(keys) for sec, keys in _BASE_DEFAULTS.items()}
    for sec, keys in _SCENARIO_DEFAULTS[scenario].items():
        merged.setdefault(sec, {}).update(keys)
    return merged


def parse_config(path, *, force_scenario: str | None = None) -> SimConfig:
    """Read and validate a scenario config, reporting every problem at once.

    Structural failures (unreadable file, duplicate keys, text outside a
    section) raise ParseError with the offending line. Everything else is
    collected into a single ValidationError so one round trip fixes the lot.
    force_scenario runs the file as that scenario regardless of its own
    [scenario] name (the shortcut subcommands use this).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ParseError(0, str(path), f"cannot read config: {err}") from err

    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as err:
        raise ParseError(err.lineno, "-", "text before the first [section] header") from err
    except configparser.DuplicateOptionError as err:
        raise ParseError(err.lineno or 0, f"{err.section}.{err.option}", "duplicate key") from err
    except configparser.DuplicateSectionError as err:
        raise ParseError(err.lineno or 0, err.section, "duplicate section") from err
    except configparser.ParsingError as err:
        lineno, line = err.errors[0]
        raise ParseError(lineno, line.strip("'\" "), "not a key = value line") from err
    except configparser.Error as err:
        raise ParseError(0, str(path), f"unreadable config: {err}") from err

    user = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    problems: list[str] = []

    scenario = force_scenario or user.get("scenario", {}).get("name")
    if scenario is None:
        problems.append("scenario.name: required ([scenario] section with a name key)")
    elif scenario not in SCENARIOS:
        problems.append(
            f"scenario.name: unknown scenario {scenario!r} (known: {', '.join(SCENARIOS)})"
        )
    if problems or (scenario not in SCENARIOS):
        # without a scenario the defaults are unknown; still report what else
        # is visibly wrong before giving up
        for sec in user:
            if sec not in _ALLOWED_KEYS:
                problems.append(f"[{sec}]: unknown section")
        raise ValidationError(problems)

    merged = _merge_defaults(scenario)

    for sec, keys in user.items():
        if sec not in _ALLOWED_KEYS:
            problems.append(f"[{sec}]: unknown section")
            continue
        owner = _EXTRA_SECTIONS.get(sec)
        if owner is not None and owner != scenario:
            problems.append(f"[{sec}]: section only applies to scenario {owner}")
            continue
        for key, value in keys.items():
            if key not in _ALLOWED_KEYS[sec]:
                problems.append(f"{sec}.{key}: unknown key")
            else:
                merged.setdefault(sec, {})[key] = value
    merged["scenario"]["name"] = scenario

    def _finite(label, raw):
        try:
            value = float(raw)
        except ValueError:
            problems.append(f"{label}: not a number: {raw!r}")
            return None
        if not np.isfinite(value):
            problems.append(f"{label}: must be finite, got {raw!r}")
            return None
        return value

    def _float(sec, key):
        return _finite(f"{sec}.{key}", merged[sec][key])

    def _int(sec, key):
        raw = merged[sec][key]
        try:
            return int(raw, 10)
        except ValueError:
            problems.append(f"{sec}.{key}: not an integer: {raw!r}")
            return None

    # profile
    profile = None
    kind = merged["profile"]["kind"]
    if kind == "maxwellian":
        if "components" in user.get("profile", {}):
            problems.append("profile.components: only applies to kind = sum_of_maxwellians")
        vth = _float("profile", "thermal_speed")
        if vth is not None:
            if vth > 0:
                profile = VelocityProfile.maxwellian(vth)
            else:
                problems.append("profile.thermal_speed: must be > 0")
    elif kind == "sum_of_maxwellians":
        if "thermal_speed" in user.get("profile", {}):
            problems.append("profile.thermal_speed: only applies to kind = maxwellian")
        raw = merged["profile"].get("components", "")
        comps = []
        for piece in filter(None, (p.strip() for p in raw.split(","))):
            parts = piece.split(":")
            if len(parts) != 3:
                problems.append(
                    f"profile.components: {piece!r} is not weight:center:spread"
                )
                continue
            values = [_finite("profile.components", p) for p in parts]
            if None in values:
                continue
            w, c, s = values
            if w <= 0 or s <= 0:
                problems.append(
                    f"profile.components: {piece!r} needs weight > 0 and spread > 0"
                )
                continue
            comps.append((w, c, s))
        if not comps:
            problems.append("profile.components: at least one weight:center:spread triple")
        elif abs(sum(w for w, _, _ in comps) - 1.0) > 1e-12:
            problems.append("profile.components: weights must sum to 1")
        else:
            profile = VelocityProfile.sum_of_maxwellians(comps)
    else:
        problems.append(
            f"profile.kind: unknown kind {kind!r} (maxwellian, sum_of_maxwellians)"
        )

    # interaction
    interaction = None
    ikind = merged["interaction"]["kind"]
    if ikind == "zero":
        for key in ("gamma", "amplitude", "sign"):
            if key in user.get("interaction", {}):
                problems.append(f"interaction.{key}: only applies to kind = power_law")
        interaction = Interaction.zero()
    elif ikind == "power_law":
        gamma = _float("interaction", "gamma")
        amplitude = _float("interaction", "amplitude")
        sign = _int("interaction", "sign")
        if gamma is not None and gamma <= 1.0:
            problems.append("interaction.gamma: must exceed 1 for a summable potential")
            gamma = None
        if amplitude is not None and not 0.0 < amplitude <= 1.0:
            problems.append("interaction.amplitude: must lie in (0, 1] (the decay bound)")
            amplitude = None
        if sign is not None and sign not in (1, -1):
            problems.append("interaction.sign: must be 1 or -1")
            sign = None
        if None not in (gamma, amplitude, sign):
            interaction = Interaction.power_law(gamma, amplitude=amplitude, sign=sign)
    else:
        problems.append(f"interaction.kind: unknown kind {ikind!r} (power_law, zero)")

    nu = _float("scenario", "nu")
    if nu is not None and nu < 0:
        problems.append("scenario.nu: collision frequency must be >= 0")
        nu = None
    seed = _int("scenario", "seed")
    if seed is not None and seed < 0:
        problems.append("scenario.seed: must be >= 0")
        seed = None

    mode = _int("perturbation", "mode")
    amplitude = _float("perturbation", "amplitude")
    shape = merged["perturbation"]["shape"]
    if mode is not None and mode < 1:
        problems.append("perturbation.mode: must be >= 1")
        mode = None
    if amplitude is not None and amplitude < 0:
        problems.append("perturbation.amplitude: must be >= 0")
        amplitude = None
    if shape not in ("density", "velocity"):
        problems.append(
            f"perturbation.shape: unknown shape {shape!r} (density, velocity)"
        )

    k_max = _int("grid", "k_max")
    n_v = _int("grid", "n_v")
    if k_max is not None and k_max < 1:
        problems.append("grid.k_max: must be >= 1")
        k_max = None
    if n_v is not None and (n_v < 8 or n_v % 2):
        problems.append("grid.n_v: must be an even integer >= 8")
        n_v = None
    v_max_raw = merged["grid"]["v_max"]
    if v_max_raw == "auto":
        v_max = None
        v_max_known = profile is not None
    else:
        v_max = _float("grid", "v_max")
        v_max_known = v_max is not None
        if v_max is not None and v_max <= 0:
            problems.append("grid.v_max: must be > 0 (or auto)")
            v_max, v_max_known = None, False

    dt = _float("time", "dt")
    t_end = _float("time", "t_end")
    if dt is not None and dt <= 0:
        problems.append("time.dt: must be > 0")
        dt = None
    if dt is not None and t_end is not None:
        if t_end < dt:
            problems.append("time.t_end: must cover at least one step")
        else:
            n = round(t_end / dt)
            if abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
                problems.append("time.t_end: must be an integer number of steps of dt")

    out_dir = merged["outputs"]["directory"]
    if not out_dir:
        problems.append("outputs.directory: must be non-empty")
    cadence = _int("outputs", "cadence")
    if cadence is not None and cadence < 1:
        problems.append("outputs.cadence: must be >= 1")
        cadence = None

    if mode is not None and k_max is not None and mode > k_max:
        problems.append("perturbation.mode: must not exceed grid.k_max")

    # the marching guard enforces the phase budget too; this fails at parse time
    marching = scenario in ("linear_landau", "free_transport_check", "echo_experiment")
    if marching and None not in (dt, k_max) and v_max_known:
        v_eff = v_max if v_max is not None else default_v_max(profile)
        budget = dt * k_max * v_eff
        if budget > PHASE_BUDGET:
            problems.append(
                f"time.dt: dt * k_max * v_max = {budget:.3g} exceeds the splitting "
                f"phase budget {PHASE_BUDGET:g}; shrink dt or the grid"
            )
    if scenario == "free_transport_check":
        if interaction is not None and interaction.kind != "zero":
            problems.append(
                "interaction.kind: free_transport_check compares against free "
                "flight and needs kind = zero"
            )
        if nu is not None and nu != 0.0:
            problems.append("scenario.nu: free_transport_check needs nu = 0")

    echo = None
    if scenario == "echo_experiment":
        l = _int("echo", "l")
        force_mode = _int("echo", "force_mode")
        s_force = _float("echo", "s_force")
        eps1 = _float("echo", "eps1")
        eps2 = _float("echo", "eps2")
        if l is not None and (l < 1 or (k_max is not None and l > k_max)):
            problems.append("echo.l: seed mode must lie in 1..grid.k_max")
            l = None
        if force_mode is not None and (
            force_mode == 0 or (k_max is not None and abs(force_mode) > k_max)
        ):
            problems.append(
                "echo.force_mode: must be nonzero with |force_mode| <= grid.k_max"
            )
            force_mode = None
        if (
            l is not None and force_mode is not None and k_max is not None
            and abs(l + force_mode) > k_max
        ):
            problems.append(
                "echo.force_mode: the response mode l + force_mode must fit "
                "inside the retained band"
            )
            force_mode = None
        if s_force is not None:
            if s_force <= 0:
                problems.append("echo.s_force: must be > 0")
                s_force = None
            elif t_end is not None and s_force >= t_end:
                problems.append("echo.s_force: must land before time.t_end")
                s_force = None
            elif dt is not None and abs(round(s_force / dt) * dt - s_force) > 1e-9:
                problems.append("echo.s_force: must sit on the step grid")
                s_force = None
        if eps1 is not None and eps1 <= 0:
            problems.append("echo.eps1: seed amplitude must be > 0")
            eps1 = None
        if eps2 is not None and eps2 < 0:
            problems.append("echo.eps2: forcing amplitude must be >= 0")
            eps2 = None
        if None not in (l, force_mode, s_force, eps1, eps2):
            echo = EchoSettings(l, force_mode, s_force, eps1, eps2)

    sweep_nus: tuple = ()
    if scenario == "collision_sweep":
        raw = merged["sweep"]["nus"]
        values = []
        for piece in filter(None, (p.strip() for p in raw.split(","))):
            value = _finite("sweep.nus", piece)
            if value is None:
                continue
            if value <= 0:
                problems.append("sweep.nus: entries must be > 0 (nu = 0 is the reference)")
            else:
                values.append(value)
        if not values:
            problems.append("sweep.nus: needs at least one collision frequency")
        elif len(set(values)) != len(values):
            problems.append("sweep.nus: entries must be distinct")
        sweep_nus = tuple(sorted(set(values)))

    kernel_alpha, kernel_cases = 0.5, 200
    if scenario == "kernel_bounds":
        kernel_alpha = _float("kernel", "alpha")
        kernel_cases = _int("kernel", "cases")
        if kernel_alpha is not None and not 0.0 < kernel_alpha < 1.0:
            problems.append("kernel.alpha: must lie in (0, 1)")
            kernel_alpha = None
        if kernel_cases is not None and not 1 <= kernel_cases <= 100000:
            problems.append("kernel.cases: must lie in 1..100000")
            kernel_cases = None
        if t_end is not None and t_end <= 0.5:
            problems.append(
                "time.t_end: kernel_bounds samples times in [0.5, t_end] and "
                "needs t_end > 0.5"
            )

    if problems:
        raise ValidationError(problems)

    return SimConfig(
        scenario=scenario,
        profile=profile,
        interaction=interaction,
        nu=nu,
        seed=seed,
        pert_mode=mode,
        pert_amplitude=amplitude,
        pert_shape=shape,
        k_max=k_max,
        n_v=n_v,
        v_max=v_max,
        dt=dt,
        t_end=t_end,
        out_dir=out_dir,
        cadence=cadence,
        echo=echo,
        sweep_nus=sweep_nus,
        kernel_alpha=kernel_alpha if kernel_alpha is not None else 0.5,
        kernel_cases=kernel_cases if kernel_cases is not None else 200,
        raw=merged,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_ready(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return str(obj)


def _json_bytes(obj) -> bytes:
    return (json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _history_csv(hist: FieldHistory) -> bytes:
    """One row per (record, mode), written column-wise with the bytes _cell
    gives: "%.17g" formats a float as format(v, ".17g") does, and the moduli
    come from np.hypot, which rounds as Python's abs(complex) does where
    np.abs can differ in the last digit."""
    n_k = hist.modes.size
    rho = hist.rho_hat.ravel()
    e = hist.e_hat.ravel()
    columns = (
        np.repeat(hist.times, n_k), np.tile(hist.modes, hist.times.size),
        rho.real, rho.imag, np.hypot(rho.real, rho.imag),
        e.real, e.imag, np.hypot(e.real, e.imag),
    )
    row = "%.17g,%d," + ",".join(["%.17g"] * 6)
    lines = ["t,k,re_rho,im_rho,abs_rho,re_E,im_E,abs_E"]
    lines.extend(row % cells for cells in zip(*(c.tolist() for c in columns)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _diagnostics_csv(diag: dict) -> bytes:
    columns = [key for key, value in diag.items() if isinstance(value, np.ndarray)]
    rows = [
        [float(diag[c][i]) for c in columns] for i in range(len(diag["t"]))
    ]
    return _csv_bytes(columns, rows)


def _criterion(name, passed, measured, tolerance) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "measured": measured,
        "tolerance": tolerance,
    }


def _mass_criterion(hist: FieldHistory) -> dict:
    drift = mass_drift(hist)
    return _criterion("mass_conserved", drift < 1e-10, {"relative_drift": drift}, "< 1e-10")


def _ran_to_t_end(stop_reason, stopped_at, t_end, edge_fraction) -> dict:
    """Whether a guarded march reached t_end: why and when it stopped, and the
    resolution guard's edge fraction there (the tripping value on a trip)."""
    return _criterion(
        "ran_to_t_end", stop_reason == "t_end",
        {"stop_reason": stop_reason, "stopped_at": stopped_at, "t_end": t_end,
         "edge_fraction": edge_fraction},
        f"reaches t_end; resolution guard edge fraction <= {RESOLUTION_TOL:g}",
    )


# ---------------------------------------------------------------------------
# scenario workers: each returns (criteria, files)

def _kinetic_config(config: SimConfig) -> KineticRun:
    return KineticRun(
        profile=config.profile,
        interaction=config.interaction,
        nu=config.nu,
        dt=config.dt,
        t_end=config.t_end,
        k_pert=config.pert_mode,
        amplitude=config.pert_amplitude,
        pert_shape=config.pert_shape,
        k_max=config.k_max,
        n_v=config.n_v,
        v_max=config.v_max,
        record_every=config.cadence,
    )


def _run_linear_landau(config: SimConfig):
    hist, diag = run(_kinetic_config(config))
    criteria = []
    window = (0.09 * config.t_end, 0.94 * config.t_end)
    try:
        predicted = dispersion_rate(VolterraKernel(
            nu=config.nu, k=config.pert_mode, profile=config.profile,
            interaction=config.interaction))
        column = hist.k_max + config.pert_mode
        rate, _, rms = damping_rate_fit(
            (hist.times, np.abs(hist.e_hat[:, column])), window
        )
        gap = abs(-rate - predicted) / predicted
        criteria.append(
            _criterion(
                "decay_matches_dispersion_root",
                rate < 0 and gap <= 0.05 and rms < 0.05,
                {"fit_rate": -rate, "predicted": predicted, "gap": gap, "fit_rms": rms},
                "gap <= 0.05, rms < 0.05",
            )
        )
    except (TooFewPeaks, MarginNonPositive) as err:
        criteria.append(
            _criterion(
                "decay_matches_dispersion_root", False,
                {"reason": f"{type(err).__name__}: {err}"}, "gap <= 0.05",
            )
        )
    criteria.append(_mass_criterion(hist))
    criteria.append(_ran_to_t_end(
        diag["stop_reason"], diag["stop_time"], config.t_end, diag["stop_edge_fraction"]
    ))
    files = {
        "history.csv": _history_csv(hist),
        "diagnostics.csv": _diagnostics_csv(diag),
    }
    return criteria, files


def _run_free_transport_check(config: SimConfig):
    march = free_transport_march(
        config.profile, config.pert_mode, config.pert_amplitude, config.pert_shape,
        config.k_max, config.n_v, config.resolved_v_max(), config.dt,
        int(round(config.t_end / config.dt)), config.cadence,
    )
    hist = march["hist"]
    criteria = [
        _criterion(
            "matches_exact_shift",
            march["trace_error"] < 1e-10,
            {
                "max_trace_error": march["trace_error"],
                "compared_up_to": march["compared_up_to"],
                "recurrence_time": march["recurrence_time"],
            },
            "< 1e-10 up to 0.8 of the grid recurrence time",
        ),
        _mass_criterion(hist),
    ]
    rows = [
        [t, rho.real, rho.imag, ref.real, ref.imag, abs(rho - ref)]
        for t, rho, ref in zip(hist.times, march["trace"], march["exact"])
    ]
    files = {
        "history.csv": _history_csv(hist),
        "transport.csv": _csv_bytes(
            ["t", "re_rho", "im_rho", "re_ref", "im_ref", "abs_err"], rows
        ),
    }
    return criteria, files


def _run_echo_experiment(config: SimConfig):
    settings = config.echo
    k = settings.l + settings.force_mode
    run_cfg = replace(_kinetic_config(config), amplitude=0.0)
    if k == 0 or echo_time(settings.l, k, settings.s_force) is None:
        reason = (
            f"seed mode {settings.l} forced at mode {settings.force_mode} responds "
            f"on mode {k}: no future echo from s = {settings.s_force:g}"
        )
        return (
            [_criterion("future_echo_exists", False, {"reason": reason}, "t* > s")],
            {"echo.json": _json_bytes({"refusal": reason})},
        )
    try:
        report = echo_experiment(
            run_cfg, settings.l, settings.force_mode, settings.s_force,
            settings.eps1, settings.eps2,
        )
    except EchoBeyondRecurrence as err:
        return (
            [
                _criterion(
                    "echo_inside_recurrence_horizon", False,
                    {"reason": str(err)}, "t* below 0.8 of the grid recurrence time",
                )
            ],
            {"echo.json": _json_bytes({"refusal": str(err)})},
        )
    except ResolutionExceeded as err:
        return (
            [_ran_to_t_end("resolution_exceeded", err.time, config.t_end, err.fraction)],
            {"echo.json": _json_bytes({"refusal": str(err)})},
        )
    offset = abs(report.rel_offset)
    contrast = report.peak_amp / max(report.baseline_amp, 1e-300)
    criteria = [
        _criterion(
            "echo_arrives_on_time", offset <= 0.05,
            {"t_predicted": report.t_predicted, "t_measured": report.t_measured,
             "relative_offset": offset},
            "<= 0.05",
        ),
        _criterion(
            "echo_stands_out", contrast >= 10.0,
            {"peak_amp": report.peak_amp, "baseline_amp": report.baseline_amp,
             "contrast": contrast},
            ">= 10 over the unforced baseline",
        ),
    ]
    return criteria, {"echo.json": _json_bytes(report.as_dict())}


def _run_collision_sweep(config: SimConfig):
    def solve(nu):
        return unit_density(
            config.profile, config.interaction, nu, config.pert_mode,
            config.t_end, config.dt,
        )

    base = solve(0.0)
    times, base_rho = base.times, base.rho_hat
    columns = {"t": times, "abs_rho_nu0": np.abs(base_rho)}
    sups = {}
    for nu in config.sweep_nus:  # ordered ascending by construction
        rho = solve(nu).rho_hat
        columns[f"abs_rho_nu{nu:g}"] = np.abs(rho)
        sups[nu] = float(np.max(np.abs(rho - base_rho)))
    nus = list(config.sweep_nus)
    monotone = all(sups[a] < sups[b] for a, b in zip(nus, nus[1:]))
    ratios = []
    decade_ok = True
    for a, b in zip(nus, nus[1:]):
        ratio = sups[b] / sups[a]
        ratios.append((a, b, ratio))
        if abs(b / a - 10.0) < 1e-9 and ratio < 8.0:
            decade_ok = False
    criteria = [
        _criterion(
            "deviation_shrinks_with_nu", monotone,
            {f"sup_diff_nu{nu:g}": sups[nu] for nu in nus},
            "sup |rho_nu - rho_0| strictly increasing in nu",
        ),
        _criterion(
            "decade_ratio_at_least_8", decade_ok,
            {f"ratio_{a:g}_to_{b:g}": r for a, b, r in ratios},
            ">= 8 between decade-spaced nus",
        ),
    ]
    header = list(columns)
    rows = [[columns[c][i] for c in header] for i in range(times.size)]
    summary_rows = [[nu, sups[nu]] for nu in nus]
    files = {
        "sweep.csv": _csv_bytes(header, rows),
        "sweep_summary.csv": _csv_bytes(["nu", "sup_diff"], summary_rows),
    }
    return criteria, files


def _run_kernel_bounds(config: SimConfig):
    rng = np.random.default_rng(config.seed)
    alpha = config.kernel_alpha
    rows = []
    violations = 0
    worst = 0.0
    for _ in range(config.kernel_cases):
        k = int(rng.integers(1, 9))
        l = int(rng.integers(-12, 13))
        t = float(rng.uniform(0.5, config.t_end))
        numeric, bound = piecewise_integral_check(k, l, alpha, t)
        ratio = numeric / bound
        worst = max(worst, ratio)
        if numeric > bound * (1.0 + 1e-12):
            violations += 1
        rows.append([k, l, alpha, t, numeric, bound, ratio])
    criteria = [
        _criterion(
            "quadrature_under_bound", violations == 0,
            {"cases": config.kernel_cases, "violations": violations,
             "worst_ratio": worst},
            "numeric <= bound (1 + 1e-12) on every case",
        )
    ]
    files = {
        "kernel_table.csv": _csv_bytes(
            ["k", "l", "alpha", "t", "numeric", "bound", "ratio"], rows
        )
    }
    return criteria, files


def _run_norm_battery(config: SimConfig):
    report = norm_battery_report(config.seed)
    criteria = []
    rows = []
    for item in sorted(report.items):
        entry = report.items[item]
        criteria.append(
            _criterion(
                f"norm_item_{item}", entry["passed"] and entry["slack"] < 1e-9,
                {"cases": entry["cases"], "max_slack": entry["slack"]},
                "slack < 1e-9",
            )
        )
        rows.append([item, "asserted", entry["cases"], entry["slack"], entry["passed"]])
    for item in sorted(report.observed):
        note = str(report.observed[item]).replace(",", ";")
        rows.append([item, "observed", 0, note, True])
    files = {
        "norms.csv": _csv_bytes(["item", "kind", "cases", "value", "passed"], rows)
    }
    return criteria, files


def _run_stability_scan(config: SimConfig):
    def family(k):
        return VolterraKernel(
            nu=config.nu, k=k, profile=config.profile,
            interaction=config.interaction, dt=0.05, horizon=30.0,
        )

    try:
        report = stability_scan((1, config.k_max), config.nu, family)
    except MarginNonPositive as err:
        criteria = [
            _criterion(
                "positive_stability_margin", False,
                {"kappa": 0.0, "reason": str(err)}, "kappa > 0",
            )
        ]
        return criteria, {"stability.csv": _csv_bytes(
            ["k", "margin", "re_eta", "im_eta"], []
        )}
    margins = report.scan["margins"]
    rows = [
        [k, m, re, im] for k, (m, re, im) in sorted(margins.items())
    ]
    criteria = [
        _criterion(
            "positive_stability_margin", report.kappa > 0.0,
            {"kappa": report.kappa, "worst_mode": report.worst_mode,
             "worst_re_eta": report.worst_frequency.real,
             "worst_im_eta": report.worst_frequency.imag},
            "kappa > 0",
        )
    ]
    files = {"stability.csv": _csv_bytes(["k", "margin", "re_eta", "im_eta"], rows)}
    return criteria, files


_WORKERS = {
    "linear_landau": _run_linear_landau,
    "free_transport_check": _run_free_transport_check,
    "echo_experiment": _run_echo_experiment,
    "collision_sweep": _run_collision_sweep,
    "kernel_bounds": _run_kernel_bounds,
    "norm_battery": _run_norm_battery,
    "stability_scan": _run_stability_scan,
}


@dataclass(frozen=True)
class RunReport:
    """Everything one scenario run produced, with a hash over its files."""

    scenario: str
    config_echo: dict
    criteria: tuple
    manifest: tuple
    content_hash: str
    out_dir: str
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.criteria)

    def lines(self):
        out = []
        for c in self.criteria:
            status = "PASS" if c["passed"] else "FAIL"
            body = "  ".join(
                f"{k}={format(v, '.6g') if isinstance(v, float) else v}"
                for k, v in c["measured"].items()
            )
            out.append(f"{status} {c['name']}: {body}  [{c['tolerance']}]")
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"{status} scenario {self.scenario}: {len(self.manifest)} files in "
            f"{self.out_dir} (sha256 {self.content_hash[:12]}...) "
            f"{self.wall_seconds:.1f} s"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "config": self.config_echo,
            "criteria": list(self.criteria),
            "files": list(self.manifest),
            "content_hash": self.content_hash,
            "wall_seconds": self.wall_seconds,
        }


def run_scenario(config: SimConfig) -> RunReport:
    """Execute one scenario, write its outputs, and report its criteria.

    Output files are written to config.out_dir next to a report.json; the
    content hash covers every file except the report itself. Toolkit errors
    escaping a worker are re-raised with the scenario name prepended.
    """
    t0 = time.perf_counter()
    worker = _WORKERS[config.scenario]
    try:
        criteria, files = worker(config)
    except VpkitError as err:
        message = err.args[0] if err.args else ""
        err.args = (f"[{config.scenario}] {message}",) + err.args[1:]
        raise
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    hasher = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        (out / name).write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        manifest.append({"name": name, "bytes": len(data), "sha256": digest})
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(data)
    report = RunReport(
        scenario=config.scenario,
        config_echo={sec: dict(keys) for sec, keys in sorted(config.raw.items())},
        criteria=tuple(criteria),
        manifest=tuple(manifest),
        content_hash=hasher.hexdigest(),
        out_dir=str(out),
        wall_seconds=time.perf_counter() - t0,
    )
    (out / "report.json").write_bytes(_json_bytes(report.as_dict()))
    return report


def acceptance(suite: str = "all", out_dir: str | None = None):
    """Run an acceptance suite; write its summary when out_dir is given.

    Failures are content in the returned report, never exceptions. The CSV
    summary excludes wall times so repeated runs are byte-identical; the
    JSON report carries them.
    """
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValidationError([f"acceptance suite: unknown suite {suite!r} (known: {known})"])
    battery = run_battery(suite)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "acceptance_summary.csv").write_bytes(battery.summary_csv().encode("utf-8"))
        (out / "acceptance_report.json").write_bytes(_json_bytes(battery.as_dict()))
    return battery


# ---------------------------------------------------------------------------
# command line

def _resolve_out(config: SimConfig, args) -> SimConfig:
    out = getattr(args, "out", None) or os.environ.get("VPKIT_OUT") or config.out_dir
    seed = getattr(args, "seed", None)
    updates = {"out_dir": out}
    if seed is not None:
        updates["seed"] = seed
    raw = {sec: dict(keys) for sec, keys in config.raw.items()}
    raw.setdefault("outputs", {})["directory"] = out
    if seed is not None:
        raw.setdefault("scenario", {})["seed"] = str(seed)
    updates["raw"] = raw
    return replace(config, **updates)


def _print_report(lines, quiet):
    if not quiet:
        for line in lines:
            print(line)


def _cmd_run(args, force_scenario=None) -> int:
    config = parse_config(args.config, force_scenario=force_scenario)
    config = _resolve_out(config, args)
    report = run_scenario(config)
    _print_report(report.lines(), args.quiet)
    return 0 if report.passed else 1


def _cmd_acceptance(args) -> int:
    out = args.out or os.environ.get("VPKIT_OUT") or "out"
    battery = acceptance(args.suite, out_dir=out)
    _print_report(battery.lines(), args.quiet)
    return 0 if battery.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpkit",
        description="Kinetic toolkit runner: scenarios, scans, and acceptance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_seed=True):
        p.add_argument("--out", help="output directory (beats VPKIT_OUT and the config)")
        if with_seed:
            p.add_argument("--seed", type=int, help="override the config's seed")
        p.add_argument("--quiet", action="store_true", help="suppress the report lines")

    p_run = sub.add_parser("run", help="execute one scenario from a config file")
    p_run.add_argument("config", help="path to an INI scenario config")
    common(p_run)

    p_acc = sub.add_parser("acceptance", help="run the numbered acceptance battery")
    p_acc.add_argument(
        "suite", nargs="?", default="all",
        help=f"suite name (default all; known: {', '.join(sorted(SUITES))})",
    )
    common(p_acc, with_seed=False)

    p_scan = sub.add_parser(
        "scan-stability", help="stability-margin scan for the configured model"
    )
    p_scan.add_argument("config", help="config whose model sections define the scan")
    common(p_scan)

    p_table = sub.add_parser(
        "kernel-table", help="phase-integral bound table for the configured kernel"
    )
    p_table.add_argument("config", help="config whose [kernel] section sizes the table")
    common(p_table)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "acceptance":
            return _cmd_acceptance(args)
        if args.command == "scan-stability":
            return _cmd_run(args, force_scenario="stability_scan")
        if args.command == "kernel-table":
            return _cmd_run(args, force_scenario="kernel_bounds")
        raise AssertionError(f"unhandled command {args.command!r}")
    except ParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValidationError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except VpkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
