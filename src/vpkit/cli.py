"""Config-driven front end: flat INI scenarios in, CSV tables and JSON out.

Subcommands: run <config>, acceptance [suite], scan-stability <config> and
kernel-table <config> (the last two run a config as stability_scan or
kernel_bounds).

A config is sectioned key = value text; sections mirror the library modules
([profile], [interaction], [grid], [time], ...). One table, _KEYS, declares
every key with its type, default (per scenario where they differ), bound and
problem message; defaults, the allowed keys, scenario-gated sections and the
per-key checks all come from it, and the checks that span keys are short
functions beside it. Every problem is reported at once, not just the first.
A valid config becomes a SimConfig that holds the KineticRun it describes.

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
from dataclasses import dataclass, field, fields, replace
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


def _value(kind, label, text, problems):
    """A key's text as its type (str, a finite float, a base-10 int, or what a
    parser of the whole text makes of it); None, with its problem, if not."""
    if kind is str:
        return text
    if kind not in (float, int):
        return kind(label, text, problems)
    try:
        value = float(text) if kind is float else int(text, 10)
    except ValueError:
        problems.append(f"{label}: not {'a number' if kind is float else 'an integer'}: {text!r}")
        return None
    if kind is float and not np.isfinite(value):
        problems.append(f"{label}: must be finite, got {text!r}")
        return None
    return value


def _finite_or_auto(label, text, problems):
    return text if text == "auto" else _value(float, label, text, problems)


def _triples(label, text, problems):
    """weight:center:spread components with positive weights summing to 1."""
    comps = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) != 3:
            problems.append(f"{label}: {piece!r} is not weight:center:spread")
            continue
        w, c, s = (_value(float, label, part, problems) for part in parts)
        if None in (w, c, s):
            continue
        if w <= 0 or s <= 0:
            problems.append(f"{label}: {piece!r} needs weight > 0 and spread > 0")
        else:
            comps.append((w, c, s))
    if not comps:
        problems.append(f"{label}: at least one weight:center:spread triple")
    elif abs(sum(w for w, _, _ in comps) - 1.0) > 1e-12:
        problems.append(f"{label}: weights must sum to 1")
    else:
        return comps
    return None


def _nus(label, text, problems):
    """Distinct positive collision frequencies, ascending."""
    values = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        value = _value(float, label, piece, problems)
        if value is not None and value <= 0:
            problems.append(f"{label}: entries must be > 0 (nu = 0 is the reference)")
        elif value is not None:
            values.append(value)
    if not values:
        problems.append(f"{label}: needs at least one collision frequency")
    elif len(set(values)) != len(values):
        problems.append(f"{label}: entries must be distinct")
    return tuple(sorted(set(values)))


# The kinds of [profile] and [interaction]: the keys each reads, in its
# constructor's order. Setting a key that another kind reads is a problem.
_MODELS = {
    "profile": {
        "maxwellian": (("thermal_speed",), VelocityProfile.maxwellian),
        "sum_of_maxwellians": (("components",), VelocityProfile.sum_of_maxwellians),
    },
    "interaction": {
        "power_law": (("gamma", "amplitude", "sign"), Interaction.power_law),
        "zero": ((), Interaction.zero),
    },
}
_KIND_OF = {f"{sec}.{key}": kind for sec, kinds in _MODELS.items()
            for kind, (keys, _) in kinds.items() for key in keys}

# Cold Maxwellian for the Landau-damping family of runs.
_COLD = dict.fromkeys(("linear_landau", "free_transport_check", "collision_sweep"), "0.05")

# One row per config key: (section, key, type, default, check, message).
# type is float, int, str or a parser of the whole text. default is the text
# used when the file omits the key (None: no default), or per-scenario texts
# with a None entry for the other scenarios; without that entry the key, and
# its section, belong to the one scenario named. check is the bound a parsed
# value must meet and message the problem when it fails ({!r}: the text).
_KEYS = (
    ("scenario", "name", str, None, None, None),
    ("scenario", "nu", float, "0", lambda v: v >= 0, "collision frequency must be >= 0"),
    ("scenario", "seed", int, "0", lambda v: v >= 0, "must be >= 0"),
    ("profile", "kind", str, "maxwellian", lambda v: v in _MODELS["profile"],
     "unknown kind {!r} (maxwellian, sum_of_maxwellians)"),
    ("profile", "thermal_speed", float, {None: "1", **_COLD}, lambda v: v > 0, "must be > 0"),
    ("profile", "components", _triples, None, None, None),
    ("interaction", "kind", str, {None: "power_law", "free_transport_check": "zero"},
     lambda v: v in _MODELS["interaction"], "unknown kind {!r} (power_law, zero)"),
    ("interaction", "gamma", float, "2", lambda v: v > 1,
     "must exceed 1 for a summable potential"),
    ("interaction", "amplitude", float, "1", lambda v: 0 < v <= 1,
     "must lie in (0, 1] (the decay bound)"),
    ("interaction", "sign", int, "1", lambda v: v in (1, -1), "must be 1 or -1"),
    ("perturbation", "mode", int, "1", lambda v: v >= 1, "must be >= 1"),
    ("perturbation", "amplitude", float, {None: "1e-5", "free_transport_check": "1e-3"},
     lambda v: v >= 0, "must be >= 0"),
    ("perturbation", "shape", str, "density", lambda v: v in ("density", "velocity"),
     "unknown shape {!r} (density, velocity)"),
    ("grid", "k_max", int, {None: "4", "free_transport_check": "2", "echo_experiment": "8"},
     lambda v: v >= 1, "must be >= 1"),
    ("grid", "n_v", int, "512", lambda v: v >= 8 and v % 2 == 0, "must be an even integer >= 8"),
    ("grid", "v_max", _finite_or_auto,
     {None: "auto", "free_transport_check": "0.3", "echo_experiment": "6"},
     lambda v: v == "auto" or v > 0, "must be > 0 (or auto)"),
    ("time", "dt", float, {None: "0.05", "free_transport_check": "0.5",
                           "echo_experiment": "0.02", "collision_sweep": "0.04"},
     lambda v: v > 0, "must be > 0"),
    ("time", "t_end", float, {None: "45", "free_transport_check": "680",
                              "echo_experiment": "12.5", "collision_sweep": "40",
                              "kernel_bounds": "30"}, None, None),
    ("outputs", "directory", str, "out", bool, "must be non-empty"),
    ("outputs", "cadence", int, {None: "1", "free_transport_check": "4", "echo_experiment": "25"},
     lambda v: v >= 1, "must be >= 1"),
    ("echo", "l", int, {"echo_experiment": "1"}, None, None),
    ("echo", "force_mode", int, {"echo_experiment": "-2"}, None, None),
    ("echo", "s_force", float, {"echo_experiment": "5"}, lambda v: v > 0, "must be > 0"),
    ("echo", "eps1", float, {"echo_experiment": "1e-3"}, lambda v: v > 0,
     "seed amplitude must be > 0"),
    ("echo", "eps2", float, {"echo_experiment": "1e-3"}, lambda v: v >= 0,
     "forcing amplitude must be >= 0"),
    ("sweep", "nus", _nus, {"collision_sweep": "1e-4,1e-3,1e-2"}, None, None),
    ("kernel", "alpha", float, {"kernel_bounds": "0.5"}, lambda v: 0 < v < 1,
     "must lie in (0, 1)"),
    ("kernel", "cases", int, {"kernel_bounds": "200"}, lambda v: 1 <= v <= 100000,
     "must lie in 1..100000"),
)

# Every key's section.key label, and the scenario each section is gated to
# (None: read by every scenario).
_LABELS = {f"{sec}.{key}" for sec, key, *_ in _KEYS}
_SECTIONS = {
    sec: next(iter(default)) if isinstance(default, dict) and None not in default else None
    for sec, _, _, default, _, _ in _KEYS
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
    """A validated scenario: the KineticRun its keys describe, what only the
    scenario workers read, and raw, the merged key text report.json echoes."""

    scenario: str
    run: KineticRun
    seed: int
    out_dir: str
    echo: EchoSettings | None = None
    sweep_nus: tuple = ()
    kernel_alpha: float | None = None
    kernel_cases: int | None = None
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    # the grid and step, read through to the run
    dt = property(lambda self: self.run.dt)
    t_end = property(lambda self: self.run.t_end)
    k_max = property(lambda self: self.run.k_max)
    n_v = property(lambda self: self.run.n_v)


def _grid_problems(scenario, v):
    """The perturbed mode inside the band, t_end on the step grid, and the
    kernel_bounds sampling window [0.5, t_end]."""
    mode, k_max = v["perturbation.mode"], v["grid.k_max"]
    dt, t_end = v["time.dt"], v["time.t_end"]
    if None not in (mode, k_max) and mode > k_max:
        yield "perturbation.mode: must not exceed grid.k_max"
    if None not in (dt, t_end):
        if t_end < dt:
            yield "time.t_end: must cover at least one step"
        elif abs(round(t_end / dt) * dt - t_end) > 1e-9 * max(1.0, t_end):
            yield "time.t_end: must be an integer number of steps of dt"
    if scenario == "kernel_bounds" and t_end is not None and t_end <= 0.5:
        yield "time.t_end: kernel_bounds samples times in [0.5, t_end] and needs t_end > 0.5"


def _marching_problems(scenario, v, profile, interaction):
    """The splitting phase budget (which the marching guard also enforces) at
    parse time, and free flight for free_transport_check."""
    dt, k_max, v_max = v["time.dt"], v["grid.k_max"], v["grid.v_max"]
    if v_max == "auto":
        v_max = None if profile is None else default_v_max(profile)
    marched = ("linear_landau", "free_transport_check", "echo_experiment")
    if scenario in marched and None not in (dt, k_max, v_max):
        budget = dt * k_max * v_max
        if budget > PHASE_BUDGET:
            yield (
                f"time.dt: dt * k_max * v_max = {budget:.3g} exceeds the splitting "
                f"phase budget {PHASE_BUDGET:g}; shrink dt or the grid"
            )
    if scenario == "free_transport_check":
        if interaction is not None and interaction.kind != "zero":
            yield (
                "interaction.kind: free_transport_check compares against free "
                "flight and needs kind = zero"
            )
        if v["scenario.nu"] is not None and v["scenario.nu"] != 0.0:
            yield "scenario.nu: free_transport_check needs nu = 0"


def _echo_problems(v):
    """Seed, forcing and response modes inside the band; the forcing time
    before t_end and on the step grid."""
    l, force, k_max = v["echo.l"], v["echo.force_mode"], v["grid.k_max"]
    if l is not None and (l < 1 or (k_max is not None and l > k_max)):
        yield "echo.l: seed mode must lie in 1..grid.k_max"
        l = None
    if force is not None and (force == 0 or (k_max is not None and abs(force) > k_max)):
        yield "echo.force_mode: must be nonzero with |force_mode| <= grid.k_max"
        force = None
    if None not in (l, force, k_max) and abs(l + force) > k_max:
        yield "echo.force_mode: the response mode l + force_mode must fit inside the retained band"
    s_force, dt, t_end = v["echo.s_force"], v["time.dt"], v["time.t_end"]
    if s_force is not None:
        if t_end is not None and s_force >= t_end:
            yield "echo.s_force: must land before time.t_end"
        elif dt is not None and abs(round(s_force / dt) * dt - s_force) > 1e-9:
            yield "echo.s_force: must sit on the step grid"


def parse_config(path, *, force_scenario: str | None = None, seed: int | None = None) -> SimConfig:
    """Read and validate a scenario config, reporting every problem at once.

    Structural failures (unreadable file, duplicate keys, text outside a
    section) raise ParseError with the offending line. Everything else is
    collected into a single ValidationError so one round trip fixes the lot.
    force_scenario runs the file as that scenario regardless of its own
    [scenario] name (the shortcut subcommands use this); seed replaces the
    file's scenario.seed and is checked like it.
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
    if seed is not None:
        user.setdefault("scenario", {})["seed"] = str(seed)
    problems: list[str] = []

    scenario = force_scenario or user.get("scenario", {}).get("name")
    if scenario is None:
        problems.append("scenario.name: required ([scenario] section with a name key)")
    elif scenario not in SCENARIOS:
        problems.append(
            f"scenario.name: unknown scenario {scenario!r} (known: {', '.join(SCENARIOS)})"
        )
    if problems:
        # without a scenario the defaults are unknown; still report what else
        # is visibly wrong before giving up
        problems.extend(f"[{sec}]: unknown section" for sec in user if sec not in _SECTIONS)
        raise ValidationError(problems)

    # every section the scenario reads, its defaults under the file's text
    merged = {sec: {} for sec, owner in _SECTIONS.items() if owner in (None, scenario)}
    for sec, key, _, default, _, _ in _KEYS:
        if isinstance(default, dict):
            default = default.get(scenario, default.get(None))
        if sec in merged and default is not None:
            merged[sec][key] = default
    for sec, keys in user.items():
        if sec not in _SECTIONS:
            problems.append(f"[{sec}]: unknown section")
        elif sec not in merged:
            problems.append(f"[{sec}]: section only applies to scenario {_SECTIONS[sec]}")
        else:
            for key, text in keys.items():
                if f"{sec}.{key}" in _LABELS:
                    merged[sec][key] = text
                else:
                    problems.append(f"{sec}.{key}: unknown key")
    merged["scenario"]["name"] = scenario

    # each key the scenario reads, parsed and held to its bound (None once
    # it has a problem)
    v = {}
    for sec, key, kind, _, check, message in _KEYS:
        label = f"{sec}.{key}"
        if sec not in merged:
            continue
        reader = _KIND_OF.get(label)
        if reader is not None and merged[sec]["kind"] != reader:
            if v[f"{sec}.kind"] is not None and key in user.get(sec, {}):
                problems.append(f"{label}: only applies to kind = {reader}")
            continue
        text = merged[sec].get(key, "")
        value = _value(kind, label, text, problems)
        if value is not None and check is not None and not check(value):
            problems.append(f"{label}: {message.format(text)}")
            value = None
        v[label] = value

    models = dict.fromkeys(_MODELS)  # the profile and interaction, once their keys are valid
    for sec, kinds in _MODELS.items():
        if v[f"{sec}.kind"] is not None:
            keys, build = kinds[v[f"{sec}.kind"]]
            args = [v[f"{sec}.{key}"] for key in keys]
            models[sec] = None if None in args else build(*args)
    profile, interaction = models["profile"], models["interaction"]

    problems.extend(_grid_problems(scenario, v))
    problems.extend(_marching_problems(scenario, v, profile, interaction))
    if scenario == "echo_experiment":
        problems.extend(_echo_problems(v))
    if problems:
        raise ValidationError(problems)

    echo = None
    if scenario == "echo_experiment":
        echo = EchoSettings(*(v[f"echo.{f.name}"] for f in fields(EchoSettings)))
    params = KineticRun(
        profile=profile, interaction=interaction, nu=v["scenario.nu"],
        dt=v["time.dt"], t_end=v["time.t_end"],
        k_pert=v["perturbation.mode"], amplitude=v["perturbation.amplitude"],
        pert_shape=v["perturbation.shape"],
        k_max=v["grid.k_max"], n_v=v["grid.n_v"],
        v_max=None if v["grid.v_max"] == "auto" else v["grid.v_max"],
        record_every=v["outputs.cadence"],
    )
    return SimConfig(
        scenario, params, seed=v["scenario.seed"], out_dir=v["outputs.directory"], echo=echo,
        sweep_nus=v.get("sweep.nus", ()),
        kernel_alpha=v.get("kernel.alpha"), kernel_cases=v.get("kernel.cases"), raw=merged,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_ready(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return str(obj)


def _json_bytes(obj) -> bytes:
    return (json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _cell(v) -> str:
    """A CSV cell: the JSON form of a scalar, with booleans lower-case."""
    v = _json_ready(v)
    return ("true" if v else "false") if isinstance(v, bool) else str(v)


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _columns_csv(columns: dict, row: str | None = None) -> bytes:
    """A table of equal-length arrays, header -> column, written column-wise
    with one %-format per row (default "%.17g" in every cell) and the bytes
    _cell gives: "%.17g" formats a float as format(v, ".17g") does."""
    row = row or ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(row % cells for cells in zip(*(c.tolist() for c in columns.values())))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _history_csv(hist: FieldHistory) -> bytes:
    """One row per (record, mode). The moduli come from np.hypot, which rounds
    as Python's abs(complex) does where np.abs can differ in the last digit."""
    rho = hist.rho_hat.ravel()
    e = hist.e_hat.ravel()
    return _columns_csv(
        {"t": np.repeat(hist.times, hist.modes.size), "k": np.tile(hist.modes, hist.times.size),
         "re_rho": rho.real, "im_rho": rho.imag, "abs_rho": np.hypot(rho.real, rho.imag),
         "re_E": e.real, "im_E": e.imag, "abs_E": np.hypot(e.real, e.imag)},
        "%.17g,%d," + ",".join(["%.17g"] * 6),
    )


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

def _run_linear_landau(config: SimConfig):
    params = config.run
    hist, diag = run(params)
    window = (0.09 * params.t_end, 0.94 * params.t_end)
    try:
        predicted = dispersion_rate(VolterraKernel(
            nu=params.nu, k=params.k_pert, profile=params.profile,
            interaction=params.interaction))
        column = hist.k_max + params.k_pert
        rate, _, rms = damping_rate_fit(
            (hist.times, np.abs(hist.e_hat[:, column])), window
        )
        gap = abs(-rate - predicted) / predicted
        fit = _criterion(
            "decay_matches_dispersion_root",
            rate < 0 and gap <= 0.05 and rms < 0.05,
            {"fit_rate": -rate, "predicted": predicted, "gap": gap, "fit_rms": rms},
            "gap <= 0.05, rms < 0.05",
        )
    except (TooFewPeaks, MarginNonPositive) as err:
        fit = _criterion(
            "decay_matches_dispersion_root", False,
            {"reason": f"{type(err).__name__}: {err}"}, "gap <= 0.05",
        )
    criteria = [fit, _mass_criterion(hist), _ran_to_t_end(
        diag["stop_reason"], diag["stop_time"], params.t_end, diag["stop_edge_fraction"]
    )]
    series = {key: value for key, value in diag.items() if isinstance(value, np.ndarray)}
    files = {
        "history.csv": _history_csv(hist),
        "diagnostics.csv": _columns_csv(series),
    }
    return criteria, files


def _run_free_transport_check(config: SimConfig):
    params = config.run
    march = free_transport_march(
        params.profile, params.k_pert, params.amplitude, params.pert_shape,
        params.k_max, params.n_v, params.resolved_v_max(), params.dt,
        params.n_steps, params.record_every,
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
    trace, exact = march["trace"], march["exact"]
    gap = trace - exact
    files = {
        "history.csv": _history_csv(hist),
        "transport.csv": _columns_csv({
            "t": hist.times, "re_rho": trace.real, "im_rho": trace.imag,
            "re_ref": exact.real, "im_ref": exact.imag, "abs_err": np.hypot(gap.real, gap.imag),
        }),
    }
    return criteria, files


def _run_echo_experiment(config: SimConfig):
    settings = config.echo
    k = settings.l + settings.force_mode

    def refusal(criterion, reason):
        return [criterion], {"echo.json": _json_bytes({"refusal": reason})}

    if k == 0 or echo_time(settings.l, k, settings.s_force) is None:
        reason = (
            f"seed mode {settings.l} forced at mode {settings.force_mode} responds "
            f"on mode {k}: no future echo from s = {settings.s_force:g}"
        )
        return refusal(
            _criterion("future_echo_exists", False, {"reason": reason}, "t* > s"), reason
        )
    try:
        report = echo_experiment(
            replace(config.run, amplitude=0.0), settings.l, settings.force_mode,
            settings.s_force, settings.eps1, settings.eps2,
        )
    except EchoBeyondRecurrence as err:
        return refusal(_criterion(
            "echo_inside_recurrence_horizon", False,
            {"reason": str(err)}, "t* below 0.8 of the grid recurrence time",
        ), str(err))
    except ResolutionExceeded as err:
        return refusal(
            _ran_to_t_end("resolution_exceeded", err.time, config.t_end, err.fraction), str(err)
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
    params = config.run

    def solve(nu):
        return unit_density(
            params.profile, params.interaction, nu, params.k_pert, params.t_end, params.dt
        )

    base = solve(0.0)
    base_rho = base.rho_hat
    columns = {"t": base.times, "abs_rho_nu0": np.abs(base_rho)}
    sups = {}
    for nu in config.sweep_nus:  # ordered ascending by construction
        rho = solve(nu).rho_hat
        columns[f"abs_rho_nu{nu:g}"] = np.abs(rho)
        sups[nu] = float(np.max(np.abs(rho - base_rho)))
    nus = config.sweep_nus
    ratios = {(a, b): sups[b] / sups[a] for a, b in zip(nus, nus[1:])}
    criteria = [
        _criterion(
            "deviation_shrinks_with_nu", all(sups[a] < sups[b] for a, b in ratios),
            {f"sup_diff_nu{nu:g}": sups[nu] for nu in nus},
            "sup |rho_nu - rho_0| strictly increasing in nu",
        ),
        _criterion(
            "decade_ratio_at_least_8",
            not any(r < 8.0 for (a, b), r in ratios.items() if abs(b / a - 10.0) < 1e-9),
            {f"ratio_{a:g}_to_{b:g}": r for (a, b), r in ratios.items()},
            ">= 8 between decade-spaced nus",
        ),
    ]
    summary_rows = [[nu, sups[nu]] for nu in nus]
    files = {
        "sweep.csv": _columns_csv(columns),
        "sweep_summary.csv": _csv_bytes(["nu", "sup_diff"], summary_rows),
    }
    return criteria, files


def _run_kernel_bounds(config: SimConfig):
    rng = np.random.default_rng(config.seed)
    alpha = config.kernel_alpha
    rows = []
    for _ in range(config.kernel_cases):
        k = int(rng.integers(1, 9))
        l = int(rng.integers(-12, 13))
        t = float(rng.uniform(0.5, config.t_end))
        numeric, bound = piecewise_integral_check(k, l, alpha, t)
        rows.append([k, l, alpha, t, numeric, bound, numeric / bound])
    violations = sum(numeric > bound * (1.0 + 1e-12) for *_, numeric, bound, _ in rows)
    worst = max([0.0] + [ratio for *_, ratio in rows])
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
    asserted = sorted(report.items.items())
    criteria = [
        _criterion(
            f"norm_item_{item}", entry["passed"] and entry["slack"] < 1e-9,
            {"cases": entry["cases"], "max_slack": entry["slack"]},
            "slack < 1e-9",
        )
        for item, entry in asserted
    ]
    rows = [[item, "asserted", e["cases"], e["slack"], e["passed"]] for item, e in asserted]
    rows += [
        [item, "observed", 0, str(note).replace(",", ";"), True]
        for item, note in sorted(report.observed.items())
    ]
    files = {
        "norms.csv": _csv_bytes(["item", "kind", "cases", "value", "passed"], rows)
    }
    return criteria, files


def _run_stability_scan(config: SimConfig):
    params = config.run

    def family(k):
        return VolterraKernel(
            nu=params.nu, k=k, profile=params.profile,
            interaction=params.interaction, dt=0.05, horizon=30.0,
        )

    header = ["k", "margin", "re_eta", "im_eta"]
    try:
        report = stability_scan((1, params.k_max), params.nu, family)
    except MarginNonPositive as err:
        refusal = _criterion(
            "positive_stability_margin", False, {"kappa": 0.0, "reason": str(err)}, "kappa > 0"
        )
        return [refusal], {"stability.csv": _csv_bytes(header, [])}
    rows = [[k, m, re, im] for k, (m, re, im) in sorted(report.scan["margins"].items())]
    criteria = [
        _criterion(
            "positive_stability_margin", report.kappa > 0.0,
            {"kappa": report.kappa, "worst_mode": report.worst_mode,
             "worst_re_eta": report.worst_frequency.real,
             "worst_im_eta": report.worst_frequency.imag},
            "kappa > 0",
        )
    ]
    files = {"stability.csv": _csv_bytes(header, rows)}
    return criteria, files


_WORKERS = {
    "linear_landau": _run_linear_landau,
    "collision_sweep": _run_collision_sweep,
    "echo_experiment": _run_echo_experiment,
    "kernel_bounds": _run_kernel_bounds,
    "norm_battery": _run_norm_battery,
    "free_transport_check": _run_free_transport_check,
    "stability_scan": _run_stability_scan,
}
SCENARIOS = tuple(_WORKERS)


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
    try:
        criteria, files = _WORKERS[config.scenario](config)
    except VpkitError as err:
        message = err.args[0] if err.args else ""
        err.args = (f"[{config.scenario}] {message}",) + err.args[1:]
        raise
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    hasher = hashlib.sha256()
    for name, data in sorted(files.items()):
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpkit",
        description="Kinetic toolkit runner: scenarios, scans, and acceptance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, help, config argument help, scenario forced); acceptance takes a suite
    for name, help_text, config_help, scenario in (
        ("run", "execute one scenario from a config file",
         "path to an INI scenario config", None),
        ("acceptance", "run the numbered acceptance battery", None, None),
        ("scan-stability", "stability-margin scan for the configured model",
         "config whose model sections define the scan", "stability_scan"),
        ("kernel-table", "phase-integral bound table for the configured kernel",
         "config whose [kernel] section sizes the table", "kernel_bounds"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output directory (beats VPKIT_OUT and the config)")
        p.add_argument("--quiet", action="store_true", help="suppress the report lines")
        if config_help is None:
            p.add_argument(
                "suite", nargs="?", default="all",
                help=f"suite name (default all; known: {', '.join(sorted(SUITES))})",
            )
        else:
            p.add_argument("config", help=config_help)
            p.add_argument("--seed", type=int, help="override the config's seed")
            p.set_defaults(force_scenario=scenario)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "acceptance":
            report = acceptance(args.suite, args.out or os.environ.get("VPKIT_OUT") or "out")
        else:
            config = parse_config(args.config, force_scenario=args.force_scenario, seed=args.seed)
            out = args.out or os.environ.get("VPKIT_OUT") or config.out_dir
            raw = {**config.raw, "outputs": {**config.raw["outputs"], "directory": out}}
            report = run_scenario(replace(config, out_dir=out, raw=raw))
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
    if not args.quiet:
        for line in report.lines():
            print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
