"""The config schema: one table of keys, and the SimConfig a valid config becomes.

A config is sectioned key = value text; sections mirror the library modules
([profile], [interaction], [grid], [time], ...). One table, _KEYS, declares
every key with its type, default (per scenario where they differ), bound and
problem message; defaults, the allowed keys, scenario-gated sections and the
per-key checks all come from it, and the checks that span keys are short
functions beside it. Every problem is reported at once, not just the first.
A valid config becomes a SimConfig that holds the KineticRun it describes.

scenario_defaults(name) is the SimConfig of a config that names only the
scenario. The acceptance battery and the demos run these defaults, so a
scenario is defined once, here, for them and for `vpkit run`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .echo import echo_time
from .errors import ParseError, ValidationError
from .kinetic import PHASE_BUDGET, KineticRun, default_v_max, on_step_grid
from .profiles import Interaction, VelocityProfile

# in the order "known: ..." problems list them; vpkit.cli has a worker for each
SCENARIOS = (
    "linear_landau", "collision_sweep", "echo_experiment", "kernel_bounds",
    "norm_battery", "free_transport_check", "stability_scan",
)


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
        elif not on_step_grid(t_end, dt):
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
    before t_end and on the step grid, and the echo it predicts by t_end."""
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
        elif dt is not None and not on_step_grid(s_force, dt):
            yield "echo.s_force: must sit on the step grid"
        elif None not in (l, force, t_end) and l + force != 0:
            t_star = echo_time(l, l + force, s_force)
            if t_star is not None and t_star > t_end:
                yield (
                    f"echo.s_force: the echo it launches arrives at t* = {t_star:g}, "
                    f"after time.t_end = {t_end:g}"
                )


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
    if force_scenario is not None:
        user.setdefault("scenario", {})["name"] = force_scenario
    return _resolve(user)


def scenario_defaults(name: str) -> SimConfig:
    """The run of a config that names only this scenario, every key at its
    default. The acceptance battery and the demos run these."""
    return _resolve({"scenario": {"name": name}})


def _resolve(user: dict) -> SimConfig:
    """The SimConfig of a config's sections ({section: {key: text}}), or one
    ValidationError with every problem."""
    problems: list[str] = []
    scenario = user.get("scenario", {}).get("name")
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
