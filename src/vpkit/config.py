"""The config schema: one table of keys, and the SimConfig a valid config becomes.

A config is sectioned key = value text; sections mirror the library modules
([profile], [interaction], [grid], [time], ...). One table, _KEYS, declares
every key with its type and default (per scenario where they differ);
defaults, the allowed keys and the scenario-gated sections come from it. A
key's value is held to the rules of the object it sets, stated beside that
object (profiles, kinetic, echo) and reported here under the key's label;
only the keys no object reads have bounds of their own (_OWN_RULES), and a
scenario's own demands are a short function. Every problem is reported at
once, not just the first. A valid config becomes a SimConfig that holds the
KineticRun it describes.

scenario_defaults(name) is the SimConfig of a config that names only the
scenario. The acceptance battery and the demos run these defaults, so a
scenario is defined once, here, for them and for `vpkit run`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .echo import KERNEL_RULES
from .errors import ParseError, ValidationError, broken
from .kinetic import PHASE_RULE, PROBE_RULES, RUN_RULES, KineticRun, default_v_max
from .profiles import INTERACTION_RULES, MAXWELLIAN_RULES, Interaction, VelocityProfile

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
    """The weight:center:spread components that are three finite numbers,
    each other piece a problem; None when they break VelocityProfile's rules."""
    comps = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) != 3:
            problems.append(f"{label}: {piece!r} is not weight:center:spread")
            continue
        numbers = [_value(float, label, part, problems) for part in parts]
        if None not in numbers:
            comps.append(tuple(numbers))
    found = VelocityProfile.problems(comps, label)
    problems.extend(found)
    return None if found else comps


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


# The model of [profile] and of [interaction]: a kind reads the keys
# model.KINDS names, and the constructor of its name builds it. Setting a key
# that another kind reads is a problem.
_MODELS = {"profile": VelocityProfile, "interaction": Interaction}
_KIND_OF = {f"{sec}.{key}": kind for sec, model in _MODELS.items()
            for kind, keys in model.KINDS.items() for key in keys}

# Cold Maxwellian for the Landau-damping family of runs.
_COLD = dict.fromkeys(("linear_landau", "free_transport_check", "collision_sweep"), "0.05")

# One row per config key: (section, key, type, default). type is float, int,
# str or a parser of the whole text. default is the text used when the file
# omits the key (None: no default), or per-scenario texts with a None entry
# for the other scenarios; without that entry the key, and its section,
# belong to the one scenario named.
_KEYS = (
    ("scenario", "name", str, None),
    ("scenario", "nu", float, "0"),
    ("scenario", "seed", int, "0"),
    ("profile", "kind", str, "maxwellian"),
    ("profile", "thermal_speed", float, {None: "1", **_COLD}),
    ("profile", "components", _triples, None),
    ("interaction", "kind", str, {None: "power_law", "free_transport_check": "zero"}),
    ("interaction", "gamma", float, "2"),
    ("interaction", "amplitude", float, "1"),
    ("interaction", "sign", int, "1"),
    ("perturbation", "mode", int, "1"),
    ("perturbation", "amplitude", float, {None: "1e-5", "free_transport_check": "1e-3"}),
    ("perturbation", "shape", str, "density"),
    ("grid", "k_max", int, {None: "4", "free_transport_check": "2", "echo_experiment": "8"}),
    ("grid", "n_v", int, "512"),
    ("grid", "v_max", _finite_or_auto,
     {None: "auto", "free_transport_check": "0.3", "echo_experiment": "6"}),
    ("time", "dt", float, {None: "0.05", "free_transport_check": "0.5",
                           "echo_experiment": "0.02", "collision_sweep": "0.04"}),
    ("time", "t_end", float, {None: "45", "free_transport_check": "680",
                              "echo_experiment": "12.5", "collision_sweep": "40",
                              "kernel_bounds": "30"}),
    ("outputs", "directory", str, "out"),
    ("outputs", "cadence", int, {None: "1", "free_transport_check": "4", "echo_experiment": "25"}),
    ("echo", "l", int, {"echo_experiment": "1"}),
    ("echo", "force_mode", int, {"echo_experiment": "-2"}),
    ("echo", "s_force", float, {"echo_experiment": "5"}),
    ("echo", "eps1", float, {"echo_experiment": "1e-3"}),
    ("echo", "eps2", float, {"echo_experiment": "1e-3"}),
    ("sweep", "nus", _nus, {"collision_sweep": "1e-4,1e-3,1e-2"}),
    ("kernel", "alpha", float, {"kernel_bounds": "0.5"}),
    ("kernel", "cases", int, {"kernel_bounds": "200"}),
)

# The bounds of the keys that set no object's field (errors.broken rules).
_OWN_RULES = (
    (("scenario.seed",), lambda seed: seed >= 0, "must be >= 0"),
    (("profile.kind",), lambda kind: kind in VelocityProfile.KINDS,
     "unknown kind {!r} (maxwellian, sum_of_maxwellians)"),
    (("outputs.directory",), bool, "must be non-empty"),
    (("kernel.cases",), lambda cases: 1 <= cases <= 100000, "must lie in 1..100000"),
)

# The rules a config is held to, its own and each object's, with the labels
# of the keys that set the fields; _RUN labels a KineticRun's.
_RUN = {
    "nu": "scenario.nu", "dt": "time.dt", "t_end": "time.t_end", "k_pert": "perturbation.mode",
    "amplitude": "perturbation.amplitude", "pert_shape": "perturbation.shape",
    "k_max": "grid.k_max", "n_v": "grid.n_v", "v_max": "grid.v_max",
    "record_every": "outputs.cadence",
}
_CHECKS = (
    (_OWN_RULES, {}),
    (MAXWELLIAN_RULES, {"thermal_speed": "profile.thermal_speed"}),
    (INTERACTION_RULES, {f: f"interaction.{f}" for f in ("kind", "gamma", "amplitude", "sign")}),
    (RUN_RULES, _RUN),
    (PROBE_RULES, {**{f: f"echo.{f}" for f in ("l", "force_mode", "s_force", "eps1", "eps2")},
                   **{f: _RUN[f] for f in ("k_max", "dt", "t_end")}}),
    (KERNEL_RULES, {"alpha": "kernel.alpha"}),
)

# Every key's section.key label, and the scenario each section is gated to
# (None: read by every scenario).
_LABELS = {f"{sec}.{key}" for sec, key, *_ in _KEYS}
_SECTIONS = {
    sec: next(iter(default)) if isinstance(default, dict) and None not in default else None
    for sec, _, _, default in _KEYS
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


def _scenario_problems(scenario, v, interaction):
    """Free flight for free_transport_check, and the kernel_bounds sampling
    window [0.5, t_end]."""
    if scenario == "free_transport_check":
        if interaction is not None and interaction.kind != "zero":
            yield (
                "interaction.kind: free_transport_check compares against free "
                "flight and needs kind = zero"
            )
        if v["scenario.nu"] is not None and v["scenario.nu"] != 0.0:
            yield "scenario.nu: free_transport_check needs nu = 0"
    if scenario == "kernel_bounds" and v["time.t_end"] is not None and v["time.t_end"] <= 0.5:
        yield "time.t_end: kernel_bounds samples times in [0.5, t_end] and needs t_end > 0.5"


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
    for sec, key, _, default in _KEYS:
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

    # each key the scenario reads, as its type (None once it has a problem)
    v = {}
    for sec, key, kind, _ in _KEYS:
        label = f"{sec}.{key}"
        if sec not in merged:
            continue
        reader = _KIND_OF.get(label)
        if reader is not None and merged[sec]["kind"] != reader:
            if merged[sec]["kind"] in _MODELS[sec].KINDS and key in user.get(sec, {}):
                problems.append(f"{label}: only applies to kind = {reader}")
            continue
        v[label] = _value(kind, label, merged[sec].get(key, ""), problems)

    # every value held to the rules of what it sets; auto v_max waits for the profile
    auto = v["grid.v_max"] == "auto"
    if auto:
        v["grid.v_max"] = None
    for rules, names in _CHECKS:
        problems.extend(broken(rules, v, names))

    models = dict.fromkeys(_MODELS)  # the profile and interaction, once their keys are valid
    for sec, model in _MODELS.items():
        kind = v[f"{sec}.kind"]
        if kind is not None:
            args = [v[f"{sec}.{key}"] for key in model.KINDS[kind]]
            models[sec] = None if None in args else getattr(model, kind)(*args)
    profile, interaction = models["profile"], models["interaction"]

    # the splitting phase budget of a marched run, which the march would refuse
    if scenario in ("linear_landau", "free_transport_check", "echo_experiment"):
        v_max = default_v_max(profile) if auto and profile is not None else v["grid.v_max"]
        problems.extend(broken((PHASE_RULE,), {**v, "grid.v_max": v_max}, _RUN))
    problems.extend(_scenario_problems(scenario, v, interaction))
    if problems:
        raise ValidationError(problems)

    echo = None
    if scenario == "echo_experiment":
        echo = EchoSettings(*(v[f"echo.{f.name}"] for f in fields(EchoSettings)))
    params = KineticRun(profile, interaction, **{f: v[label] for f, label in _RUN.items()})
    return SimConfig(
        scenario, params, seed=v["scenario.seed"], out_dir=v["outputs.directory"], echo=echo,
        sweep_nus=v.get("sweep.nus", ()),
        kernel_alpha=v.get("kernel.alpha"), kernel_cases=v.get("kernel.cases"), raw=merged,
    )
