"""Config front-end tests.

Parsing is checked against hand-written INI text: defaults fill in, every
problem in a broken file is reported in one ValidationError, and structural
damage (missing file, duplicate keys, headerless text) comes back as
ParseError with a line number. Runs are checked end to end through main():
exit codes, output files, and byte-identical reruns. Two hypothesis fuzzers
guard the contract that arbitrary text never escapes the typed errors and
that any config accepted by the parser also satisfies the solver's own
constructor guards.
"""

import hashlib
import json
import os
import resource
import string
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpkit import acceptance as battery
from vpkit import cli, echo, kinetic, lintheory
from vpkit.cli import (
    SCENARIOS,
    _columns_csv,
    _csv_bytes,
    _history_csv,
    acceptance,
    main,
    parse_config,
    run_scenario,
)
from vpkit.config import _KEYS, EchoSettings, SimConfig
from vpkit.errors import ConstraintViolation, ParseError, ValidationError, VpkitError
from vpkit.kinetic import RESOLUTION_TOL, FieldHistory, KineticRun, run
from vpkit.profiles import Interaction, VelocityProfile

SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def problems_of(path):
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    return info.value.problems


MINIMAL_LANDAU = "[scenario]\nname = linear_landau\n"

FT_QUICK = """\
[scenario]
name = free_transport_check

[grid]
n_v = 128

[time]
t_end = 40

[outputs]
cadence = 10
"""


class TestParsing:
    def test_minimal_config_fills_scenario_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL_LANDAU))
        assert config.scenario == "linear_landau"
        assert config.run.profile.thermal_speed == pytest.approx(0.05)
        assert config.run.interaction.kind == "power_law"
        assert config.run.nu == 0.0
        assert config.seed == 0
        assert (config.run.k_pert, config.run.amplitude) == (1, pytest.approx(1e-5))
        assert (config.k_max, config.n_v) == (4, 512)
        assert config.run.v_max is None
        assert config.run.resolved_v_max() == pytest.approx(0.3)
        assert (config.dt, config.t_end) == (0.05, 45.0)
        assert config.run.record_every == 1
        assert config.echo is None and config.sweep_nus == ()

    def test_user_values_override_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = linear_landau\nnu = 0.01\nseed = 9\n\n"
            "[grid]\nk_max = 3\nn_v = 256\nv_max = 0.4\n\n"
            "[perturbation]\nmode = 2\namplitude = 1e-4\nshape = velocity\n",
        )
        config = parse_config(path)
        assert (config.run.nu, config.seed) == (0.01, 9)
        assert (config.k_max, config.n_v, config.run.v_max) == (3, 256, 0.4)
        assert (config.run.k_pert, config.run.pert_shape) == (2, "velocity")

    def test_bad_gamma_is_named(self, tmp_path):
        path = write_config(
            tmp_path, MINIMAL_LANDAU + "[interaction]\ngamma = 0.5\n"
        )
        probs = problems_of(path)
        assert any(p.startswith("interaction.gamma") for p in probs)

    def test_negative_nu_is_named(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = linear_landau\nnu = -2\n")
        probs = problems_of(path)
        assert any(p.startswith("scenario.nu") for p in probs)

    def test_all_problems_reported_together(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = linear_landau\nnu = -1\n\n"
            "[interaction]\ngamma = 0.5\n\n[grid]\nn_v = 7\n\n[mystery]\nx = 1\n",
        )
        probs = problems_of(path)
        assert len(probs) >= 4
        joined = "\n".join(probs)
        for needle in ("scenario.nu", "interaction.gamma", "grid.n_v", "[mystery]"):
            assert needle in joined

    def test_unknown_key_is_named(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_LANDAU + "[grid]\nn_x = 32\n")
        assert any(p.startswith("grid.n_x") for p in problems_of(path))

    def test_unknown_scenario_is_named(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = landau\n")
        probs = problems_of(path)
        assert any("unknown scenario" in p for p in probs)

    def test_scenario_gated_section_rejected_elsewhere(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_LANDAU + "[echo]\nl = 1\n")
        probs = problems_of(path)
        assert any("only applies to scenario echo_experiment" in p for p in probs)

    def test_t_end_off_the_step_grid(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_LANDAU + "[time]\ndt = 0.05\nt_end = 45.02\n")
        assert any(p.startswith("time.t_end") for p in problems_of(path))

    def test_v_max_accepts_auto_but_not_negative(self, tmp_path):
        auto = parse_config(write_config(tmp_path, MINIMAL_LANDAU + "[grid]\nv_max = auto\n"))
        assert auto.run.v_max is None
        bad = write_config(tmp_path, MINIMAL_LANDAU + "[grid]\nv_max = -1\n", "bad.ini")
        assert any(p.startswith("grid.v_max") for p in problems_of(bad))

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError) as info:
            parse_config(tmp_path / "nowhere.ini")
        assert "cannot read" in info.value.reason

    def test_duplicate_key_reports_its_line(self, tmp_path):
        path = write_config(
            tmp_path, "[scenario]\nname = linear_landau\nnu = 0\nnu = 1\n"
        )
        with pytest.raises(ParseError) as info:
            parse_config(path)
        assert info.value.line == 4
        assert "duplicate" in info.value.reason

    def test_headerless_text_is_a_parse_error(self, tmp_path):
        path = write_config(tmp_path, "name = linear_landau\n")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_echo_defaults_populate(self, tmp_path):
        config = parse_config(write_config(tmp_path, "[scenario]\nname = echo_experiment\n"))
        assert config.echo == EchoSettings(1, -2, 5.0, 1e-3, 1e-3)
        assert (config.k_max, config.dt, config.t_end) == (8, 0.02, 12.5)

    def test_echo_modes_must_fit_the_band(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = echo_experiment\n\n[echo]\nl = 7\nforce_mode = 5\n",
        )
        probs = problems_of(path)
        assert any("response mode" in p for p in probs)

    def test_sweep_nus_parse_with_spaces(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = collision_sweep\n\n[sweep]\nnus = 1e-3 , 1e-2\n",
        )
        config = parse_config(path)
        assert config.sweep_nus == (1e-3, 1e-2)

    def test_mode_above_k_max_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_LANDAU + "[perturbation]\nmode = 5\n")
        assert any(p.startswith("perturbation.mode") for p in problems_of(path))

    def test_phase_budget_checked_at_parse_time(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = linear_landau\n\n[profile]\nthermal_speed = 1\n\n"
            "[time]\ndt = 0.2\nt_end = 40\n\n[grid]\nk_max = 4\n",
        )
        probs = problems_of(path)
        assert any("phase budget" in p for p in probs)

    def test_two_stream_profile_components(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = stability_scan\n\n"
            "[profile]\nkind = sum_of_maxwellians\ncomponents = 0.5:-1:0.4, 0.5:1:0.4\n",
        )
        config = parse_config(path)
        assert config.run.profile.components == ((0.5, -1.0, 0.4), (0.5, 1.0, 0.4))
        bad = write_config(
            tmp_path,
            "[scenario]\nname = stability_scan\n\n"
            "[profile]\nkind = sum_of_maxwellians\ncomponents = 0.5:0:1, 0.3:0:2\n",
            "bad.ini",
        )
        assert any("sum to 1" in p for p in problems_of(bad))

    def test_free_transport_requires_free_flight(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = free_transport_check\nnu = 0.1\n\n"
            "[interaction]\nkind = power_law\n",
        )
        probs = problems_of(path)
        joined = "\n".join(probs)
        assert "interaction.kind" in joined and "scenario.nu" in joined

    def test_force_scenario_beats_the_file(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_LANDAU)
        config = parse_config(path, force_scenario="stability_scan")
        assert config.scenario == "stability_scan"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_parses_from_its_defaults(self, tmp_path, scenario):
        config = parse_config(write_config(tmp_path, f"[scenario]\nname = {scenario}\n"))
        assert config.scenario == scenario
        assert isinstance(config.run, KineticRun)
        assert config.run.n_steps == round(config.t_end / config.dt)


ECHO = "[scenario]\nname = echo_experiment\n\n[echo]\n"
SWEEP = "[scenario]\nname = collision_sweep\n\n[sweep]\n"
KERNEL = "[scenario]\nname = kernel_bounds\n\n"
MIXTURE = "[scenario]\nname = stability_scan\n\n[profile]\nkind = sum_of_maxwellians\n"

# config text -> prefix of one reported problem (the reason, for a ParseError)
PROBLEM_TABLE = [
    (MINIMAL_LANDAU + "nu = abc\n", "scenario.nu: not a number"),
    (MINIMAL_LANDAU + "nu = inf\n", "scenario.nu: must be finite"),
    (MINIMAL_LANDAU + "[grid]\nk_max = 2.5\n", "grid.k_max: not an integer"),
    (MINIMAL_LANDAU + "seed = -1\n", "scenario.seed: must be >= 0"),
    (MINIMAL_LANDAU + "[profile]\nkind = kappa\n", "profile.kind: unknown kind"),
    (MINIMAL_LANDAU + "[profile]\nthermal_speed = 0\n", "profile.thermal_speed: must be > 0"),
    (MINIMAL_LANDAU + "[interaction]\nkind = yukawa\n", "interaction.kind: unknown kind"),
    (MINIMAL_LANDAU + "[interaction]\nsign = 2\n", "interaction.sign: must be 1 or -1"),
    (MINIMAL_LANDAU + "[interaction]\namplitude = 0\n", "interaction.amplitude: must lie in (0, 1]"),
    (MINIMAL_LANDAU + "[interaction]\namplitude = 1.5\n", "interaction.amplitude: must lie in (0, 1]"),
    (MINIMAL_LANDAU + "[interaction]\nkind = zero\ngamma = 3\n",
     "interaction.gamma: only applies to kind = power_law"),
    (MINIMAL_LANDAU + "[perturbation]\nshape = odd\n", "perturbation.shape: unknown shape"),
    (MINIMAL_LANDAU + "[outputs]\ncadence = 0\n", "outputs.cadence: must be >= 1"),
    (MINIMAL_LANDAU + "[time]\ndt = 0\n", "time.dt: must be > 0"),
    (MINIMAL_LANDAU + "[time]\nt_end = 0.01\n", "time.t_end: must cover at least one step"),
    (MINIMAL_LANDAU + "[profile]\ncomponents = 1:0:1\n",
     "profile.components: only applies to kind = sum_of_maxwellians"),
    (MIXTURE + "thermal_speed = 1\ncomponents = 1:0:1\n",
     "profile.thermal_speed: only applies to kind = maxwellian"),
    (MIXTURE + "components = 1:0\n", "profile.components: '1:0' is not weight:center:spread"),
    (MIXTURE + "components = 1:x:1\n", "profile.components: not a number"),
    (MIXTURE + "components = 1:0:-1\n", "profile.components: '1:0:-1' needs weight > 0"),
    (MIXTURE + "components = nan:0:1\n", "profile.components: must be finite"),
    (MIXTURE + "components = ,\n", "profile.components: at least one"),
    (ECHO + "l = 0\n", "echo.l: seed mode must lie in 1..grid.k_max"),
    (ECHO + "force_mode = 0\n", "echo.force_mode: must be nonzero"),
    (ECHO + "s_force = -1\n", "echo.s_force: must be > 0"),
    (ECHO + "s_force = 20\n", "echo.s_force: must land before time.t_end"),
    (ECHO + "s_force = 5.001\n", "echo.s_force: must sit on the step grid"),
    (ECHO + "s_force = 7\n", "echo.s_force: the echo it launches arrives at t* = 14, after"),
    (ECHO + "eps1 = 0\n", "echo.eps1: seed amplitude must be > 0"),
    (ECHO + "eps2 = -1\n", "echo.eps2: forcing amplitude must be >= 0"),
    (SWEEP + "nus = 1e-3, a\n", "sweep.nus: not a number"),
    (SWEEP + "nus = nan, 1e-3\n", "sweep.nus: must be finite"),
    (SWEEP + "nus = 0, 1e-3\n", "sweep.nus: entries must be > 0"),
    (SWEEP + "nus = ,\n", "sweep.nus: needs at least one collision frequency"),
    (SWEEP + "nus = 1e-3, 0.001\n", "sweep.nus: entries must be distinct"),
    (KERNEL + "[kernel]\nalpha = 1\n", "kernel.alpha: must lie in (0, 1)"),
    (KERNEL + "[kernel]\ncases = 0\n", "kernel.cases: must lie in 1..100000"),
    (KERNEL + "[time]\nt_end = 0.5\n", "time.t_end: kernel_bounds samples times"),
    (MINIMAL_LANDAU + "[scenario]\nnu = 0\n", "duplicate section"),
    (MINIMAL_LANDAU + "just words\n", "not a key = value line"),
]


@pytest.mark.parametrize(
    "text, prefix", PROBLEM_TABLE, ids=[prefix for _, prefix in PROBLEM_TABLE]
)
def test_config_problem_is_reported(tmp_path, text, prefix):
    path = write_config(tmp_path, text)
    with pytest.raises((ParseError, ValidationError)) as info:
        parse_config(path)
    err = info.value
    problems = err.problems if isinstance(err, ValidationError) else [err.reason]
    assert any(p.startswith(prefix) for p in problems), problems


# config text -> every problem it reports, in full (in any order)
FULL_PROBLEMS = [
    (
        "[scenario]\nname = linear_landau\nnu = -1\nseed = x\n\n"
        "[profile]\nthermal_speed = 0\ncomponents = 1:0:1\n\n"
        "[interaction]\ngamma = 0.5\namplitude = 2\nsign = 2\n\n"
        "[perturbation]\nmode = 0\namplitude = -1\nshape = odd\n\n"
        "[grid]\nk_max = 0\nn_v = 7\nv_max = -1\nn_x = 3\n\n"
        "[time]\ndt = 0\nt_end = inf\n\n"
        "[outputs]\ndirectory =\ncadence = 0\n\n"
        "[mystery]\nx = 1\n\n"
        "[echo]\nl = 1\n",
        [
            "grid.n_x: unknown key",
            "[mystery]: unknown section",
            "[echo]: section only applies to scenario echo_experiment",
            "profile.thermal_speed: must be > 0",
            "profile.components: only applies to kind = sum_of_maxwellians",
            "interaction.gamma: must exceed 1 for a summable potential",
            "interaction.amplitude: must lie in (0, 1] (the decay bound)",
            "interaction.sign: must be 1 or -1",
            "scenario.nu: collision frequency must be >= 0",
            "scenario.seed: not an integer: 'x'",
            "perturbation.mode: must be >= 1",
            "perturbation.amplitude: must be >= 0",
            "perturbation.shape: unknown shape 'odd' (density, velocity)",
            "grid.k_max: must be >= 1",
            "grid.n_v: must be an even integer >= 8",
            "grid.v_max: must be > 0 (or auto)",
            "time.t_end: must be finite, got 'inf'",
            "time.dt: must be > 0",
            "outputs.directory: must be non-empty",
            "outputs.cadence: must be >= 1",
        ],
    ),
    (
        "[scenario]\nname = echo_experiment\n\n"
        "[grid]\nk_max = 3\nv_max = 40\n\n"
        "[time]\nt_end = 4.01\n\n"
        "[echo]\nl = 4\nforce_mode = 0\ns_force = 6\neps1 = 0\neps2 = -1\n",
        [
            "time.t_end: must be an integer number of steps of dt",
            (
                "time.dt: dt * k_max * v_max = 2.4 exceeds the splitting phase budget 2; "
                "shrink dt or the grid"
            ),
            "echo.l: seed mode must lie in 1..grid.k_max",
            "echo.force_mode: must be nonzero with |force_mode| <= grid.k_max",
            "echo.s_force: must land before time.t_end",
            "echo.eps1: seed amplitude must be > 0",
            "echo.eps2: forcing amplitude must be >= 0",
        ],
    ),
    (
        "[scenario]\nname = echo_experiment\n\n"
        "[echo]\nl = 7\nforce_mode = 5\ns_force = 5.001\n",
        [
            "echo.force_mode: the response mode l + force_mode must fit inside the retained band",
            "echo.s_force: must sit on the step grid",
        ],
    ),
    (
        "[scenario]\nname = free_transport_check\nnu = 0.1\n\n"
        "[interaction]\nkind = power_law\n\n"
        "[perturbation]\nmode = 3\n",
        [
            "perturbation.mode: must not exceed grid.k_max",
            (
                "interaction.kind: free_transport_check compares against free flight "
                "and needs kind = zero"
            ),
            "scenario.nu: free_transport_check needs nu = 0",
        ],
    ),
    (
        "[scenario]\nname = collision_sweep\n\n"
        "[sweep]\nnus = 0, a, nan, 1e-3, 0.001\n\n"
        "[kernel]\nalpha = 1\n",
        [
            "[kernel]: section only applies to scenario kernel_bounds",
            "sweep.nus: entries must be > 0 (nu = 0 is the reference)",
            "sweep.nus: not a number: 'a'",
            "sweep.nus: must be finite, got 'nan'",
            "sweep.nus: entries must be distinct",
        ],
    ),
    (
        "[scenario]\nname = kernel_bounds\nseed = -2\n\n"
        "[kernel]\nalpha = 1\ncases = 0\n\n"
        "[time]\nt_end = 0.5\ndt = 0.25\n",
        [
            "scenario.seed: must be >= 0",
            "kernel.alpha: must lie in (0, 1)",
            "kernel.cases: must lie in 1..100000",
            "time.t_end: kernel_bounds samples times in [0.5, t_end] and needs t_end > 0.5",
        ],
    ),
    (
        "[scenario]\nname = stability_scan\n\n"
        "[profile]\nkind = sum_of_maxwellians\nthermal_speed = 1\n"
        "components = 1:0, 1:x:1, 1:0:-1, nan:0:1, 0.5:0:1\n\n"
        "[interaction]\nkind = zero\ngamma = 3\n",
        [
            "profile.thermal_speed: only applies to kind = maxwellian",
            "profile.components: '1:0' is not weight:center:spread",
            "profile.components: not a number: 'x'",
            "profile.components: '1:0:-1' needs weight > 0 and spread > 0",
            "profile.components: must be finite, got 'nan'",
            "profile.components: weights must sum to 1",
            "interaction.gamma: only applies to kind = power_law",
        ],
    ),
    (
        "[scenario]\nname = stability_scan\n\n"
        "[profile]\nkind = kappa\ncomponents = 1:0:1\n\n"
        "[interaction]\nkind = yukawa\n",
        [
            "profile.kind: unknown kind 'kappa' (maxwellian, sum_of_maxwellians)",
            "interaction.kind: unknown kind 'yukawa' (power_law, zero)",
        ],
    ),
    (
        "[grid]\nk_max = 2\n\n"
        "[mystery]\nx = 1\n",
        [
            "scenario.name: required ([scenario] section with a name key)",
            "[mystery]: unknown section",
        ],
    ),
    (
        "[scenario]\nname = linear_landau\n\n"
        "[time]\nt_end = 0.01\n\n"
        "[profile]\nkind = sum_of_maxwellians\ncomponents = ,\n",
        [
            "profile.components: at least one weight:center:spread triple",
            "time.t_end: must cover at least one step",
        ],
    ),
    (
        "[scenario]\nname = collision_sweep\n\n"
        "[sweep]\nnus = ,\n",
        [
            "sweep.nus: needs at least one collision frequency",
        ],
    ),
    (
        "[scenario]\nname = landau\n\n"
        "[mystery]\nx = 1\n\n"
        "[grid]\nk_max = 2\n",
        [
            (
                "scenario.name: unknown scenario 'landau' (known: linear_landau, "
                "collision_sweep, echo_experiment, kernel_bounds, norm_battery, "
                "free_transport_check, stability_scan)"
            ),
            "[mystery]: unknown section",
        ],
    ),
]


@pytest.mark.parametrize("text, expected", FULL_PROBLEMS, ids=[
    "per_key_bounds", "echo_keys", "echo_band", "free_flight", "sweep_list", "kernel_keys",
    "mixture_components", "unknown_kinds", "no_scenario", "short_run", "empty_sweep",
    "unknown_scenario",
])
def test_problem_messages_are_reported_in_full(tmp_path, text, expected):
    assert sorted(problems_of(write_config(tmp_path, text))) == sorted(expected)


# Each rule of a model, run or probe value is stated once, beside its object.
# One row per rule: (config text with one bad key, the config's problem, a
# call of the API object with the same bad value, the object's problem). The
# texts are the same rule's text under the key's label and under the field's
# name.
_RUN_OK = dict(profile=VelocityProfile.maxwellian(1.0), interaction=Interaction.power_law(2.0),
               nu=0.0, dt=0.05, t_end=1.0, k_max=4, n_v=64)
_STATE = kinetic.equilibrium_state(VelocityProfile.maxwellian(1.0), 2, 64)


def _probe(l=1, force_mode=-2, s_force=5.0, eps1=1e-3, eps2=1e-3):
    return lambda: kinetic.echo_traces(battery.ECHO_CONFIG, l, force_mode, s_force, [(eps1, eps2)])


def _state(**change):
    return lambda: kinetic.PhaseState(**{**dict(rows=np.zeros((3, 64)), time=0.0, k_max=2,
                                                 v_max=1.0), **change})


SHARED_RULES = [
    (MINIMAL_LANDAU + "nu = -1\n", "scenario.nu: collision frequency must be >= 0",
     lambda: KineticRun(**{**_RUN_OK, "nu": -1.0}), "nu: collision frequency must be >= 0"),
    (MINIMAL_LANDAU + "nu = -1\n", "scenario.nu: collision frequency must be >= 0",
     lambda: kinetic.step(_STATE, 0.05, Interaction.zero(), VelocityProfile.maxwellian(1.0), -1.0),
     "nu: collision frequency must be >= 0"),
    (MINIMAL_LANDAU + "nu = -1\n", "scenario.nu: collision frequency must be >= 0",
     lambda: lintheory.dispersion_L(0.1, 1, -1.0, VelocityProfile.maxwellian(1.0),
                                    Interaction.power_law(2.0)),
     "nu: collision frequency must be >= 0"),
    (MINIMAL_LANDAU + "[time]\ndt = 0\n", "time.dt: must be > 0",
     lambda: KineticRun(**{**_RUN_OK, "dt": 0.0}), "dt: must be > 0"),
    (MINIMAL_LANDAU + "[time]\nt_end = 0.01\n", "time.t_end: must cover at least one step",
     lambda: KineticRun(**{**_RUN_OK, "t_end": 0.01}), "t_end: must cover at least one step"),
    (MINIMAL_LANDAU + "[time]\nt_end = 45.02\n",
     "time.t_end: must be an integer number of steps of dt",
     lambda: KineticRun(**{**_RUN_OK, "t_end": 1.02}),
     "t_end: must be an integer number of steps of dt"),
    (MINIMAL_LANDAU + "[grid]\nk_max = 0\n", "grid.k_max: must be >= 1",
     lambda: KineticRun(**{**_RUN_OK, "k_max": 0}), "k_max: must be >= 1"),
    (MINIMAL_LANDAU + "[grid]\nk_max = 0\n", "grid.k_max: must be >= 1",
     _state(k_max=0, rows=np.zeros((1, 64))), "k_max: must be >= 1"),
    (MINIMAL_LANDAU + "[grid]\nn_v = 6\n", "grid.n_v: must be an even integer >= 8",
     lambda: KineticRun(**{**_RUN_OK, "n_v": 6}), "n_v: must be an even integer >= 8"),
    (MINIMAL_LANDAU + "[grid]\nn_v = 6\n", "grid.n_v: must be an even integer >= 8",
     _state(rows=np.zeros((3, 6))), "n_v: must be an even integer >= 8"),
    (MINIMAL_LANDAU + "[grid]\nv_max = -1\n", "grid.v_max: must be > 0 (or auto)",
     lambda: KineticRun(**{**_RUN_OK, "v_max": -1.0}), "v_max: must be > 0 (or auto)"),
    (MINIMAL_LANDAU + "[grid]\nv_max = -1\n", "grid.v_max: must be > 0 (or auto)",
     _state(v_max=-1.0), "v_max: must be > 0 (or auto)"),
    (MINIMAL_LANDAU + "[perturbation]\nmode = 0\n", "perturbation.mode: must be >= 1",
     lambda: kinetic.perturb_density(_STATE, VelocityProfile.maxwellian(1.0), 0, 1e-3),
     "k: must be >= 1"),
    (MINIMAL_LANDAU + "[perturbation]\nmode = 5\n", "perturbation.mode: must not exceed grid.k_max",
     lambda: KineticRun(**{**_RUN_OK, "k_pert": 5}), "k_pert: must not exceed k_max"),
    (MINIMAL_LANDAU + "[perturbation]\nshape = odd\n",
     "perturbation.shape: unknown shape 'odd' (density, velocity)",
     lambda: KineticRun(**{**_RUN_OK, "pert_shape": "odd"}),
     "pert_shape: unknown shape 'odd' (density, velocity)"),
    (MINIMAL_LANDAU + "[perturbation]\namplitude = -1\n", "perturbation.amplitude: must be >= 0",
     lambda: KineticRun(**{**_RUN_OK, "amplitude": -1.0}), "amplitude: must be >= 0"),
    (MINIMAL_LANDAU + "[outputs]\ncadence = 0\n", "outputs.cadence: must be >= 1",
     lambda: KineticRun(**{**_RUN_OK, "record_every": 0}), "record_every: must be >= 1"),
    (MINIMAL_LANDAU + "[profile]\nthermal_speed = 1\n\n[time]\ndt = 0.2\nt_end = 40\n",
     "time.dt: dt * k_max * v_max = 4.8 exceeds the splitting phase budget 2; shrink dt or the grid",
     lambda: kinetic.step(kinetic.equilibrium_state(VelocityProfile.maxwellian(1.0), 4, 64), 0.2,
                          Interaction.zero(), VelocityProfile.maxwellian(1.0), 0.0),
     "dt: dt * k_max * v_max = 4.8 exceeds the splitting phase budget 2; shrink dt or the grid"),
    (MINIMAL_LANDAU + "[profile]\nthermal_speed = 0\n", "profile.thermal_speed: must be > 0",
     lambda: VelocityProfile.maxwellian(0.0), "thermal_speed: must be > 0"),
    (MIXTURE + "components = 1:0:-1, 0.5:0:1, 0.5:1:1\n",
     "profile.components: '1:0:-1' needs weight > 0 and spread > 0",
     lambda: VelocityProfile(((1.0, 0.0, -1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 1.0))),
     "components: '1:0:-1' needs weight > 0 and spread > 0"),
    (MIXTURE + "components = 0.5:0:1, 0.3:0:2\n", "profile.components: weights must sum to 1",
     lambda: VelocityProfile(((0.5, 0.0, 1.0), (0.3, 0.0, 2.0))),
     "components: weights must sum to 1"),
    (MINIMAL_LANDAU + "[interaction]\nkind = yukawa\n",
     "interaction.kind: unknown kind 'yukawa' (power_law, zero)",
     lambda: Interaction(kind="yukawa"), "kind: unknown kind 'yukawa' (power_law, zero)"),
    (MINIMAL_LANDAU + "[interaction]\ngamma = 1\n",
     "interaction.gamma: must exceed 1 for a summable potential",
     lambda: Interaction.power_law(1.0), "gamma: must exceed 1 for a summable potential"),
    (MINIMAL_LANDAU + "[interaction]\ngamma = 1\n",
     "interaction.gamma: must exceed 1 for a summable potential",
     lambda: echo.EchoKernelSpec(alpha=0.5, gamma=1.0),
     "gamma: must exceed 1 for a summable potential"),
    (MINIMAL_LANDAU + "[interaction]\namplitude = 0\n",
     "interaction.amplitude: must lie in (0, 1] (the decay bound)",
     lambda: Interaction.power_law(2.0, 0.0), "amplitude: must lie in (0, 1] (the decay bound)"),
    (MINIMAL_LANDAU + "[interaction]\namplitude = 1.5\n",
     "interaction.amplitude: must lie in (0, 1] (the decay bound)",
     lambda: Interaction.power_law(2.0, 1.5), "amplitude: must lie in (0, 1] (the decay bound)"),
    (MINIMAL_LANDAU + "[interaction]\nsign = 2\n", "interaction.sign: must be 1 or -1",
     lambda: Interaction.power_law(2.0, 1.0, 2), "sign: must be 1 or -1"),
    (KERNEL + "[kernel]\nalpha = 1\n", "kernel.alpha: must lie in (0, 1)",
     lambda: echo.EchoKernelSpec(alpha=1.0, gamma=2.0), "alpha: must lie in (0, 1)"),
    (KERNEL + "[kernel]\nalpha = 1\n", "kernel.alpha: must lie in (0, 1)",
     lambda: echo.piecewise_integral_check(1, 1, 1.0, 1.0), "alpha: must lie in (0, 1)"),
    (ECHO + "l = 9\n", "echo.l: seed mode must lie in 1..grid.k_max",
     _probe(l=9), "l: seed mode must lie in 1..k_max"),
    (ECHO + "force_mode = 0\n", "echo.force_mode: must be nonzero with |force_mode| <= grid.k_max",
     _probe(force_mode=0), "force_mode: must be nonzero with |force_mode| <= k_max"),
    (ECHO + "l = 7\nforce_mode = 5\n",
     "echo.force_mode: the response mode l + force_mode must fit inside the retained band",
     _probe(l=7, force_mode=5),
     "force_mode: the response mode l + force_mode must fit inside the retained band"),
    (ECHO + "s_force = -1\n", "echo.s_force: must be > 0", _probe(s_force=-1.0),
     "s_force: must be > 0"),
    (ECHO + "s_force = 20\n", "echo.s_force: must land before time.t_end", _probe(s_force=20.0),
     "s_force: must land before t_end"),
    (ECHO + "s_force = 5.001\n", "echo.s_force: must sit on the step grid",
     _probe(s_force=5.001), "s_force: must sit on the step grid"),
    (ECHO + "s_force = 7\n",
     "echo.s_force: the echo it launches arrives at t* = 14, after time.t_end = 12.5",
     _probe(s_force=7.0), "s_force: the echo it launches arrives at t* = 14, after t_end = 12.5"),
    (ECHO + "eps1 = 0\n", "echo.eps1: seed amplitude must be > 0", _probe(eps1=0.0),
     "eps1: seed amplitude must be > 0"),
    (ECHO + "eps2 = -1\n", "echo.eps2: forcing amplitude must be >= 0", _probe(eps2=-1.0),
     "eps2: forcing amplitude must be >= 0"),
]


@pytest.mark.parametrize("text, problem, call, refusal", SHARED_RULES,
                         ids=[f"{i:02d} {refusal}" for i, (*_, refusal) in enumerate(SHARED_RULES)])
def test_each_shared_rule_is_one_rule_for_the_object_and_the_config(
        tmp_path, text, problem, call, refusal):
    assert problem in problems_of(write_config(tmp_path, text))
    with pytest.raises(VpkitError) as info:
        call()
    assert str(info.value) == refusal


def test_a_config_breaking_many_object_rules_lists_every_problem(tmp_path):
    text = (
        "[scenario]\nname = echo_experiment\nnu = -1\nseed = -1\n\n"
        "[profile]\nthermal_speed = 0\n\n[interaction]\namplitude = 1.5\nsign = 0\n\n"
        "[perturbation]\nshape = odd\n\n[grid]\nn_v = 6\n\n[outputs]\ncadence = 0\n\n"
        "[kernel]\nalpha = 2\n\n[echo]\nl = 0\ns_force = 5.001\neps2 = -1\n"
    )
    assert sorted(problems_of(write_config(tmp_path, text))) == sorted([
        "[kernel]: section only applies to scenario kernel_bounds",
        "scenario.nu: collision frequency must be >= 0",
        "scenario.seed: must be >= 0",
        "profile.thermal_speed: must be > 0",
        "interaction.amplitude: must lie in (0, 1] (the decay bound)",
        "interaction.sign: must be 1 or -1",
        "perturbation.shape: unknown shape 'odd' (density, velocity)",
        "grid.n_v: must be an even integer >= 8",
        "outputs.cadence: must be >= 1",
        "echo.l: seed mode must lie in 1..grid.k_max",
        "echo.s_force: must sit on the step grid",
        "echo.eps2: forcing amplitude must be >= 0",
    ])


def _run_config(text):
    def attempt(tmp_path):
        path = write_config(tmp_path, text)
        run_scenario(replace(parse_config(path), out_dir=str(tmp_path / "out")))
    return attempt


SCAN = "[scenario]\nname = stability_scan\n\n[grid]\nk_max = 2\n\n[profile]\n"


@pytest.mark.parametrize("attempt, error", [
    pytest.param(_run_config(SCAN + "thermal_speed = 1e200\n"), ConstraintViolation,
                 id="scan thermal_speed 1e200"),
    pytest.param(_run_config(SCAN + "thermal_speed = 1e-200\n"), ConstraintViolation,
                 id="scan thermal_speed 1e-200"),
    pytest.param(_run_config(MIXTURE + "components = nan:0:1\n"), ValidationError,
                 id="components weight nan"),
    pytest.param(_run_config(MIXTURE + "components = 1:0:inf\n"), ValidationError,
                 id="components spread inf"),
    pytest.param(_run_config(MIXTURE + "components = 1:inf:1\n"), ValidationError,
                 id="components center inf"),
    pytest.param(_run_config(SWEEP + "nus = nan, 1e-3\n"), ValidationError, id="sweep nu nan"),
    pytest.param(lambda _: Interaction.power_law(2.0, amplitude=float("nan")),
                 ConstraintViolation, id="interaction amplitude nan"),
    pytest.param(lambda _: VelocityProfile.maxwellian(float("inf")),
                 ConstraintViolation, id="profile thermal speed inf"),
])
def test_non_finite_model_is_refused_not_passed(tmp_path, attempt, error):
    # a stability scan over non-finite margins used to report kappa = inf
    with pytest.raises(error):
        attempt(tmp_path)


def test_kernel_table_with_an_underflowed_bound_fails_with_its_numbers(tmp_path, capsys):
    # near t = 241.5 the l = k = 8 case's exact bound exp(-alpha k t)(t/2 + t^2/8)
    # underflows to 0, which neither the gate nor the ratio column may divide by
    path = write_config(tmp_path, KERNEL + "[time]\nt_end = 261.5\n\n[kernel]\ncases = 128\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "FAIL quadrature_under_bound: cases=128  violations=0" in capsys.readouterr().out
    crit = json.loads((out / "report.json").read_text())["criteria"][0]
    assert crit["passed"] is False and crit["measured"]["zero_bounds"] == 1
    rows = (out / "kernel_table.csv").read_text().splitlines()
    assert [row for row in rows if row.endswith(",0,0,nan")] == [
        "8,8,0.5,241.54137170348554,0,0,nan"]


_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))
from vpkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_scan_past_its_sample_budget_exits_1_with_the_count(tmp_path):
    # spreads 0.0018 to 1.69 drive an unbudgeted pass along the real axis
    # to 7 million samples, a MemoryError under this cap: the pass must stop
    # at its budget before it allocates. Child process: capped and timed
    path = write_config(
        tmp_path, MIXTURE + "components = 0.3:0:0.0018, 0.4:0.5:1.69, 0.3:-0.2:0.042\n\n"
        "[interaction]\ngamma = 5.8\namplitude = 0.29\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "run", str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    assert done.stderr == (
        "error: [stability_scan] mode k = 1: the pass along the real axis needs 109841 "
        f"samples, past its budget of {lintheory.AXIS_SAMPLE_BUDGET}\n")


def test_amplitude_above_the_decay_bound_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_LANDAU + "[interaction]\namplitude = 2\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: interaction.amplitude: must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["linear_landau", "echo_experiment"])
def test_subnormal_dt_exits_2_with_a_grid_problem(tmp_path, capsys, scenario):
    # t_end / dt and s_force / dt overflow to inf; that is off the grid, not a crash
    path = write_config(tmp_path, f"[scenario]\nname = {scenario}\n\n[time]\ndt = 2e-320\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: time.t_end: must be an integer number of steps of dt" in err
    if scenario == "echo_experiment":
        assert "config error: echo.s_force: must sit on the step grid" in err


def test_echo_past_t_end_exits_2_without_a_report(tmp_path, capsys):
    # l = 1, force_mode = -2 kicked at s = 7 echoes at t* = 14, past the default t_end 12.5
    path = write_config(tmp_path, ECHO + "s_force = 7\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: echo.s_force: the echo it launches arrives at t* = 14, " \
        "after time.t_end = 12.5" in err
    assert not (out / "report.json").exists()


def test_echo_peak_window_past_t_end_exits_2_and_is_refused_before_any_march(
        tmp_path, capsys, monkeypatch):
    # kicked at s = 0.02, the echo arrives at t* = 0.04 = t_end, but the peak
    # is sought from s + 3 dt = 0.08 on, where the run holds no record
    path = write_config(tmp_path, ECHO + "s_force = 0.02\n\n[time]\nt_end = 0.04\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: echo.s_force: the echo's peak window opens at 0.08, after the last "
        "record at time.t_end = 0.04\n")
    assert not (out / "report.json").exists()
    monkeypatch.setattr(kinetic, "_march", lambda *args, **kwargs: pytest.fail("marched"))
    with pytest.raises(ConstraintViolation, match="s_force: the echo's peak window opens at "
                                                  "0.08, after the last record at t_end = 0.04"):
        kinetic.echo_traces(replace(battery.ECHO_CONFIG, t_end=0.04), 1, -2, 0.02,
                            [(1e-3, 1e-3)])


def test_main_exits_2_on_a_parse_error(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_LANDAU + "nu = 0\nnu = 1\n")
    assert main(["run", str(path)]) == 2
    assert "config error: line 4: scenario.nu: duplicate key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel-table", str(SHIPPED_CONFIGS / "kernel_table.ini"), "--seed", "-1"],
    ["run", str(SHIPPED_CONFIGS / "norm_battery.ini"), "--seed", "-3"],
])
def test_negative_seed_flag_is_a_config_error(tmp_path, capsys, argv):
    # the --seed override goes through the same check as the file's seed
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: scenario.seed: must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_echoed_in_the_report(tmp_path):
    path = write_config(tmp_path, "[scenario]\nname = kernel_bounds\n\n[kernel]\ncases = 3\n")
    out = tmp_path / "out"
    assert main(["kernel-table", str(path), "--out", str(out), "--seed", "4", "--quiet"]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["scenario"]["seed"] == "4"
    assert config["outputs"]["directory"] == str(out)


def test_main_exits_1_on_a_solver_refusal(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "[scenario]\nname = collision_sweep\n\n[profile]\nthermal_speed = 1\n\n"
        "[time]\ndt = 0.3\nt_end = 30\n",
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: [collision_sweep] ")


class TestRuns:
    def test_free_transport_run_passes_and_writes(self, tmp_path):
        path = write_config(tmp_path, FT_QUICK)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["history.csv", "report.json", "transport.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["scenario"] == "free_transport_check"

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, FT_QUICK)
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        a, b = outs
        for name in ("history.csv", "transport.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ha = json.loads((a / "report.json").read_text())["content_hash"]
        hb = json.loads((b / "report.json").read_text())["content_hash"]
        assert ha == hb

    def test_report_records_peak_rss_outside_the_hash(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, FT_QUICK)
        scale = 2.0**20 if sys.platform == "darwin" else 2.0**10  # ru_maxrss: bytes or KiB
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
        assert main(["run", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert sorted(report["peak_rss_mb"]) == ["children", "self"]
        assert before <= float(report["peak_rss_mb"]["self"]) <= after
        assert float(report["peak_rss_mb"]["children"]) >= 0.0
        monkeypatch.setitem(sys.modules, "resource", None)  # a platform without it
        assert main(["run", str(path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
        bare = json.loads((tmp_path / "b" / "report.json").read_text())
        assert bare["peak_rss_mb"] is None
        assert bare["content_hash"] == report["content_hash"]

    def test_report_manifest_matches_the_files(self, tmp_path):
        config = parse_config(write_config(tmp_path, FT_QUICK))
        config = replace(config, out_dir=str(tmp_path / "out"))
        report = run_scenario(config)
        hasher = hashlib.sha256()
        for entry in report.manifest:
            data = (tmp_path / "out" / entry["name"]).read_bytes()
            assert entry["bytes"] == len(data)
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            hasher.update(entry["name"].encode())
            hasher.update(b"\0")
            hasher.update(data)
        assert report.content_hash == hasher.hexdigest()
        assert all(e["name"] != "report.json" for e in report.manifest)
        echoed = report.config_echo
        assert echoed["scenario"]["name"] == "free_transport_check"

    def test_json_floats_are_17_digit_strings(self, tmp_path):
        path = write_config(tmp_path, FT_QUICK)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        drift = report["criteria"][1]["measured"]["relative_drift"]
        assert isinstance(drift, str)
        float(drift)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[scenario]\nname = linear_landau\nnu = -1\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: scenario.nu" in err

    def test_echo_refusal_is_graceful(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[scenario]\nname = echo_experiment\n\n[echo]\nl = 1\nforce_mode = 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "no future echo" in captured.out
        refusal = json.loads((out / "echo.json").read_text())
        assert "no future echo" in refusal["refusal"]

    def test_norm_battery_run_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = norm_battery\nseed = 5\n")
        blobs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
            blobs.append((out / "norms.csv").read_bytes())
        assert blobs[0] == blobs[1]
        text = blobs[0].decode()
        assert text.splitlines()[0] == "item,kind,cases,value,passed"
        assert "observed" in text

    def test_stability_scan_reports_positive_margin(self, tmp_path):
        path = write_config(
            tmp_path, "[scenario]\nname = stability_scan\n\n[grid]\nk_max = 2\n"
        )
        out = tmp_path / "out"
        assert main(["scan-stability", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        crit = report["criteria"][0]
        assert crit["name"] == "positive_stability_margin"
        assert float(crit["measured"]["kappa"]) > 0
        rows = (out / "stability.csv").read_text().splitlines()
        assert rows[0] == "k,margin,re_eta,im_eta"
        assert len(rows) == 3

    def test_kernel_table_seeded_and_sized(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = kernel_bounds\nseed = 11\n\n[kernel]\ncases = 25\n",
        )
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["kernel-table", str(path), "--out", str(out1), "--quiet"]) == 0
        assert main(["kernel-table", str(path), "--out", str(out2), "--quiet"]) == 0
        table1 = (out1 / "kernel_table.csv").read_bytes()
        assert table1 == (out2 / "kernel_table.csv").read_bytes()
        assert len(table1.decode().splitlines()) == 26
        assert main(
            ["kernel-table", str(path), "--out", str(out3), "--seed", "12", "--quiet"]
        ) == 0
        assert table1 != (out3 / "kernel_table.csv").read_bytes()

    def test_kernel_table_fails_on_phase_integrals_that_come_out_too_small(
        self, tmp_path, monkeypatch
    ):
        # halved values stay under every bound; the exact l = k cases catch them
        real = echo.piecewise_integral_check

        def halved(*args):
            numeric, bound = real(*args)
            return 0.5 * numeric, bound

        monkeypatch.setattr(echo, "piecewise_integral_check", halved)
        config = replace(parse_config(SHIPPED_CONFIGS / "kernel_table.ini"),
                         out_dir=str(tmp_path / "out"))
        report = run_scenario(config)
        assert not report.passed
        measured = report.criteria[0].measured
        assert measured["violations"] == 0
        assert measured["exact_cases"] == 9
        assert measured["exact_case_gap"] == pytest.approx(0.5)

    def test_kernel_table_gate_is_shared_with_criterion_7(self, tmp_path):
        config = replace(parse_config(SHIPPED_CONFIGS / "kernel_table.ini"),
                         out_dir=str(tmp_path / "out"))
        criterion = run_scenario(config).criteria[0]
        assert criterion.passed
        assert criterion.measured["exact_cases"] == 9
        assert criterion.measured["exact_case_gap"] <= 1e-12
        assert criterion.tolerance == (
            "numeric <= bound * (1 + 1e-12) on every case; "
            "exact_case_gap <= 1e-12 (|numeric/bound - 1| where l = k)"
        )
        # a table without an l = k case is held to the bound alone
        small = replace(config, kernel_cases=3, seed=4, out_dir=str(tmp_path / "small"))
        criterion = run_scenario(small).criteria[0]
        assert criterion.passed
        assert criterion.measured["exact_cases"] == 0

    def test_collision_sweep_decade_ratio(self, tmp_path):
        path = write_config(
            tmp_path,
            "[scenario]\nname = collision_sweep\n\n[sweep]\nnus = 1e-3, 1e-2\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert rows[0] == "nu,sup_diff"
        sups = [float(r.split(",")[1]) for r in rows[1:]]
        assert sups[1] / sups[0] >= 8.0

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "[scenario]\nname = norm_battery\n")
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("VPKIT_OUT", str(env_dir))
        assert main(["run", str(path), "--quiet"]) == 0
        assert (env_dir / "norms.csv").exists()
        flag_dir = tmp_path / "from_flag"
        assert main(["run", str(path), "--out", str(flag_dir), "--quiet"]) == 0
        assert (flag_dir / "norms.csv").exists()

    def test_linear_landau_run_matches_theory(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = linear_landau\nnu = 0.01\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        crit = report["criteria"][0]
        assert crit["name"] == "decay_matches_dispersion_root"
        assert float(crit["measured"]["gap"]) <= 0.05
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "t,k,re_rho,im_rho,abs_rho,re_E,im_E,abs_E"

    def test_linear_landau_without_a_fit_keeps_its_tolerance(self, tmp_path):
        # t_end = 2 leaves too few envelope peaks for the damping fit
        path = write_config(tmp_path, "[scenario]\nname = linear_landau\n\n[time]\nt_end = 2\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        crit = json.loads((out / "report.json").read_text())["criteria"][0]
        assert crit["name"] == "decay_matches_dispersion_root" and not crit["passed"]
        assert crit["measured"]["reason"].startswith("TooFewPeaks")
        assert crit["tolerance"] == "gap <= 0.05, rms < 0.05"

    def test_linear_landau_at_mode_two_matches_theory(self, tmp_path):
        # mode k decays at 2 pi |k| Im eta0: the k = 2 run decays at 0.361
        # per unit time, twice 2 pi Im eta0
        path = write_config(
            tmp_path,
            "[scenario]\nname = linear_landau\nnu = 0.01\n\n"
            "[perturbation]\nmode = 2\n\n[time]\nt_end = 25\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        crit = json.loads((out / "report.json").read_text())["criteria"][0]
        assert float(crit["measured"]["predicted"]) == pytest.approx(0.3612, abs=1e-4)
        assert float(crit["measured"]["gap"]) <= 0.05

    def test_shipped_linear_landau_ends_exactly_at_t_end(self, tmp_path):
        out = tmp_path / "out"
        path = SHIPPED_CONFIGS / "linear_landau.ini"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,mass,momentum,l2,edge_fraction"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows[-1][0] == 45.0  # t0 + n dt, not 44.999999999999581
        assert all(0.0 < row[4] < RESOLUTION_TOL for row in rows[1:])
        assert (out / "history.csv").read_text().splitlines()[-1].startswith("45,")
        crit = json.loads((out / "report.json").read_text())["criteria"][-1]
        assert crit["name"] == "ran_to_t_end" and crit["passed"]
        assert crit["measured"]["stop_reason"] == "t_end"
        assert float(crit["measured"]["stopped_at"]) == 45.0

    def test_truncated_landau_exits_1_and_names_the_cause(self, tmp_path, capsys):
        # n_v = 64: the resolution guard stops the march at t = 44.3 of 45
        text = (SHIPPED_CONFIGS / "linear_landau.ini").read_text()
        path = write_config(tmp_path, text.replace("n_v = 512", "n_v = 64"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        fail = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("FAIL ran_to_t_end")]
        assert len(fail) == 1
        assert "stop_reason=resolution_exceeded" in fail[0]
        assert "stopped_at=44.3 " in fail[0] and "t_end=45 " in fail[0]
        fraction = float(fail[0].split("edge_fraction=")[1].split()[0])
        assert fraction > RESOLUTION_TOL

    def test_echo_guard_trip_is_a_failed_criterion(self, tmp_path, capsys):
        # the seed mode's filament reaches the edge of a 128-point grid near t = 5
        path = write_config(
            tmp_path,
            "[scenario]\nname = echo_experiment\n\n[grid]\nn_v = 128\n\n"
            "[time]\nt_end = 6\n\n[echo]\ns_force = 2.5\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "FAIL ran_to_t_end: stop_reason=resolution_exceeded" in capsys.readouterr().out
        assert "refine the velocity grid" in json.loads((out / "echo.json").read_text())["refusal"]

    def test_echo_run_lands_on_time(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = echo_experiment\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        echo = json.loads((out / "echo.json").read_text())
        assert float(echo["t_predicted"]) == pytest.approx(10.0)
        offset = abs(float(echo["t_measured"]) - 10.0) / 10.0
        assert offset <= 0.05


_COLD_PROBE = """
import sys
from vpkit import cli
code = cli.main(sys.argv[1:] + ["--quiet"]) if sys.argv[1:] else 0
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
      sorted(name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules))
"""


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """The import of vpkit.cli, each shipped config's run and the whole
    battery, each in a fresh interpreter: (output root, [(args, stdout)]).

    BLAS is pinned to one thread, so each interpreter runs a single thread
    and marches side by side where it can (kinetic._side_by_side); the
    in-process tests cover the serial path."""
    root = tmp_path_factory.mktemp("cold")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    configs = sorted(SHIPPED_CONFIGS.glob("*.ini"))
    assert len(configs) == 7
    runs = [[]] + [["run", str(c), "--out", str(root / c.stem)] for c in configs]
    runs.append(["acceptance", "all", "--out", str(root / "acceptance")])
    done = [
        (args, subprocess.run([sys.executable, "-c", _COLD_PROBE, *args], env=env,
                              capture_output=True, text=True, timeout=300, check=True).stdout)
        for args in runs
    ]
    return root, done


def test_cold_cli_loads_no_scipy(cold_runs):
    # no shipped config and no acceptance criterion needs scipy, and the
    # marches made side by side need no process pool: the import of
    # vpkit.cli, each config's run and the whole battery, each in a fresh
    # interpreter, leave no scipy, multiprocessing or concurrent.futures
    # module loaded
    root, done = cold_runs
    for args, stdout in done:
        assert stdout.splitlines()[-1] == "0 [] []", (args, stdout)
    for c in SHIPPED_CONFIGS.glob("*.ini"):
        assert (root / c.stem / "report.json").exists()
    assert (root / "acceptance" / "acceptance_summary.csv").exists()


# The content hash and manifest of each shipped config's run, keyed by the
# config's stem, and the lines of acceptance_summary.csv. An output that moves
# on purpose is re-pinned here in the same change, so the diff shows it.
GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())


def scenario_mismatches(out: Path, stem: str) -> list:
    """How the run written to out departs from the golden outputs of config
    stem: its content hash, then each file whose (bytes, sha256) moved, or
    that is new or missing."""
    want = GOLDEN["scenarios"][stem]
    report = json.loads((out / "report.json").read_text())
    moved = []
    if report["content_hash"] != want["content_hash"]:
        moved.append(f"{stem}: content hash {want['content_hash'][:12]} -> "
                     f"{report['content_hash'][:12]}")
    pinned = {name: (size, digest) for name, size, digest in want["files"]}
    got = {e["name"]: (e["bytes"], e["sha256"]) for e in report["files"]}
    for name in sorted(pinned.keys() | got.keys()):
        if pinned.get(name) != got.get(name):
            moved.append(f"{stem}/{name}: {pinned.get(name)} -> {got.get(name)}")
    return moved


def _summary_fields(lines) -> dict:
    """{(index, name, field): value} over the summary rows: the passed column
    and each key=value of the detail column."""
    fields = {}
    for line in lines[1:]:
        index, name, passed, detail = line.split(",", 3)
        fields[(index, name, "passed")] = passed
        for item in detail.split(";"):
            key, _, value = item.partition("=")
            fields[(index, name, key)] = value
    return fields


def summary_mismatches(text: str) -> list:
    """Each field of an acceptance_summary.csv that moved from the golden
    summary, old -> new (None where the field is new or gone)."""
    lines, want = text.splitlines(), GOLDEN["acceptance_summary_csv"]
    old, new = _summary_fields(want), _summary_fields(lines)
    moved = [
        f"acceptance_summary.csv {' '.join(key)}: {old.get(key)} -> {new.get(key)}"
        for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)
    ]
    if lines[:1] != want[:1] or (not moved and lines != want):
        moved.append("acceptance_summary.csv: header or row order moved")
    return moved


def test_outputs_match_the_golden_file(cold_runs):
    root, _ = cold_runs
    assert sorted(GOLDEN["scenarios"]) == sorted(c.stem for c in SHIPPED_CONFIGS.glob("*.ini"))
    moved = [line for stem in GOLDEN["scenarios"] for line in scenario_mismatches(root / stem, stem)]
    moved += summary_mismatches((root / "acceptance" / "acceptance_summary.csv").read_text())
    assert moved == [], "\n".join(moved)


def test_golden_check_names_the_files_a_lie_split_step_moves(tmp_path, monkeypatch):
    real = kinetic._advance

    def lie_split(plan, src, f, work, external=None):
        np.multiply(src, plan.half * plan.half, out=f)  # the whole transport before the kick
        real(plan._replace(half=1.0), f, f, work, external)

    monkeypatch.setattr(kinetic, "_advance", lie_split)
    config = parse_config(SHIPPED_CONFIGS / "linear_landau.ini")
    run_scenario(replace(config, out_dir=str(tmp_path)))
    moved = scenario_mismatches(tmp_path, "linear_landau")
    assert moved[0].startswith("linear_landau: content hash c315892ff50f -> ")
    assert [line.split(":")[0] for line in moved[1:]] == [
        "linear_landau/diagnostics.csv", "linear_landau/history.csv"]


def test_summary_check_names_each_moved_field():
    lines = list(GOLDEN["acceptance_summary_csv"])
    lines[9] = lines[9].replace("arrival_offset=", "arrival_offset=1", 1)
    moved = summary_mismatches("\n".join(lines) + "\n")
    assert len(moved) == 1
    assert moved[0].startswith("acceptance_summary.csv 9 plasma_echo_arrival arrival_offset: ")
    assert summary_mismatches("\n".join(GOLDEN["acceptance_summary_csv"]) + "\n") == []


def test_src_never_names_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    hits = [
        f"{path.name}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "scipy" in line
    ]
    assert hits == []


HISTORY_HEADER = ["t", "k", "re_rho", "im_rho", "abs_rho", "re_E", "im_E", "abs_E"]


def history_rows(hist):
    """The row-by-row reference: every value through _cell, the moduli from
    abs() of each complex scalar."""
    return [
        [float(t), int(k), rho.real, rho.imag, abs(rho), e.real, e.imag, abs(e)]
        for t, rho_row, e_row in zip(hist.times, hist.rho_hat, hist.e_hat)
        for k, rho, e in zip(hist.modes, rho_row, e_row)
    ]


def synthetic_history(n_records, k_max, seed=0):
    """A history of random density modes, with no march behind it."""
    rng = np.random.default_rng(seed)
    shape = (n_records, 2 * k_max + 1)
    rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FieldHistory(
        0.05 * np.arange(1, n_records + 1), np.arange(-k_max, k_max + 1), rho, Interaction()
    )


def test_history_csv_matches_the_per_cell_writer():
    # the column writer against the row-by-row reference
    hist, _ = run(parse_config(SHIPPED_CONFIGS / "linear_landau.ini").run)
    rows = history_rows(hist)
    assert len(rows) == 8109
    assert b"".join(_history_csv(hist)) == _csv_bytes(HISTORY_HEADER, rows)


class TestChunkBoundaries:
    """Chunked tables join to the bytes of the one-piece writer _csv_bytes."""

    def test_history_of_a_partial_last_block(self):
        per_chunk = cli._CSV_BLOCK_ROWS // 33
        hist = synthetic_history(2 * per_chunk + 5, k_max=16)
        chunks = list(_history_csv(hist))
        assert len(chunks) == 4  # the header, two full blocks and five records
        assert b"".join(chunks) == _csv_bytes(HISTORY_HEADER, history_rows(hist))

    def test_one_record_blocks(self, monkeypatch):
        # a block narrower than one record still holds one whole record
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)
        hist = synthetic_history(3, k_max=4)
        chunks = list(_history_csv(hist))
        assert len(chunks) == 4
        assert b"".join(chunks) == _csv_bytes(HISTORY_HEADER, history_rows(hist))

    def test_columns_across_blocks(self):
        rng = np.random.default_rng(1)
        columns = {"t": np.arange(2 * cli._CSV_BLOCK_ROWS + 3) * 0.1,
                   "x": rng.standard_normal(2 * cli._CSV_BLOCK_ROWS + 3)}
        chunks = list(_columns_csv(columns))
        assert len(chunks) == 4
        rows = [[float(t), float(x)] for t, x in zip(columns["t"], columns["x"])]
        assert b"".join(chunks) == _csv_bytes(["t", "x"], rows)

    def test_table_with_no_rows_is_its_header(self):
        empty = np.zeros(0)
        table = b"".join(_columns_csv({"t": empty, "x": empty}))
        assert table == _csv_bytes(["t", "x"], []) == b"t,x\n"


def test_history_writer_memory_does_not_grow_with_the_history():
    hist = synthetic_history(2000, k_max=16)
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in _history_csv(hist))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written > 8e6
    assert peak < 2e6


def test_a_failing_chunk_leaves_no_file_and_no_report(tmp_path, monkeypatch):
    def failing_history(hist):
        chunks = _history_csv(hist)
        yield next(chunks)
        raise ConstraintViolation("second chunk refused")

    monkeypatch.setattr(cli, "_history_csv", failing_history)
    out = tmp_path / "out"
    config = replace(parse_config(SHIPPED_CONFIGS / "linear_landau.ini"), out_dir=str(out))
    with pytest.raises(ConstraintViolation) as info:
        run_scenario(config)
    assert str(info.value).startswith("[linear_landau] second chunk refused")
    assert not (out / "history.csv").exists()
    assert not (out / "report.json").exists()
    assert (out / "diagnostics.csv").exists()  # written in full before history.csv


class TestAcceptanceCommand:
    def test_norm_suite_passes_and_writes_summary(self, tmp_path):
        out = tmp_path / "acc"
        assert main(["acceptance", "norm_battery", "--out", str(out), "--quiet"]) == 0
        first = (out / "acceptance_summary.csv").read_bytes()
        assert first.decode().splitlines()[0] == "index,name,passed,detail"
        assert main(["acceptance", "norm_battery", "--out", str(out), "--quiet"]) == 0
        assert first == (out / "acceptance_summary.csv").read_bytes()
        report = json.loads((out / "acceptance_report.json").read_text())
        assert report["suite"] == "norm_battery"
        assert [r["index"] for r in report["criteria"]] == [10]
        assert float(report["peak_rss_mb"]["self"]) > 0.0  # outside the summary CSV

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["acceptance", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_acceptance_api_rejects_unknown_suite(self):
        with pytest.raises(ValidationError):
            acceptance("nonsense")


def _measured(config_path, tmp_path):
    """Run a config file and return {criterion name: measured values}."""
    config = replace(parse_config(config_path), out_dir=str(tmp_path / "out"))
    report = run_scenario(config)
    assert report.passed
    return {c.name: c.measured for c in report.criteria}


class TestSharedWithBattery:
    """Scenario runs and battery criteria built on one definition agree exactly."""

    def test_collision_sweep_matches_criterion_5(self, tmp_path):
        measured = _measured(SHIPPED_CONFIGS / "collision_sweep.ini", tmp_path)
        sups = measured["deviation_shrinks_with_nu"]
        crit = battery.criterion_5().measured
        for nu, label in ((1e-2, "1e-2"), (1e-3, "1e-3"), (1e-4, "1e-4")):
            assert sups[f"sup_diff_nu{nu:g}"] == crit[f"sup_diff_nu{label}"]

    def test_norm_battery_matches_criterion_10(self, tmp_path):
        measured = _measured(SHIPPED_CONFIGS / "norm_battery.ini", tmp_path)
        crit = battery.criterion_10().measured
        for item in ("i", "ii", "viii", "viiii", "iX"):
            assert measured[f"norm_item_{item}"]["max_slack"] == crit[f"slack_{item}"]

    @pytest.mark.parametrize("stem, name", [
        ("echo", "ECHO"), ("collision_sweep", "SWEEP"), ("linear_landau", "LANDAU"),
    ])
    def test_shipped_config_parses_to_the_battery_scenario(self, stem, name):
        scenario = getattr(battery, name)
        config = parse_config(SHIPPED_CONFIGS / f"{stem}.ini")
        if stem == "linear_landau":  # the battery sets nu itself
            config = replace(config, run=replace(config.run, nu=0.0))
        assert replace(config, out_dir=scenario.out_dir) == scenario

    @pytest.mark.parametrize("gate, config, scenario_criterion, criterion", [
        ("MASS_DRIFT_TOL", "free_transport", "mass_conserved", battery.criterion_3),
        ("EXACT_SHIFT_TOL", "free_transport", "matches_exact_shift", battery.criterion_1),
        ("DECADE_RATIO_MIN", "collision_sweep", "decade_ratio_at_least_", battery.criterion_5),
    ])
    def test_a_failing_gate_fails_the_scenario_and_the_criterion(
        self, tmp_path, monkeypatch, gate, config, scenario_criterion, criterion
    ):
        # one threshold no measurement can meet: a drift or error below 0, a
        # decade ratio of 1e9
        monkeypatch.setattr(battery, gate, 1e9 if gate == "DECADE_RATIO_MIN" else 0.0)
        config = replace(parse_config(SHIPPED_CONFIGS / f"{config}.ini"),
                         out_dir=str(tmp_path / "out"))
        (failed,) = [c.name for c in run_scenario(config).criteria if not c.passed]
        assert failed.startswith(scenario_criterion)  # the decade gate names its ratio
        assert not criterion().passed

    def test_default_free_transport_matches_criterion_1(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = free_transport_check\n")
        measured = _measured(path, tmp_path)["matches_exact_shift"]
        crit = battery.criterion_1().measured
        assert measured["max_trace_error"] == crit["trace_error"]
        for key in ("guard_peak", "guard_trip_time"):
            assert measured[key] == crit[key]


CONFIG_ALPHABET = string.ascii_lowercase + string.digits + "[]=._- \n#;:"


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=CONFIG_ALPHABET, max_size=300))
    def test_arbitrary_text_never_escapes_typed_errors(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.ini"
        path.write_text(text)
        try:
            config = parse_config(path)
        except (ParseError, ValidationError):
            return
        assert isinstance(config, SimConfig)

    @settings(
        max_examples=70, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        scenario=st.sampled_from(SCENARIOS),
        dt=st.sampled_from(["0.01", "0.02", "0.05", "0.1"]),
        n_steps=st.integers(min_value=10, max_value=400),
        k_max=st.integers(min_value=1, max_value=4),
        n_v=st.sampled_from([8, 16, 64, 256]),
        vth=st.sampled_from(["0.05", "0.2", "0.5"]),
        nu=st.sampled_from(["0", "1e-3", "0.02"]),
        mode=st.integers(min_value=1, max_value=4),
        cadence=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_accepted_configs_satisfy_solver_guards(
        self, tmp_path, scenario, dt, n_steps, k_max, n_v, vth, nu, mode, cadence, seed
    ):
        t_end = format(n_steps * float(dt), ".17g")
        body = (
            f"[scenario]\nname = {scenario}\nnu = {nu}\nseed = {seed}\n\n"
            f"[profile]\nthermal_speed = {vth}\n\n"
            f"[perturbation]\nmode = {min(mode, k_max)}\n\n"
            f"[grid]\nk_max = {k_max}\nn_v = {n_v}\n\n"
            f"[time]\ndt = {dt}\nt_end = {t_end}\n\n"
            f"[outputs]\ncadence = {cadence}\n"
        )
        path = tmp_path / f"gen{seed % 7}.ini"
        path.write_text(body)
        try:
            config = parse_config(path)
        except ValidationError:
            # only these three scenarios have rules (free flight; the echo
            # band, forcing time and wider v_max; the kernel window) that can
            # refuse these keys, and the other four accept every draw
            assert scenario in ("free_transport_check", "echo_experiment", "kernel_bounds")
            return
        assert isinstance(config.run, KineticRun)
        assert config.run.n_steps == n_steps


def test_scenario_list_is_closed():
    assert set(SCENARIOS) == {
        "linear_landau", "collision_sweep", "echo_experiment", "kernel_bounds",
        "norm_battery", "free_transport_check", "stability_scan",
    }
    from vpkit.cli import _WORKERS
    assert set(_WORKERS) == set(SCENARIOS)


def test_wrapped_errors_carry_the_scenario_name(tmp_path):
    path = write_config(
        tmp_path,
        "[scenario]\nname = collision_sweep\n\n[profile]\nthermal_speed = 1\n\n"
        "[time]\ndt = 0.3\nt_end = 30\n\n[outputs]\ndirectory = "
        + str(tmp_path / "out") + "\n",
    )
    config = parse_config(path)
    with pytest.raises(VpkitError, match=r"\[collision_sweep\]"):
        run_scenario(config)


def test_readme_documents_every_config_key():
    # the README's key table restates the schema: one row per key, with the
    # defaults the table gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    rows = {
        line.split("|")[1].strip(): line.split("|")[3].strip()
        for line in block.splitlines() if line.startswith("| `")
    }
    assert set(rows) == {f"`{sec}.{key}`" for sec, key, *_ in _KEYS}
    for sec, key, _, default in _KEYS:
        if default is None:
            expected = "none"
        elif isinstance(default, str):
            expected = f"`{default}`"
        else:
            expected = "; ".join(
                f"`{text}`" if name is None else f"{name}: `{text}`"
                for name, text in default.items()
            )
        assert rows[f"`{sec}.{key}`"] == expected, (sec, key)
