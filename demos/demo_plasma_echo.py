"""A plasma echo, timed and controlled.

A mode-1 density ripple phase-mixes until no field is visible. An impulsive
force at mode -2, applied at time s = 5 when the fluid looks quiet, beats
against the hidden filamentation and hands its energy to mode -1, whose
field then rises out of nothing at the crossing time t* = s (k - l) / k = 10.

The script runs the kicked experiment against an unkicked baseline, checks
the arrival time, shows the peak scaling linearly in each amplitude, and
finishes with the refusal you get when the mode pair cannot echo forward.

Run:  python3 demos/demo_plasma_echo.py   (about four seconds)
"""

from vpkit.acceptance import ECHO, ECHO_CONFIG
from vpkit.echo import echo_time
from vpkit.kinetic import echo_report, echo_traces

# The echo_experiment scenario's defaults, as `vpkit run` and the battery use them.
L, FORCE, S = ECHO.echo.l, ECHO.echo.force_mode, ECHO.echo.s_force
EPS1, EPS2 = ECHO.echo.eps1, ECHO.echo.eps2
# Three kicked runs and their two unkicked baselines: 5 distinct runs from 2
# seeds, each seed's steps before the kick marched once.
base, quiet, seed2, quiet2, kick2 = echo_traces(
    ECHO_CONFIG, L, FORCE, S,
    [(EPS1, EPS2), (EPS1, 0.0), (2 * EPS1, EPS2), (2 * EPS1, 0.0), (EPS1, 2 * EPS2)],
)

report = echo_report(L, FORCE, S, base, quiet)
contrast = report.peak_amp / report.baseline_amp
print(f"seed mode {L}, force mode {FORCE} at s = {S:g}  ->  response mode {report.k}")
print(f"  predicted arrival t* = {report.t_predicted:g}")
print(f"  measured peak at t  = {report.t_measured:.4f}  "
      f"(offset {abs(report.rel_offset):.2%})")
print(f"  peak 'echo' field   = {report.peak_amp:.3e}")
print(f"  quiet baseline      = {report.baseline_amp:.3e}  "
      f"(contrast {contrast:.0f}x)")

# The echo is a second-order effect: linear in the seed and in the kick.
double_seed = echo_report(L, FORCE, S, seed2, quiet2)
double_kick = echo_report(L, FORCE, S, kick2, quiet)
print()
print(f"doubling the seed multiplies the peak by "
      f"{double_seed.peak_amp / report.peak_amp:.3f}")
print(f"doubling the kick multiplies the peak by "
      f"{double_kick.peak_amp / report.peak_amp:.3f}")

# Same-sign pairs put the crossing in the past: no forward echo exists.
print()
same_sign = echo_time(1, 2, S)
print(f"echo_time(l=1, k=2, s={S:g}) -> {same_sign!r}  "
      "(the crossing lies before the kick, so the toolkit refuses the run)")
