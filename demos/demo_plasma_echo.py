"""A plasma echo, timed and held to its second-order march.

A mode-1 density ripple phase-mixes until no field is visible. An impulsive
force at mode -2, applied at time s = 5 when the fluid looks quiet, beats
against the hidden filamentation and hands its energy to mode -1, whose
field then rises out of nothing at the crossing time t* = s (k - l) / k = 10.

The script marches the kicked run beside the same split step expanded to
second order in the two amplitudes (echo_probe, as `vpkit run` and the
battery do), checks the arrival time and the gap between the two, shows the
peak scaling linearly in each amplitude, and finishes with the refusal you
get when the mode pair cannot echo forward.

Run:  python3 demos/demo_plasma_echo.py   (about a second)
"""

from vpkit.acceptance import ECHO, ECHO_CONFIG, check_echo_oracle, echo_probe
from vpkit.echo import echo_time

# The echo_experiment scenario's defaults, as `vpkit run` and the battery use them.
L, FORCE, S = ECHO.echo.l, ECHO.echo.force_mode, ECHO.echo.s_force
EPS1, EPS2 = ECHO.echo.eps1, ECHO.echo.eps2


def probe(eps1, eps2):
    """One kicked run of the probe beside its second-order march."""
    return echo_probe(ECHO_CONFIG, L, FORCE, S, eps1, eps2)


report = probe(EPS1, EPS2)
offset = abs(report["t_measured"] - report["t_predicted"]) / report["t_predicted"]
gate = check_echo_oracle(report["oracle_gap"], report["peak_amp"], EPS2)
print(f"seed mode {L}, force mode {FORCE} at s = {S:g}  ->  response mode {L + FORCE}")
print(f"  predicted arrival t* = {report['t_predicted']:g}")
print(f"  measured peak at t  = {report['t_measured']:.4f}  (offset {offset:.2%})")
print(f"  peak 'echo' field   = {report['peak_amp']:.3e}")
print(f"  oracle gap          = {report['oracle_gap']:.2e} of the peak  [{gate.tolerance}]")

# The echo is a second-order effect: linear in the seed and in the kick.
print()
print(f"doubling the seed multiplies the peak by "
      f"{probe(2 * EPS1, EPS2)['peak_amp'] / report['peak_amp']:.3f}")
print(f"doubling the kick multiplies the peak by "
      f"{probe(EPS1, 2 * EPS2)['peak_amp'] / report['peak_amp']:.3f}")

# Same-sign pairs put the crossing in the past: no forward echo exists.
print()
same_sign = echo_time(1, 2, S)
print(f"echo_time(l=1, k=2, s={S:g}) -> {same_sign!r}  "
      "(the crossing lies before the kick, so the toolkit refuses the run)")
