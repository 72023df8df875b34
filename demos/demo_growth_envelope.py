"""Certified growth control for a weighted density mode.

Take a collisional Landau run, multiply the density by the analytic weight
e^{2 pi (lam t + mu)}, and the result phi must obey three nested statements:

  hypothesis   phi solves its own integral inequality step by step
  crude bound  |phi| <= 2A exp(C (...t + t^2...)), valid but enormous
  envelope     the calibrated bound C A ... e^{nu t}, tight enough to use

growth_verify reports, for each, its largest ratio to the bound on a grid of
times; here all three hold with room to spare, and the script prints how much.

Run:  python3 demos/demo_growth_envelope.py   (about a second)
"""

from vpkit.acceptance import PROFILE_SHIPPED, REPULSIVE, growth_scenario
from vpkit.echo import growth_envelope, growth_verify
from vpkit.lintheory import stability_scan

# criterion 11's scenario: the weighted density series phi = (times, values),
# the Volterra kernel its hypothesis convolves against, the resonance kernel,
# and the growth constants with the source bound A
phi, k0_series, spec, params = growth_scenario()
times, values = phi

# the stability margin is what makes any of this possible
scan = stability_scan((1, 4), params.nu_env, PROFILE_SHIPPED, REPULSIVE)
print(f"stability margin kappa = {scan.kappa:.4f} "
      f"(worst mode k = {scan.worst_mode})")

report = growth_verify(phi, k0_series, spec, params)
print()
print(f"source bound A = {params.A:.4f}, checked at {len(report.checked_indices)} times")
print(f"  hypothesis ratio  {report.max_hypothesis_ratio:.4f}  "
      f"(tightest at t = {report.worst_hypothesis_time:g})")
print(f"  crude-bound ratio {report.max_crude_ratio:.2e}")
print(f"  envelope ratio    {report.max_envelope_ratio:.2e}")

print()
print("envelope vs. measured weighted density:")
for t in (0.0, 5.0, 10.0, 20.0):
    bound = growth_envelope(params, spec, t)
    i = int(round(t / (times[1] - times[0])))
    print(f"  t = {t:4g}   |phi| = {abs(values[i]):9.4f}   envelope = {bound:12.1f}")

print()
print("The envelope exceeds the series by orders of magnitude by design: it")
print("is a certificate, and the point is that it never crosses, not that")
print("it hugs the curve.")
