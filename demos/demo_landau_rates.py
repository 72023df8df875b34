"""Three independent routes to the Landau damping rate, side by side.

The k = 1 field mode of a cold Maxwellian decays exponentially. Acceptance
criterion 4 measures the rate three ways that share no code path:

  dispersion   root of 1 - L(eta) in the upper half-plane, rate = 2 pi |k| Im eta
  volterra     envelope fit on the closed density-equation march
  kinetic      envelope fit on the full nonlinear solver at tiny amplitude

This script prints the criterion's measured rates and their spread.
Collisions (nu > 0) steepen all three rates together.

Run:  python3 demos/demo_landau_rates.py   (under a second)
"""

from vpkit.acceptance import criterion_4

measured = criterion_4().measured
print(f"{'nu':>6s}  {'dispersion':>11s}  {'volterra':>11s}  {'kinetic':>11s}  {'spread':>8s}")
for nu in (0.0, 1e-2):
    rates = [measured[f"{route}_nu{nu:g}"] for route in ("dispersion", "volterra", "kinetic")]
    spread = (max(rates) - min(rates)) / min(rates)
    print(f"{nu:6g}  {rates[0]:11.7f}  {rates[1]:11.7f}  {rates[2]:11.7f}  {spread:8.2e}")

print()
print("All three routes agree to a fraction of a percent; collisional drag")
print("adds to the collisionless rate rather than replacing it.")
