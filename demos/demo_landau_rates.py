"""Three independent routes to the Landau damping rate, side by side.

The k = 1 field mode of a cold Maxwellian decays exponentially. This script
measures the rate three ways that share no code path:

  dispersion   root of 1 - L(eta) in the upper half-plane, rate = 2 pi |k| Im eta
  volterra     envelope fit on the closed density-equation march
  kinetic      envelope fit on the full nonlinear solver at tiny amplitude

and prints the spread. Collisions (nu > 0) steepen all three rates together.

Run:  python3 demos/demo_landau_rates.py   (about ten seconds)
"""

from vpkit.acceptance import unit_density
from vpkit.kinetic import KineticRun, run
from vpkit.lintheory import VolterraKernel, damping_rate_fit, dispersion_rate
from vpkit.profiles import Interaction, VelocityProfile

PROFILE = VelocityProfile.maxwellian(0.05)
COUPLING = Interaction.power_law(2.0, amplitude=1.0, sign=1)
WINDOW = (4.0, 42.0)  # fit window: past the transient, before the noise floor


def rate_from_dispersion(nu):
    return dispersion_rate(VolterraKernel(nu=nu, k=1, profile=PROFILE, interaction=COUPLING))


def rate_from_volterra(nu):
    hist = unit_density(PROFILE, COUPLING, nu, 1, 60.0, 0.02)
    rate, _, _ = damping_rate_fit(hist, WINDOW)
    return -rate


def rate_from_kinetic(nu):
    hist, _ = run(KineticRun(
        profile=PROFILE, interaction=COUPLING, nu=nu, dt=0.05, t_end=45.0,
        k_pert=1, amplitude=1e-5, k_max=4, n_v=512,
    ))
    trace = (hist.times, hist.rho_hat[:, hist.k_max + 1])
    rate, _, _ = damping_rate_fit(trace, WINDOW)
    return -rate


print(f"{'nu':>6s}  {'dispersion':>11s}  {'volterra':>11s}  {'kinetic':>11s}  {'spread':>8s}")
for nu in (0.0, 1e-2):
    rates = [rate_from_dispersion(nu), rate_from_volterra(nu), rate_from_kinetic(nu)]
    spread = (max(rates) - min(rates)) / min(rates)
    print(f"{nu:6g}  {rates[0]:11.7f}  {rates[1]:11.7f}  {rates[2]:11.7f}  {spread:8.2e}")

print()
print("All three routes agree to a fraction of a percent; collisional drag")
print("adds to the collisionless rate rather than replacing it.")
