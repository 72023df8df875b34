"""Certified growth control for a weighted density mode.

Take a collisional Landau run, multiply the density by the analytic weight
e^{2 pi (lam t + mu)}, and the result phi must obey three nested statements:

  hypothesis   phi solves its own integral inequality step by step
  crude bound  |phi| <= 2A exp(C (...t + t^2...)), valid but enormous
  envelope     the calibrated bound C A ... e^{nu t}, tight enough to use

growth_verify checks all three on a grid of times and raises if any fails;
here they pass with room to spare, and the script prints how much.

Run:  python3 demos/demo_growth_envelope.py   (about five seconds)
"""

import numpy as np

from vpkit.acceptance import PROFILE_SHIPPED, REPULSIVE, unit_density
from vpkit.echo import EchoKernelSpec, GrowthParams, growth_envelope, growth_verify
from vpkit.lintheory import VolterraKernel, kernel_eval, stability_scan
from vpkit.profiles import profile_fourier

NU = 0.02
LAM, MU = 0.008, 0.1

# the stability margin is what makes any of this possible
scan = stability_scan(
    (1, 4), NU,
    lambda k: VolterraKernel(nu=NU, k=k, profile=PROFILE_SHIPPED,
                             interaction=REPULSIVE, dt=0.05, horizon=30.0),
)
print(f"stability margin kappa = {scan.kappa:.4f} "
      f"(worst mode k = {scan.worst_mode})")

# weighted density series from the closed linear march
hist = unit_density(PROFILE_SHIPPED, REPULSIVE, NU, 1, 20.0, 0.04)
times = np.asarray(hist.times)
weight = np.exp(2.0 * np.pi * (LAM * times + MU))
phi = np.asarray(hist.rho_hat) * weight
free = profile_fourier(PROFILE_SHIPPED, times) * np.exp(-NU * times) * weight
A = float(np.max(np.abs(free)))

# the weighted kernel the hypothesis convolves against
kern = VolterraKernel(nu=NU, k=1, profile=PROFILE_SHIPPED, interaction=REPULSIVE)
k0w = kernel_eval(kern, times) * np.exp(NU * times) * np.exp(2.0 * np.pi * LAM * times)

params = GrowthParams(
    A=A, c0=0.05, m=1.5, c=0.05, kappa=0.22, nu_env=NU,
    lambda0=0.02, lambda_weight=LAM, C0=1.1, C_W=1.0,
)
report = growth_verify(
    (times, phi), (k0w, EchoKernelSpec(alpha=0.5, gamma=2.0), 0.05, 1.5),
    A, params, n_checks=97,
)
print()
print(f"source bound A = {A:.4f}, checked at {len(report.checked_indices)} times")
print(f"  hypothesis ratio  {report.max_hypothesis_ratio:.4f}  "
      f"(tightest at t = {report.worst_hypothesis_time:g})")
print(f"  crude-bound ratio {report.max_crude_ratio:.2e}")
print(f"  envelope ratio    {report.max_envelope_ratio:.2e}")

print()
print("envelope vs. measured weighted density:")
for t in (0.0, 5.0, 10.0, 20.0):
    bound = growth_envelope(params, gamma=2.0, alpha=0.5, t=t)
    i = int(round(t / 0.04))
    print(f"  t = {t:4g}   |phi| = {abs(phi[i]):9.4f}   envelope = {bound:12.1f}")

print()
print("The envelope exceeds the series by orders of magnitude by design: it")
print("is a certificate, and the point is that it never crosses, not that")
print("it hugs the curve.")
