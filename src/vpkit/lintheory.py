"""Linear response of the collisional transport model.

The density mode rho_hat(t, k) of the linearized dynamics obeys a scalar
Volterra equation with memory kernel

    K_nu(t, k) = exp(-nu*t) * f0_hat(k*t) * (nu - W_hat(k) * k^2 * t),

and the Laplace-side dispersion function of that kernel decides stability: a
margin |1 - L| >= kappa > 0 over the closed lower frequency half-plane rules
out growing modes, while the root of 1 - L in the upper half-plane gives the
decay rate 2*pi*|k|*Im(eta0) and oscillation frequency 2*pi*|k|*Re(eta0) of
the density. This module houses the kernel, the marching solver for the
density history, mode reconstruction from the density, the dispersion
function (Faddeeva-function closed form) and the decay rate of its root, the
stability margin, the single-particle free-streaming response forms, and a
peak-envelope decay-rate fitter.

Everything here runs on numpy alone: the Faddeeva function is Weideman's
rational approximation (_faddeeva), the dispersion root a damped Newton
iteration, and the stability margin one pass along the real axis per mode
(_axis_pass). The tests hold each to an independent oracle: a 30-digit
Faddeeva function, direct quadrature of L, a reference root finder, and a
dense real-axis scan with a reference minimizer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConstraintViolation,
    MarginNonPositive,
    StepTooCoarse,
    TooFewPeaks,
    broken,
    refuse,
)
from .profiles import (
    NU_RULE,
    Interaction,
    VelocityProfile,
    interaction_hat,
    profile_fourier,
    profile_sample_dv,
)

__all__ = [
    "VolterraKernel",
    "DensityHistory",
    "StabilityReport",
    "volterra_solve",
    "mode_reconstruct",
    "dispersion_L",
    "dispersion_rate",
    "stability_scan",
    "free_streaming_response",
    "damping_rate_fit",
]


def _kernel_values(nu, k, profile, interaction, times):
    """Closed-form kernel samples exp(-nu t) f0_hat(kt) (nu - W_hat(k) k^2 t)."""
    times = np.asarray(times, dtype=float)
    what = interaction_hat(interaction, k)
    fh = profile_fourier(profile, k * times)
    return np.exp(-nu * times) * fh * (nu - what * k * k * times)


@dataclass(frozen=True, eq=False)
class VolterraKernel:
    """Memory kernel of the closed density equation, cached on a time grid.

    The cache holds closed-form samples at times 0, dt, ..., horizon, the
    grid the marching solver runs on.
    """

    nu: float
    k: int
    profile: VelocityProfile
    interaction: Interaction
    dt: float = 0.02
    horizon: float = 60.0
    times: np.ndarray = field(init=False, repr=False)
    samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        refuse(broken((NU_RULE,), {"nu": self.nu}))
        if int(self.k) != self.k:
            raise ConstraintViolation("mode k must be an integer")
        if self.dt <= 0 or self.horizon <= 0:
            raise ConstraintViolation("kernel sampling needs dt > 0 and horizon > 0")
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "horizon", float(self.horizon))
        n = int(round(self.horizon / self.dt))
        times = np.arange(n + 1) * self.dt
        object.__setattr__(self, "times", times)
        # a spread that squares out of float range makes inf * 0 at t = 0
        with np.errstate(invalid="ignore", over="ignore"):
            samples = _kernel_values(self.nu, self.k, self.profile, self.interaction, times)
        if not np.all(np.isfinite(samples)):
            raise ConstraintViolation(f"the kernel of {self.profile} has non-finite samples")
        object.__setattr__(self, "samples", samples)

    @property
    def velocity_scale(self) -> float:
        """Phase scale of the kernel oscillation: RMS spread plus drift."""
        drift = max(abs(c) for _, c, _ in self.profile.components)
        return self.profile.thermal_speed + drift


@dataclass(frozen=True, eq=False)
class DensityHistory:
    """Density mode rho_hat(t, k) on a uniform time grid."""

    k: int
    times: np.ndarray
    rho_hat: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        rho = np.asarray(self.rho_hat, dtype=complex)
        if times.ndim != 1 or times.shape != rho.shape or times.size < 1:
            raise ConstraintViolation("times and rho_hat must be matching 1-d arrays")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho_hat", rho)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises if t is not a grid point."""
        if self.times.size == 1:
            i = 0
        else:
            i = int(round((float(t) - float(self.times[0])) / self.dt))
        if i < 0 or i >= self.times.size or abs(self.times[i] - t) > 1e-9 * max(1.0, self.dt):
            raise ConstraintViolation(f"time {t!r} is not on the history grid")
        return i


def volterra_solve(f0_trace, kern: VolterraKernel) -> DensityHistory:
    """March the closed density equation of mode kern.k over the kernel's
    own grid kern.times = 0, dt, ..., horizon.

    f0_trace(times) must return the initial-data trace fhat_0(k, k*t) at
    every entry of the array of march times, as an array of their shape (it
    is called once, on the whole grid). The update is the implicit
    product-trapezoid rule

        rho_n = (a_n + sum_{j<n} w_j K(t_n - t_j) rho_j) / (1 - dt/2 * K(0)),

    with a_n = exp(-nu t_n) f0_trace(t_n), K the kernel's cached samples and
    end weights dt/2: second order and deterministic given the kernel.
    """
    k, dt, times, kvals = kern.k, kern.dt, kern.times, kern.samples
    if dt * abs(k) * kern.velocity_scale >= 0.25:
        raise StepTooCoarse(
            f"dt={dt:g} does not resolve the kernel phase at k={k} "
            f"(velocity scale {kern.velocity_scale:.3g}): need dt*|k|*scale < 0.25"
        )
    a = np.array(f0_trace(times), dtype=complex)
    if a.shape != times.shape:
        raise ConstraintViolation(f"f0_trace must return one value per march time, not {a.shape}")
    a *= np.exp(-kern.nu * times)
    rho = np.zeros(times.size, dtype=complex)
    rho[0] = a[0]
    denom = 1.0 - 0.5 * dt * kvals[0]
    for m in range(1, times.size):
        conv = dt * np.dot(kvals[m:0:-1], rho[:m]) - 0.5 * dt * kvals[m] * rho[0]
        rho[m] = (a[m] + conv) / denom
    return DensityHistory(k=k, times=times, rho_hat=rho)


def mode_reconstruct(hist: DensityHistory, xi: float, t: float, kern: VolterraKernel, f0_hat):
    """Reconstruct fhat(t, k, xi) from the density history.

    f0_hat(eta) must return the initial-data transform fhat_0(k, eta) for the
    history's mode k. The time integral uses the same trapezoid weights as the
    solver, so xi = 0 reproduces the density history itself to rounding.
    """
    i = hist.index_of(t)
    k = hist.k
    nu = kern.nu
    what = interaction_hat(kern.interaction, k)
    free = np.exp(-nu * float(t)) * complex(f0_hat(xi + k * float(t)))
    if i == 0:
        return complex(free)
    s = hist.times[: i + 1]
    u = float(t) - s
    eta = xi + k * u
    w = np.full(i + 1, hist.dt)
    w[0] = w[-1] = 0.5 * hist.dt
    integrand = (
        np.exp(-nu * u)
        * (nu - k * eta * what)
        * profile_fourier(kern.profile, eta)
        * hist.rho_hat[: i + 1]
    )
    return complex(free + np.dot(w, integrand))


def _laplace_terms(eta, k, nu, profile):
    """Per-component (weight, a, b) of the transformed kernel exp(at - bt^2)."""
    base = 2j * math.pi * eta.conjugate() * abs(k) - nu
    return [
        (w, base - 2j * math.pi * c * k, 2.0 * math.pi**2 * s * s * k * k)
        for w, c, s in profile.components
    ]


# Weideman's rational approximation of the Faddeeva function w(z) =
# exp(-z^2) erfc(-iz) on the closed upper half-plane ("Computation of the
# complex error function", SIAM J. Numer. Anal. 31, 1994): with
# Z = (L + iz)/(L - iz),
#     w(z) ~ 2 p(Z)/(L - iz)^2 + (1/sqrt(pi))/(L - iz),
# p the degree N - 1 polynomial whose coefficients are the Fourier
# coefficients of exp(-t^2)(L^2 + t^2) at t = L tan(theta/2), one FFT.
_W_TERMS = 40
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2.0))
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


@lru_cache(maxsize=1)
def _weideman_coefficients():
    """p's coefficients, highest degree first (Weideman's cef.m), built on
    first use."""
    m = 2 * _W_TERMS
    t = _W_SCALE * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (_W_SCALE**2 + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return tuple(a[_W_TERMS:0:-1].tolist())


def _w_upper(x, y):
    """(Re, Im) of w(x + iy) for y >= 0, in real arithmetic only: the same
    operations in the same order whether x and y are floats or arrays, so
    the scalar and array paths of _faddeeva agree bit for bit."""
    u, v = _W_SCALE + y, _W_SCALE - y
    den = u * u + x * x
    dr, di = u / den, x / den  # 1/(L - iz)
    zr, zi = v * dr - x * di, v * di + x * dr  # Z
    leading, *rest = _weideman_coefficients()
    p_re, p_im = leading, 0.0
    for c in rest:
        p_re, p_im = p_re * zr - p_im * zi + c, p_re * zi + p_im * zr
    qr, qi = 2.0 * (p_re * dr - p_im * di) + _RSQRT_PI, 2.0 * (p_re * di + p_im * dr)
    return qr * dr - qi * di, qr * di + qi * dr


def _faddeeva(z):
    """Faddeeva function w(z), within 1e-14 relative of a 30-digit reference
    for |Re z| <= 30 and |Im z| <= 6 (tested). The lower half-plane uses
    w(z) = 2 exp(-z^2) - w(-z). A Python complex takes plain float
    arithmetic, about 5 us a call, and raises OverflowError where w is out
    of float range, as cmath.exp does; an array takes numpy (inf there),
    bit for bit the same values."""
    if isinstance(z, complex):
        x, y = z.real, z.imag
        if y >= 0.0:
            return complex(*_w_upper(x, y))
        wr, wi = _w_upper(-x, -y)
        e = cmath.exp(complex(y * y - x * x, -2.0 * x * y))
        return complex(2.0 * e.real - wr, 2.0 * e.imag - wi)
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0.0
    x = np.where(lower, -z.real, z.real)
    y = np.where(lower, -z.imag, z.imag)
    wr, wi = _w_upper(x, y)
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = wr, wi
    zl = z[lower]
    square = np.empty(zl.shape, dtype=complex)
    square.real = zl.imag * zl.imag - zl.real * zl.real
    square.imag = -2.0 * zl.real * zl.imag
    e = np.exp(square)
    out.real[lower] = 2.0 * e.real - wr[lower]
    out.imag[lower] = 2.0 * e.imag - wi[lower]
    return out


def _L_closed(eta, k, nu, profile, what, slope=False):
    """Faddeeva-function evaluation of the dispersion function.

    eta is a Python complex (plain float arithmetic) or an array. With
    slope, a scalar eta also gives dL/dzeta, zeta = conj(eta), on which L
    depends analytically: w'(u) = -2u w(u) + 2i/sqrt(pi).
    """
    total = dtotal = 0.0
    da = 2j * math.pi * abs(k)  # da/dzeta
    for w, a, b in _laplace_terms(eta, k, nu, profile):
        rb = math.sqrt(b)
        u = -1j * a / (2.0 * rb)
        wu = _faddeeva(u)
        i0 = math.sqrt(math.pi) / (2.0 * rb) * wu
        i1 = 1.0 / (2.0 * b) + (a / (2.0 * b)) * i0
        total += w * (nu * i0 - what * k * k * i1)
        if slope:
            di0 = math.sqrt(math.pi) / (2.0 * rb) * (2j * _RSQRT_PI - 2.0 * u * wu) * (
                math.pi * abs(k) / rb
            )
            di1 = (da * i0 + a * di0) / (2.0 * b)
            dtotal += w * (nu * di0 - what * k * k * di1)
    return (total, dtotal) if slope else total


def dispersion_L(eta, k: int, nu: float, profile: VelocityProfile, interaction: Interaction):
    """Laplace-side dispersion function of the memory kernel K_nu(t, k) of
    the model (profile, interaction).

    Evaluates

        L(eta, k) = int_0^inf exp(2 pi i conj(eta) |k| t) K_nu(t, k) dt.

    An extra weight exp(2 pi lambda |k| t) in the integrand is the frequency
    shift eta -> eta + i lambda, so a weighted L is this one evaluated there.
    Each Gaussian component contributes its closed form through the
    Faddeeva function; the tests hold it to direct quadrature.
    """
    k = int(k)
    refuse(broken((NU_RULE,), {"nu": nu}))
    if k == 0:
        # no phase and no field: the kernel is nu*exp(-nu t)
        return complex(1.0) if nu > 0 else complex(0.0)
    return complex(_L_closed(complex(eta), k, nu, profile, interaction_hat(interaction, k)))


# Residual |1 - L| at or below which the Newton iterate counts as a root.
ROOT_RESIDUAL_TOL = 1e-12
# Newton steps and, per step, halvings of a step that does not reduce |1 - L|.
_NEWTON_STEPS = 60
_NEWTON_HALVINGS = 30


def dispersion_rate(k: int, nu: float, profile: VelocityProfile,
                    interaction: Interaction) -> float:
    """Decay rate 2*pi*|k|*Im(eta0) of the density mode k of the model.

    eta0 is the root of 1 - L(eta, k) found by a damped Newton iteration in
    zeta = conj(eta), on which L is analytic, from the thermal resonance
    (Re eta = 3 v_th, Im eta = v_th / 4). A step is at most |zeta| / 2 long,
    so the iteration keeps to the root nearest its start; a step that does
    not reduce |1 - L| is halved; the iteration ends when the step reaches
    rounding or no halving helps. Raises MarginNonPositive when the residual
    |1 - L| there exceeds ROOT_RESIDUAL_TOL or the root found does not decay,
    and ConstraintViolation for k = 0, which carries no field.
    """
    if k == 0:
        raise ConstraintViolation("mode k = 0 carries no field and has no dispersion root")
    what = interaction_hat(interaction, k)

    def mismatch(zeta):
        try:
            val, slope = _L_closed(zeta.conjugate(), k, nu, profile, what, True)
        except OverflowError:
            return math.inf, 0j
        return 1.0 - val, -slope

    vth = profile.thermal_speed
    zeta = complex(3.0 * vth, -0.25 * vth)
    f, df = mismatch(zeta)
    steps = 0
    while steps < _NEWTON_STEPS and df != 0:
        step = f / df
        if not cmath.isfinite(step):
            break
        steps += 1
        if abs(step) > 0.5 * abs(zeta):
            step *= 0.5 * abs(zeta) / abs(step)
        if abs(step) <= 1e-15 * abs(zeta):
            zeta -= step
            break
        for _ in range(_NEWTON_HALVINGS):
            ft, dft = mismatch(zeta - step)
            if abs(ft) < abs(f):
                break
            step *= 0.5
        else:
            break
        zeta, f, df = zeta - step, ft, dft
    eta = zeta.conjugate()
    residual = abs(1.0 - dispersion_L(eta, k, nu, profile, interaction))
    if not residual <= ROOT_RESIDUAL_TOL or eta.imag <= 0:
        raise MarginNonPositive(
            f"no decaying dispersion root found for mode k = {k} "
            f"(residual {residual:.3e}, Im eta = {eta.imag:.6g}) "
            f"after {steps} Newton steps"
        )
    return 2.0 * math.pi * abs(k) * eta.imag


# Modes with |k| > SCAN_K_CUTOFF whose phase-dropped majorant keeps |L| small
# are bounded without a pass along the axis.
SCAN_K_CUTOFF = 8
# Axis samples per narrowest component spread, the rounds that refine each
# candidate minimum and the factor each narrows it by, and the margin below
# which 1 - L has a root.
_AXIS_PER_SPREAD = 8
_ZOOM_ROUNDS = 5
_ZOOM = 64
_ROOT_MARGIN = 1e-7
# Samples one axis pass may hold at once: about 50 times the 1,846 that the
# shipped config, the growth demo and the tests reach at most.
AXIS_SAMPLE_BUDGET = 100_000


def _phase_dropped_bounds(k, nu, profile, interaction):
    """(majorant, slope, tail) of L(., k) with every phase dropped, from the
    moments int_0^inf t^n exp(-b t^2) dt of each component, b = 2 pi^2 s^2 k^2:
    |L| <= majorant and |dL/dzeta| <= slope on the closed lower half-plane,
    and |L(x)| <= tail / |x| on the real axis (by parts in t, with K(0) = nu:
    tail = (nu + int |K'|) / (2 pi |k|)). A b out of float range raises
    ConstraintViolation."""
    q = abs(interaction_hat(interaction, k)) * k * k
    majorant = slope = variation = 0.0
    for w, c, s in profile.components:
        b = 2.0 * math.pi**2 * s * s * k * k
        if not 0.0 < b < math.inf:
            raise ConstraintViolation(
                f"mode k = {k}: spread {s!r} puts the kernel's Gaussian rate {b!r} out of range"
            )
        m0 = math.sqrt(math.pi) / (2.0 * math.sqrt(b))  # int exp(-b t^2)
        m1 = 1.0 / (2.0 * b)  # int t exp(-b t^2); int t^2 exp(-b t^2) = m0 m1
        bound = nu * m0 + q * m1
        majorant += w * bound
        slope += w * (nu * m1 + q * m0 * m1)
        # |K'| <= exp(-b t^2) ((nu + 2 pi |c k| + 2 b t)(nu + q t) + q), q = |W_hat| k^2
        variation += w * ((nu + 2.0 * math.pi * abs(c * k)) * bound + nu + 2.0 * q * m0)
    scale = 2.0 * math.pi * abs(k)
    return majorant, scale * slope, (nu + variation) / scale


def _axis_pass(k, nu, profile, interaction, slope, tail):
    """(winding, margin, x) of 1 - L(x, k) along the real axis.

    The samples sit at x = a sinh(j h / a), a = max |c| + 8 s over the
    components, h their narrowest spread / _AXIS_PER_SPREAD: spacing h
    where the resonances sit, growing like |x| beyond. They reach 2 tail,
    past which |L| <= 1/2 adds no winding, and tail / (1 - m) for the
    smallest sampled margin m < 1, past which |1 - L| >= m. A gap longer
    than max |1 - L| at its ends / (2 slope) is halved until none is, so
    1 - L turns by less than pi/6 across each and the principal arg
    differences sum to the exact winding. The pass stops halving once a
    sample's |1 - L| falls below _ROOT_MARGIN. The smallest sample, and
    every local minimum of the samples that the slope bound lets fall below
    it, is refined by _ZOOM_ROUNDS resamplings at 2 _ZOOM + 1 points from
    neighbour to neighbour, each round _ZOOM times narrower around the
    smallest. A sampling, halving or refinement that would hold more than
    AXIS_SAMPLE_BUDGET samples raises ConstraintViolation before it is made.
    """
    what = interaction_hat(interaction, k)

    def gap(x):
        return 1.0 - _L_closed(x + 0j, k, nu, profile, what)

    def afford(count):
        if count > AXIS_SAMPLE_BUDGET:
            raise ConstraintViolation(
                f"mode k = {k}: the pass along the real axis needs {count} samples, "
                f"past its budget of {AXIS_SAMPLE_BUDGET}"
            )

    core = max(abs(c) + 8.0 * s for _, c, s in profile.components)
    h = min(s for _, _, s in profile.components) / _AXIS_PER_SPREAD

    def sample(reach):
        n = math.ceil(core * math.asinh(reach / core) / h)
        afford(2 * n + 1)
        x = core * np.sinh(np.arange(-n, n + 1) * (h / core))
        return x, gap(x)

    x, f = sample(max(core, 2.0 * tail))
    m = float(np.min(np.abs(f)))
    if m < 1.0 and tail / (1.0 - m) > x[-1]:
        x, f = sample(tail / (1.0 - m))
    while True:
        size = np.abs(f)
        if not np.all(np.isfinite(size)):
            raise ConstraintViolation(f"mode k = {k}: |1 - L| on the real axis is not finite")
        if size.min() < _ROOT_MARGIN:
            break
        long = np.flatnonzero(2.0 * slope * np.diff(x) > np.maximum(size[:-1], size[1:]))
        if long.size == 0:
            break
        afford(x.size + long.size)
        mid = 0.5 * (x[long] + x[long + 1])
        x, f = np.insert(x, long + 1, mid), np.insert(f, long + 1, gap(mid))
    turn = np.angle(f[0]) + np.sum(np.angle(f[1:] / f[:-1])) - np.angle(f[-1])
    dips = ((size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
            & (size[1:-1] - slope * (x[2:] - x[:-2]) < size.min()))
    dips[np.argmin(size[1:-1])] = True
    i = np.flatnonzero(dips) + 1
    at, width = x[i], np.maximum(x[i + 1] - x[i], x[i] - x[i - 1])
    afford(at.size * (2 * _ZOOM + 1))
    for _ in range(_ZOOM_ROUNDS):
        t = at[:, None] + width[:, None] * np.linspace(-1.0, 1.0, 2 * _ZOOM + 1)
        v = np.abs(gap(t))
        at, width = t[np.arange(at.size), np.argmin(v, axis=1)], width / _ZOOM
    m0, x0 = v.flat[np.argmin(v)], t.flat[np.argmin(v)]
    return round(turn / (2.0 * math.pi)), float(m0), float(x0)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Measured stability margin kappa = inf |1 - L| and where it occurs.

    scan["margins"] maps each scanned mode to (margin, Re eta, Im eta) at its
    minimum; scan["skipped_lower_bounds"] maps each mode bounded by its
    majorant alone to that lower bound on its margin.
    """

    kappa: float
    worst_mode: int
    worst_frequency: complex
    scan: dict

    def __post_init__(self):
        if self.kappa < 0:
            raise ConstraintViolation("stability margin must be >= 0")


def stability_scan(k_range, nu: float, profile: VelocityProfile,
                   interaction: Interaction) -> StabilityReport:
    """Measure kappa = inf over modes and the closed lower half-plane of
    |1 - L| for the model (profile, interaction) at collision frequency nu.

    k_range is an inclusive (k_min, k_max) interval of integer modes; k = 0
    carries no field and is skipped.

    1 - L is analytic in zeta = conj(eta) there and tends to 1 at infinity,
    so its winding along the real axis counts its zeros (Penrose 1960), and
    with none its infimum lies on the axis (_axis_pass). A nonzero winding
    or an axis margin below _ROOT_MARGIN raises MarginNonPositive: the
    configuration supports a non-decaying mode and downstream growth control
    must refuse it. Otherwise the margin is the axis minimum, at frequency
    (x, +0.0), or 1, the limit at infinity, at (inf, +0.0) where the axis
    minimum exceeds 1. A bound or margin that is not finite raises
    ConstraintViolation instead of being skipped.
    """
    kmin, kmax = int(k_range[0]), int(k_range[1])
    modes = [k for k in range(kmin, kmax + 1) if k != 0]
    if not modes:
        raise ConstraintViolation("k_range contains no nonzero modes")
    refuse(broken((NU_RULE,), {"nu": nu}))

    margins: dict[int, tuple[float, float, float]] = {}
    skipped: dict[int, float] = {}
    best = (math.inf, 0, 0j)
    for k in modes:
        bounds = _phase_dropped_bounds(k, nu, profile, interaction)
        if not all(map(math.isfinite, bounds)):
            raise ConstraintViolation(f"mode k = {k}: |L| bounds {bounds!r} are not finite")
        majorant, slope, tail = bounds
        if abs(k) > SCAN_K_CUTOFF and majorant <= 0.5:
            margin = skipped[k] = 1.0 - majorant
            eta = 0j
        else:
            winding, margin, x = _axis_pass(k, nu, profile, interaction, slope, tail)
            if margin > 1.0:
                margin, x = 1.0, math.inf
            eta = complex(x, 0.0)
            margins[k] = (margin, x, 0.0)
            if winding or margin < _ROOT_MARGIN:
                raise MarginNonPositive(
                    f"1 - L winds {winding} time(s) along the real axis for mode k = {k} "
                    f"(margin {margin:.3e} at eta = {eta:.6g}): "
                    "configuration supports a non-decaying mode"
                )
        if margin < best[0]:
            best = (margin, k, eta)
    return StabilityReport(
        kappa=float(best[0]), worst_mode=int(best[1]), worst_frequency=best[2],
        scan={"margins": margins, "skipped_lower_bounds": skipped},
    )


def free_streaming_response(omega, k, v, nu, t0, t, profile: VelocityProfile, form: str = "averaged"):
    """Single-particle response of free streaming to an oscillating field.

    All forms share the prefactor -i f0'(v) and differ in the resonance
    factor built from delta = omega - k*v and s = t - t0:

    - "transient": (1 - exp(i delta s)) / delta, the finite-time response
      launched at t0; at the resonance delta = 0 it grows linearly in s.
    - "collisional": the transient damped by the survival factor exp(-nu s).
    - "averaged": 1 / (delta + i nu), the collision-time average of the
      collisional form with density nu exp(-nu s); the resonance is broadened
      to modulus 1/nu.

    omega, v, t0 and t broadcast against each other (the averaged form does
    not depend on t0 and t); scalars in, scalar out.
    """
    if k == 0:
        raise ConstraintViolation("free-streaming response needs k != 0")
    omega_arr = np.asarray(omega, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    delta = omega_arr - k * v_arr
    s = np.asarray(t, dtype=float) - np.asarray(t0, dtype=float)
    pref = -1j * profile_sample_dv(profile, v_arr)
    if form in ("transient", "collisional"):
        half = 0.5 * delta * s
        # (1 - exp(i delta s))/delta = -i s exp(i delta s / 2) sinc(delta s / 2)
        factor = -1j * s * np.exp(1j * half) * np.sinc(half / np.pi)
        if form == "collisional":
            factor = np.exp(-nu * s) * factor
    elif form == "averaged":
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 / (delta + 1j * nu)
    else:
        raise ConstraintViolation(f"unknown response form {form!r}")
    out = pref * factor
    if out.ndim == 0:
        return complex(out)
    return out


def parabolic_peak(times, values, i: int) -> tuple[float, float]:
    """Vertex (time, value) of the parabola through samples i-1, i, i+1.

    Falls back to sample i itself at either end of the series or where the
    three samples do not curve downward.
    """
    if 0 < i < len(times) - 1:
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            off = 0.5 * (y0 - y2) / denom
            h = 0.5 * (times[i + 1] - times[i - 1])
            return float(times[i] + off * h), float(y1 - 0.25 * (y0 - y2) * off)
    return float(times[i]), float(values[i])


def damping_rate_fit(series, window):
    """Fit an exponential envelope through the peaks of |series|.

    series is a DensityHistory or a (times, values) pair; window = (t_lo, t_hi)
    restricts which samples are used. Local maxima of log|value| are refined
    by a three-point parabola and a least-squares line through the refined
    peaks gives (rate, intercept, rms_residual), with rate the slope (negative
    means decay). Fewer than 8 peaks inside the window raises TooFewPeaks; a
    large residual flags an envelope that is not exponential.
    """
    if isinstance(series, DensityHistory):
        times, values = series.times, series.rho_hat
    else:
        times, values = series
        times = np.asarray(times, dtype=float)
        values = np.asarray(values)
    t_lo, t_hi = float(window[0]), float(window[1])
    with np.errstate(divide="ignore"):
        lv = np.log(np.abs(values))
    peak_t = []
    peak_l = []
    for i in range(1, len(times) - 1):
        if times[i] < t_lo or times[i] > t_hi:
            continue
        window_vals = lv[i - 1 : i + 2]
        if not np.all(np.isfinite(window_vals)):
            continue
        if not (lv[i] >= lv[i - 1] and lv[i] > lv[i + 1]):
            continue
        t_peak, l_peak = parabolic_peak(times, lv, i)
        peak_t.append(t_peak)
        peak_l.append(l_peak)
    if len(peak_t) < 8:
        raise TooFewPeaks(
            f"found {len(peak_t)} envelope peaks in [{t_lo:g}, {t_hi:g}], need >= 8"
        )
    coeffs, residuals, *_ = np.polyfit(peak_t, peak_l, 1, full=True)
    ssr = float(residuals[0]) if len(residuals) else 0.0
    rms = float(np.sqrt(ssr / len(peak_t)))
    return float(coeffs[0]), float(coeffs[1]), rms
