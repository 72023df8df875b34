"""Linear theory: kernel closed forms, Volterra marching, dispersion, fits.

Oracle strategy: kernel values are cross-checked against direct quadrature of
the velocity transform; the Faddeeva closed form of the dispersion function is
held to adaptive quadrature of its defining integral (quad_dispersion_L, kept
here as the oracle) and its Faddeeva function to mpmath at 30 digits; decay
rates from the Volterra march are compared against a root of 1 - L located by
an independent 2-d root finder (scipy's hybr), anchored to frozen values
computed offline, and to the classical Landau roots (a Newton root of the
plasma dispersion relation on scipy's wofz); the stability scan is held to a dense real-axis oracle
(np.unwrap for the winding, scipy's minimize_scalar for the minimum) on
seeded random mixtures.
"""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.optimize import root as scipy_root
from scipy.special import wofz

from vpkit import lintheory
from vpkit.errors import (
    ConstraintViolation,
    MarginNonPositive,
    StepTooCoarse,
    TooFewPeaks,
)
from vpkit.lintheory import (
    StabilityReport,
    VolterraKernel,
    damping_rate_fit,
    dispersion_L,
    dispersion_rate,
    free_streaming_response,
    mode_reconstruct,
    stability_scan,
    volterra_solve,
)
from vpkit.profiles import (
    Interaction,
    VelocityProfile,
    interaction_hat,
    profile_fourier,
    profile_sample,
)

# exp(-2*pi^2), the Maxwellian transform at eta=1 for unit thermal speed
FROZEN_DECAY_ETA1 = 2.675287991074243e-09
# L(0, 1) for Maxwellian v_th=1, repulsive gamma=2 amplitude=1, nu=0:
# -W_hat(1) * int_0^inf t exp(-2 pi^2 t^2) dt = -0.5/(4 pi^2)
FROZEN_L_AT_ZERO = -0.012665147955292222

# Shipped stable scenario: Maxwellian v_th = 0.05, repulsive gamma=2 amp=1.
# Root of 1 - L at k=1 located offline by an independent scan + polish.
VTH_SCEN = 0.05
ROOT_NU0 = 0.151115964053 + 0.011403601337j
RATE_NU0 = 0.0716509404  # 2*pi*Im(root)
RATE_NU001 = 0.0783614432
KAPPA_SCEN = 0.2242993  # refined minimum, confirmed by both dispersion routes

REPULSIVE = Interaction.power_law(2.0, amplitude=1.0, sign=1)
ATTRACTIVE = Interaction.power_law(2.0, amplitude=1.0, sign=-1)
SCEN_PROFILE = VelocityProfile.maxwellian(VTH_SCEN)


def scenario_kernel(nu=0.0, k=1, dt=0.02, horizon=60.0):
    return VolterraKernel(
        nu=nu, k=k, profile=SCEN_PROFILE, interaction=REPULSIVE, dt=dt, horizon=horizon
    )


def closed_kernel(kern, t):
    """The kernel's closed form at time(s) t, as VolterraKernel samples it."""
    return lintheory._kernel_values(kern.nu, kern.k, kern.profile, kern.interaction, t)


def gaussian_trace(t):
    """fhat_0(1, t) for a unit-amplitude single-mode Gaussian in v."""
    return np.exp(-2.0 * np.pi**2 * t * t)


def transform_oracle(profile, eta, window=24.0):
    """Direct quadrature of the velocity transform (independent of closed forms)."""
    re = quad(
        lambda v: profile_sample(profile, v) * np.cos(2 * np.pi * eta * v),
        -window, window, limit=400,
    )[0]
    im = -quad(
        lambda v: profile_sample(profile, v) * np.sin(2 * np.pi * eta * v),
        -window, window, limit=400,
    )[0]
    return re + 1j * im


def quad_dispersion_L(eta, k, nu, profile, interaction):
    """L(eta, k) by adaptive quadrature of its defining integral
    int_0^T exp(2 pi i conj(eta) |k| t) K_nu(t, k) dt, to relative 1e-10,
    with T past every component's Gaussian decay."""
    T = 0.0
    for _, a, b in lintheory._laplace_terms(complex(eta), k, nu, profile):
        ra = float(np.real(a))
        T = max(T, (ra + np.sqrt(ra * ra + 160.0 * b)) / (2.0 * b))
    T = 1.25 * T + 1.0
    phase = 2j * np.pi * np.conj(eta) * abs(k)

    def g(t):
        return complex(
            np.exp(phase * t)
            * lintheory._kernel_values(nu, k, profile, interaction, t)
        )

    re = quad(lambda t: g(t).real, 0.0, T, limit=400, epsabs=1e-13, epsrel=1e-10)[0]
    im = quad(lambda t: g(t).imag, 0.0, T, limit=400, epsabs=1e-13, epsrel=1e-10)[0]
    return complex(re, im)


def find_dispersion_root(kern, nu, guess):
    """Independent 2-d root finder on 1 - L (not the scan's minimizer)."""

    def F(xy):
        val = 1.0 - dispersion_L(complex(xy[0], xy[1]), kern.k, nu, kern.profile,
                                 kern.interaction)
        return [val.real, val.imag]

    sol = scipy_root(F, [guess.real, guess.imag], tol=1e-13)
    assert sol.success, sol.message
    return complex(sol.x[0], sol.x[1])


@pytest.fixture(scope="module")
def scenario_hist():
    kern = scenario_kernel()
    return kern, volterra_solve(gaussian_trace, kern)


class TestKernel:
    def test_kernel_at_zero_is_nu(self):
        kern = VolterraKernel(
            nu=0.3, k=2, profile=VelocityProfile.maxwellian(1.0), interaction=REPULSIVE
        )
        assert closed_kernel(kern, 0.0) == 0.3 + 0j

    def test_collisionless_kernel_frozen_value(self):
        kern = VolterraKernel(
            nu=0.0, k=1, profile=VelocityProfile.maxwellian(1.0), interaction=REPULSIVE
        )
        expected = -0.5 * FROZEN_DECAY_ETA1  # -W_hat(1) * f0_hat(1) * 1^2 * 1
        assert closed_kernel(kern, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_kernel_matches_transform_oracle(self):
        profile = VelocityProfile.maxwellian(0.7)
        kern = VolterraKernel(nu=0.4, k=2, profile=profile, interaction=REPULSIVE)
        what = 1.0 / (1.0 + 2.0**2)
        for t in (0.3, 0.9, 1.7):
            expected = (
                np.exp(-0.4 * t)
                * transform_oracle(profile, 2 * t)
                * (0.4 - what * 4.0 * t)
            )
            assert closed_kernel(kern, t) == pytest.approx(expected, rel=1e-9)

    def test_non_finite_samples_are_refused_naming_the_profile(self):
        # the spread squares to inf, so f0_hat(0) is inf * 0 = NaN; the
        # refusal is the only sign, with no RuntimeWarning before it
        wide = VelocityProfile.maxwellian(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match=r"1e\+200.*non-finite"):
                VolterraKernel(nu=0.0, k=1, profile=wide, interaction=REPULSIVE)

    def test_cached_samples_reproducible(self):
        kern = scenario_kernel(nu=0.07, dt=0.05, horizon=3.0)
        direct = np.array([closed_kernel(kern, t) for t in kern.times])
        assert np.max(np.abs(direct - kern.samples)) < 1e-14

    def test_drift_changes_phase_not_modulus(self):
        drifting = VelocityProfile.sum_of_maxwellians(((1.0, 0.5, 1.0),))
        centered = VelocityProfile.maxwellian(1.0)
        kd = VolterraKernel(nu=0.0, k=1, profile=drifting, interaction=REPULSIVE)
        kc = VolterraKernel(nu=0.0, k=1, profile=centered, interaction=REPULSIVE)
        ts = np.array([0.2, 0.7, 1.1])
        vd, vc = closed_kernel(kd, ts), closed_kernel(kc, ts)
        assert np.max(np.abs(np.abs(vd) - np.abs(vc))) < 1e-15
        assert np.max(np.abs(vd.imag)) > 1e-12  # the drift does rotate the phase

    def test_vectorized_matches_scalar(self):
        kern = scenario_kernel(nu=0.02)
        ts = np.linspace(0.0, 2.0, 7)
        vec = closed_kernel(kern, ts)
        assert np.array_equal(vec, np.array([closed_kernel(kern, t) for t in ts]))

    @settings(max_examples=25, deadline=None)
    @given(
        amp=st.floats(min_value=0.05, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_collisionless_kernel_linear_in_amplitude(self, amp, t):
        profile = VelocityProfile.maxwellian(1.0)
        kern_a = VolterraKernel(
            nu=0.0, k=1, profile=profile,
            interaction=Interaction.power_law(2.0, amplitude=amp),
            dt=0.5, horizon=1.0,
        )
        kern_1 = VolterraKernel(
            nu=0.0, k=1, profile=profile, interaction=REPULSIVE, dt=0.5, horizon=1.0
        )
        assert closed_kernel(kern_a, t) == pytest.approx(
            amp * closed_kernel(kern_1, t), rel=1e-12, abs=1e-300
        )


class TestVolterra:
    def test_zero_kernel_returns_free_trace(self):
        kern = VolterraKernel(
            nu=0.0, k=1, profile=VelocityProfile.maxwellian(1.0),
            interaction=Interaction.zero(), dt=0.05, horizon=5.0,
        )
        hist = volterra_solve(gaussian_trace, kern)
        expected = gaussian_trace(hist.times)
        assert np.max(np.abs(hist.rho_hat - expected)) < 1e-15

    def test_trace_is_called_once_on_the_time_grid(self):
        calls = []

        def trace(t):
            calls.append(np.array(t, copy=True))
            return gaussian_trace(t)

        hist = volterra_solve(trace, scenario_kernel(horizon=1.0))
        assert len(calls) == 1 and np.array_equal(calls[0], hist.times)
        with pytest.raises(ConstraintViolation, match="one value per march time"):
            volterra_solve(lambda t: 1.0, scenario_kernel(horizon=1.0))

    @pytest.mark.parametrize("profile", [SCEN_PROFILE, VelocityProfile.maxwellian(1.0)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dt", [0.02, 0.04, 0.5])
    def test_array_trace_equals_the_per_time_trace_bit_for_bit(self, profile, k, dt):
        # the shipped profiles' traces, so that the one array call marches the
        # bytes the per-time calls did (criteria 4 and 5, collision_sweep)
        times = np.arange(1001) * dt
        per_time = np.fromiter((complex(profile_fourier(profile, k * t)) for t in times),
                               dtype=complex, count=times.size)
        assert profile_fourier(profile, k * times).tobytes() == per_time.tobytes()

    def test_initial_value_is_trace_at_zero(self, scenario_hist):
        _, hist = scenario_hist
        assert hist.rho_hat[0] == gaussian_trace(0.0)

    def test_step_too_coarse_rejected(self):
        kern = VolterraKernel(
            nu=0.0, k=4, profile=VelocityProfile.maxwellian(1.0),
            interaction=REPULSIVE, dt=0.1, horizon=1.0,
        )
        with pytest.raises(StepTooCoarse):
            volterra_solve(gaussian_trace, kern)

    def test_self_convergence_is_second_order(self):
        sols = {}
        for dt in (0.04, 0.02, 0.01):
            kern = scenario_kernel(dt=dt, horizon=20.0)
            sols[dt] = volterra_solve(gaussian_trace, kern).rho_hat
        e_coarse = np.max(np.abs(sols[0.04] - sols[0.02][::2]))
        e_fine = np.max(np.abs(sols[0.02] - sols[0.01][::2]))
        order = np.log2(e_coarse / e_fine)
        assert order >= 1.9

    def test_fitted_rate_matches_dispersion_root(self, scenario_hist):
        kern, hist = scenario_hist
        eta0 = find_dispersion_root(kern, 0.0, ROOT_NU0)
        assert abs(eta0 - ROOT_NU0) < 1e-6  # anchors the offline frozen value
        gamma = 2.0 * np.pi * eta0.imag
        rate, _, rms = damping_rate_fit(hist, (8.0, 55.0))
        assert abs(-rate - gamma) / gamma < 0.02
        assert rms < 1e-2

    def test_collisional_rate_matches_shifted_root(self):
        kern = scenario_kernel(nu=1e-2)
        hist = volterra_solve(gaussian_trace, kern)
        eta0 = find_dispersion_root(kern, 1e-2, ROOT_NU0)
        gamma = 2.0 * np.pi * eta0.imag
        assert gamma == pytest.approx(RATE_NU001, abs=1e-7)
        rate, _, _ = damping_rate_fit(hist, (8.0, 55.0))
        assert abs(-rate - gamma) / gamma < 0.02

    def test_low_collision_limit_is_uniform(self):
        base = {}
        for nu in (0.0, 1e-4, 1e-3, 1e-2):
            kern = scenario_kernel(nu=nu, dt=0.02, horizon=20.0)
            base[nu] = volterra_solve(gaussian_trace, kern).rho_hat
        d2 = np.max(np.abs(base[1e-2] - base[0.0]))
        d3 = np.max(np.abs(base[1e-3] - base[0.0]))
        d4 = np.max(np.abs(base[1e-4] - base[0.0]))
        assert d2 / d3 >= 8.0
        assert d3 / d4 >= 8.0

    def test_weighted_reformulation_closes(self, scenario_hist):
        kern, hist = scenario_hist
        lam = 0.01
        ts = hist.times
        dt = hist.dt
        weight = np.exp(2.0 * np.pi * lam * 1 * ts)
        phi = hist.rho_hat * weight
        a_w = gaussian_trace(ts) * weight
        kw = closed_kernel(kern, ts) * weight
        for n in (250, 1100, 2999):
            w = np.full(n + 1, dt)
            w[0] = w[-1] = 0.5 * dt
            conv = np.dot(w * kw[n::-1], phi[: n + 1])
            resid = phi[n] - a_w[n] - conv
            assert abs(resid) < 1e-12 * max(1.0, abs(phi[n]))

    def test_weighted_envelope_decreases_after_transient(self, scenario_hist):
        _, hist = scenario_hist
        lam, mu = 0.008, 0.1  # 2*pi*lam below the fitted decay rate
        weighted = np.abs(hist.rho_hat) * np.exp(2.0 * np.pi * (lam * hist.times + mu))
        assert np.all(np.isfinite(weighted))
        blocks = [
            np.max(weighted[(hist.times >= lo) & (hist.times < lo + 10.0)])
            for lo in (10.0, 20.0, 30.0, 40.0)
        ]
        assert all(b1 > b2 for b1, b2 in zip(blocks, blocks[1:]))

    def test_reconstruction_closes_at_xi_zero(self, scenario_hist):
        kern, hist = scenario_hist
        for t in (0.0, 5.0, 23.46, 60.0):
            val = mode_reconstruct(hist, 0.0, t, kern, gaussian_trace)
            assert abs(val - hist.rho_hat[hist.index_of(t)]) < 1e-12

    def test_reconstruction_free_transport(self):
        kern = VolterraKernel(
            nu=0.0, k=1, profile=VelocityProfile.maxwellian(1.0),
            interaction=Interaction.zero(), dt=0.05, horizon=4.0,
        )
        hist = volterra_solve(gaussian_trace, kern)
        f0_hat = lambda eta: np.exp(-2.0 * np.pi**2 * eta * eta)
        xi, t = 0.7, 2.0
        val = mode_reconstruct(hist, xi, t, kern, f0_hat)
        assert val == pytest.approx(f0_hat(xi + t), abs=1e-15)

    def test_off_grid_time_rejected(self, scenario_hist):
        kern, hist = scenario_hist
        with pytest.raises(ConstraintViolation):
            mode_reconstruct(hist, 0.0, 5.013, kern, gaussian_trace)


class TestDispersion:
    def test_frozen_value_both_routes(self):
        profile = VelocityProfile.maxwellian(1.0)
        closed = dispersion_L(0.0, 1, 0.0, profile, REPULSIVE)
        numeric = quad_dispersion_L(0.0, 1, 0.0, profile, REPULSIVE)
        assert closed == pytest.approx(FROZEN_L_AT_ZERO, rel=1e-12)
        assert numeric == pytest.approx(FROZEN_L_AT_ZERO, rel=1e-9)

    def test_eta_zero_reduces_to_gaussian_moment(self):
        vth = 0.7
        moment = quad(lambda t: t * np.exp(-2 * np.pi**2 * vth**2 * t * t), 0, 10)[0]
        profile = VelocityProfile.maxwellian(vth)
        assert dispersion_L(0.0, 1, 0.0, profile, REPULSIVE) == pytest.approx(
            -0.5 * moment, rel=1e-10
        )
        assert moment == pytest.approx(1.0 / (4 * np.pi**2 * vth**2), rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 1e-2])
    @pytest.mark.parametrize(
        "profile",
        [
            VelocityProfile.maxwellian(1.0),
            VelocityProfile.maxwellian(0.05),
            VelocityProfile.sum_of_maxwellians(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))),
        ],
        ids=["maxwellian", "narrow", "two-stream"],
    )
    def test_quadrature_and_faddeeva_routes_agree(self, profile, nu):
        for eta in (0.3 + 0.1j, -1.1 - 0.4j, 2.0 + 0.0j, 0.15 + 0.011j):
            closed = dispersion_L(eta, 1, nu, profile, REPULSIVE)
            numeric = quad_dispersion_L(eta, 1, nu, profile, REPULSIVE)
            assert abs(closed - numeric) <= 1e-9 * max(1e-4, abs(closed))

    def test_higher_mode_routes_agree(self):
        eta = 0.2 - 0.1j
        closed = dispersion_L(eta, 3, 0.01, SCEN_PROFILE, REPULSIVE)
        numeric = quad_dispersion_L(eta, 3, 0.01, SCEN_PROFILE, REPULSIVE)
        assert abs(closed - numeric) <= 1e-9 * max(1e-6, abs(closed))

    def test_zero_interaction_vanishes(self):
        profile = VelocityProfile.maxwellian(1.0)
        assert dispersion_L(0.4 - 0.3j, 2, 0.0, profile, Interaction.zero()) == 0j

    def test_decay_into_lower_half_plane(self):
        mags = [abs(dispersion_L(0.15 - 1j * y, 1, 0.0, SCEN_PROFILE, REPULSIVE))
                for y in (0.0, 1.0, 3.0, 8.0)]
        assert mags[0] > mags[1] > mags[2] > mags[3]
        assert mags[-1] < 1e-2

    def test_mean_mode_closed_forms(self):
        profile = VelocityProfile.maxwellian(1.0)
        assert dispersion_L(0.5, 0, 0.0, profile, REPULSIVE) == 0j
        assert dispersion_L(0.5, 0, 0.3, profile, REPULSIVE) == 1.0 + 0j

    def test_root_location_matches_frozen(self):
        kern = scenario_kernel()
        eta0 = find_dispersion_root(kern, 0.0, 0.14 + 0.02j)
        assert abs(eta0 - ROOT_NU0) < 1e-6
        assert 2.0 * np.pi * eta0.imag == pytest.approx(RATE_NU0, abs=1e-7)


class TestDispersionRate:
    def test_matches_independent_root(self):
        assert dispersion_rate(1, 0.0, SCEN_PROFILE, REPULSIVE) == pytest.approx(
            RATE_NU0, abs=1e-7
        )
        assert dispersion_rate(1, 1e-2, SCEN_PROFILE, REPULSIVE) == pytest.approx(
            RATE_NU001, abs=1e-7
        )

    def test_rate_carries_the_mode_number(self):
        # the density of mode k decays at 2 pi |k| Im eta0, not 2 pi Im eta0
        kern = scenario_kernel(nu=1e-2, k=2, horizon=25.0)
        eta0 = find_dispersion_root(kern, 1e-2, 0.12 + 0.03j)
        rate = dispersion_rate(2, 1e-2, SCEN_PROFILE, REPULSIVE)
        assert rate == pytest.approx(2.0 * np.pi * 2 * eta0.imag, rel=1e-9)
        trace = lambda t: gaussian_trace(2 * VTH_SCEN * t)  # fhat_0(2, 2t)
        hist = volterra_solve(trace, kern)
        fitted, _, _ = damping_rate_fit(hist, (2.0, 23.0))
        assert abs(-fitted - rate) / rate < 1e-3

    # scipy's hybr, the search used before the Newton iteration, stops here
    # with "not making good progress" although its iterate already solves
    # 1 - L to a residual of 3.1e-15
    @pytest.mark.parametrize(
        "nu", [0.0138, 0.015, 0.0155, 0.0159, 0.0161, 0.0164, 0.0196, 0.021, 0.0211,
               0.0215, 0.0224],
    )
    def test_stalled_search_at_a_root_is_accepted(self, nu):
        rate = dispersion_rate(1, nu, SCEN_PROFILE, REPULSIVE)
        trace = lambda t: gaussian_trace(VTH_SCEN * t)  # fhat_0(1, t)
        hist = volterra_solve(trace, scenario_kernel(nu=nu))
        fitted, _, _ = damping_rate_fit(hist, (8.0, 55.0))
        assert abs(-fitted - rate) / rate < 1e-4

    @pytest.mark.parametrize(
        "profile, interaction",
        [
            (SCEN_PROFILE, Interaction.zero()),  # no root at all
            (SCEN_PROFILE, ATTRACTIVE),  # search diverges
            # bump on tail under attraction: a converged root with Im eta0 < 0
            (VelocityProfile.sum_of_maxwellians([(0.9, 0.0, 0.05), (0.1, 0.3, 0.02)]),
             ATTRACTIVE),
        ],
    )
    def test_no_decaying_root_raises(self, profile, interaction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a refusal, with no numpy warning on the way
            with pytest.raises(MarginNonPositive, match="no decaying dispersion root"):
                dispersion_rate(1, 0.0, profile, interaction)

    def test_mode_zero_is_refused_as_a_constraint(self):
        # its Gaussian rate is 0, so the closed form would divide by zero
        with pytest.raises(ConstraintViolation, match="k = 0 carries no field"):
            dispersion_rate(0, 0.0, SCEN_PROFILE, REPULSIVE)

    # Criteria 4 and 12, the benchmark's nu choices, and a fine nu sweep at
    # k = 1 and 2, all at the shipped v_th = 0.05. Strongly damped modes
    # (v_th >= 0.2 with k >= 2) have several roots near the start; hybr
    # refuses some of them where Newton converges, so they are not compared.
    NEWTON_CASES = (
        [(1, nu) for nu in (0.0, 0.01, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009,
                            0.011, 0.012, 0.013)]
        + [(k, float(nu)) for k in (1, 2) for nu in np.linspace(0.0, 0.03, 121)]
    )

    # The map to the classical problem: with Q_OVER_M = -1/(4 pi^2) and
    # E_hat = 2 pi i k W_hat(k) rho_hat, mode k oscillates cold at omega_p =
    # |k| sqrt(W_hat(k)), and a Maxwellian of thermal speed sigma has
    # (k lambda_D)^2 = 4 pi^2 sigma^2 / W_hat(k). W_hat comes from the
    # interaction's amplitude and gamma in closed form, not interaction_hat,
    # so a scale error there cannot scale the anchor with it. The rate is
    # -Im omega omega_p.
    @pytest.mark.parametrize("k, interaction", [(1, Interaction.power_law(2.0, 1.0)),
                                                (2, Interaction.power_law(1.5, 0.6))])
    @pytest.mark.parametrize("k_lambda", [0.3, 0.4, 0.5])
    def test_rate_is_the_classical_landau_root(self, k, interaction, k_lambda):
        w_hat = interaction.amplitude / (1.0 + k**interaction.gamma)
        omega_p, sigma = k * math.sqrt(w_hat), k_lambda * math.sqrt(w_hat) / (2.0 * math.pi)
        rate = dispersion_rate(k, 0.0, VelocityProfile.maxwellian(sigma), interaction)
        root = classical_landau_root(k_lambda)
        assert rate / omega_p == pytest.approx(-root.imag, rel=1e-10)

    def test_classical_root_at_half_a_debye_wavenumber(self):
        # the 15-digit root; the 4-digit table rate 0.1533 is 5.9e-5 from it,
        # so it cannot anchor a 1e-10 comparison
        root = classical_landau_root(0.5)
        assert root == pytest.approx(1.415661888604536 - 0.153359466909605j, rel=1e-13)

    def test_newton_matches_hybr(self):
        worst = 0.0
        for k, nu in self.NEWTON_CASES:
            rate = dispersion_rate(k, nu, SCEN_PROFILE, REPULSIVE)
            reference = hybr_rate(k, nu, SCEN_PROFILE, REPULSIVE)
            worst = max(worst, abs(rate - reference) / reference)
        assert worst <= 1e-12


def classical_landau_root(k_lambda):
    """The weakly damped root omega / omega_p of 1 + (1 + zeta Z(zeta)) /
    (k lambda_D)^2 = 0, zeta = omega / (sqrt(2) k lambda_D), by Newton's
    method on Z(zeta) = i sqrt(pi) w(zeta) (scipy's wofz), from the
    Bohm-Gross frequency. Im omega < 0 for a decaying mode."""
    zeta = complex(math.sqrt(1.0 + 3.0 * k_lambda**2), -0.1) / (math.sqrt(2.0) * k_lambda)
    for _ in range(50):
        z_fn = 1j * math.sqrt(math.pi) * complex(wofz(zeta))
        # Z' = -2 (1 + zeta Z)
        step = (k_lambda**2 + 1.0 + zeta * z_fn) / (z_fn - 2.0 * zeta * (1.0 + zeta * z_fn))
        zeta -= step
        if abs(step) <= 1e-12 * abs(zeta):  # converging quadratically: zeta is at rounding
            return math.sqrt(2.0) * k_lambda * zeta
    raise AssertionError(f"no classical root at k lambda_D = {k_lambda}")


def hybr_rate(k, nu, profile, interaction):
    """The decay rate by scipy's hybr from dispersion_rate's start, accepted
    as dispersion_rate accepts a root: converged, or at a residual <= 1e-12."""
    def mismatch(xy):
        val = 1.0 - dispersion_L(complex(xy[0], xy[1]), k, nu, profile, interaction)
        return [val.real, val.imag]

    vth = profile.thermal_speed
    sol = scipy_root(mismatch, [3.0 * vth, 0.25 * vth], tol=1e-13)
    assert sol.success or np.hypot(*sol.fun) <= 1e-12, sol.message
    assert sol.x[1] > 0
    return 2.0 * np.pi * abs(k) * sol.x[1]


def mpmath_faddeeva(z):
    return complex(mpmath.exp(-mpmath.mpc(z) ** 2) * mpmath.erfc(-1j * mpmath.mpc(z)))


class TestFaddeeva:
    rng = np.random.default_rng(0)
    POINTS = rng.uniform(-30.0, 30.0, 1200) + 1j * rng.uniform(-6.0, 6.0, 1200)

    def test_matches_mpmath(self):
        with mpmath.workdps(30):
            reference = np.array([mpmath_faddeeva(z) for z in self.POINTS])
        values = lintheory._faddeeva(self.POINTS)
        assert np.max(np.abs(values - reference) / np.abs(reference)) <= 1e-14

    def test_scalar_path_matches_the_array_path_bit_for_bit(self):
        points = np.concatenate([self.POINTS, [0.0, 2.0, -3.5j, 1e-3 - 1e-9j, -0.0 - 0.0j]])
        scalars = np.array([lintheory._faddeeva(complex(z)) for z in points])
        assert scalars.tobytes() == lintheory._faddeeva(points).tobytes()

    def test_known_values(self):
        # w(0) = 1; on the imaginary axis w(iy) = exp(y^2) erfc(y) is real
        assert lintheory._faddeeva(0j) == 1.0
        y = 1.5
        expected = float(mpmath.exp(y * y) * mpmath.erfc(y))
        assert lintheory._faddeeva(complex(0.0, y)) == pytest.approx(expected, rel=1e-15)

    def test_overflow_is_an_error_on_the_scalar_path(self):
        # w(-30i) = 2 exp(900) - w(30i) is out of float range
        with pytest.raises(OverflowError):
            lintheory._faddeeva(complex(0.0, -30.0))


def random_mixture(rng):
    """One draw of the random stability set: 1-3 Maxwellians (weights
    0.1-1 normalized, centres in +-3, spreads 0.03-1), a power law with
    gamma 1.2-4, amplitude 0.1-1 and either sign, and nu in {0, 0.01, 0.1}."""
    n = int(rng.integers(1, 4))
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    components = [(float(w[j]), float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.03, 1.0)))
                  for j in range(n)]
    interaction = Interaction.power_law(
        float(rng.uniform(1.2, 4.0)), float(rng.uniform(0.1, 1.0)), int(rng.choice([-1, 1])))
    nu = float(rng.choice([0.0, 0.01, 0.1]))
    return VelocityProfile.sum_of_maxwellians(components), interaction, nu


# the random stability set: 60 mixtures from default_rng(3), scanned over k = 1..4
_RNG = np.random.default_rng(3)
RANDOM_SET = [random_mixture(_RNG) for _ in range(60)]


def axis_oracle(k, nu, profile, interaction, n=20_001):
    """(winding, minimum) of 1 - L along the real axis: the winding from
    np.unwrap of its phase on n points over +-10 (1 + 4 velocity scale)
    between 1 at either infinity, the minimum from scipy's minimize_scalar
    on every sampled local minimum. The velocity scale is the RMS spread
    plus the largest drift."""
    what = interaction_hat(interaction, k)

    def margin(x):
        return abs(1.0 - dispersion_L(complex(x, 0.0), k, nu, profile, interaction))

    scale = profile.thermal_speed + max(abs(c) for _, c, _ in profile.components)
    reach = 10.0 * (1.0 + 4.0 * scale)
    x = np.linspace(-reach, reach, n)
    gap = 1.0 - lintheory._L_closed(x + 0j, k, nu, profile, what)
    phase = np.unwrap(np.angle(np.concatenate([[1.0], gap, [1.0]])))
    size = np.abs(gap)
    dips = np.flatnonzero((size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])) + 1
    best = min(minimize_scalar(margin, bounds=(x[i - 1], x[i + 1]), method="bounded",
                               options={"xatol": 1e-13}).fun for i in dips)
    return round((phase[-1] - phase[0]) / (2.0 * np.pi)), min(best, size.min())


class TestStabilityScan:
    def test_zero_interaction_margin_is_exactly_one(self):
        report = stability_scan((1, 4), 0.0, VelocityProfile.maxwellian(1.0), Interaction.zero())
        assert report.kappa == 1.0

    def test_scenario_margin_matches_offline_scan(self):
        report = stability_scan((1, 4), 0.0, SCEN_PROFILE, REPULSIVE)
        assert abs(report.kappa - KAPPA_SCEN) < 2e-3
        assert abs(report.worst_mode) == 1
        assert abs(abs(report.worst_frequency.real) - 0.15) < 0.02
        assert -1e-3 <= report.worst_frequency.imag <= 0.0

    def test_margin_grows_with_mode(self):
        report = stability_scan((1, 3), 0.0, SCEN_PROFILE, REPULSIVE)
        margins = report.scan["margins"]
        assert margins[2][0] > margins[1][0]
        assert margins[3][0] > margins[2][0]

    def test_collapse_root_raises(self):
        with pytest.raises(MarginNonPositive):
            stability_scan((1, 2), 0.0, VelocityProfile.maxwellian(0.1), ATTRACTIVE)

    def test_random_unstable_mixture_raises(self):
        # a root off the axis: |1 - L| stays near 0.4 on it, and only the
        # winding tells
        profile, interaction, nu = RANDOM_SET[53]
        winding, margin = axis_oracle(1, nu, profile, interaction)
        assert winding == 1 and margin > 0.3
        with pytest.raises(MarginNonPositive, match="winds 1 time"):
            stability_scan((1, 4), nu, profile, interaction)

    def test_root_next_to_the_axis_is_counted(self):
        # mixture 53 with its amplitude a hair above the marginal 0.368950:
        # the root sits 4.9e-6 off the axis, where |1 - L| only dips to
        # 7.6e-5, and the samples alone miss its turn; just below, no root
        profile, interaction, nu = RANDOM_SET[53]

        def scan_at(amplitude):
            return stability_scan((1, 1), nu, profile, replace(interaction, amplitude=amplitude))

        with pytest.raises(MarginNonPositive, match="winds 1 time"):
            scan_at(0.36898717)
        assert 0.0 < scan_at(0.3689).kappa < 2e-4

    # 7: the 2-D scan overstated two modes by up to 2.5e-3; 20, 52, 54: two
    # local minima within 6e-5 of each other
    @pytest.mark.parametrize("case", [7, 20, 52, 54])
    def test_random_mixture_matches_the_dense_axis_oracle(self, case):
        profile, interaction, nu = RANDOM_SET[case]
        report = stability_scan((1, 4), nu, profile, interaction)
        for k, (margin, re_eta, im_eta) in report.scan["margins"].items():
            winding, oracle = axis_oracle(k, nu, profile, interaction)
            assert winding == 0
            assert abs(margin - min(oracle, 1.0)) <= 1e-10 * oracle
            assert im_eta == 0.0
        assert report.kappa == min(m for m, _, _ in report.scan["margins"].values())

    def test_high_modes_skipped_by_majorant(self):
        report = stability_scan((1, 12), 0.0, SCEN_PROFILE, REPULSIVE)
        skipped = report.scan["skipped_lower_bounds"]
        assert sorted(skipped) == [9, 10, 11, 12]
        assert all(lb > 0.8 for lb in skipped.values())
        assert sorted(report.scan["margins"]) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_scan_is_deterministic(self):
        r1 = stability_scan((1, 2), 0.0, SCEN_PROFILE, REPULSIVE)
        r2 = stability_scan((1, 2), 0.0, SCEN_PROFILE, REPULSIVE)
        assert r1.kappa == r2.kappa
        assert r1.scan["margins"] == r2.scan["margins"]

    def test_report_validates_margin_sign(self):
        with pytest.raises(ConstraintViolation):
            StabilityReport(kappa=-0.1, worst_mode=1, worst_frequency=0j, scan={})


class TestFreeStreaming:
    PROFILE = VelocityProfile.maxwellian(1.0)

    def test_transient_grows_linearly_at_resonance(self):
        # omega = k v: the response magnitude is |f0'(v)| * (t - t0)
        v, k = 1.0, 2.0
        slope = abs(-np.exp(-0.5) / np.sqrt(2 * np.pi))
        for s in (0.5, 4.0):
            r = free_streaming_response(
                k * v, k, v, 0.0, t0=1.0, t=1.0 + s, profile=self.PROFILE, form="transient"
            )
            assert abs(r) == pytest.approx(slope * s, rel=1e-12)

    def test_averaged_resonance_scales_inverse_nu(self):
        v, k = 0.5, 1.0
        r1 = free_streaming_response(k * v, k, v, 0.2, 0.0, 1.0, self.PROFILE)
        r2 = free_streaming_response(k * v, k, v, 0.1, 0.0, 1.0, self.PROFILE)
        assert abs(r2) == pytest.approx(2.0 * abs(r1), rel=1e-12)

    def test_collisional_is_damped_transient(self):
        kwargs = dict(omega=0.7, k=1.0, v=0.3, t0=2.0, t=5.5, profile=self.PROFILE)
        plain = free_streaming_response(nu=0.0, form="transient", **kwargs)
        damped = free_streaming_response(nu=0.4, form="collisional", **kwargs)
        assert damped == pytest.approx(np.exp(-0.4 * 3.5) * plain, rel=1e-12)

    def test_collision_average_reproduces_broadened_resonance(self):
        # integrating the collisional form against nu exp(-nu s) gives the
        # averaged form: check by direct quadrature on a parameter grid
        for omega in (0.0, 0.8, 2.5):
            for v in (-1.2, 0.4, 1.0):
                for k, nu in ((1.0, 0.2), (2.0, 0.4)):
                    closed = free_streaming_response(
                        omega, k, v, nu, 0.0, 1.0, self.PROFILE, form="averaged"
                    )

                    def integrand(s, part):
                        val = nu * np.exp(-nu * s) * free_streaming_response(
                            omega, k, v, 0.0, 0.0, s, self.PROFILE, form="transient"
                        )
                        return val.real if part == 0 else val.imag

                    hi = 50.0 / nu
                    re = quad(integrand, 0, hi, args=(0,), limit=800, epsabs=1e-12)[0]
                    im = quad(integrand, 0, hi, args=(1,), limit=800, epsabs=1e-12)[0]
                    assert abs(complex(re, im) - closed) <= 1e-8 * max(1.0, abs(closed))

    @pytest.mark.parametrize("form", ["transient", "collisional"])
    def test_array_times_match_scalar_calls_bit_for_bit(self, form):
        # t and t0 broadcast like omega and v; each element is the scalar call
        omega = np.array([0.0, 0.7, 2.8])[:, None]
        v = np.array([-1.2, 0.3, 1.5])[:, None]
        t0 = np.array([0.0, 0.5, 2.0, 0.0, 1.25])
        t = np.array([0.0, 1e-3, 3.7, 48.0, 250.0])
        out = free_streaming_response(omega, 2.0, v, 0.35, t0, t, self.PROFILE, form=form)
        assert out.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                one = free_streaming_response(
                    float(omega[i, 0]), 2.0, float(v[i, 0]), 0.35, float(t0[j]), float(t[j]),
                    self.PROFILE, form=form,
                )
                assert type(one) is complex
                got = complex(out[i, j])
                assert (got.real, got.imag) == (one.real, one.imag), (form, i, j)

    def test_zero_mode_rejected(self):
        with pytest.raises(ConstraintViolation):
            free_streaming_response(1.0, 0.0, 1.0, 0.1, 0.0, 1.0, self.PROFILE)

    def test_unknown_form_rejected(self):
        with pytest.raises(ConstraintViolation):
            free_streaming_response(1.0, 1.0, 1.0, 0.1, 0.0, 1.0, self.PROFILE, form="bogus")


def synthetic_series(g=0.1, omega=2 * np.pi, amp=2.5, T=20.0, dt=0.005):
    ts = np.arange(0.0, T + dt / 2, dt)
    return ts, amp * np.exp(-g * ts) * np.abs(np.cos(omega * ts))


class TestDampingFit:
    def test_exact_exponential_envelope(self):
        ts, vals = synthetic_series()
        rate, intercept, rms = damping_rate_fit((ts, vals), (0.0, 20.0))
        assert rate == pytest.approx(-0.1, abs=1e-6)
        # refined log-peaks sit on log(amp) - g^2/(2 omega^2) - g t
        assert intercept == pytest.approx(
            np.log(2.5) - 0.1**2 / (2 * (2 * np.pi) ** 2), abs=1e-6
        )
        assert rms < 1e-6

    def test_growth_gives_positive_rate(self):
        ts, vals = synthetic_series(g=-0.2)
        rate, _, _ = damping_rate_fit((ts, vals), (0.0, 20.0))
        assert rate == pytest.approx(0.2, abs=1e-6)

    def test_too_few_peaks(self):
        ts, vals = synthetic_series()
        with pytest.raises(TooFewPeaks):
            damping_rate_fit((ts, vals), (0.0, 2.1))

    def test_gaussian_envelope_flagged_by_residual(self):
        # free transport of two-bump data: |rho| = |cos(4 pi t)| exp(-2 pi^2 s^2 t^2)
        ts = np.arange(0.0, 2.4001, 0.004)
        vals = np.cos(4 * np.pi * ts) * np.exp(-2 * np.pi**2 * 0.09 * ts * ts)
        rate, _, rms = damping_rate_fit((ts, vals), (0.0, 2.4))
        assert rms > 0.05  # quadratic log-envelope: a line is a bad fit

    def test_density_history_input(self, scenario_hist):
        _, hist = scenario_hist
        rate_h, icpt_h, rms_h = damping_rate_fit(hist, (8.0, 55.0))
        rate_t, icpt_t, rms_t = damping_rate_fit((hist.times, hist.rho_hat), (8.0, 55.0))
        assert (rate_h, icpt_h, rms_h) == (rate_t, icpt_t, rms_t)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_rate_invariant_under_rescaling(self, scale):
        ts, vals = synthetic_series(T=10.0, dt=0.01)
        rate0, icpt0, _ = damping_rate_fit((ts, vals), (0.0, 10.0))
        rate1, icpt1, _ = damping_rate_fit((ts, scale * vals), (0.0, 10.0))
        assert rate1 == pytest.approx(rate0, abs=1e-9)
        assert icpt1 - icpt0 == pytest.approx(np.log(scale), abs=1e-9)
