"""Resonance kernel, moment bounds, echo times, growth envelope and verifier.

Oracle strategy: the truncated sup kernel is checked against an independent
brute-force double loop and against its closed form on the diagonal s = t;
the piecewise integral table is checked by adaptive quadrature with a dense
midpoint-rule referee on the kink case; the frozen moment constants were
calibrated offline on a separate parameter grid (values recorded next to the
constants) and are verified here on a disjoint grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpkit.echo import (
    BACKWARD_MOMENT_CONSTANT,
    ENVELOPE_CONSTANT,
    FORWARD_MOMENT_CONSTANT,
    EchoKernelSpec,
    EnvelopeReport,
    GrowthParams,
    echo_kernel,
    echo_moment_backward,
    echo_moment_forward,
    echo_time,
    envelope_report,
    growth_envelope,
    growth_envelope_sum,
    growth_verify,
    piecewise_integral_check,
)
from vpkit.errors import (
    ConstraintViolation,
    EnvelopeExceeded,
    InequalityViolated,
    TailNotResolved,
    UnstableConfiguration,
)

SPEC_HALF = EchoKernelSpec(alpha=0.5, gamma=2.0)


def stable_params(**overrides):
    base = dict(A=1.0, c0=0.0, m=1.5, c=0.0, kappa=0.3, nu_env=0.25)
    base.update(overrides)
    return GrowthParams(**base)


class TestKernelSpec:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConstraintViolation):
            EchoKernelSpec(alpha=alpha, gamma=2.0)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, -3.0])
    def test_gamma_at_most_one_rejected(self, gamma):
        with pytest.raises(ConstraintViolation):
            EchoKernelSpec(alpha=0.5, gamma=gamma)

    def test_box_too_small_for_tail_rejected(self):
        # alpha * (trunc - 1) must clear 12 ln 10 so the dropped l-tail sits
        # below 1e-12 of the generic retained scale.
        with pytest.raises(ConstraintViolation):
            EchoKernelSpec(alpha=0.5, gamma=2.0, trunc=40)
        with pytest.raises(ConstraintViolation):
            EchoKernelSpec(alpha=0.3, gamma=2.0)  # default box is too small
        EchoKernelSpec(alpha=0.3, gamma=2.0, trunc=96)

    def test_spec_is_immutable(self):
        with pytest.raises(AttributeError):
            SPEC_HALF.alpha = 0.7


class TestEchoKernel:
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 7.0])
    def test_diagonal_closed_form_exact(self, t):
        assert echo_kernel(SPEC_HALF, t, t) == (1.0 + t) * math.exp(-0.5 * (1.0 + t))

    def test_matches_brute_force_double_loop(self):
        spec = EchoKernelSpec(alpha=0.9, gamma=2.0, trunc=32)

        def brute(t, s):
            best = 0.0
            for k in range(-32, 33):
                if k == 0:
                    continue
                for l in range(-32, 33):
                    if l == 0:
                        continue
                    ratio = (t - s) / t if t > 0 else 0.0
                    v = (
                        math.exp(-0.9 * abs(l))
                        * math.exp(-0.9 * ratio * abs(k - l))
                        * math.exp(-0.9 * abs(k * (t - s) + l * s))
                        / (1.0 + abs(k - l) ** 2.0)
                    )
                    best = max(best, v)
            return (1.0 + s) * best

        for t, s in [(1.0, 0.3), (5.0, 2.0), (10.0, 9.5), (3.0, 0.0)]:
            want = brute(t, s)
            assert echo_kernel(spec, t, s) == pytest.approx(want, rel=5e-15)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = float(rng.uniform(0.01, 40.0))
            s = float(rng.uniform(0.0, t))
            assert echo_kernel(SPEC_HALF, t, s) > 0.0

    def test_doubling_the_box_changes_nothing(self):
        wide = EchoKernelSpec(alpha=0.5, gamma=2.0, trunc=128)
        for t, s in [(0.8, 0.2), (4.0, 1.0), (12.0, 11.0), (25.0, 6.5)]:
            assert echo_kernel(SPEC_HALF, t, s) == echo_kernel(wide, t, s)

    def test_start_time_slice_decays(self):
        vals = [echo_kernel(SPEC_HALF, t, 0.0) for t in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_early_seed_reduced_majorant(self):
        # For s <= t/2 the time-ratio factor is at least 1/2, so the kernel
        # is dominated by the same sup with e^{-alpha|k-l|/2} and no
        # denominator.
        kk = np.arange(-64, 65)
        kk = kk[kk != 0]
        KK, LL = np.meshgrid(kk, kk, indexing="ij")
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = float(rng.uniform(0.5, 30.0))
            s = float(rng.uniform(0.0, 0.5 * t))
            majorant = (1.0 + s) * np.max(
                np.exp(-0.5 * np.abs(LL))
                * np.exp(-0.25 * np.abs(KK - LL))
                * np.exp(-0.5 * np.abs(KK * (t - s) + LL * s))
            )
            assert echo_kernel(SPEC_HALF, t, s) <= majorant * (1.0 + 1e-12)

    def test_resonance_factor_peaks_at_echo_time(self):
        l, k, s = 1, -1, 5.0
        t_star = echo_time(l, k, s)
        grid = np.concatenate([np.arange(5.05, 20.0, 0.01), [t_star]])
        factor = np.exp(-0.5 * np.abs(k * (grid - s) + l * s))
        assert grid[int(np.argmax(factor))] == t_star

    def test_continuous_under_grid_refinement(self):
        def max_step(h):
            ts = np.arange(1.0, 9.0, h)
            vals = np.array([echo_kernel(SPEC_HALF, t, 0.7) for t in ts])
            return np.max(np.abs(np.diff(vals)))

        coarse, fine = max_step(0.02), max_step(0.01)
        assert coarse < 0.01
        assert fine <= 0.75 * coarse

    def test_domain_preconditions(self):
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, 1.0, -0.1)
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, 1.0, 1.5)
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, 0.0, 0.5)
        assert echo_kernel(SPEC_HALF, 0.0, 0.0) == math.exp(-0.5)


class TestPiecewiseTable:
    def test_equal_modes_case_is_exact(self):
        k, alpha, t = 2, 0.4, 5.0
        numeric, bound = piecewise_integral_check(k, k, alpha, t)
        assert bound == math.exp(-alpha * k * t) * (0.5 * t + t * t / 8.0)
        assert numeric == pytest.approx(bound, rel=1e-9)
        assert numeric <= bound * (1.0 + 1e-9)

    def test_larger_seed_mode_case(self):
        numeric, bound = piecewise_integral_check(1, 3, 0.4, 8.0)
        assert 0.0 < numeric <= bound

    def test_mid_range_case(self):
        numeric, bound = piecewise_integral_check(3, -1, 0.3, 6.0)
        assert 0.0 < numeric <= bound

    def test_kink_case_against_midpoint_referee(self):
        k, l, alpha, t = 2, -5, 0.3, 6.0
        numeric, bound = piecewise_integral_check(k, l, alpha, t)
        ss = (np.arange(200_000) + 0.5) * (0.5 * t / 200_000)
        referee = np.mean(np.exp(-alpha * np.abs(k * (t - ss) + l * ss)) * (1.0 + ss)) * 0.5 * t
        assert numeric == pytest.approx(referee, rel=1e-6)
        assert numeric <= bound

    def test_random_battery_stays_under_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            l = int(rng.integers(-12, 13))
            alpha = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.5, 30.0))
            numeric, bound = piecewise_integral_check(k, l, alpha, t)
            assert numeric <= bound * (1.0 + 1e-9)

    def test_preconditions(self):
        with pytest.raises(ConstraintViolation):
            piecewise_integral_check(0, 1, 0.5, 2.0)
        with pytest.raises(ConstraintViolation):
            piecewise_integral_check(-2, 1, 0.5, 2.0)
        with pytest.raises(ConstraintViolation):
            piecewise_integral_check(1, 1, 1.2, 2.0)
        with pytest.raises(ConstraintViolation):
            piecewise_integral_check(1, 1, 0.5, 0.0)


class TestMoments:
    # Verification grid: alpha = 0.6 never appears in the calibration grid
    # recorded next to the frozen constants.
    @pytest.mark.parametrize("gamma", [1.7, 2.5])
    @pytest.mark.parametrize("nu", [0.18, 0.42])
    def test_forward_under_frozen_constant_disjoint_grid(self, gamma, nu):
        spec = EchoKernelSpec(alpha=0.6, gamma=gamma)
        for t in (3.0, 24.0):
            numeric, shape = echo_moment_forward(spec, nu, t)
            assert 0.0 < numeric <= FORWARD_MOMENT_CONSTANT * shape

    def test_forward_dyadic_decay_exponent(self):
        spec = SPEC_HALF
        ts = [30.0 * 2**j for j in range(5)]
        vals = [echo_moment_forward(spec, 0.2, t)[0] for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert -slope >= spec.gamma - 1.0 - 0.2

    def test_forward_crude_area_bound(self):
        # The kernel never exceeds 1 + s, so the moment sits under t (1 + t).
        numeric, _ = echo_moment_forward(SPEC_HALF, 0.1, 0.5)
        assert numeric <= 0.5 * 1.5

    def test_forward_preconditions(self):
        with pytest.raises(ConstraintViolation):
            echo_moment_forward(SPEC_HALF, 0.5, 2.0)
        with pytest.raises(ConstraintViolation):
            echo_moment_forward(SPEC_HALF, 0.0, 2.0)
        with pytest.raises(ConstraintViolation):
            echo_moment_forward(SPEC_HALF, 0.1, 0.0)

    @pytest.mark.parametrize("gamma", [1.7, 2.5])
    @pytest.mark.parametrize("nu", [0.18, 0.42])
    def test_backward_under_frozen_constant_disjoint_grid(self, gamma, nu):
        spec = EchoKernelSpec(alpha=0.6, gamma=gamma)
        for s in (0.0, 4.0):
            numeric, shape = echo_moment_backward(spec, nu, s, s + 80.0 / nu)
            assert 0.0 < numeric <= BACKWARD_MOMENT_CONSTANT * shape

    def test_backward_bounded_in_seed_time(self):
        # The (1+s) growth of the kernel saturates against the collision
        # weight: the ratio to the shape stays under the frozen constant even
        # as the seed time moves far out.
        spec = SPEC_HALF
        for s in (0.0, 2.0, 8.0, 20.0):
            numeric, shape = echo_moment_backward(spec, 0.1, s, s + 900.0)
            assert numeric <= BACKWARD_MOMENT_CONSTANT * shape

    def test_backward_unresolved_tail_rejected(self):
        with pytest.raises(TailNotResolved):
            echo_moment_backward(SPEC_HALF, 0.1, 0.0, 20.0)

    def test_backward_preconditions(self):
        with pytest.raises(ConstraintViolation):
            echo_moment_backward(SPEC_HALF, 0.1, 5.0, 5.0)
        with pytest.raises(ConstraintViolation):
            echo_moment_backward(SPEC_HALF, 0.6, 0.0, 100.0)

    def test_fitted_constant_stable_under_quadrature_refinement(self):
        spec = EchoKernelSpec(alpha=0.6, gamma=2.0)
        grid = [(0.3, 2.0), (0.15, 5.0), (0.3, 12.0)]

        def fitted(rel_tol):
            return max(
                echo_moment_forward(spec, nu, t, rel_tol=rel_tol)[0]
                / echo_moment_forward(spec, nu, t)[1]
                for nu, t in grid
            )

        coarse, refined = fitted(1e-6), fitted(1e-9)
        assert 0.5 <= coarse / refined <= 2.0


class TestEchoTime:
    def test_known_values(self):
        assert echo_time(1, -1, 5.0) == 10.0
        assert echo_time(2, -1, 3.0) == 9.0
        assert echo_time(1, 1, 4.0) is None
        # s * 5 / 5 rounds one ulp above s here; t* = s is still no future echo
        assert echo_time(0, 5, 26.093959564262352) is None

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(min_value=-20, max_value=20),
        k=st.integers(min_value=-20, max_value=20).filter(lambda k: k != 0),
        s=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_future_echo_iff_opposite_signs(self, l, k, s):
        t_star = echo_time(l, k, s)
        if l * k < 0:
            assert t_star == pytest.approx(s * (k - l) / k)
            assert t_star > s
        else:
            assert t_star is None

    def test_preconditions(self):
        with pytest.raises(ConstraintViolation):
            echo_time(1, -1, 0.0)
        with pytest.raises(ConstraintViolation):
            echo_time(1, 0, 2.0)


class TestEnvelope:
    def test_unstable_margin_rejected_at_construction(self):
        with pytest.raises(UnstableConfiguration):
            stable_params(kappa=0.0)
        with pytest.raises(UnstableConfiguration):
            stable_params(kappa=-0.4)

    def test_parameter_validation(self):
        with pytest.raises(ConstraintViolation):
            stable_params(kappa=1.3)
        with pytest.raises(ConstraintViolation):
            stable_params(m=1.0)
        with pytest.raises(ConstraintViolation):
            stable_params(A=-1.0)
        with pytest.raises(ConstraintViolation):
            stable_params(nu_env=0.0)
        with pytest.raises(ConstraintViolation):
            stable_params(lambda0=0.01, lambda_weight=0.02)

    def test_kernel_free_reduction(self):
        p = stable_params(A=2.0, nu_env=0.05)
        for t in (0.0, 3.0, 11.0):
            want = ENVELOPE_CONSTANT * 2.0 / math.sqrt(0.05) * math.exp(0.05 * t)
            assert growth_envelope(p, 2.0, 0.5, t) == pytest.approx(want, rel=1e-15)

    def test_monotone_in_every_load_parameter(self):
        base = stable_params(A=1.0, c0=0.2, c=0.3, nu_env=0.1, m=1.6)
        e = growth_envelope(base, 2.0, 0.5, 4.0)
        assert growth_envelope(stable_params(A=2.0, c0=0.2, c=0.3, nu_env=0.1, m=1.6), 2.0, 0.5, 4.0) > e
        assert growth_envelope(stable_params(A=1.0, c0=0.4, c=0.3, nu_env=0.1, m=1.6), 2.0, 0.5, 4.0) > e
        assert growth_envelope(stable_params(A=1.0, c0=0.2, c=0.6, nu_env=0.1, m=1.6), 2.0, 0.5, 4.0) > e
        assert growth_envelope(base, 2.0, 0.5, 9.0) > e

    def test_weak_collisions_inflate_the_start(self):
        lo = growth_envelope(stable_params(nu_env=0.05), 2.0, 0.5, 0.0)
        hi = growth_envelope(stable_params(nu_env=0.2), 2.0, 0.5, 0.0)
        assert lo > hi

    def test_collision_rate_above_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            growth_envelope(stable_params(nu_env=0.6), 2.0, 0.5, 1.0)

    def test_switch_time_term_dominance(self):
        gamma, alpha = 2.0, 0.5
        # heavy resonance load: the quadratic-in-c term wins
        p = stable_params(c=100.0, nu_env=0.1)
        t1 = (100.0**2 * 0.1 ** (2.0 + gamma) / alpha**5) ** (1.0 / (gamma - 1.0))
        assert envelope_report(p, gamma, alpha).T_star == pytest.approx(
            ENVELOPE_CONSTANT * t1, rel=1e-12
        )
        # light resonance load: the linear-in-c term wins
        p = stable_params(c=0.01, nu_env=0.1)
        t2 = (0.01 * 0.1 ** (0.5 + gamma) / alpha**2) ** (1.0 / (gamma - 1.0))
        assert envelope_report(p, gamma, alpha).T_star == pytest.approx(
            ENVELOPE_CONSTANT * t2, rel=1e-12
        )
        # algebraic kernel only: the c0 term wins
        p = stable_params(c0=2.0, m=1.5, nu_env=0.1)
        t3 = (4.0 / 0.1) ** (1.0 / 2.0)
        assert envelope_report(p, gamma, alpha).T_star == pytest.approx(
            ENVELOPE_CONSTANT * t3, rel=1e-12
        )

    def test_report_bundles_the_envelope(self):
        p = stable_params(A=1.5, c=0.2, nu_env=0.1)
        rep = envelope_report(p, 2.0, 0.5)
        assert rep.C_fit == ENVELOPE_CONSTANT
        assert rep.envelope(0.0) >= p.A
        for t in (0.0, 2.0, 6.0):
            assert rep.envelope(t) == growth_envelope(p, 2.0, 0.5, t)
        assert rep.inputs["A"] == 1.5 and rep.inputs["alpha"] == 0.5

    def test_report_rejects_sub_unit_constant(self):
        with pytest.raises(ConstraintViolation):
            EnvelopeReport(T_star=1.0, envelope=lambda t: t, inputs={}, C_fit=0.5)

    def test_summed_kernel_variant(self):
        p = stable_params(c0=0.5, m=1.5, nu_env=0.2)
        c_js, alpha_js = [0.02, 0.03], [0.4, 0.8]
        c, alpha = 0.05, 0.4
        T = max(
            (0.02 / 0.4**3 + 0.03 / 0.8**3) / 0.2**2,
            (0.25 / 0.2) ** (1.0 / 2.0),
        )
        want = (
            ENVELOPE_CONSTANT
            * p.A
            * (1.0 + 0.25)
            / math.sqrt(0.2)
            * math.exp(ENVELOPE_CONSTANT * 0.5)
            * (1.0 + c / (alpha * 0.2))
            * math.exp(ENVELOPE_CONSTANT * T)
            * math.exp(ENVELOPE_CONSTANT * c * (1.0 + T * T))
            * math.exp(0.2 * 3.0)
        )
        got = growth_envelope_sum(p, c_js, alpha_js, 3.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_summed_variant_validation(self):
        p = stable_params(nu_env=0.2)
        with pytest.raises(ConstraintViolation):
            growth_envelope_sum(p, [], [], 1.0)
        with pytest.raises(ConstraintViolation):
            growth_envelope_sum(p, [0.1], [0.4, 0.5], 1.0)
        with pytest.raises(ConstraintViolation):
            growth_envelope_sum(p, [0.1], [1.4], 1.0)
        with pytest.raises(ConstraintViolation):
            growth_envelope_sum(stable_params(nu_env=1.5, kappa=0.3), [0.1], [0.4], 1.0)


class TestGrowthVerify:
    def test_constant_series_with_zero_kernels(self):
        p = stable_params(A=2.0)
        ts = np.linspace(0.0, 10.0, 201)
        phi = np.full(201, 2.0, dtype=complex)
        rep = growth_verify((ts, phi), (None, None, 0.0, 1.5), 2.0, p)
        assert rep.hypothesis_ok and rep.crude_ok and rep.envelope_ok
        assert rep.max_hypothesis_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.max_crude_ratio == pytest.approx(0.5, rel=1e-9)
        assert rep.max_envelope_ratio < 1.0

    def test_envelope_crossing_is_caught(self):
        # A self-consistent series (a one-step kernel reproduces its growth
        # exactly) that outruns e^{nu t} must trip the envelope check, not
        # the hypothesis check.
        nu = 0.25
        p = stable_params(nu_env=nu)
        ts = np.linspace(0.0, 12.0, 481)
        dt = float(ts[1] - ts[0])
        g = 2.0 * nu
        phi = np.exp(g * ts).astype(complex)
        k0 = np.zeros_like(ts, dtype=complex)
        k0[1] = math.exp((g + nu) * dt) / dt
        with pytest.raises(EnvelopeExceeded):
            growth_verify((ts, phi), (k0, None, 0.0, 1.5), 1.0, p)

    def test_inconsistent_data_is_caught(self):
        p = stable_params()
        ts = np.linspace(0.0, 12.0, 481)
        phi = np.full(ts.size, 1.0, dtype=complex)
        phi[300:] = 100.0
        with pytest.raises(InequalityViolated):
            growth_verify((ts, phi), (None, None, 0.0, 1.5), 1.0, p)

    def test_weighted_collisional_density_passes(self, scenario_weighted):
        times, phi, k0w, A, nu_c = scenario_weighted
        spec = EchoKernelSpec(alpha=0.5, gamma=2.0)
        p = GrowthParams(
            A=A, c0=0.05, m=1.5, c=0.05, kappa=0.22, nu_env=nu_c,
            lambda0=0.02, lambda_weight=0.008, C0=1.1, C_W=1.0,
        )
        rep = growth_verify((times, phi), (k0w, spec, 0.05, 1.5), A, p)
        assert rep.max_hypothesis_ratio <= 1.0 + 1e-9
        assert rep.max_crude_ratio < 1.0
        assert rep.max_envelope_ratio < 0.01
        d = rep.as_dict()
        assert d["hypothesis_ok"] and d["crude_ok"] and d["envelope_ok"]

    def test_input_validation(self):
        p = stable_params()
        ts = np.linspace(0.0, 5.0, 51)
        phi = np.ones(51, dtype=complex)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts, phi), (None, None, 0.1, 1.5), 1.0, p)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts, phi), (None, None, 0.0, 2.5), 1.0, p)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts + 1.0, phi), (None, None, 0.0, 1.5), 1.0, p)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts**1.1, phi), (None, None, 0.0, 1.5), 1.0, p)
        with pytest.raises(ConstraintViolation):
            growth_verify(
                (ts, phi), (None, None, 0.0, 1.5), 1.0, stable_params(c=0.1)
            )


@pytest.fixture(scope="module")
def scenario_weighted():
    """Weighted single-mode density from the collisional Volterra march."""
    from vpkit.lintheory import VolterraKernel, kernel_eval, volterra_solve
    from vpkit.profiles import Interaction, VelocityProfile

    nu_c = 0.02
    kern = VolterraKernel(
        nu=nu_c,
        k=1,
        profile=VelocityProfile.maxwellian(0.05),
        interaction=Interaction.power_law(2.0, amplitude=1.0, sign=1),
        dt=0.04,
        horizon=20.0,
    )
    hist = volterra_solve(
        1, lambda t: np.exp(-2.0 * np.pi**2 * t * t), kern, T=20.0, dt=0.04
    )
    times = np.asarray(hist.times)
    lam, mu = 0.008, 0.1
    weight = np.exp(2.0 * np.pi * (lam * times + mu))
    phi = np.asarray(hist.rho_hat) * weight
    free = np.exp(-2.0 * np.pi**2 * times**2) * np.exp(-nu_c * times) * weight
    A = float(np.max(np.abs(free)))
    k0w = kernel_eval(kern, times) * np.exp(nu_c * times) * np.exp(2.0 * np.pi * lam * times)
    return times, phi, k0w, A, nu_c
