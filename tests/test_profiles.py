"""Profile and interaction contracts, checked against quadrature oracles.

The transform oracle integrates f0(v) e^{-2 pi i eta v} numerically and was
run before the closed forms were written; its values at selected eta are
frozen below as literals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vpkit.errors import ConstraintViolation
from vpkit.profiles import (
    Interaction,
    VelocityProfile,
    interaction_hat,
    profile_fourier,
    profile_sample,
    profile_sample_dv,
)

# Frozen oracle outputs (scipy.integrate.quad, epsabs 1e-15, window |v|<=60).
FROZEN_MAXW_ETA1 = 2.675287991074243e-09      # closed form; oracle 2.675288018894051e-09
FROZEN_MAXW_ETA025 = 0.2912129332140209
FROZEN_TWO_STREAM_ETA01 = 0.2536623838321682


def transform_oracle(profile, eta, window=24.0):
    """Direct quadrature of the transform integral; test-side reference only.

    quad reports roundoff when the oscillatory integral is ~1e-9 against an
    epsabs of 1e-15; the assertions below enforce the accuracy we actually
    need, so those notices are silenced here.
    """
    import warnings
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(
            lambda v: profile_sample(profile, v) * np.cos(2 * np.pi * eta * v),
            -window, window, limit=800, epsabs=1e-15, epsrel=1e-13,
        )[0]
        im = quad(
            lambda v: -profile_sample(profile, v) * np.sin(2 * np.pi * eta * v),
            -window, window, limit=800, epsabs=1e-15, epsrel=1e-13,
        )[0]
    return re + 1j * im


class TestProfileFourier:
    def test_normalization_at_zero(self, maxwellian, two_stream):
        assert profile_fourier(maxwellian, 0.0) == 1.0
        assert abs(profile_fourier(two_stream, 0.0) - 1.0) < 1e-15

    def test_frozen_values(self, maxwellian, two_stream):
        assert np.isclose(
            profile_fourier(maxwellian, 1.0).real, FROZEN_MAXW_ETA1, rtol=1e-12
        )
        assert np.isclose(
            profile_fourier(maxwellian, 0.25).real, FROZEN_MAXW_ETA025, rtol=1e-13
        )
        assert np.isclose(
            profile_fourier(two_stream, 0.1).real, FROZEN_TWO_STREAM_ETA01, rtol=1e-13
        )

    @pytest.mark.parametrize("vth", [0.6, 1.0, 1.7])
    def test_matches_quadrature_oracle(self, vth):
        profile = VelocityProfile.maxwellian(vth)
        for eta in np.linspace(-4.0, 4.0, 17):
            closed = profile_fourier(profile, eta)
            assert abs(closed - transform_oracle(profile, eta)) < 1e-9

    def test_two_stream_oracle_and_shift_theorem(self, two_stream):
        etas = np.linspace(-1.2, 1.2, 13)
        closed = profile_fourier(two_stream, etas)
        expected = np.cos(4 * np.pi * etas) * np.exp(-2 * np.pi**2 * etas**2)
        assert np.allclose(closed, expected, atol=1e-15)
        for eta in (0.1, 0.37, 2.0):
            assert abs(profile_fourier(two_stream, eta) - transform_oracle(two_stream, eta)) < 1e-9

    def test_modulus_bounded_by_one(self, two_stream):
        etas = np.linspace(-6, 6, 1001)
        vals = np.abs(profile_fourier(two_stream, etas))
        assert np.all(vals <= 1.0 + 1e-15)
        assert np.all(vals[np.abs(etas) > 1e-2] < 1.0)

    @given(
        eta=st.floats(-10, 10),
        vth=st.floats(0.1, 5.0),
        center=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_modulus_property(self, eta, vth, center):
        profile = VelocityProfile.sum_of_maxwellians([(1.0, center, vth)])
        val = abs(profile_fourier(profile, eta))
        assert val <= 1.0 + 1e-12
        if abs(eta) * vth > 0.05:
            assert val < 1.0


class TestProfileSample:
    def test_gaussian_peak(self, maxwellian):
        assert np.isclose(profile_sample(maxwellian, 0.0), 1 / np.sqrt(2 * np.pi), rtol=1e-15)

    @pytest.mark.parametrize(
        "components",
        [
            [(1.0, 0.0, 1.0)],
            [(1.0, 0.0, 0.4)],
            [(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)],
            [(0.25, -1.0, 0.7), (0.75, 0.5, 1.3)],
        ],
    )
    def test_unit_mass(self, components):
        profile = VelocityProfile.sum_of_maxwellians(components)
        v = np.linspace(-14, 14, 5601)
        mass = np.trapezoid(profile_sample(profile, v), v)
        assert abs(mass - 1.0) < 1e-10

    def test_symmetric_mixture(self, two_stream):
        v = np.linspace(0.0, 5.0, 41)
        assert np.allclose(
            profile_sample(two_stream, v), profile_sample(two_stream, -v), rtol=1e-15
        )

    def test_derivative_matches_finite_difference(self, two_stream):
        v = np.linspace(-4, 4, 33)
        h = 1e-6
        fd = (profile_sample(two_stream, v + h) - profile_sample(two_stream, v - h)) / (2 * h)
        assert np.allclose(profile_sample_dv(two_stream, v), fd, atol=1e-8)

    def test_nonnegative(self, two_stream, rng):
        v = rng.uniform(-8, 8, size=200)
        assert np.all(profile_sample(two_stream, v) >= 0.0)


class TestInteraction:
    def test_power_law_values(self, repulsive):
        assert interaction_hat(repulsive, 0) == 0.0
        assert interaction_hat(repulsive, 1) == 0.5
        assert interaction_hat(repulsive, 3) == pytest.approx(0.1, abs=1e-15)

    def test_sign_flag(self):
        attractive = Interaction.power_law(gamma=2.0, amplitude=1.0, sign=-1)
        assert interaction_hat(attractive, 1) == -0.5

    def test_zero_kind(self):
        W = Interaction.zero()
        k = np.arange(-8, 9)
        assert np.all(interaction_hat(W, k) == 0.0)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("amplitude", [0.3, 1.0])
    def test_symmetry_and_decay(self, gamma, amplitude):
        W = Interaction.power_law(gamma=gamma, amplitude=amplitude)
        k = np.arange(-64, 65)
        vals = interaction_hat(W, k)
        assert np.allclose(vals, vals[::-1], rtol=0, atol=0)
        nz = k != 0
        bound = 1.0 / (1.0 + np.abs(k[nz]) ** gamma)
        assert np.all(np.abs(vals[nz]) <= bound + 1e-15)

    @given(
        gamma=st.floats(1.05, 4.0),
        amplitude=st.floats(0.0, 1.0, exclude_min=True),
        k=st.integers(-64, 64),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_decay_property(self, gamma, amplitude, k, sign):
        W = Interaction.power_law(gamma=gamma, amplitude=amplitude, sign=sign)
        val = interaction_hat(W, k)
        assert val == interaction_hat(W, -k)
        if k == 0:
            assert val == 0.0
        else:
            assert abs(val) <= 1.0 / (1.0 + abs(k) ** gamma) + 1e-15

    def test_amplitude_guard(self):
        # the decay bound |W_hat(k)| <= 1/(1+|k|^gamma) is held at construction
        with pytest.raises(ConstraintViolation, match="the decay bound"):
            Interaction.power_law(gamma=2.0, amplitude=1.5)

    def test_gamma_guard(self):
        with pytest.raises(ConstraintViolation):
            Interaction.power_law(gamma=0.5)


class TestProfileValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConstraintViolation):
            VelocityProfile.sum_of_maxwellians([(0.5, -1.0, 1.0), (0.4, 1.0, 1.0)])

    def test_weights_must_be_positive(self):
        with pytest.raises(ConstraintViolation):
            VelocityProfile.sum_of_maxwellians([(1.5, 0.0, 1.0), (-0.5, 1.0, 1.0)])

    def test_thermal_speed_positive(self):
        with pytest.raises(ConstraintViolation):
            VelocityProfile.maxwellian(0.0)
