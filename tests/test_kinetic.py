"""Direct-solver tests.

Oracle strategy: free flight has the closed-form transform shift, so the
marched state is compared against it literally; the collision substep is
checked against a high-order ODE integration of the relaxation law; step
accuracy is measured by dt-halving Richardson ratios; the linear regime is
compared against the closed Volterra march of the density equation and the
damping rates frozen by the linear-theory suite; echo timing is compared
against the analytic crossing time and the recurrence arithmetic of the
velocity grid. The half-storage step (x-transforms as real DFT matrix
products, real FFTs in v) is checked against the full-complex step it
replaced (reference_step below), kept here as an oracle."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import vpkit.kinetic as kin
from vpkit.errors import (
    ConstraintViolation,
    EchoBeyondRecurrence,
    ResolutionExceeded,
    StepTooCoarse,
    VpkitError,
)
from vpkit.kinetic import (
    FieldHistory,
    KineticRun,
    PhaseState,
    collision_substep,
    echo_experiment,
    equilibrium_state,
    perturb_density,
    poisson_field,
    resolution_guard,
    rho_hat,
    run,
    spectral_snapshot,
    step,
)
from vpkit.lintheory import VolterraKernel, damping_rate_fit, volterra_solve
from vpkit.profiles import Interaction, VelocityProfile, profile_fourier

MX_COLD = VelocityProfile.maxwellian(0.05)
MX_UNIT = VelocityProfile.maxwellian(1.0)
W_POW = Interaction.power_law(2.0, amplitude=1.0, sign=1)
W_ZERO = Interaction.zero()

# Damping rates of the k=1 mode for the cold Maxwellian with the repulsive
# gamma=2 interaction, frozen by the linear-theory suite (dispersion root
# and Volterra fit agree on these to better than a part in 1e3).
RATE_NU0 = 0.0716509404
RATE_NU001 = 0.0783614432


def small_state(amp=1e-3, k_max=2, n_v=128, profile=MX_UNIT):
    state = equilibrium_state(profile, k_max, n_v)
    return perturb_density(state, profile, 1, amp)


def reference_step(f, k_max, v_max, dt, W, profile, nu, external_field_hat=None):
    """The full-complex Strang step on all rows k = -k_max..k_max.

    Complex FFTs in x and v over the full table, the shift phase on every
    fftfreq bin, and a projection 0.5 (f + conj f[::-1]) onto real f at the
    end. external_field_hat is aligned with the modes -k_max..k_max."""
    n_v = f.shape[1]
    dv = 2.0 * v_max / n_v
    modes = np.arange(-k_max, k_max + 1)
    half = np.exp(-1j * np.pi * dt * np.outer(modes, kin.velocity_grid(n_v, v_max)))
    f = f * half
    e_hat = poisson_field(dv * f.sum(axis=1), W, modes)
    if external_field_hat is not None:
        e_hat = e_hat + external_field_hat
    if np.any(e_hat):
        n_x = max(4 * k_max, 8)
        spec = np.zeros(n_x, dtype=complex)
        spec[modes % n_x] = e_hat
        accel = kin.Q_OVER_M * np.fft.ifft(spec).real * n_x
        grid_spec = np.zeros((n_x, n_v), dtype=complex)
        grid_spec[modes % n_x] = f
        f_x = np.fft.ifft(grid_spec, axis=0) * n_x
        eta = np.fft.fftfreq(n_v, d=dv)
        f_eta = np.fft.fft(f_x, axis=1)
        f_eta *= np.exp(-2j * np.pi * dt * np.outer(accel, eta))
        f_x = np.fft.ifft(f_eta, axis=1)
        f = (np.fft.fft(f_x, axis=0) / n_x)[modes % n_x]
    if nu > 0.0:
        f = collision_substep(f, dv * f.sum(axis=1), dt, nu, profile, v_max=v_max)
    f = f * half
    return 0.5 * (f + np.conj(f[::-1]))


class TestPhaseState:
    def test_equilibrium_defaults(self):
        state = equilibrium_state(MX_UNIT, 4, 256)
        assert state.v_max == pytest.approx(6.0)
        assert state.n_v == 256
        assert state.dv == pytest.approx(12.0 / 256)
        assert state.v[0] == -state.v_max
        assert state.v[-1] == pytest.approx(state.v_max - state.dv)
        assert np.array_equal(state.modes, np.arange(-4, 5))
        # discrete equilibrium carries exactly unit mass
        assert rho_hat(state)[4].real == 1.0
        assert np.abs(state.f[:4]).max() == 0.0

    def test_shape_validation(self):
        with pytest.raises(ConstraintViolation):
            PhaseState(rows=np.zeros((4, 64), complex), time=0.0, k_max=2, v_max=6.0)
        with pytest.raises(ConstraintViolation):  # the full 2*k_max+1 layout
            PhaseState(rows=np.zeros((5, 64), complex), time=0.0, k_max=2, v_max=6.0)
        with pytest.raises(ConstraintViolation):
            PhaseState(rows=np.zeros((3, 63), complex), time=0.0, k_max=2, v_max=6.0)
        with pytest.raises(ConstraintViolation):
            PhaseState(rows=np.zeros((3, 64), complex), time=0.0, k_max=0, v_max=6.0)
        with pytest.raises(ConstraintViolation):
            PhaseState(rows=np.zeros((3, 64), complex), time=0.0, k_max=2, v_max=-1.0)

    def test_rejects_complex_zero_row(self):
        rows = np.zeros((3, 64), complex)
        rows[1] = 1.0 + 2.0j  # any k >= 1 row is allowed to be complex
        PhaseState(rows=rows, time=0.0, k_max=2, v_max=6.0)
        rows[0, 5] = 1e-300j
        with pytest.raises(ConstraintViolation, match="real"):
            PhaseState(rows=rows, time=0.0, k_max=2, v_max=6.0)

    def test_rejects_non_finite(self):
        rows = np.zeros((3, 64), complex)
        rows[0, 0] = np.nan
        with pytest.raises(ConstraintViolation, match="finite"):
            PhaseState(rows=rows, time=0.0, k_max=2, v_max=6.0)

    def test_full_view_is_exactly_hermitian(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        rows[0] = rows[0].real
        state = PhaseState(rows=rows, time=0.0, k_max=3, v_max=6.0)
        assert state.f.shape == (7, 32)
        assert np.array_equal(state.f[3:], rows)
        assert np.array_equal(state.f, np.conj(state.f[::-1]))
        assert not state.f.flags.writeable
        # mirrored exact zeros stay +0.0, so CSV outputs print 0, not -0
        quiet = equilibrium_state(MX_UNIT, 2, 64)
        assert not np.any(np.signbit(quiet.f.imag))
        assert not np.any(np.signbit(rho_hat(quiet).imag))

    def test_perturbation_validation(self):
        state = equilibrium_state(MX_UNIT, 2, 64)
        with pytest.raises(ConstraintViolation):
            perturb_density(state, MX_UNIT, 3, 1e-3)
        with pytest.raises(ConstraintViolation):
            perturb_density(state, MX_UNIT, 0, 1e-3)
        with pytest.raises(ConstraintViolation):
            perturb_density(state, MX_UNIT, 1, 1e-3, shape="ramp")

    def test_velocity_shape_carries_no_initial_density(self):
        state = perturb_density(
            equilibrium_state(MX_UNIT, 2, 128), MX_UNIT, 1, 1e-3, shape="velocity"
        )
        # odd modulation: the density mode only appears once transport acts
        assert abs(rho_hat(state)[3]) < 1e-10
        moved = step(state, 0.05, W_POW, MX_UNIT, 0.0)
        assert abs(rho_hat(moved)[3]) > 1e-5


class TestPoissonField:
    def test_worked_single_mode(self):
        modes = np.arange(-2, 3)
        a = 0.3 - 0.4j
        rho = np.zeros(5, complex)
        rho[3], rho[1] = a, np.conj(a)
        e = poisson_field(rho, W_POW, modes)  # W_hat(1) = 1/2
        assert e[3] == pytest.approx(np.pi * 1j * a, abs=1e-15)
        assert e[1] == pytest.approx(-np.pi * 1j * np.conj(a), abs=1e-15)
        assert e[2] == 0.0

    def test_zero_density_and_zero_interaction(self):
        modes = np.arange(-3, 4)
        assert np.all(poisson_field(np.zeros(7, complex), W_POW, modes) == 0.0)
        rho = np.linspace(-1, 1, 7).astype(complex)
        assert np.all(poisson_field(rho, W_ZERO, modes) == 0.0)

    def test_mean_mode_forced_to_zero(self):
        modes = np.arange(-1, 2)
        rho = np.array([0.0, 5.0, 0.0], complex)
        assert np.all(poisson_field(rho, W_POW, modes) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConstraintViolation):
            poisson_field(np.zeros(3, complex), W_POW, np.arange(-2, 3))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_field_inherits_hermitian_symmetry(self, k_max):
        rng = np.random.default_rng(k_max)
        modes = np.arange(-k_max, k_max + 1)
        rho = rng.normal(size=modes.size) + 1j * rng.normal(size=modes.size)
        rho = 0.5 * (rho + np.conj(rho[::-1]))
        e = poisson_field(rho, W_POW, modes)
        # a real density produces a real field: E(-k) = conj(E(k))
        assert np.abs(e - np.conj(e[::-1])).max() < 1e-14


class TestCollisionSubstep:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.n_v, self.v_max = 64, 6.0
        self.dv = 2.0 * self.v_max / self.n_v
        self.f = rng.normal(size=(5, self.n_v)) + 1j * rng.normal(size=(5, self.n_v))
        self.rho = self.dv * self.f.sum(axis=1)

    def test_matches_high_order_ode_reference(self):
        nu, dt = 0.7, 0.9
        out = collision_substep(self.f, self.rho, dt, nu, MX_UNIT, v_max=self.v_max)
        f0 = kin._equilibrium_rows(MX_UNIT, self.n_v, self.v_max)
        n = self.f.size

        def rhs(t, y):
            g = (y[:n] + 1j * y[n:]).reshape(self.f.shape)
            r = self.dv * g.sum(axis=1)
            d = nu * (np.outer(r, f0) - g)
            return np.concatenate([d.real.ravel(), d.imag.ravel()])

        y0 = np.concatenate([self.f.real.ravel(), self.f.imag.ravel()])
        sol = solve_ivp(rhs, (0.0, dt), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        ref = (sol.y[:n, -1] + 1j * sol.y[n:, -1]).reshape(self.f.shape)
        assert np.abs(out - ref).max() < 1e-12

    def test_density_modes_exactly_invariant(self):
        out = collision_substep(self.f, self.rho, 0.37, 1.3, MX_UNIT, v_max=self.v_max)
        rho_after = self.dv * out.sum(axis=1)
        assert np.abs(rho_after - self.rho).max() < 1e-14

    def test_identity_cases(self):
        assert np.array_equal(
            collision_substep(self.f, self.rho, 0.9, 0.0, MX_UNIT, v_max=self.v_max),
            self.f,
        )
        assert np.array_equal(
            collision_substep(self.f, self.rho, 0.0, 0.7, MX_UNIT, v_max=self.v_max),
            self.f,
        )

    def test_infinite_time_lands_on_relaxed_state(self):
        out = collision_substep(self.f, self.rho, np.inf, 0.7, MX_UNIT, v_max=self.v_max)
        f0 = kin._equilibrium_rows(MX_UNIT, self.n_v, self.v_max)
        assert np.abs(out - np.outer(self.rho, f0)).max() == 0.0

    def test_preconditions(self):
        with pytest.raises(ConstraintViolation):
            collision_substep(self.f, self.rho, 0.1, -0.1, MX_UNIT, v_max=self.v_max)
        with pytest.raises(ConstraintViolation):
            collision_substep(self.f, self.rho[:3], 0.1, 0.1, MX_UNIT, v_max=self.v_max)
        with pytest.raises(ConstraintViolation):
            collision_substep(self.f, self.rho, np.nan, 0.1, MX_UNIT, v_max=self.v_max)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.01, max_value=1.5),
        st.floats(min_value=0.01, max_value=1.5),
    )
    def test_relaxation_semigroup(self, nu, dt1, dt2):
        a = collision_substep(self.f, self.rho, dt1, nu, MX_UNIT, v_max=self.v_max)
        rho_a = self.dv * a.sum(axis=1)
        b = collision_substep(a, rho_a, dt2, nu, MX_UNIT, v_max=self.v_max)
        c = collision_substep(self.f, self.rho, dt1 + dt2, nu, MX_UNIT, v_max=self.v_max)
        assert np.abs(b - c).max() < 1e-13 * np.abs(c).max()


class TestFreeTransport:
    def test_density_trace_matches_shifted_transform(self):
        eps = 1e-5
        state = perturb_density(
            equilibrium_state(MX_COLD, 2, 512), MX_COLD, 1, eps
        )
        # recurrence time 1/dv = 853.3; march dt=0.5 to 80% of it
        checkpoints = {10: None, 200: None, 680: None, 1360: None}
        for j in range(1, 1361):
            state = step(state, 0.5, W_ZERO, MX_COLD, 0.0)
            if j in checkpoints:
                t = 0.5 * j
                got = rho_hat(state)[state.k_max + 1]
                want = 0.5 * eps * profile_fourier(MX_COLD, t)
                assert abs(got - want) < 1e-10

    def test_full_spectrum_identity_inside_window(self):
        # the eta window represents the shifted transform up to ~40% of the
        # recurrence time; past that the comparison would alias
        eps = 1e-5
        state = perturb_density(
            equilibrium_state(MX_COLD, 2, 512), MX_COLD, 1, eps
        )
        for _ in range(680):
            state = step(state, 0.5, W_ZERO, MX_COLD, 0.0)
        table = spectral_snapshot(state)
        want = 0.5 * eps * profile_fourier(MX_COLD, table.eta_grid + state.time)
        assert np.abs(table.row(1) - want).max() < 1e-10
        want_minus = 0.5 * eps * profile_fourier(MX_COLD, table.eta_grid - state.time)
        assert np.abs(table.row(-1) - want_minus).max() < 1e-10

    def test_dt_zero_is_identity(self):
        state = small_state()
        assert step(state, 0.0, W_POW, MX_UNIT, 0.3) is state

    def test_time_reversal_restores_initial_state(self):
        initial = small_state(amp=0.3)
        state = initial
        for _ in range(40):
            state = step(state, 0.05, W_ZERO, MX_UNIT, 0.0)
        for _ in range(40):
            state = step(state, -0.05, W_ZERO, MX_UNIT, 0.0)
        assert state.time == pytest.approx(0.0, abs=1e-12)
        assert np.abs(state.f - initial.f).max() < 1e-9

    def test_phase_budget_guard(self):
        state = equilibrium_state(MX_UNIT, 8, 64)  # corner phase 48 per unit dt
        with pytest.raises(StepTooCoarse):
            step(state, 0.1, W_POW, MX_UNIT, 0.0)
        with pytest.raises(ConstraintViolation):
            step(state, np.inf, W_POW, MX_UNIT, 0.0)
        with pytest.raises(ConstraintViolation):
            step(state, 0.01, W_POW, MX_UNIT, -1.0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.08),
        st.floats(min_value=0.01, max_value=0.08),
    )
    def test_free_flight_steps_compose(self, dt1, dt2):
        state = small_state(amp=0.1)
        one = step(step(state, dt1, W_ZERO, MX_UNIT, 0.0), dt2, W_ZERO, MX_UNIT, 0.0)
        both = step(state, dt1 + dt2, W_ZERO, MX_UNIT, 0.0)
        assert np.abs(one.f - both.f).max() < 1e-12


class TestStepAccuracy:
    @staticmethod
    def _march(dt, n, amp=0.2):
        state = perturb_density(equilibrium_state(MX_COLD, 4, 256), MX_COLD, 1, amp)
        for _ in range(n):
            state = step(state, dt, W_POW, MX_COLD, 0.0)
        return state.f

    def test_richardson_order_is_second(self):
        T = 1.6
        ref = self._march(T / 256, 256)
        errs = [np.abs(self._march(T / n, n) - ref).max() for n in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_mass_conserved_through_nonlinear_run(self):
        cfg = KineticRun(
            profile=MX_COLD, interaction=W_POW, nu=0.01, dt=0.05, t_end=10.0,
            k_pert=1, amplitude=0.01, k_max=4, n_v=256, record_every=10,
        )
        _, diag = run(cfg)
        assert np.abs(diag["mass"] / diag["mass"][0] - 1.0).max() < 1e-10

    def test_equilibrium_is_a_fixed_point(self):
        state = equilibrium_state(MX_UNIT, 4, 256)
        for _ in range(20):
            state = step(state, 0.05, W_POW, MX_UNIT, 0.01)
        ref = equilibrium_state(MX_UNIT, 4, 256)
        assert np.abs(state.f - ref.f).max() < 1e-12

    def test_hermitian_symmetry_survives_strong_forcing(self):
        state = small_state(amp=0.3)
        for _ in range(60):
            state = step(state, 0.05, W_POW, MX_UNIT, 0.0)
        # half storage: the k < 0 rows are derived, so the pairing is exact
        assert np.array_equal(state.f, np.conj(state.f[::-1]))


def _oracle_setups():
    landau = perturb_density(equilibrium_state(MX_COLD, 4, 512), MX_COLD, 1, 1e-5)
    echo = perturb_density(equilibrium_state(MX_UNIT, 8, 512, v_max=6.0), MX_UNIT, 1, 1e-3)
    kick = np.zeros(9, complex)
    kick[2] = 0.5 * 1e-3 / 0.02  # the echo probe at mode -2 (and +2), one step
    return {
        "landau": (landau, 0.05, W_POW, MX_COLD, 0.01, None),
        "echo": (echo, 0.02, W_POW, MX_UNIT, 0.0, (100, kick)),
        "strong_forcing": (small_state(amp=0.3), 0.05, W_POW, MX_UNIT, 0.0, None),
    }


class TestAgainstFullComplexStep:
    @pytest.mark.parametrize("setup", ["landau", "echo", "strong_forcing"])
    def test_matches_reference_after_200_steps(self, setup):
        state, dt, W, profile, nu, probe = _oracle_setups()[setup]
        f = state.f.copy()
        for n in range(200):
            ext = probe[1] if probe is not None and n == probe[0] else None
            full_ext = None if ext is None else kin._full_modes(ext)
            state = step(state, dt, W, profile, nu, external_field_hat=ext)
            f = reference_step(f, state.k_max, state.v_max, dt, W, profile, nu, full_ext)
        assert np.abs(state.f - f).max() <= 1e-10 * np.abs(f).max()

    def test_v_nyquist_bin_takes_the_real_part_of_its_shift(self):
        # one kick in a uniform field a: the real column's Nyquist bin is scaled
        # by cos(pi a dt / dv), as in the full-complex kick after projection;
        # zeroing the bin would strip the equilibrium of its Nyquist content
        state = small_state(amp=0.3)
        dt = 0.05
        ext = np.zeros(state.k_max + 1, complex)
        ext[1] = 4.0 - 3.0j  # shifts up to ~0.4 rad at the Nyquist bin
        kicked = step(state, dt, W_ZERO, MX_UNIT, 0.0, external_field_hat=ext)
        ref = reference_step(state.f, state.k_max, state.v_max, dt, W_ZERO, MX_UNIT,
                             0.0, kin._full_modes(ext))
        nyq_new = np.fft.fft(kicked.rows, axis=1)[:, state.n_v // 2]
        nyq_ref = np.fft.fft(ref[state.k_max:], axis=1)[:, state.n_v // 2]
        unshifted = np.fft.fft(state.rows, axis=1)[:, state.n_v // 2]
        roundoff = 1e-13 * np.abs(state.rows).max()
        assert np.abs(nyq_new - nyq_ref).max() <= roundoff
        assert np.abs(nyq_new).max() > 1000.0 * roundoff  # not zeroed
        assert np.abs(nyq_new - unshifted).max() > 100.0 * roundoff  # not left alone


def _march_rows(amp, n_steps=50, k_max=4, n_v=256):
    state = perturb_density(equilibrium_state(MX_UNIT, k_max, n_v), MX_UNIT, 1, amp)
    for _ in range(n_steps):
        state = step(state, 0.05, W_POW, MX_UNIT, 0.01)
    return state.rows


# A short wide-grid Landau march; prints the digest of its recorded density.
_BLAS_PROBE = """
import hashlib
from dataclasses import replace
from vpkit.config import scenario_defaults
from vpkit.kinetic import run
config = replace(scenario_defaults("linear_landau").run, k_max=16, n_v=1024, t_end=1.0)
history, diag = run(config)
print(hashlib.sha256(history.rho_hat.tobytes() + diag["edge_fraction"].tobytes()).hexdigest())
"""


class TestMatrixKick:
    """The kick's x-transforms are cached real DFT matrices, and its work
    arrays belong to the march or step() call that made them: no returned
    state aliases them, and none outlives its run."""

    @pytest.mark.parametrize("k_max", [1, 2, 4, 8, 16])
    def test_matrices_are_the_real_ffts(self, k_max, rng):
        synth, analyze = kin._x_transforms(k_max)
        n_x = synth.shape[0]
        assert n_x == max(4 * k_max, 8)
        rows = rng.standard_normal((k_max + 1, 96)) + 1j * rng.standard_normal((k_max + 1, 96))
        rows[0] = rows[0].real
        f_x = synth @ np.concatenate([rows.real, rows.imag])
        want = n_x * np.fft.irfft(rows, n=n_x, axis=0)
        assert np.abs(f_x - want).max() <= 1e-14 * np.abs(want).max()
        back = analyze @ f_x
        want = np.fft.rfft(f_x, axis=0)[: k_max + 1] / n_x
        got = back[: k_max + 1] + 1j * back[k_max + 1:]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert not np.any(back[k_max + 1])  # row 0 comes back exactly real
        assert np.abs(got - rows).max() <= 1e-14 * np.abs(rows).max()

    def test_matrices_are_cached_read_only(self):
        synth, analyze = kin._x_transforms(4)
        assert kin._x_transforms(4)[0] is synth
        assert not synth.flags.writeable and not analyze.flags.writeable

    def test_row_zero_of_every_stepped_state_is_exactly_real(self):
        state = small_state(amp=0.3)
        ext = np.zeros(state.k_max + 1, complex)
        ext[0], ext[1] = 2.0 + 5.0j, 1.0 - 1.0j  # Im of mode 0 must not leak in
        for n in range(60):
            state = step(state, 0.05, W_POW, MX_UNIT, 0.01,
                         external_field_hat=ext if n % 7 == 0 else None)
            assert not np.any(state.rows[0].imag)

    def test_phase_table_is_written_into_out(self):
        theta = np.linspace(-0.7, 0.9, 12)
        for n in (1, 2, 16, 257, 513):
            R, Q = kin._phase_blocks(n)
            assert Q * R >= n and (Q * R) % 4 == 0
            out = np.empty((theta.size, Q * R), complex)
            assert kin._phase_powers(theta, np.arange(R), R * np.arange(Q), out) is out
            want = np.exp(1j * np.outer(theta, np.arange(Q * R)))
            assert np.abs(out - want).max() <= 1e-13

    def test_states_share_no_memory_with_each_other_or_the_scratch(self, monkeypatch):
        made, real_arrays = [], kin._step_arrays

        def recorded(plan):
            made.append(real_arrays(plan))
            return made[-1]

        monkeypatch.setattr(kin, "_step_arrays", recorded)
        states = [small_state(amp=0.3)]
        for _ in range(4):
            states.append(step(states[-1], 0.05, W_POW, MX_UNIT, 0.01))
        other = small_state(amp=0.1)
        for _ in range(2):
            other = step(other, 0.05, W_POW, MX_UNIT, 0.01)
        arrays = [s.rows for s in states] + [other.rows]
        assert len(made) == 6  # each step() call makes its own work arrays
        scratch = [b for work in made for b in work]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            assert not any(np.shares_memory(a, b) for b in scratch)
        monkeypatch.undo()
        # no work array outlives its run: a march drops the arrays it made
        wide = KineticRun(MX_COLD, W_POW, 0.01, 0.05, 1.0, amplitude=1e-3, k_max=16, n_v=1024)
        run(wide)  # warm: the wide grid's plan, DFT matrices and guard band are cached
        run(replace(wide, k_max=2, n_v=128))  # and a run on another grid came between
        tracemalloc.start()
        try:
            history, diagnostics = run(wide)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        returned = [history.times, history.modes, history.rho_hat, history.e_hat,
                    *(v for v in diagnostics.values() if isinstance(v, np.ndarray))]
        assert held - sum(a.nbytes for a in returned) < 0.5 * 2**20

    def test_threads_on_one_grid_give_the_sequential_bytes(self):
        # three threads switching often: a work array shared between them would tear
        amps = (0.2, 0.05, 0.1)
        sequential = [_march_rows(a) for a in amps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(amps)) as pool:
                futures = [pool.submit(_march_rows, a) for a in amps]
                threaded = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for seq, thr in zip(sequential, threaded):
            assert seq.tobytes() == thr.tobytes()

    def test_blas_thread_count_does_not_change_the_bytes(self):
        src = str(Path(kin.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


def fft_guard_fraction(state):
    """The edge-band fraction from a full complex FFT of every row k >= 1: the
    reference the band-only resolution_guard is checked against."""
    power = np.abs(np.fft.fft(state.rows[1:], axis=1)) ** 2
    total = float(power.sum())
    if total <= 0.0:
        return 0.0
    eta = np.fft.fftfreq(state.n_v, d=state.dv)
    band = np.abs(eta) >= (1.0 - kin.RESOLUTION_BAND) / (2.0 * state.dv)
    return float(power[:, band].sum() / total)


def guard_fraction(state):
    try:
        return resolution_guard(state)
    except ResolutionExceeded as err:
        return err.fraction


class TestResolutionGuard:
    @pytest.mark.parametrize("n_v, n_band", [(64, 1), (128, 3), (512, 11), (1024, 21)])
    def test_band_matrix_is_the_fft_band(self, n_v, n_band, rng):
        band = kin._edge_band(n_v)
        assert band.shape == (n_v, n_band) and not band.flags.writeable
        rows = rng.standard_normal((3, n_v)) + 1j * rng.standard_normal((3, n_v))
        eta = np.fft.fftfreq(n_v, d=0.1)
        want = np.fft.fft(rows, axis=1)[:, np.abs(eta) >= (1.0 - kin.RESOLUTION_BAND) / 0.2]
        assert np.abs(rows @ band - want).max() <= 1e-12 * np.abs(want).max()

    def test_band_guard_matches_the_fft_guard(self, rng):
        # measured gap: <= 4.2e-17 over Landau, echo, strong-forcing and random
        # states, where the fractions run from 1e-22 to 1e-3; the FFT's own
        # roundoff floor is about 1e-16 of the total
        tol = 1e-15
        landau = perturb_density(equilibrium_state(MX_COLD, 4, 512), MX_COLD, 1, 1e-5)
        echo = perturb_density(equilibrium_state(MX_UNIT, 8, 512, v_max=6.0), MX_UNIT, 1, 1e-3)
        kick = np.zeros(9, dtype=complex)
        kick[1:] = 5.0
        gaps = []
        for n in range(1, 121):
            landau = step(landau, 0.05, W_POW, MX_COLD, 0.01)
            echo = step(echo, 0.02, W_POW, MX_UNIT, 0.0,
                        external_field_hat=kick if n == 40 else None)
            if n % 20 == 0:
                for state in (landau, echo):
                    gaps.append(abs(guard_fraction(state) - fft_guard_fraction(state)))
        for k_max, n_v in ((2, 64), (4, 512), (16, 1024)):
            for _ in range(5):
                rows = rng.standard_normal((k_max + 1, n_v)) + 1j * rng.standard_normal(
                    (k_max + 1, n_v))
                rows[0] = rows[0].real
                state = PhaseState(rows=rows, time=0.0, k_max=k_max, v_max=3.0)
                gaps.append(abs(guard_fraction(state) - fft_guard_fraction(state)))
        assert max(gaps) <= tol

    def test_trips_on_filamentation_before_recurrence(self):
        # dv = 0.1875: recurrence at 5.33, the edge band fills around t ~ 2.3
        state = perturb_density(
            equilibrium_state(MX_UNIT, 2, 64, v_max=6.0), MX_UNIT, 1, 1e-3
        )
        with pytest.raises(ResolutionExceeded, match="eta"):
            for _ in range(80):
                state = step(state, 0.05, W_ZERO, MX_UNIT, 0.0)
                resolution_guard(state)
        assert 1.0 < state.time < 4.3

    def test_run_truncates_and_reports_stop_reason(self):
        cfg = KineticRun(
            profile=MX_UNIT, interaction=W_ZERO, nu=0.0, dt=0.05, t_end=8.0,
            k_pert=1, amplitude=1e-3, k_max=2, n_v=64, v_max=6.0, record_every=2,
        )
        hist, diag = run(cfg)
        assert diag["stop_reason"] == "resolution_exceeded"
        assert hist.times[-1] < 4.3
        assert diag["t"].size == hist.times.size
        # the trip is kept: the record time it happened at and the tripping value
        assert diag["stop_time"] == hist.times[-1] + 2 * cfg.dt
        assert diag["stop_edge_fraction"] > kin.RESOLUTION_TOL
        assert np.all(diag["edge_fraction"] <= kin.RESOLUTION_TOL)
        assert diag["edge_fraction"].size == hist.times.size

    def test_resolved_states_pass(self):
        assert resolution_guard(equilibrium_state(MX_UNIT, 2, 128)) == 0.0
        fresh = small_state()
        assert resolution_guard(fresh) < 1e-3


class TestRunDiagnostics:
    def test_unperturbed_run_stays_quiet(self):
        cfg = KineticRun(
            profile=MX_UNIT, interaction=W_POW, nu=0.01, dt=0.05, t_end=3.0,
            amplitude=0.0, k_max=4, n_v=128, record_every=10,
        )
        hist, diag = run(cfg)
        assert np.abs(hist.e_hat).max() == 0.0
        assert np.abs(diag["mass"] - 1.0).max() < 1e-12
        assert np.abs(diag["l2"] / diag["l2"][0] - 1.0).max() < 1e-12

    def test_record_grid(self):
        cfg = KineticRun(
            profile=MX_UNIT, interaction=W_POW, nu=0.0, dt=0.05, t_end=2.0,
            k_pert=1, amplitude=1e-3, k_max=4, n_v=128, record_every=10,
        )
        hist, diag = run(cfg)
        assert hist.times[0] == 0.0
        assert hist.times[-1] == pytest.approx(2.0)
        assert np.allclose(np.diff(hist.times), 0.5)

    def test_record_times_are_multiples_of_dt(self):
        cfg = KineticRun(
            profile=MX_UNIT, interaction=W_POW, nu=0.0, dt=0.1, t_end=3.0,
            k_pert=1, amplitude=1e-3, k_max=2, n_v=128, record_every=3,
        )
        hist, diag = run(cfg)
        # 0.1 summed 30 times is 3.0000000000000013; 30 * 0.1 is 3.0
        assert np.array_equal(diag["t"], np.arange(0, 31, 3) * 0.1)
        assert np.array_equal(hist.times, diag["t"])
        assert diag["t"][-1] == 3.0
        assert diag["stop_reason"] == "t_end" and diag["stop_time"] == 3.0
        assert diag["edge_fraction"].shape == diag["t"].shape
        assert np.all(diag["edge_fraction"] < kin.RESOLUTION_TOL)
        assert diag["stop_edge_fraction"] == diag["edge_fraction"][-1]

    def test_history_derives_its_field_from_the_density(self):
        times = np.arange(3.0)
        modes = np.arange(-1, 2)
        rho = np.zeros((3, 3), complex)
        rho[:, 2], rho[:, 0] = 1e-3, 1e-3
        hist = FieldHistory(times, modes, rho, W_POW)
        assert np.array_equal(hist.e_hat, poisson_field(rho, W_POW, modes))
        with pytest.raises(ConstraintViolation, match="two or more"):
            FieldHistory(times[:1], modes, rho[:1], W_POW)

    def test_config_validation(self):
        base = dict(profile=MX_UNIT, interaction=W_POW, nu=0.0, dt=0.05, t_end=1.0)
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "nu": -1.0})
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "dt": 0.0})
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "t_end": 1.03})  # off the step grid
        with pytest.raises(ConstraintViolation, match="integer number of steps"):
            KineticRun(**{**base, "dt": 2e-320})  # t_end / dt overflows to inf
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "amplitude": 1e-3, "k_pert": 99})
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "amplitude": 1e-3, "pert_shape": "ramp"})
        with pytest.raises(ConstraintViolation):
            KineticRun(**{**base, "record_every": 0})


def _landau(nu):
    cfg = KineticRun(
        profile=MX_COLD, interaction=W_POW, nu=nu, dt=0.05, t_end=45.0,
        k_pert=1, amplitude=1e-5, k_max=4, n_v=512, record_every=1,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def landau_nu0():
    return _landau(0.0)


@pytest.fixture(scope="module")
def landau_nu001():
    return _landau(1e-2)


class TestLinearRegime:
    """The marched model against the closed linear theory at eps = 1e-5."""

    def test_damping_rate_collisionless(self, landau_nu0):
        hist, _ = landau_nu0
        rate, _, _ = damping_rate_fit(
            (hist.times, hist.rho_hat[:, hist.k_max + 1]), (4.0, 42.0)
        )
        assert -rate == pytest.approx(RATE_NU0, rel=0.01)

    def test_damping_rate_collisional(self, landau_nu001):
        hist, _ = landau_nu001
        rate, _, _ = damping_rate_fit(
            (hist.times, hist.rho_hat[:, hist.k_max + 1]), (4.0, 42.0)
        )
        assert -rate == pytest.approx(RATE_NU001, rel=0.01)

    def test_field_mode_decays_at_the_density_rate(self, landau_nu0):
        hist, _ = landau_nu0
        rate, _, _ = damping_rate_fit(
            (hist.times, np.abs(hist.e_hat[:, hist.k_max + 1])), (4.0, 42.0)
        )
        assert -rate == pytest.approx(RATE_NU0, rel=0.01)

    @pytest.mark.parametrize("nu", [0.0, 1e-2])
    def test_mode_trace_tracks_volterra_solution(self, nu, landau_nu0, landau_nu001):
        hist, _ = landau_nu0 if nu == 0.0 else landau_nu001
        kern = VolterraKernel(
            nu=nu, k=1, profile=MX_COLD, interaction=W_POW, dt=0.05, horizon=45.0
        )
        sol = volterra_solve(lambda t: 0.5e-5 * profile_fourier(MX_COLD, t), kern)
        mode = hist.rho_hat[:, hist.k_max + 1]
        n = min(mode.size, sol.rho_hat.size)
        diff = np.abs(mode[:n] - sol.rho_hat[:n]).max()
        assert diff < 0.01 * np.abs(sol.rho_hat[:n]).max()

    def test_mass_and_poisson_consistency(self, landau_nu001):
        hist, diag = landau_nu001
        assert np.abs(diag["mass"] / diag["mass"][0] - 1.0).max() < 1e-10
        expected = poisson_field(hist.rho_hat[-1], W_POW, hist.modes)
        assert np.abs(hist.e_hat[-1] - expected).max() < 1e-15


ECHO_CFG = KineticRun(
    profile=MX_UNIT, interaction=W_POW, nu=0.0, dt=0.02, t_end=12.5,
    k_max=8, n_v=512, v_max=6.0, record_every=25,
)


def shipped_probe(eps1, eps2):
    """The echo_probe of the run (eps1, eps2) of the shipped probe: l = 1
    kicked at m = -2 at s = 5, its echo on k = -1 at t* = 10."""
    from vpkit.acceptance import echo_probe

    return echo_probe(ECHO_CFG, 1, -2, 5.0, eps1, eps2)


@pytest.fixture(scope="module")
def base_report():
    return shipped_probe(1e-3, 1e-3)


@pytest.fixture(scope="module")
def quiet_report():
    return shipped_probe(1e-3, 0.0)


@pytest.fixture(scope="module")
def doubled_reports():
    return shipped_probe(2e-3, 1e-3), shipped_probe(1e-3, 2e-3)


def count_steps(monkeypatch):
    """Count applications of the step kernel, which step() and every march run.

    The marches are held in this process: a forked lane of _side_by_side
    would count into its own copy of the list."""
    calls = []
    real_advance = kin._advance

    def counted(*args, **kwargs):
        calls.append(1)
        return real_advance(*args, **kwargs)

    monkeypatch.setattr(kin, "_advance", counted)
    monkeypatch.setattr(kin, "_lanes", lambda n_calls: 1)
    return calls


def two_lanes(monkeypatch):
    """Let _side_by_side fork one lane whatever the CPUs and threads."""
    monkeypatch.setattr(kin, "_lanes", lambda n_calls: min(n_calls, 2))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSideBySide:
    def test_results_come_back_in_call_order(self, monkeypatch):
        two_lanes(monkeypatch)
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        got = kin._side_by_side([lambda i=i: (i, os.getpid(), os.sched_getaffinity(0))
                                 for i in range(5)])
        assert [i for i, _, _ in got] == list(range(5))
        # calls 0, 2, 4 ran here, 1 and 3 in one forked child, each lane held
        # to its own CPU while it ran; this process's mask is back
        assert {pid for _, pid, _ in got[::2]} == {os.getpid()}
        assert len({pid for _, pid, _ in got[1::2]} - {os.getpid()}) == 1
        assert [cpu for _, _, cpu in got] == [{cpus[lane % len(cpus)]} for lane in (0, 1, 0, 1, 0)]
        assert os.sched_getaffinity(0) == mask
        assert_no_child_left()

    def test_a_childs_exception_reaches_the_caller_whole(self, monkeypatch):
        two_lanes(monkeypatch)

        def trip():
            raise ResolutionExceeded("edge band full", fraction=0.25, time=3.5)

        with pytest.raises(ResolutionExceeded, match="edge band full") as caught:
            kin._side_by_side([lambda: 1, trip])
        assert (caught.value.fraction, caught.value.time) == (0.25, 3.5)
        assert_no_child_left()

    def test_the_first_failure_in_call_order_is_raised(self, monkeypatch):
        two_lanes(monkeypatch)

        def fails(message):
            def call():
                raise ValueError(message)
            return call

        # call 1 runs in the child, call 2 here after call 0
        with pytest.raises(ValueError, match="call 1"):
            kin._side_by_side([lambda: 0, fails("call 1"), fails("call 2")])
        with pytest.raises(ValueError, match="call 0"):
            kin._side_by_side([fails("call 0"), fails("call 1")])
        assert_no_child_left()

    def test_a_child_that_exits_without_a_result_raises(self, monkeypatch):
        two_lanes(monkeypatch)
        with pytest.raises(VpkitError, match="status 3"):
            kin._side_by_side([lambda: 1, lambda: os._exit(3)])
        assert_no_child_left()

    def test_an_interrupted_caller_kills_and_reaps_its_child(self, monkeypatch):
        import time

        two_lanes(monkeypatch)

        def interrupted():
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            kin._side_by_side([interrupted, lambda: time.sleep(60)])
        assert time.perf_counter() - t0 < 30.0
        assert_no_child_left()

    def test_a_childs_warnings_are_issued_here(self, monkeypatch):
        import warnings

        two_lanes(monkeypatch)

        def warns():
            warnings.warn("from the forked lane", RuntimeWarning)
            return 2

        with pytest.warns(RuntimeWarning, match="from the forked lane"):
            assert kin._side_by_side([lambda: 1, warns]) == [1, 2]

    def test_one_cpu_or_a_second_thread_never_forks(self, monkeypatch):
        import threading

        forks = []

        def refused():
            forks.append(1)
            raise OSError(11, "fork refused")

        calls = [lambda: 1, lambda: 2, lambda: 3]
        single_threaded = kin._single_threaded
        pins = []
        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(cpus))
        monkeypatch.setattr(kin, "_single_threaded", lambda: True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert kin._side_by_side(calls) == [1, 2, 3] and forks == [] and pins == []
        # the control: two CPUs and one thread fork a lane, which runs here
        # when the fork fails, with this process held to the first CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert kin._side_by_side(calls) == [1, 2, 3] and forks == [1]
        assert pins == [{0}, {0, 1}]
        monkeypatch.setattr(kin, "_single_threaded", single_threaded)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not kin._single_threaded()
            assert kin._side_by_side(calls) == [1, 2, 3] and forks == [1]
        finally:
            release.set()
            thread.join()

    def test_echo_runs_side_by_side_match_the_serial_bytes(self, monkeypatch):
        short = replace(ECHO_CFG, t_end=1.0, k_max=4, n_v=128)
        runs = [partial(echo_experiment, short, 1, -2, 0.5, *amps)
                for amps in ((1e-3, 1e-3), (1e-3, 0.0), (2e-3, 1e-3))]
        monkeypatch.setattr(kin, "_lanes", lambda n_calls: 1)
        serial = kin._side_by_side(runs)
        two_lanes(monkeypatch)
        forked = kin._side_by_side(runs)
        assert len(serial) == len(forked) == 3
        for (times, trace), (forked_times, forked_trace) in zip(serial, forked):
            assert forked_times.tobytes() == times.tobytes()
            assert forked_trace.tobytes() == trace.tobytes()
        assert_no_child_left()


class TestEchoExperiment:
    def test_echo_arrives_at_predicted_time(self, base_report, quiet_report):
        rep = base_report
        assert rep["t_predicted"] == pytest.approx(10.0)
        assert abs(rep["t_measured"] - rep["t_predicted"]) / rep["t_predicted"] < 0.05
        assert rep["peak_amp"] > 100.0 * quiet_report["peak_amp"]

    def test_zero_kick_shows_no_echo(self, quiet_report):
        # without the probe the mode-k channel never rises above the
        # cubic-order background, orders of magnitude below a real echo
        assert quiet_report["peak_amp"] < 1e-10

    def test_peak_scales_bilinearly(self, base_report, doubled_reports):
        double1, double2 = doubled_reports
        assert double1["peak_amp"] / base_report["peak_amp"] == pytest.approx(2.0, rel=0.10)
        assert double2["peak_amp"] / base_report["peak_amp"] == pytest.approx(2.0, rel=0.10)

    def test_report_round_trip(self, base_report):
        # echo.json carries the probe's numbers, each float to the bit
        from vpkit.cli import _json_bytes

        assert set(base_report) == {"t_predicted", "t_measured", "peak_amp", "oracle_gap"}
        again = json.loads(_json_bytes(base_report))
        assert {key: float(value) for key, value in again.items()} == base_report

    def test_zero_kick_marches_once(self, monkeypatch):
        short = replace(ECHO_CFG, t_end=1.0, k_max=4, n_v=128)
        calls = count_steps(monkeypatch)
        echo_experiment(short, 1, -2, 0.5, 1e-3, 0.0)
        assert len(calls) == short.n_steps

    def test_trace_times_sit_on_the_step_grid(self):
        short = replace(ECHO_CFG, t_end=1.0, k_max=4, n_v=128)
        times, _ = echo_experiment(short, 1, -2, 0.5, 1e-3, 1e-3)
        assert np.array_equal(times, np.arange(short.n_steps + 1) * short.dt)
        assert times[-1] == 1.0

    def test_criterion_9_marches_each_distinct_run_once(self, monkeypatch, base_report):
        from vpkit.acceptance import ECHO_CONFIG, criterion_9

        assert ECHO_CONFIG == ECHO_CFG
        calls = count_steps(monkeypatch)
        cache = {}
        result = criterion_9(cache)
        assert result.passed
        # only the probe run marches: the 250 steps to the kick, then the
        # remaining 375; its second-order march (echo_oracle) takes no step
        assert ECHO_CFG.n_steps == 625 and round(5.0 / ECHO_CFG.dt) == 250
        assert len(calls) == 250 + 375
        assert cache[("echo",)] == base_report
        assert base_report["oracle_gap"] == result.measured["oracle_gap"]
        assert list(cache) == [("echo",)]  # no trace is kept beside the criterion's numbers
        criterion_9(cache)
        assert len(calls) == 250 + 375

    def test_the_echo_scenario_marches_one_run(self, monkeypatch, tmp_path):
        from vpkit.cli import main

        calls = count_steps(monkeypatch)
        config = Path(__file__).resolve().parents[1] / "configs" / "echo.ini"
        assert main(["run", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        # the probe run's 625 steps; its second-order march takes no step
        assert len(calls) == 625

    def test_recurrence_guard(self):
        coarse = KineticRun(
            profile=MX_UNIT, interaction=W_POW, nu=0.0, dt=0.02, t_end=12.5,
            k_max=8, n_v=64, v_max=6.0,
        )
        with pytest.raises(EchoBeyondRecurrence):
            echo_experiment(coarse, 1, -2, 5.0, 1e-3, 1e-3)

    def test_validation(self):
        with pytest.raises(ConstraintViolation, match="no future echo"):
            echo_experiment(ECHO_CFG, 1, 2, 5.0, 1e-3, 1e-3)
        with pytest.raises(ConstraintViolation, match="step grid"):
            echo_experiment(ECHO_CFG, 1, -2, 5.007, 1e-3, 1e-3)
        with pytest.raises(ConstraintViolation, match=r"arrives at t\* = 14, after t_end"):
            echo_experiment(ECHO_CFG, 1, -2, 7.0, 1e-3, 1e-3)  # t* = 14 > 12.5
        with pytest.raises(ConstraintViolation, match="responds on mode 0: no future echo"):
            echo_experiment(ECHO_CFG, 1, -1, 5.0, 1e-3, 1e-3)  # k = 0
        with pytest.raises(ConstraintViolation, match=r"nonzero with \|force_mode\| <= k_max"):
            echo_experiment(ECHO_CFG, 1, -12, 5.0, 1e-3, 1e-3)
        with pytest.raises(ConstraintViolation):
            echo_experiment(ECHO_CFG, 1, -2, 5.0, 0.0, 1e-3)

    @pytest.mark.parametrize("bad", [(0.0, 1e-3), (1e-3, -1e-3), (np.nan, 1e-3)])
    def test_a_bad_run_anywhere_in_the_list_is_refused_before_any_step(self, monkeypatch, bad):
        calls = count_steps(monkeypatch)
        with pytest.raises(ConstraintViolation, match="amplitude must be"):
            echo_experiment(ECHO_CFG, 1, -2, 5.0, *bad)
        assert calls == []


def _stepped(config, state, n_steps, kick=None):
    """The states of a march of config made by public step() calls; kick is
    (n, external field) for an impulse in the step that starts after n steps."""
    states = [state]
    for n in range(n_steps):
        ext = kick[1] if kick is not None and n == kick[0] else None
        states.append(step(states[-1], config.dt, config.interaction, config.profile,
                           config.nu, external_field_hat=ext))
    return states


def _record_steps(config, n0, n1):
    return [n for n in range(n0, n1 + 1) if n % config.record_every == 0 or n == n1]


def _start(config, k=None, amplitude=None):
    state = equilibrium_state(config.profile, config.k_max, config.n_v, config.resolved_v_max())
    return perturb_density(state, config.profile, k or config.k_pert,
                           config.amplitude if amplitude is None else amplitude,
                           config.pert_shape)


def _density_rows(states):
    return np.array([s.dv * s.rows.sum(axis=1) for s in states])


MARCH_SETUPS = {
    "free_flight_k2_v512": KineticRun(
        profile=MX_UNIT, interaction=W_ZERO, nu=0.0, dt=0.05, t_end=2.0, k_pert=1,
        amplitude=1e-3, k_max=2, n_v=512, record_every=4),
    "landau_k4_v512_nu001": KineticRun(
        profile=MX_COLD, interaction=W_POW, nu=0.01, dt=0.05, t_end=2.0, k_pert=1,
        amplitude=1e-3, k_max=4, n_v=512),
    "nonlinear_k4_v256_every5": KineticRun(
        profile=MX_UNIT, interaction=W_POW, nu=0.01, dt=0.02, t_end=1.0, k_pert=1,
        amplitude=0.1, k_max=4, n_v=256, v_max=6.0, record_every=5),
}


class TestMergedMarch:
    """run, the echo marches and the free-transport march all go through
    kinetic._march, which must make the bytes a loop of public step() calls
    makes: rows, recorded densities, guard fractions and the repeated-sum
    time (criterion 1's spectrum_error reads its mid state's time)."""

    @pytest.mark.parametrize("name", sorted(MARCH_SETUPS))
    def test_run_and_march_equal_a_step_loop(self, name):
        config = MARCH_SETUPS[name]
        start = _start(config)
        states = _stepped(config, start, config.n_steps)
        recs = _record_steps(config, 0, config.n_steps)
        recorded = [states[n] for n in recs]

        hist, diag = run(config)
        assert hist.rho_hat.tobytes() == np.array([rho_hat(s) for s in recorded]).tobytes()
        assert np.array_equal(diag["t"], np.array(recs) * config.dt)
        assert diag["edge_fraction"].tobytes() == np.array(
            [resolution_guard(s) for s in recorded]).tobytes()
        assert diag["mass"].tobytes() == np.array(
            [float((s.dv * s.rows.sum(axis=1))[0].real) for s in recorded]).tobytes()
        assert diag["momentum"].tobytes() == np.array(
            [float((s.dv * np.dot(s.rows[0], s.v)).real) for s in recorded]).tobytes()
        power = [np.abs(s.rows) ** 2 for s in recorded]
        assert diag["l2"].tobytes() == np.array(
            [float(np.sqrt(s.dv * (p[0].sum() + 2.0 * p[1:].sum())))
             for s, p in zip(recorded, power)]).tobytes()

        march = kin._march(config, start, 0, config.n_steps, guard="raise",
                           keep=config.n_steps // 2)
        for got, want in ((march.state, states[-1]), (march.kept, states[config.n_steps // 2])):
            assert got.rows.tobytes() == want.rows.tobytes()
            assert got.time == want.time
        assert march.rho.tobytes() == _density_rows(states).tobytes()
        assert march.records.tolist() == recs
        assert march.edge == [resolution_guard(s) for s in recorded]
        assert not np.shares_memory(march.state.rows, start.rows)

    def test_free_transport_march_equals_a_step_loop(self):
        from vpkit.acceptance import free_transport_march

        config = MARCH_SETUPS["free_flight_k2_v512"]
        states = _stepped(config, _start(config), config.n_steps)
        recs = _record_steps(config, 0, config.n_steps)
        march = free_transport_march(config)
        mid = states[config.n_steps // 2]
        assert march["mid_state"].rows.tobytes() == mid.rows.tobytes()
        assert march["mid_state"].time == mid.time
        assert march["hist"].rho_hat.tobytes() == np.array(
            [rho_hat(states[n]) for n in recs]).tobytes()
        assert march["guard_peak"] == max(resolution_guard(states[n]) for n in recs)
        assert march["guard_trip_time"] is None

    def test_echo_march_with_its_impulse_equals_a_step_loop(self):
        l, m, s_force, eps1, j_kick = 1, -2, 0.4, 1e-3, 20
        # the shipped grid (8, 512), and a cadence of 3 that puts no record on
        # the kick; a kicked run and an unkicked one
        for config, eps2 in ((replace(ECHO_CFG, t_end=1.0), 1e-3),
                             (replace(ECHO_CFG, t_end=1.0, k_max=4, n_v=128, record_every=3), 2e-3),
                             (replace(ECHO_CFG, t_end=1.0, k_max=4, n_v=128, record_every=3), 0.0)):
            kick = np.zeros(config.k_max + 1, dtype=complex)
            kick[abs(m)] = 0.5 * eps2 / config.dt
            states = _stepped(config, _start(config, l, eps1), config.n_steps,
                              (j_kick, kick if eps2 else None))
            _, trace = echo_experiment(config, l, m, s_force, eps1, eps2)
            want = _density_rows(states)[:, abs(l + m)]
            assert trace.tobytes() == np.hypot(want.real, want.imag).tobytes()
            rest = kin._march(config, states[j_kick + 1], j_kick + 1, config.n_steps,
                              guard="raise")
            assert rest.state.rows.tobytes() == states[-1].rows.tobytes()
            assert rest.state.time == states[-1].time
            assert rest.edge == [resolution_guard(states[n])
                                 for n in _record_steps(config, j_kick + 1, config.n_steps)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("march", ["run", "free_transport", "echo"])
    def test_non_finite_rows_raise_before_anything_is_recorded(self, monkeypatch, bad, march):
        from vpkit.acceptance import free_transport_march

        real_advance, real_guard = kin._advance, kin._edge_fraction
        steps, guarded = [], []

        def poisoned(plan, src, f, work, external=None):
            real_advance(plan, src, f, work, external)
            steps.append(1)
            if len(steps) == 6:  # between records: the cadence below is 4
                f[1, 7] = bad

        def watched(rows, time):
            guarded.append(bool(np.isfinite(rows).all()))
            return real_guard(rows, time)

        monkeypatch.setattr(kin, "_advance", poisoned)
        monkeypatch.setattr(kin, "_edge_fraction", watched)
        config = replace(MARCH_SETUPS["free_flight_k2_v512"], interaction=W_POW)
        with pytest.raises(ConstraintViolation, match="non-finite"), np.errstate(all="ignore"):
            if march == "run":
                run(config)
            elif march == "free_transport":
                free_transport_march(config)
            else:  # l = 1 kicked at m = -2 at s = 0.5: the echo on k = -1 at t* = 1
                echo_experiment(config, 1, -2, 0.5, 1e-3, 1e-3)
        assert len(steps) < config.n_steps and guarded and all(guarded)

    def test_guard_policies(self):
        from vpkit.acceptance import free_transport_march

        # dv = 0.1875: the edge band fills around t ~ 2.3, before recurrence at 5.33
        config = KineticRun(
            profile=MX_UNIT, interaction=W_ZERO, nu=0.0, dt=0.05, t_end=8.0, k_pert=1,
            amplitude=1e-3, k_max=2, n_v=64, v_max=6.0, record_every=2,
        )
        stopped = kin._march(config, _start(config), 0, config.n_steps, guard="stop")
        observed = kin._march(config, _start(config), 0, config.n_steps, guard="observe")
        n_trip, err = stopped.trip
        assert observed.trip[0] == n_trip and 1.0 < n_trip * config.dt < 4.3
        assert stopped.records[-1] == n_trip - config.record_every
        assert observed.records[-1] == config.n_steps
        assert max(observed.edge) > kin.RESOLUTION_TOL >= max(stopped.edge)
        assert err.fraction in observed.edge
        # a kept trip holds no traceback, whose frames would keep the march alive
        assert err.__traceback__ is None and observed.trip[1].__traceback__ is None
        with pytest.raises(ResolutionExceeded):
            kin._march(config, _start(config), 0, config.n_steps, guard="raise")
        with pytest.raises(ValueError, match="policy"):
            kin._march(config, _start(config), 0, 4, guard="ignore")
        # run stops where the free-transport march only reports the trip
        _, diag = run(config)
        free = free_transport_march(config)
        assert diag["stop_time"] == free["guard_trip_time"] == n_trip * config.dt
        assert free["hist"].times[-1] == config.t_end
        assert free["guard_peak"] == max(observed.edge)
