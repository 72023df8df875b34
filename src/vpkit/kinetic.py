"""Spectral solver for the weakly collisional Vlasov model on the torus.

The state is carried in mixed representation: Fourier modes in x against a
uniform velocity grid. The distribution is real, so fhat(-k, v) =
conj(fhat(k, v)) and only the rows k = 0 .. k_max are stored (half storage);
the full table over k = -k_max .. k_max is a derived view, Hermitian by
construction. In this picture free transport and the velocity kick are exact
phase multiplications, and the relaxation toward rho(t,x) f0(v) has a
closed-form update, so a time step is three exact maps composed in Strang
order: half transport, field solve plus kick, collision, half transport.
The kick works on real data throughout: its x-transforms are two cached
real DFT matrix products, and v uses real FFTs.

The constants of a step sit in a read-only plan cached per (grid, dt, W,
profile, nu), and one kernel applies a plan to half-storage rows: step()
runs it once on a fresh buffer, and every multi-step run (run, the echo
runs, the free-transport march) goes through one march that advances its
own copy of the rows in place, records on the rows, and builds a PhaseState
only for the states it hands out. The kernel keeps no state: a march
allocates the step's work arrays once, a step() call its own, and each drops
them on return.

Marches that do not depend on each other (the battery's Landau runs, the
echo runs from their shared prefixes) can go side by side: _side_by_side
runs lane 0 of a list of calls in this process and each other lane in an
os.fork()ed child, one lane held to each CPU, when the process runs a
single thread (pin BLAS to one thread, OPENBLAS_NUM_THREADS=1, to allow
it), and otherwise runs them all here. A march is the same code on the
same inputs either way, so its results are the same bytes.

Module contents:

  * PhaseState / equilibrium_state / perturb_density -- state construction,
  * step / collision_substep / poisson_field -- the integrator pieces,
  * run -- a full simulation with field history and scalar diagnostics,
  * echo_traces / echo_report / echo_experiment -- impulsive two-mode probe
    locating the plasma echo,
  * FieldHistory -- the recorded density modes and the field they define.

The discrete equilibrium rows are renormalized to unit grid mass, so the
collision substep conserves every density mode to rounding instead of to
the (tiny, but visible at 1e-14) quadrature defect of the raw samples.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .echo import echo_time
from .errors import (
    ConstraintViolation,
    EchoBeyondRecurrence,
    ResolutionExceeded,
    StepTooCoarse,
    VpkitError,
    broken,
    refuse,
)
from .hybridnorms import SpectralDistribution
from .lintheory import parabolic_peak
from .profiles import NU_RULE, Interaction, VelocityProfile, interaction_hat, profile_sample

# Charge-to-mass ratio of the kick. With the 2*pi Fourier convention the
# field multiplier is 2*pi*i*k*W_hat(k), and the linearized density response
# reproduces the closed Volterra kernel exactly when q/m = -1/(4*pi^2).
Q_OVER_M = -1.0 / (4.0 * math.pi**2)

# A single step may rotate the fastest transport phase k_max * v_max by at
# most this many turns; beyond that the splitting error is no longer small
# at the tolerances the diagnostics work to.
PHASE_BUDGET = 2.0

# Recurrence guard: the fraction of the |eta| axis watched at the grid edge
# and the per-row energy fraction tolerated there.
RESOLUTION_BAND = 0.02
RESOLUTION_TOL = 1e-3

# Fraction of the velocity-grid recurrence time 1/(|k| dv) that echo
# predictions may use before the grid can no longer represent the echo.
RECURRENCE_SAFETY = 0.8


def on_step_grid(t: float, dt: float) -> bool:
    """Whether t is a whole number of steps dt, to 1e-9 max(1, t); False when
    t / dt is not finite (a subnormal dt)."""
    n = t / dt
    return math.isfinite(n) and abs(round(n) * dt - t) <= 1e-9 * max(1.0, t)


def _echo_arrival(s_force, l, force_mode) -> float:
    """The time t* of the echo a probe launches; 0 when it launches none."""
    k = l + force_mode
    return (echo_time(l, k, s_force) if k else None) or 0.0


def _peak_window(s_force: float, t_star: float, dt: float) -> float:
    """The first time echo_peak reads: max(3 dt, 0.15 (t* - s_force)) past
    the kick at s_force."""
    return s_force + max(3.0 * dt, 0.15 * (t_star - s_force))


def _last_record(t_end: float, dt: float) -> float:
    """The time n dt of the last of a run's n = round(t_end / dt) steps
    (t_end itself where that count overflows)."""
    n = t_end / dt
    return round(n) * dt if math.isfinite(n) else t_end


# The rules of a run, a state and an echo probe (errors.broken). A KineticRun
# keeps RUN_RULES, a PhaseState the grid's, perturb_density the mode's and
# shape's, a step the phase budget (StepTooCoarse) and echo_traces the
# probe's; FUTURE_ECHO is the probe rule whose break the echo scenario
# reports as a refusal.
_INTEGER = (lambda n: float(n).is_integer(), "not an integer: {!r}")
GRID_RULES = (
    (("k_max",), *_INTEGER),
    (("k_max",), lambda k: k >= 1, "must be >= 1"),
    (("n_v",), lambda n: n >= 8 and n % 2 == 0 and float(n).is_integer(),
     "must be an even integer >= 8"),
    (("v_max",), lambda v: v > 0, "must be > 0 (or auto)"),
)
RUN_RULES = (
    NU_RULE,
    (("dt",), lambda dt: dt > 0, "must be > 0"),
    (("t_end", "dt"), operator.ge, "must cover at least one step"),
    (("t_end", "dt"), on_step_grid, "must be an integer number of steps of dt"),
    *GRID_RULES,
    (("k_pert",), *_INTEGER),
    (("k_pert",), lambda k: k >= 1, "must be >= 1"),
    (("k_pert", "k_max"), operator.le, "must not exceed {k_max}"),
    (("amplitude",), lambda a: a >= 0, "must be >= 0"),
    (("pert_shape",), lambda shape: shape in ("density", "velocity"),
     "unknown shape {!r} (density, velocity)"),
    (("record_every",), *_INTEGER),
    (("record_every",), lambda n: n >= 1, "must be >= 1"),
)
PHASE_RULE = (
    ("dt", "k_max", "v_max"), lambda dt, k_max, v_max: abs(dt) * k_max * v_max <= PHASE_BUDGET,
    lambda dt, k_max, v_max: f"dt * k_max * v_max = {abs(dt) * k_max * v_max:.3g} exceeds "
                             f"the splitting phase budget {PHASE_BUDGET:g}; shrink dt or the grid",
)
PROBE_RULES = (
    (("l", "k_max"), lambda l, k_max: 1 <= l <= k_max, "seed mode must lie in 1..{k_max}"),
    (("force_mode", "k_max"), lambda m, k_max: m != 0 and abs(m) <= k_max,
     "must be nonzero with |force_mode| <= {k_max}"),
    (("force_mode", "l", "k_max"), lambda m, l, k_max: abs(l + m) <= k_max,
     "the response mode l + force_mode must fit inside the retained band"),
    (("s_force",), lambda s: s > 0, "must be > 0"),
    (("s_force", "t_end"), operator.lt, "must land before {t_end}"),
    (("s_force", "dt"), on_step_grid, "must sit on the step grid"),
    (("s_force", "l", "force_mode", "t_end"),
     lambda s, l, m, t_end: _echo_arrival(s, l, m) <= t_end,
     lambda s, l, m, t_end: f"the echo it launches arrives at t* = {_echo_arrival(s, l, m):g}, "
                            f"after {{t_end}} = {t_end:g}"),
    (("s_force", "l", "force_mode", "dt", "t_end"),
     lambda s, l, m, dt, t_end:
         _peak_window(s, _echo_arrival(s, l, m), dt) <= _last_record(t_end, dt),
     lambda s, l, m, dt, t_end: f"the echo's peak window opens at "
                                f"{_peak_window(s, _echo_arrival(s, l, m), dt):g}, after the last "
                                f"record at {{t_end}} = {_last_record(t_end, dt):g}"),
    (("eps1",), lambda eps1: eps1 > 0, "seed amplitude must be > 0"),
    (("eps2",), lambda eps2: eps2 >= 0, "forcing amplitude must be >= 0"),
)
FUTURE_ECHO = (
    ("force_mode", "l", "s_force"), lambda m, l, s: _echo_arrival(s, l, m) > 0,
    lambda m, l, s: f"seed mode {l} forced at mode {m} responds on mode {l + m}: "
                    f"no future echo from s = {s:g}",
)


def default_v_max(profile: VelocityProfile) -> float:
    """Six thermal speeds: wide enough that the grid tail of a Maxwellian sits
    below 2e-8 and the renormalized discrete equilibrium matches the physics."""
    return 6.0 * profile.thermal_speed


def velocity_grid(n_v: int, v_max: float) -> np.ndarray:
    """Uniform grid v_j = -v_max + j * dv, right endpoint excluded."""
    return -v_max + (2.0 * v_max / n_v) * np.arange(n_v)


@lru_cache(maxsize=32)
def _equilibrium_rows(profile: VelocityProfile, n_v: int, v_max: float):
    samples = profile_sample(profile, velocity_grid(n_v, v_max))
    dv = 2.0 * v_max / n_v
    samples = samples / (samples.sum() * dv)
    samples.setflags(write=False)
    return samples


@dataclass(frozen=True)
class PhaseState:
    """Mixed-representation state fhat(k, v_j) at one instant, in half storage.

    rows has shape (k_max + 1, n_v); row k holds x-mode k = 0 .. k_max on the
    velocity grid of velocity_grid(n_v, v_max), and row 0 (the x-average of a
    real distribution) must be real. The k < 0 modes of a real distribution
    are fhat(-k, v) = conj(fhat(k, v)), so they are not stored: f is the
    read-only full table of shape (2*k_max + 1, n_v), row i holding mode
    k = i - k_max, derived from rows and exactly Hermitian.
    """

    rows: np.ndarray
    time: float
    k_max: int
    v_max: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        refuse(broken(GRID_RULES, {"k_max": self.k_max, "v_max": float(self.v_max),
                                   "n_v": rows.shape[1] if rows.ndim == 2 else None}))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "k_max", int(self.k_max))
        object.__setattr__(self, "time", float(self.time))
        if rows.ndim != 2 or rows.shape[0] != self.k_max + 1:
            raise ConstraintViolation(
                f"rows must hold modes 0..k_max = {self.k_max + 1} rows, got shape {rows.shape}"
            )
        if not np.all(np.isfinite(rows.view(float))):
            raise ConstraintViolation("state contains non-finite entries")
        if np.any(rows[0].imag):
            raise ConstraintViolation("row k = 0 of a real distribution must be real")

    @cached_property
    def f(self) -> np.ndarray:
        full = _full_modes(self.rows)
        full.setflags(write=False)
        return full

    @property
    def n_v(self) -> int:
        return self.rows.shape[1]

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.n_v

    @property
    def v(self) -> np.ndarray:
        return velocity_grid(self.n_v, self.v_max)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)


def equilibrium_state(
    profile: VelocityProfile, k_max: int, n_v: int = 512, v_max: float | None = None
) -> PhaseState:
    """Spatially homogeneous state f = f0(v) at time 0 (v_max: default_v_max)."""
    if v_max is None:
        v_max = default_v_max(profile)
    rows = np.zeros((k_max + 1, n_v), dtype=complex)
    rows[0] = _equilibrium_rows(profile, n_v, float(v_max))
    return PhaseState(rows=rows, time=0.0, k_max=k_max, v_max=float(v_max))


def perturb_density(
    state: PhaseState,
    profile: VelocityProfile,
    k: int,
    amplitude: complex,
    shape: str = "density",
) -> PhaseState:
    """Add amplitude * cos-type content g(v) at modes +-k.

    shape "density" uses g = f0 (a pure density modulation) and "velocity"
    uses g = v f0 (an odd current-type modulation). For real amplitude eps
    the physical perturbation is eps * g(v) * cos(2 pi k x).
    """
    refuse(broken(RUN_RULES, {"k": k, "k_max": state.k_max, "shape": shape},
                  {"k_pert": "k", "pert_shape": "shape"}))
    k = int(k)
    base = _equilibrium_rows(profile, state.n_v, state.v_max)
    g = base if shape == "density" else state.v * base
    rows = state.rows.copy()
    rows[k] += 0.5 * complex(amplitude) * g
    return PhaseState(rows=rows, time=state.time, k_max=state.k_max, v_max=state.v_max)


def _full_modes(half: np.ndarray) -> np.ndarray:
    """Modes -k_max..k_max (leading axis) of a real field from its modes 0..k_max.

    Adding 0.0 turns the -0.0 that conj makes of a zero imaginary part into
    +0.0, so exact zeros print as 0 rather than -0 in the CSV outputs."""
    return np.concatenate([np.conj(half[:0:-1]) + 0.0, half])


def rho_hat(state: PhaseState) -> np.ndarray:
    """Density modes rho_hat(k) = dv * sum_j fhat(k, v_j), k = -k_max..k_max.

    Summed over the stored rows k >= 0; the k < 0 entries are their conjugates."""
    return _full_modes(state.dv * state.rows.sum(axis=1))


def poisson_field(rho_hat_values, W: Interaction, modes) -> np.ndarray:
    """Field modes E_hat(k) = 2 pi i k W_hat(k) rho_hat(k); E_hat(0) = 0.

    rho_hat_values holds one density mode per entry of modes along its last
    axis, so a whole (n_times, n_modes) table maps in one call. The k = 0
    entry is zeroed explicitly: the mean of the force vanishes on the torus
    no matter what the zero mode of rho carries.
    """
    rho = np.asarray(rho_hat_values, dtype=complex)
    modes = np.asarray(modes, dtype=int)
    if modes.ndim != 1 or rho.shape[-1:] != modes.shape:
        raise ConstraintViolation("rho_hat and mode arrays must align")
    e_hat = _field_factor(W, modes.tobytes()) * rho
    e_hat[..., modes == 0] = 0.0
    return e_hat


@lru_cache(maxsize=16)
def _field_factor(W: Interaction, modes: bytes) -> np.ndarray:
    """2 pi i k W_hat(k) of poisson_field, read-only, for the int modes
    whose bytes are given; fixed for a run, so a step does not rebuild it."""
    k = np.frombuffer(modes, dtype=int)
    factor = 2j * np.pi * k * interaction_hat(W, k)
    factor.setflags(write=False)
    return factor


def _phase_blocks(n: int) -> tuple[int, int]:
    """(R, Q) of the phase table for n powers: R a power of two near sqrt(n),
    at least 4, and Q = ceil(n / R) blocks, so the table has Q R >= n
    columns and Q R is a multiple of 4."""
    R = max(4, 1 << (n.bit_length() // 2))
    return R, -(-n // R)


def _phase_powers(theta: np.ndarray, low: np.ndarray, high: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Table exp(i theta_x j), j = 0 .. Q R - 1, of shape (theta.size, Q R),
    for the exponents low = arange(R) and high = R * arange(Q) of
    (R, Q) = _phase_blocks(n): the n powers asked for, padded with the next
    ones to whole blocks.

    Factored as exp(i theta_x R q) * exp(i theta_x r) with j = R q + r, so
    each row costs about 2 sqrt(n) complex exponentials instead of n, at the
    same few-ulp accuracy. The table is written into out, a C-contiguous
    complex array of its shape, by one broadcast product of the factors."""
    column = theta[:, None]
    np.multiply(np.exp(1j * (column * high))[:, :, None], np.exp(1j * (column * low))[:, None, :],
                out=out.reshape(theta.size, high.size, low.size))
    return out


@lru_cache(maxsize=16)
def _x_transforms(k_max: int):
    """The real DFT matrices (synth, analyze) of the kick's x-transforms.

    The x grid has n_x = 4 k_max points (at least 8), so the quadratic
    products of modes up to k_max do not alias onto the retained band.
    synth, (n_x, 2(k_max+1)), maps the stacked [Re f; Im f] of the modes
    k = 0 .. k_max to the real values on x_j = j / n_x: it is
    n_x * irfft(f, n=n_x, axis=0). analyze, (2(k_max+1), n_x), maps real
    values back to the stacked [Re; Im] of rfft(f_x, axis=0)[:k_max+1] / n_x.
    Both sine rows of k = 0 are exactly zero, so synth ignores Im f[0] (as
    irfft does) and analyze returns row 0 exactly real. Angles are reduced
    to k j mod n_x before the cosine and sine."""
    n_x = max(4 * k_max, 8)
    angle = (2.0 * np.pi / n_x) * (np.outer(np.arange(k_max + 1), np.arange(n_x)) % n_x)
    cos, minus_sin = np.cos(angle), -np.sin(angle)
    minus_sin[0] = 0.0  # +0.0, not the -0.0 the negation leaves
    weight = np.full((k_max + 1, 1), 2.0)
    weight[0] = 1.0
    synth = np.ascontiguousarray(np.vstack([weight * cos, weight * minus_sin]).T)
    analyze = np.vstack([cos, minus_sin]) / n_x
    for matrix in (synth, analyze):
        matrix.setflags(write=False)
    return synth, analyze


# The constants of one Strang step of dt on a (k_max, n_v, v_max) grid, as
# read-only arrays shared by every thread: the grid spacing dv and velocity
# grid v, the transport phase half of dt/2, the factor field = 2 pi i k
# W_hat(k) of poisson_field on the modes 0 .. k_max, the kick's x-transforms
# synth and analyze, the phase table's exponents low and high, the factor
# shift = -2 pi dt / (n_v dv) that turns an acceleration into the phase per
# eta bin, and the complex equilibrium row f0 the relaxation blends toward
# with weight decay = e^{-nu dt} (both None at nu = 0: no relaxation).
_StepPlan = namedtuple("_StepPlan", "dv v half field synth analyze low high shift f0 decay")


@lru_cache(maxsize=16)
def _step_plan(k_max: int, n_v: int, v_max: float, dt: float, W: Interaction,
               profile: VelocityProfile, nu: float):
    """The plan of a step dt (nonzero, finite, nu >= 0) on the grid; raises
    StepTooCoarse past PHASE_BUDGET."""
    refuse(broken((PHASE_RULE,), {"dt": dt, "k_max": k_max, "v_max": v_max}), StepTooCoarse)
    dv, v, modes = 2.0 * v_max / n_v, velocity_grid(n_v, v_max), np.arange(k_max + 1)
    R, Q = _phase_blocks(n_v // 2 + 1)
    half = np.exp(-2j * np.pi * (0.5 * dt) * np.outer(modes, v))
    f0 = decay = None
    if nu > 0.0:
        f0, decay = _equilibrium_rows(profile, n_v, v_max).astype(complex), math.exp(-nu * dt)
    plan = _StepPlan(dv, v, half, _field_factor(W, modes.tobytes()), *_x_transforms(k_max),
                     np.arange(R), R * np.arange(Q), -2.0 * np.pi * dt / (n_v * dv), f0, decay)
    for array in (v, half, plan.low, plan.high, f0):
        if array is not None:
            array.setflags(write=False)
    return plan


# The work arrays of a step on a plan's grid, written in place at every step:
# the kick's stacked real and imaginary rows, their spectra, the spectra on
# the x grid and the phase table (the last three as wide as the table), and
# the relaxation term (None at nu = 0).
_StepArrays = namedtuple("_StepArrays", "stack spec f_eta phase relaxed")


def _step_arrays(plan: _StepPlan) -> _StepArrays:
    """Fresh work arrays for steps of plan, zeros: the first kick's product
    reads the spectra's padding columns past n_eta before writing them."""
    (rows, n_v), n_x, n_pad = plan.half.shape, plan.synth.shape[0], plan.low.size * plan.high.size
    return _StepArrays(np.zeros((2 * rows, n_v)), np.zeros((2 * rows, n_pad), complex),
                       np.zeros((n_x, n_pad), complex), np.zeros((n_x, n_pad), complex),
                       None if plan.decay is None else np.zeros((rows, n_v), complex))


def _advance(plan: _StepPlan, src: np.ndarray, f: np.ndarray, work: _StepArrays,
             external=None) -> None:
    """One Strang step of plan from the half-storage rows src into f, which
    may be src itself (the march steps in place), through the work arrays
    work of _step_arrays(plan). external, when given, is added to the field
    of this step. This is the one step implementation: step() and _march
    both apply it."""
    np.multiply(src, plan.half, out=f)
    e_hat = plan.field * (plan.dv * f.sum(axis=1))
    e_hat[0] = 0.0  # as poisson_field: the mean force vanishes on the torus
    if external is not None:
        e_hat = e_hat + external
    if e_hat.any():
        _kick(plan, f, e_hat, work)
    if plan.decay is not None:
        _relax(f, plan.dv * f.sum(axis=1), plan.f0, plan.decay, work.relaxed, out=f)
    f *= plan.half


def _kick(plan: _StepPlan, f: np.ndarray, e_hat: np.ndarray, work: _StepArrays) -> None:
    """Shift every column of f (half storage, written in place) in v by the
    frozen field e_hat, through the work arrays stack, spec, f_eta and phase.

    The real FFT in v and both DFT matrices are real-linear, so they
    commute: the 2(k_max+1) stacked rows go through the velocity FFTs and
    the n_x points of the x grid only through the matrix products, which
    gives the same map as synthesizing f(x, v) first with fewer FFT rows.
    The spectra are stored as wide as the phase table, n_pad >= n_eta
    columns, so the phase multiplies them in one contiguous pass and the
    products run over a multiple of 8 real columns, for which OpenBLAS gives
    the same bytes at any thread count. The columns past n_eta ride along
    (the columns of a matrix product never mix) and are never read back."""
    k_max, n_v = f.shape[0] - 1, f.shape[1]
    synth, analyze, n_eta = plan.synth, plan.analyze, n_v // 2 + 1
    stack, spec, f_eta = work.stack, work.spec, work.f_eta
    accel = Q_OVER_M * (synth @ np.concatenate([e_hat.real, e_hat.imag]))
    np.copyto(stack[: k_max + 1], f.real)
    np.copyto(stack[k_max + 1:], f.imag)
    np.fft.rfft(stack, axis=1, out=spec[:, :n_eta])
    np.matmul(synth, spec.view(float), out=f_eta.view(float))
    # eta_j = j / (n_v dv), so the shift phase of column x is w_x^j
    f_eta *= _phase_powers(plan.shift * accel, plan.low, plan.high, out=work.phase)
    np.matmul(analyze, f_eta.view(float), out=spec.view(float))
    np.fft.irfft(spec[:, :n_eta], n=n_v, axis=1, out=stack)
    np.copyto(f.real, stack[: k_max + 1])
    np.copyto(f.imag, stack[k_max + 1:])


def _relax(f: np.ndarray, rho: np.ndarray, f0: np.ndarray, decay: float,
           relaxed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{-nu dt} f + (1 - e^{-nu dt}) rho f0 for decay = e^{-nu dt} and the
    complex equilibrium row f0, through the work array relaxed, into out (a
    fresh array when None; f itself when the step relaxes in place)."""
    # the outer product rho f0, a row at a time: a broadcast product makes numpy
    # allocate iteration buffers, about 260 kB per call
    for row, rho_k in zip(relaxed, rho):
        np.multiply(f0, rho_k, out=row)
    relaxed *= 1.0 - decay
    out = np.multiply(f, decay, out=out)
    out += relaxed
    return out


def collision_substep(
    f_slice: np.ndarray,
    rho_slice: np.ndarray,
    dt: float,
    nu: float,
    profile: VelocityProfile,
    *,
    v_max: float,
) -> np.ndarray:
    """Exact relaxation f <- e^{-nu dt} f + (1 - e^{-nu dt}) rho f0.

    rho_slice must hold the density modes of f_slice. The discrete
    equilibrium carries unit grid mass, so each density mode is exactly
    invariant; nu = 0 (or dt = 0) returns the input unchanged, dt -> +inf
    lands on rho f0. The result is a fresh array.
    """
    refuse(broken((NU_RULE,), {"nu": nu}))
    f = np.asarray(f_slice, dtype=complex)
    rho = np.asarray(rho_slice, dtype=complex)
    if f.ndim != 2 or rho.shape != (f.shape[0],):
        raise ConstraintViolation("rho_slice must hold one density mode per row")
    if math.isnan(dt):
        raise ConstraintViolation("dt must not be NaN")
    if nu == 0.0 or dt == 0.0:
        return f.copy()
    f0 = _equilibrium_rows(profile, f.shape[1], float(v_max)).astype(complex)
    return _relax(f, rho, f0, math.exp(-nu * dt), np.empty(f.shape, dtype=complex))


@lru_cache(maxsize=16)
def _edge_band(n_v: int) -> np.ndarray:
    """The read-only (n_v, n_band) DFT matrix onto the outer RESOLUTION_BAND
    of |eta| bins of an n_v-point velocity grid: column c is
    exp(-2 pi i j b_c / n_v) over j, for the fft bin b_c of the band (11
    columns at n_v = 512, 21 at 1024). The band does not depend on dv:
    bin b sits at |eta| = min(b, n_v - b) / (n_v dv), against the edge
    (1 - RESOLUTION_BAND) / (2 dv). Angles are reduced to j b mod n_v
    before the exponential."""
    bins = np.arange(n_v)
    bins = bins[np.minimum(bins, n_v - bins) >= 0.5 * (1.0 - RESOLUTION_BAND) * n_v]
    angle = (2.0 * np.pi / n_v) * (np.outer(np.arange(n_v), bins) % n_v)
    band = np.exp(-1j * angle)
    band.setflags(write=False)
    return band


def resolution_guard(state: PhaseState) -> float:
    """Edge-band energy fraction of the sheared part of the spectrum.

    The k = 0 row never shears, so the guard pools the velocity spectra of
    the rows k >= 1 and measures what fraction of that energy sits in the
    outer RESOLUTION_BAND of |eta| bins. (Row -k carries the same power at
    mirrored eta, and the band is symmetric in eta, so pooling the stored
    rows gives the fraction of all rows k != 0.) The total is n_v times the
    rows' energy (Parseval), and only the band bins are transformed, by one
    product with the cached _edge_band matrix. Raises ResolutionExceeded
    past RESOLUTION_TOL: at that point the grid is about to alias the
    dominant filamentation back as a spurious recurrence. (A per-row test
    would trip on dynamically empty harmonics whose infinitesimal content
    recurs long before anything observable does.)
    """
    return _edge_fraction(state.rows, state.time)


def _edge_fraction(rows: np.ndarray, time: float) -> float:
    """resolution_guard of the half-storage rows of a state at time."""
    sheared = rows[1:]
    n_v = rows.shape[1]
    total = n_v * float(np.square(sheared.view(float)).sum())
    if total <= 0.0:
        return 0.0
    band = np.square((sheared @ _edge_band(n_v)).view(float))
    fraction = float(band.sum() / total)
    if fraction > RESOLUTION_TOL:
        k_bad = int(np.argmax(band.sum(axis=1))) + 1
        raise ResolutionExceeded(
            f"the sheared spectrum holds {fraction:.3e} of its energy in the top "
            f"{RESOLUTION_BAND:.0%} of |eta| bins at t={time:g} "
            f"(tolerance {RESOLUTION_TOL:g}, led by modes k=+-{k_bad}); "
            f"refine the velocity grid",
            fraction=fraction,
            time=time,
        )
    return fraction


def step(
    state: PhaseState,
    dt: float,
    W: Interaction,
    profile: VelocityProfile,
    nu: float,
    external_field_hat: np.ndarray | None = None,
) -> PhaseState:
    """One Strang step: half transport, field solve + kick, collision, half transport.

    Every phase works on the stored rows k = 0 .. k_max; the k < 0 rows are
    their conjugates at every stage, so nothing has to restore the pairing.
    Transport multiplies row k by exp(-2 pi i k v dt/2), exact at any dt.
    The kick solves the field from the mid-step density, synthesizes the
    real acceleration and the real f(x, v) on a dealiased x grid of 4 k_max
    points (a product with a cached real DFT matrix of the stacked real and
    imaginary parts of the k >= 0 modes; it is applied to their real-FFT
    velocity spectra, which is the same map), and shifts each column in v
    through the spectral phase exp(-2 pi i eta a(x) dt) on the real-FFT
    frequencies eta = 0 .. 1/(2 dv), exact for a frozen field. The
    v-Nyquist bin eta = 1/(2 dv) of a real column is real, so the inverse
    real FFT keeps the real part of its shifted value: the bin is scaled by
    cos(pi a(x) dt / dv). That is this solver's convention, and it is the
    bin a full complex kick followed by a projection onto real f produces;
    zeroing the bin instead would strip the equilibrium of its own Nyquist
    content at the first kick. The modes k = 0 .. k_max come back from the
    x grid through the second cached matrix, whose k = 0 sine row is exactly
    zero, so row 0 stays exactly real. The v-transforms are real FFTs. The
    collision substep is the closed-form relaxation, applied in place. The
    kick's and the relaxation's large temporaries are work arrays this call
    allocates and drops (a march allocates one set for all its steps); the
    returned state owns fresh rows that share no memory with them. Negative
    dt steps backward; dt = 0 is the identity.
    The step's constants come from the cached plan of (grid, dt, W, profile,
    nu), and the step itself is the kernel every march applies.

    external_field_hat, when given, is added to the self-consistent field
    for this step only (amplitudes of the modes k = 0 .. k_max of a real
    field); this is how an impulsive probe enters the dynamics.
    """
    if not math.isfinite(dt):
        raise ConstraintViolation("dt must be finite")
    refuse(broken((NU_RULE,), {"nu": nu}))
    if dt == 0.0:
        return state
    plan = _step_plan(state.k_max, state.n_v, state.v_max, dt, W, profile, nu)
    ext = None
    if external_field_hat is not None:
        ext = np.asarray(external_field_hat, dtype=complex)
        if ext.shape != (state.k_max + 1,):
            raise ConstraintViolation("external field must hold the modes 0..k_max")
    rows = np.empty(state.rows.shape, dtype=complex)
    _advance(plan, state.rows, rows, _step_arrays(plan), ext)
    return PhaseState(rows=rows, time=state.time + dt, k_max=state.k_max, v_max=state.v_max)


def spectral_snapshot(state: PhaseState) -> SpectralDistribution:
    """Double-Fourier table fhat(k, eta) of the state.

    The velocity FFT is phased for the grid origin at -v_max and shifted so
    eta = 0 sits at the center index, matching the layout the analytic norms
    expect."""
    eta = np.fft.fftfreq(state.n_v, d=state.dv)
    coeffs = np.fft.fft(state.f, axis=1) * state.dv
    coeffs *= np.exp(2j * np.pi * eta * state.v_max)[None, :]
    return SpectralDistribution(
        k_max=state.k_max,
        eta_grid=np.fft.fftshift(eta),
        coeffs=np.fft.fftshift(coeffs, axes=1),
    )


@dataclass(frozen=True)
class FieldHistory:
    """Recorded density modes of a run and the field they define.

    rho_hat has shape (n_times, 2*k_max+1), column i holding mode k = i - k_max,
    at two or more strictly increasing record times. The field is a function
    of the density, so construction derives it rather than storing a second
    copy: e_hat = poisson_field(rho_hat) on the same layout.
    """

    times: np.ndarray
    modes: np.ndarray
    rho_hat: np.ndarray
    interaction: Interaction
    e_hat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        modes = np.asarray(self.modes, dtype=int)
        rho = np.asarray(self.rho_hat, dtype=complex)
        if times.ndim != 1 or times.size < 2:
            raise ConstraintViolation("a history needs a 1-d array of two or more times")
        if np.any(np.diff(times) <= 0.0):
            raise ConstraintViolation("record times must be strictly increasing")
        if modes.ndim != 1 or modes.size % 2 == 0 or np.any(np.diff(modes) != 1):
            raise ConstraintViolation("modes must be consecutive integers -k_max..k_max")
        if rho.shape != (times.size, modes.size):
            raise ConstraintViolation(f"rho_hat must have shape {(times.size, modes.size)}")
        e_hat = poisson_field(rho, self.interaction, modes)
        for name, val in (("times", times), ("modes", modes), ("rho_hat", rho),
                          ("e_hat", e_hat)):
            object.__setattr__(self, name, val)

    @property
    def k_max(self) -> int:
        return int(self.modes.max())


@dataclass(frozen=True)
class KineticRun:
    """Parameters of a direct simulation, held to RUN_RULES.

    v_max = None (auto) means default_v_max(profile). t_end must sit on the
    step grid.
    """

    profile: VelocityProfile
    interaction: Interaction
    nu: float
    dt: float
    t_end: float
    k_pert: int = 1
    amplitude: float = 0.0
    pert_shape: str = "density"
    k_max: int = 8
    n_v: int = 512
    v_max: float | None = None
    record_every: int = 1

    def __post_init__(self):
        refuse(broken(RUN_RULES, dict(vars(self))))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def resolved_v_max(self) -> float:
        if self.v_max is not None:
            return float(self.v_max)
        return default_v_max(self.profile)


# What _march made: the last state, the density modes k = 0 .. k_max of every
# step (row i is step n0 + i), the rows i of the records with their guard
# fractions, l2 norms and momenta, the (step, ResolutionExceeded) of the first
# guard trip or None, and the kept state or None.
_Marched = namedtuple("_Marched", "state rho records edge l2 momentum trip kept")


def _history(march: _Marched, config: KineticRun) -> FieldHistory:
    """The recorded density modes of a march from step 0, at times n * dt."""
    full = np.ascontiguousarray(_full_modes(march.rho[march.records].T).T)
    return FieldHistory(march.records * config.dt, march.state.modes, full, config.interaction)


def _march(config: KineticRun, state: PhaseState, n0: int, n1: int, *, guard: str,
           keep: int | None = None) -> _Marched:
    """March state, the state after n0 steps of config, on to step n1.

    One copy of the rows is advanced in place by the plan of config's step,
    and every step's density modes are taken. Records fall on the steps in
    n0 .. n1 that are multiples of config.record_every, and on n1. A record
    first checks the density modes taken since the last one: a non-finite
    entry makes its row's sum non-finite, so ConstraintViolation is raised
    before anything computed from such a state is recorded or returned. It
    then runs the resolution guard and takes the l2 norm and the momentum.
    guard names what a trip does: "raise" propagates the ResolutionExceeded
    (echo runs); "stop" ends the march without the tripping record (run);
    "observe" records the tripping fraction and goes on (the
    free-transport march, whose exact-shift check is the stronger test).
    keep names a step whose state is handed out too.
    """
    if guard not in ("raise", "stop", "observe"):
        raise ValueError(f"unknown guard policy {guard!r}")
    plan = _step_plan(state.k_max, state.n_v, state.v_max, config.dt, config.interaction,
                      config.profile, config.nu)
    f, work = state.rows.copy(), _step_arrays(plan)
    rho = np.empty((n1 - n0 + 1, state.k_max + 1), dtype=complex)
    t, checked, trip, kept = state.time, 0, None, None
    records, edge, l2, momentum = [], [], [], []
    for i, n in enumerate(range(n0, n1 + 1)):
        if i:
            _advance(plan, f, f, work)
            t += config.dt
        rho[i] = plan.dv * f.sum(axis=1)
        if n == keep:
            kept = PhaseState(rows=f.copy(), time=t, k_max=state.k_max, v_max=state.v_max)
        if n % config.record_every and n != n1:
            continue
        if not np.isfinite(rho[checked:i + 1]).all():
            raise ConstraintViolation("state contains non-finite entries")
        checked = i + 1
        try:
            fraction = _edge_fraction(f, t)
        except ResolutionExceeded as err:
            if guard == "raise":
                raise
            # without its traceback, whose frames would hold this march alive
            trip = trip or (n, err.with_traceback(None))
            if guard == "stop":
                break
            fraction = err.fraction
        power = np.abs(f) ** 2
        records.append(n)
        edge.append(fraction)
        l2.append(float(np.sqrt(plan.dv * (power[0].sum() + 2.0 * power[1:].sum()))))
        momentum.append(float((plan.dv * np.dot(f[0], plan.v)).real))
    last = PhaseState(rows=f, time=t, k_max=state.k_max, v_max=state.v_max)
    return _Marched(last, rho[: i + 1], np.array(records, dtype=int) - n0, edge, l2,
                    momentum, trip, kept)


def _single_threaded() -> bool:
    """Whether /proc/self/status reads Threads: 1 (False where it cannot be
    read). An unpinned OpenBLAS pool is a second thread."""
    try:
        with open("/proc/self/status", "rb") as status:
            return b"\nThreads:\t1\n" in status.read()
    except OSError:
        return False


def _lanes(n_calls: int) -> int:
    """How many lanes _side_by_side deals n_calls calls into: one per CPU of
    the affinity mask and at most one per call, when the process runs a
    single thread; otherwise 1. A fork of a threaded process is unsafe, and
    two processes each running a BLAS pool over both CPUs oversubscribe."""
    if n_calls < 2 or not hasattr(os, "sched_getaffinity") or not _single_threaded():
        return 1
    return min(len(os.sched_getaffinity(0)), n_calls)


def _lane_outcome(calls) -> tuple:
    """(results, None) of calls made in order, or (the results before it, the
    exception) of the first call that raised."""
    results = []
    try:
        for call in calls:
            results.append(call())
    except Exception as err:
        return results, err
    return results, None


def _fork_lane(calls, cpu: int):
    """Make calls in an os.fork()ed child held to CPU cpu: (pid, read end of
    its pipe), or None when the fork fails.

    The child sends back one pickle, the lane's outcome and the warnings its
    calls issued, and leaves by os._exit, so it writes nothing else and runs
    none of this process's exit handlers. It exits with status 1 when it
    cannot send the outcome (one that does not pickle, or a BaseException
    such as KeyboardInterrupt)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.sched_setaffinity(0, {cpu})
            with warnings.catch_warnings(record=True) as caught:
                outcome = _lane_outcome(calls)
            issued = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
            payload = pickle.dumps((outcome, issued), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _side_by_side(calls) -> list:
    """The results of independent zero-argument calls, in call order.

    The calls are dealt in turn into _lanes(len(calls)) lanes. Lane 0 runs
    in this process; each other lane runs in an os.fork()ed child
    (_fork_lane), whose pickled results and exceptions come back through a
    pipe, and whose warnings are issued again here. A lane whose fork fails
    runs here too. Lane i is held to the i-th CPU of the affinity mask, and
    this process's mask is restored on return: left to the scheduler, two
    runs in two processes ran no faster than one after the other on a
    2-CPU virtual machine. A lane stops at its first failing call, and the
    exception raised is that of the first failing call in call order, the
    one a loop over the calls would raise. A child that exits without
    sending its outcome raises VpkitError naming its exit status. Every
    child is reaped before this returns or raises; one still running then
    (this process was interrupted) is killed first.

    A monkeypatch made before the call is seen by the children, but what a
    child does to this process's objects is lost: the children's memory,
    like their time, lies outside this process's own accounts."""
    n = _lanes(len(calls))
    lanes = [calls[lane::n] for lane in range(n)]
    if n == 1:
        return [call() for call in calls]
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    forked, outcomes = {}, [None] * n
    try:
        os.sched_setaffinity(0, {cpus[0]})
        for lane in range(1, n):
            child = _fork_lane(lanes[lane], cpus[lane % len(cpus)])
            if child is not None:
                forked[lane] = child
        for lane in range(n):
            if lane not in forked:
                outcomes[lane] = _lane_outcome(lanes[lane])
        for lane, (pid, read) in forked.items():
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            outcomes[lane] = ([], VpkitError(
                f"a forked lane exited with status {code} and sent no result"))
            if payload:
                outcomes[lane], issued = pickle.loads(payload)
                for message, category, filename, lineno in issued:
                    warnings.warn_explicit(message, category, filename, lineno)
    finally:
        for lane, (pid, read) in forked.items():
            os.close(read)
            if outcomes[lane] is None:  # not reaped: this process was interrupted
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        os.sched_setaffinity(0, mask)
    results = []
    for i in range(len(calls)):
        done, err = outcomes[i % n]
        if i // n == len(done):
            raise err
        results.append(done[i // n])
    return results


def run(config: KineticRun) -> tuple[FieldHistory, dict]:
    """March the full model and record fields plus scalar diagnostics.

    Returns (FieldHistory, diagnostics). The diagnostics dict carries arrays
    "t" (record times n * dt), "mass", "momentum", "l2", "edge_fraction"
    (the resolution guard's value at each record), "stop_reason" ("t_end",
    or "resolution_exceeded" when the recurrence guard trips at a record
    time, in which case the tables end at the last resolved record),
    "stop_time" (t_end, or the record time the guard tripped at) and
    "stop_edge_fraction", the guard's value there. A trip before the second
    record leaves no history to report and raises ResolutionExceeded."""
    state = equilibrium_state(config.profile, config.k_max, config.n_v, config.resolved_v_max())
    if config.amplitude != 0.0:
        state = perturb_density(
            state, config.profile, config.k_pert, config.amplitude, config.pert_shape
        )
    march = _march(config, state, 0, config.n_steps, guard="stop")
    if march.trip is not None and march.records.size < 2:
        raise march.trip[1]
    history = _history(march, config)
    if march.trip is None:
        stop_reason, stop_time, stop_edge = "t_end", float(history.times[-1]), march.edge[-1]
    else:
        stop_reason = "resolution_exceeded"
        stop_time, stop_edge = march.trip[0] * config.dt, march.trip[1].fraction
    diagnostics = {
        "t": history.times.copy(),
        "mass": march.rho[march.records, 0].real.copy(),
        "momentum": np.array(march.momentum),
        "l2": np.array(march.l2),
        "edge_fraction": np.array(march.edge),
        "stop_reason": stop_reason,
        "stop_time": stop_time,
        "stop_edge_fraction": stop_edge,
    }
    return history, diagnostics


@dataclass(frozen=True)
class EchoReport:
    """Outcome of an impulsive echo probe."""

    l: int
    k: int
    s_force: float
    t_predicted: float
    t_measured: float
    peak_amp: float
    baseline_amp: float

    @property
    def rel_offset(self) -> float:
        return (self.t_measured - self.t_predicted) / self.t_predicted

    def as_dict(self) -> dict:
        return asdict(self)


def _echo_prefix(config: KineticRun, l: int, eps1: float, j_kick: int) -> tuple:
    """The state after the j_kick steps of an echo run before its kick, and
    the density rows up to it."""
    state = equilibrium_state(config.profile, config.k_max, config.n_v, config.resolved_v_max())
    prefix = _march(config, perturb_density(state, config.profile, l, eps1), 0, j_kick,
                    guard="raise")
    return prefix.state, prefix.rho


def _echo_trace(config: KineticRun, l: int, force_mode: int, eps2: float, j_kick: int,
                seed: tuple) -> tuple:
    """(times, |rho_hat(t, l + force_mode)|) of an echo run from its
    _echo_prefix seed."""
    state, prefix = seed
    k = l + force_mode
    external = None
    if eps2 != 0.0:
        external = np.zeros(config.k_max + 1, dtype=complex)
        external[abs(force_mode)] = 0.5 * eps2 / config.dt
    kicked = step(state, config.dt, config.interaction, config.profile, config.nu,
                  external_field_hat=external)
    rest = _march(config, kicked, j_kick + 1, config.n_steps, guard="raise")
    times = np.arange(config.n_steps + 1) * config.dt
    # hypot rounds as the scalar complex abs does; numpy's array abs can differ
    # in the last bit
    trace = np.concatenate([prefix[:, abs(k)], rest.rho[:, abs(k)]])
    return times, np.hypot(trace.real, trace.imag)


def echo_traces(config: KineticRun, l: int, force_mode: int, s_force: float, runs) -> list:
    """One (times, |rho_hat(t, k)|), k = l + force_mode, per echo run (eps1,
    eps2) of the probe (config, l, force_mode, s_force), in the order of runs.

    An initial density perturbation of size eps1 at mode l free-streams to
    s_force, where an external field eps2/dt * cos(2 pi force_mode x), held
    for the single step that starts there (an impulse of total strength eps2
    independent of dt), transfers its phase-mixed content to mode k. The
    trace reads stored row |k|: |rho_hat(-k)| = |rho_hat(k)|. The j_kick =
    s_force/dt steps before the kick depend only on eps1, so they are
    marched once per distinct eps1, and each distinct run is marched from
    the kick on; the prefixes go side by side, then the runs (_side_by_side).
    The kicked step is a step() call; the march before it and the one after
    it raise on a resolution-guard trip. A probe that breaks PROBE_RULES or
    FUTURE_ECHO (ConstraintViolation), or whose echo falls past
    RECURRENCE_SAFETY of the grid recurrence time (EchoBeyondRecurrence), is
    refused before any march."""
    l, force_mode = int(l), int(force_mode)
    runs = [(float(eps1), float(eps2)) for eps1, eps2 in runs]
    problems = broken((*PROBE_RULES, FUTURE_ECHO), {
        "l": l, "force_mode": force_mode, "s_force": s_force,
        "k_max": config.k_max, "dt": config.dt, "t_end": config.t_end})
    for eps1, eps2 in runs:
        problems += broken(PROBE_RULES, {"eps1": eps1, "eps2": eps2})
    refuse(list(dict.fromkeys(problems)))
    k = l + force_mode
    t_star = echo_time(l, k, s_force)
    dv = 2.0 * config.resolved_v_max() / config.n_v
    t_rec = 1.0 / (abs(k) * dv)
    if t_star > RECURRENCE_SAFETY * t_rec:
        raise EchoBeyondRecurrence(
            f"predicted echo at t*={t_star:g} lies beyond {RECURRENCE_SAFETY:g} of "
            f"the velocity-grid recurrence time {t_rec:g}; refine the grid"
        )
    j_kick = int(round(s_force / config.dt))
    distinct = list(dict.fromkeys(runs))
    seeds = list(dict.fromkeys(eps1 for eps1, _ in distinct))
    prefixes = dict(zip(seeds, _side_by_side(
        [partial(_echo_prefix, config, l, eps1, j_kick) for eps1 in seeds])))
    traces = dict(zip(distinct, _side_by_side(
        [partial(_echo_trace, config, l, force_mode, eps2, j_kick, prefixes[eps1])
         for eps1, eps2 in distinct])))
    return [traces[amps] for amps in runs]


def echo_peak(trace, s_force: float, t_star: float) -> tuple[float, float, float]:
    """(time, amplitude) of the parabolic peak of an echo trace (times on the
    step grid from 0, values), and its largest sample, over the records from
    max(3 dt, 0.15 (t_star - s_force)) past the kick at s_force."""
    times, values = trace
    window = times >= _peak_window(s_force, t_star, times[1])
    times, values = times[window], values[window]
    i = int(np.argmax(values))
    return (*parabolic_peak(times, values, i), float(values[i]))


def echo_report(l: int, m: int, s_force: float, kicked, baseline) -> EchoReport:
    """The EchoReport of the probe (l, m, s_force) from the echo_traces of a
    kicked run and of its unkicked baseline: the kicked trace's peak against
    the predicted t* = s_force (k - l)/k, k = l + m, and the baseline's
    largest sample over the same window."""
    l, k = int(l), int(l) + int(m)
    t_star = echo_time(l, k, s_force)
    t_measured, peak_amp, _ = echo_peak(kicked, s_force, t_star)
    return EchoReport(
        l=l,
        k=k,
        s_force=float(s_force),
        t_predicted=float(t_star),
        t_measured=t_measured,
        peak_amp=peak_amp,
        baseline_amp=echo_peak(baseline, s_force, t_star)[2],
    )


def echo_experiment(
    config: KineticRun, l: int, k_minus_l: int, s_force: float, eps1: float, eps2: float
) -> EchoReport:
    """Kick a streaming mode-l perturbation at mode k-l and locate the echo.

    The echo_report of the kicked run (eps1, eps2) against its eps2 = 0
    baseline, both from one echo_traces call: the mode-k density trace rises
    out of nothing at the predicted t* = s_force (k - l)/k. A call with
    eps2 = 0 is one march, its kicked trace read as the baseline."""
    runs = [(eps1, eps2), (eps1, 0.0)]
    return echo_report(l, k_minus_l, s_force, *echo_traces(config, l, k_minus_l, s_force, runs))
