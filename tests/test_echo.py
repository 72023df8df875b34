"""Resonance kernel, moment bounds, echo times, growth envelope and verifier.

Oracle strategy: the truncated sup kernel is checked bit for bit against a
scan of the whole truncation box, against an independent brute-force double
loop and against its closed form on the diagonal s = t; the closed-form
forward moment is checked against a Gauss-Lobatto rule on the kernel split at
its tent peaks and against the hand integral of its flat floor, and its
linear pieces against the kernel's exponent; the backward moment is checked
the same way, against a Gauss-Lobatto rule on the kernel split at the peaks
in t, against its closed form at s = 0, and its envelope pieces against the
kernel; the closed-form phase integrals of the piecewise table are checked
against a dense Gauss-Legendre rule, with a dense midpoint-rule referee on the
kink case; the frozen moment constants
were calibrated offline on a separate parameter grid (values recorded next to
the constants) and are verified here on a disjoint grid.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpkit import acceptance, echo
from vpkit.echo import (
    BACKWARD_MOMENT_CONSTANT,
    ENVELOPE_CONSTANT,
    FORWARD_MOMENT_CONSTANT,
    EchoKernelSpec,
    GrowthParams,
    echo_kernel,
    echo_moment_backward,
    echo_moment_forward,
    echo_time,
    growth_envelope,
    growth_verify,
    piecewise_integral_check,
)
from vpkit.errors import (
    ConstraintViolation,
    TailNotResolved,
    UnstableConfiguration,
)

SPEC_HALF = EchoKernelSpec(alpha=0.5, gamma=2.0)


def box_exponents(spec, t, s):
    """Exponent of every pair of the truncation box, k along axis 0 and
    l = 1 .. trunc along axis 1 (the summand is even under (k, l) -> -(k, l))."""
    kmodes = np.concatenate(
        [np.arange(-spec.trunc, 0), np.arange(1, spec.trunc + 1)]
    ).astype(float)
    lmodes = np.arange(1, spec.trunc + 1).astype(float)
    kk, ll = np.meshgrid(kmodes, lmodes, indexing="ij")
    absdiff = np.abs(kk - ll)
    log_static = -spec.alpha * ll - np.log1p(absdiff**spec.gamma)
    ratio = (t - s) / t if t > 0.0 else 0.0
    return log_static - spec.alpha * (
        ratio * absdiff + np.abs(kk * (t - s) + ll * s)
    )


def box_sup_kernel(spec, t, s):
    """The kernel as a scan of all 2 trunc^2 pairs of the box."""
    return float((1.0 + s) * math.exp(box_exponents(spec, t, s).max()))


def lobatto(f, ends, rel_tol):
    """int of f over [ends[0], ends[-1]] by 8-point Gauss-Lobatto: each
    stretch between consecutive ends halved, at most 40 times, until its
    halves agree with it to rel_tol of the total times its share of the
    range, a share of at least 1e-3 (below that the kernel's own rounding
    would keep a panel splitting). f maps an array of nodes to values.
    Where the kernel's envelope has a corner, halving does the work, and 8
    points per panel need about half the kernel calls of 16 for the same
    agreement with the closed forms."""
    n = 8
    x = np.concatenate([[-1.0], np.polynomial.legendre.Legendre.basis(n - 1).deriv().roots(), [1.0]])
    w = 2.0 / (n * (n - 1) * np.polynomial.legendre.legval(x, [0.0] * (n - 1) + [1.0]) ** 2)
    span = ends[-1] - ends[0]

    def rule(a, b):
        u = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        u[:, 0], u[:, -1] = a, b
        return 0.5 * (b - a) * (f(u) @ w)

    a, b = ends[:-1], ends[1:]
    whole = rule(a, b)
    tol = rel_tol * whole.sum() / span
    done = []
    for _ in range(40):
        c = 0.5 * (a + b)
        left, right = rule(a, c), rule(c, b)
        ok = np.abs(left + right - whole) <= tol * np.maximum(b - a, 1e-3 * span)
        done += (left + right)[ok].tolist()
        a, b, c = a[~ok], b[~ok], c[~ok]
        a, b = np.concatenate([a, c]), np.concatenate([c, b])
        whole = np.concatenate([left[~ok], right[~ok]])
    return math.fsum(done + whole.tolist())


def lobatto_forward(spec, nu, t, rel_tol=1e-12):
    """The forward moment by Gauss-Lobatto on the kernel, [0, t] split at
    the peak of every tent that clears the floor. Every peak is a node, so
    no tent, however narrow, falls between nodes."""
    l = np.arange(1.0, spec.trunc + 1.0)[:, None]
    m = l.T
    clear = -2.0 * spec.alpha * l - np.log1p((m + l) ** spec.gamma) > -spec.alpha * (1.0 + t)
    ends = np.unique(np.concatenate([[0.0, t], (m * t / (m + l))[clear]]))
    return lobatto(lambda s: echo_kernel(spec, t, s) * np.exp(-nu * (t - s)), ends, rel_tol)


def clearing_peaks(spec, s):
    """Peaks in t, s (m+l)/m, of the tents k = -m that clear the floor
    -alpha (1 + t) there, past any T_max included."""
    l = np.arange(1.0, spec.trunc + 1.0)[:, None]
    m = l.T
    peak = s * (m + l) / m
    clear = -2.0 * spec.alpha * l - np.log1p((m + l) ** spec.gamma) > -spec.alpha * (1.0 + peak)
    return peak[clear]


def lobatto_backward(spec, nu, s, T_max, rel_tol=1e-13):
    """The backward moment by Gauss-Lobatto on the kernel, [s, T_max] split
    at the peak of every tent that clears the floor. At rel_tol = 1e-12 the
    rule itself is off by up to 1.3e-12 on some cases of the random sweep,
    so the default is 1e-13."""
    peaks = clearing_peaks(spec, s)
    ends = np.unique(np.concatenate([[s, T_max], peaks[peaks < T_max]]))
    return lobatto(lambda t: echo_kernel(spec, t, s) * np.exp(-nu * (t - s)), ends, rel_tol)


def backward_cases(seed, n):
    """(alpha, gamma, nu, s, T_max) drawn like the random sweep of the
    backward moment: alpha 0.45-0.95, gamma 1.1-3.5, nu/alpha 0.05-0.95,
    s 0-20, T_max = s + 80/nu."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        alpha, gamma = float(rng.uniform(0.45, 0.95)), float(rng.uniform(1.1, 3.5))
        nu, s = float(rng.uniform(0.05, 0.95)) * alpha, float(rng.uniform(0.0, 20.0))
        cases.append((alpha, gamma, nu, s, s + 80.0 / nu))
    return cases


def floor_moment(spec, nu, t):
    """The forward moment when no tent clears the floor -alpha (1 + t):
    e^{floor} times int_0^t (1 + s) e^{-nu (t - s)} ds, by hand."""
    decay = math.exp(-nu * t)
    return math.exp(-spec.alpha * (1.0 + t)) * (
        (1.0 + t) * (1.0 - decay) / nu - (1.0 - (1.0 + nu * t) * decay) / nu**2
    )


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


class TestCandidateSet:
    """The six-candidate sup against the scan of the whole box, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(min_value=0.44, max_value=0.99),
        gamma=st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
        trunc=st.sampled_from([64, 65, 80, 128]),
        t=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0)),
        fractions=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25]), st.floats(0.0, 1.0)),
            min_size=1, max_size=8,
        ),
    )
    # a point whose sup sits on the candidate k = -1
    @example(alpha=0.8917123296098052, gamma=4.671275675443593, trunc=128,
             t=8.465316231364401, fractions=[0.7414675])
    def test_equals_box_scan(self, alpha, gamma, trunc, t, fractions):
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma, trunc=trunc)
        ss = np.array([0.0, t] + [min(f * t, t) for f in fractions])
        want = np.array([box_sup_kernel(spec, t, float(s)) for s in ss])
        got = echo_kernel(spec, t, ss)
        assert got.shape == ss.shape
        assert np.array_equal(got, want)
        assert echo_kernel(spec, t, float(ss[-1])) == want[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=0.44, max_value=0.99),
        gamma=st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
        t=st.floats(min_value=0.0, max_value=200.0),
        fraction=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    )
    def test_every_row_peaks_on_its_candidates(self, alpha, gamma, t, fraction):
        # the lemma itself, row by row, without the row pruning; and the
        # pruned sup equals the sup over all rows
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma)
        t_arr = np.array([t])
        s_arr = np.minimum(fraction * t_arr, t_arr)
        tau = t_arr - s_arr
        ratio = tau / t_arr if t > 0.0 else np.zeros(1)
        rows = np.arange(1, spec.trunc + 1, dtype=float)[:, None]
        got = [echo._row_sup(spec, rows[i : i + 1], s_arr, tau, ratio)[0] for i in range(spec.trunc)]
        want = box_exponents(spec, t, float(s_arr[0])).max(axis=0)
        assert np.array_equal(got, want)
        assert echo._chunk_sup(spec, t_arr, s_arr)[0] == want.max()

    def test_broadcasts_t_against_s(self):
        ts = np.array([[1.0], [7.5], [30.0]])
        ss = np.array([0.0, 0.5, 1.0])
        got = echo_kernel(SPEC_HALF, ts, ss)
        assert got.shape == (3, 3)
        for i, t in enumerate(ts[:, 0]):
            for j, s in enumerate(ss):
                assert got[i, j] == box_sup_kernel(SPEC_HALF, float(t), float(s))
        grid = np.linspace(2.0, 40.0, 300)  # more points than one batch
        assert np.array_equal(
            echo_kernel(SPEC_HALF, grid, 2.0),
            [box_sup_kernel(SPEC_HALF, float(t), 2.0) for t in grid],
        )
        assert echo_kernel(SPEC_HALF, np.empty(0), 0.0).shape == (0,)

    def test_array_domain_preconditions(self):
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, 2.0, np.array([0.5, 2.5]))
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ConstraintViolation):
            echo_kernel(SPEC_HALF, 1.0, math.nan)

    def test_log_denominator_discretely_concave(self):
        # the convex-piece argument: g(d) = log1p(d^gamma) has non-positive
        # second differences on d >= 1, including the triple (1, 2, 3) where
        # g itself is not concave for gamma > 2
        d = np.arange(1, 513, dtype=float)
        for gamma in np.linspace(1.0, 50.0, 197)[1:]:
            assert np.all(np.diff(np.log1p(d**gamma), 2) <= 0.0), gamma
            assert (1.0 + 2.0**gamma) ** 2 >= 2.0 * (1.0 + 3.0**gamma), gamma


def term_exponent(spec, k, l, t, s):
    """Exponent of the kernel sup's term (k, l) at (t, s), written as
    box_exponents writes it."""
    d = np.abs(k - l)
    return -spec.alpha * l - np.log1p(d**spec.gamma) - spec.alpha * (
        (t - s) / t * d + np.abs(k * (t - s) + l * s)
    )


def sorted_pieces(spec, s, T_max):
    a, b, k, l = echo._backward_pieces(spec, s, T_max)
    order = np.lexsort((b, a))
    return a[order], b[order], k[order], l[order]


class TestBackwardEnvelope:
    # criterion 8's backward cases
    CASES = [
        (EchoKernelSpec(alpha=0.6, gamma=gamma), nu, s, s + 80.0 / nu)
        for gamma in (1.7, 2.5) for nu in (0.18, 0.42) for s in (0.0, 4.0)
    ]

    @pytest.mark.parametrize("alpha, gamma, s, T_max", [
        (0.6, 1.7, 4.0, 4.0 + 80.0 / 0.18),
        (0.6, 2.5, 4.0, 43.9),  # a tent peaked past T_max wins its last stretch
        (0.9, 1.2, 19.0, 120.0),
        (0.47, 3.3, 2.1, 30.0),
    ])
    def test_envelope_matches_kernel(self, alpha, gamma, s, T_max):
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma)
        a, b, k, l = sorted_pieces(spec, s, T_max)
        t = np.sort(np.random.default_rng(11).uniform(s, T_max, 3000))
        j = np.minimum(np.searchsorted(b, t), b.size - 1)
        envelope = (1.0 + s) * np.exp(term_exponent(spec, k[j], l[j], t, s))
        assert np.max(np.abs(envelope / echo_kernel(spec, t, s) - 1.0)) <= 1e-12
        if T_max == 43.9:
            last = (k < 0) & (b == T_max)
            assert np.all(s * (l[last] - k[last]) / -k[last] > T_max)

    @pytest.mark.parametrize("alpha, nu, T_max", [
        (0.6, 0.18, 80.0 / 0.18), (0.6, 0.42, 80.0 / 0.42), (0.5, 0.4, 900.0), (0.95, 0.05, 1600.0),
    ])
    def test_floor_only_at_s_zero(self, alpha, nu, T_max):
        # no tent clears the floor at s = 0, so K = e^{-alpha (1 + t)}
        spec = EchoKernelSpec(alpha=alpha, gamma=2.0)
        a, b, k, l = echo._backward_pieces(spec, 0.0, T_max)
        assert (a.tolist(), b.tolist(), k.tolist(), l.tolist()) == ([0.0], [T_max], [1.0], [1.0])
        want = math.exp(-alpha) * -math.expm1(-(alpha + nu) * T_max) / (alpha + nu)
        numeric = echo_moment_backward(spec, nu, 0.0, T_max)[0]
        assert numeric == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_matches_lobatto_on_criterion_8_cases(self):
        for spec, nu, s, T_max in self.CASES:
            want = lobatto_backward(spec, nu, s, T_max)
            numeric = echo_moment_backward(spec, nu, s, T_max)[0]
            assert numeric == pytest.approx(want, rel=1e-12, abs=0.0), (spec, nu, s)

    @pytest.mark.parametrize("alpha, gamma, nu, s, T_max", backward_cases(22, 20))
    def test_matches_lobatto_on_random_cases(self, alpha, gamma, nu, s, T_max):
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma)
        want = lobatto_backward(spec, nu, s, T_max)
        assert echo_moment_backward(spec, nu, s, T_max)[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, gamma", [(0.6, 1.7), (0.6, 2.5), (0.95, 1.1)])
    def test_pieces_tile_the_range(self, alpha, gamma):
        # equal ratios m/(m+l) give equal peaks, which must split the range
        # once; over a scan of s the lines that meet at a peak or cross at a
        # shared point leave zero-width pieces at most, never an overlap
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma)
        peaks = clearing_peaks(spec, 10.0)
        assert np.unique(peaks).size < peaks.size
        for s in np.linspace(1.5, 20.0, 12):
            T_max = s + 300.0
            a, b, k, l = sorted_pieces(spec, s, T_max)
            assert a[0] == s and b[-1] == T_max
            assert np.array_equal(a[1:], b[:-1]) and np.all(b >= a)
            assert math.fsum((b - a).tolist()) == pytest.approx(T_max - s, rel=1e-15)

    def test_unresolved_tail_fails_the_criterion(self, monkeypatch):
        # a T_max too short for the tail makes criterion 8's backward moment
        # raise TailNotResolved, which the battery reports as a failure with
        # its text
        real = acceptance.echo_moment_backward
        monkeypatch.setattr(acceptance, "echo_moment_backward",
                            lambda spec, nu, s, T_max: real(spec, nu, s, s + 1.0))
        report = acceptance.run_battery("kernel_bounds")
        assert [(r.index, r.passed) for r in report.results] == [(7, True), (8, False)]
        error = report.results[1].measured["error"]
        assert error.startswith("TailNotResolved: tail majorant ")
        assert "raise T_max" in error


def gauss_legendre_phase_integral(k, l, alpha, t, panels=200, points=30):
    """int_0^{t/2} e^{-alpha |k(t-s)+l s|} (1+s) ds by a dense composite
    Gauss-Legendre rule, [0, t/2] split at the phase kink when it lies inside,
    every panel summed with math.fsum."""
    x, w = np.polynomial.legendre.leggauss(points)
    kink = k * t / (k - l) if l < k else None
    ends = [0.0, kink, 0.5 * t] if kink is not None and 0.0 < kink < 0.5 * t else [0.0, 0.5 * t]
    total = []
    for a, b in zip(ends[:-1], ends[1:]):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        s = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        f = np.exp(-alpha * np.abs(k * (t - s) + l * s)) * (1.0 + s)
        total.extend((half * w * f).ravel().tolist())
    return math.fsum(total)


def phase_cases(seed, n, alpha=None, t_max=30.0):
    """(k, l, alpha, t) as criterion 7 draws them, or, given alpha, as the
    kernel_table scenario draws them."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        k = int(rng.integers(1, 9))
        l = int(rng.integers(-12, 13))
        a = float(rng.uniform(0.1, 0.9)) if alpha is None else alpha
        t = float(rng.uniform(0.5, t_max))
        cases.append((k, l, a, t))
    return cases


class TestPiecewiseTable:
    @pytest.mark.parametrize("cases", [
        phase_cases(7031, 200),  # criterion 7
        phase_cases(7031, 200, alpha=0.5),  # configs/kernel_table.ini
    ], ids=["criterion_7", "kernel_table"])
    def test_closed_form_matches_dense_gauss_legendre(self, cases):
        for k, l, alpha, t in cases:
            want = gauss_legendre_phase_integral(k, l, alpha, t)
            numeric = piecewise_integral_check(k, l, alpha, t)[0]
            assert numeric == pytest.approx(want, rel=1e-13, abs=0.0), (k, l, alpha, t)

    def test_closed_form_resolves_integrals_below_simpsons_floor(self):
        # about 3.6e-17: adaptive Simpson's absolute tolerance of 1e-13 let it
        # stop 3e-4 relative off here
        k, l, alpha, t = 7, -3, 0.674, 28.68
        numeric = piecewise_integral_check(k, l, alpha, t)[0]
        assert 1e-17 < numeric < 1e-16
        assert numeric == pytest.approx(
            gauss_legendre_phase_integral(k, l, alpha, t), rel=1e-13, abs=0.0)

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
        # a constant fitted from a coarse quadrature of the kernel stays
        # within a factor 2 of the one fitted from the exact moments
        spec = EchoKernelSpec(alpha=0.6, gamma=2.0)
        grid = [(0.3, 2.0), (0.15, 5.0), (0.3, 12.0)]

        def fitted(moment):
            return max(moment(nu, t) / echo_moment_forward(spec, nu, t)[1] for nu, t in grid)

        coarse = fitted(lambda nu, t: lobatto_forward(spec, nu, t, rel_tol=1e-6))
        refined = fitted(lambda nu, t: echo_moment_forward(spec, nu, t)[0])
        assert 0.5 <= coarse / refined <= 2.0


class TestForwardClosedForm:
    # criterion 8's forward cases with t <= 30
    CASES = [(EchoKernelSpec(alpha=0.5, gamma=2.0), 0.2, 30.0)] + [
        (EchoKernelSpec(alpha=0.6, gamma=gamma), nu, t)
        for gamma in (1.7, 2.5) for nu in (0.18, 0.42) for t in (3.0, 24.0)
    ]

    def test_matches_lobatto_on_criterion_8_cases(self):
        for spec, nu, t in self.CASES:
            want = lobatto_forward(spec, nu, t)
            assert echo_moment_forward(spec, nu, t)[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, gamma, nu, t", [
        # adaptive Simpson misses a narrow tent on these two and comes out
        # 1.0e-4 and 1.7e-5 low
        (0.5669988434597226, 1.262597183384564, 0.23824238577078058, 6.535509900740965),
        (0.6388140426517932, 2.752344505285425, 0.3466737890125001, 12.179496411537482),
        # at large gamma the tent m = 1 of a row wins stretches where the
        # tents that bracket s lose; without it this moment is 0.2% low
        (0.75, 4.3, 0.3, 8.0),
        (0.9, 1.6, 0.5, 17.0),
    ])
    def test_matches_lobatto_off_the_battery_grid(self, alpha, gamma, nu, t):
        spec = EchoKernelSpec(alpha=alpha, gamma=gamma)
        want = lobatto_forward(spec, nu, t)
        assert echo_moment_forward(spec, nu, t)[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec, t", [
        (EchoKernelSpec(alpha=0.6, gamma=2.5), 24.0),
        (EchoKernelSpec(alpha=0.6, gamma=1.7), 24.0),
        (EchoKernelSpec(alpha=0.5, gamma=2.0), 480.0),
    ])
    def test_envelope_matches_kernel_exponent(self, spec, t):
        a, b, fa, fb = echo._forward_pieces(spec, t)
        order = np.lexsort((b, a))
        a, b, fa, fb = a[order], b[order], fa[order], fb[order]
        # rounding: the kernel's phase k tau + l s and a slope times a crossing
        # point are up to about alpha trunc t in size, good to 1e-16 of that
        tol = 1e-15 * spec.alpha * spec.trunc * (1.0 + t)
        # the pieces tile [0, t] and F is continuous across them
        assert a[0] == 0.0 and b[-1] == t
        assert np.array_equal(a[1:], b[:-1]) and np.all(b >= a)
        assert np.max(np.abs(fa[1:] - fb[:-1])) <= echo._ENVELOPE_TOL + tol
        s = np.sort(np.random.default_rng(7).uniform(0.0, t, 4000))
        j = np.minimum(np.searchsorted(b, s), b.size - 1)
        piece = fa[j] + (fb[j] - fa[j]) * ((s - a[j]) / (b[j] - a[j]))
        exact = np.log(echo_kernel(spec, t, s) / (1.0 + s))
        assert np.max(np.abs(piece - exact)) <= tol

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.999, 1.0, 3.0])
    def test_floor_only(self, t):
        # no tent clears the floor -alpha (1 + t) until t > 1 + g(2)/alpha,
        # so below that F is one flat piece; below t = 1 every tent also
        # rises on its right side
        spec, nu = EchoKernelSpec(alpha=0.6, gamma=2.5), 0.42
        a, b, fa, fb = echo._forward_pieces(spec, t)
        assert (a.tolist(), b.tolist()) == ([0.0], [t])
        assert fa[0] == fb[0] == -spec.alpha * (1.0 + t)
        numeric = echo_moment_forward(spec, nu, t)[0]
        assert numeric == pytest.approx(floor_moment(spec, nu, t), rel=1e-14, abs=0.0)
        assert numeric == pytest.approx(lobatto_forward(spec, nu, t), rel=1e-12, abs=0.0)

    def test_phi_series_meets_closed_form(self):
        # the series branch of phi1 and psi at z > -1/2 joins the closed form
        z = np.array([-0.5 - 1e-12, -0.5, -0.49999999, -1e-9, 0.0, -3.0, -800.0])
        phi1, psi = echo._phi(z)
        for zi, p1, ps in zip(z.tolist(), phi1.tolist(), psi.tolist()):
            want1 = math.expm1(zi) / zi if zi else 1.0
            want2 = (1.0 + (zi - 1.0) * math.exp(zi)) / zi**2 if zi < -1e-3 else 0.5 + zi / 3.0
            assert p1 == pytest.approx(want1, rel=1e-15)
            assert ps == pytest.approx(want2, rel=1e-12)


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
            assert growth_envelope(p, SPEC_HALF, t) == pytest.approx(want, rel=1e-15)

    def test_monotone_in_every_load_parameter(self):
        base = stable_params(A=1.0, c0=0.2, c=0.3, nu_env=0.1, m=1.6)
        e = growth_envelope(base, SPEC_HALF, 4.0)
        assert growth_envelope(stable_params(A=2.0, c0=0.2, c=0.3, nu_env=0.1, m=1.6), SPEC_HALF, 4.0) > e
        assert growth_envelope(stable_params(A=1.0, c0=0.4, c=0.3, nu_env=0.1, m=1.6), SPEC_HALF, 4.0) > e
        assert growth_envelope(stable_params(A=1.0, c0=0.2, c=0.6, nu_env=0.1, m=1.6), SPEC_HALF, 4.0) > e
        assert growth_envelope(base, SPEC_HALF, 9.0) > e

    def test_weak_collisions_inflate_the_start(self):
        lo = growth_envelope(stable_params(nu_env=0.05), SPEC_HALF, 0.0)
        hi = growth_envelope(stable_params(nu_env=0.2), SPEC_HALF, 0.0)
        assert lo > hi

    def test_collision_rate_above_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            growth_envelope(stable_params(nu_env=0.6), SPEC_HALF, 1.0)

    def test_switch_time_term_dominance(self):
        gamma, alpha = 2.0, 0.5
        # heavy resonance load: the quadratic-in-c term wins
        p = stable_params(c=100.0, nu_env=0.1)
        t1 = (100.0**2 * 0.1 ** (2.0 + gamma) / alpha**5) ** (1.0 / (gamma - 1.0))
        assert echo._switch_time(p, gamma, alpha) == pytest.approx(
            ENVELOPE_CONSTANT * t1, rel=1e-12
        )
        # light resonance load: the linear-in-c term wins
        p = stable_params(c=0.01, nu_env=0.1)
        t2 = (0.01 * 0.1 ** (0.5 + gamma) / alpha**2) ** (1.0 / (gamma - 1.0))
        assert echo._switch_time(p, gamma, alpha) == pytest.approx(
            ENVELOPE_CONSTANT * t2, rel=1e-12
        )
        # algebraic kernel only: the c0 term wins
        p = stable_params(c0=2.0, m=1.5, nu_env=0.1)
        t3 = (4.0 / 0.1) ** (1.0 / 2.0)
        assert echo._switch_time(p, gamma, alpha) == pytest.approx(
            ENVELOPE_CONSTANT * t3, rel=1e-12
        )

    def test_report_bundles_the_envelope(self):
        # the envelope is its start value, built from the switch time, carried
        # forward by e^{nu t}
        p = stable_params(A=1.5, c=0.2, nu_env=0.1)
        C, T = ENVELOPE_CONSTANT, echo._switch_time(p, 2.0, 0.5)
        start = growth_envelope(p, SPEC_HALF, 0.0)
        want = (
            C * 1.5 / math.sqrt(0.1) * (1.0 + 0.2 / (0.5 * 0.1))
            * math.exp(C * T) * math.exp(C * 0.2 * (1.0 + T * T))
        )
        assert start == pytest.approx(want, rel=1e-12)
        assert start >= p.A
        for t in (0.0, 2.0, 6.0):
            assert growth_envelope(p, SPEC_HALF, t) == pytest.approx(
                start * math.exp(0.1 * t), rel=1e-12
            )

    def test_report_rejects_sub_unit_constant(self):
        # the calibrated constant is frozen at C >= 1, so the start never
        # falls below the source A, with or without a resonance load
        assert ENVELOPE_CONSTANT >= 1.0
        for p in (stable_params(nu_env=0.2), stable_params(A=1.5, c=0.2, nu_env=0.1)):
            assert growth_envelope(p, SPEC_HALF, 0.0) >= p.A


class TestGrowthVerify:
    def test_constant_series_with_zero_kernels(self):
        p = stable_params(A=2.0)
        ts = np.linspace(0.0, 10.0, 201)
        phi = np.full(201, 2.0, dtype=complex)
        rep = growth_verify((ts, phi), np.zeros(ts.size), SPEC_HALF, p)
        assert rep.max_hypothesis_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.max_crude_ratio == pytest.approx(0.5, rel=1e-9)
        assert rep.max_envelope_ratio < 1.0

    def test_envelope_crossing_is_caught(self):
        # A self-consistent series (a one-step kernel reproduces its growth
        # exactly) that outruns e^{nu t} must exceed the envelope, not the
        # hypothesis or the crude bound.
        nu = 0.25
        p = stable_params(nu_env=nu)
        ts = np.linspace(0.0, 12.0, 481)
        dt = float(ts[1] - ts[0])
        g = 2.0 * nu
        phi = np.exp(g * ts).astype(complex)
        k0 = np.zeros_like(ts, dtype=complex)
        k0[1] = math.exp((g + nu) * dt) / dt
        rep = growth_verify((ts, phi), k0, SPEC_HALF, p)
        assert rep.max_envelope_ratio > 5.0 and rep.worst_envelope_time == 12.0
        assert rep.max_hypothesis_ratio <= 1.0 + 1e-9
        assert rep.max_crude_ratio < 1.0

    def test_inconsistent_data_is_caught(self):
        p = stable_params()
        ts = np.linspace(0.0, 12.0, 481)
        phi = np.full(ts.size, 1.0, dtype=complex)
        phi[300:] = 100.0
        rep = growth_verify((ts, phi), np.zeros(ts.size), SPEC_HALF, p)
        # the jump at t = 7.5 breaks the hypothesis a hundredfold there
        assert rep.max_hypothesis_ratio == pytest.approx(100.0, rel=1e-12)
        assert rep.worst_hypothesis_time == ts[300]

    def test_weighted_collisional_density_passes(self, scenario_weighted):
        times, phi, k0w, A, nu_c = scenario_weighted
        p = GrowthParams(
            A=A, c0=0.05, m=1.5, c=0.05, kappa=0.22, nu_env=nu_c,
            lambda0=0.02, lambda_weight=0.008, C0=1.1, C_W=1.0,
        )
        rep = growth_verify((times, phi), k0w, SPEC_HALF, p)
        assert rep.max_hypothesis_ratio <= 1.0 + 1e-9
        assert rep.max_crude_ratio < 1.0
        assert rep.max_envelope_ratio < 0.01

    def test_input_validation(self):
        p = stable_params()
        ts = np.linspace(0.0, 5.0, 51)
        phi = np.ones(51, dtype=complex)
        k0 = np.zeros(51)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts + 1.0, phi), k0, SPEC_HALF, p)
        with pytest.raises(ConstraintViolation):
            growth_verify((ts**1.1, phi), k0, SPEC_HALF, p)


@pytest.fixture(scope="module")
def scenario_weighted():
    """Weighted single-mode density from the collisional Volterra march."""
    from vpkit.lintheory import VolterraKernel, volterra_solve
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
    hist = volterra_solve(lambda t: np.exp(-2.0 * np.pi**2 * t * t), kern)
    times = np.asarray(hist.times)
    lam, mu = 0.008, 0.1
    weight = np.exp(2.0 * np.pi * (lam * times + mu))
    phi = np.asarray(hist.rho_hat) * weight
    free = np.exp(-2.0 * np.pi**2 * times**2) * np.exp(-nu_c * times) * weight
    A = float(np.max(np.abs(free)))
    k0w = kern.samples * np.exp(nu_c * times) * np.exp(2.0 * np.pi * lam * times)
    return times, phi, k0w, A, nu_c
