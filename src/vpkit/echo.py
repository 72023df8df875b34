"""Resonance-kernel bounds and growth control for the density envelope.

Filamentation lets a mode pair (k, l) re-excite the field long after the
initial perturbation has mixed away; the strength of that interaction is
captured by a two-time kernel K(t, s) built from a supremum over integer mode
pairs. This module evaluates the kernel exactly on a truncation box, checks
the closed-form bound table that controls it against the phase integrals
(themselves in closed form, piece by piece), computes its
collision-weighted moments against their predicted shapes (the forward one in
closed form over the linear pieces of log K in s, the backward one over the
exact envelope of log K in t, by a fixed Gauss rule where it is not linear),
locates echo times, and assembles the growth envelope
and the integral-inequality verifier that together certify that a density
history stays below an exponential envelope.

All non-constructive constants are handled by calibrate-then-freeze: the
smallest working constant is fitted on a calibration grid, doubled, frozen
here as a module constant, and the tests verify it on a disjoint grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConstraintViolation,
    TailNotResolved,
    UnstableConfiguration,
    broken,
    refuse,
)
from .profiles import GAMMA_RULE

__all__ = [
    "EchoKernelSpec",
    "GrowthParams",
    "VerifyReport",
    "echo_kernel",
    "piecewise_integral_check",
    "phase_table_gate",
    "random_phase_table",
    "PHASE_BOUND_GATE",
    "EXACT_CASE_GATE",
    "echo_moment_forward",
    "echo_moment_backward",
    "echo_time",
    "growth_envelope",
    "growth_verify",
    "FORWARD_MOMENT_CONSTANT",
    "BACKWARD_MOMENT_CONSTANT",
    "ENVELOPE_CONSTANT",
    "GROWTH_CHECK_POINTS",
]

# Calibrate-then-freeze constants (smallest fitted value x2 safety margin;
# the tests verify these on parameter grids disjoint from calibration).
# Forward calibration: alpha in {0.35, 0.5, 0.75, 0.9}, gamma in {1.5, 2, 3},
# nu/alpha in {0.2, 0.5, 0.9, 0.94}, t in {2..480}; worst ratio 0.2813.
FORWARD_MOMENT_CONSTANT = 0.563
# Backward calibration: same alpha/gamma span plus gamma=1.2, s in {0, 2, 10},
# nu/alpha up to 0.94; worst ratio 0.0829.
BACKWARD_MOMENT_CONSTANT = 0.166
# Envelope/crude-bound calibration: smallest constant passing the weighted
# Volterra scenarios and the constant-source case is 1.0.
ENVELOPE_CONSTANT = 2.0
# Times at which growth_verify checks the hypothesis: a verification grid
# distinct from the calibration grid ENVELOPE_CONSTANT was fitted on.
GROWTH_CHECK_POINTS = 97
# What every case of the phase-integral table must satisfy, and what its
# l = k cases, whose bound is exact, must satisfy besides; phase_table_gate
# tests both.
PHASE_BOUND_GATE = "numeric <= bound * (1 + 1e-12)"
EXACT_CASE_GATE = "<= 1e-12 (|numeric/bound - 1| where l = k)"

# The kernel's rules (errors.broken): an EchoKernelSpec keeps the first four,
# the last of which certifies the l-tail of its truncation box; the phase
# integral and the moments keep alpha's, the weak-collision regime's and t's.
KERNEL_RULES = (
    (("alpha",), lambda alpha: 0 < alpha < 1, "must lie in (0, 1)"),
    GAMMA_RULE,
    (("trunc",), lambda n: n >= 2 and float(n).is_integer(), "must be an integer >= 2"),
    (("trunc", "alpha"), lambda n, alpha: alpha * (n - 1) >= 12.0 * math.log(10.0),
     lambda n, alpha: f"{n} leaves an l-tail above 1e-12 of the sup at alpha={alpha:g}: "
                      "need alpha*(trunc-1) > 12*ln(10)"),
    (("nu", "alpha"), lambda nu, alpha: 0 < nu < alpha, "must lie in (0, alpha)"),
    (("t",), lambda t: t > 0, "must be > 0"),
)


@dataclass(frozen=True)
class EchoKernelSpec:
    """Resonance kernel parameters: analyticity width alpha, potential decay
    exponent gamma, and the truncation box for the integer-pair supremum.

    The l-tail of the sup is killed by e^{-alpha*|l|}, so the truncation is
    certified by requiring e^{-alpha*trunc} < 1e-12 * e^{-alpha} (the dropped
    terms sit below 1e-12 of the generic |l| = 1 scale). The k-tail has no
    t-uniform closed-form majorant; it is covered by the doubling invariant
    (doubling trunc leaves values unchanged on the operating grids).
    """

    alpha: float
    gamma: float
    trunc: int = 64

    def __post_init__(self):
        refuse(broken(KERNEL_RULES, dict(vars(self))))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "trunc", int(self.trunc))


# Points per kernel batch: the (6, rows, points) candidate temporaries of one
# batch stay near L2 size.
_CHUNK = 128
# Rows of the sup evaluated together once row 1 has set a first bound.
_ROW_BLOCK = 8
# Exponent gap below which a line does not count as clearing the forward or
# the backward envelope, so that splitting stops at rounding. Such a line
# moves the moment by under 1e-12 relative.
_ENVELOPE_TOL = 1e-12
# The backward moment's rule on the tent pieces of its envelope: Gauss-Legendre
# with _GAUSS_NODES nodes on panels over which the exponent changes by at most
# _PANEL_EFOLDS. 24 nodes on 0.5 e-folds move criterion 8's moments by at most
# 2.2e-16 relative and 200 random ones by 4.4e-16; 8 nodes on 2 e-folds are
# still within 1.3e-15.
_GAUSS_NODES = 16
_PANEL_EFOLDS = 2.0
# Intervals between tent peaks whose candidate lines are held at once. At 64
# their temporaries (about 1 MB at trunc = 64) stay under the peak memory of
# the rest of the kernel battery; 128 raised that peak by 0.5 MB, 256 by 2 MB.
_ENVELOPE_CHUNK = 64
# The same for the backward envelope, whose handover loop holds more
# temporaries per interval: 1.9 MB at 64 intervals, 0.85 MB at 16.
_BACKWARD_CHUNK = 16


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each element of a 1-d float array, streamed through a
    memoryview so no list of Python floats is built. np.exp rounds some
    inputs differently, and the kernel and the quadrature integrands are
    defined by math.exp."""
    return np.fromiter(map(math.exp, memoryview(x)), float, count=x.size)


@lru_cache(maxsize=8)
def _log_denominator(spec: EchoKernelSpec) -> np.ndarray:
    """log1p(d^gamma) for d = |k - l| = 0 .. 2 trunc."""
    return np.log1p(np.arange(2 * spec.trunc + 1, dtype=float) ** spec.gamma)


def _row_sup(spec: EchoKernelSpec, l, s, tau, ratio) -> np.ndarray:
    """Per point, the largest exponent over the rows l of shape (rows, 1),
    evaluated on the six candidates k of each row."""
    alpha, trunc = spec.alpha, spec.trunc
    ls = l * s
    r = np.divide(-ls, tau, out=np.zeros_like(ls), where=tau > 0.0)
    k = np.empty((6,) + ls.shape)
    np.maximum(np.floor(r), -trunc, out=k[0])
    np.maximum(np.ceil(r), -trunc, out=k[1])
    k[:2][k[:2] == 0.0] = 1.0
    k[2], k[3] = -1.0, 1.0
    k[4] = np.maximum(l - 1.0, 1.0)  # l - 1, with 0 replaced by 1
    k[5] = l
    d = np.abs(k - l)
    expo = (-alpha * l - _log_denominator(spec)[d.astype(np.intp)]) - alpha * (
        ratio * d + np.abs(k * tau + ls)
    )
    return expo.max(axis=(0, 1))


def _chunk_sup(spec: EchoKernelSpec, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Largest exponent of the kernel sup at each point (t, s) of one batch."""
    tau = t - s
    ratio = np.divide(tau, t, out=np.zeros_like(t), where=t > 0.0)
    rows = np.arange(1, spec.trunc + 1, dtype=float)[:, None]
    best = _row_sup(spec, rows[:1], s, tau, ratio)
    # row l is bounded by -alpha*l: a block of rows is evaluated only at the
    # points whose best exponent so far its first row can still reach
    for start in range(1, spec.trunc, _ROW_BLOCK):
        live = np.flatnonzero(-spec.alpha * rows[start, 0] >= best)
        if live.size == 0:
            break
        block = rows[start : start + _ROW_BLOCK]
        best[live] = np.maximum(
            best[live], _row_sup(spec, block, s[live], tau[live], ratio[live])
        )
    return best


def echo_kernel(spec: EchoKernelSpec, t, s):
    """Exact truncated sup kernel (1+s) * sup_{k,l} of the three-factor term.

    Factors: e^{-alpha|l|} * e^{-alpha (t-s)|k-l|/t} * e^{-alpha|k(t-s)+ls|},
    divided by 1 + |k-l|^gamma, over nonzero integers |k|,|l| <= trunc.
    Deterministic; t = s = 0 is allowed as the continuous limit along s = t.
    t and s broadcast against each other; scalar inputs give a float.

    The sup is taken over six candidates per row instead of the whole box.
    The summand is invariant under (k, l) -> (-k, -l), so l >= 1. With
    tau = t - s, ratio = tau/t and d = |k - l|, the exponent of row l is

        E(k) = -alpha l - g(d) - alpha ratio d - alpha |k tau + l s|,

    g(d) = log1p(d^gamma). The phase k tau + l s changes sign at
    r = -l s / tau <= 0 (r = 0 when tau = 0). Below r both d and the phase
    term fall as k grows, so E rises on k <= floor(r). From l on both rise,
    so E falls on k >= l. On ceil(r) <= k <= l - 1 the phase term is linear
    in k and d = l - k >= 1, so E is a linear function minus g, and g is
    discretely concave on d >= 1 for every gamma > 1: g'' < 0 wherever
    d^gamma > gamma - 1, which holds for all d >= 2 since 2^gamma > gamma,
    and the one remaining second difference is g(1) + g(3) <= 2 g(2), i.e.
    (1 + 2^gamma)^2 >= 2 (1 + 3^gamma). A convex sequence peaks at an end of
    its range, and removing k = 0 splits the range at -1 and 1. So the sup
    of the row lies in {floor(r), ceil(r), -1, 1, l - 1, l}, clamped to the
    box with 0 replaced by 1. No gamma needs the full row.

    The box edges are never candidates of their own: -trunc ends a monotone
    or convex piece only when ceil(r) <= -trunc, and then it is the clamped
    ceil(r); +trunc lies on the falling piece. Where the computed r rounds
    across an integer n, the phase at k = n is zero to rounding, so n ends
    both pieces and is still a candidate. Every step above has a margin
    (a first or second difference of g) far above rounding, so the
    candidates hold the computed row maximum itself. Each candidate term
    uses the same table values and float operations as a scan of the whole
    box, and the exponential is math.exp, so the result equals that scan
    bit for bit. Row l is bounded by -alpha l, so rows are evaluated in
    blocks, each only at the points whose best exponent so far its first
    row can still reach.
    """
    t_arr, s_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if not (np.all(s_arr >= 0.0) and np.all(s_arr <= t_arr)):
        raise ConstraintViolation("need 0 <= s <= t")
    if np.any((t_arr == 0.0) & (s_arr != 0.0)):
        raise ConstraintViolation("t = 0 only makes sense with s = 0")
    ts, ss = t_arr.ravel(), s_arr.ravel()
    best = np.empty(ts.size)
    for i in range(0, ts.size, _CHUNK):
        best[i : i + _CHUNK] = _chunk_sup(spec, ts[i : i + _CHUNK], ss[i : i + _CHUNK])
    values = ((1.0 + ss) * _exp(best)).reshape(t_arr.shape)
    return float(values) if values.ndim == 0 else values


def piecewise_integral_check(k: int, l: int, alpha: float, t: float):
    """Closed-form value vs closed-form bound for the half-interval phase integral.

    Evaluates int_0^{t/2} e^{-alpha |k(t-s)+l s|} (1+s) ds exactly and
    returns it next to the four-case closed-form bound (split on how l
    compares with k). The reduction k > 0 is enforced; the bound is rigorous
    for every case, and exact when l = k.

    The phase p(s) = k t + (l - k) s is linear, so the exponent -alpha |p|
    is linear on each side of the kink s* = kt/(k-l), which lies in (0, t/2)
    only when l < -k, and each piece is integrated exactly by the rule of
    echo_moment_forward (_linear_exp_integrals).
    """
    k, l = int(k), int(l)
    if k <= 0:
        raise ConstraintViolation("the table is reduced to k > 0")
    refuse(broken(KERNEL_RULES, {"alpha": alpha, "t": t}))

    half = 0.5 * t
    ends = np.array([0.0, k * t / (k - l), half] if l < -k else [0.0, half])
    g = -alpha * np.abs(k * (t - ends) + l * ends)
    pieces = _linear_exp_integrals(ends[:-1], ends[1:], g[:-1], g[1:])
    numeric = math.fsum(pieces.tolist())
    if l > k:
        bound = 1.0 / (alpha * (l - k)) + 1.0 / (alpha * (l - k)) ** 2
    elif l == k:
        bound = math.exp(-alpha * k * t) * (0.5 * t + t * t / 8.0)
    elif l >= -k:
        bound = (
            math.exp(-alpha * (k + l) * t / 2.0)
            / (alpha * abs(k - l))
            * (1.0 + 0.5 * t)
        )
    else:
        d = abs(k - l)
        bound = 2.0 / (alpha * d) + 2.0 * k * t / (alpha * d * d) + 1.0 / (alpha * d) ** 2
    return numeric, bound


def random_phase_table(rng, count: int, t_max: float, alpha=None):
    """count random phase-integral cases (k, l, alpha, t, numeric, bound),
    drawn from rng in the order k in 1..8, l in -12..12, alpha uniform in
    [0.1, 0.9] (only when alpha is None), t uniform in [0.5, t_max]."""
    cases = []
    for _ in range(count):
        k = int(rng.integers(1, 9))
        l = int(rng.integers(-12, 13))
        a = float(rng.uniform(0.1, 0.9)) if alpha is None else alpha
        t = float(rng.uniform(0.5, t_max))
        cases.append((k, l, a, t, *piecewise_integral_check(k, l, a, t)))
    return cases


def phase_table_gate(cases):
    """The two-sided gate of a phase-integral table of (k, l, alpha, t,
    numeric, bound) cases: no numeric above its bound by more than a relative
    1e-12 of rounding (PHASE_BOUND_GATE), and |numeric/bound - 1| <= 1e-12 on
    the l = k cases, where the bound is exact (EXACT_CASE_GATE), so a numeric
    that comes out too small fails too. A table without an l = k case has
    nothing to hold to the second side: it reports exact_cases = 0 and a NaN
    gap. A case whose bound underflowed to 0 holds nothing to either side:
    the table fails, and measured counts such cases as zero_bounds. Returns
    (passed, measured)."""
    violations = sum(numeric > bound * (1.0 + 1e-12) for *_, numeric, bound in cases)
    live = [case for case in cases if case[-1] != 0.0]
    exact = [abs(numeric / bound - 1.0) for k, l, *_, numeric, bound in live if l == k]
    gap = max(exact, default=math.nan)
    measured = {
        "cases": len(cases),
        "violations": violations,
        "worst_ratio": max([0.0] + [numeric / bound for *_, numeric, bound in live]),
        "exact_cases": len(exact),
        "exact_case_gap": gap,
    }
    if len(live) < len(cases):
        measured["zero_bounds"] = len(cases) - len(live)
    passed = violations == 0 and len(live) == len(cases) and (not exact or gap <= 1e-12)
    return passed, measured


def _candidates(spec: EchoKernelSpec, x: np.ndarray, mid: np.ndarray, rows: np.ndarray,
                live: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Table indices of the candidate lines on each interval with midpoint
    mid (see _forward_pieces and _backward_pieces): per row l in rows, the
    tents m = floor(x), m + 1 and 1, where x = l s/tau at the midpoint,
    clamped to the row's live tents 1..live, each on the side of its peak
    the interval lies on; then the floor."""
    trunc2 = spec.trunc**2
    m0 = np.floor(np.minimum(x, live))
    m = np.stack([m0, m0 + 1.0, np.ones_like(m0)], axis=2)
    base = np.clip(m, 1.0, live[:, None]) + ((rows - 1.0) * spec.trunc - 1.0)[:, None]
    base = base.reshape(mid.size, -1).astype(np.intp)
    idx = np.full((mid.size, base.shape[1] + 1), 2 * trunc2)
    idx[:, :-1] = base + trunc2 * (peak[base] <= mid[:, None])
    return idx


def _forward_pieces(spec: EchoKernelSpec, t: float):
    """Linear pieces of F(s) = log(K(t, s)/(1 + s)) on [0, t].

    Returns (a, b, fa, fb): on [a[j], b[j]], F runs linearly from fa[j] to
    fb[j]. The pieces cover [0, t] in no particular order, and some may have
    zero width. echo_moment_forward's docstring has the proof.
    """
    alpha = spec.alpha
    l = np.arange(1.0, spec.trunc + 1.0)[:, None]
    m = l.T
    peak = t * (m / (m + l))  # equal ratios m/(m+l) give equal floats
    height = -2.0 * alpha * l - _log_denominator(spec)[(m + l).astype(np.intp)]
    floor = -alpha * (1.0 + t)
    clear = height > floor  # a prefix of each row
    live = clear.sum(axis=1).astype(float)
    rows = np.flatnonzero(live) + 1.0
    live = live[live > 0.0]
    ends = np.unique(np.concatenate([[0.0, t], peak[clear]]))
    # each line as (anchor, height, slope): the left sides of the tents, rising
    # at alpha d (1 + 1/t), their right sides, changing at alpha d (1/t - 1),
    # and the floor
    peak, height, d = peak.ravel(), height.ravel(), (m + l).ravel()
    anchor = np.concatenate([peak, peak, [0.0]])
    top = np.concatenate([height, height, [floor]])
    slope = np.concatenate([alpha * d * (1.0 / t + 1.0), alpha * d * (1.0 / t - 1.0), [0.0]])
    out = []

    def value(j, s):  # value at s of the lines j
        return top[j] + slope[j] * (s - anchor[j])

    def emit(keep, lo, hi, j):
        j, lo, hi = j[keep], lo[keep], hi[keep]
        out.append((lo, hi, value(j, lo), value(j, hi)))

    for i in range(0, ends.size - 1, _ENVELOPE_CHUNK):
        a, b = ends[:-1][i : i + _ENVELOPE_CHUNK], ends[1:][i : i + _ENVELOPE_CHUNK]
        mid = 0.5 * (a + b)
        idx = _candidates(spec, rows * mid[:, None] / (t - mid[:, None]), mid, rows, live, peak)
        cell = np.arange(a.size)
        win_a = idx[cell, np.argmax(value(idx, a[:, None]), axis=1)]
        win_b = idx[cell, np.argmax(value(idx, b[:, None]), axis=1)]
        # split at the crossing of the lines that win the two ends until one
        # line wins both: the envelope is convex between peaks
        while cell.size:
            fa, fb = value(win_a, a), value(win_b, b)
            right = value(win_b, a) >= fa - _ENVELOPE_TOL
            one = right | (value(win_a, b) >= fb - _ENVELOPE_TOL)
            emit(one, a, b, np.where(right, win_b, win_a))
            two = ~one
            cell, a, b, fa = cell[two], a[two], b[two], fa[two]
            win_a, win_b = win_a[two], win_b[two]
            gap = slope[win_b] - slope[win_a]  # > 0: the lines cross
            cross = np.clip(a + (fa - value(win_b, a)) / gap, a, b)
            lines = value(idx[cell], cross[:, None])
            win_c = idx[cell, np.argmax(lines, axis=1)]
            vertex = lines.max(axis=1) <= np.maximum(
                value(win_a, cross), value(win_b, cross)) + _ENVELOPE_TOL
            emit(vertex, a, cross, win_a)
            emit(vertex, cross, b, win_b)
            keep = ~vertex
            cell = np.concatenate([cell[keep], cell[keep]])
            a, b = np.concatenate([a[keep], cross[keep]]), np.concatenate([cross[keep], b[keep]])
            win_a = np.concatenate([win_a[keep], win_c[keep]])
            win_b = np.concatenate([win_c[keep], win_b[keep]])
    return tuple(np.concatenate(part) for part in zip(*out))


def _backward_pieces(spec: EchoKernelSpec, s: float, T_max: float):
    """Pieces of E(t) = log(K(t, s)/(1 + s)) on [s, T_max].

    Returns (a, b, k, l): on [a[j], b[j]], E is the exponent of the sup's
    term (k[j], l[j]), a tent side or the floor (1, 1). The pieces cover
    [s, T_max] in no particular order, and some may have zero width.
    echo_moment_backward's docstring has the proof.
    """
    alpha, trunc = spec.alpha, spec.trunc
    l = np.arange(1.0, trunc + 1.0)[:, None]
    m = l.T
    d = m + l
    peak = s * (d / m)  # equal ratios m/(m+l) give equal floats
    top = -alpha * l - _log_denominator(spec)[d.astype(np.intp)]
    clear = top - alpha * l > -alpha * (1.0 + peak)  # a prefix of each row
    live = clear.sum(axis=1).astype(float)
    rows = np.flatnonzero(live) + 1.0
    live = live[live > 0.0]
    if not rows.size:  # the floor alone, as at s = 0
        return np.array([s]), np.array([T_max]), np.array([1.0]), np.array([1.0])
    ends = np.unique(np.concatenate([[s, T_max], peak[clear & (peak < T_max)]]))
    # each line as A + B t + C/t, with its term (k, l): the left sides of the
    # tents, the right sides, and the floor
    m, l = np.broadcast_to(m, d.shape).ravel(), np.broadcast_to(l, d.shape).ravel()
    peak, top, d = peak.ravel(), top.ravel(), d.ravel()
    k = np.concatenate([-m, -m, [1.0]])
    l = np.concatenate([l, l, [1.0]])
    A = np.concatenate([top - alpha * d * (1.0 + s), top - alpha * d * (1.0 - s), [-alpha]])
    B = np.concatenate([alpha * m, -alpha * m, [-alpha]])
    C = np.concatenate([alpha * d * s, alpha * d * s, [0.0]])
    out = []
    for i in range(0, ends.size - 1, _BACKWARD_CHUNK):
        lo, hi = ends[:-1][i : i + _BACKWARD_CHUNK], ends[1:][i : i + _BACKWARD_CHUNK]
        mid = 0.5 * (lo + hi)
        idx = _candidates(spec, rows * s / (mid[:, None] - s), mid, rows, live, peak)
        line = A[idx] + B[idx] * lo[:, None] + C[idx] / lo[:, None]
        win = idx[np.arange(lo.size), np.argmax(line, axis=1)]
        # from the start of each interval, run to where the first line that
        # clears the winner by more than _ENVELOPE_TOL on the rest crosses
        # it, and hand over to that line
        while lo.size:
            dA, dB, dC = (X[idx] - X[win][:, None] for X in (A, B, C))
            t0, t1 = lo[:, None], hi[:, None]
            start = dA + dB * t0 + dC / t0
            gain = np.maximum(start, dA + dB * t1 + dC / t1)
            with np.errstate(divide="ignore", invalid="ignore"):
                # a gain with dB, dC < 0 peaks at sqrt(dC/dB)
                star = np.clip(np.sqrt(dC / dB), t0, t1)
                hump = (dB < 0.0) & (dC < 0.0)
                gain[hump] = np.maximum(gain, dA + dB * star + dC / star)[hump]
                # the root where t * gain = dB t^2 + dA t + dC turns positive,
                # or the start for a line already above the winner there
                root = np.sqrt(np.maximum(dA * dA - 4.0 * dB * dC, 0.0))
                entry = np.where(dA > 0.0, -2.0 * dC / (dA + root), (root - dA) / (2.0 * dB))
            entry = np.where(start > _ENVELOPE_TOL, t0, np.clip(entry, t0, t1))
            entry[gain <= _ENVELOPE_TOL] = np.inf
            first = np.argmin(entry, axis=1)
            cut = entry[np.arange(lo.size), first]
            out.append((lo, np.minimum(cut, hi), win))
            go = np.isfinite(cut)
            lo, hi, idx = cut[go], hi[go], idx[go]
            win = idx[np.arange(lo.size), first[go]]
    a, b, j = (np.concatenate(part) for part in zip(*out))
    return a, b, k[j], l[j]


# Taylor coefficients 1/(n+1)! and 1/(n! (n+2)) of phi1 and psi, n = 16 .. 0.
_PHI_SERIES = np.array(
    [[1.0 / math.factorial(n + 1), 1.0 / (math.factorial(n) * (n + 2))]
     for n in range(16, -1, -1)]
)[:, :, None]


def _phi(z: np.ndarray):
    """phi1(z) = (e^z - 1)/z and psi(z) = (1 + (z - 1) e^z)/z^2 for z <= 0,
    the integrals of e^{zv} and v e^{zv} over v in [0, 1]. Where z > -1/2
    they come from their Taylor series sum z^n/(n+1)! and
    sum z^n/(n! (n+2)), 17 terms (the rest is below 1e-20), because the
    closed form of psi cancels there."""
    small = z > -0.5
    zb = np.where(small, -1.0, z)
    phi1, psi = np.expm1(zb) / zb, (1.0 + (zb - 1.0) * np.exp(zb)) / (zb * zb)
    if small.any():
        zs = z[small]
        series = np.zeros((2, zs.size))
        for coef in _PHI_SERIES:  # Horner, both series at once
            series = series * zs + coef
        phi1[small], psi[small] = series
    return phi1, psi


def _linear_exp_integrals(a, b, ga, gb, ramp: bool = True) -> np.ndarray:
    """int_a^b w(s) e^{G(s)} ds per element, for G linear from ga at a to gb
    at b and w(s) = 1 + s (w = 1 without ramp): with h = b - a and
    z = gb - ga, e^{ga} h [(1 + a) phi1(z) + h psi(z)] (e^{ga} h phi1(z)).
    Where gb > ga the same integral runs from b down to a, so that z <= 0
    and nothing overflows."""
    h = b - a
    down = gb > ga  # integrate from the higher end
    phi1, psi = _phi(-np.abs(gb - ga))
    weight = np.where(down, 1.0 + b, 1.0 + a) * phi1 + np.where(down, -h, h) * psi if ramp else phi1
    return np.exp(np.where(down, gb, ga)) * h * weight


@lru_cache(maxsize=1)
def _gauss_rule():
    """Nodes and weights of the _GAUSS_NODES-point Gauss-Legendre rule on
    [-1, 1], built on first use: importing numpy.polynomial adds 0.8 MB to
    the peak memory of runs that take no backward moment."""
    return np.polynomial.legendre.leggauss(_GAUSS_NODES)


def _tent_integrals(spec: EchoKernelSpec, nu: float, s: float, a, b, k, l) -> np.ndarray:
    """int_a^b e^{G(t)} dt per element, G(t) = E(t) - nu (t - s) for E the
    exponent of the sup's term (k, l) as echo_kernel forms it, by the
    _GAUSS_NODES-point Gauss-Legendre rule on equal panels, as many as keep
    the change of G over each within _PANEL_EFOLDS. On a tent side
    G is convex (its 1/t term has a coefficient alpha d s >= 0), so |G'| is
    largest at an end of [a, b]."""
    alpha = spec.alpha
    d = np.abs(k - l)
    # G'(t) = -(alpha k sign(phase) + nu + alpha d s/t^2)
    rate = alpha * k * np.sign(k * (0.5 * (a + b) - s) + l * s) + nu
    slope = np.maximum(np.abs(rate + alpha * d * s / (a * a)), np.abs(rate + alpha * d * s / (b * b)))
    n = np.maximum(np.ceil((b - a) * slope / _PANEL_EFOLDS), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(a.size), n)
    width = ((b - a) / n)[piece]
    start = a[piece] + width * (np.arange(piece.size) - np.repeat(np.cumsum(n) - n, n))
    nodes, weights = _gauss_rule()
    t = start[:, None] + (0.5 * width)[:, None] * (1.0 + nodes)
    k, l, d = k[piece, None], l[piece, None], d[piece, None]
    tau = t - s
    expo = (-alpha * l - _log_denominator(spec)[d.astype(np.intp)]) - alpha * (
        tau / t * d + np.abs(k * tau + l * s)
    )
    return 0.5 * width * (np.exp(expo - nu * tau) @ weights)


def echo_moment_forward(spec: EchoKernelSpec, nu: float, t: float):
    """Collision-weighted forward moment of the kernel and its predicted shape.

    Returns (numeric, shape) with numeric = int_0^t K(t,s) e^{-nu (t-s)} ds
    and shape = 1 / (alpha^3 nu^{1+gamma} t^{gamma-1}), the constant-free
    decay profile the moment must stay below (up to a fitted constant) in the
    weak-collision regime nu < alpha.

    The integral is exact, with no quadrature. F(s) = log(K(t,s)/(1+s)) is
    piecewise linear in s. With tau = t - s and the row exponent E(k) of
    echo_kernel, every term with k >= 1 has phase k tau + l s >= tau + s = t,
    -alpha l <= -alpha and d >= 0, so it lies below the floor
    E = -alpha (1 + t) of (k, l) = (1, 1). A term with k = -m, m >= 1, has
    d = m + l and

        E = -alpha l - g(m+l) - alpha (m+l) tau/t - alpha |(m+l) s - m t|,

    a tent peaked at p = m t/(m+l) with height -2 alpha l - g(m+l), rising
    at alpha (m+l)(1 + 1/t) on its left and changing at alpha (m+l)(1/t - 1)
    on its right. So F is the larger of the floor and the trunc^2 tents. The
    heights fall as m grows, so the tents that clear the floor are a prefix
    of each row, and only their peaks split [0, t] into intervals. None
    clears it while alpha (t - 1) <= g(2); this covers t < 1, where the right
    sides rise too. On an interval each tent is one line, and
    by the candidate-set proof of echo_kernel the sup of row l there is one
    of the tents m = floor(l s/tau) and m + 1, whose peaks bracket the
    interval, and m = 1 (each clamped to the row's prefix; a clamped tent is
    still a term of the sup). F is the upper envelope of these lines and the
    floor, which is convex, so the line that wins both ends of a stretch
    holds on all of it: each interval is split at the crossing of the lines
    that win its two ends until one line wins both. On a piece [a, b] where
    G(s) = F(s) - nu (t - s) has slope B, with h = b - a and z = B h,

        int_a^b (1+s) e^G ds = e^{G(a)} h [(1 + a) phi1(z) + h psi(z)],

    phi1(z) = (e^z - 1)/z, psi(z) = (1 + (z - 1) e^z)/z^2. Where B > 0 the
    same integral runs from b down to a, so that z <= 0 and nothing
    overflows (_linear_exp_integrals). The pieces are summed with math.fsum.
    A Gauss-Lobatto rule on echo_kernel, split at every clearing peak, is
    the tests' oracle for this integral.
    """
    refuse(broken(KERNEL_RULES, {"nu": nu, "alpha": spec.alpha, "t": t}))
    a, b, fa, fb = _forward_pieces(spec, t)
    pieces = _linear_exp_integrals(a, b, fa - nu * (t - a), fb - nu * (t - b))
    numeric = math.fsum(pieces.tolist())
    shape = 1.0 / (spec.alpha**3 * nu ** (1.0 + spec.gamma) * t ** (spec.gamma - 1.0))
    return numeric, shape


def echo_moment_backward(spec: EchoKernelSpec, nu: float, s: float, T_max: float):
    """Future-weighted moment from time s and its predicted shape.

    Returns (numeric, shape) with numeric = int_s^{T_max} e^{-nu (t-s)} K(t,s) dt
    and shape = 1/(alpha^2 nu) + 1/(alpha nu^gamma). The truncated tail
    beyond T_max is bounded by (1+s) e^{-nu (T_max - s)} / nu (the kernel
    never exceeds 1+s); TailNotResolved is raised if that majorant is not
    below 1e-10 of the computed integral.

    The integral runs over the exact envelope of the kernel in t, with no
    call to echo_kernel. Fix s, let E(t) = log(K(t,s)/(1+s)) and
    tau = t - s. As in echo_moment_forward, every term with k >= 1 lies
    below the floor -alpha (1 + t) of (k, l) = (1, 1), and a term k = -m,
    m >= 1, is a tent

        E = -alpha l - g(m+l) - alpha (m+l) tau/t - alpha |(m+l) s - m t|,

    peaked at p = s (m+l)/m with height -2 alpha l - g(m+l). A tent rises
    above the floor somewhere on t >= s only if it does so at p. Right of
    p, tent - floor = c + alpha (m+l) s/t - alpha (m-1) t for a constant c,
    which falls. Left of p it is c' + alpha (m+l) s/t + alpha (m+1) t,
    which is convex, and at t = s it is -alpha (l-1)(1+s) - g(m+l) < 0; a
    convex function that is negative at s and not positive at p is not
    positive between them. So only the tents that clear the floor at their
    peaks count, those peaked past T_max included: their left sides may
    clear it before T_max. The height falls and the floor at p rises as m
    grows, so they are a prefix of each row. At s = 0 every peak is at 0,
    where the floor -alpha lies above every height, so K = e^{-alpha(1+t)}.

    [s, T_max] is split at the peaks of the clearing tents inside it. On an
    interval each tent is one side, A + B t + C/t with B = alpha m left of
    the peak, -alpha m right of it, and C = alpha (m+l) s >= 0; by the
    candidate-set proof of echo_kernel the sup of row l there is one of the
    tents m = floor(l s/tau) and m + 1, whose peaks bracket the interval,
    and m = 1, each clamped to the row's prefix (_candidates). Where a line
    is below another, their difference times t is a quadratic
    dB t^2 + dA t + dC, so the line can rise above the other at one root
    only, the one where the quadratic turns positive. From the start of
    each interval the winning line is followed up to the first such root
    of a line that clears it by more than _ENVELOPE_TOL on the rest of the
    interval, where that line takes over. A line skipped so moves the
    moment by under 1e-12 relative. The floor pieces are integrated exactly
    (_linear_exp_integrals), the tent pieces by a fixed Gauss-Legendre rule
    on panels over which the exponent changes by a bounded amount
    (_tent_integrals), and all of them are summed with math.fsum. Each
    moment the tests check agrees with a Gauss-Lobatto rule on echo_kernel,
    split at every clearing peak, to 1e-12 relative.
    """
    refuse(broken(KERNEL_RULES, {"nu": nu, "alpha": spec.alpha}))
    if s < 0 or T_max <= s:
        raise ConstraintViolation("need 0 <= s < T_max")
    a, b, k, l = _backward_pieces(spec, s, T_max)
    floor = k > 0.0
    fa, fb = a[floor], b[floor]
    pieces = _linear_exp_integrals(
        fa, fb, -spec.alpha * (1.0 + fa) - nu * (fa - s), -spec.alpha * (1.0 + fb) - nu * (fb - s),
        ramp=False,
    )
    tents = _tent_integrals(spec, nu, s, a[~floor], b[~floor], k[~floor], l[~floor])
    numeric = (1.0 + s) * math.fsum(pieces.tolist() + tents.tolist())
    tail = (1.0 + s) * math.exp(-nu * (T_max - s)) / nu
    if tail >= 1e-10 * numeric:
        raise TailNotResolved(
            f"tail majorant {tail:.3e} beyond T_max={T_max:g} is not below "
            f"1e-10 of the integral {numeric:.3e}; raise T_max"
        )
    shape = 1.0 / (spec.alpha**2 * nu) + 1.0 / (spec.alpha * nu**spec.gamma)
    return numeric, shape


def echo_time(l: int, k: int, s: float):
    """Time of the strong response seeded at time s by mode l onto mode k.

    Solves k (t - s) + l s = 0; returns t* = s (k - l) / k when it lies in the
    future (t* > s), else None. Since t* - s = -l s / k, that is decided on
    the integer signs: same-sign pairs and l = 0 never echo forward.
    """
    if s <= 0:
        raise ConstraintViolation("seeding time s must be > 0")
    if k == 0:
        raise ConstraintViolation("response mode k must be nonzero")
    if l * k >= 0:
        return None
    return s * (k - l) / k


@dataclass(frozen=True)
class GrowthParams:
    """Constants entering the density-growth envelope and its verification.

    A bounds the source; c scales the resonance kernel; c0 and m set the
    algebraic kernel c0/(1+s)^m; kappa is the measured stability margin;
    nu_env is the envelope exponent (the collision frequency the envelope is
    evaluated at); lambda0/lambda_weight/C0/C_W are the analyticity and
    potential constants entering the crude pointwise bound.
    """

    A: float
    c0: float
    m: float
    c: float
    kappa: float
    nu_env: float
    lambda0: float = 1.0
    lambda_weight: float = 0.0
    C0: float = 1.0
    C_W: float = 1.0

    def __post_init__(self):
        if self.A < 0 or self.c0 < 0 or self.c < 0:
            raise ConstraintViolation("A, c0 and c must be >= 0")
        if self.m <= 1:
            raise ConstraintViolation("algebraic kernel needs m > 1")
        if self.kappa <= 0:
            raise UnstableConfiguration(
                "growth control needs a positive stability margin"
            )
        if self.kappa > 1:
            raise ConstraintViolation("a margin above 1 is not a margin of |1 - L|")
        if self.nu_env <= 0:
            raise ConstraintViolation("envelope exponent nu_env must be > 0")
        if not 0 <= self.lambda_weight < self.lambda0:
            raise ConstraintViolation("need 0 <= lambda_weight < lambda0")
        if self.C0 <= 0 or self.C_W < 0:
            raise ConstraintViolation("need C0 > 0 and C_W >= 0")


def _switch_time(params: GrowthParams, gamma: float, alpha: float) -> float:
    nu, c, c0, m = params.nu_env, params.c, params.c0, params.m
    terms = (
        (c * c * nu ** (2.0 + gamma) / alpha**5) ** (1.0 / (gamma - 1.0)),
        (c * nu ** (0.5 + gamma) / alpha**2) ** (1.0 / (gamma - 1.0)),
        (c0 * c0 / nu) ** (1.0 / (2.0 * m - 1.0)),
    )
    return ENVELOPE_CONSTANT * max(terms)


def _envelope(params: GrowthParams, alpha: float, T: float, t: float) -> float:
    """The envelope product of growth_envelope, for a given alpha and switch time T."""
    C, nu, c0, c = ENVELOPE_CONSTANT, params.nu_env, params.c0, params.c
    total_exponent = C * (c0 + T + c * (1.0 + T * T)) + nu * t
    if total_exponent > 700.0:
        return math.inf  # the bound holds but carries no information
    return (
        C
        * params.A
        * (1.0 + c0 * c0)
        / math.sqrt(nu)
        * math.exp(C * c0)
        * (1.0 + c / (alpha * nu))
        * math.exp(C * T)
        * math.exp(C * c * (1.0 + T * T))
        * math.exp(nu * t)
    )


def growth_envelope(params: GrowthParams, spec: EchoKernelSpec, t: float) -> float:
    """Exponential envelope for the weighted density at time t, under the
    resonance kernel of spec (its width alpha and decay exponent gamma).

    The envelope is C A (1+c0^2)/sqrt(nu) e^{C c0} (1 + c/(alpha nu)) e^{C T}
    e^{C c (1+T^2)} e^{nu t}, with T the three-term switch time and C the
    frozen calibrated constant ENVELOPE_CONSTANT. Valid for nu_env < alpha.
    """
    if not params.nu_env < spec.alpha:
        raise ConstraintViolation("envelope exponent must satisfy nu_env < alpha")
    if t < 0:
        raise ConstraintViolation("time must be >= 0")
    T = _switch_time(params, spec.gamma, spec.alpha)
    return _envelope(params, spec.alpha, T, t)


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """Outcome of checking a weighted density series against its bounds.

    Each check's largest ratio of the series to its bound, and the time it
    was reached: a ratio above 1 is a violated bound, which the caller gates.
    """

    checked_indices: tuple
    max_hypothesis_ratio: float
    worst_hypothesis_time: float
    max_crude_ratio: float
    worst_crude_time: float
    max_envelope_ratio: float
    worst_envelope_time: float


def growth_verify(phi, k0_series, spec: EchoKernelSpec, params: GrowthParams) -> VerifyReport:
    """Check a weighted density series against the integral hypothesis and
    both certified bounds.

    phi is (times, values) on a uniform grid, values complex (the weighted
    single-mode series). k0_series holds the weighted convolution kernel
    sampled at the same grid offsets, spec the resonance kernel K, and
    params the source bound A, the algebraic kernel c0 (1+s)^{-m} and the
    other growth constants.

    Three checks, each reported as its largest ratio of lhs to bound and
    the time of that worst case; none raises on a violation:
    (1) the hypothesis, on GROWTH_CHECK_POINTS evenly spaced grid times:
        |phi(t) - sum_w e^{-nu u} K0(u) phi(s)| against
        A + sum_w e^{-nu u} (c K(t,s) + c0 (1+s)^{-m}) |phi(s)|
        (trapezoid weights);
    (2) the crude pointwise bound 2A exp(C (C0 C_W t/(lambda0 - lambda)
        + c (t + t^2) + c0/(m-1))), at every grid time;
    (3) the calibrated envelope, at every grid time.
    """
    times, values = phi
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ConstraintViolation("phi must be (times, values) on a shared grid")
    dt = float(times[1] - times[0])
    if dt <= 0 or np.max(np.abs(np.diff(times) - dt)) > 1e-9 * dt:
        raise ConstraintViolation("phi must be sampled on a uniform grid")
    if abs(times[0]) > 1e-12:
        raise ConstraintViolation("the series must start at t = 0")
    k0 = np.asarray(k0_series, dtype=complex)
    if k0.shape != times.shape:
        raise ConstraintViolation("k0_series must be sampled on the phi grid")
    A, c0, m, nu = params.A, params.c0, params.m, params.nu_env
    n = times.size
    mag = np.abs(values)
    decay = np.exp(-nu * times)  # e^{-nu u} at grid offsets u
    alg = c0 / (1.0 + times) ** m

    idx = np.unique(np.linspace(0, n - 1, min(GROWTH_CHECK_POINTS, n)).round().astype(int))

    max_hyp, worst_hyp_t = 0.0, float(times[0])
    for i in idx:
        w = np.full(i + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        if i == 0:
            lhs = mag[0]
            rhs = A
        else:
            conv = np.dot(w * decay[i::-1] * k0[i::-1], values[: i + 1])
            lhs = abs(values[i] - conv)
            load = alg[: i + 1].copy()
            if params.c > 0:
                t_i = float(times[i])
                load = load + params.c * echo_kernel(spec, t_i, times[: i + 1])
            rhs = A + float(np.dot(w * decay[i::-1] * load, mag[: i + 1]))
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
        if ratio > max_hyp:
            max_hyp, worst_hyp_t = ratio, float(times[i])

    # The crude exponent can overflow exp, so compare in log space.
    rate = params.C0 * params.C_W / (params.lambda0 - params.lambda_weight)
    log_crude = ENVELOPE_CONSTANT * (
        rate * times + params.c * (times + times**2) + c0 / (m - 1.0)
    ) + (math.log(2.0 * A) if A > 0 else -np.inf)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    crude_gap = log_mag - log_crude
    crude_gap[np.isneginf(log_mag) & np.isneginf(log_crude)] = -np.inf
    max_crude = float(np.exp(np.min([np.max(crude_gap), 50.0])))

    env = np.array([growth_envelope(params, spec, float(t)) for t in times])
    env_ratio = mag / env
    return VerifyReport(
        checked_indices=tuple(int(i) for i in idx),
        max_hypothesis_ratio=float(max_hyp),
        worst_hypothesis_time=worst_hyp_t,
        max_crude_ratio=max_crude,
        worst_crude_time=float(times[np.argmax(crude_gap)]),
        max_envelope_ratio=float(np.max(env_ratio)),
        worst_envelope_time=float(times[np.argmax(env_ratio)]),
    )
