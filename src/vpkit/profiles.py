"""Analytic velocity equilibria and interaction potentials.

Equilibria are Maxwellian mixtures, so the velocity Fourier transform is
closed-form. The transform convention used everywhere in this package is

    f_hat(eta) = integral f(v) exp(-2*pi*i*eta*v) dv,

which makes f_hat(0) = 1 for a unit-mass profile and lets exponential
analyticity weights exp(2*pi*lambda*|eta|) be applied without stray factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, NotAnalyticAtWidth

__all__ = [
    "VelocityProfile",
    "Interaction",
    "AnalyticityCertificate",
    "profile_fourier",
    "profile_sample",
    "profile_sample_dv",
    "interaction_hat",
    "verify_analyticity",
]


@dataclass(frozen=True)
class VelocityProfile:
    """Normalized equilibrium f0(v): a positive mixture of Maxwellians.

    components: tuple of (weight, center, thermal_speed). Weights must be
    positive and sum to 1 so the profile carries unit mass.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), float(c), float(s)) for w, c, s in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ConstraintViolation("profile needs at least one component")
        total = 0.0
        for w, c, s in comps:
            if not all(map(math.isfinite, (w, c, s))):
                raise ConstraintViolation(f"profile component {(w, c, s)!r} is not finite")
            if w <= 0.0:
                raise ConstraintViolation("mixture weights must be positive")
            if s <= 0.0:
                raise ConstraintViolation("thermal speeds must be positive")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ConstraintViolation(
                f"mixture weights sum to {total!r}, expected 1 (unit mass)"
            )

    @classmethod
    def maxwellian(cls, thermal_speed: float) -> "VelocityProfile":
        return cls(components=((1.0, 0.0, float(thermal_speed)),))

    @classmethod
    def sum_of_maxwellians(cls, components) -> "VelocityProfile":
        return cls(components=tuple(components))

    @property
    def kind(self) -> str:
        if len(self.components) == 1 and self.components[0][1] == 0.0:
            return "maxwellian"
        return "sum_of_maxwellians"

    @property
    def thermal_speed(self) -> float:
        """Mass-weighted RMS spread, sqrt(sum w*(s^2 + c^2)) about v=0.

        For a single centered Maxwellian this is just its thermal speed; it is
        the velocity scale used for grid sizing and step-control heuristics.
        """
        return float(
            np.sqrt(sum(w * (s * s + c * c) for w, c, s in self.components))
        )


@dataclass(frozen=True)
class Interaction:
    """Interaction potential W described by its Fourier multiplier.

    kind "power_law": W_hat(k) = sign * amplitude / (1 + |k|^gamma), k != 0.
    kind "zero": no interaction (free transport reference).
    sign +1 gives the stable (repulsive-like) coupling under this package's
    field convention; -1 flips it.
    """

    kind: str = "power_law"
    gamma: float = 2.0
    amplitude: float = 1.0
    sign: int = 1

    def __post_init__(self):
        if self.kind not in ("power_law", "zero"):
            raise ConstraintViolation(f"unknown interaction kind {self.kind!r}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.amplitude)):
            raise ConstraintViolation("interaction gamma and amplitude must be finite")
        if self.kind == "power_law":
            if self.gamma <= 1.0:
                raise ConstraintViolation(
                    f"power-law decay needs gamma > 1, got {self.gamma!r}"
                )
            if self.sign not in (1, -1):
                raise ConstraintViolation("sign must be +1 or -1")

    @classmethod
    def zero(cls) -> "Interaction":
        return cls(kind="zero", gamma=2.0, amplitude=0.0, sign=1)

    @classmethod
    def power_law(cls, gamma: float, amplitude: float = 1.0, sign: int = 1) -> "Interaction":
        return cls(kind="power_law", gamma=float(gamma), amplitude=float(amplitude), sign=int(sign))


@dataclass(frozen=True)
class AnalyticityCertificate:
    """Measured analyticity data: sup over the grid of the weighted transform.

    C0 bounds exp(2*pi*lambda0*|eta|) * |f0_hat(eta)| on [0, eta_max], with the
    tail checked to be decreasing at the edge so the sup is global.
    """

    lambda0: float
    C0: float
    eta_max: float


def profile_fourier(profile: VelocityProfile, eta):
    """Closed-form transform f0_hat(eta) of the mixture, for any array of eta."""
    eta = np.asarray(eta, dtype=float)
    out = np.zeros(eta.shape, dtype=complex)
    for w, c, s in profile.components:
        out = out + w * np.exp(-2j * np.pi * c * eta) * np.exp(
            -2.0 * np.pi**2 * s * s * (eta * eta)
        )
    return complex(out) if out.ndim == 0 else out


def profile_sample(profile: VelocityProfile, v):
    """Pointwise density f0(v) = sum_j w_j * N(c_j, s_j^2)(v) >= 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape, dtype=float)
    for w, c, s in profile.components:
        out = out + w / (np.sqrt(2.0 * np.pi) * s) * np.exp(
            -((v - c) ** 2) / (2.0 * s * s)
        )
    return float(out) if out.ndim == 0 else out


def profile_sample_dv(profile: VelocityProfile, v):
    """d f0 / dv in closed form (used by response models)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape, dtype=float)
    for w, c, s in profile.components:
        g = w / (np.sqrt(2.0 * np.pi) * s) * np.exp(-((v - c) ** 2) / (2.0 * s * s))
        out = out + g * (-(v - c) / (s * s))
    return float(out) if out.ndim == 0 else out


def interaction_hat(W: Interaction, k):
    """Fourier multiplier W_hat(k) of scalar modes. Zero at k=0; decay bound enforced.

    Raises ConstraintViolation if the configured amplitude would break
    |W_hat(k)| <= 1/(1+|k|^gamma).
    """
    k = np.asarray(k)
    if W.kind == "zero":
        out = np.zeros(k.shape if k.ndim else (), dtype=float)
        return float(out) if out.ndim == 0 else out
    if abs(W.amplitude) > 1.0:
        raise ConstraintViolation(
            f"amplitude {W.amplitude!r} exceeds the decay bound 1/(1+|k|^gamma)"
        )
    kabs = np.abs(np.asarray(k, dtype=float))
    out = np.where(
        kabs == 0.0,
        0.0,
        W.sign * W.amplitude / (1.0 + kabs**W.gamma),
    )
    return float(out) if out.ndim == 0 else out


def verify_analyticity(
    profile: VelocityProfile,
    lambda0: float,
    eta_max: float,
    n_samples: int = 4097,
) -> AnalyticityCertificate:
    """Sample sup_eta exp(2*pi*lambda0*|eta|) * |f0_hat(eta)| on [0, eta_max].

    |f0_hat| is even (the profile is real), so scanning eta >= 0 suffices.
    Raises NotAnalyticAtWidth when the weighted transform is still growing at
    the grid edge, i.e. the requested width exceeds the profile's Gaussian
    decay on this grid.
    """
    if lambda0 < 0.0:
        raise ConstraintViolation("lambda0 must be nonnegative")
    if eta_max <= 0.0 or n_samples < 16:
        raise ConstraintViolation("need eta_max > 0 and a reasonable sample count")
    eta = np.linspace(0.0, float(eta_max), int(n_samples))
    weight = np.exp(2.0 * np.pi * lambda0 * eta)
    weighted = weight * np.abs(profile_fourier(profile, eta))
    # Mixture centers only add phases, so |f0_hat(eta)| is bounded by the
    # smooth envelope sum_j w_j exp(-2 pi^2 s_j^2 eta^2). The edge check runs
    # on the weighted envelope: it has a single interior maximum, so growth in
    # the last 5% of the grid means the grid ends inside the growth region and
    # the sampled sup certifies nothing.
    envelope = weight * sum(
        w * np.exp(-2.0 * np.pi**2 * s * s * eta * eta)
        for w, _, s in profile.components
    )
    tail = envelope[int(0.95 * n_samples):]
    if tail.size >= 2 and np.any(np.diff(tail) > 0.0):
        raise NotAnalyticAtWidth(
            f"weighted transform grows near eta_max={eta_max} for lambda0={lambda0}"
        )
    c0 = float(weighted.max())
    if envelope[-1] > c0:
        # everything beyond the grid is below envelope(eta_max); if that still
        # exceeds the sampled sup the grid is too short to certify C0
        raise NotAnalyticAtWidth(
            f"grid ends at eta_max={eta_max} before the envelope falls under the sampled sup"
        )
    return AnalyticityCertificate(lambda0=float(lambda0), C0=c0, eta_max=float(eta_max))
