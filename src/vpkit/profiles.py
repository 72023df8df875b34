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

from .errors import ConstraintViolation

__all__ = [
    "VelocityProfile",
    "Interaction",
    "profile_fourier",
    "profile_sample",
    "profile_sample_dv",
    "interaction_hat",
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

