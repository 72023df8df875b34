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

from .errors import broken, refuse

__all__ = [
    "VelocityProfile",
    "Interaction",
    "profile_fourier",
    "profile_sample",
    "profile_sample_dv",
    "interaction_hat",
]

# The model's rules (errors.broken): a collision frequency's, a Maxwellian's
# spread, and an interaction's, whose power-law rules bind kind power_law only.
NU_RULE = (("nu",), lambda nu: nu >= 0, "collision frequency must be >= 0")
MAXWELLIAN_RULES = ((("thermal_speed",), lambda s: s > 0, "must be > 0"),)
GAMMA_RULE = (("gamma",), lambda g: 1 < g < math.inf, "must exceed 1 for a summable potential")
INTERACTION_RULES = (
    (("kind",), lambda kind: kind in Interaction.KINDS, "unknown kind {!r} (power_law, zero)"),
    GAMMA_RULE,
    (("amplitude",), lambda a: 0 < a <= 1, "must lie in (0, 1] (the decay bound)"),
    (("sign",), lambda sign: sign in (1, -1), "must be 1 or -1"),
)


@dataclass(frozen=True)
class VelocityProfile:
    """Normalized equilibrium f0(v): a positive mixture of Maxwellians.

    components: tuple of (weight, center, thermal_speed). Weights must be
    positive and sum to 1 so the profile carries unit mass.
    """

    components: tuple
    # the keys each kind reads, in the order of its constructor of that name
    KINDS = {"maxwellian": ("thermal_speed",), "sum_of_maxwellians": ("components",)}

    def __post_init__(self):
        comps = tuple((float(w), float(c), float(s)) for w, c, s in self.components)
        object.__setattr__(self, "components", comps)
        refuse(self.problems(comps))

    @staticmethod
    def problems(components, name="components") -> list:
        """The "name: text" problems of (weight, center, spread) components:
        each must be finite with weight > 0 and spread > 0, and the weights of
        those that are must sum to 1."""
        problems, total, n = [], 0.0, 0
        for w, c, s in components:
            piece = f"'{w:g}:{c:g}:{s:g}'"
            if not all(map(math.isfinite, (w, c, s))):
                problems.append(f"{name}: {piece} is not finite")
            elif w <= 0 or s <= 0:
                problems.append(f"{name}: {piece} needs weight > 0 and spread > 0")
            else:
                total, n = total + w, n + 1
        if not n:
            problems.append(f"{name}: at least one weight:center:spread triple")
        elif abs(total - 1.0) > 1e-12:
            problems.append(f"{name}: weights must sum to 1")
        return problems

    @classmethod
    def maxwellian(cls, thermal_speed: float) -> "VelocityProfile":
        refuse(broken(MAXWELLIAN_RULES, {"thermal_speed": thermal_speed}))
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
    field convention; -1 flips it. Held to INTERACTION_RULES.
    """

    kind: str = "power_law"
    gamma: float = 2.0
    amplitude: float = 1.0
    sign: int = 1
    # the keys each kind reads, in the order of its constructor of that name
    KINDS = {"power_law": ("gamma", "amplitude", "sign"), "zero": ()}

    def __post_init__(self):
        read = ("kind", *self.KINDS.get(self.kind, ()))
        refuse(broken(INTERACTION_RULES, {f: getattr(self, f) for f in read}))

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
    """Fourier multiplier W_hat(k) of scalar modes, zero at k=0. An
    Interaction's amplitude lies in (0, 1], so |W_hat(k)| <= 1/(1+|k|^gamma)."""
    k = np.asarray(k)
    if W.kind == "zero":
        out = np.zeros(k.shape if k.ndim else (), dtype=float)
        return float(out) if out.ndim == 0 else out
    kabs = np.abs(np.asarray(k, dtype=float))
    out = np.where(
        kabs == 0.0,
        0.0,
        W.sign * W.amplitude / (1.0 + kabs**W.gamma),
    )
    return float(out) if out.ndim == 0 else out

