"""Core vessel-model types: operating regions and thrust maps.

Conventions used throughout the package:

* body velocities ``nu = [u, v, r]`` (surge m/s, sway m/s, yaw rate rad/s),
* normalized PWM commands ``delta_l, delta_r`` in [-1, 1], usually handled
  as the mean ``(delta_l + delta_r) / 2`` and difference ``delta_l - delta_r``,
* headings in radians, stored unwrapped (continuous) wherever they are
  differentiated.

All functions here are pure and all types are immutable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatingRegion",
    "REGION_SIGN",
    "ThrustStaticParams",
    "ThrustDynamicParams",
    "classify_regions",
    "thrust_static",
]


class OperatingRegion(enum.IntEnum):
    """Sign pattern of the two propellers: forward/reverse of left, then right.

    ``delta == 0`` counts as forward, so both propellers idle is FF.
    """

    FF = 0
    FR = 1
    RF = 2
    RR = 3


# Sign of the two asymmetric sway/yaw thrust columns, indexed by region code:
# forward-forward cancels them (identical propellers on the same branch), and
# swapping which propeller reverses flips their sign.  Reverse-reverse is
# outside the identified model.
REGION_SIGN = np.array([0.0, 1.0, -1.0, 0.0])


def _require_finite(name: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ThrustStaticParams:
    """Piecewise-quadratic thrust vs normalized PWM.

    Forward branch ``a_f*d^2 + b_f*d`` for d >= 0, reverse branch with
    ``a_r, b_r`` for d < 0.  The optional dead zone replaces the map with
    shifted quadratics outside (``dead_zone_reverse``, ``dead_zone_forward``)
    and zero inside; both limits must be given together.
    """

    a_f: float
    b_f: float
    a_r: float
    b_r: float
    dead_zone_forward: float | None = None
    dead_zone_reverse: float | None = None

    def __post_init__(self) -> None:
        _require_finite("ThrustStaticParams", self.a_f, self.b_f, self.a_r, self.b_r)
        if (self.dead_zone_forward is None) != (self.dead_zone_reverse is None):
            raise ValueError("dead zone needs both forward and reverse limits")
        if self.dead_zone_forward is not None:
            if not self.dead_zone_forward > 0:
                raise ValueError("dead_zone_forward must be > 0")
            if not self.dead_zone_reverse < 0:
                raise ValueError("dead_zone_reverse must be < 0")

    @property
    def has_dead_zone(self) -> bool:
        return self.dead_zone_forward is not None


@dataclass(frozen=True)
class ThrustDynamicParams:
    """First-order thrust lag ``T(k) = alpha*T(k-1) + beta*T_st(delta(k-1))``."""

    alpha: float
    beta: float
    static_part: ThrustStaticParams

    def __post_init__(self) -> None:
        _require_finite("ThrustDynamicParams", self.alpha, self.beta)

    @property
    def stable(self) -> bool:
        return self.alpha < 1.0


def classify_regions(delta_l: np.ndarray, delta_r: np.ndarray) -> np.ndarray:
    """Operating region codes (int8) from the signs of the two PWM commands.

    Zero counts as forward, so the boundary cases land in the forward
    branches (both thrust branches agree at zero anyway).  Nothing is
    range-checked here; NaN counts as reverse.
    """
    reverse_l = ~(np.asarray(delta_l) >= 0.0)
    reverse_r = ~(np.asarray(delta_r) >= 0.0)
    return (2 * reverse_l + reverse_r).astype(np.int8)


def thrust_static(delta: float, p: ThrustStaticParams) -> float:
    """Static thrust map: piecewise quadratic in the normalized PWM command."""
    _require_finite("thrust_static", delta)
    if abs(delta) > 1.0:
        raise ValueError(f"normalized PWM out of [-1, 1]: {delta}")
    if p.has_dead_zone:
        if delta >= p.dead_zone_forward:
            shifted = delta - p.dead_zone_forward
            return p.a_f * shifted * shifted + p.b_f * shifted
        if delta <= p.dead_zone_reverse:
            shifted = delta - p.dead_zone_reverse
            return p.a_r * shifted * shifted + p.b_r * shifted
        return 0.0
    if delta >= 0.0:
        return p.a_f * delta * delta + p.b_f * delta
    return p.a_r * delta * delta + p.b_r * delta
