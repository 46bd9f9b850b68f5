"""Translational quadcopter model and its exact linearization.

The physical input is (thrust, roll, pitch); yaw is an exogenous parameter.
Commanding translational accelerations instead of attitude turns the dynamics
into three decoupled double integrators: the input map implemented by
``to_physical`` inverts the acceleration map ``accel`` exactly on its domain,
so the closed loop in acceleration coordinates is linear with no
approximation error.

State convention throughout the package: ``xi = [x, y, z, xd, yd, zd]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PhysicalInput",
    "accel",
    "to_physical",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a model map."""


@dataclass(frozen=True)
class PhysicalInput:
    """Normalized thrust (m/s^2) and attitude angles (rad) of the vehicle.

    Thrust must be nonnegative and both angles must stay within
    [-pi/2, pi/2]; outside that range the attitude parameterization of the
    translational dynamics is no longer injective.
    """

    thrust: float
    roll: float
    pitch: float

    def __post_init__(self) -> None:
        thrust, roll, pitch = self.thrust, self.roll, self.pitch
        if not (math.isfinite(thrust) and math.isfinite(roll) and math.isfinite(pitch)):
            raise DomainError("physical input must be finite")
        if thrust < 0.0:
            raise DomainError(f"thrust must be nonnegative, got {thrust}")
        if abs(roll) > math.pi / 2 or abs(pitch) > math.pi / 2:
            raise DomainError("roll/pitch must lie in [-pi/2, pi/2]")


def _three_floats(v):
    """The components of the 3-vector ``v`` as floats; a ValueError names
    the shape of any other input, so no component is dropped silently."""
    shape = np.shape(v)
    if shape != (3,):
        raise ValueError(f"v needs exactly three values, got shape {shape}")
    v1, v2, v3 = v
    return float(v1), float(v2), float(v3)


def accel(u: PhysicalInput, psi: float, g: float) -> np.ndarray:
    """Translational acceleration produced by input ``u`` at yaw ``psi``.

    Returns the 3-vector (xdd, ydd, zdd); gravity acts on the z row.

    Raises:
        DomainError: if ``psi`` or ``g`` is not finite.
    """
    cpsi, spsi = _yaw_trig(psi, g)
    t = u.thrust
    cphi, sphi = math.cos(u.roll), math.sin(u.roll)
    cth, sth = math.cos(u.pitch), math.sin(u.pitch)
    return np.array((
        t * (cphi * sth * cpsi + sphi * spsi),
        t * (cphi * sth * spsi - sphi * cpsi),
        t * cphi * cth - g,
    ))


def _yaw_trig(psi: float, g: float):
    """The cosine and sine of the yaw, after checking that the yaw and
    gravity are finite: the one check that :func:`accel`, :func:`to_physical`
    and the closed loop of ``simulation.run`` make on them."""
    if not (math.isfinite(psi) and math.isfinite(g)):
        raise DomainError("yaw and gravity must be finite")
    return math.cos(psi), math.sin(psi)


def to_physical(v, psi: float, g: float) -> PhysicalInput:
    """Map an acceleration command ``v`` to the physical input (T, roll, pitch).

    This is the exact linearizing inverse of :func:`accel` for fixed yaw:
    ``accel(to_physical(v, psi, g), psi, g) == v`` wherever the map is
    defined. Requires ``v[2] > -g`` strictly; at and below the apex the
    thrust direction degenerates and the pitch angle is undefined.

    Raises:
        ValueError: if ``v`` is not exactly three values.
        DomainError: if ``psi`` or ``g`` is not finite, ``v`` is not
            finite, or ``v[2] <= -g``.
    """
    v1, v2, v3 = _three_floats(v)
    cpsi, spsi = _yaw_trig(psi, g)
    if not (math.isfinite(v1) and math.isfinite(v2) and math.isfinite(v3)):
        raise DomainError("acceleration command must be finite")
    c = v3 + g
    if c <= 0.0:
        raise DomainError(f"v3 must exceed -g, got v3={v3} with g={g}")
    t = math.sqrt(v1 * v1 + v2 * v2 + c * c)
    a = v1 * cpsi + v2 * spsi
    b = v1 * spsi - v2 * cpsi
    # roll = arcsin(b / t), but evaluated as atan2(b, hypot(a, c)): the same
    # value since t^2 = a^2 + b^2 + c^2, without the arcsin conditioning
    # blow-up near +-pi/2 or its argument leaving [-1, 1] by rounding
    roll = math.atan2(b, math.hypot(a, c))
    # c > 0, so atan2 lands in (-pi/2, pi/2) and equals atan of the ratio
    pitch = math.atan2(a, c)
    # for finite v with c > 0 only the thrust can overflow: |cpsi|, |spsi| <= 1,
    # so a and b are finite or +-inf, never NaN; atan2 with a second argument
    # >= c > 0 is then finite and within [-pi/2, pi/2], and t >= c > 0;
    # PhysicalInput rejects the one failure left, a thrust that overflows
    return PhysicalInput(t, roll, pitch)

