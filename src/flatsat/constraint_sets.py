"""Input-constraint geometry in both coordinate systems.

The physical limits form a box on (thrust, roll, pitch). Pulled back to
acceleration coordinates that box becomes yaw-dependent and non-convex, so
the controller works with a yaw-free convex inner approximation instead: the
intersection of a gravity-shifted ball (thrust bound), a vertical cone (tilt
bound) and the half-space above the cone apex. The largest origin-centered
ball inside that set has a closed-form radius used by the certificate
synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .flat_model import PhysicalInput, _three_floats

__all__ = [
    "DEFAULT_TOL",
    "ConstraintParams",
    "in_U",
    "in_Vc",
    "max_inscribed_ball",
]

# absolute slack on the squared-quantity membership inequalities: the
# default of in_Vc, the feasibility slack of the saturation and the command
# slack of the run monitors
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ConstraintParams:
    """Actuation limits of the vehicle.

    Attributes:
        g: gravitational acceleration (m/s^2).
        t_max: maximum normalized thrust (m/s^2); must exceed g, otherwise
            hover is infeasible and the convex command set has empty
            interior around the origin.
        phi_max, theta_max: roll and pitch limits (rad), each in (0, pi/2).

    The tilt bound ``eps_max`` is the smaller of the two angle limits.
    Defaults are the desk-scale nano-drone values used throughout the test
    suite: g = 9.81, t_max = 1.45 g, both angles 10 degrees.
    """

    g: float = 9.81
    t_max: float = 1.45 * 9.81
    phi_max: float = math.pi / 18
    theta_max: float = math.pi / 18
    eps_max: float = field(init=False)
    tan_eps: float = field(init=False)
    tan2_eps: float = field(init=False)
    t2_max: float = field(init=False)

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(x) for x in (self.g, self.t_max, self.phi_max, self.theta_max)
        ):
            raise ValueError("constraint parameters must be finite")
        if self.g <= 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.t_max <= self.g:
            raise ValueError(
                f"infeasible hover: t_max={self.t_max} must exceed g={self.g}"
            )
        for name in ("phi_max", "theta_max"):
            a = getattr(self, name)
            if not 0.0 < a < math.pi / 2:
                raise ValueError(f"{name} must lie in (0, pi/2), got {a}")
        eps = min(self.theta_max, self.phi_max)
        object.__setattr__(self, "eps_max", eps)
        object.__setattr__(self, "tan_eps", math.tan(eps))
        object.__setattr__(self, "tan2_eps", math.tan(eps) ** 2)
        object.__setattr__(self, "t2_max", self.t_max * self.t_max)


def in_U(u: PhysicalInput, p: ConstraintParams, tol: float = 0.0) -> bool:
    """Membership in the physical input box, inclusive within ``tol``."""
    return bool(_u_clauses(u.thrust, u.roll, u.pitch, p, tol))


def _u_clauses(thrust, roll, pitch, p: ConstraintParams, tol: float):
    """The :func:`in_U` clauses joined with ``&``, on floats or row-wise on
    1-D arrays: the one definition that the public test and the
    simulation monitors share."""
    return (
        (thrust >= -tol)
        & (thrust <= p.t_max + tol)
        & (abs(roll) <= p.phi_max + tol)
        & (abs(pitch) <= p.theta_max + tol)
    )


def in_Vc(v, p: ConstraintParams, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the convex acceleration command set.

    Three clauses, with ``tol`` as absolute slack on the squared quantities:
    shifted ball  v1^2 + v2^2 + (v3+g)^2 <= t_max^2, cone
    v1^2 + v2^2 <= (v3+g)^2 tan^2(eps_max), half-space v3 >= -g.
    The clauses are positive comparisons, so a NaN component fails them,
    and an infinite one fails the ball clause: non-finite commands are
    never members. A ``v`` that is not exactly three values raises
    ValueError.
    """
    return bool(_vc_clauses(*_three_floats(v), p, tol))


def _vc_clauses(v1, v2, v3, p: ConstraintParams, tol: float):
    """The three :func:`in_Vc` clauses joined with ``&``, on floats or
    row-wise on 1-D coordinate arrays: the one definition that the scalar
    and the batch saturation kernels share."""
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    return (
        (h2 + c * c <= p.t2_max + tol)
        & (h2 <= c * c * p.tan2_eps + tol)
        & (v3 >= -p.g - tol)
    )


def max_inscribed_ball(p: ConstraintParams) -> float:
    """Squared radius ``rho`` of the largest origin-centered ball
    { v : ||v||^2 <= rho } inside the command set, in closed form.

    The origin sits on the cone axis at height g above the apex (0, 0, -g).
    Its distance to the shifted sphere is t_max - g, to the cone's lateral
    surface g*sin(eps_max), and to the half-space boundary g, which never
    binds since sin(eps_max) < 1. The squared radius is therefore
    min(t_max - g, g*sin(eps_max))^2.
    """
    r = min(p.t_max - p.g, p.g * math.sin(p.eps_max))
    return r * r
