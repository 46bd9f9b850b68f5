"""Input-constraint geometry in both coordinate systems.

The physical limits form a box on (thrust, roll, pitch). Pulled back to
acceleration coordinates that box becomes yaw-dependent and non-convex, so
the controller works with a yaw-free convex inner approximation instead: the
intersection of a gravity-shifted ball (thrust bound), a vertical cone (tilt
bound) and the open half-space above the cone apex; its membership test has
no slack and accepts only exact members. The largest origin-centered ball
inside that set has a closed-form radius used by the certificate
synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .flat_model import PhysicalInput, _three_floats

__all__ = [
    "ConstraintParams",
    "in_U",
    "in_Vc",
    "max_inscribed_ball",
]

# The membership margin. Each float operation returns its exact result
# times 1 + d with |d| <= u = 2^-53 (Higham, *Accuracy and Stability of
# Numerical Algorithms*, 2002, section 2.2); bounds are first order in u.
# c = fl(v3 + g) has the sign of v3 + g, so the clause c > 0 is exact. The
# computed ball sum h2 + c^2 is within (1 -+ u)^4 of the exact one, and
# the computed cone sides h2 and c^2 (tan2_eps m) within (1 -+ u)^2 and
# (1 -+ u)^5, counting the rounding of t2_max m and tan2_eps m. So with
# m = 1 - 8u a computed clause that holds also holds exactly (8 > 4 + 1
# and 8 > 2 + 5): the test is sound. Conversely the computed clauses hold
# for every exact member with 13u t2_max of ball slack and 15u c^2
# tan2_eps of cone slack (8 + 4 + 1 and 8 + 2 + 5), which is what the
# saturation's backoff provides. Underflow is left out: a float c > 0 is
# at least about g u, so for limits of order one every term that decides
# a clause is a normal number.
_INSIDE = 1.0 - 8 * 2.0**-53

# The saturation's backoff 1 - kappa u, bounds first order in u as above,
# in the notation of the exit formulas in the saturation module docstring
# (k = t2_max - g^2, the ball exit lam_b and the cone exit lam_c). Let lam
# be the backed-off factor, q = lam v exactly, w the rounded output,
# tau = sqrt(tan2_eps) (the kernels' tan_eps is within u of it),
# R = t2_max/k and Q = t_max/g. Rounding q to w moves the ball
# sum by at most 4u t2_max and the cone slack c tau - |w_h| by at most
# u (8.5c + |q3|) tau, so w passes the membership test when q has
# 17u t2_max of ball slack and 9.5u t_max tau of cone slack.
# - Ball. The ball slack k - a l^2 - 2 beta l of l v is concave in l, k at
#   0 and 0 at the exact exit lam_b, so it is at least k (1 - l/lam_b).
#   The computed lam_b is within (15 + 1.5R)u of lam_b: h2, a, beta, k, r,
#   q^2 and s carry 2, 3, 1, R, 2.5, 10 and 10 + R/2 units of u, either
#   branch adds at most 5 + R more, and the backoff's product and its own
#   rounding add 1.5. So kappa >= 16.5 + 18.5R gives the ball slack.
# - Cone. The cone slack g tau - l den of l v is linear in l, g tau at 0
#   and 0 at the exact exit lam_c. The computed den is within
#   u (2|v_h| + 2|v3| tau + den) of the exact one; times lam, at an output
#   inside both sets (c <= t_max, |q3| < t_max), that is at most
#   u (4 t_max - g) tau, and the products, the division and the backoff
#   add 4.5u of g tau. So kappa >= 3.5 + 13.5Q gives the cone slack. The
#   output is inside the cone: where the cone exit binds, the same terms
#   put the computed lam_c within (2 + 4Q)u of lam_c.
# kappa = 20 (R + Q) covers both, as R > 1 and Q > 1, with room left for
# the O(u^2) terms; it is 67 for the default limits. A command that fails
# the membership test has less slack than an output needs, so its
# backed-off factor is below 1. ConstraintParams.backoff holds it.
# First order holds only while kappa u is small (t_max = g + 2 ulps gives
# kappa u = 3, a negative backoff), so the limits must keep kappa u <=
# 2^-20: the room left is at least kappa/16 units of u in both cases (ball
# 1.5R + 20Q - 16.5, cone 20R + 6.5Q - 3.5), which a second-order term
# c (kappa u)^2 does not fill for any c <= 2^16. That is a backoff in
# [1 - 2^-20, 1): t_max / g between about 1 + 1.2e-9 and 4.3e8. The bounds
# that decide a clause are taken as normal floats, neither zero, subnormal
# nor infinite; _NORMAL maps each to the limits it is derived from.
_NORMAL = {"t2_max": ("t_max",), "t2_max_inside": ("t_max",), "k": ("g", "t_max"),
           "tan2_eps": ("phi_max", "theta_max"), "tan2_eps_inside": ("phi_max", "theta_max"),
           "g_tan_eps": ("g", "phi_max", "theta_max")}


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

    The remaining fields are derived once, here, for the per-sample
    kernels: ``t2_max_inside`` and ``tan2_eps_inside``, the ball and cone
    bounds of the membership test times its margin; ``k = t2_max - g^2``;
    ``backoff``, the saturation's factor ``1 - kappa 2^-53`` (derivation
    above); and ``g_tan_eps``, the numerator of the cone exit. Limits that
    the rounding analysis does not cover (derivation above) are a
    ValueError naming them.
    """

    g: float = 9.81
    t_max: float = 1.45 * 9.81
    phi_max: float = math.pi / 18
    theta_max: float = math.pi / 18
    eps_max: float = field(init=False)
    tan_eps: float = field(init=False)
    tan2_eps: float = field(init=False)
    t2_max: float = field(init=False)
    t2_max_inside: float = field(init=False, repr=False)
    tan2_eps_inside: float = field(init=False, repr=False)
    k: float = field(init=False, repr=False)
    backoff: float = field(init=False, repr=False)
    g_tan_eps: float = field(init=False, repr=False)

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
        tan_eps = math.tan(eps)
        tan2_eps = tan_eps**2
        t2_max = self.t_max * self.t_max
        k = t2_max - self.g * self.g
        derived = dict(
            eps_max=eps, tan_eps=tan_eps, tan2_eps=tan2_eps, t2_max=t2_max,
            t2_max_inside=t2_max * _INSIDE, tan2_eps_inside=tan2_eps * _INSIDE, k=k,
            g_tan_eps=self.g * tan_eps,
        )
        for name, limits in _NORMAL.items():
            value = derived[name]
            if not (math.isfinite(value) and abs(value) >= 2.0**-1022):
                given = ", ".join(f"{limit}={getattr(self, limit)!r}" for limit in limits)
                raise ValueError(f"the limits {given} give {name} = {value!r}, not a normal float")
        backoff = 1.0 - 20 * 2.0**-53 * (t2_max / k + self.t_max / self.g)
        if not 1.0 - 2.0**-20 <= backoff < 1.0:
            raise ValueError(f"the limits g={self.g!r}, t_max={self.t_max!r} give the saturation "
                             f"backoff {backoff!r}, outside [1 - 2^-20, 1): t_max / g must lie "
                             "between about 1 + 1.2e-9 and 4.3e8")
        derived["backoff"] = backoff
        # object.__setattr__, not self.__dict__.update: touching __dict__
        # makes every later attribute read slower, and the kernels read
        # these fields on every sample
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def in_U(u: PhysicalInput, p: ConstraintParams) -> bool:
    """Membership in the physical input box, boundary included."""
    return bool(_u_clauses(u.thrust, u.roll, u.pitch, p))


def _u_clauses(thrust, roll, pitch, p: ConstraintParams):
    """The :func:`in_U` clauses joined with ``&``, on floats or row-wise on
    1-D arrays: the one definition that the public test and the
    simulation monitors share."""
    return (
        (thrust >= 0.0)
        & (thrust <= p.t_max)
        & (abs(roll) <= p.phi_max)
        & (abs(pitch) <= p.theta_max)
    )


def in_Vc(v, p: ConstraintParams) -> bool:
    """Membership in the convex acceleration command set.

    Three clauses: shifted ball v1^2 + v2^2 + (v3+g)^2 <= t_max^2, cone
    v1^2 + v2^2 <= (v3+g)^2 tan^2(eps_max) and open half-space v3 > -g,
    so the apex is not a member. The squared cone clause also holds on the
    mirror cone below the apex: ``(0, 0, -2g)`` passes the ball and cone
    clauses, and only the half-space rejects it. The test is sound: it
    accepts only exact members of the set with the stored ``t2_max`` and
    ``tan2_eps``, and rejects some within rounding of the boundary. The
    clauses are positive comparisons, so a NaN component fails them, and an
    infinite one fails the ball clause: non-finite commands are never
    members. A ``v`` that is not exactly three values raises ValueError.
    """
    return bool(_vc_clauses(*_three_floats(v), p))


def _vc_clauses(v1, v2, v3, p: ConstraintParams):
    """The three :func:`in_Vc` clauses joined with ``&``, on floats or
    row-wise on 1-D coordinate arrays: the one membership test, which the
    saturation kernels, their oracle and the run monitors share, and which
    the closed loop inlines with the same operations in the same order."""
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    cc = c * c
    return (
        (h2 + cc <= p.t2_max_inside)
        & (h2 <= cc * p.tan2_eps_inside)
        & (c > 0.0)
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
