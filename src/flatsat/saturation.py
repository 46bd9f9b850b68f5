"""Ray saturation onto the convex acceleration command set.

An infeasible command is pulled back along the ray toward the origin until it
enters the set. Because the boundary consists of a shifted sphere, a cone and
a half-space, every boundary crossing of the ray solves a quadratic or linear
equation in the pullback factor: the optimal factor is the largest feasible
member of a closed candidate list, so the control loop never runs an
iterative solver. A bisection oracle is provided purely for cross-checking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constraint_sets import DEFAULT_TOL, ConstraintParams, in_Vc
from .flat_model import DomainError

__all__ = [
    "ActiveConstraint",
    "SaturationResult",
    "candidate_set",
    "saturate",
    "saturate_oracle",
]


class ActiveConstraint(enum.Enum):
    """Which boundary piece the saturated output landed on."""

    NONE = "none"
    BALL = "ball"
    CONE = "cone"
    HALFSPACE = "halfspace"


@dataclass(frozen=True)
class SaturationResult:
    v_out: np.ndarray
    lam: float
    saturated: bool
    active: ActiveConstraint


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a x^2 + b x + c = 0, numerically stable; complex roots
    are dropped, the degenerate linear case is handled."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    if b == 0.0:
        r = s / (2.0 * a)
        return [r, -r] if r != 0.0 else [0.0]
    q = -0.5 * (b + math.copysign(s, b))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def candidate_set(v, p: ConstraintParams) -> list[float]:
    """Candidate pullback factors: all scaled boundary crossings of the ray
    through ``v``.

    Contains at most five entries: the half-space crossing -g/v3, the two
    cone roots and the two shifted-sphere roots. Entries whose defining
    denominator vanishes (v3 = 0, or a degenerate cone quadratic) are
    skipped; complex roots are discarded. Candidates are not filtered for
    feasibility here. The half-space root is what an exactly vertical
    downward ray lands on when rounding loses the cone's double root at the
    apex.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    if v1 == 0.0 and v2 == 0.0 and v3 == 0.0:
        raise DomainError("ray through the origin is undefined")
    g = p.g
    t2 = p.tan2_eps
    out: list[float] = []
    if v3 != 0.0:
        out.append(-g / v3)
    h2 = v1 * v1 + v2 * v2
    # cone tangency: (lam v1)^2 + (lam v2)^2 = (lam v3 + g)^2 tan^2(eps)
    out.extend(_real_roots(h2 - v3 * v3 * t2, -2.0 * t2 * v3 * g, -t2 * g * g))
    # shifted sphere: (lam v1)^2 + (lam v2)^2 + (lam v3 + g)^2 = t_max^2
    out.extend(_real_roots(h2 + v3 * v3, 2.0 * v3 * g, g * g - p.t2_max))
    return out


def _residuals(v1: float, v2: float, v3: float, p: ConstraintParams):
    """Relative distance of a point to each boundary piece (ball, cone,
    half-space); quadratic clauses are normalized by t_max^2, the linear one
    by g."""
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    r_ball = abs(h2 + c * c - p.t2_max) / p.t2_max
    r_cone = abs(h2 - c * c * p.tan2_eps) / p.t2_max
    r_half = abs(c) / p.g
    return r_ball, r_cone, r_half


def saturate(v, p: ConstraintParams, tol: float = DEFAULT_TOL) -> SaturationResult:
    """Pull ``v`` back along its ray until it enters the command set.

    Feasible inputs pass through unchanged with factor 1. Otherwise the
    factor is the largest candidate in (0, 1] whose scaled point is feasible;
    candidates that cross one boundary piece outside another are rejected by
    that feasibility check. The output always satisfies membership within
    ``tol`` and, when saturated, lies on the set boundary.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    if in_Vc((v1, v2, v3), p, tol):
        return SaturationResult(
            v_out=np.array([v1, v2, v3]),
            lam=1.0,
            saturated=False,
            active=ActiveConstraint.NONE,
        )
    best = 0.0
    for lam in candidate_set((v1, v2, v3), p):
        if best < lam <= 1.0 and in_Vc((lam * v1, lam * v2, lam * v3), p, tol):
            best = lam
    if best == 0.0:
        # unreachable for finite v: the origin is interior, so the ray
        # always crosses the boundary at some factor in (0, 1)
        raise DomainError(f"no feasible pullback factor for {v!r}")
    w1, w2, w3 = best * v1, best * v2, best * v3
    c = w3 + p.g
    if w1 * w1 + w2 * w2 <= tol and c * c <= tol:
        # cone apex: the cone clause is vacuously tight there (both sides
        # vanish), so the binding constraint is the half-space
        active = ActiveConstraint.HALFSPACE
    else:
        res = _residuals(w1, w2, w3, p)
        order = (
            ActiveConstraint.BALL,
            ActiveConstraint.CONE,
            ActiveConstraint.HALFSPACE,
        )
        active = order[min(range(3), key=res.__getitem__)]
    return SaturationResult(
        v_out=np.array([w1, w2, w3]), lam=best, saturated=True, active=active
    )


def saturate_oracle(
    v, p: ConstraintParams, iters: int = 60, tol: float = 0.0
) -> float:
    """Bisection reference for the pullback factor.

    The feasible factors along a ray form an interval [0, lam*] because the
    set is convex with the origin interior, so the membership predicate is
    monotone in the factor and bisection converges to lam* within 2^-iters.
    Bisects the exact membership predicate (zero slack) by default so it
    stays an independent reference for :func:`candidate_set`.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    if in_Vc((v1, v2, v3), p, tol):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if in_Vc((mid * v1, mid * v2, mid * v3), p, tol):
            lo = mid
        else:
            hi = mid
    return lo
