"""Ray saturation onto the convex acceleration command set.

An infeasible command is pulled back along the ray toward the origin until it
enters the set. The boundary consists of a shifted sphere, a cone and a
half-space that touches the cone only at its apex, so every boundary crossing
of the ray is a root of the sphere or the cone quadratic in the pullback
factor: the optimal factor is the largest feasible member of a closed
candidate list, so the control loop never runs an iterative solver.
:func:`saturate` is the per-sample real-time path, a thin wrapper over the
float kernel that the closed loop calls directly; :func:`saturate_batch`
applies the same arithmetic to many commands at once for offline checks. A
bisection oracle is provided purely for cross-checking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constraint_sets import DEFAULT_TOL, ConstraintParams, _vc_clauses, in_Vc
from .flat_model import DomainError

__all__ = [
    "ActiveConstraint",
    "SaturationResult",
    "candidate_set",
    "saturate",
    "saturate_batch",
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


def _real_roots(a: float, b: float, c: float, disc: float) -> list[float]:
    """Real roots of a x^2 + b x + c = 0 given its discriminant
    ``disc = b^2 - 4 a c``, numerically stable; complex roots are dropped,
    the degenerate linear case is handled."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
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

    Contains at most four entries: the two cone roots and the two
    shifted-sphere roots. A degenerate cone quadratic contributes its
    linear root; complex roots are discarded. Candidates are not filtered
    for feasibility here. An exactly vertical downward ray reaches the
    half-space boundary only at the cone apex, which it gets as the cone's
    double root -g/v3.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    if v1 == 0.0 and v2 == 0.0 and v3 == 0.0:
        raise DomainError("ray through the origin is undefined")
    cone, sphere = _crossing_quadratics(v1 * v1 + v2 * v2, v3, p)
    return _real_roots(*cone) + _real_roots(*sphere)


def _crossing_quadratics(h2, v3, p: ConstraintParams):
    """Coefficients and discriminant (a, b, c, b^2 - 4ac) of the quadratics
    in the factor whose roots are the ray's cone and shifted-sphere
    crossings, for ``h2 = v1^2 + v2^2``; on floats or row-wise on 1-D
    arrays."""
    g, t2 = p.g, p.tan2_eps
    # cone tangency: (lam v1)^2 + (lam v2)^2 = (lam v3 + g)^2 tan^2(eps);
    # its discriminant reduces to 4 tan^2(eps) g^2 h2, which the difference
    # b^2 - 4ac loses to cancellation on rays that graze the apex
    a, b, c = h2 - v3 * v3 * t2, -2.0 * t2 * v3 * g, -t2 * g * g
    cone = (a, b, c, 4.0 * t2 * g * g * h2)
    # shifted sphere: (lam v1)^2 + (lam v2)^2 + (lam v3 + g)^2 = t_max^2
    a, b, c = h2 + v3 * v3, 2.0 * v3 * g, g * g - p.t2_max
    sphere = (a, b, c, b * b - 4.0 * a * c)
    return cone, sphere


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


def saturate(v, p: ConstraintParams) -> SaturationResult:
    """Pull ``v`` back along its ray until it enters the command set.

    Feasible inputs pass through unchanged with factor 1. Otherwise the
    factor is the largest candidate in (0, 1] whose scaled point is feasible;
    candidates that cross one boundary piece outside another are rejected by
    that feasibility check. The output always satisfies membership within
    ``DEFAULT_TOL`` and, when saturated, lies on the set boundary.
    """
    w1, w2, w3, lam, saturated, active = _saturate_floats(
        float(v[0]), float(v[1]), float(v[2]), p
    )
    return SaturationResult(
        v_out=np.array([w1, w2, w3]), lam=lam, saturated=saturated, active=active
    )


def _saturate_floats(v1: float, v2: float, v3: float, p: ConstraintParams):
    """:func:`saturate` on plain floats, the per-sample kernel of the
    closed loop; returns ``(w1, w2, w3, lam, saturated, active)``."""
    if _vc_clauses(v1, v2, v3, p, DEFAULT_TOL):
        return v1, v2, v3, 1.0, False, ActiveConstraint.NONE
    best = 0.0
    for lam in candidate_set((v1, v2, v3), p):
        if best < lam <= 1.0 and _vc_clauses(
            lam * v1, lam * v2, lam * v3, p, DEFAULT_TOL
        ):
            best = lam
    if best == 0.0:
        # unreachable for finite v: the origin is interior, so the ray
        # always crosses the boundary at some factor in (0, 1)
        raise DomainError(f"no feasible pullback factor for {(v1, v2, v3)!r}")
    w1, w2, w3 = best * v1, best * v2, best * v3
    c = w3 + p.g
    if w1 * w1 + w2 * w2 <= DEFAULT_TOL and c * c <= DEFAULT_TOL:
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
    return w1, w2, w3, best, True, active


def _real_roots_columns(a, b, c, disc):
    """Row-wise :func:`_real_roots` as two root columns, NaN where
    :func:`_real_roots` returns fewer roots; each present root is computed
    with the same floating-point operations as the scalar branch."""
    s = np.sqrt(disc)  # NaN where disc < 0: no real roots
    r = s / (2.0 * a)
    q = -0.5 * (b + np.copysign(s, b))
    linear = a == 0.0
    b_zero = b == 0.0
    first = np.where(
        linear, np.where(b_zero, np.nan, -c / b), np.where(b_zero, r, q / a)
    )
    second = np.where(
        linear | (~b_zero & (q == 0.0)), np.nan, np.where(b_zero, -r, c / q)
    )
    return first, second


def saturate_batch(v, p: ConstraintParams):
    """:func:`saturate` applied to every row of an ``(N, 3)`` array.

    Returns ``(v_out, lam, saturated)`` as ``(N, 3)``, ``(N,)`` and boolean
    ``(N,)`` arrays, each row bit-identical to the scalar result. The four
    candidates of :func:`candidate_set` are evaluated as columns, one at a
    time, and each row keeps the largest one in (0, 1] whose scaled point is
    a member. Raises :class:`DomainError`
    when an infeasible row has no such factor; a row with a NaN or infinite
    component always raises.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {v.shape}")
    v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
    best = np.zeros(len(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        cone, sphere = _crossing_quadratics(v1 * v1 + v2 * v2, v3, p)
        candidates = (*_real_roots_columns(*cone), *_real_roots_columns(*sphere))
        for lam in candidates:
            ok = (best < lam) & (lam <= 1.0)
            ok &= _vc_clauses(lam * v1, lam * v2, lam * v3, p, DEFAULT_TOL)
            best = np.where(ok, lam, best)
    feasible = _vc_clauses(v1, v2, v3, p, DEFAULT_TOL)
    lam = np.where(feasible, 1.0, best)
    stuck = np.flatnonzero(lam == 0.0)
    if stuck.size:
        i = stuck[0]
        raise DomainError(f"no feasible pullback factor for row {i}: {v[i]!r}")
    return v * lam[:, None], lam, ~feasible


def saturate_oracle(v, p: ConstraintParams, iters: int = 60) -> float:
    """Bisection reference for the pullback factor.

    The feasible factors along a ray form an interval [0, lam*] because the
    set is convex with the origin interior, so the membership predicate is
    monotone in the factor and bisection converges to lam* within 2^-iters.
    Bisects the exact membership predicate (zero slack) so it stays an
    independent reference for :func:`candidate_set`.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    if in_Vc((v1, v2, v3), p, 0.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if in_Vc((mid * v1, mid * v2, mid * v3), p, 0.0):
            lo = mid
        else:
            hi = mid
    return lo
