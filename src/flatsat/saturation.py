"""Ray saturation onto the convex acceleration command set.

An infeasible command ``v`` is pulled back along its ray toward the origin
until it enters the set, by the largest factor ``lam`` in (0, 1] that keeps
``lam * v`` feasible. The set is the shifted ball
``|w + g e3| <= t_max`` intersected with the cone
``sqrt(w1^2 + w2^2) <= (w3 + g) tan(eps_max)``; the half-space
``w3 >= -g`` is implied by the cone clause. Both sets are convex with the
origin in their interior, so ``lam`` is the smaller of the two sets' own
exit factors (the gauge of an intersection, Rockafellar, *Convex Analysis*,
1970, section 15). With ``h2 = v1^2 + v2^2``, ``a = h2 + v3^2``,
``beta = g v3``, ``k = t_max^2 - g^2 > 0`` and ``s = sqrt(beta^2 + a k)``:

- the ball exit, the positive root of ``a lam^2 + 2 beta lam - k = 0``, is
  ``k / (beta + s)`` for ``beta >= 0`` and ``(s - beta) / a`` otherwise,
  the forms that do not cancel;
- the cone exit is ``g tan(eps) / (sqrt(h2) - v3 tan(eps))`` when that
  denominator is positive, and the ray never leaves the cone otherwise.

So the control loop runs no solver and no search. :func:`saturate` is the
per-sample real-time path, a thin wrapper over the float kernel that the
closed loop calls directly; :func:`saturate_batch` applies the same
arithmetic to many commands at once for offline checks. A bisection oracle
is provided purely for cross-checking.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .constraint_sets import DEFAULT_TOL, ConstraintParams, _vc_clauses
from .flat_model import DomainError, _three_floats

__all__ = [
    "ActiveConstraint",
    "SaturationResult",
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


class SaturationResult(NamedTuple):
    """The saturated command ``v_out``, its pullback factor ``lam``,
    whether the input was pulled back, and the piece it landed on; an
    immutable named tuple, built positionally on the real-time path."""

    v_out: np.ndarray
    lam: float
    saturated: bool
    active: ActiveConstraint


def saturate(v, p: ConstraintParams) -> SaturationResult:
    """Pull ``v`` back along its ray until it enters the command set.

    A feasible input (membership within ``DEFAULT_TOL``) passes through
    unchanged, bitwise, with factor 1. Otherwise the factor is the smaller
    of the ray's ball exit and cone exit (see the module docstring), and
    ``active`` names the piece that exit lies on: BALL on a tie, HALFSPACE
    when the output is the cone apex.

    Raises:
        ValueError: if ``v`` is not exactly three values.
        DomainError: if the factor is not in (0, 1], which happens exactly
            when a component is NaN or infinite or the squared norm of
            ``v`` overflows.
    """
    w1, w2, w3, lam, saturated, active = _saturate_floats(*_three_floats(v), p)
    return SaturationResult(np.array([w1, w2, w3]), lam, saturated, active)


def _saturate_floats(v1: float, v2: float, v3: float, p: ConstraintParams):
    """:func:`saturate` on plain floats, the per-sample kernel of the
    closed loop; returns ``(w1, w2, w3, lam, saturated, active)``."""
    if _vc_clauses(v1, v2, v3, p, DEFAULT_TOL):
        return v1, v2, v3, 1.0, False, ActiveConstraint.NONE
    h2 = v1 * v1 + v2 * v2
    a = h2 + v3 * v3
    beta = p.g * v3
    k = p.t2_max - p.g * p.g
    # s = sqrt(beta^2 + a k), scaled by |v| so that it overflows only when
    # the squared norm a does
    r = math.sqrt(a)
    q = beta / r
    s = r * math.sqrt(q * q + k)
    lam_b = k / (beta + s) if beta >= 0.0 else (s - beta) / a
    den = math.sqrt(h2) - v3 * p.tan_eps
    lam_c = p.g * p.tan_eps / den if den > 0.0 else math.inf
    # written so that a NaN ball exit survives: min(lam_c, nan) drops it
    lam = lam_c if lam_c < lam_b else lam_b
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"no feasible pullback factor for {(v1, v2, v3)!r}")
    w1, w2, w3 = lam * v1, lam * v2, lam * v3
    c = w3 + p.g
    if w1 * w1 + w2 * w2 <= DEFAULT_TOL and c * c <= DEFAULT_TOL:
        # cone apex: the cone clause is vacuously tight there (both sides
        # vanish), so the binding constraint is the half-space
        active = ActiveConstraint.HALFSPACE
    elif lam_b <= lam_c:
        active = ActiveConstraint.BALL
    else:
        active = ActiveConstraint.CONE
    return w1, w2, w3, lam, True, active


def saturate_batch(v, p: ConstraintParams):
    """:func:`saturate` applied to every row of an ``(N, 3)`` array.

    Returns ``(v_out, lam, saturated)`` as ``(N, 3)``, ``(N,)`` and boolean
    ``(N,)`` arrays, each row bit-identical to the scalar result: the two
    exit factors are computed as columns with the same floating-point
    operations as :func:`saturate`. Raises :class:`DomainError` on the
    first row the scalar kernel rejects: a NaN or infinite component, or a
    squared norm that overflows.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {v.shape}")
    v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        feasible = _vc_clauses(v1, v2, v3, p, DEFAULT_TOL)
        h2 = v1 * v1 + v2 * v2
        a = h2 + v3 * v3
        beta = p.g * v3
        k = p.t2_max - p.g * p.g
        r = np.sqrt(a)
        q = beta / r
        s = r * np.sqrt(q * q + k)
        lam_b = np.where(beta >= 0.0, k / (beta + s), (s - beta) / a)
        den = np.sqrt(h2) - v3 * p.tan_eps
        lam_c = np.where(den > 0.0, p.g * p.tan_eps / den, np.inf)
        lam = np.where(feasible, 1.0, np.minimum(lam_b, lam_c))
    stuck = np.flatnonzero(~((0.0 < lam) & (lam <= 1.0)))
    if stuck.size:
        i = stuck[0]
        raise DomainError(f"no feasible pullback factor for row {i}: {v[i]!r}")
    return v * lam[:, None], lam, ~feasible


def saturate_oracle(v, p: ConstraintParams) -> float:
    """Bisection reference for the pullback factor.

    The feasible factors along a ray form an interval [0, lam*] because the
    set is convex with the origin interior, so the membership predicate is
    monotone in the factor, and 60 bisection steps come within 2^-60 of
    lam*. Bisects the exact membership predicate (zero slack) so it stays
    an independent reference for the closed-form factor of :func:`saturate`.
    A ``v`` that is not exactly three values raises ValueError.
    """
    v1, v2, v3 = _three_floats(v)
    if _vc_clauses(v1, v2, v3, p, 0.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _vc_clauses(mid * v1, mid * v2, mid * v3, p, 0.0):
            lo = mid
        else:
            hi = mid
    return lo
