"""Ray saturation onto the convex acceleration command set.

A command that fails the membership test is pulled back along its ray
toward the origin, by the factor ``lam`` in (0, 1] that puts ``lam * v`` just
inside the set. The set is the shifted ball ``|w + g e3| <= t_max``
intersected with the cone ``sqrt(w1^2 + w2^2) <= (w3 + g) tan(eps_max)`` and
the open half-space ``w3 > -g``. Ball and cone are convex with the origin in
their interior, so the exact factor is the smaller of the two sets' own exit
factors (the gauge of an intersection, Rockafellar, *Convex Analysis*, 1970,
section 15); the cone exit comes before the apex, so the half-space never
binds. With ``h2 = v1^2 + v2^2``, ``a = h2 + v3^2``, ``beta = g v3``,
``k = t_max^2 - g^2 > 0`` and ``s = sqrt(beta^2 + a k)``:

- the ball exit, the positive root of ``a lam^2 + 2 beta lam - k = 0``, is
  ``k / (beta + s)`` for ``beta >= 0`` and ``(s - beta) / a`` otherwise,
  the forms that do not cancel;
- the cone exit is ``g tan(eps) / (sqrt(h2) - v3 tan(eps))`` when that
  denominator is positive, and the ray never leaves the cone otherwise.

The smaller exit times one backoff, derived from the rounding errors of
these formulas, passes the membership test, so every output is an exact
member, strictly above the apex. The backoff is ``ConstraintParams.backoff``,
derived once per set of limits; its derivation sits beside the membership
margin in ``constraint_sets``, the other half of the same rounding
analysis. The control loop runs no solver and no search. :func:`saturate`
is the per-sample real-time path, a thin wrapper over the float kernel that
the closed loop calls on each sample that fails its inlined membership
test; a column kernel applies the same arithmetic to many commands at
once, for the verifier. A bisection oracle is provided
purely for cross-checking.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .constraint_sets import ConstraintParams, _vc_clauses
from .flat_model import DomainError, _three_floats

__all__ = [
    "ActiveConstraint",
    "SaturationResult",
    "saturate",
    "saturate_oracle",
]


class ActiveConstraint(enum.Enum):
    """Which boundary piece the saturated output landed on."""

    NONE = "none"
    BALL = "ball"
    CONE = "cone"


# bound once: reading an enum member through its class is slow per sample
_NONE, _BALL, _CONE = ActiveConstraint.NONE, ActiveConstraint.BALL, ActiveConstraint.CONE


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

    An input that passes the membership test passes through unchanged,
    bitwise, with factor 1. Otherwise the factor is the smaller of the ray's
    ball exit and cone exit times the backoff (see the module docstring),
    and ``active`` names the exit that won: BALL on a tie.

    Raises:
        ValueError: if ``v`` is not exactly three values.
        DomainError: if the factor is not in (0, 1], which happens exactly
            when a component is NaN or infinite or the squared norm of
            ``v`` overflows.
    """
    w1, w2, w3, lam, saturated, active = _saturate_floats(*_three_floats(v), p)
    return SaturationResult(np.array([w1, w2, w3]), lam, saturated, active)


def _saturate_floats(v1: float, v2: float, v3: float, p: ConstraintParams):
    """:func:`saturate` on plain floats, the exit kernel of the closed
    loop, which calls it on a sample that fails the membership test;
    returns ``(w1, w2, w3, lam, saturated, active)``."""
    if _vc_clauses(v1, v2, v3, p):
        return v1, v2, v3, 1.0, False, _NONE
    h2 = v1 * v1 + v2 * v2
    a = h2 + v3 * v3
    beta = p.g * v3
    k = p.k
    # s = sqrt(beta^2 + a k), scaled by |v| so that it overflows only when
    # the squared norm a does
    r = math.sqrt(a)
    q = beta / r
    s = r * math.sqrt(q * q + k)
    lam_b = k / (beta + s) if beta >= 0.0 else (s - beta) / a
    den = math.sqrt(h2) - v3 * p.tan_eps
    lam_c = p.g_tan_eps / den if den > 0.0 else math.inf
    # written so that a NaN ball exit survives: min(lam_c, nan) drops it
    lam = (lam_c if lam_c < lam_b else lam_b) * p.backoff
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"no feasible pullback factor for {(v1, v2, v3)!r}")
    active = _BALL if lam_b <= lam_c else _CONE
    return lam * v1, lam * v2, lam * v3, lam, True, active


def _saturate_columns(v1, v2, v3, p: ConstraintParams):
    """:func:`saturate` on three 1-D columns of commands, the batch kernel
    that :func:`flatsat.synthesis.verify_cert` calls: the two exit factors
    are computed as columns with the same floating-point operations as the
    float kernel, so every row is bit-identical to it. Returns
    ``(w1, w2, w3, lam, saturated)``; contiguous columns take numpy's fast
    loops. Raises :class:`DomainError` on the first row the float kernel
    rejects: a NaN or infinite component, or a squared norm that
    overflows."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        feasible = _vc_clauses(v1, v2, v3, p)
        h2 = v1 * v1 + v2 * v2
        a = h2 + v3 * v3
        beta = p.g * v3
        k = p.k
        r = np.sqrt(a)
        q = beta / r
        s = r * np.sqrt(q * q + k)
        lam_b = np.where(beta >= 0.0, k / (beta + s), (s - beta) / a)
        den = np.sqrt(h2) - v3 * p.tan_eps
        lam_c = np.where(den > 0.0, p.g_tan_eps / den, np.inf)
        lam = np.where(feasible, 1.0, np.minimum(lam_b, lam_c) * p.backoff)
    stuck = np.flatnonzero(~((0.0 < lam) & (lam <= 1.0)))
    if stuck.size:
        i = stuck[0]
        row = (float(v1[i]), float(v2[i]), float(v3[i]))
        raise DomainError(f"no feasible pullback factor for row {i}: {row!r}")
    return lam * v1, lam * v2, lam * v3, lam, ~feasible


def saturate_oracle(v, p: ConstraintParams) -> float:
    """Bisection reference for the pullback factor.

    The feasible factors along a ray form an interval [0, lam*] because the
    set is convex with the origin interior, so the membership predicate is
    monotone in the factor, and 60 bisection steps come within 2^-60 of
    lam*. Bisects the membership test so it stays an independent
    reference for the closed-form factor of :func:`saturate`.
    A ``v`` that is not exactly three values raises ValueError.
    """
    v1, v2, v3 = _three_floats(v)
    if _vc_clauses(v1, v2, v3, p):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _vc_clauses(mid * v1, mid * v2, mid * v3, p):
            lo = mid
        else:
            hi = mid
    return lo
