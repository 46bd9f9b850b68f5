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
member, strictly above the apex. The control loop runs no solver and no
search. :func:`saturate` is the
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

from .constraint_sets import ConstraintParams, _vc_clauses
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
    """:func:`saturate` on plain floats, the per-sample kernel of the
    closed loop; returns ``(w1, w2, w3, lam, saturated, active)``."""
    if _vc_clauses(v1, v2, v3, p):
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
    lam = (lam_c if lam_c < lam_b else lam_b) * _backoff(p, k)
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"no feasible pullback factor for {(v1, v2, v3)!r}")
    active = ActiveConstraint.BALL if lam_b <= lam_c else ActiveConstraint.CONE
    return lam * v1, lam * v2, lam * v3, lam, True, active


# The backoff 1 - kappa u, u = 2^-53, bounds first order in u as in
# constraint_sets. Let lam be the backed-off factor, q = lam v exactly, w
# the rounded output, tau = sqrt(tan2_eps) (the kernels' tan_eps is within
# u of it), R = t2_max/k and Q = t_max/g. Rounding q to w moves the ball
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
# backed-off factor is below 1.
def _backoff(p: ConstraintParams, k: float) -> float:
    """1 - kappa u for the limits ``p``, with ``k = t2_max - g^2``."""
    return 1.0 - 20 * 2.0**-53 * (p.t2_max / k + p.t_max / p.g)


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
        feasible = _vc_clauses(v1, v2, v3, p)
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
        lam = np.where(feasible, 1.0, np.minimum(lam_b, lam_c) * _backoff(p, k))
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
