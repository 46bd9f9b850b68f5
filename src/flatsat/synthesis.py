"""Offline certificate synthesis and verification.

Produces, for a chosen decay rate, a structured stabilizing gain matrix
(solving the closed-loop Lyapunov inequality), and the largest ellipsoid
level set on which the scaled gradient feedback, after ray saturation, keeps
every command inside the inscribed command ball. The three decoupled
position axes make the matrix inequalities block-identical, so everything
reduces to one 2x2 axis block with a closed-form solution. The matrix
conditions are then decided on that block from the exact rational values of
the stored floats, and certificates can be re-verified by boundary sampling
at any time.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .constraint_sets import ConstraintParams, max_inscribed_ball
from .kvformat import dump_kv, non_negative_int, parse_kv
from .saturation import _saturate_columns

__all__ = [
    "SynthesisError",
    "GainMatrix",
    "EllipsoidCert",
    "VerificationReport",
    "lyapunov_residual",
    "solve_stabilizing_P",
    "eps_max",
    "synthesize_certificate",
    "verify_cert",
    "boundary_states",
    "save_certificate",
    "load_certificate",
    "CERT_FORMAT",
]

# default synthesis margin: the inverse-side inequality must hold with every
# eigenvalue at most -margin; every function and config key that takes a
# margin defaults to it
DEFAULT_MARGIN = 1e-9
# largest closed-loop Lyapunov residual a synthesized gain may show
DELTA_CERT = 1e-6
# verify_cert slack on the inward flow, the decay margin and the scaled
# pullback factor
INWARD_TOL = 1e-9
DECAY_TOL = 1e-6
GAIN_TOL = 1e-9


class SynthesisError(RuntimeError):
    """Synthesis problem infeasible or a certificate check failed."""


@dataclass(frozen=True)
class GainMatrix:
    """Block-structured Lyapunov matrix [[p1 I3, p2 I3], [p2 I3, p3 I3]]
    with its decay rate alpha. Must be positive definite."""

    p1: float
    p2: float
    p3: float
    alpha: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(x) for x in (self.p1, self.p2, self.p3, self.alpha)
        ):
            raise ValueError("gain scalars must be finite")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.p1 <= 0.0 or self.p1 * self.p3 - self.p2 * self.p2 <= 0.0:
            raise ValueError(
                f"matrix ({self.p1}, {self.p2}, {self.p3}) is not positive definite"
            )


@dataclass(frozen=True)
class EllipsoidCert:
    """Invariance certificate: gain matrix, inscribed-ball level rho,
    ellipsoid level eps, and the feedback scale gamma >= 1."""

    gain: GainMatrix
    rho: float
    eps: float
    gamma: float

    def __post_init__(self) -> None:
        # positive comparisons, so that NaN fails them
        if not (0.0 < self.rho < math.inf and 0.0 < self.eps < math.inf):
            raise ValueError(f"rho {self.rho} and eps {self.eps} must be positive and finite")
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 1 and finite, got {self.gamma}")


def _raw_feedback(e, d, gamma: float, p2: float, p3: float):
    """The scaled gradient feedback -gamma (p2 e + p3 d) = -gamma B' P xi of
    one axis, for position error ``e`` and velocity error ``d``; on floats
    or on column blocks. The one definition of the raw control law,
    shared by ``control_law`` and the verifier, and inlined by the closed
    loop with the same operations."""
    return -gamma * (p2 * e + p3 * d)


def _lyapunov(e, p1: float, p2: float, p3: float):
    """Lyapunov value e' P e of the error ``e = (e1, e2, e3, d1, d2, d3)``
    from the block scalars of P, on floats or row-wise on 1-D columns,
    summed axis by axis: that order rounds less than grouping the terms by
    block scalar. The one formula for V, shared by the closed loop and the
    verifier."""
    e1, e2, e3, d1, d2, d3 = e
    q2 = 2.0 * p2
    return (
        (e1 * (p1 * e1 + q2 * d1) + p3 * d1 * d1)
        + (e2 * (p1 * e2 + q2 * d2) + p3 * d2 * d2)
        + (e3 * (p1 * e3 + q2 * d3) + p3 * d3 * d3)
    )


def _half_rate(e, d, a, p1: float, p2: float, p3: float) -> np.ndarray:
    """Half the rate of V, xi' P (d, a), of each row of errors xi = (e, d)
    moving along (d, a), from column triples ``e``, ``d`` and ``a`` (three
    1-D columns each, or a ``(3, N)`` array): the one definition, shared by
    the verifier and the run metrics."""
    return p1 * _row_dot(e, d) + p2 * (_row_dot(e, a) + _row_dot(d, d)) + p3 * _row_dot(d, a)


def _row_dot(x, y) -> np.ndarray:
    """Row-wise dot product of two column triples, summed left to right."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


@contextmanager
def _decimals(*exact: Fraction):
    """Yield exact rationals as Decimals rounded once, in a 34-digit context."""
    with localcontext() as ctx:
        ctx.prec = 34
        yield [Decimal(x.numerator) / x.denominator for x in exact]


def _lambda_max_2x2(m11: Fraction, m12: Fraction, m22: Fraction) -> float:
    """Largest eigenvalue of the symmetric block [[m11, m12], [m12, m22]] of
    exact rationals, rounded to float (+-inf beyond its range). The root
    (s + r)/2, with trace s and r = sqrt((m11 - m22)^2 + 4 m12^2), cancels
    when s < 0, where it is taken as 2 det/(s - r), all at 34 digits."""
    exact = (m11 + m22, m11 * m22 - m12 * m12, (m11 - m22) ** 2 + 4 * m12 * m12)
    with _decimals(*exact) as (s, det, disc):
        return float((s + disc.sqrt()) / 2 if s >= 0 else 2 * det / (s - disc.sqrt()))


def _axis_map(gain: GainMatrix, eps: float) -> tuple[float, float, float]:
    """(a, b, c) of sqrt(eps) M^(-1/2) = [[a, b], [b, c]], M = [[p1, p2], [p2, p3]]: sqrt(eps)
    [[p3 + s, -p2], [-p2, p1 + s]] / (s t), s = sqrt(det M), t = sqrt(p1 + p3 + 2 s) (Higham,
    Functions of Matrices, 2008). No sum cancels or, at 34 digits, overflows; each rounded once."""
    p1, p2, p3 = (Fraction(x) for x in (gain.p1, gain.p2, gain.p3))
    with _decimals(p1, p2, p3, p1 * p3 - p2 * p2, Fraction(eps)) as (d1, d2, d3, det, e):
        s = det.sqrt()
        scale = e.sqrt() / (s * (d1 + d3 + 2 * s).sqrt())
        return float((d3 + s) * scale), float(-d2 * scale), float((d1 + s) * scale)


def lyapunov_residual(gain: GainMatrix) -> float:
    """Largest eigenvalue of Acl' P + P Acl + alpha P with
    Acl = A - B B' P, taken exactly on its 2x2 axis block and rounded once.
    Nonpositive means the closed-loop decay condition holds; small positive
    values indicate a matrix sitting on the feasibility boundary (e.g.
    scalars rounded to few digits)."""
    p1, p2, p3, alpha = map(Fraction, (gain.p1, gain.p2, gain.p3, gain.alpha))
    return _lambda_max_2x2(
        alpha * p1 - 2 * p2 * p2,
        p1 - 2 * p2 * p3 + alpha * p2,
        2 * p2 - 2 * p3 * p3 + alpha * p3,
    )


def solve_stabilizing_P(alpha: float, margin: float = DEFAULT_MARGIN) -> GainMatrix:
    """Solve for a stabilizing block gain at decay rate ``alpha``.

    Works on the inverse matrix Q = P^-1, whose stability inequality
    Q A' + A Q - 2 B B' + alpha Q <= -margin I decouples into one 2x2
    condition per axis. Its largest admissible q3 makes the inequality
    tight: the (2,2) entry pins q3 = (2 - margin)/alpha, the off-diagonal
    entry q2 = -q3/alpha and the (1,1) entry q1. That block is positive
    definite exactly when margin (1 + alpha^2) < 2. The block is inverted,
    then the inverse-side inequality and the closed-loop decay condition
    are decided exactly on their 2x2 axis blocks of the stored floats.

    Raises:
        SynthesisError: infeasible (margin negative or too large) or
            either check of the assembled matrix fails.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise SynthesisError(f"alpha must be positive and finite, got {alpha}")
    if not 0.0 <= margin * (1.0 + alpha * alpha) < 2.0:
        raise SynthesisError(f"infeasible for alpha={alpha}, margin={margin}")
    q3 = (2.0 - margin) / alpha
    q2 = -q3 / alpha
    q1 = (2.0 * q3 / alpha - margin) / alpha
    det = q1 * q3 - q2 * q2
    if not all(math.isfinite(x) for x in (q1, q2, q3, det)):
        # q2 = -q3/alpha and q1 q3 overflow at tiny alpha
        raise SynthesisError(f"axis block overflows in floating point, alpha={alpha}")
    if det == 0.0:
        # q1 and q2^2 underflow at extreme alpha
        raise SynthesisError(f"axis block singular in floating point, alpha={alpha}")
    gain = GainMatrix(p1=q3 / det, p2=-q2 / det, p3=q1 / det, alpha=alpha)

    fq1, fq2, fq3, fa = map(Fraction, (q1, q2, q3, alpha))
    worst = _lambda_max_2x2(2 * fq2 + fa * fq1, fq3 + fa * fq2, fa * fq3 - 2)
    if not worst <= -margin + 1e-9:
        raise SynthesisError(f"inverse-side inequality fails: largest eigenvalue {worst}")
    res = lyapunov_residual(gain)
    if not res <= DELTA_CERT:
        raise SynthesisError(f"closed-loop residual {res} exceeds {DELTA_CERT}")
    return gain


def eps_max(gain: GainMatrix, rho: float) -> float:
    """Largest ellipsoid level whose gradient feedback stays in the command
    ball of squared radius ``rho``.

    On the level set { ||xi||_P^2 <= eps } the maximum of ||B' P xi||^2 is
    eps * lambda_max(B' P B) = eps * p3, so the largest admissible level is
    rho / p3. With the S-procedure multiplier tau = 1 / p3 the multiplier
    matrix is diag((p1 - p2^2/p3) I3, 0 I3, 0), positive semidefinite
    because :class:`GainMatrix` is positive definite.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    return rho / gain.p3


def synthesize_certificate(
    p: ConstraintParams,
    alpha: float,
    gamma: float,
    margin: float = DEFAULT_MARGIN,
) -> EllipsoidCert:
    """Full offline synthesis chain.

    Picks the largest inscribed command ball, solves for the stabilizing
    gain at decay rate ``alpha``, computes the maximal invariant ellipsoid
    level, and records ``gamma`` unchanged: it only scales the feedback
    aggressiveness. In continuous time any value >= 1 preserves invariance.
    Under the zero-order hold of the simulator, V is nonincreasing at every
    step only while gamma * p3 * dt stays below about 2.
    """
    _check_gamma(gamma)
    rho = max_inscribed_ball(p)
    gain = solve_stabilizing_P(alpha, margin=margin)
    return EllipsoidCert(gain=gain, rho=rho, eps=eps_max(gain, rho), gamma=gamma)


def _check_gamma(gamma: float) -> None:
    """Raise :class:`SynthesisError` unless 1 <= ``gamma`` < inf (a NaN
    fails): the check that synthesis applies to the feedback scale."""
    if not 1.0 <= gamma < math.inf:
        raise SynthesisError(f"gamma must be >= 1 and finite, got {gamma}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sampling-based certificate verification."""

    n_samples: int
    seed: int
    n_saturated: int
    inward_failures: int
    decay_failures: int
    gain_failures: int
    worst_inward: float
    worst_decay: float
    worst_gain_margin: float
    worst_sample: int

    @property
    def passed(self) -> bool:
        return (
            self.inward_failures == 0
            and self.decay_failures == 0
            and self.gain_failures == 0
        )

    def to_kv(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_cert(
    cert: EllipsoidCert,
    p: ConstraintParams,
    n_samples: int,
    seed: int = 0,
) -> VerificationReport:
    """Check the certificate on ``n_samples`` boundary points of the
    ellipsoid, the :func:`boundary_states` of ``seed``.

    The saturated feedback command is computed for all points at once, and
    three conditions are evaluated per point: the vector field points inward
    (boundary invariance), the Lyapunov derivative respects the decay rate,
    and, when the command saturates, the scaled pullback factor stays >= 1.
    V and its rate are :func:`_lyapunov` and :func:`_half_rate`, the
    formulas of the closed loop's trace and run metrics.
    Failures are counted and the worst margins reported; ``worst_sample`` is
    the first point of largest positive violation, or -1 if none violates.
    Nothing is raised, so negative controls can inspect the report.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    gain, gamma = cert.gain, cert.gamma
    p1, p2, p3 = gain.p1, gain.p2, gain.p3
    # the transpose of the sampler's rows is a contiguous column block
    cols = boundary_states(gain, cert.eps, n_samples, seed).T
    e, d = cols[:3], cols[3:]
    *w, lam, saturated = _saturate_columns(*_raw_feedback(e, d, gamma, p2, p3), p)

    # the closed loop moves xi = (e, d) along (d, w)
    flow = _half_rate(e, d, w, p1, p2, p3)
    vdot_margin = 2.0 * flow + gain.alpha * _lyapunov(cols, p1, p2, p3)
    gmargin = gamma * lam - 1.0
    violation = np.maximum(flow - INWARD_TOL, vdot_margin - DECAY_TOL)
    violation = np.where(
        saturated, np.maximum(violation, -gmargin - GAIN_TOL), violation
    )
    worst = int(np.argmax(violation))
    return VerificationReport(
        n_samples=n_samples,
        seed=seed,
        n_saturated=int(np.count_nonzero(saturated)),
        inward_failures=int(np.count_nonzero(flow > INWARD_TOL)),
        decay_failures=int(np.count_nonzero(vdot_margin > DECAY_TOL)),
        gain_failures=int(np.count_nonzero(saturated & (gmargin < -GAIN_TOL))),
        worst_inward=float(flow.max()),
        worst_decay=float(vdot_margin.max()),
        worst_gain_margin=float(gmargin[saturated].min(initial=math.inf)),
        worst_sample=worst if violation[worst] > 0.0 else -1,
    )


def boundary_states(gain: GainMatrix, eps: float, n: int, seed: int = 0) -> np.ndarray:
    """``n`` rows on the ellipsoid boundary { xi' P xi = eps }: the one
    sampler of the ellipsoid, whose points :func:`verify_cert` checks for
    the same seed. Normal directions of ``default_rng(seed)``, normalized by
    the left-to-right sum of their six squares, each axis pair (u_i, w_i)
    mapped to (a u_i + b w_i, b u_i + c w_i) by :func:`_axis_map`. Rows are
    arithmetic on their own draw, so the first k of n rows are the rows for
    n = k; they are the transpose of six contiguous columns (Fortran order),
    written in place over the draw's own buffer, with no temporary block.
    At the synthesized gains every row lies on V = eps within about 7 units
    of 2^-53 (V summed exactly). An ``n`` whose ``(n, 6)`` float64 block
    exceeds ``sys.maxsize`` bytes is a ValueError, before the draw."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if n * 6 * 8 > sys.maxsize:
        raise ValueError(
            f"n = {n} boundary states: their (n, 6) float64 block exceeds sys.maxsize bytes"
        )
    a, b, c = _axis_map(gain, eps)
    draw = np.random.default_rng(seed).standard_normal((n, 6))
    cols = draw.T.copy()
    sq = cols[0] * cols[0]
    for col in cols[1:]:
        sq += col * col
    cols /= np.sqrt(sq)
    u, w, out = cols[:3], cols[3:], draw.reshape(6, n)  # the draw's buffer, free since the copy
    np.add(np.multiply(a, u, out=out[:3]), np.multiply(b, w, out=out[3:]), out=out[:3])
    np.add(np.multiply(b, u, out=out[3:]), np.multiply(c, w, out=w), out=out[3:])
    return out.T


CERT_FORMAT = "flatsat-certificate-1"

# The certificate file's keys in file order, each with the holder whose
# attribute of that name is the value (the ConstraintParams "limits", the
# GainMatrix "gain", the EllipsoidCert "cert", the format tag's "file", the
# seed and margin "meta") and the reader of its value.
CERT_KEYS = {
    "format": ("file", str),
    "g": ("limits", float),
    "t_max": ("limits", float),
    "phi_max": ("limits", float),
    "theta_max": ("limits", float),
    "eps_max": ("limits", float),
    "alpha": ("gain", float),
    "gamma": ("cert", float),
    "rho": ("cert", float),
    "eps": ("cert", float),
    "p1": ("gain", float),
    "p2": ("gain", float),
    "p3": ("gain", float),
    "seed": ("meta", non_negative_int),
    "margin": ("meta", float),
}


def save_certificate(
    path,
    p: ConstraintParams,
    cert: EllipsoidCert,
    seed: int = 0,
    margin: float = DEFAULT_MARGIN,
) -> None:
    """Write the certificate file: one ``key = value`` line per entry of
    :data:`CERT_KEYS`, in its order. Floats carry 17 significant digits so
    the file round-trips bit-exactly. The text is first read back as the
    load reads it: what the load rejects (a seed of -1, 1.5 or True) writes
    no file."""
    holders = {
        "file": SimpleNamespace(format=CERT_FORMAT),
        "limits": p,
        "gain": cert.gain,
        "cert": cert,
        "meta": SimpleNamespace(seed=seed, margin=margin),
    }
    pairs = {key: getattr(holders[holder], key) for key, (holder, _) in CERT_KEYS.items()}
    text = dump_kv(pairs, header="invariant-ellipsoid certificate")
    _read_certificate(parse_kv(text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_certificate(path):
    """Read a certificate file back to (ConstraintParams, EllipsoidCert, meta).

    ``meta`` is a dict with the seed and margin. Unknown or missing keys, a
    value its reader rejects (named by its key), an unsupported format and a
    stored eps_max not bit-equal to the angle limits' are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _read_certificate(parse_kv(fh.read()))


def _read_certificate(raw: dict):
    """:func:`load_certificate` on the parsed pairs ``raw`` of a file."""
    if set(raw) != set(CERT_KEYS):
        missing = sorted(set(CERT_KEYS) - set(raw))
        unknown = sorted(set(raw) - set(CERT_KEYS))
        raise ValueError(
            f"bad certificate schema: missing keys {missing}, unknown keys {unknown}"
        )
    v = SimpleNamespace()
    for key, (_, read) in CERT_KEYS.items():
        try:
            setattr(v, key, read(raw[key]))
        except ValueError as exc:
            raise ValueError(f"certificate key {key!r}: {exc}") from exc
    if v.format != CERT_FORMAT:
        raise ValueError(f"unsupported certificate format {v.format!r}")
    p = ConstraintParams(g=v.g, t_max=v.t_max, phi_max=v.phi_max, theta_max=v.theta_max)
    if p.eps_max != v.eps_max:
        raise ValueError(f"stored eps_max {v.eps_max} inconsistent with angle limits")
    gain = GainMatrix(p1=v.p1, p2=v.p2, p3=v.p3, alpha=v.alpha)
    cert = EllipsoidCert(gain=gain, rho=v.rho, eps=v.eps, gamma=v.gamma)
    meta = {key: getattr(v, key) for key, (holder, _) in CERT_KEYS.items()
            if holder == "meta"}
    return p, cert, meta
