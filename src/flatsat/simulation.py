"""Closed-loop simulation of the saturated flat-space controller.

The loop per step: take the reference sample, form the scaled gradient
feedback on the tracking error, saturate it onto the convex command set, map
the command to (thrust, roll, pitch), and advance the plant with the physical
input and yaw held over the step. Because the input map linearizes the plant
exactly, the held input produces a constant acceleration ``accel(u)``, so the
step is the closed-form double-integrator update; tests assert the loop
equals the linear system.

:func:`run` samples every signal that the state does not affect once over
the whole time grid, runs the feedback path sample by sample as one flat
block on plain Python floats, and leaves the rest to array code (see its
docstring). A loop on numpy vectors over the public functions is the
oracle of the block in the tests, bit for bit.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Union

import numpy as np

from .constraint_sets import ConstraintParams, _u_clauses, _vc_clauses
from .flat_model import DomainError, PhysicalInput, _yaw_trig
from .kvformat import format_rows
from .saturation import ActiveConstraint, SaturationResult, _saturate_floats
from .synthesis import EllipsoidCert, _half_rate, _lyapunov, _raw_feedback

__all__ = [
    "OriginReference",
    "SetpointReference",
    "CircularReference",
    "Scenario",
    "Trace",
    "RunMetrics",
    "control_law",
    "run",
    "metrics",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class OriginReference:
    """Regulation to the origin of the flat state space.

    Like every reference, ``state(t)`` and ``accel(t)`` take a float or an
    array of times and return the reference state (6 values) and
    acceleration (3 values) along a last axis: one elementwise definition
    that :func:`run` evaluates once over the whole grid."""

    def state(self, t) -> np.ndarray:
        return np.zeros(np.shape(t) + (6,))

    def accel(self, t) -> np.ndarray:
        return np.zeros(np.shape(t) + (3,))


@dataclass(frozen=True)
class SetpointReference:
    """Hold a fixed position with zero velocity; ``t`` is a float or an
    array of times."""

    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.position) != 3:
            raise ValueError(f"setpoint needs exactly three values, got {len(self.position)}")

    def state(self, t) -> np.ndarray:
        return np.full(np.shape(t) + (6,), [*self.position, 0.0, 0.0, 0.0], dtype=float)

    def accel(self, t) -> np.ndarray:
        return np.zeros(np.shape(t) + (3,))


@dataclass(frozen=True)
class CircularReference:
    """Horizontal circle at fixed altitude; ``t`` is a float or an array of
    times. The velocity is the time derivative of the position and
    :meth:`accel` that of the velocity."""

    radius: float = 0.5
    center: tuple[float, float] = (0.2, 0.0)
    altitude: float = 0.3
    omega: float = 0.3 * math.pi

    def __post_init__(self) -> None:
        if len(self.center) != 2:
            raise ValueError(f"circle center needs exactly two values, got {len(self.center)}")

    def state(self, t) -> np.ndarray:
        wt = self.omega * np.asarray(t, dtype=float)
        c, s = np.cos(wt), np.sin(wt)
        zero = np.zeros_like(wt)
        return np.stack(
            [
                self.center[0] + self.radius * c,
                self.center[1] + self.radius * s,
                np.full_like(wt, self.altitude),
                -self.radius * self.omega * s,
                self.radius * self.omega * c,
                zero,
            ],
            axis=-1,
        )

    def accel(self, t) -> np.ndarray:
        wt = self.omega * np.asarray(t, dtype=float)
        w2r = self.radius * self.omega * self.omega
        return np.stack([-w2r * np.cos(wt), -w2r * np.sin(wt), np.zeros_like(wt)], axis=-1)


@dataclass(frozen=True)
class Scenario:
    """One reproducible closed-loop run.

    ``psi`` is the yaw signal: a finite constant or a callable of time (the
    yaw is exogenous; default 0). ``feedforward`` adds the reference
    acceleration to the feedback before saturation. ``invariance_mode``
    requires the initial error state inside the certified ellipsoid and
    monitors every sample against leaving it, both up to the one level
    bound ``eps (1 + _LEVEL_SLACK)``. ``duration`` must be a whole number of steps
    ``dt`` (to 1e-9 relative, their quotient finite), so the grid ends
    exactly at the horizon, and the run's row buffer of ``steps + 1`` rows
    must fit an array index (``sys.maxsize`` bytes). ``steps``, that whole
    number, is derived here.
    """

    reference: object
    initial_state: np.ndarray
    duration: float
    dt: float
    cert: EllipsoidCert
    params: ConstraintParams
    psi: Union[float, Callable[[float], float]] = 0.0
    feedforward: bool = False
    invariance_mode: bool = False
    steps: int = field(init=False)

    def __post_init__(self) -> None:
        xi0 = np.array(self.initial_state, dtype=float).ravel()
        if xi0.size != 6:
            raise ValueError(f"initial_state needs exactly six values, got {xi0.size}")
        if not np.all(np.isfinite(xi0)):
            raise ValueError("initial state must be finite")
        if not (callable(self.psi) or math.isfinite(self.psi)):
            raise ValueError(f"psi must be finite, got {self.psi}")
        xi0.setflags(write=False)
        object.__setattr__(self, "initial_state", xi0)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.dt <= self.duration < math.inf):
            raise ValueError("duration must be finite and cover at least one step")
        quotient = self.duration / self.dt
        if quotient == math.inf:
            raise ValueError(f"duration / dt overflows: {self.duration} / {self.dt}")
        steps = round(quotient)
        if (steps + 1) * _ROW.size > sys.maxsize:
            raise ValueError(
                f"duration / dt is too many steps to run: {self.duration} / {self.dt} "
                f"= {quotient:g} steps, whose row buffer exceeds sys.maxsize bytes"
            )
        if abs(quotient - steps) > 1e-9 * quotient:
            raise ValueError(
                f"duration {self.duration} is not a whole number of steps dt = {self.dt}"
            )
        object.__setattr__(self, "steps", steps)


# the trace CSV header: 18 float columns, written by kvformat.format_rows,
# then saturated, active and in_u
CSV_COLUMNS = (
    "t",
    "x",
    "y",
    "z",
    "xd",
    "yd",
    "zd",
    "v1_raw",
    "v2_raw",
    "v3_raw",
    "v1",
    "v2",
    "v3",
    "thrust",
    "roll",
    "pitch",
    "lyapunov",
    "lam",
    "saturated",
    "active",
    "in_u",
)

# the CSV row tail after the float columns: saturated, active, in_u, keyed
# by the values a trace holds; the table holds all 12 (saturated, active,
# in_u), and a run writes 6 of them, as saturated holds exactly when active
# is not none
_TAILS = {
    (sat, act.value, in_u): ",%d,%s,%d\n" % (sat, act.value, in_u)
    for sat in (False, True)
    for act in ActiveConstraint
    for in_u in (False, True)
}


@dataclass
class Trace:
    """Uniform-grid record of one run; one row per sample instant.

    ``xi_ref`` is the reference state at each sample: the rows of the one
    ``reference.state`` call on the time grid. The command columns hold
    both the raw feedback and its saturated value; ``lyapunov`` is the
    tracking-error Lyapunov value. ``violations`` collects human-readable
    monitor failures (empty on a clean run). The trace CSV holds every
    column but ``xi_ref``. Every field depends only on the run's inputs.
    """

    t: np.ndarray
    xi: np.ndarray
    xi_ref: np.ndarray
    v_raw: np.ndarray
    v: np.ndarray
    u: np.ndarray
    lyapunov: np.ndarray
    lam: np.ndarray
    saturated: np.ndarray
    active: list[str]
    in_u: np.ndarray
    violations: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """Write the trace; floats carry 17 significant digits so output is
        byte-stable for a fixed scenario.

        :func:`flatsat.kvformat.format_rows` formats the 18 float columns.
        Each row's tail is looked up in ``_TAILS``; a row outside it, whose
        ``active`` is not ``none|ball|cone``, is a ValueError naming the row
        and the value."""
        floats = np.column_stack(
            [self.t, self.xi, self.v_raw, self.v, self.u, self.lyapunov, self.lam]
        )
        saturated, in_u, table = self.saturated.tolist(), self.in_u.tolist(), _TAILS
        try:
            tails = [table[row] for row in zip(saturated, self.active, in_u)]
        except KeyError as exc:
            row = exc.args[0]
            k = list(zip(saturated, self.active, in_u)).index(row)
            raise ValueError(
                f"row {k}: no CSV tail for (saturated, active, in_u) = {row}; "
                "active must be none|ball|cone"
            ) from None
        with open(path, "wb") as fh:
            fh.write((",".join(CSV_COLUMNS) + "\n").encode())
            fh.writelines(format_rows(floats, tails))


def control_law(xi, xi_ref, cert: EllipsoidCert, p: ConstraintParams,
                feedforward_accel=None):
    """Saturated scaled gradient feedback on the tracking error
    ``xi - xi_ref``, with ``feedforward_accel`` (if given) added before the
    saturation.

    Returns the :class:`SaturationResult` of the raw command, whose
    ``v_out`` (field 0) is the saturated command: the raw law on floats,
    then the saturation's float kernel, as :func:`run` computes each
    sample inline; a run keeps the raw command as ``Trace.v_raw``. Both
    states are cast to float64 and subtracted as Python floats, so a
    non-finite error raises DomainError in the saturation, never a numpy
    warning; a ValueError rejects a state or reference of other than six
    values, or a feedforward of other than three.
    """
    x = np.asarray(xi, dtype=float)
    r = np.asarray(xi_ref, dtype=float)
    if x.shape != (6,) or r.shape != (6,):
        raise ValueError(f"states need exactly six values, got shapes {x.shape} and {r.shape}")
    x1, x2, x3, x4, x5, x6 = x.tolist()
    q1, q2, q3, q4, q5, q6 = r.tolist()
    gamma, p2, p3 = cert.gamma, cert.gain.p2, cert.gain.p3
    r1 = _raw_feedback(x1 - q1, x4 - q4, gamma, p2, p3)
    r2 = _raw_feedback(x2 - q2, x5 - q5, gamma, p2, p3)
    r3 = _raw_feedback(x3 - q3, x6 - q6, gamma, p2, p3)
    if feedforward_accel is not None:
        f1, f2, f3 = np.asarray(feedforward_accel, dtype=float).tolist()
        r1 += f1
        r2 += f2
        r3 += f3
    w1, w2, w3, lam, saturated, active = _saturate_floats(r1, r2, r3, p)
    return SaturationResult(np.array([w1, w2, w3]), lam, saturated, active)


# one row of the run buffer, what only the loop knows: xi (0:6) and u (6:9)
_ROW = struct.Struct("9d")

# the relative slack of the one level bound eps (1 + _LEVEL_SLACK) that an
# invariance-mode run holds its start and every sample to: rounding of V
# only (a run from a boundary start of the sampler reads V/eps - 1 of a few
# units of 2^-53), far below any real exit from the ellipsoid
_LEVEL_SLACK = 1e-9


def _on_grid(signal: Callable, tgrid: np.ndarray, width: int, name: str) -> np.ndarray:
    """``signal(tgrid)`` as a float array of shape ``(len(tgrid), width)``;
    a ValueError names the reference method that rejected the array of
    times or returned another shape. The signal is sampled with numpy's
    overflow and invalid-value warnings off: a non-finite value it returns
    is the caller's to report, by the signal's name."""
    want = (len(tgrid), width)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(signal(tgrid), dtype=float)
    except TypeError as exc:
        raise ValueError(f"reference.{name} must accept an array of times: {exc}") from exc
    if values.shape != want:
        raise ValueError(
            f"reference.{name} must map an array of {want[0]} times to shape {want}, "
            f"got {values.shape}"
        )
    return values


def run(scenario: Scenario) -> Trace:
    """Execute a scenario on the fixed grid t_k = k dt, k = 0..n.

    Controls are evaluated at every grid point including the final one (the
    last command is recorded but not applied). Every command is a member of
    the command set, strictly above the cone apex, so the input map accepts
    it.

    Nothing that the state does not affect is evaluated per sample: the
    reference state, the feedforward acceleration (only when
    ``feedforward`` is on) and the yaw are sampled once over the whole grid
    before the loop. ``reference.state`` and ``reference.accel`` are each
    called once, on the array of grid times, and must return shape
    ``(n+1, 6)`` and ``(n+1, 3)``; another shape (as from a reference that
    takes only scalar times) raises ValueError. A callable yaw is called
    once per grid time; a constant one is finite, as :class:`Scenario`
    checks. One array check then looks for a non-finite value in these
    signals and raises ValueError, before any sample, naming the earliest
    grid time that holds one and the first signal, in the order
    ``reference.state``, ``reference.accel``, ``psi``, that is not finite
    there. So a run that starts completes, but for finite inputs whose
    arithmetic overflows: a raw command whose squared norm overflows
    (about 1.3e154) or a ``dt`` whose ``dt**2 / 2`` does. The saturation
    rejects the first such sample with a DomainError whose message names
    the sample's time, state and reference, then the reason.

    The per-sample loop holds only the feedback path, inlined on plain
    floats with the public functions' operations in their order: the raw
    law and membership test of :func:`control_law`, ``to_physical`` at the
    sample's yaw, ``accel`` and the exact hold update. It packs each
    sample's state and physical input; only a sample that fails the
    membership test calls a kernel, the saturation's, whose output it
    keeps apart. The run reads no clock. Array code with the same
    operations in the same order then rebuilds the raw commands from the
    state and reference columns, fills in the commands, factors, flags and
    active pieces, and runs what only observes the run: the Lyapunov value,
    the ``in_Vc``/``in_U`` and ellipsoid monitors, their messages and
    ``in_u``.
    """
    p = scenario.params
    cert = scenario.cert
    p1, p2, p3 = cert.gain.p1, cert.gain.p2, cert.gain.p3
    gamma, g, eps = cert.gamma, p.g, cert.eps
    neg_gamma = -gamma
    t2_in, tan2_in = p.t2_max_inside, p.tan2_eps_inside
    dt = scenario.dt
    half_dt2 = 0.5 * dt * dt
    n = scenario.steps
    invariance = scenario.invariance_mode
    psi = scenario.psi
    pack = _ROW.pack
    sqrt, hypot, atan2, cos, sin = math.sqrt, math.hypot, math.atan2, math.cos, math.sin

    tgrid = np.arange(n + 1) * dt
    refs = _on_grid(scenario.reference.state, tgrid, 6, "state")
    signals = {"reference.state": refs}
    if scenario.feedforward:
        signals["reference.accel"] = _on_grid(scenario.reference.accel, tgrid, 3, "accel")
    if callable(psi):
        signals["psi"] = np.array([psi(t) for t in tgrid.tolist()], dtype=float)
    finite = np.isfinite(np.column_stack(list(signals.values()))).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        name = next(name for name, values in signals.items() if not np.isfinite(values[k]).all())
        raise ValueError(f"{name} is not finite at t={float(tgrid[k])}")
    ffs = signals["reference.accel"].tolist() if scenario.feedforward else [None] * (n + 1)
    if callable(psi):
        yaws = [_yaw_trig(a, g) for a in signals["psi"].tolist()]
    else:
        yaws = [_yaw_trig(psi, g)] * (n + 1)

    level = eps * (1.0 + _LEVEL_SLACK)
    v0 = _lyapunov((scenario.initial_state - refs[0]).tolist(), p1, p2, p3)
    if invariance and v0 > level:
        raise ValueError(
            f"initial error level {v0} outside certified ellipsoid {eps}"
        )

    rows = bytearray()
    # (row byte offset, w, lam, saturated, active) of each exit kernel call
    exits = []
    x, y, z, xd, yd, zd = scenario.initial_state.tolist()
    try:
        for (q1, q2, q3, q4, q5, q6), ff, (cpsi, spsi) in zip(refs.tolist(), ffs, yaws):
            # the raw law of _raw_feedback, per axis
            r1 = neg_gamma * (p2 * (x - q1) + p3 * (xd - q4))
            r2 = neg_gamma * (p2 * (y - q2) + p3 * (yd - q5))
            r3 = neg_gamma * (p2 * (z - q3) + p3 * (zd - q6))
            if ff is not None:
                f1, f2, f3 = ff
                r1 += f1
                r2 += f2
                r3 += f3
            # the clauses of _vc_clauses; a member passes through, bitwise
            c = r3 + g
            h2 = r1 * r1 + r2 * r2
            cc = c * c
            if h2 + cc <= t2_in and h2 <= cc * tan2_in and c > 0.0:
                w1, w2, w3 = r1, r2, r3
            else:
                w1, w2, w3, lam, saturated, act = _saturate_floats(r1, r2, r3, p)
                exits.append((len(rows), (w1, w2, w3), lam, saturated, act))
                c = w3 + g
                h2 = w1 * w1 + w2 * w2
                cc = c * c

            # the input map of to_physical: a command set member is
            # finite and above the apex, so no check is needed
            thrust = sqrt(h2 + cc)
            a = w1 * cpsi + w2 * spsi
            b = w1 * spsi - w2 * cpsi
            roll = atan2(b, hypot(a, c))
            pitch = atan2(a, c)
            rows += pack(x, y, z, xd, yd, zd, thrust, roll, pitch)

            # the acceleration of accel, held over the step; none of this
            # raises, so the advance after the last sample is made and dropped
            cphi, sphi = cos(roll), sin(roll)
            cth, sth = cos(pitch), sin(pitch)
            a1 = thrust * (cphi * sth * cpsi + sphi * spsi)
            a2 = thrust * (cphi * sth * spsi - sphi * cpsi)
            a3 = thrust * cphi * cth - g
            x = x + dt * xd + half_dt2 * a1
            y = y + dt * yd + half_dt2 * a2
            z = z + dt * zd + half_dt2 * a3
            xd += dt * a1
            yd += dt * a2
            zd += dt * a3
    except DomainError as exc:
        # only an overflow of finite inputs gets here, at the first unpacked row
        k = len(rows) // _ROW.size
        xi = np.array([x, y, z, xd, yd, zd])
        raise DomainError(
            f"sample at t={float(tgrid[k])} rejected, state {xi}, reference {refs[k]}: {exc}"
        ) from exc

    buf = np.frombuffer(rows, dtype=float).reshape(n + 1, _ROW.size // 8)
    xi, u = buf[:, 0:6], buf[:, 6:9]
    # the errors and raw commands as contiguous columns, which take numpy's
    # fast loops; v_raw is their transpose
    err = np.subtract(xi.T, refs.T, order="C")
    raw = _raw_feedback(err[0:3], err[3:6], gamma, p2, p3)
    if scenario.feedforward:
        raw += signals["reference.accel"].T
    v_raw = raw.T
    # a sample that did not call the kernel passes its raw command through
    v, lam = v_raw.copy(), np.ones(n + 1)
    saturated, active = np.zeros(n + 1, dtype=bool), ["none"] * (n + 1)
    if exits:
        offsets, w, lams, flags, acts = zip(*exits)
        at = np.array(offsets) // _ROW.size
        v[at], lam[at], saturated[at] = w, lams, flags
        for k, act in zip(at.tolist(), acts):
            active[k] = act.value
    # V of a state far from the reference can overflow: the trace keeps the
    # inf or nan, which metrics then reports by its field
    with np.errstate(over="ignore", invalid="ignore"):
        lyapunov = _lyapunov(err, p1, p2, p3)
    in_u = _u_clauses(u[:, 0], u[:, 1], u[:, 2], p)
    bad_v = ~_vc_clauses(v[:, 0], v[:, 1], v[:, 2], p)
    bad_e = invariance & (lyapunov > level)
    violations = []
    # the messages of a sample in the order command set, input box,
    # ellipsoid, samples in time order
    for i in np.flatnonzero(bad_v | ~in_u | bad_e).tolist():
        t = float(tgrid[i])
        if bad_v[i]:
            violations.append(f"t={t:.6g}: command left the convex set: {v[i]}")
        if not in_u[i]:
            ui = PhysicalInput(*u[i].tolist())
            violations.append(f"t={t:.6g}: physical input left the box: {ui}")
        if bad_e[i]:
            violations.append(
                f"t={t:.6g}: left the certified ellipsoid: {float(lyapunov[i])} > {eps}"
            )
    return Trace(
        t=tgrid,
        xi=xi,
        xi_ref=refs,
        v_raw=v_raw,
        v=v,
        u=u,
        lyapunov=lyapunov,
        lam=lam,
        saturated=saturated,
        active=active,
        in_u=in_u,
        violations=violations,
    )


@dataclass(frozen=True)
class RunMetrics:
    """Summary numbers for one trace.

    The steady window is the last quarter of the horizon. Margins are the
    smallest observed distances to each constraint boundary (negative means
    a violation). Every field depends only on the run's inputs.
    ``max_decay_residual`` is the largest V' + alpha V over the samples, with
    V' = 2 xi' P (d, v - reference.accel(t)) the exact rate of the error
    xi = (e, d) under the held command v: <= 0 when every sample decays.
    """

    rms_pos_error_steady: float
    max_decay_residual: float
    saturation_duty: float
    max_lyapunov: float
    min_ball_margin: float
    min_cone_margin: float
    min_half_margin: float
    min_thrust_margin: float
    min_roll_margin: float
    min_pitch_margin: float
    n_violations: int


def metrics(trace: Trace, scenario: Scenario) -> RunMetrics:
    """Summarize a completed trace (tracking error, decay residual,
    saturation duty cycle, constraint margins).

    Reads the trace's own ``xi_ref``, and ``reference.accel`` once, on the
    trace's times. The decay residual takes the error's rate as
    (d, v - accel): exact for a reference whose velocity is the derivative
    of its position, as every built-in one's is. Raises ValueError on a
    trace with no rows, which :func:`run` never returns but a trace built
    by hand may have. The sums run with numpy's overflow and invalid-value
    warnings off, so no finite field changes; a field that is not finite,
    as from a run whose values overflow float64 in them, is a DomainError
    naming the first such field in field order."""
    p = scenario.params
    tgrid = trace.t
    if len(tgrid) == 0:
        raise ValueError("the trace has no rows to summarize")
    # a non-finite value is reported below, by the field that holds it
    with np.errstate(over="ignore", invalid="ignore"):
        # the errors as contiguous columns, computed in that layout rather
        # than copied from rows: strided (N, 3) views take numpy's slow
        # loops, and an extra array of a long run costs fresh pages
        err = np.subtract(trace.xi.T, trace.xi_ref.T, order="C")
        e, d = err[:3], err[3:]
        steady = tgrid >= 0.75 * tgrid[-1]
        pos_err = np.linalg.norm(e[:, steady], axis=0)
        rms = float(np.sqrt(np.mean(pos_err ** 2)))

        gain = scenario.cert.gain
        accel = _on_grid(scenario.reference.accel, tgrid, 3, "accel")
        accel_err = np.subtract(trace.v.T, accel.T, order="C")
        rate = _half_rate(e, d, accel_err, gain.p1, gain.p2, gain.p3)
        decay = float(np.max(2.0 * rate + gain.alpha * trace.lyapunov))

        v1, v2, v3 = trace.v[:, 0], trace.v[:, 1], trace.v[:, 2]
        c = v3 + p.g
        h2 = v1 * v1 + v2 * v2
        thrust, roll, pitch = trace.u[:, 0], trace.u[:, 1], trace.u[:, 2]

        m = RunMetrics(
            rms_pos_error_steady=rms,
            max_decay_residual=decay,
            saturation_duty=float(np.mean(trace.saturated)),
            max_lyapunov=float(np.max(trace.lyapunov)),
            min_ball_margin=float(np.min(p.t2_max - (h2 + c * c))),
            min_cone_margin=float(np.min(c * c * p.tan2_eps - h2)),
            min_half_margin=float(np.min(c)),
            min_thrust_margin=float(np.min(np.minimum(thrust, p.t_max - thrust))),
            min_roll_margin=float(np.min(p.phi_max - np.abs(roll))),
            min_pitch_margin=float(np.min(p.theta_max - np.abs(pitch))),
            n_violations=len(trace.violations),
        )
    for f in fields(m):
        value = getattr(m, f.name)
        if not math.isfinite(value):
            raise DomainError(
                f"run metric {f.name} = {value} is not finite: the run's values overflow"
            )
    return m
