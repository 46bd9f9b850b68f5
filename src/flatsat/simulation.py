"""Closed-loop simulation of the saturated flat-space controller.

The loop per step: take the reference sample, form the scaled gradient
feedback on the tracking error, saturate it onto the convex command set, map
the command to (thrust, roll, pitch), and advance the plant with the physical
input and yaw held over the step. Because the input map linearizes the plant
exactly, the held input produces a constant acceleration ``accel(u)``, so the
step is the closed-form double-integrator update; tests assert the loop
equals the linear system.

:func:`run` first samples every signal that the state does not affect over
the whole time grid: the reference state, the feedforward acceleration (each
reference takes a float or an array of times) and the yaw's cosine and sine,
taken once for a constant yaw. A yaw that fails its check still aborts the
run at its own sample, after that sample's control law. The per-sample
loop then keeps only the feedback path, on plain Python floats: it calls the
float kernels behind the public functions (the raw law and saturation of
:func:`control_law`, the input map and acceleration of
``to_physical``/``accel``) and packs each row (state, commands, physical
input, pullback factor, controller wall time) into one flat buffer. At the
end, or on abort, the buffer becomes the :class:`Trace` arrays, and the
monitors (Lyapunov value, set memberships, ellipsoid, violation messages) run
over it as array code with the same clauses as the scalar tests.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Union

import numpy as np

from .constraint_sets import ConstraintParams, _u_clauses, _vc_clauses
from .flat_model import (
    DomainError,
    PhysicalInput,
    _accel_floats,
    _to_physical_floats,
    _yaw_trig,
)
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
    "SimulationAborted",
    "control_law",
    "run",
    "metrics",
    "CSV_COLUMNS",
]

class SimulationAborted(RuntimeError):
    """The controller or the yaw check rejected a sample mid-run; carries
    the partial trace."""

    def __init__(self, message: str, trace: "Trace"):
        super().__init__(message)
        self.trace = trace


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
    times.

    ``velocity_mode`` selects how the reference velocity is formed: the
    analytic derivative of the circle ("analytic", default) or zero
    ("zero"), which reduces the tracking law to pure position feedback.
    """

    radius: float = 0.5
    center: tuple[float, float] = (0.2, 0.0)
    altitude: float = 0.3
    omega: float = 0.3 * math.pi
    velocity_mode: str = "analytic"

    def __post_init__(self) -> None:
        if self.velocity_mode not in ("analytic", "zero"):
            raise ValueError(f"velocity_mode must be analytic|zero, got {self.velocity_mode!r}")

    def state(self, t) -> np.ndarray:
        wt = self.omega * np.asarray(t, dtype=float)
        c, s = np.cos(wt), np.sin(wt)
        zero = np.zeros_like(wt)
        if self.velocity_mode == "analytic":
            vx = -self.radius * self.omega * s
            vy = self.radius * self.omega * c
        else:
            vx = vy = zero
        return np.stack(
            [
                self.center[0] + self.radius * c,
                self.center[1] + self.radius * s,
                np.full_like(wt, self.altitude),
                vx,
                vy,
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

    ``psi`` is the yaw signal: a constant or a callable of time (the yaw is
    exogenous; default 0). ``feedforward`` adds the reference acceleration
    to the feedback before saturation. ``invariance_mode`` requires the
    initial error state inside the certified ellipsoid and monitors every
    sample against leaving it. ``duration`` must be a whole number of steps
    ``dt`` (to 1e-9 relative), so the grid ends exactly at the horizon.
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

    def __post_init__(self) -> None:
        xi0 = np.array(self.initial_state, dtype=float).ravel()
        if xi0.size != 6:
            raise ValueError(f"initial_state needs exactly six values, got {xi0.size}")
        if not np.all(np.isfinite(xi0)):
            raise ValueError("initial state must be finite")
        xi0.setflags(write=False)
        object.__setattr__(self, "initial_state", xi0)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.dt <= self.duration < math.inf):
            raise ValueError("duration must be finite and cover at least one step")
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"duration {self.duration} is not a whole number of steps dt = {self.dt}"
            )

    def psi_at(self, t: float) -> float:
        return self.psi(t) if callable(self.psi) else float(self.psi)


# the trace CSV header: 18 float columns, written as '%.17g' by the array
# kernel kvformat.format_rows (Python's own '%.17g' takes zero, inf, nan,
# three-digit exponents and near-ties; a per-cell writer over format_value
# in the tests is its oracle), then saturated, active and in_u
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


@dataclass
class Trace:
    """Uniform-grid record of one run; one row per sample instant.

    ``xi_ref`` is the reference state at each sample: the rows of the one
    ``reference.state`` call on the time grid, cut to the kept rows. The
    command columns hold both the raw feedback and its saturated value;
    ``lyapunov`` is the tracking-error Lyapunov value. ``violations``
    collects human-readable monitor failures (empty on a clean run). The
    trace CSV holds every column but ``xi_ref`` and ``ctrl_time``.
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
    ctrl_time: np.ndarray
    violations: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """Write the trace; floats carry 17 significant digits so output is
        byte-stable for a fixed scenario.

        The 18 float columns are formatted by one array kernel,
        :func:`flatsat.kvformat.format_rows`, ``BLOCK_ROWS`` rows at a time,
        byte-identical to ``'%.17g'``: it finds each cell's 17 digits and
        exponent with a double-double product and keeps the bytes of
        ``'%.17g'`` from a fixed template. Python's own ``'%.17g'`` formats
        the cells it leaves: zero, inf, nan, exponents of three digits and
        near-ties such as ``2**-25``. The oracle is the per-cell writer over
        ``format_value`` in the tests."""
        floats = np.column_stack(
            [self.t, self.xi, self.v_raw, self.v, self.u, self.lyapunov, self.lam]
        )
        tails = [
            ",%d,%s,%d\n" % row
            for row in zip(self.saturated.tolist(), self.active, self.in_u.tolist())
        ]
        with open(path, "wb") as fh:
            fh.write((",".join(CSV_COLUMNS) + "\n").encode())
            fh.writelines(format_rows(floats, tails))


def _control_floats(e1: float, e2: float, e3: float, d1: float, d2: float, d3: float,
                    ff, gamma: float, p2: float, p3: float, p: ConstraintParams):
    """The controller on plain floats: the raw law on the tracking error
    ``(e1, e2, e3, d1, d2, d3)`` plus the feedforward acceleration ``ff``
    (three floats, or None), then ray saturation. Returns
    ``(r1, r2, r3, (w1, w2, w3, lam, saturated, active))``, the raw command
    and the saturation kernel's tuple as it came; the one definition that
    :func:`run` and :func:`control_law` share."""
    r1 = _raw_feedback(e1, d1, gamma, p2, p3)
    r2 = _raw_feedback(e2, d2, gamma, p2, p3)
    r3 = _raw_feedback(e3, d3, gamma, p2, p3)
    if ff is not None:
        f1, f2, f3 = ff
        r1 += f1
        r2 += f2
        r3 += f3
    return r1, r2, r3, _saturate_floats(r1, r2, r3, p)


def control_law(xi, xi_ref, cert: EllipsoidCert, p: ConstraintParams,
                feedforward_accel=None):
    """Saturated scaled gradient feedback on the tracking error
    ``xi - xi_ref``, with ``feedforward_accel`` (if given) added before the
    saturation.

    Returns ``(command, result)``: the saturated command and the
    :class:`SaturationResult` of the raw one, whose ``v_out`` is that same
    command. A thin wrapper over the float kernel that :func:`run` calls on
    every sample; a run keeps the raw command as ``Trace.v_raw``. Both
    states are cast to float64 and subtracted as Python floats, so a
    non-finite error raises DomainError in the saturation, never a numpy
    warning; a ValueError rejects a state of other than six values
    (``xi_ref`` may be one scalar) or a feedforward of other than three.
    """
    x = np.asarray(xi, dtype=float)
    r = np.asarray(xi_ref, dtype=float)
    if x.shape != (6,) or r.shape not in ((6,), ()):
        raise ValueError(f"states need exactly six values, got shapes {x.shape} and {r.shape}")
    x1, x2, x3, x4, x5, x6 = x.tolist()
    q1, q2, q3, q4, q5, q6 = r.tolist() if r.ndim else [r.item()] * 6
    ff = None if feedforward_accel is None else np.asarray(feedforward_accel, dtype=float).tolist()
    _, _, _, (w1, w2, w3, lam, saturated, active) = _control_floats(
        x1 - q1, x2 - q2, x3 - q3, x4 - q4, x5 - q5, x6 - q6, ff, cert.gamma,
        cert.gain.p2, cert.gain.p3, p
    )
    v = np.array([w1, w2, w3])
    return v, SaturationResult(v, lam, saturated, active)


# one row of the run buffer: xi (0:6), v_raw (6:9), v (9:12), u (12:15), lam,
# saturated, ctrl_time
_ROW = struct.Struct("18d")


def _on_grid(signal: Callable, tgrid: np.ndarray, width: int, name: str) -> np.ndarray:
    """``signal(tgrid)`` as a float array of shape ``(len(tgrid), width)``;
    a ValueError names the reference method that rejected the array of
    times or returned another shape."""
    want = (len(tgrid), width)
    try:
        values = np.asarray(signal(tgrid), dtype=float)
    except TypeError as exc:
        raise ValueError(f"reference.{name} must accept an array of times: {exc}") from exc
    if values.shape != want:
        raise ValueError(
            f"reference.{name} must map an array of {want[0]} times to shape {want}, "
            f"got {values.shape}"
        )
    return values


class _RejectedYaw:
    """Stands in for the cosine and sine of a yaw that failed its check:
    unpacking it raises the check's DomainError, so the run aborts at the
    yaw's own sample, after that sample's control law."""

    def __init__(self, error: DomainError):
        self.error = error

    def __iter__(self):
        raise self.error


def _yaw_on_grid(scenario: Scenario, times: list, g: float) -> list:
    """The yaw's ``(cos, sin)`` at each grid time, for the loop to zip with
    the other signals. A constant yaw is checked once; a callable one is
    called once per grid time and no further than the first value that
    fails the check, which becomes a :class:`_RejectedYaw`."""
    varying = callable(scenario.psi)
    yaws = []
    for t in times if varying else times[:1]:
        try:
            yaws.append(_yaw_trig(scenario.psi_at(t), g))
        except DomainError as exc:
            yaws.append(_RejectedYaw(exc))
            break
    return yaws if varying else yaws * len(times)


def run(scenario: Scenario) -> Trace:
    """Execute a scenario on the fixed grid t_k = k dt, k = 0..n.

    Controls are evaluated at every grid point including the final one (the
    last command is recorded but not applied). Every command is a member of
    the command set, strictly above the cone apex, so the input map accepts
    it: a run raises SimulationAborted, with the completed rows attached,
    only for a non-finite yaw or a NaN or infinite state, reference or
    feedforward, which the saturation rejects. The abort message names the
    time, the state and the reference of the sample, then the rejecting
    kernel's reason, which names the command when the command is at fault.

    Nothing that the state does not affect is evaluated per sample: the
    reference state, the feedforward acceleration (only when
    ``feedforward`` is on) and the yaw's cosine and sine are sampled once
    over the whole grid before the loop. ``reference.state`` and
    ``reference.accel`` are each called once, on the array of grid times,
    and must return shape ``(n+1, 6)`` and ``(n+1, 3)``; another shape (as
    from a reference that takes only scalar times) raises ValueError. A
    constant yaw is checked once; a callable one is called once per grid
    time and no further than its first non-finite value, whose sample
    still aborts after its own control law, so a NaN reference there wins
    the message. The per-sample loop then holds only the feedback path, on
    plain floats: the control law of :func:`control_law`, the input map
    ``to_physical`` at the sample's yaw, ``accel`` and the exact hold
    update. ``ctrl_time`` times the error, the raw law,
    the feedforward and the saturation of each sample. Everything that only
    observes the run (the Lyapunov value, the ``in_Vc``/``in_U`` and
    ellipsoid monitors, their violation messages and ``in_u``) is computed
    afterwards, as array code over the completed rows, with the same
    operations as the scalar definitions.
    """
    p = scenario.params
    cert = scenario.cert
    p1, p2, p3 = cert.gain.p1, cert.gain.p2, cert.gain.p3
    gamma, g, eps = cert.gamma, p.g, cert.eps
    dt = scenario.dt
    half_dt2 = 0.5 * dt * dt
    n = int(round(scenario.duration / dt))
    invariance = scenario.invariance_mode
    clock = time.perf_counter
    pack = _ROW.pack

    tgrid = np.arange(n + 1) * dt
    times = tgrid.tolist()
    refs = _on_grid(scenario.reference.state, tgrid, 6, "state")
    if scenario.feedforward:
        ffs = _on_grid(scenario.reference.accel, tgrid, 3, "accel").tolist()
    else:
        ffs = [None] * (n + 1)
    yaws = _yaw_on_grid(scenario, times, g)
    rows = bytearray()
    acts: list[ActiveConstraint] = []

    def partial(k: int) -> Trace:
        buf = np.frombuffer(rows, dtype=float).reshape(k, _ROW.size // 8)
        xi, v, u = buf[:, 0:6], buf[:, 9:12], buf[:, 12:15]
        xi_ref = refs[:k]
        lyapunov = _lyapunov((xi - xi_ref).T, p1, p2, p3)
        in_u = _u_clauses(u[:, 0], u[:, 1], u[:, 2], p)
        bad_v = ~_vc_clauses(v[:, 0], v[:, 1], v[:, 2], p)
        bad_e = invariance & (lyapunov > eps * (1.0 + 1e-6))
        violations = []
        # the messages of a sample in the order command set, input box,
        # ellipsoid, samples in time order
        for i in np.flatnonzero(bad_v | ~in_u | bad_e).tolist():
            t = times[i]
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
            t=tgrid[:k],
            xi=xi,
            xi_ref=xi_ref,
            v_raw=buf[:, 6:9],
            v=v,
            u=u,
            lyapunov=lyapunov,
            lam=buf[:, 15],
            saturated=buf[:, 16] != 0.0,
            # _value_ is where an enum member keeps its value; reading it
            # skips the per-member property lookup of .value
            active=[a._value_ for a in acts],
            in_u=in_u,
            ctrl_time=buf[:, 17],
            violations=violations,
        )

    v0 = _lyapunov((scenario.initial_state - refs[0]).tolist(), p1, p2, p3)
    if invariance and v0 > eps * (1.0 + 1e-9):
        raise ValueError(
            f"initial error level {v0} outside certified ellipsoid {eps}"
        )

    x, y, z, xd, yd, zd = scenario.initial_state.tolist()
    for k, ((q1, q2, q3, q4, q5, q6), ff, yaw) in enumerate(zip(refs.tolist(), ffs, yaws)):
        tic = clock()
        try:
            r1, r2, r3, (w1, w2, w3, lam, saturated, act) = _control_floats(
                x - q1, y - q2, z - q3, xd - q4, yd - q5, zd - q6, ff, gamma, p2, p3, p
            )
            ctrl = clock() - tic
            cpsi, spsi = yaw
        except DomainError as exc:
            xi = np.array([x, y, z, xd, yd, zd])
            raise SimulationAborted(
                f"sample at t={times[k]} rejected, state {xi}, reference {refs[k]}: {exc}",
                partial(k),
            ) from exc

        # a command set member is finite and above the apex: no check needed
        thrust, roll, pitch = _to_physical_floats(w1, w2, w3, cpsi, spsi, g)
        rows += pack(x, y, z, xd, yd, zd, r1, r2, r3, w1, w2, w3, thrust, roll, pitch,
                     lam, saturated, ctrl)
        acts.append(act)

        if k < n:
            a1, a2, a3 = _accel_floats(thrust, roll, pitch, cpsi, spsi, g)
            x = x + dt * xd + half_dt2 * a1
            y = y + dt * yd + half_dt2 * a2
            z = z + dt * zd + half_dt2 * a3
            xd += dt * a1
            yd += dt * a2
            zd += dt * a3

    return partial(n + 1)


@dataclass(frozen=True)
class RunMetrics:
    """Summary numbers for one trace.

    The steady window is the last quarter of the horizon. Margins are the
    smallest observed distances to each constraint boundary (negative means
    a violation); controller times are wall-clock seconds per call. Every
    field but the :attr:`WALL_CLOCK` ones depends only on the run's inputs.
    ``max_decay_residual`` is the largest V' + alpha V over the samples, with
    V' = 2 xi' P (d, v - reference.accel(t)) the exact rate of the error
    xi = (e, d) under the held command v: <= 0 when every sample decays.
    """

    WALL_CLOCK = ("ctrl_time_mean", "ctrl_time_p99")

    rms_pos_error_steady: float
    max_decay_residual: float
    saturation_duty: float
    ctrl_time_mean: float
    ctrl_time_p99: float
    max_lyapunov: float
    min_ball_margin: float
    min_cone_margin: float
    min_half_margin: float
    min_thrust_margin: float
    min_roll_margin: float
    min_pitch_margin: float
    n_violations: int

    def split_kv(self) -> tuple[dict, dict]:
        """The report as (input-determined pairs, wall-clock pairs), each in
        field order."""
        kv = asdict(self)
        clock = {key: kv.pop(key) for key in self.WALL_CLOCK}
        return kv, clock


def metrics(trace: Trace, scenario: Scenario) -> RunMetrics:
    """Summarize a completed trace (tracking error, decay residual,
    saturation duty cycle, controller timing, constraint margins).

    Reads the trace's own ``xi_ref``, and ``reference.accel`` once, on the
    trace's times. Raises ValueError on a trace with no rows, such as the
    partial trace of a run aborted at its first sample."""
    p = scenario.params
    tgrid = trace.t
    if len(tgrid) == 0:
        raise ValueError("the trace has no rows to summarize")
    err = trace.xi - trace.xi_ref
    steady = tgrid >= 0.75 * tgrid[-1]
    pos_err = np.linalg.norm(err[steady, :3], axis=1)
    rms = float(np.sqrt(np.mean(pos_err ** 2)))

    gain = scenario.cert.gain
    accel_err = trace.v - _on_grid(scenario.reference.accel, tgrid, 3, "accel")
    rate = _half_rate(err[:, :3], err[:, 3:], accel_err, gain.p1, gain.p2, gain.p3)
    decay = float(np.max(2.0 * rate + gain.alpha * trace.lyapunov))

    v1, v2, v3 = trace.v[:, 0], trace.v[:, 1], trace.v[:, 2]
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    thrust, roll, pitch = trace.u[:, 0], trace.u[:, 1], trace.u[:, 2]

    return RunMetrics(
        rms_pos_error_steady=rms,
        max_decay_residual=decay,
        saturation_duty=float(np.mean(trace.saturated)),
        ctrl_time_mean=float(np.mean(trace.ctrl_time)),
        ctrl_time_p99=float(np.percentile(trace.ctrl_time, 99)),
        max_lyapunov=float(np.max(trace.lyapunov)),
        min_ball_margin=float(np.min(p.t2_max - (h2 + c * c))),
        min_cone_margin=float(np.min(c * c * p.tan2_eps - h2)),
        min_half_margin=float(np.min(c)),
        min_thrust_margin=float(np.min(np.minimum(thrust, p.t_max - thrust))),
        min_roll_margin=float(np.min(p.phi_max - np.abs(roll))),
        min_pitch_margin=float(np.min(p.theta_max - np.abs(pitch))),
        n_violations=len(trace.violations),
    )
