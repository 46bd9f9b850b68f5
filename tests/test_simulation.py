import math
import re
import sys
import time
import warnings
from dataclasses import astuple, fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsat import (
    ActiveConstraint,
    CircularReference,
    ConstraintParams,
    DomainError,
    EllipsoidCert,
    GainMatrix,
    OriginReference,
    Scenario,
    SaturationResult,
    SetpointReference,
    Trace,
    accel,
    boundary_states,
    control_law,
    in_U,
    in_Vc,
    metrics,
    run,
    saturate,
    to_physical,
)
from flatsat.kvformat import BLOCK_ROWS, format_value
from flatsat.simulation import _LEVEL_SLACK, _ROW, CSV_COLUMNS, RunMetrics
from flatsat.synthesis import _half_rate

from conftest import CANONICAL_X0, dense_P, residual_active


def origin_scenario(cert, params, xi0, duration=20.0, **kw):
    return Scenario(
        reference=OriginReference(),
        initial_state=xi0,
        duration=duration,
        dt=0.02,
        cert=cert,
        params=params,
        **kw,
    )


def numpy_control_law(xi, xi_ref, cert, p, feedforward_accel=None):
    """Reference for the float kernel of :func:`control_law`: the raw law
    on a numpy error vector, then the public ``saturate``. Returns
    (command, raw command, saturation result)."""
    p2, p3 = cert.gain.p2, cert.gain.p3
    gsc = cert.gamma
    e1, e2, e3, e4, e5, e6 = (np.asarray(xi, dtype=float) - xi_ref).tolist()
    r1 = -gsc * (p2 * e1 + p3 * e4)
    r2 = -gsc * (p2 * e2 + p3 * e5)
    r3 = -gsc * (p2 * e3 + p3 * e6)
    if feedforward_accel is not None:
        r1 += float(feedforward_accel[0])
        r2 += float(feedforward_accel[1])
        r3 += float(feedforward_accel[2])
    res = saturate((r1, r2, r3), p)
    return res.v_out, np.array([r1, r2, r3]), res


def scalar_lyapunov(e, p1, p2, p3):
    """Reference for the Lyapunov column: e' P e of one error 6-tuple from
    the block scalars of P, summed axis by axis on Python floats."""
    e1, e2, e3, d1, d2, d3 = e
    q2 = 2.0 * p2
    return (
        (e1 * (p1 * e1 + q2 * d1) + p3 * d1 * d1)
        + (e2 * (p1 * e2 + q2 * d2) + p3 * d2 * d2)
        + (e3 * (p1 * e3 + q2 * d3) + p3 * d3 * d3)
    )


def numpy_run(scenario):
    """Reference for :func:`run`: the same loop on numpy state vectors,
    with the public input map, ``accel`` and membership tests evaluated
    sample by sample. Returns the completed trace."""
    p = scenario.params
    cert = scenario.cert
    g = cert.gain
    dt = scenario.dt
    n = int(round(scenario.duration / dt))
    tgrid = np.arange(n + 1) * dt
    rows = []  # (xi, err, a_ref, raw, v, u, lyap, lam, saturated, active, in_u)
    violations = []
    psi = scenario.psi

    xi = np.array(scenario.initial_state, dtype=float)
    for k in range(n + 1):
        t = tgrid[k]
        ref = scenario.reference.state(t)
        a_ref = scenario.reference.accel(t)
        ff = a_ref if scenario.feedforward else None
        v, raw, res = numpy_control_law(xi, ref, cert, p, feedforward_accel=ff)
        psi_k = psi(t) if callable(psi) else psi
        u = to_physical(v, psi_k, p.g)
        lyap = scalar_lyapunov((xi - ref).tolist(), g.p1, g.p2, g.p3)
        ok_u = in_U(u, p)
        if not in_Vc(v, p):
            violations.append(f"t={t:.6g}: command left the convex set: {v}")
        if not ok_u:
            violations.append(f"t={t:.6g}: physical input left the box: {u}")
        if scenario.invariance_mode and lyap > cert.eps * (1.0 + _LEVEL_SLACK):
            violations.append(
                f"t={t:.6g}: left the certified ellipsoid: {lyap} > {cert.eps}"
            )
        rows.append((xi, xi - ref, a_ref, raw, v, (u.thrust, u.roll, u.pitch), lyap, res.lam,
                     res.saturated, res.active.value, ok_u))
        if k < n:
            a = accel(u, psi_k, p.g)
            xi = np.concatenate(
                [xi[:3] + dt * xi[3:] + 0.5 * dt * dt * a, xi[3:] + dt * a]
            )
    cols = list(zip(*rows))
    block = lambda i, w: np.array(cols[i], dtype=float).reshape(n + 1, w)
    return Trace(
        t=tgrid, xi=block(0, 6), err=block(1, 6), a_ref=block(2, 3), v_raw=block(3, 3),
        v=block(4, 3), u=block(5, 3), lyapunov=np.array(cols[6], dtype=float),
        lam=np.array(cols[7], dtype=float), saturated=np.array(cols[8], dtype=bool),
        active=list(cols[9]), in_u=np.array(cols[10], dtype=bool), violations=violations,
    )


def head(trace, k):
    """The first ``k`` rows of ``trace``: every column, and the violations
    list (empty on the clean runs this slices), cut to ``k``."""
    return Trace(**{f.name: getattr(trace, f.name)[:k] for f in fields(Trace)})


def format_value_csv(trace, path):
    """Reference for :meth:`Trace.to_csv`: a per-cell writer that formats
    every number with ``format_value``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k in range(len(trace.t)):
            row = [
                trace.t[k],
                *trace.xi[k],
                *trace.v_raw[k],
                *trace.v[k],
                *trace.u[k],
                trace.lyapunov[k],
                trace.lam[k],
                int(trace.saturated[k]),
                trace.active[k],
                int(trace.in_u[k]),
            ]
            fh.write(
                ",".join(
                    x if isinstance(x, str) else format_value(float(x)) for x in row
                )
                + "\n"
            )


class TestControlLaw:
    def test_at_reference_hover(self, params, cert075):
        xi = np.array([0.3, 0.3, 0.8, 0.0, 0.0, 0.0])
        res = control_law(xi, xi, cert075, params)
        assert np.all(res.v_out == 0.0)
        assert not res.saturated
        assert res.active is ActiveConstraint.NONE
        u = to_physical(res.v_out, 0.0, params.g)
        assert u.thrust == params.g and u.roll == 0.0 and u.pitch == 0.0

    def test_boundary_state_unsaturated_at_unit_gamma(self, params, cert075):
        for xi in boundary_states(cert075.gain, cert075.eps, 16):
            res = control_law(xi, np.zeros(6), cert075, params)
            assert not res.saturated
            assert float(res.v_out @ res.v_out) <= cert075.rho + 1e-9

    def test_far_state_saturates_on_boundary(self, params, cert075):
        cert = replace(cert075, gamma=15.0)
        xi = 4.0 * CANONICAL_X0
        res = control_law(xi, np.zeros(6), cert, params)
        v = res.v_out
        assert res.saturated
        c = v[2] + params.g
        h2 = v[0] ** 2 + v[1] ** 2
        rel = min(
            abs(h2 + c * c - params.t2_max),
            abs(h2 - c * c * params.tan2_eps),
        ) / params.t2_max
        assert min(rel, abs(c) / params.g) <= 1e-6

    def test_feedforward_added_before_saturation(self, params, cert075):
        xi = np.zeros(6)
        ff = (0.3, -0.2, 0.1)
        res = control_law(xi, xi, cert075, params, feedforward_accel=ff)
        # unsaturated, so the command is the raw feedback (zero) plus ff
        assert res.lam == 1.0 and not res.saturated
        assert np.allclose(res.v_out, ff)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def input_forms(xi, xi_ref, ff):
    """The same control-law inputs as float64 arrays, lists, tuples and
    float32 arrays."""
    cast = lambda f, x: None if x is None else f(x)
    yield "float64", xi, xi_ref, ff
    yield "list", xi.tolist(), xi_ref.tolist(), cast(np.ndarray.tolist, ff)
    yield "tuple", tuple(xi.tolist()), tuple(xi_ref.tolist()), cast(tuple, ff)
    f32 = lambda x: x.astype(np.float32)
    yield "float32", f32(xi), f32(xi_ref), cast(f32, ff)


class TestControlLawInputs:
    """``control_law`` casts its inputs to float64 before the subtraction:
    every input form gives the bits of :func:`numpy_control_law`."""

    @pytest.mark.parametrize("feedforward", [False, True])
    @pytest.mark.parametrize("gamma", [1.0, 5.0, 15.0])
    def test_every_input_form_matches_reference_bits(self, params, cert075, gamma,
                                                     feedforward):
        cert = replace(cert075, gamma=gamma)
        rng = np.random.default_rng(17)
        n_saturated = 0
        for scale in (0.05, 0.5, 3.0):
            for _ in range(8):
                xi = rng.normal(0.0, scale, 6)
                xi_ref = rng.normal(0.0, 0.3, 6)
                ff = rng.normal(0.0, 2.0, 3) if feedforward else None
                forms = list(input_forms(xi, xi_ref, ff))
                ints = rng.integers(-4, 5, (2, 6))
                forms.append(("int", ints[0], ints[1], None if ff is None else ints[0, :3]))
                for tag, a, b, f in forms:
                    res = control_law(a, b, cert, params, feedforward_accel=f)
                    want, _, want_res = numpy_control_law(a, b, cert, params,
                                                          feedforward_accel=f)
                    np.testing.assert_array_equal(bits(res.v_out), bits(want), err_msg=tag)
                    assert bits(res.lam) == bits(want_res.lam), tag
                    assert res.saturated == want_res.saturated, tag
                    assert res.active is want_res.active, tag
                    n_saturated += res.saturated
        assert n_saturated > 0 or gamma == 1.0

    @pytest.mark.parametrize(
        "xi, xi_ref",
        [(np.zeros(5), np.zeros(6)), (np.zeros(7), np.zeros(6)),
         (np.zeros(6), np.zeros(5)), (np.zeros(6), np.zeros(7)),
         ([0.0] * 5, 0.0), ([0.0] * 7, 0.0), (np.zeros(6), 0.0)],
        ids=["xi5", "xi7", "ref5", "ref7", "xi5-scalar-ref", "xi7-scalar-ref", "scalar-ref"],
    )
    def test_state_of_other_than_six_values_rejected(self, params, cert075, xi, xi_ref):
        with pytest.raises(ValueError):
            control_law(xi, xi_ref, cert075, params)

    @pytest.mark.parametrize("ff", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), 5.0, np.zeros((3, 1)),
                                    np.zeros((1, 3)), [[0.0] * 3] * 3])
    def test_feedforward_of_other_than_three_values_rejected(self, params, cert075, ff):
        # a ValueError naming the shape, as the states get, also where the
        # sum would raise a TypeError (a scalar, a column)
        with pytest.raises(ValueError) as exc:
            control_law(np.zeros(6), np.zeros(6), cert075, params, feedforward_accel=ff)
        assert str(exc.value) == (
            f"feedforward_accel needs exactly three values, got shape {np.shape(ff)}"
        )

    @pytest.mark.parametrize("x0, r0", [(math.inf, math.inf), (1e308, -1e308)],
                             ids=["inf-minus-inf", "overflow"])
    def test_error_not_finite_raises_domain_error(self, params, cert075, x0, r0):
        # the error is formed on Python floats, so numpy has nothing to
        # warn about and the saturation rejects the command
        xi, xi_ref = np.zeros(6), np.zeros(6)
        xi[0], xi_ref[0] = x0, r0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="no feasible pullback factor"):
                control_law(xi, xi_ref, cert075, params)

    @pytest.mark.parametrize("scale", [0.1, 4.0])
    def test_result_holds_the_returned_command(self, params, cert075, scale):
        # the saturation result alone, whose field 0 is the command
        cert = replace(cert075, gamma=15.0)
        res = control_law(scale * CANONICAL_X0, np.zeros(6), cert, params)
        assert isinstance(res, SaturationResult) and res[0] is res.v_out
        assert res.v_out.shape == (3,) and in_Vc(res.v_out, params)
        assert res.saturated == (scale > 1.0)


class TestExactHoldStep:
    def test_trace_rows_satisfy_hold_update(self, params, cert075):
        # the command is held over each step, so consecutive rows obey the
        # closed-form double-integrator update on the recorded command
        cert = replace(cert075, gamma=5.0)
        sc = origin_scenario(
            cert, params, CANONICAL_X0, duration=10.0, psi=lambda t: 0.7 * math.sin(t)
        )
        trace = run(sc)
        dt = sc.dt
        xi, v = trace.xi[:-1], trace.v[:-1]
        want = np.concatenate(
            [xi[:, :3] + dt * xi[:, 3:] + 0.5 * dt * dt * v, xi[:, 3:] + dt * v],
            axis=1,
        )
        assert np.max(np.abs(trace.xi[1:] - want)) <= 1e-10

    def test_input_map_evaluated_once_per_sample(self, params, cert075, monkeypatch):
        # one packed row per sample; each row's physical input is the input
        # map of its command at its yaw, bitwise, and every row but the last
        # advances the state under that input's acceleration: the last
        # command is recorded but not applied
        packed = []
        pack_rows(monkeypatch, lambda real, row: packed.append(row) or real(*row))
        psi = lambda t: 0.7 * math.sin(t)
        sc = origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0,
                             duration=1.0, psi=psi)
        trace = run(sc)
        n = 50
        assert len(trace) == n + 1 and len(packed) == n + 1
        assert trace.saturated.any() and not trace.saturated.all()
        dt = sc.dt
        for k, t in enumerate(trace.t.tolist()):
            u = to_physical(trace.v[k], psi(t), params.g)
            np.testing.assert_array_equal(bits([u.thrust, u.roll, u.pitch]), bits(trace.u[k]))
            if k < n:
                a = accel(u, psi(t), params.g).tolist()
                x = trace.xi[k].tolist()
                want = [x[i] + dt * x[i + 3] + 0.5 * dt * dt * a[i] for i in range(3)]
                want += [x[i + 3] + dt * a[i] for i in range(3)]
                np.testing.assert_array_equal(bits(want), bits(trace.xi[k + 1]), err_msg=k)

    def test_constant_yaw_checked_once_per_run(self, params, cert075, monkeypatch):
        # a constant yaw has one cosine and sine, taken before the loop
        import flatsat.simulation as simulation

        calls = []
        kernel = simulation._yaw_trig

        def counting(psi, g):
            calls.append(psi)
            return kernel(psi, g)

        monkeypatch.setattr(simulation, "_yaw_trig", counting)
        for psi in (0.0, 0.3):
            calls.clear()
            sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0, psi=psi)
            assert len(run(sc)) == 51
            assert calls == [psi]

    @pytest.mark.parametrize("bad_from", [None, 0.0, 0.5, 1.0])
    def test_callable_yaw_called_once_per_grid_time(self, params, cert075, monkeypatch,
                                                    bad_from):
        # at every grid time, before the first sample, whether or not a value
        # is non-finite; the first non-finite value stops the run there
        events = []

        def psi(t):
            events.append(t)
            return math.inf if bad_from is not None and t >= bad_from else 0.3

        pack_rows(monkeypatch, lambda real, row: events.append("sample") or real(*row))
        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0, psi=psi)
        times = (np.arange(51) * sc.dt).tolist()
        if bad_from is None:
            assert len(run(sc)) == 51
            assert events == times + ["sample"] * 51
            return
        t0 = times[round(bad_from / sc.dt)]
        with pytest.raises(ValueError, match=f"^psi is not finite at t={t0}$"):
            run(sc)
        assert events == times


class TestRun:
    def test_invariance_and_monitors_small(self, params, cert075):
        cert = replace(cert075, gamma=15.0)
        for xi0 in boundary_states(cert.gain, cert.eps, 5):
            trace = run(
                origin_scenario(cert, params, xi0, duration=5.0, invariance_mode=True)
            )
            assert trace.violations == []
            assert trace.lyapunov.max() <= cert.eps * (1.0 + _LEVEL_SLACK)
            assert all(in_Vc(v, params) for v in trace.v)
            assert trace.in_u.all()

    def test_two_runs_give_equal_traces(self, params, cert125):
        # every field of a trace depends only on the scenario: two runs of
        # a saturating circle with feedforward agree field by field, bitwise
        sc = Scenario(reference=CircularReference(), initial_state=np.zeros(6), duration=5.0,
                      dt=0.02, cert=replace(cert125, gamma=4.5), params=params, psi=0.3,
                      feedforward=True)
        first, second = run(sc), run(sc)
        assert first.saturated.any()
        for f in fields(Trace):
            a, b = getattr(first, f.name), getattr(second, f.name)
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            else:
                assert a == b, f.name

    def test_run_reads_no_clock(self, params, cert075, monkeypatch):
        def stopped():
            raise AssertionError("the run read a clock")

        for name in ("perf_counter", "perf_counter_ns", "monotonic", "time", "process_time"):
            monkeypatch.setattr(time, name, stopped)
        sc = origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0, duration=1.0)
        trace = run(sc)
        assert len(trace) == 51 and trace.saturated.any()
        assert metrics(trace, sc).n_violations == 0

    def test_ellipsoid_monitor_flags_an_exit_past_the_level_slack(self, params, cert125):
        # a circle tracked without feedforward from a boundary start: V rises
        # above its start (about 1.093 V0). With eps set so that the largest
        # V is eps (1 + 1e-7), an overshoot far above the rounding of V, the
        # monitor flags the samples past the level bound, and nothing else
        # of the trace changes
        ref = CircularReference(omega=1.7)
        xi0 = ref.state(0.0) + boundary_states(cert125.gain, cert125.eps, 16, seed=2)[0]
        sc = Scenario(reference=ref, initial_state=xi0, duration=10.0, dt=0.02,
                      cert=cert125, params=params)
        free = run(sc)
        top = float(free.lyapunov.max())
        assert free.violations == [] and top > 1.09 * free.lyapunov[0]
        eps = top / (1.0 + 1e-7)
        trace = run(replace(sc, cert=replace(cert125, eps=eps), invariance_mode=True))
        assert trace.violations
        assert all("left the certified ellipsoid" in m for m in trace.violations)
        assert f"left the certified ellipsoid: {top!r} > {eps!r}" in "".join(trace.violations)
        assert_same_trace(replace(trace, violations=[]), free, "level")

    def test_unit_gamma_never_saturates_and_decays(self, params, cert075):
        trace = run(origin_scenario(cert075, params, CANONICAL_X0))
        assert not trace.saturated.any()
        envelope = trace.lyapunov[0] * np.exp(-0.75 * trace.t) * (1.0 + 1e-3)
        assert np.all(trace.lyapunov <= envelope)

    def test_larger_gamma_saturates(self, params, cert075):
        trace = run(
            origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0)
        )
        assert trace.saturated.any()

    def test_nonlinear_loop_equals_linear_system(self, params, cert075):
        # replay the recorded command sequence through the exact discrete
        # double-integrator update and compare trajectories
        cert = replace(cert075, gamma=5.0)
        trace = run(origin_scenario(cert, params, CANONICAL_X0, duration=10.0))
        dt = 0.02
        xi = np.array(CANONICAL_X0, dtype=float)
        worst = 0.0
        for k in range(len(trace.t) - 1):
            worst = max(worst, np.max(np.abs(xi - trace.xi[k])))
            v = trace.v[k]
            xi = np.concatenate(
                [xi[:3] + dt * xi[3:] + 0.5 * dt * dt * v, xi[3:] + dt * v]
            )
        assert worst <= 1e-8

    def test_time_varying_yaw_keeps_monitors_clean(self, params, cert075):
        cert = replace(cert075, gamma=5.0)
        sc = origin_scenario(
            cert, params, CANONICAL_X0, duration=5.0, psi=lambda t: 0.8 * math.sin(t)
        )
        trace = run(sc)
        assert trace.violations == []

    def test_setpoint_converges(self, params, cert125):
        cert = replace(cert125, gamma=5.0)
        sc = Scenario(
            reference=SetpointReference(position=(0.3, 0.3, 0.8)),
            initial_state=np.zeros(6),
            duration=15.0,
            dt=0.02,
            cert=cert,
            params=params,
        )
        trace = run(sc)
        err = np.linalg.norm(trace.xi[-1, :3] - [0.3, 0.3, 0.8])
        assert err < 1e-3
        assert trace.violations == []

    def test_initial_state_outside_rejected_in_invariance_mode(self, params, cert075):
        with pytest.raises(ValueError, match="outside"):
            run(origin_scenario(cert075, params, 10.0 * CANONICAL_X0,
                                invariance_mode=True))

    def test_scenario_validation(self, params, cert075):
        for n in (3, 7):
            with pytest.raises(ValueError, match=f"initial_state needs exactly six values, got {n}"):
                origin_scenario(cert075, params, np.zeros(n))
        for position in ((0.3, 0.3), (0.3, 0.3, 0.8, 0.0)):
            with pytest.raises(ValueError, match="setpoint needs exactly three values"):
                SetpointReference(position=position)
        with pytest.raises(ValueError):
            Scenario(
                reference=OriginReference(),
                initial_state=np.zeros(6),
                duration=1.0,
                dt=0.0,
                cert=cert075,
                params=params,
            )
        # the horizon must be a whole number of steps; inexact float
        # quotients (0.58 / 0.02 = 28.999999999999996) pass
        with pytest.raises(ValueError, match="whole number of steps"):
            origin_scenario(cert075, params, CANONICAL_X0, duration=1.01)
        for duration in (0.02, 0.58, 2.3, 20.0, 60.0):
            origin_scenario(cert075, params, CANONICAL_X0, duration=duration)
        # a step count that overflows is named by both values, not an
        # OverflowError from round()
        message = "duration / dt overflows: 1e+300 / 1e-10"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(origin_scenario(cert075, params, CANONICAL_X0), duration=1e300, dt=1e-10)
        # so is a finite one whose row buffer, (steps + 1) rows of
        # _ROW.size = 72 bytes, exceeds sys.maxsize: the largest float step
        # count within the bound passes, the next float above it does not
        assert _ROW.size == 72
        base = origin_scenario(cert075, params, CANONICAL_X0)
        most = float(sys.maxsize // _ROW.size - 1)
        while (int(most) + 1) * _ROW.size > sys.maxsize:
            most = math.nextafter(most, 0.0)
        assert replace(base, duration=most, dt=1.0).steps == int(most)
        for duration in (math.nextafter(most, math.inf), 2.0**57, 1e300):
            with pytest.raises(ValueError, match=r"^duration / dt is too many steps to run: "):
                replace(base, duration=duration, dt=1.0)

    def test_apex_command_runs_above_the_apex(self):
        # exact-binary setup driving the first command straight down onto
        # the cone apex, where the input map is undefined; the backoff puts
        # the saturated command just above it, so the run completes
        p = ConstraintParams(g=9.0, t_max=13.5)
        gain = GainMatrix(p1=27 / 128, p2=9 / 32, p3=0.75, alpha=0.75)
        cert = EllipsoidCert(gain=gain, rho=1.0, eps=1.0, gamma=2.0)
        sc = Scenario(
            reference=OriginReference(),
            initial_state=[0.0, 0.0, 32.0, 0.0, 0.0, 0.0],
            duration=1.0,
            dt=0.02,
            cert=cert,
            params=p,
        )
        trace = run(sc)
        assert len(trace) == 51 and trace.violations == []
        assert trace.v_raw[0].tolist() == [0.0, 0.0, -18.0]
        assert trace.saturated[0] and trace.active[0] == "cone"
        assert 0.0 < trace.v[0, 2] + p.g < 1e-13
        assert trace.u[0, 0] > 0.0

    @pytest.mark.parametrize("method", ["state", "accel"])
    def test_non_finite_reference_rejected_before_any_sample(self, params, cert075,
                                                             monkeypatch, method):
        # both are read, and checked, on every run: feedforward only decides
        # whether the command adds the acceleration
        sc = replace(origin_scenario(cert075, params, CANONICAL_X0, duration=1.0),
                     reference=nan_from(**{method: 0.5}))
        pack_rows(monkeypatch, no_sample)
        for feedforward in (False, True):
            with pytest.raises(ValueError, match=f"^reference.{method} is not finite at t=0.5$"):
                run(replace(sc, feedforward=feedforward))

    def test_yaw_turning_infinite_rejected_before_any_sample(self, params, cert075,
                                                             monkeypatch):
        # the grid up to t = 0.48 is clean and runs as with a constant yaw;
        # one more step reaches the infinite value and nothing is sampled
        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0,
                             psi=lambda t: math.inf if t >= 0.5 else 0.3)
        clean = run(replace(sc, psi=0.3))
        head = run(replace(sc, duration=0.48))
        assert len(head) == 25 and not head.violations
        np.testing.assert_array_equal(head.xi, clean.xi[:25])
        pack_rows(monkeypatch, no_sample)
        with pytest.raises(ValueError, match="^psi is not finite at t=0.5$"):
            run(sc)

    @pytest.mark.parametrize("psi", [math.nan, math.inf])
    def test_non_finite_constant_yaw_aborts_before_any_row(self, params, cert075, psi):
        # the scenario itself refuses it, as it does a non-finite start
        with pytest.raises(ValueError, match=f"^psi must be finite, got {psi}$"):
            origin_scenario(cert075, params, CANONICAL_X0, duration=1.0, psi=psi)

    @pytest.mark.parametrize(
        "state, accel, psi, named",
        [(25, None, 25, "reference.state"), (25, None, 5, "psi"),
         (25, 25, 25, "reference.state"), (26, 25, 25, "reference.accel"),
         (None, 24, 25, "reference.accel")],
    )
    def test_earliest_non_finite_signal_named(self, params, cert075, monkeypatch, state,
                                              accel, psi, named):
        # the earliest grid time with a non-finite value, and there the
        # first of reference.state, reference.accel and psi that has one,
        # with or without feedforward; each signal turns NaN from the grid
        # time of the given index on
        times = (np.arange(51) * 0.02).tolist()
        at = lambda k: None if k is None else times[k]
        sc = replace(
            origin_scenario(cert075, params, CANONICAL_X0, duration=1.0,
                            psi=lambda t: math.nan if t >= times[psi] else 0.3),
            reference=nan_from(state=at(state), accel=at(accel)),
        )
        first = min(k for k in (state, accel, psi) if k is not None)
        pack_rows(monkeypatch, no_sample)
        for feedforward in (False, True):
            with pytest.raises(ValueError, match=f"^{named} is not finite at t={times[first]}$"):
                run(replace(sc, feedforward=feedforward))

    @pytest.mark.parametrize(
        "start, dt, t0",
        [([1e160, 0.0, 0.0, 0.0, 0.0, 0.0], 0.02, 0.0), (CANONICAL_X0, 1e160, 1e160)],
        ids=["start", "dt"],
    )
    def test_overflow_names_its_sample(self, params, cert075, start, dt, t0):
        # finite inputs whose arithmetic overflows: a raw command whose
        # squared norm does, from the start or from the first step
        sc = replace(origin_scenario(cert075, params, start), dt=dt, duration=dt)
        with pytest.raises(DomainError) as excinfo:
            run(sc)
        message = str(excinfo.value)
        assert message.startswith(f"sample at t={t0} rejected, state ")
        assert f", reference {np.zeros(6)}: no feasible pullback factor for " in message
        if dt == 0.02:
            assert f"state {np.array(start)}, " in message

    @pytest.mark.parametrize("center", [(0.2,), (0.2, 0.0, 9.0)])
    def test_circle_center_of_other_than_two_values_rejected(self, center):
        with pytest.raises(ValueError, match=f"circle center needs exactly two values, "
                           f"got {len(center)}"):
            CircularReference(center=center)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.tuples(*[st.floats(-1e3, 1e3)] * 3, *[st.floats(-1e2, 1e2)] * 3),
        setpoint=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
        psi=st.floats(-10.0, 10.0),
        gamma=st.floats(1.0, 50.0),
        steps=st.integers(1, 25),
    )
    def test_finite_setpoint_scenario_completes(self, params, cert075, start, setpoint, psi,
                                                gamma, steps):
        # a run that starts completes: n+1 rows, every monitor clean
        sc = Scenario(
            reference=SetpointReference(position=setpoint),
            initial_state=start,
            duration=steps * 0.02,
            dt=0.02,
            cert=replace(cert075, gamma=gamma),
            params=params,
            psi=psi,
        )
        trace = run(sc)
        assert len(trace) == steps + 1 and trace.violations == []


def nan_from(state=None, accel=None):
    """An origin reference whose state, and whose acceleration, turn NaN
    from the given times on (None: never)."""

    def turning(values, t, t0):
        if t0 is None:
            return values
        return np.where(np.asarray(t)[..., None] >= t0, math.nan, values)

    class NanFrom(OriginReference):
        def state(self, t):
            return turning(super().state(t), t, state)

        def accel(self, t):
            return turning(super().accel(t), t, accel)

    return NanFrom()


def no_sample(real, row):
    """Stands in for the row packer where no sample may be computed."""
    raise AssertionError("a sample was computed")


def pack_rows(monkeypatch, pack):
    """Route every row that :func:`run` packs, one per sample, through
    ``pack(real, row)``, where ``real`` is the packer it replaces and ``row``
    the row's 9 values, the state and the physical input."""
    import flatsat.simulation as simulation

    real = simulation._ROW
    monkeypatch.setattr(simulation, "_ROW", SimpleNamespace(
        size=real.size, pack=lambda *row: pack(real.pack, row)))


def exit_factor(u, p, piece):
    """The factor of the ray ``lam * u`` at its exit from the ball or the
    cone, from the surface equations in closed form: the positive root of
    |lam u + g e3|^2 = t_max^2, or |lam u_h| = (lam u3 + g) tan(eps)."""
    u1, u2, u3 = u
    h2 = u1 * u1 + u2 * u2
    if piece == "ball":
        a, beta = h2 + u3 * u3, p.g * u3
        return (math.sqrt(beta * beta + a * p.k) - beta) / a
    return p.g * p.tan_eps / (math.sqrt(h2) - u3 * p.tan_eps)


# rays that leave the command set through the ball, through the cone's
# side, and through the cone's apex, (0, 0, -g)
EXIT_RAYS = [("ball", (0.4, -0.4, 1.0)), ("cone", (-0.7, 1.0, -0.3)),
             ("cone", (0.0, 0.0, -1.0))]


def near_boundary_starts(cert, params):
    """Starts whose first raw command lies a few ulps inside or outside the
    exit point of each ray of ``EXIT_RAYS``, where the membership test
    changes its verdict: velocity error d = 0 and position error
    e = -v / (gamma p2), whose raw law gives back v up to rounding, for
    targets v at 1 + j 2^-53 of the exit point, |j| <= 16. Both verdicts
    occur on each ray."""
    starts = []
    for piece, u in EXIT_RAYS:
        other = "cone" if piece == "ball" else "ball"
        lam = exit_factor(u, params, piece)
        assert lam < exit_factor(u, params, other), piece
        sides = set()
        for j in range(-16, 17):
            scale = lam * (1.0 + j * 2.0**-53)
            xi0 = [-scale * x / (cert.gamma * cert.gain.p2) for x in u] + [0.0] * 3
            sides.add(control_law(xi0, np.zeros(6), cert, params).saturated)
            starts.append(xi0)
        assert sides == {False, True}, u
    return starts


def outward_starts(cert, params):
    """Starts whose first raw command lies inside the command set, at 0.99
    of the exit point of each ray of ``EXIT_RAYS``, with a position error
    of 100 times the ray and a velocity error that nearly cancels it: one
    step later the raw command has moved out along the ray, so the exit
    kernel runs on the last sample of a one-step run and not on the
    first."""
    p2, p3 = cert.gain.p2, cert.gain.p3
    starts = []
    for piece, u in EXIT_RAYS:
        e = 100.0 * np.array(u)
        v = 0.99 * exit_factor(u, params, piece) * np.array(u)
        starts.append(np.concatenate([e, (-v / cert.gamma - p2 * e) / p3]))
    return starts


def oracle_scenarios(params, cert075, cert125):
    """The canonical run at gamma 1/5/15, and its first 0.1 s at gamma 15,
    which saturates on every sample; 10 boundary starts x gamma 1/5/15 in
    invariance mode; one step from each near-boundary start of the command
    set, whose exit kernel runs on the first sample or on none, and from
    each outward start, whose kernel runs on the last, at gamma 1/5/15;
    and the 60 s circle with and without feedforward under a time-varying
    yaw."""
    out = []
    for gamma in (1.0, 5.0, 15.0):
        cert = replace(cert075, gamma=gamma)
        out.append(origin_scenario(cert, params, CANONICAL_X0))
        for xi0 in boundary_states(cert.gain, cert.eps, 10):
            out.append(origin_scenario(cert, params, xi0, invariance_mode=True))
        for xi0 in near_boundary_starts(cert, params) + outward_starts(cert, params):
            out.append(origin_scenario(cert, params, xi0, duration=0.02))
    out.append(origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0,
                               duration=0.1))
    for ff in (False, True):
        out.append(
            Scenario(
                reference=CircularReference(),
                initial_state=[0.1, -0.1, 0.0, 0.0, 0.0, 0.0],
                duration=60.0,
                dt=0.02,
                cert=replace(cert125, gamma=4.5),
                params=params,
                psi=lambda t: 0.7 * math.sin(t),
                feedforward=ff,
            )
        )
    return out


def assert_same_trace(got, want, tag):
    """Every column bitwise equal, and the same active constraints and
    violation messages."""
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    for name in ("t", "xi", "err", "a_ref", "v_raw", "v", "u", "lyapunov", "lam"):
        np.testing.assert_array_equal(
            bits(getattr(got, name)), bits(getattr(want, name)), err_msg=f"{tag} {name}"
        )
    for name in ("saturated", "in_u"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.active == want.active, tag
    assert got.violations == want.violations, tag


def passthrough_saturation(monkeypatch):
    """Replace both saturation kernels, the float one that :func:`run`
    calls and the public one that ``numpy_run`` calls, with the identity
    on the raw command."""
    import flatsat.simulation as simulation

    monkeypatch.setattr(
        simulation, "_saturate_floats",
        lambda r1, r2, r3, p: (r1, r2, r3, 1.0, False, ActiveConstraint.NONE),
    )
    monkeypatch.setitem(
        globals(), "saturate",
        lambda v, p: SaturationResult(np.array(v, dtype=float), 1.0, False,
                                      ActiveConstraint.NONE),
    )


class TestFloatLoopOracle:
    def test_matches_numpy_loop(self, params, cert075, cert125):
        scenarios = oracle_scenarios(params, cert075, cert125)
        n_saturated = 0
        # runs by whether the exit kernel ran on their (first, last) sample
        ends = set()
        for i, sc in enumerate(scenarios):
            got, want = run(sc), numpy_run(sc)
            assert_same_trace(got, want, i)
            # the block-scalar sum runs in another order than e' P e
            err = want.err
            dense = np.einsum("ij,jk,ik->i", err, dense_P(sc.cert.gain), err)
            scale = np.maximum(1.0, np.abs(dense))
            assert np.all(np.abs(got.lyapunov - dense) <= 1e-15 * scale), i
            n_saturated += int(got.saturated.sum())
            ends.add((bool(got.saturated[0]), bool(got.saturated[-1])))
        assert n_saturated > 0
        assert ends == {(False, False), (True, False), (False, True), (True, True)}

    def test_violations_match_numpy_loop(self, params, cert075, cert125, monkeypatch):
        # a circle started on the reference with a tiny ellipsoid leaves it
        ref = CircularReference()
        sc = Scenario(
            reference=ref,
            initial_state=ref.state(0.0),
            duration=60.0,
            dt=0.02,
            cert=replace(cert125, eps=1e-4, gamma=2.0),
            params=params,
            psi=lambda t: 0.7 * math.sin(t),
            invariance_mode=True,
        )
        got = run(sc)
        assert_same_trace(got, numpy_run(sc), "ellipsoid")
        assert got.violations and all("ellipsoid" in m for m in got.violations)

        # unsaturated raw commands leave the command set and the input box
        passthrough_saturation(monkeypatch)
        sc = origin_scenario(replace(cert075, gamma=5.0), params, CANONICAL_X0)
        got = run(sc)
        assert_same_trace(got, numpy_run(sc), "passthrough")
        assert any("convex set" in m for m in got.violations)
        assert any("left the box" in m for m in got.violations)

    def test_active_matches_residual_oracle(self, params, cert075, cert125):
        # the canonical, boundary-start and near-boundary runs; a command
        # saturated near the cone apex has a ball residual of about 1, so
        # the oracle still tells the pieces apart there
        n_saturated = 0
        for sc in oracle_scenarios(params, cert075, cert125):
            if isinstance(sc.reference, OriginReference):
                trace = run(sc)
                for w, act, sat in zip(trace.v, trace.active, trace.saturated):
                    if sat:
                        assert act == residual_active(w, params).value
                        n_saturated += 1
        assert n_saturated > 0


class TestTraceExport:
    def test_csv_shape_and_header(self, tmp_path, params, cert075):
        from flatsat.simulation import CSV_COLUMNS, RunMetrics

        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0)
        trace = run(sc)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert sc.steps == 50
        assert len(lines) == 1 + 51  # header + n+1 samples at dt=0.02
        assert all(len(l.split(",")) == len(CSV_COLUMNS) for l in lines[1:])

    def test_csv_bytes_match_per_cell_writer(self, tmp_path, params, cert075):
        saturated = run(origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0))
        unsaturated = run(origin_scenario(cert075, params, CANONICAL_X0))
        # the first 25, 0 and 1 rows of a run
        short = run(origin_scenario(cert075, params, CANONICAL_X0, duration=1.0))
        # the writer formats BLOCK_ROWS rows at a time: row counts on either
        # side of one block
        blocks = [
            run(origin_scenario(cert075, params, CANONICAL_X0, duration=(rows - 1) * 0.02))
            for rows in (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1)
        ]
        special = [
            0.0, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0, -5e-324, 5e-324,
            2.0**-25, 1e16, 1e17, math.nextafter(1e-5, 0.0), 1e-100, -1e250,
        ]
        m = len(special)
        col = np.array(special)
        block = np.tile(col[:, None], (1, 6))
        # the row tails: every (saturated, active, in_u) that a trace can hold
        tails = [
            (sat, act.value, in_u)
            for sat in (False, True) for act in ActiveConstraint for in_u in (False, True)
        ]
        assert len(tails) == 12 <= m
        sat, act, in_u = zip(*(tails[k % len(tails)] for k in range(m)))
        hand = Trace(
            t=col, xi=block, err=-block, a_ref=block[:, 1::2], v_raw=block[:, :3],
            v=-block[:, 3:], u=block[:, ::2],
            lyapunov=-col, lam=col, saturated=np.array(sat), active=list(act),
            in_u=np.array(in_u),
        )
        traces = [saturated, unsaturated, head(short, 25), head(short, 0), head(short, 1),
                  *blocks, hand]
        assert saturated.saturated.any() and not unsaturated.saturated.any()
        assert [len(trace) for trace in traces[2:-1]] == [
            25, 0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1
        ]
        for i, trace in enumerate(traces):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            trace.to_csv(got)
            format_value_csv(trace, want)
            assert got.read_bytes() == want.read_bytes(), i
        # a row whose active is not none|ball|cone has no tail: rejected,
        # naming the row and the value, before the file is opened
        hand.active[5] = "halfspace"
        path = tmp_path / "halfspace.csv"
        with pytest.raises(ValueError, match=re.escape(
            f"row 5: no CSV tail for (saturated, active, in_u) = "
            f"({hand.saturated[5]}, 'halfspace', {hand.in_u[5]}); active must be none|ball|cone"
        )):
            hand.to_csv(path)
        assert not path.exists()

    def test_boundary_starts_deterministic_and_on_level_set(self, cert075):
        a = boundary_states(cert075.gain, cert075.eps, 20)
        b = boundary_states(cert075.gain, cert075.eps, 20)
        assert np.array_equal(a, b)
        P = dense_P(cert075.gain)
        levels = np.einsum("ij,jk,ik->i", a, P, a)
        assert np.allclose(levels, cert075.eps, rtol=1e-9)
        # reasonably spread: no two starts nearly coincide
        d = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-2


def metrics_full_reference(trace, scenario):
    """Reference for :func:`metrics`: the reference evaluated at every
    sample, then the steady window taken from the position errors, and the
    decay residual as the dense 2 xi' P (d, a) + alpha xi' P xi of every
    row, with a = v - reference.accel(t). Returns the metrics and a bound
    on the decay residual's rounding: 64 units of 2^-53 times the largest
    row sum of the absolute values of the residual's products."""
    p = scenario.params
    tgrid = trace.t
    refs = np.stack([scenario.reference.state(t) for t in tgrid])
    pos_err = np.linalg.norm(trace.xi[:, :3] - refs[:, :3], axis=1)
    steady = tgrid >= 0.75 * tgrid[-1]
    rms = float(np.sqrt(np.mean(pos_err[steady] ** 2)))

    gain = scenario.cert.gain
    P = dense_P(gain)
    err = trace.xi - refs
    accel_ref = np.stack([scenario.reference.accel(t) for t in tgrid])
    flow = np.concatenate([err[:, 3:], trace.v - accel_ref], axis=1)
    row = lambda a, m, b: np.einsum("ij,jk,ik->i", a, m, b)
    decay = float(np.max(2.0 * row(err, P, flow) + gain.alpha * row(err, P, err)))
    abs_err, abs_P = np.abs(err), np.abs(P)
    scale = 2.0 * row(abs_err, abs_P, np.abs(flow)) + gain.alpha * row(abs_err, abs_P, abs_err)
    bound = 64 * 2.0**-53 * float(np.max(scale))

    v1, v2, v3 = trace.v[:, 0], trace.v[:, 1], trace.v[:, 2]
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    thrust, roll, pitch = trace.u[:, 0], trace.u[:, 1], trace.u[:, 2]

    want = RunMetrics(
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
    return want, bound


def exact_decay_rows(trace, scenario, rows):
    """The decay residual 2 (p1 e.d + p2 (e.a + d.d) + p3 d.a) + alpha V of
    the given rows in exact rationals, from the float errors ``e``, ``d``
    and ``a = v - reference.accel(t)`` that :func:`metrics` forms and the
    trace's ``lyapunov`` column; with the sum of the absolute values of the
    products, which bounds the rounding."""
    gain = scenario.cert.gain
    p1, p2, p3, alpha = map(Fraction, (gain.p1, gain.p2, gain.p3, gain.alpha))
    err = trace.err
    accel_err = trace.v - scenario.reference.accel(trace.t)
    out = []
    for i in rows:
        e, d = [Fraction(x) for x in err[i, :3]], [Fraction(x) for x in err[i, 3:]]
        a = [Fraction(x) for x in accel_err[i]]
        terms = [alpha * Fraction(trace.lyapunov[i])]
        for j in range(3):
            terms += [2 * p1 * e[j] * d[j], 2 * p2 * e[j] * a[j], 2 * p2 * d[j] * d[j],
                      2 * p3 * d[j] * a[j]]
        out.append((sum(terms), sum(abs(x) for x in terms)))
    return out


class TestMetrics:
    def test_perfect_hover(self, params, cert075):
        sc = Scenario(
            reference=OriginReference(),
            initial_state=np.zeros(6),
            duration=2.0,
            dt=0.02,
            cert=cert075,
            params=params,
        )
        m = metrics(run(sc), sc)
        assert m.rms_pos_error_steady == 0.0
        assert m.saturation_duty == 0.0
        assert m.n_violations == 0
        assert m.max_lyapunov == 0.0

    def test_unsaturated_decay_residual_stays_nonpositive(self, params, cert075):
        # the exact rate of V at each sample: the decay condition holds at
        # every step size
        for dt in (0.04, 0.02, 0.01):
            sc = Scenario(
                reference=OriginReference(),
                initial_state=CANONICAL_X0,
                duration=10.0,
                dt=dt,
                cert=cert075,
                params=params,
            )
            assert metrics(run(sc), sc).max_decay_residual <= 0.0

    def test_one_step_run_has_a_finite_decay_residual(self, params, cert075):
        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=0.02)
        trace = run(sc)
        assert len(trace) == 2
        decay = metrics(trace, sc).max_decay_residual
        assert math.isfinite(decay) and decay < 0.0

    def test_decay_rows_match_exact_oracle(self, params, cert075, cert125):
        # the first row, the saturated rows and the last of a saturated
        # regulation run and of the circle with feedforward, whose error
        # acceleration is v - reference.accel(t)
        scenarios = [
            origin_scenario(replace(cert075, gamma=15.0), params, CANONICAL_X0, duration=2.0),
            oracle_scenarios(params, cert075, cert125)[-1],
        ]
        for sc in scenarios:
            trace = run(sc)
            rows = [0, *np.flatnonzero(trace.saturated)[:3].tolist(), len(trace) - 1]
            assert len(rows) == 5
            gain = sc.cert.gain
            err = trace.err[rows]
            accel_err = trace.v[rows] - sc.reference.accel(trace.t[rows])
            rate = _half_rate(err.T[:3], err.T[3:], accel_err.T, gain.p1, gain.p2, gain.p3)
            got = 2.0 * rate + gain.alpha * trace.lyapunov[rows]
            for value, (exact, scale) in zip(got, exact_decay_rows(trace, sc, rows)):
                assert abs(Fraction(float(value)) - exact) <= 16 * Fraction(2) ** -53 * scale

    def test_decay_residual_nonpositive_on_criterion_6_starts(self, params, cert075):
        starts = boundary_states(cert075.gain, cert075.eps, 20, 0)
        for gamma in (1.0, 5.0, 15.0):
            cert = replace(cert075, gamma=gamma)
            worst = max(
                metrics(run(sc), sc).max_decay_residual
                for sc in (
                    origin_scenario(cert, params, xi0, invariance_mode=True) for xi0 in starts
                )
            )
            assert worst <= 0.0, gamma

    def test_decay_residual_positive_where_saturation_cuts_the_gain(self, params, cert075):
        # starts at twice the certified level saturate with gamma lam < 1,
        # where the decay condition fails; only those samples fail it
        gain = cert075.gain
        starts = boundary_states(gain, 2.0 * cert075.eps, 20, 0)
        for gamma in (1.0, 5.0, 15.0):
            cert = replace(cert075, gamma=gamma)
            worst = -math.inf
            for xi0 in starts:
                sc = origin_scenario(cert, params, xi0)
                trace = run(sc)
                worst = max(worst, metrics(trace, sc).max_decay_residual)
                err = trace.err
                rate = _half_rate(err.T[:3], err.T[3:], trace.v.T, gain.p1, gain.p2, gain.p3)
                failing = 2.0 * rate + gain.alpha * trace.lyapunov > 0.0
                assert np.all(trace.saturated[failing] & (gamma * trace.lam[failing] < 1.0))
            assert worst > 0.0, gamma

    def test_matches_full_reference(self, params, cert075, cert125):
        # the canonical run, the setpoint run and the 60 s circle with and
        # without feedforward; every field bitwise but the decay residual,
        # which the dense oracle rounds differently
        scenarios = [
            origin_scenario(replace(cert075, gamma=5.0), params, CANONICAL_X0),
            Scenario(
                reference=SetpointReference(position=(0.3, 0.3, 0.8)),
                initial_state=np.zeros(6),
                duration=20.0,
                dt=0.02,
                cert=replace(cert125, gamma=5.0),
                params=params,
            ),
        ] + oracle_scenarios(params, cert075, cert125)[-2:]
        bits = lambda m: np.array(astuple(m), dtype=float).view(np.uint64)
        for i, sc in enumerate(scenarios):
            trace = run(sc)
            got = metrics(trace, sc)
            want, bound = metrics_full_reference(trace, sc)
            assert abs(got.max_decay_residual - want.max_decay_residual) <= bound, i
            same = replace(want, max_decay_residual=got.max_decay_residual)
            np.testing.assert_array_equal(bits(got), bits(same), err_msg=str(i))

    @pytest.mark.parametrize(
        "start, duration, name",
        [([1e154, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0, "rms_pos_error_steady"),
         ([0.0, 0.0, 0.0, 1.7e154, 0.0, 0.0], 0.02, "max_decay_residual")],
        ids=["position", "velocity"],
    )
    def test_overflowing_sums_name_their_field(self, params, cert075, start, duration, name):
        # finite inputs whose run completes but whose sums overflow (the
        # velocity start's V, too): no numpy warning, and a DomainError
        # naming the first field that is not finite
        sc = origin_scenario(cert075, params, start, duration=duration)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(sc)
            with pytest.raises(DomainError, match=f"^run metric {name} = inf is not finite"):
                metrics(trace, sc)

    def test_trace_without_rows_rejected(self, params, cert075):
        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0)
        with pytest.raises(ValueError, match="no rows to summarize"):
            metrics(head(run(sc), 0), sc)

    def test_circular_reference_modes(self):
        ref = CircularReference()
        s = ref.state(0.7)
        w = ref.omega
        assert s[0] == pytest.approx(0.2 + 0.5 * math.cos(w * 0.7))
        assert s[3] == pytest.approx(-0.5 * w * math.sin(w * 0.7))
        acc = ref.accel(0.7)
        assert acc[0] == pytest.approx(-0.5 * w * w * math.cos(w * 0.7))


def per_sample_state(ref, t):
    """Reference state at one float time, per sample on plain floats with
    ``math.cos``/``math.sin``: the oracle for the elementwise definitions."""
    if isinstance(ref, OriginReference):
        return [0.0] * 6
    if isinstance(ref, SetpointReference):
        return [*ref.position, 0.0, 0.0, 0.0]
    wt = ref.omega * t
    c, s = math.cos(wt), math.sin(wt)
    return [ref.center[0] + ref.radius * c, ref.center[1] + ref.radius * s, ref.altitude,
            -ref.radius * ref.omega * s, ref.radius * ref.omega * c, 0.0]


def per_sample_accel(ref, t):
    """Reference acceleration at one float time, the oracle beside
    :func:`per_sample_state`."""
    if not isinstance(ref, CircularReference):
        return [0.0] * 3
    wt = ref.omega * t
    w2r = ref.radius * ref.omega * ref.omega
    return [-w2r * math.cos(wt), -w2r * math.sin(wt), 0.0]


class CountingReference:
    """Forwards to ``inner`` and records each call's method and time shape."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def state(self, t):
        self.calls.append(("state", np.shape(t)))
        return self.inner.state(t)

    def accel(self, t):
        self.calls.append(("accel", np.shape(t)))
        return self.inner.accel(t)


class TestReferenceGrid:
    REFERENCES = [
        OriginReference(),
        SetpointReference(position=(0.3, -0.0, 0.8)),
        CircularReference(),
        CircularReference(radius=0.37, center=(-1.0, 2.5), altitude=-0.0, omega=1.1),
        CircularReference(radius=2.0, omega=-0.45),
    ]
    IDS = ["origin", "setpoint", "circle", "circle_moved", "circle_reversed"]

    @staticmethod
    def grids():
        rng = np.random.default_rng(12)
        return [np.arange(3001) * 0.02, np.arange(34) * 0.1,
                np.sort(rng.uniform(-50.0, 500.0, 400))]

    @pytest.mark.parametrize("ref", REFERENCES, ids=IDS)
    def test_grid_rows_equal_scalar_calls_and_per_sample_formula(self, ref):
        bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
        for tgrid in self.grids():
            states, accels = ref.state(tgrid), ref.accel(tgrid)
            assert states.shape == (len(tgrid), 6) and accels.shape == (len(tgrid), 3)
            for k, t in enumerate(tgrid.tolist()):
                want_s, want_a = bits(per_sample_state(ref, t)), bits(per_sample_accel(ref, t))
                np.testing.assert_array_equal(bits(states[k]), want_s, err_msg=str(t))
                np.testing.assert_array_equal(bits(ref.state(t)), want_s, err_msg=str(t))
                np.testing.assert_array_equal(bits(accels[k]), want_a, err_msg=str(t))
                np.testing.assert_array_equal(bits(ref.accel(t)), want_a, err_msg=str(t))

    @pytest.mark.parametrize("ref", REFERENCES, ids=IDS)
    def test_any_shape_of_times(self, ref):
        t = np.arange(12.0).reshape(3, 4) * 0.3
        assert ref.state(t).shape == (3, 4, 6) and ref.accel(t).shape == (3, 4, 3)
        assert np.array_equal(ref.state(t)[1, 2], ref.state(t[1, 2]))
        assert np.array_equal(ref.accel(t)[2, 1], ref.accel(t[2, 1]))

    @pytest.mark.parametrize("ref", REFERENCES, ids=IDS)
    def test_velocity_and_accel_are_time_derivatives(self, ref):
        # the run metrics take the error's rate as (d, v - accel), which
        # holds only if the velocity columns are the derivative of the
        # position columns and accel that of the velocity columns. The
        # times t and t +- h are binary fractions, so the central difference
        # (f(t+h) - f(t-h)) / 2h differs from f'(t) by at most the Taylor
        # remainder h^2/6 max|f'''| plus delta / h, where delta bounds the
        # rounding of one evaluation: a few ulps of its largest value,
        # amplified by the phase omega t rounding inside cos and sin
        h = 2.0 ** -12
        t = np.arange(641) * 2.0 ** -6
        r, w = (ref.radius, abs(ref.omega)) if isinstance(ref, CircularReference) else (0, 0)
        signals = (
            (lambda x: ref.state(x)[:, :3], ref.state(t)[:, 3:], r * w ** 3),
            (lambda x: ref.state(x)[:, 3:], ref.accel(t), r * w ** 4),
        )
        for f, want, max_third in signals:
            diff = (f(t + h) - f(t - h)) / (2.0 * h)
            delta = 8.0 * np.finfo(float).eps * np.abs(f(t)).max() * (1.0 + w * t[-1])
            bound = h * h / 6.0 * max_third + delta / h
            assert np.abs(diff - want).max() <= bound

    @pytest.mark.parametrize("feedforward", [False, True])
    def test_run_samples_each_signal_once(self, params, cert125, feedforward):
        counting = CountingReference(CircularReference())
        sc = Scenario(
            reference=counting,
            initial_state=[0.1, -0.1, 0.0, 0.0, 0.0, 0.0],
            duration=5.0,
            dt=0.02,
            cert=replace(cert125, gamma=4.5),
            params=params,
            psi=0.3,
            feedforward=feedforward,
        )
        got = run(sc)
        # both signals are sampled on every run, feedforward or not, and the
        # trace keeps what the samples give, bit for bit
        assert counting.calls == [("state", (251,)), ("accel", (251,))]
        bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
        np.testing.assert_array_equal(bits(got.a_ref), bits(counting.inner.accel(got.t)))
        np.testing.assert_array_equal(bits(got.err),
                                      bits(got.xi - counting.inner.state(got.t)))
        assert_same_trace(got, numpy_run(replace(sc, reference=counting.inner)), "numpy")
        # metrics reduces the trace: the run owns the reference's samples
        counting.calls.clear()
        metrics(got, sc)
        assert counting.calls == []

    def test_scalar_only_reference_rejected(self, params, cert075):
        class FixedVector(OriginReference):
            def state(self, t):
                return np.zeros(6)

        class FixedAccel(OriginReference):
            def accel(self, t):
                return np.zeros(3)

        class MathCos(OriginReference):
            def state(self, t):
                return np.array([math.cos(t), 0.0, 0.0, 0.0, 0.0, 0.0])

        sc = origin_scenario(cert075, params, CANONICAL_X0, duration=1.0)
        with pytest.raises(ValueError, match=r"^reference\.state must map an array of 51 "
                           r"times to shape \(51, 6\), got \(6,\)$"):
            run(replace(sc, reference=FixedVector()))
        with pytest.raises(ValueError, match=r"^reference\.state must accept an array of times"):
            run(replace(sc, reference=MathCos()))
        # accel is read on every run, with or without feedforward
        for feedforward in (False, True):
            with pytest.raises(ValueError, match=r"^reference\.accel must map an array of 51 "
                               r"times to shape \(51, 3\), got \(3,\)$"):
                run(replace(sc, reference=FixedAccel(), feedforward=feedforward))
