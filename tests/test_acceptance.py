"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[PASS]/[FAIL]` line (visible with `pytest -s` or in the
`-rA` summary) and asserts the criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from flatsat import (
    GainMatrix,
    OriginReference,
    Scenario,
    SetpointReference,
    CircularReference,
    accel,
    boundary_states,
    control_law,
    eps_max,
    in_Vc,
    lyapunov_residual,
    max_inscribed_ball,
    metrics,
    run,
    synthesize_certificate,
    saturate,
    saturate_oracle,
    solve_stabilizing_P,
    to_physical,
)
from flatsat.cli import EXIT_OK, EXIT_VIOLATIONS, main

from conftest import CANONICAL_X0
from test_saturation import fuzz_commands
from test_synthesis import multiplier_matrix

G = 9.81
RHO_REF = 2.9019
EPS_REF = 3.8692
GAIN_A075 = (0.2109, 0.2813, 0.75)
GAIN_A125 = (0.9766, 0.7813, 1.25)


def check(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_inscribed_ball(params):
    tic = time.perf_counter()
    for _ in range(100):
        rho = max_inscribed_ball(params)
    per_call = (time.perf_counter() - tic) / 100
    ok = abs(rho - RHO_REF) <= 1e-3 and per_call < 1e-3
    check(1, "inscribed ball", ok, f"rho={rho:.6f}, {per_call * 1e6:.1f} us/call")


def test_criterion_2_invariant_level():
    gain = GainMatrix(*GAIN_A075, alpha=0.75)
    eps = eps_max(gain, RHO_REF)
    tau = 1.0 / gain.p3
    smin = float(np.linalg.eigvalsh(multiplier_matrix(gain, RHO_REF, eps, tau)).min())
    ok = abs(eps - EPS_REF) <= 1e-3 and tau == pytest.approx(1 / 0.75) and smin >= -1e-9
    check(2, "invariant level", ok, f"eps={eps:.6f}, min eig={smin:.2e}")


def test_criterion_3_stabilizing_gain():
    parts = []
    ok = True
    for alpha, want in ((0.75, GAIN_A075), (1.25, GAIN_A125)):
        g = solve_stabilizing_P(alpha)
        got = (g.p1, g.p2, g.p3)
        ok &= all(abs(a - b) <= 1e-2 for a, b in zip(got, want))
        parts.append(f"alpha={alpha}: p=({got[0]:.4f},{got[1]:.4f},{got[2]:.4f})")
    for alpha, scalars in ((0.75, GAIN_A075), (1.25, GAIN_A125)):
        res = lyapunov_residual(GainMatrix(*scalars, alpha=alpha))
        ok &= res <= 1e-2
        parts.append(f"verify-only residual {res:.2e}")
    check(3, "stabilizing gain", ok, "; ".join(parts))


def test_criterion_4_saturation_oracle_equivalence(params):
    rng = np.random.default_rng(1234)
    commands = fuzz_commands(rng, 10_000)
    tic = time.perf_counter()
    worst = 0.0
    tight_ok = True
    for v in commands:
        res = saturate(v, params)
        lam_b = saturate_oracle(v, params)
        worst = max(worst, abs(res.lam - lam_b))
        if not in_Vc(res.v_out, params):
            tight_ok = False
        w1, w2, w3 = res.v_out
        c = w3 + params.g
        h2 = w1 * w1 + w2 * w2
        rel = min(
            abs(h2 + c * c - params.t2_max) / params.t2_max,
            abs(h2 - c * c * params.tan2_eps) / params.t2_max,
            abs(c) / params.g,
        )
        if rel > 1e-6:
            tight_ok = False
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and tight_ok and elapsed < 1.0
    check(
        4,
        "saturation oracle equivalence",
        ok,
        f"worst |diff|={worst:.2e}, tight={tight_ok}, {elapsed:.2f}s for 1e4",
    )


def test_criterion_5_flat_equivalence(params, cert075):
    rng = np.random.default_rng(99)
    worst_rt = 0.0
    for _ in range(100_000):
        v = (
            rng.uniform(-60.0, 60.0),
            rng.uniform(-60.0, 60.0),
            rng.uniform(-G + 1e-6, 60.0),
        )
        psi = rng.uniform(-math.pi, math.pi)
        back = accel(to_physical(v, psi, G), psi, G)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - np.array(v)))))

    cert = replace(cert075, gamma=5.0)
    sc = Scenario(
        reference=OriginReference(),
        initial_state=CANONICAL_X0,
        duration=10.0,
        dt=0.02,
        cert=cert,
        params=params,
    )
    trace = run(sc)
    xi = np.array(CANONICAL_X0, dtype=float)
    worst_lin = 0.0
    dt = 0.02
    for k in range(len(trace.t) - 1):
        worst_lin = max(worst_lin, float(np.max(np.abs(xi - trace.xi[k]))))
        v = trace.v[k]
        xi = np.concatenate(
            [xi[:3] + dt * xi[3:] + 0.5 * dt * dt * v, xi[3:] + dt * v]
        )
    ok = worst_rt <= 1e-10 and worst_lin <= 1e-8
    check(
        5,
        "flat equivalence",
        ok,
        f"round-trip max err={worst_rt:.2e}, linear-loop max err={worst_lin:.2e}",
    )


def test_criterion_6_invariance_suite(params, cert075):
    tic = time.perf_counter()
    starts = boundary_states(cert075.gain, cert075.eps, 20)
    worst_level = 0.0
    violations = 0
    gamma1_saturations = 0
    for gamma in (1.0, 5.0, 15.0):
        cert = replace(cert075, gamma=gamma)
        for xi0 in starts:
            sc = Scenario(
                reference=OriginReference(),
                initial_state=xi0,
                duration=20.0,
                dt=0.02,
                cert=cert,
                params=params,
                invariance_mode=True,
            )
            trace = run(sc)
            violations += len(trace.violations)
            worst_level = max(worst_level, float(trace.lyapunov.max()) / cert.eps)
            if gamma == 1.0:
                gamma1_saturations += int(trace.saturated.sum())
    elapsed = time.perf_counter() - tic
    ok = (
        worst_level <= 1.0 + 1e-6
        and violations == 0
        and gamma1_saturations == 0
        and elapsed < 10.0
    )
    check(
        6,
        "invariance suite",
        ok,
        f"max V/eps={worst_level:.9f}, violations={violations}, "
        f"gamma1 saturations={gamma1_saturations}, {elapsed:.1f}s",
    )


def test_criterion_7_lyapunov_decay(params, cert075):
    sc = Scenario(
        reference=OriginReference(),
        initial_state=CANONICAL_X0,
        duration=20.0,
        dt=0.02,
        cert=cert075,
        params=params,
    )
    trace = run(sc)
    envelope = trace.lyapunov[0] * np.exp(-0.75 * trace.t) * (1.0 + 1e-3)
    ratio = float(np.max(trace.lyapunov / envelope))
    ok = bool(np.all(trace.lyapunov <= envelope))
    check(7, "exponential decay envelope", ok, f"max V/envelope={ratio:.6f}")


def test_criterion_8_tracking_scenarios(params, cert125):
    # setpoint regulation
    cert = replace(cert125, gamma=5.0)
    sc = Scenario(
        reference=SetpointReference(position=(0.3, 0.3, 0.8)),
        initial_state=np.zeros(6),
        duration=20.0,
        dt=0.02,
        cert=cert,
        params=params,
    )
    trace = run(sc)
    tail = trace.t >= trace.t[-1] - 2.0
    setpoint_err = float(
        np.max(
            np.linalg.norm(trace.xi[tail][:, :3] - np.array([0.3, 0.3, 0.8]), axis=1)
        )
    )
    setpoint_ok = setpoint_err < 0.01 and not trace.violations

    # circular tracking, 60 s
    cert_c = replace(cert125, gamma=4.5)
    sc_c = Scenario(
        reference=CircularReference(),
        initial_state=np.zeros(6),
        duration=60.0,
        dt=0.02,
        cert=cert_c,
        params=params,
    )
    trace_c = run(sc_c)
    m = metrics(trace_c, sc_c)
    # the controller's latency: control_law on each of the run's recorded
    # states, timed from outside, as the mean over the calls
    states = list(zip(trace_c.xi, trace_c.xi_ref))
    assert len(states) == 3001
    tic = time.perf_counter()
    for xi, xi_ref in states:
        control_law(xi, xi_ref, cert_c, params)
    ctrl_mean = (time.perf_counter() - tic) / len(states)
    circular_ok = (
        not trace_c.violations
        and m.rms_pos_error_steady < 0.15
        and ctrl_mean < 1e-5
    )
    ok = setpoint_ok and circular_ok
    check(
        8,
        "tracking scenarios",
        ok,
        f"setpoint err={setpoint_err * 100:.3f} cm, circular steady RMS="
        f"{m.rms_pos_error_steady * 100:.2f} cm, ctrl mean="
        f"{ctrl_mean * 1e6:.2f} us",
    )


def test_criterion_9_negative_controls(tmp_path, params):
    # tampered certificate must fail verification through the CLI
    assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
    cert_path = tmp_path / "certificate.txt"
    cert = synthesize_certificate(params, 0.75, 1.0)
    text = cert_path.read_text().replace(
        f"eps = {cert.eps:.17g}", f"eps = {cert.eps * 1.5:.17g}"
    )
    cert_path.write_text(text)
    rc = main(["verify", str(cert_path), "--samples", "5000"])
    tampered_ok = rc == EXIT_VIOLATIONS

    # the misprinted cone clause (squared v3 inside the shift) produces a
    # different inscribed ball, so it cannot reproduce the reference value
    def in_typo_set(v):
        v1, v2, v3 = v
        c2 = (v3 * v3 + params.g) ** 2
        if v1 * v1 + v2 * v2 + (v3 + params.g) ** 2 > params.t2_max:
            return False
        if v1 * v1 + v2 * v2 > c2 * params.tan2_eps:
            return False
        return v3 >= -params.g

    def first_exit(direction):
        lo, hi = 0.0, params.t_max
        if in_typo_set(hi * direction):
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if in_typo_set(mid * direction):
                lo = mid
            else:
                hi = mid
        return lo

    rho_typo = min(
        first_exit(np.array([math.cos(a), 0.0, math.sin(a)])) ** 2
        for a in np.linspace(-math.pi / 2, math.pi / 2, 721)
    )
    typo_ok = abs(rho_typo - RHO_REF) > 1e-3
    ok = tampered_ok and typo_ok
    check(
        9,
        "negative controls",
        ok,
        f"tampered verify exit=3: {tampered_ok}, typo-set rho={rho_typo:.4f}",
    )
