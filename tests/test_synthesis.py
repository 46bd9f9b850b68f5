import argparse
import math
import re
import shlex
import shutil
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from flatsat import (
    ConstraintParams,
    EllipsoidCert,
    GainMatrix,
    SynthesisError,
    boundary_states,
    eps_max,
    load_certificate,
    lyapunov_residual,
    max_inscribed_ball,
    synthesize_certificate,
    save_certificate,
    solve_stabilizing_P,
    saturate,
    verify_cert,
)
from flatsat import CSV_COLUMNS, cli, synthesis
from flatsat.saturation import _saturate_floats
from flatsat.kvformat import parse_kv
from flatsat.synthesis import CERT_KEYS, DELTA_CERT

from conftest import A_MATRIX, B_MATRIX, SCRIPTS, dense_P, dense_P_inv_sqrt, run_script

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

# frozen reference scalars for the canonical desk-scale setting
GAIN_A075 = (0.2109, 0.2813, 0.75)
GAIN_A125 = (0.9766, 0.7813, 1.25)
RHO_REF = 2.9019
EPS_REF = 3.8692


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def random_gain(rng):
    p3 = rng.uniform(0.2, 2.0)
    p2 = rng.uniform(-1.0, 1.0)
    p1 = p2 * p2 / p3 + rng.uniform(0.05, 2.0)
    return GainMatrix(p1=p1, p2=p2, p3=p3, alpha=rng.uniform(0.1, 2.0))


def bisection_gain(alpha, margin):
    """Reference for the closed form of :func:`solve_stabilizing_P`: the
    largest admissible q3 found by doubling and bisection, then the same
    inversion of the axis block. Returns (p1, p2, p3)."""

    def axis_candidate(q3):
        if q3 <= 0.0 or 2.0 - alpha * q3 - margin < 0.0:
            return None
        q2 = -q3 / alpha
        q1 = (2.0 * q3 / alpha - margin) / alpha
        if q1 <= 0.0 or q1 * q3 - q2 * q2 <= 0.0:
            return None
        return q1, q2

    lo = (2.0 - margin) / (2.0 * alpha)
    assert axis_candidate(lo) is not None
    hi = lo
    while axis_candidate(hi) is not None:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if axis_candidate(mid) is not None:
            lo = mid
        else:
            hi = mid
    q1, q2 = axis_candidate(lo)
    det = q1 * lo - q2 * q2
    return lo / det, -q2 / det, q1 / det


def dense_lyapunov_residual(gain):
    """Reference for :func:`lyapunov_residual`: the largest float
    eigenvalue of the assembled 6x6 decay matrix."""
    P = dense_P(gain)
    acl = A_MATRIX - B_MATRIX @ B_MATRIX.T @ P
    return float(np.linalg.eigvalsh(acl.T @ P + P @ acl + gain.alpha * P).max())


def dense_inverse_side(q1, q2, q3, alpha):
    """Largest float eigenvalue of the assembled 6x6 inverse-side matrix
    Q A' + A Q - 2 B B' + alpha Q."""
    Q = np.kron(np.array([[q1, q2], [q2, q3]]), np.eye(3))
    m = Q @ A_MATRIX.T + A_MATRIX @ Q - 2.0 * B_MATRIX @ B_MATRIX.T + alpha * Q
    return float(np.linalg.eigvalsh(m).max())


def multiplier_matrix(gain, rho, eps, tau):
    """Assembled 7x7 S-procedure matrix whose positive semidefiniteness
    certifies: ||xi||_P^2 <= eps implies ||B' P xi||^2 <= rho."""
    P = dense_P(gain)
    pb = P @ B_MATRIX
    out = np.zeros((7, 7))
    out[:6, :6] = P - tau * pb @ pb.T
    out[6, 6] = tau * rho - eps
    return out


def decay_block(gain):
    """Exact axis block of the decay matrix."""
    p1, p2, p3, a = map(Fraction, (gain.p1, gain.p2, gain.p3, gain.alpha))
    return (
        a * p1 - 2 * p2 * p2,
        p1 - 2 * p2 * p3 + a * p2,
        2 * p2 - 2 * p3 * p3 + a * p3,
    )


def exact_lambda_max_le(block, t):
    """Exact verdict of lambda_max([[m11, m12], [m12, m22]]) <= t."""
    m11, m12, m22 = block
    t = Fraction(t)
    return t - m11 >= 0 and t - m22 >= 0 and (t - m11) * (t - m22) >= m12 * m12


def mp_lambda_max(block):
    """Largest eigenvalue of an exact 2x2 block, rounded once to float from
    enough binary digits that the rational entries convert exactly."""
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length() for x in block)
    with mpmath.workprec(4 * bits + 200):
        a, b, d = (mpmath.mpf(x.numerator) / x.denominator for x in block)
        return float((a + d + mpmath.sqrt((a - d) ** 2 + 4 * b * b)) / 2)


def closed_form_blocks(alpha, margin):
    """The inverse axis block (q1, q2, q3) and the gain of
    :func:`solve_stabilizing_P`, or None where the margin is infeasible,
    the floats overflow or the block is singular."""
    if not margin * (1.0 + alpha * alpha) < 2.0:
        return None
    q3 = (2.0 - margin) / alpha
    q2 = -q3 / alpha
    q1 = (2.0 * q3 / alpha - margin) / alpha
    det = q1 * q3 - q2 * q2
    if not all(map(math.isfinite, (q1, q2, q3, det))) or det == 0.0:
        return None
    return (q1, q2, q3), GainMatrix(p1=q3 / det, p2=-q2 / det, p3=q1 / det, alpha=alpha)


FULL_GRID = [(float(a), m) for a in np.geomspace(1e-300, 1e300, 601) for m in (0.0, 1e-9)]
WORKING_GRID = [
    (float(a), m) for a in np.geomspace(1e-3, 1e2, 501) for m in (0.0, 1e-9, 1e-3, 0.1)
]


class TestGainMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GainMatrix(p1=1.0, p2=2.0, p3=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            GainMatrix(p1=-1.0, p2=0.0, p3=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            GainMatrix(p1=1.0, p2=0.0, p3=1.0, alpha=0.0)

    @pytest.mark.parametrize(
        "rho, eps, gamma",
        [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
         (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
         (math.nan, math.nan, math.inf)],
    )
    def test_certificate_rejects_non_finite_levels_and_gamma(self, rho, eps, gamma):
        gain = GainMatrix(p1=2.0, p2=0.5, p3=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            EllipsoidCert(gain=gain, rho=rho, eps=eps, gamma=gamma)

    def test_block_assembly(self):
        # the sampler's 2x2 entries, assembled into the 6x6 block, are the
        # dense P^(-1/2) of the eigendecomposition, scaled by sqrt(eps)
        g = GainMatrix(p1=2.0, p2=0.5, p3=1.0, alpha=1.0)
        P = dense_P(g)
        assert P.shape == (6, 6)
        assert np.allclose(P[:3, :3], 2.0 * np.eye(3))
        assert np.allclose(P[:3, 3:], 0.5 * np.eye(3))
        assert np.allclose(P[3:, 3:], np.eye(3))
        for eps in (1.0, 4.0):
            a, b, c = synthesis._axis_map(g, eps)
            s = np.kron(np.array([[a, b], [b, c]]), np.eye(3)) / math.sqrt(eps)
            assert np.allclose(s, dense_P_inv_sqrt(g), rtol=0.0, atol=1e-12)
            assert np.allclose(s @ P @ s, np.eye(6), atol=1e-12)


class TestSolveStabilizing:
    def test_reproduces_reference_gain_a075(self):
        g = solve_stabilizing_P(0.75)
        for got, want in zip((g.p1, g.p2, g.p3), GAIN_A075):
            assert got == pytest.approx(want, abs=1e-2)

    def test_reproduces_reference_gain_a125(self):
        g = solve_stabilizing_P(1.25)
        for got, want in zip((g.p1, g.p2, g.p3), GAIN_A125):
            assert got == pytest.approx(want, abs=1e-2)

    def test_synthesized_gain_is_certified(self):
        for alpha in (0.25, 0.5, 0.75, 1.25, 3.0):
            g = solve_stabilizing_P(alpha)
            assert lyapunov_residual(g) <= 1e-6

    def test_verify_only_accepts_rounded_reference_gains(self):
        # scalars rounded to four digits sit on the feasibility boundary
        for scalars, alpha in ((GAIN_A075, 0.75), (GAIN_A125, 1.25)):
            g = GainMatrix(*scalars, alpha=alpha)
            assert lyapunov_residual(g) <= 1e-2

    def test_infeasible_margin(self):
        # feasible exactly when margin (1 + alpha^2) < 2
        for alpha, margin in ((0.75, 2.5), (1.0, 1.0), (1.0, -1e-9), (1.0, math.nan)):
            with pytest.raises(SynthesisError):
                solve_stabilizing_P(alpha, margin=margin)
        with pytest.raises(SynthesisError):
            solve_stabilizing_P(-1.0)

    @pytest.mark.parametrize("alpha", [1e-100, 1e-160, 1e-300])
    @pytest.mark.parametrize("margin", [0.0, 1e-9])
    def test_tiny_alpha_overflow_is_infeasible(self, alpha, margin):
        # q2 = -q3/alpha or q1 q3 overflows, so no finite gain exists
        with pytest.raises(SynthesisError, match="overflows"):
            solve_stabilizing_P(alpha, margin=margin)

    @pytest.mark.parametrize("alpha, margin", [(1.0, 0.9), (0.5, 1.5)])
    def test_large_feasible_margin(self, alpha, margin):
        g = solve_stabilizing_P(alpha, margin=margin)
        assert lyapunov_residual(g) <= 1e-6

    @pytest.mark.parametrize("alpha", [1e79, 1e80, 1e81])
    def test_huge_alpha_exact_residual_is_infeasible(self, alpha):
        # the gain entries reach about 1e233; the exact residual is positive
        with pytest.raises(SynthesisError, match="residual"):
            solve_stabilizing_P(alpha, margin=0.0)

    def test_huge_alpha_gain_is_certified(self):
        res = lyapunov_residual(solve_stabilizing_P(1e78, margin=0.0))
        assert math.isfinite(res) and res < 0.0

    def test_verdicts_equal_exact_oracle(self):
        # alpha over the whole float range: only SynthesisError is raised,
        # and a gain is returned exactly when both inequalities hold in
        # exact arithmetic on the stored floats
        n_accepted = 0
        for alpha, margin in FULL_GRID:
            blocks = closed_form_blocks(alpha, margin)
            want = blocks is not None
            if want:
                (q1, q2, q3), gain = blocks
                fq1, fq2, fq3, fa = map(Fraction, (q1, q2, q3, alpha))
                inverse = (2 * fq2 + fa * fq1, fq3 + fa * fq2, fa * fq3 - 2)
                want = exact_lambda_max_le(inverse, -margin + 1e-9)
                want = want and exact_lambda_max_le(decay_block(gain), DELTA_CERT)
            try:
                got = solve_stabilizing_P(alpha, margin=margin)
            except SynthesisError:
                got = None
            assert (got is not None) == want, (alpha, margin)
            if want:
                assert got == gain
                n_accepted += 1
        assert n_accepted > 0

    def test_working_range_matches_dense_checks(self):
        # the verdicts of the dense eigenvalue checks, and the residual
        # within 1e-14 of the largest summand of its block
        n_accepted = 0
        for alpha, margin in WORKING_GRID:
            blocks = closed_form_blocks(alpha, margin)
            try:
                got = solve_stabilizing_P(alpha, margin=margin)
            except SynthesisError:
                got = None
            if blocks is None:
                assert got is None
                continue
            (q1, q2, q3), gain = blocks
            dense = dense_lyapunov_residual(gain)
            want = (
                dense_inverse_side(q1, q2, q3, alpha) <= -margin + 1e-9
                and dense <= DELTA_CERT
            )
            assert (got is not None) == want, (alpha, margin)
            p1, p2, p3 = gain.p1, gain.p2, gain.p3
            summands = (alpha * p1, 2 * p2 * p2, p1, 2 * p2 * p3, alpha * p2, 2 * p2,
                        2 * p3 * p3, alpha * p3)
            scale = max(map(abs, summands))
            assert abs(lyapunov_residual(gain) - dense) <= 1e-14 * scale, (alpha, margin)
            n_accepted += want
        assert n_accepted > 0

    def test_residual_within_one_ulp_of_exact(self):
        rng = np.random.default_rng(47)
        gains = [random_gain(rng) for _ in range(200)]
        for alpha, margin in FULL_GRID + WORKING_GRID:
            blocks = closed_form_blocks(alpha, margin)
            if blocks is not None:
                gains.append(blocks[1])
        n_checked = 0
        for gain in gains:
            want = mp_lambda_max(decay_block(gain))
            if math.isfinite(want) and abs(want) >= sys.float_info.min:
                got = lyapunov_residual(gain)
                assert abs(got - want) <= math.ulp(want), gain
                n_checked += 1
        assert n_checked > 0.9 * len(gains)

    def test_closed_form_matches_bisection(self):
        for alpha in np.geomspace(0.05, 3.0, 50):
            for margin in (0.0, 1e-9, 1e-3, 0.1):
                g = solve_stabilizing_P(float(alpha), margin=margin)
                want = bisection_gain(float(alpha), margin)
                got = (g.p1, g.p2, g.p3)
                for x, y in zip(got, want):
                    assert x == pytest.approx(y, rel=1e-14, abs=0.0), (alpha, margin)
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
            g = solve_stabilizing_P(alpha)
            assert (g.p1, g.p2, g.p3) == bisection_gain(alpha, 1e-9), alpha


class TestEpsMax:
    def test_reference_value(self):
        gain = GainMatrix(*GAIN_A075, alpha=0.75)
        eps = eps_max(gain, RHO_REF)
        tau = 1.0 / gain.p3
        assert eps == pytest.approx(EPS_REF, abs=1e-3)
        assert tau == pytest.approx(1.0 / 0.75, rel=1e-12)

    def test_identity_block(self):
        gain = GainMatrix(p1=2.0, p2=0.0, p3=1.0, alpha=0.5)
        eps = eps_max(gain, 1.0)
        tau = 1.0 / gain.p3
        assert eps == 1.0 and tau == 1.0

    def test_multiplier_matrix_feasible_at_solution(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            gain = random_gain(rng)
            rho = rng.uniform(0.1, 10.0)
            eps = eps_max(gain, rho)
            tau = 1.0 / gain.p3
            smin = np.linalg.eigvalsh(multiplier_matrix(gain, rho, eps, tau)).min()
            assert smin >= -1e-9

    def test_inflated_level_infeasible_for_every_multiplier(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            gain = random_gain(rng)
            rho = rng.uniform(0.1, 10.0)
            eps = eps_max(gain, rho)
            bad_eps = eps * (1.0 + 1e-3)
            for tau in np.linspace(0.0, 2.0 / gain.p3, 200):
                smin = np.linalg.eigvalsh(multiplier_matrix(gain, rho, bad_eps, tau)).min()
                assert smin < -1e-9

    def test_level_is_tight(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            gain = random_gain(rng)
            rho = rng.uniform(0.1, 10.0)
            eps = eps_max(gain, rho)
            btpb_max = np.linalg.eigvalsh(B_MATRIX.T @ dense_P(gain) @ B_MATRIX).max()
            assert abs(eps * btpb_max - rho) <= 1e-9

    def test_implication_by_sampling(self, params):
        gain = solve_stabilizing_P(0.75)
        rho = max_inscribed_ball(params)
        eps = eps_max(gain, rho)
        rng = np.random.default_rng(43)
        dirs = rng.standard_normal((100_000, 6))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(size=(100_000, 1)) ** (1.0 / 6.0)
        P, s = dense_P(gain), dense_P_inv_sqrt(gain)
        pts = math.sqrt(eps) * (dirs * radii) @ s.T
        btp = B_MATRIX.T @ P
        norms = np.sum((pts @ btp.T) ** 2, axis=1)
        assert norms.max() <= rho + 1e-9
        # slightly larger level must contain a violating point: the extremal
        # direction of the feedback magnitude provides the witness
        w, vecs = np.linalg.eigh(np.linalg.multi_dot([s, P @ B_MATRIX @ B_MATRIX.T @ P, s]))
        xi_star = math.sqrt(eps * 1.01) * s @ vecs[:, -1]
        assert float(np.sum((btp @ xi_star) ** 2)) > rho + 1e-9


class TestProcedure:
    def test_reference_chain(self, params):
        cert = synthesize_certificate(params, alpha=0.75, gamma=1.0)
        assert cert.rho == pytest.approx(RHO_REF, abs=1e-3)
        assert cert.eps == pytest.approx(EPS_REF, abs=1e-3)

    def test_gamma_does_not_enter_synthesis(self, params):
        a = synthesize_certificate(params, alpha=0.75, gamma=1.0)
        b = synthesize_certificate(params, alpha=0.75, gamma=15.0)
        assert a.eps == b.eps and a.rho == b.rho
        assert (a.gain.p1, a.gain.p2, a.gain.p3) == (b.gain.p1, b.gain.p2, b.gain.p3)

    def test_gamma_below_one_rejected(self, params):
        with pytest.raises(SynthesisError):
            synthesize_certificate(params, alpha=0.75, gamma=0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, params, gamma):
        with pytest.raises(SynthesisError, match="gamma"):
            synthesize_certificate(params, alpha=0.75, gamma=gamma)

    def test_level_and_projection_area_shrink_with_alpha(self, params):
        alphas = (0.25, 0.5, 0.75, 1.0)
        eps_vals = []
        areas = []
        for a in alphas:
            cert = synthesize_certificate(params, alpha=a, gamma=1.0)
            g = cert.gain
            eps_vals.append(cert.eps)
            areas.append(cert.eps / math.sqrt(g.p1 * g.p3 - g.p2 * g.p2))
        assert all(x > y for x, y in zip(eps_vals, eps_vals[1:]))
        assert all(x > y for x, y in zip(areas, areas[1:]))


def verify_by_loop(cert, p, n_samples, seed):
    """Per-sample reference for :func:`verify_cert`: the scalar saturation
    kernel and dense 6x6 products at each of the :func:`boundary_states`
    points, with the verifier's tolerances."""
    inward_tol, decay_tol, gain_tol = 1e-9, 1e-6, 1e-9
    gain, gamma = cert.gain, cert.gamma
    P = dense_P(gain)
    points = boundary_states(gain, cert.eps, n_samples, seed)
    out = dict(n_samples=n_samples, seed=seed, n_saturated=0, inward_failures=0,
               decay_failures=0, gain_failures=0, worst_inward=-math.inf,
               worst_decay=-math.inf, worst_gain_margin=math.inf, worst_sample=-1)
    worst_violation = 0.0
    for i, xi in enumerate(points):
        res = saturate(-gamma * (gain.p2 * xi[:3] + gain.p3 * xi[3:]), p)
        flow = float(xi @ (P @ np.concatenate([xi[3:], res.v_out])))
        vdot_margin = 2.0 * flow + gain.alpha * float(xi @ P @ xi)
        violation = max(flow - inward_tol, vdot_margin - decay_tol)
        out["inward_failures"] += flow > inward_tol
        out["decay_failures"] += vdot_margin > decay_tol
        if res.saturated:
            out["n_saturated"] += 1
            gmargin = gamma * res.lam - 1.0
            out["gain_failures"] += gmargin < -gain_tol
            violation = max(violation, -gmargin - gain_tol)
            out["worst_gain_margin"] = min(out["worst_gain_margin"], gmargin)
        out["worst_inward"] = max(out["worst_inward"], flow)
        out["worst_decay"] = max(out["worst_decay"], vdot_margin)
        if violation > worst_violation:
            worst_violation = violation
            out["worst_sample"] = i
    out["passed"] = out["inward_failures"] == out["decay_failures"] == out["gain_failures"] == 0
    return out


class TestVerifyCert:
    @pytest.mark.parametrize("eps_scale", [1.0, 1.5])
    @pytest.mark.parametrize("gamma", [1.0, 5.0, 15.0])
    def test_matches_per_sample_loop(self, params, cert075, gamma, eps_scale):
        cert = replace(cert075, gamma=gamma, eps=cert075.eps * eps_scale)
        got = verify_cert(cert, params, n_samples=500, seed=31).to_kv()
        ref = verify_by_loop(cert, params, n_samples=500, seed=31)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float):
                assert math.isclose(got[key], value, rel_tol=0.0, abs_tol=1e-12), key
            else:
                assert got[key] == value, key
        if eps_scale > 1.0:
            assert not ref["passed"] and ref["worst_sample"] >= 0

    def test_nominal_certificate_passes_unsaturated(self, params, cert075):
        report = verify_cert(cert075, params, n_samples=10_000, seed=0)
        assert report.passed
        assert report.n_saturated == 0
        assert report.worst_inward <= 1e-9

    def test_large_gamma_saturates_but_passes(self, params, cert075):
        cert = replace(cert075, gamma=15.0)
        report = verify_cert(cert, params, n_samples=10_000, seed=0)
        assert report.passed
        assert report.n_saturated > 0
        assert report.worst_gain_margin >= -1e-9

    def test_inflated_level_fails(self, params, cert075):
        bad = replace(cert075, eps=cert075.eps * 1.5)
        report = verify_cert(bad, params, n_samples=10_000, seed=0)
        assert not report.passed
        assert report.gain_failures > 0
        assert report.worst_sample >= 0

    def test_deterministic_for_fixed_seed(self, params, cert075):
        a = verify_cert(cert075, params, n_samples=500, seed=123)
        b = verify_cert(cert075, params, n_samples=500, seed=123)
        assert a == b

    def test_rejects_bad_sample_count(self, params, cert075):
        with pytest.raises(ValueError):
            verify_cert(cert075, params, n_samples=0)

    @staticmethod
    def saturation_calls(cert, params, monkeypatch):
        """The (input, output, contiguous) triples of each saturation kernel
        call of one :func:`verify_cert` run, 300 samples at seed 7:
        ``contiguous`` tells whether all three input columns were."""
        calls = []
        original = synthesis._saturate_columns

        def recording(v1, v2, v3, p):
            out = original(v1, v2, v3, p)
            contiguous = all(c.flags.c_contiguous for c in (v1, v2, v3))
            calls.append((np.array([v1, v2, v3]), out, contiguous))
            return out

        monkeypatch.setattr(synthesis, "_saturate_columns", recording)
        verify_cert(cert, params, n_samples=300, seed=7)
        return calls

    @pytest.mark.parametrize("gamma", [1.0, 15.0])
    def test_checks_the_boundary_states(self, params, cert075, monkeypatch, gamma):
        cert = replace(cert075, gamma=gamma)
        calls = self.saturation_calls(cert, params, monkeypatch)
        points = boundary_states(cert.gain, cert.eps, 300, 7)
        g = cert.gain
        raw = -gamma * (g.p2 * points[:, :3] + g.p3 * points[:, 3:])
        assert len(calls) == 1 and np.array_equal(calls[0][0], raw.T)

    @pytest.mark.parametrize("gamma", [1.0, 5.0, 15.0])
    def test_saturation_columns_are_scalar_kernel_rows(self, params, cert075, monkeypatch,
                                                       gamma):
        # the verifier saturates contiguous columns, each row bit for bit
        # the float kernel of the closed loop
        cert = replace(cert075, gamma=gamma)
        ((raw, (w1, w2, w3, lam, saturated), contiguous),) = self.saturation_calls(
            cert, params, monkeypatch
        )
        assert contiguous
        rows = [_saturate_floats(*row, params) for row in raw.T.tolist()]
        assert np.array_equal(bits(np.column_stack([w1, w2, w3])), bits([r[:3] for r in rows]))
        assert np.array_equal(bits(lam), bits([r[3] for r in rows]))
        assert saturated.tolist() == [r[4] for r in rows]
        if gamma > 1.0:
            assert saturated.any()

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_worst_sample_is_the_largest_recomputed_violation(self, params, cert075, seed):
        bad = replace(cert075, eps=cert075.eps * 1.5)
        report = verify_cert(bad, params, n_samples=2000, seed=seed)
        g, P, gamma = bad.gain, dense_P(bad.gain), bad.gamma
        violations = []
        for xi in boundary_states(g, bad.eps, 2000, seed):
            res = saturate(-gamma * (g.p2 * xi[:3] + g.p3 * xi[3:]), params)
            flow = float(xi @ (P @ np.concatenate([xi[3:], res.v_out])))
            vdot_margin = 2.0 * flow + g.alpha * float(xi @ P @ xi)
            violation = max(flow - 1e-9, vdot_margin - 1e-6)
            if res.saturated:
                violation = max(violation, -(gamma * res.lam - 1.0) - 1e-9)
            violations.append(violation)
        assert max(violations) > 0.0
        assert report.worst_sample == int(np.argmax(violations))


def exact_level_error(gain, eps, rows):
    """Largest exact |V/eps - 1| over ``rows``, with V = xi' P xi of each
    row's floats summed in :class:`Fraction`."""
    p1, p2, p3, level = map(Fraction, (gain.p1, gain.p2, gain.p3, eps))
    worst = Fraction(0)
    for row in rows.tolist():
        e1, e2, e3, d1, d2, d3 = map(Fraction, row)
        v = sum(p1 * e * e + 2 * p2 * e * d + p3 * d * d
                for e, d in ((e1, d1), (e2, d2), (e3, d3)))
        worst = max(worst, abs(v / level - 1))
    return worst


def level_bound(gain):
    """Bound on the exact |V/eps - 1| of a :func:`boundary_states` row, with
    u = 2^-53. The normalized direction's squared norm is within 10 u of 1
    (six squares summed, a square root, a quotient). Each mapped value
    carries three roundings (its :func:`synthesis._axis_map` entry, a
    product, the sum), which move V by at most 6 sqrt(2) kappa u relative,
    kappa = sqrt(cond P_axis)."""
    lo, hi = np.linalg.eigvalsh(np.array([[gain.p1, gain.p2], [gain.p2, gain.p3]]))
    return (10.0 + 9.0 * math.sqrt(hi / lo)) * 2.0**-53


def mp_axis_map(gain, eps):
    """sqrt(eps) P_axis^(-1/2) from mpmath's symmetric eigendecomposition,
    independent of the closed form: the entries (a, b, c). Call it at 50
    digits."""
    w, q = mpmath.eigsy(mpmath.matrix([[gain.p1, gain.p2], [gain.p2, gain.p3]]))
    s = q * mpmath.diag([mpmath.sqrt(eps / x) for x in w]) * q.T
    return s[0, 0], s[0, 1], s[1, 1]


# valid gains far from the desk scale, each with a level: p ~ 1e+-150,
# and p1 p3 = 1e400, which overflows a float
EXTREME_GAINS = [
    ((1e150, 3e149, 2e150), 1.0),
    ((1e150, -3e149, 2e150), 1e-300),
    ((1e-150, 3e-151, 2e-150), 1.0),
    ((1e-150, -3e-151, 2e-150), 1e300),
    ((1e200, 0.0, 1e200), 1.0),
    ((1e200, 0.0, 1e200), 1e300),
]


def sampler_cases(params, n_random):
    """(gain, eps) pairs: the synthesized certificates at alpha 0.25, 0.75,
    1.25 and 3.0, then ``n_random`` seeded random gains and levels."""
    cases = []
    for alpha in (0.25, 0.75, 1.25, 3.0):
        cert = synthesize_certificate(params, alpha=alpha, gamma=1.0)
        cases.append((cert.gain, cert.eps))
    rng = np.random.default_rng(53)
    for _ in range(n_random):
        gain = random_gain(rng)
        cases.append((gain, eps_max(gain, rng.uniform(0.1, 10.0))))
    return cases


class TestBoundaryStates:
    def test_rows_on_the_level_set(self, params):
        for i, (gain, eps) in enumerate(sampler_cases(params, 20)):
            n = 2000 if i < 4 else 200
            rows = boundary_states(gain, eps, n, seed=i)
            assert rows.shape == (n, 6) and rows.flags.f_contiguous, i
            assert exact_level_error(gain, eps, rows) <= level_bound(gain), i

    def test_axis_map_entries_within_half_an_ulp(self, params):
        extreme = [(GainMatrix(*p, alpha=1.0), eps) for p, eps in EXTREME_GAINS]
        for gain, eps in sampler_cases(params, 20) + extreme:
            got = synthesis._axis_map(gain, eps)
            with mpmath.workdps(50):
                for x, want in zip(got, mp_axis_map(gain, eps)):
                    assert abs(mpmath.mpf(x) - want) <= mpmath.mpf(math.ulp(x)) / 2, (gain, eps)

    @pytest.mark.parametrize("p, eps", EXTREME_GAINS)
    def test_extreme_gains_on_the_level_set(self, p, eps):
        gain = GainMatrix(*p, alpha=1.0)
        rows = boundary_states(gain, eps, 200, seed=3)
        assert np.all(np.isfinite(rows)) and np.any(rows != 0.0)
        assert exact_level_error(gain, eps, rows) <= level_bound(gain)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_eps(self, cert075, eps):
        with pytest.raises(ValueError, match="eps"):
            boundary_states(cert075.gain, eps, 10)

    @pytest.mark.parametrize("n", [10**20, sys.maxsize // 48 + 1])
    def test_rejects_a_count_too_large_to_hold(self, cert075, n):
        # rejected before the draw, so nothing is allocated
        with pytest.raises(ValueError, match=(
            f"^n = {n} boundary states: their \\(n, 6\\) float64 block exceeds "
            "sys.maxsize bytes$"
        )):
            boundary_states(cert075.gain, cert075.eps, n)

    def test_first_k_of_n_points_are_the_points_for_k(self, cert075):
        gain, eps = cert075.gain, cert075.eps
        for seed in (0, 5):
            many = boundary_states(gain, eps, 1000, seed)
            for k in (1, 2, 3, 7, 20, 33, 128, 999):
                assert np.array_equal(boundary_states(gain, eps, k, seed), many[:k]), (seed, k)

    def test_seeds_give_different_points(self, cert075):
        draws = [boundary_states(cert075.gain, cert075.eps, 50, seed) for seed in (0, 1, 2)]
        for i in range(3):
            for j in range(i):
                d = np.linalg.norm(draws[i][:, None, :] - draws[j][None, :, :], axis=2)
                assert d.min() > 1e-6, (i, j)

    def test_empty_and_negative_counts(self, cert075):
        assert boundary_states(cert075.gain, cert075.eps, 0).shape == (0, 6)
        with pytest.raises(ValueError):
            boundary_states(cert075.gain, cert075.eps, -1)


class TestCertificateFile:
    def test_round_trip(self, tmp_path, params, cert075):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075, seed=7, margin=1e-9)
        p2, cert2, meta = load_certificate(path)
        assert p2 == params
        assert cert2 == cert075
        assert meta == {"seed": 7, "margin": 1e-9}
        # at any limits: the load compares the stored eps_max exactly
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.uniform(0.1, 30.0)
            phi_max, theta_max = rng.uniform(1e-3, 1.57, 2)
            p = ConstraintParams(g=g, t_max=g * rng.uniform(1.01, 3.0), phi_max=phi_max,
                                 theta_max=theta_max)
            save_certificate(path, p, cert075)
            assert load_certificate(path)[:2] == (p, cert075)

    def test_rejects_unknown_key(self, tmp_path, params, cert075):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075)
        path.write_text(path.read_text() + "bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_certificate(path)

    def test_rejects_missing_key(self, tmp_path, params, cert075):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("rho")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="rho"):
            load_certificate(path)

    def test_rejects_inconsistent_angle_bound(self, tmp_path, params, cert075):
        # one ulp off either side included
        path = tmp_path / "cert.txt"
        for value in (0.3, math.nextafter(params.eps_max, 0.0),
                      math.nextafter(params.eps_max, 1.0)):
            save_certificate(path, params, cert075)
            text = path.read_text().replace(
                f"eps_max = {params.eps_max:.17g}", f"eps_max = {value:.17g}"
            )
            path.write_text(text)
            with pytest.raises(ValueError, match="eps_max"):
                load_certificate(path)

    @pytest.mark.parametrize("seed, message", [
        (-1, "expected a non-negative integer, got -1"),
        (1.5, "invalid literal for int() with base 10: '1.5'"),
        (True, "invalid literal for int() with base 10: 'true'"),
    ], ids=["negative", "fractional", "boolean"])
    def test_save_rejects_a_value_the_load_rejects(self, tmp_path, params, cert075, seed,
                                                   message):
        path = tmp_path / "cert.txt"
        with pytest.raises(ValueError) as exc:
            save_certificate(path, params, cert075, seed=seed)
        assert str(exc.value) == f"certificate key 'seed': {message}"
        assert not path.exists()

    def test_rejects_nan_gamma(self, tmp_path, params, cert075):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075)
        path.write_text(path.read_text().replace("gamma = 1\n", "gamma = nan\n"))
        with pytest.raises(ValueError, match="gamma"):
            load_certificate(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", "-2", "expected a non-negative integer, got -2"),
            ("p1", "abc", "could not convert string to float: 'abc'"),
        ],
        ids=["negative_seed", "bad_float"],
    )
    def test_rejects_bad_value_naming_its_key(self, tmp_path, params, cert075, key, value,
                                              message):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075)
        lines = [f"{key} = {value}" if l.startswith(f"{key} = ") else l
                 for l in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_certificate(path)
        assert str(exc.value) == f"certificate key {key!r}: {message}"

    def test_keys_in_table_order_and_as_documented(self, tmp_path, params, cert075):
        path = tmp_path / "cert.txt"
        save_certificate(path, params, cert075)
        keys = list(parse_kv(path.read_text()))
        # the README's "File formats" list: the backticked names after the
        # colon of its certificate paragraph
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        para = readme.split("\nCertificate (", 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"`(\w+)`", para.split(":", 1)[1])
        assert keys == list(CERT_KEYS) == documented


def readme_blocks(text):
    """The fenced code blocks of README text ``text``, in order."""
    return re.findall(r"^```\w*\n(.*?)^```$", text, re.M | re.S)


def readme_synopsis():
    """The README's CLI synopsis: the first code block under "Command line"."""
    return readme_blocks(README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0])[0]


class TestReadme:
    """The README's contract held to the code: its config keys, its CLI
    synopsis, its trace header and summary keys, and its examples."""

    def test_config_table_names_each_run_config_field_once(self):
        table = README.split("\n### Configuration\n", 1)[1].split("\n#", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert keys == [f.name for f in fields(cli.RunConfig)]

    def test_synopsis_lists_each_subcommand_with_its_arguments(self):
        documented = []
        for line in readme_synopsis().splitlines():
            words = re.sub(r"\[[^]]*\]", "", line).split()
            documented.append((words[1], words[2:], sorted(re.findall(r"\[(--[\w-]+)", line))))
        (commands,) = [action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        parsed = [(name, [a.dest.upper() for a in sp._actions if not a.option_strings],
                   sorted(flag for a in sp._actions for flag in a.option_strings
                          if flag not in ("-h", "--help")))
                  for name, sp in commands.choices.items()]
        assert documented == parsed

    def test_trace_header_and_summary_keys_as_written(self, tmp_path, capsys):
        header = README.split("\nTrace CSV header: `", 1)[1].split("`", 1)[0]
        assert [column.strip() for column in header.split(",")] == list(CSV_COLUMNS)
        # the backticked names after the colon of the run summary paragraph
        para = README.split("\nRun summary (", 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"`(\w+)`", para.split(":", 1)[1])
        config = tmp_path / "c.txt"
        config.write_text("duration = 0.2\ngammas = 1, 5\n", encoding="utf-8")
        args = ["--config", str(config), "--out", str(tmp_path)]
        assert cli.main(["simulate", *args]) == cli.main(["sweep", *args]) == cli.EXIT_OK
        simulate, sweep = (list(parse_kv(text)) for text in
                           capsys.readouterr().out.split("# gamma sweep summary\n"))
        assert simulate == documented
        per_run = ["gamma", *(key for key in documented if key != "gamma")]
        assert sweep == [f"run{i}_{key}" for i in range(2) for key in per_run]

    def test_examples_run_clean(self, tmp_path, monkeypatch, capsys):
        # every fenced line that starts with a command, but the synopsis,
        # in order, from a directory that holds a copy of scripts/
        shutil.copytree(SCRIPTS, tmp_path / "scripts")
        monkeypatch.chdir(tmp_path)
        synopsis = readme_synopsis()
        lines = [line for block in readme_blocks(README) if block != synopsis
                 for line in block.splitlines()]
        ran = 0
        for line in lines:
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["flatsat"]:
                assert cli.main(argv[1:]) == cli.EXIT_OK, line
            elif argv[:2] == ["python", "scripts/alpha_sweep.py"]:
                run_script("alpha_sweep.py", monkeypatch, *argv[2:])
            else:
                continue
            ran += 1
        assert ran
