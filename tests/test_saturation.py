import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsat import (
    ActiveConstraint,
    ConstraintParams,
    DomainError,
    candidate_set,
    in_Vc,
    saturate,
    saturate_batch,
    saturate_oracle,
)

G = 9.81
PARAMS = ConstraintParams()


def fuzz_commands(rng, n):
    """Random commands spread over all three saturation regimes.

    Exactly vertical rays are included deliberately: the half-space facet of
    the command set is the single apex point, so only those rays activate it.
    """
    out = []
    while len(out) < n:
        kind = len(out) % 5
        if kind == 0:
            v = rng.normal(0.0, 12.0, 3)
        elif kind == 1:
            v = rng.normal(0.0, 3.0, 3)
            v[2] = -abs(v[2]) * 6.0  # steep downward, near-apex cone exits
        elif kind == 2:
            v = rng.normal(0.0, 1.0, 3) * (14.0, 14.0, 1.0)  # cone region
        elif kind == 3:
            v = np.array([0.0, 0.0, rng.uniform(-60.0, 60.0)])  # vertical ray
        else:
            v = rng.normal(0.0, 40.0, 3)  # far outside the ball
        if not in_Vc(v, PARAMS):
            out.append(tuple(map(float, v)))
    return out


def fuzz_batch(rng, n):
    """(n, 3) commands in seven row kinds: the regimes of
    :func:`fuzz_commands` (spread, steep downward, cone region, exactly
    vertical, far outside), rays grazing the cone apex, and feasible rows,
    every fourth of which is the zero command."""
    v = rng.normal(0.0, 1.0, (n, 3))
    kind = np.arange(n) % 7
    v[kind == 0] *= 12.0
    steep = kind == 1
    v[steep] *= 3.0
    v[steep, 2] = -np.abs(v[steep, 2]) * 6.0
    v[kind == 2] *= (14.0, 14.0, 1.0)
    vertical = kind == 3
    v[vertical, :2] = 0.0
    v[vertical, 2] = rng.uniform(-60.0, 60.0, np.count_nonzero(vertical))
    v[kind == 4] *= 40.0
    apex = kind == 5
    v[apex, :2] *= 10.0 ** rng.uniform(-10.0, -4.0, (np.count_nonzero(apex), 1))
    v[apex, 2] = -rng.uniform(G, 60.0, np.count_nonzero(apex))
    feasible = kind == 6
    v[feasible] *= 0.2
    v[feasible & (np.arange(n) % 4 == 0)] = 0.0
    return v


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestCandidateSet:
    def test_halfspace_crossing_present(self):
        cands = candidate_set((0.0, 0.0, -2 * G), PARAMS)
        assert any(abs(c - 0.5) < 1e-15 for c in cands)

    def test_horizontal_ray_degenerate_entries(self):
        # v3 = 0: the quadratics still deliver the cone tangency and sphere
        # crossings
        c = 5.0
        cands = candidate_set((c, 0.0, 0.0), PARAMS)
        ball = math.sqrt(PARAMS.t2_max - G * G) / c
        cone = G * PARAMS.tan_eps / c
        assert any(abs(x - ball) < 1e-12 for x in cands)
        assert any(abs(x - cone) < 1e-12 for x in cands)

    def test_every_candidate_is_a_boundary_crossing(self):
        # each factor must put lam * v on the sphere, the cone or the plane
        # c = 0; each residual is relative to the sum of the magnitudes of
        # its terms, with c = w3 + g expanded (the cone's double root on a
        # vertical ray is only accurate to sqrt(machine epsilon))
        rng = np.random.default_rng(21)
        commands = fuzz_commands(rng, 2000) + [
            tuple(rng.normal(0.0, 5.0, 3)) for _ in range(500)
        ]
        for v in commands:
            for lam in candidate_set(v, PARAMS):
                w1, w2, w3 = lam * v[0], lam * v[1], lam * v[2]
                c = w3 + G
                h2 = w1 * w1 + w2 * w2
                s2 = (abs(w3) + G) ** 2
                sphere = abs(h2 + c * c - PARAMS.t2_max) / (h2 + s2 + PARAMS.t2_max)
                cone = abs(h2 - c * c * PARAMS.tan2_eps) / (h2 + s2 * PARAMS.tan2_eps)
                plane = abs(c) / (abs(w3) + G)
                assert min(sphere, cone, plane) <= 1e-9, (v, lam)

    def test_at_most_four_candidates(self):
        # two cone roots and two sphere roots; the half-space boundary is
        # the cone apex, reached as a cone root
        rng = np.random.default_rng(23)
        rows = fuzz_commands(rng, 2000) + [tuple(r) for r in fuzz_batch(rng, 7000)]
        counts = [len(candidate_set(v, PARAMS)) for v in rows if any(v)]
        assert max(counts) <= 4

    def test_zero_command_rejected(self):
        with pytest.raises(DomainError):
            candidate_set((0.0, 0.0, 0.0), PARAMS)

    def test_degenerate_cone_quadratic_linear_root(self):
        # direction exactly on the mathematical cone of directions: the
        # quadratic degenerates to a linear equation, root -g/(2 v3)
        v3 = -3.0
        h = abs(v3) * PARAMS.tan_eps
        cands = candidate_set((h, 0.0, v3), PARAMS)
        assert any(abs(x - (-G / (2 * v3))) < 1e-12 for x in cands)


class TestSaturate:
    def test_feasible_passthrough(self):
        res = saturate((0.1, -0.2, 0.5), PARAMS)
        assert not res.saturated
        assert res.lam == 1.0
        assert res.active is ActiveConstraint.NONE
        assert np.array_equal(res.v_out, [0.1, -0.2, 0.5])

    def test_zero_passthrough(self):
        res = saturate((0.0, 0.0, 0.0), PARAMS)
        assert not res.saturated and res.lam == 1.0

    def test_halfspace_exit(self):
        res = saturate((0.0, 0.0, -2 * G), PARAMS)
        assert res.lam == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(res.v_out, [0.0, 0.0, -G])
        assert res.active is ActiveConstraint.HALFSPACE
        assert in_Vc(res.v_out, PARAMS)

    def test_ball_exit(self):
        res = saturate((0.0, 0.0, 2 * (PARAMS.t_max - G)), PARAMS)
        assert res.lam == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(res.v_out, [0.0, 0.0, PARAMS.t_max - G])
        assert res.active is ActiveConstraint.BALL

    def test_cone_exit(self):
        res = saturate((2 * G * PARAMS.tan_eps, 0.0, 0.0), PARAMS)
        assert res.lam == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(res.v_out, [G * PARAMS.tan_eps, 0.0, 0.0])
        assert res.v_out[0] == pytest.approx(1.7299, abs=2e-4)
        assert res.active is ActiveConstraint.CONE

    def test_saturated_output_on_boundary(self):
        rng = np.random.default_rng(3)
        for v in fuzz_commands(rng, 500):
            res = saturate(v, PARAMS)
            assert res.saturated and 0.0 < res.lam < 1.0
            assert in_Vc(res.v_out, PARAMS)
            w1, w2, w3 = res.v_out
            c = w3 + G
            h2 = w1 * w1 + w2 * w2
            rel = {
                ActiveConstraint.BALL: abs(h2 + c * c - PARAMS.t2_max) / PARAMS.t2_max,
                ActiveConstraint.CONE: abs(h2 - c * c * PARAMS.tan2_eps) / PARAMS.t2_max,
                ActiveConstraint.HALFSPACE: abs(c) / G,
            }
            assert min(rel.values()) <= 1e-6
            assert rel[res.active] <= 1e-6


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejected_by_both_kernels(self, axis, value):
        v = [0.0, 0.0, 0.0]
        v[axis] = value
        with pytest.raises(DomainError):
            saturate(v, PARAMS)
        rows = np.array([[0.1, 0.2, 0.3], v, [30.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="row 1"):
            saturate_batch(rows, PARAMS)


class TestSaturateBatch:
    def test_bitwise_equal_to_scalar_kernel(self):
        v = fuzz_batch(np.random.default_rng(17), 210_000)
        v_out, lam, saturated = saturate_batch(v, PARAMS)
        ref = [saturate(row, PARAMS) for row in v]
        np.testing.assert_array_equal(bits(lam), bits([r.lam for r in ref]))
        np.testing.assert_array_equal(bits(v_out), bits([r.v_out for r in ref]))
        np.testing.assert_array_equal(saturated, [r.saturated for r in ref])
        # every regime is present: saturated and feasible rows, zero rows,
        # and the cone apex, reached by vertical and apex-grazing rays
        assert 0.5 < saturated.mean() < 0.95
        assert np.count_nonzero(~v.any(axis=1)) > 1000
        assert any(r.active is ActiveConstraint.HALFSPACE for r in ref)

    def test_matches_oracle(self):
        # every row, those whose output is the cone apex included
        v = fuzz_batch(np.random.default_rng(9), 10_000)
        _, lam, _ = saturate_batch(v, PARAMS)
        oracle = np.array([saturate_oracle(row, PARAMS, iters=60) for row in v])
        at_apex = np.array(
            [saturate(row, PARAMS).active is ActiveConstraint.HALFSPACE for row in v]
        )
        assert 0 < np.count_nonzero(at_apex) < len(v)
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_apex_grazing_matches_oracle(self):
        h = np.array([1e-7, 1e-6, 1e-5])
        v = np.column_stack([h, np.zeros_like(h), np.full_like(h, -2 * G)])
        _, lam, _ = saturate_batch(v, PARAMS)
        oracle = [saturate_oracle(row, PARAMS, iters=60) for row in v]
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_empty_input(self):
        v_out, lam, saturated = saturate_batch(np.empty((0, 3)), PARAMS)
        assert v_out.shape == (0, 3) and lam.shape == (0,)
        assert saturated.shape == (0,) and saturated.dtype == bool

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            saturate_batch(np.zeros(3), PARAMS)


class TestOracle:
    def test_matches_closed_form(self):
        lam = saturate_oracle((0.0, 0.0, -2 * G), PARAMS, iters=40)
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_scaled_boundary_point(self):
        v = 2.0 * np.array([0.0, 0.0, PARAMS.t_max - G])
        assert saturate_oracle(v, PARAMS) == pytest.approx(0.5, abs=1e-12)

    def test_cross_validation_fuzz(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for v in fuzz_commands(rng, 10_000):
            la = saturate(v, PARAMS).lam
            lb = saturate_oracle(v, PARAMS, iters=60)
            worst = max(worst, abs(la - lb))
        assert worst <= 1e-8


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        v1=st.floats(-50, 50),
        v2=st.floats(-50, 50),
        v3=st.floats(-50, 50),
    )
    def test_idempotent(self, v1, v2, v3):
        if v1 == v2 == v3 == 0.0:
            return
        first = saturate((v1, v2, v3), PARAMS)
        second = saturate(first.v_out, PARAMS)
        assert not second.saturated
        assert second.lam == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        v1=st.floats(-40, 40),
        v2=st.floats(-40, 40),
        v3=st.floats(-40, 40),
        k=st.floats(1.001, 50.0),
    )
    def test_scaled_rays_share_exit_point(self, v1, v2, v3, k):
        v = (v1, v2, v3)
        if in_Vc(v, PARAMS):
            return
        a = saturate(v, PARAMS)
        b = saturate((k * v1, k * v2, k * v3), PARAMS)
        assert np.allclose(a.v_out, b.v_out, atol=1e-9)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(10_000):
            va = rng.normal(0.0, 8.0, 3)
            vb = va + rng.normal(0.0, 1e-5, 3)
            d_in = float(np.linalg.norm(va - vb))
            if d_in == 0.0 or np.linalg.norm(va) < 1e-3:
                continue
            d_out = float(
                np.linalg.norm(saturate(va, PARAMS).v_out - saturate(vb, PARAMS).v_out)
            )
            worst = max(worst, d_out / d_in)
        print(f"empirical saturation Lipschitz bound: {worst:.3f}")
        assert worst < 1e3
