import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsat import (
    ActiveConstraint,
    ConstraintParams,
    DomainError,
    SaturationResult,
    in_Vc,
    saturate,
    saturate_batch,
    saturate_oracle,
    to_physical,
)

from conftest import residual_active

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

    def test_horizontal_ray(self):
        # v3 = 0: the cone exit g tan(eps)/c is below the ball exit sqrt(k)/c
        c = 5.0
        res = saturate((c, 0.0, 0.0), PARAMS)
        assert res.lam == pytest.approx(G * PARAMS.tan_eps / c, rel=1e-15)
        assert res.lam < math.sqrt(PARAMS.t2_max - G * G) / c
        assert res.active is ActiveConstraint.CONE

    @pytest.mark.parametrize("v3", [-12.0, -30.0, -100.0])
    def test_direction_on_the_cone_surface(self, v3):
        # the direction (tan(eps), 0, -1) is parallel to a generator of the
        # cone, which the ray meets once, at -g/(2 v3); (3 tan(eps), 0, -3)
        # itself is feasible (factor g/6 > 1), so longer rays are used
        res = saturate((-v3 * PARAMS.tan_eps, 0.0, v3), PARAMS)
        assert res.lam == pytest.approx(-G / (2 * v3), rel=1e-15)
        assert res.active is ActiveConstraint.CONE

    def test_active_matches_residual_oracle(self):
        # away from the apex, whose neighbourhood (|w3 + g| up to about
        # 3e-5) is classified as the half-space by the apex test
        v = fuzz_batch(np.random.default_rng(31), 70_000)
        n = 0
        for row in v:
            res = saturate(row, PARAMS)
            if res.saturated and res.v_out[2] + G > 1e-4:
                assert res.active is residual_active(res.v_out, PARAMS), row
                n += 1
        assert n > 40_000

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


class TestResultContract:
    def test_fields_in_order(self):
        assert SaturationResult._fields == ("v_out", "lam", "saturated", "active")

    @pytest.mark.parametrize("v", [(0.1, -0.2, 0.5), (30.0, 0.0, 0.0)])
    def test_immutable_with_an_array_command(self, v):
        res = saturate(v, PARAMS)
        assert type(res.v_out) is np.ndarray and res.v_out.shape == (3,)
        for name in ("v_out", "lam", "saturated", "active"):
            with pytest.raises(AttributeError):
                setattr(res, name, getattr(res, name))


WRONG_LENGTHS = [
    [1.0, 2.0, 3.0, 4.0], [1.0, 2.0], np.zeros((1, 3)), np.zeros((3, 1)), 0.0,
]


@pytest.mark.parametrize("v", WRONG_LENGTHS, ids=lambda v: str(np.shape(v)))
@pytest.mark.parametrize("f", [saturate, saturate_oracle])
def test_rejects_other_than_three_values(f, v):
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(v)}")):
        f(v, PARAMS)


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

    @pytest.mark.parametrize(
        "v",
        [(0.0, 0.0, -1e200), (1e200, 0.0, 0.0), (0.0, 0.0, 1e200),
         (1e154, 1e154, 0.0), (0.0, 0.0, -1.4e154)],
    )
    def test_overflowing_squared_norm_rejected_by_both_kernels(self, v):
        with pytest.raises(DomainError):
            saturate(v, PARAMS)
        rows = np.array([[0.1, 0.2, 0.3], v, [30.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="row 1"):
                saturate_batch(rows, PARAMS)

    @pytest.mark.parametrize(
        "v", [(1e154, 0.0, 0.0), (0.0, 0.0, -1.3e154), (0.0, 0.0, 1.3e154)]
    )
    def test_largest_finite_squared_norm_saturates(self, v):
        res = saturate(v, PARAMS)
        assert res.saturated and in_Vc(res.v_out, PARAMS)
        _, lam, _ = saturate_batch(np.array([v]), PARAMS)
        assert bits(lam[0]) == bits(res.lam)


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
        oracle = np.array([saturate_oracle(row, PARAMS) for row in v])
        at_apex = np.array(
            [saturate(row, PARAMS).active is ActiveConstraint.HALFSPACE for row in v]
        )
        assert 0 < np.count_nonzero(at_apex) < len(v)
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_apex_grazing_matches_oracle(self):
        h = np.array([1e-7, 1e-6, 1e-5])
        v = np.column_stack([h, np.zeros_like(h), np.full_like(h, -2 * G)])
        _, lam, _ = saturate_batch(v, PARAMS)
        oracle = [saturate_oracle(row, PARAMS) for row in v]
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_empty_input(self):
        v_out, lam, saturated = saturate_batch(np.empty((0, 3)), PARAMS)
        assert v_out.shape == (0, 3) and lam.shape == (0,)
        assert saturated.shape == (0,) and saturated.dtype == bool

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            saturate_batch(np.zeros(3), PARAMS)


def grazing_rays(rng, n, lo, hi):
    """(n, 3) downward rays below the apex whose horizontal part is a
    log-uniform fraction in [lo, hi] of the vertical one."""
    v3 = -rng.uniform(1.01 * G, 60.0, n)
    h = np.abs(v3) * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([h * np.cos(phi), h * np.sin(phi), v3])


def exact_factor(row, p):
    """The smaller of the ball and the cone exit factor of the ray through
    the float command ``row``, in 50-digit arithmetic on the float
    parameters."""
    with mpmath.workdps(50):
        g, t_max, tan_eps = (mpmath.mpf(x) for x in (p.g, p.t_max, p.tan_eps))
        v1, v2, v3 = (mpmath.mpf(float(x)) for x in row)
        h2 = v1 * v1 + v2 * v2
        a = h2 + v3 * v3
        beta = g * v3
        ball = (mpmath.sqrt(beta * beta + a * (t_max * t_max - g * g)) - beta) / a
        den = mpmath.sqrt(h2) - v3 * tan_eps
        return min(ball, g * tan_eps / den) if den > 0 else ball


class TestExactness:
    def test_batch_factor_matches_exact_factor(self):
        rng = np.random.default_rng(41)
        v = np.vstack([fuzz_batch(rng, 7000), grazing_rays(rng, 2000, 1e-18, 1e-4)])
        _, lam, saturated = saturate_batch(v, PARAMS)
        assert np.count_nonzero(saturated) > 6000
        for row, got in zip(v[saturated], lam[saturated]):
            want = exact_factor(row, PARAMS)
            assert abs(mpmath.mpf(float(got)) - want) <= 1e-15 * want, row

    def test_grazing_rays_land_above_the_apex(self):
        # only rays vertical to within rounding may land on or below it
        v = grazing_rays(np.random.default_rng(43), 5000, 1e-15, 1e-4)
        w, _, saturated = saturate_batch(v, PARAMS)
        assert saturated.all()
        assert np.all(w[:, 2] + G > 0.0)
        for row in w:
            to_physical(row, 0.0, G)


class TestOracle:
    def test_matches_closed_form(self):
        lam = saturate_oracle((0.0, 0.0, -2 * G), PARAMS)
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_scaled_boundary_point(self):
        v = 2.0 * np.array([0.0, 0.0, PARAMS.t_max - G])
        assert saturate_oracle(v, PARAMS) == pytest.approx(0.5, abs=1e-12)

    def test_cross_validation_fuzz(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for v in fuzz_commands(rng, 10_000):
            la = saturate(v, PARAMS).lam
            lb = saturate_oracle(v, PARAMS)
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
