import math
import re
import warnings
from fractions import Fraction

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
    in_U,
    in_Vc,
    saturate,
    saturate_oracle,
    to_physical,
)
from flatsat.saturation import _saturate_columns, _saturate_floats
from conftest import residual_active

G = 9.81
PARAMS = ConstraintParams()
# the factor that both kernels apply to the smaller exit
BACKOFF = PARAMS.backoff


def fuzz_commands(rng, n):
    """Random commands spread over all three saturation regimes.

    Exactly vertical rays are included deliberately: a downward one leaves
    the cone exactly at the apex, so its output sits on the axis just above
    it.
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


def saturate_rows(v, strided=False):
    """The column kernel on the rows of the ``(N, 3)`` array ``v``: on three
    contiguous columns, the call that ``verify_cert`` makes, or with
    ``strided`` on the column views of ``v``. Returns ``(w, lam,
    saturated)`` with ``w`` of shape ``(N, 3)``."""
    v = np.asarray(v, dtype=float)
    cols = (v[:, 0], v[:, 1], v[:, 2]) if strided else v.T.copy()
    w1, w2, w3, lam, saturated = _saturate_columns(*cols, PARAMS)
    return np.column_stack((w1, w2, w3)), lam, saturated


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
        # the downward vertical ray leaves the cone at the apex, exit factor
        # exactly 1/2; the backoff puts the output just above the apex
        res = saturate((0.0, 0.0, -2 * G), PARAMS)
        assert res.lam == 0.5 * BACKOFF
        assert np.allclose(res.v_out, [0.0, 0.0, -G])
        assert 0.0 < res.v_out[2] + G < 1e-13
        assert res.active is ActiveConstraint.CONE
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
        # near-apex outputs included: they are on the cone
        v = fuzz_batch(np.random.default_rng(31), 70_000)
        n = 0
        for row in v:
            res = saturate(row, PARAMS)
            if res.saturated:
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
            saturate_rows(rows)

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
                saturate_rows(rows)

    @pytest.mark.parametrize(
        "v", [(1e154, 0.0, 0.0), (0.0, 0.0, -1.3e154), (0.0, 0.0, 1.3e154)]
    )
    def test_largest_finite_squared_norm_saturates(self, v):
        res = saturate(v, PARAMS)
        assert res.saturated and in_Vc(res.v_out, PARAMS)
        _, lam, _ = saturate_rows([v])
        assert bits(lam[0]) == bits(res.lam)


class TestSaturateBatch:
    def test_bitwise_equal_to_scalar_kernel(self):
        # contiguous columns and the strided column views of one array alike
        v = fuzz_batch(np.random.default_rng(17), 210_000)
        w1, w2, w3, lam_ref, saturated_ref, _ = zip(
            *(_saturate_floats(*row, PARAMS) for row in v.tolist())
        )
        for strided in (False, True):
            v_out, lam, saturated = saturate_rows(v, strided)
            np.testing.assert_array_equal(bits(lam), bits(lam_ref))
            np.testing.assert_array_equal(bits(v_out), bits(np.transpose([w1, w2, w3])))
            np.testing.assert_array_equal(saturated, saturated_ref)
        # every regime is present: saturated and feasible rows, zero rows,
        # and outputs just above the cone apex, from vertical and
        # apex-grazing rays
        assert 0.5 < saturated.mean() < 0.95
        assert np.count_nonzero(~v.any(axis=1)) > 1000
        assert np.count_nonzero(v_out[:, 2] + G < 1e-12) > 1000

    def test_matches_oracle(self):
        # every row, those whose output is just above the cone apex included
        v = fuzz_batch(np.random.default_rng(9), 10_000)
        w, lam, _ = saturate_rows(v)
        oracle = np.array([saturate_oracle(row, PARAMS) for row in v])
        at_apex = w[:, 2] + G < 1e-12
        assert 0 < np.count_nonzero(at_apex) < len(v)
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_apex_grazing_matches_oracle(self):
        h = np.array([1e-7, 1e-6, 1e-5])
        v = np.column_stack([h, np.zeros_like(h), np.full_like(h, -2 * G)])
        _, lam, _ = saturate_rows(v)
        oracle = [saturate_oracle(row, PARAMS) for row in v]
        assert np.max(np.abs(lam - oracle)) <= 1e-8

    def test_empty_input(self):
        v_out, lam, saturated = saturate_rows(np.empty((0, 3)))
        assert v_out.shape == (0, 3) and lam.shape == (0,)
        assert saturated.shape == (0,) and saturated.dtype == bool


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
        # the exact factor times the backoff, to 1e-15 relative either side
        rng = np.random.default_rng(41)
        v = np.vstack([fuzz_batch(rng, 7000), grazing_rays(rng, 2000, 1e-18, 1e-4)])
        _, lam, saturated = saturate_rows(v)
        assert np.count_nonzero(saturated) > 6000
        backoff = mpmath.mpf(BACKOFF)
        for row, got in zip(v[saturated], lam[saturated]):
            want = exact_factor(row, PARAMS) * backoff
            assert abs(mpmath.mpf(float(got)) - want) <= 1e-15 * want, row

    def test_grazing_rays_land_above_the_apex(self):
        # every downward ray, exactly vertical ones included
        rng = np.random.default_rng(43)
        v = grazing_rays(rng, 5000, 1e-18, 1e-4)
        v[:1000, :2] = 0.0
        v[1000:1100, 0] = 7.5e-17 * -v[1000:1100, 2]
        v[1000:1100, 1] = 0.0
        w, _, saturated = saturate_rows(v)
        assert saturated.all()
        assert np.all(w[:, 2] + G > 0.0)
        for row in w:
            assert in_U(to_physical(row, 0.0, G), PARAMS)


def step_ulps(x, k):
    """``x`` moved ``k`` floats up (``k > 0``) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def hard_commands(draw):
    """One command from the rows where rounding decides membership: within
    6 floats of the ball, the cone or the half-space boundary, two
    near-apex commands with a tilt of about 90 degrees that a slack of 1e-9
    in the cone clause lets through, the apex and the vertical ray through
    it, downward rays grazing the apex (horizontal part 0 to 1e-4 of the
    vertical one), and rays of any norm up to the overflow limit of the
    squared norm (about 1.3e154)."""
    kind = draw(st.sampled_from(["ball", "cone", "halfspace", "fixed", "grazing", "far"]))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "fixed":
        return draw(st.sampled_from(
            [(3e-5, 0.0, -G + 1e-8), (2e-5, 2e-5, -G + 1e-7), (0.0, 0.0, -G),
             (0.0, 0.0, -2 * G)]
        ))
    if kind == "grazing":
        v3 = -(10.0 ** draw(st.floats(math.log10(1.01 * G), 154.1)))
        ratio = draw(st.one_of(
            st.sampled_from([0.0, 7.5e-17]), st.floats(-18.0, -4.0).map(lambda e: 10.0**e)
        ))
        h = -v3 * ratio
        return (h * math.cos(phi), h * math.sin(phi), v3)
    if kind == "far":
        d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            return (0.0, 0.0, 0.0)
        d *= 10.0 ** draw(st.floats(-3.0, 154.1)) / norm
        return tuple(d.tolist())
    p = PARAMS
    if kind == "ball":
        theta = draw(st.floats(0.0, p.eps_max))
        t = p.t_max * math.sin(theta)
        point = (t * math.cos(phi), t * math.sin(phi), p.t_max * math.cos(theta) - G)
    elif kind == "cone":
        c = draw(st.floats(1e-12, p.t_max * math.cos(p.eps_max)))
        point = (c * p.tan_eps * math.cos(phi), c * p.tan_eps * math.sin(phi), c - G)
    else:
        h = draw(st.floats(0.0, 1e-6))
        point = (h * math.cos(phi), h * math.sin(phi), -G)
    steps = draw(st.tuples(*[st.integers(-6, 6)] * 3))
    return tuple(step_ulps(x, k) for x, k in zip(point, steps))


def exact_member(w, p):
    """Membership of the float command ``w`` in the command set of the
    stored parameters ``g``, ``t2_max`` and ``tan2_eps``, in exact rational
    arithmetic."""
    g, t2_max, tan2_eps = Fraction(p.g), Fraction(p.t2_max), Fraction(p.tan2_eps)
    w1, w2, w3 = (Fraction(float(x)) for x in w)
    c = w3 + g
    h2 = w1 * w1 + w2 * w2
    return c > 0 and h2 + c * c <= t2_max and h2 <= c * c * tan2_eps


@st.composite
def accepted_limits_and_rays(draw):
    """Limits from the domain that ``ConstraintParams`` accepts: g in 0.5 to
    20, t_max / g - 1 log-uniform from 2e-9 (just above the backoff edge,
    about 1.2e-9) to 9, angles in [1e-3, pi/2 - 1e-3], equal in about a
    third of the draws; then up to 12 rays of norm e^-2 to e^6 times t_max
    in any direction, each with a yaw in [-pi, pi]."""
    g = draw(st.floats(0.5, 20.0))
    t_max = g * (1.0 + math.exp(draw(st.floats(math.log(2e-9), math.log(9.0)))))
    angle = st.floats(1e-3, math.pi / 2 - 1e-3)
    phi_max = draw(angle)
    theta_max = phi_max if draw(st.integers(0, 2)) == 0 else draw(angle)
    p = ConstraintParams(g=g, t_max=t_max, phi_max=phi_max, theta_max=theta_max)
    rays = []
    for _ in range(draw(st.integers(1, 12))):
        d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        norm = float(np.linalg.norm(d))
        if norm < 1e-3:
            d, norm = np.array([0.0, 0.0, -1.0]), 1.0
        d *= t_max * math.exp(draw(st.floats(-2.0, 6.0))) / norm
        rays.append((tuple(d.tolist()), draw(st.floats(-math.pi, math.pi))))
    return p, rays


class TestExactMembership:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(hard_commands(), min_size=1, max_size=30))
    def test_every_output_is_an_exact_member(self, rows):
        v = np.array(rows)
        batches = [saturate_rows(v, strided) for strided in (False, True)]
        for i, row in enumerate(v):
            res = saturate(row, PARAMS)
            for w, lam, saturated in batches:
                np.testing.assert_array_equal(bits(res.v_out), bits(w[i]))
                assert bits(res.lam) == bits(lam[i]) and res.saturated == saturated[i]
            assert exact_member(res.v_out, PARAMS), (row, res)
            for psi in (0.0, 0.7, -2.3):
                assert in_U(to_physical(res.v_out, psi, G), PARAMS), (row, res, psi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=accepted_limits_and_rays())
    def test_contract_holds_over_the_accepted_limits(self, case):
        p, rays = case
        for v, psi in rays:
            res = saturate(v, p)
            assert exact_member(res.v_out, p), (p, v, res)
            assert in_U(to_physical(res.v_out, psi, p.g), p), (p, v, res, psi)
            for member in [res.v_out] + ([v] if in_Vc(v, p) else []):
                again = saturate(member, p)
                assert not again.saturated and again.lam == 1.0, (p, member)
                np.testing.assert_array_equal(bits(again.v_out), bits(member))


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
