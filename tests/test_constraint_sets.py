import math
import re
from dataclasses import replace

import numpy as np
import pytest

from flatsat import (
    ConstraintParams,
    PhysicalInput,
    accel,
    in_U,
    in_Vc,
    max_inscribed_ball,
    to_physical,
)
from flatsat.flat_model import DomainError

from conftest import epsilon_angle, in_U_within, in_Vc_within

G = 9.81


def sample_in_cone(rng, p, n):
    """Random commands inside the convex set, spread over its cone part."""
    out = np.empty((n, 3))
    k = 0
    while k < n:
        z = rng.uniform(1e-6, p.t_max)
        r = z * p.tan_eps * math.sqrt(rng.uniform())
        if r * r + z * z > p.t2_max:
            continue
        ang = rng.uniform(0.0, 2.0 * math.pi)
        out[k] = (r * math.cos(ang), r * math.sin(ang), z - p.g)
        k += 1
    return out


class TestConstraintParams:
    def test_rejects_infeasible_hover(self):
        with pytest.raises(ValueError, match="infeasible hover"):
            ConstraintParams(g=9.81, t_max=9.81)
        with pytest.raises(ValueError, match="infeasible hover"):
            ConstraintParams(g=9.81, t_max=5.0)

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            ConstraintParams(phi_max=0.0)
        with pytest.raises(ValueError):
            ConstraintParams(theta_max=math.pi / 2)

    def test_eps_max_is_smaller_angle(self):
        p = ConstraintParams(phi_max=0.3, theta_max=0.2)
        assert p.eps_max == 0.2

    # the default limits and the stress sets of the backoff derivation
    STRESS_SETS = [
        {},
        {"t_max": 1.0001 * G},
        {"t_max": 1.01 * G},
        {"t_max": 5 * G},
        {"t_max": 50 * G},
        {"phi_max": math.radians(1), "theta_max": math.radians(1)},
        {"phi_max": math.radians(45), "theta_max": math.radians(45)},
        {"phi_max": math.radians(85), "theta_max": math.radians(85)},
        {"g": 1e-3, "t_max": 1.45e-3},
    ]

    @staticmethod
    def assert_derived_fields(p):
        # each derived field bitwise equal to its formula, evaluated in the
        # order that the kernels used before the fields existed
        inside = 1.0 - 8 * 2.0**-53
        k = p.t2_max - p.g * p.g
        want = {
            "eps_max": min(p.theta_max, p.phi_max),
            "tan_eps": math.tan(min(p.theta_max, p.phi_max)),
            "tan2_eps": math.tan(min(p.theta_max, p.phi_max)) ** 2,
            "t2_max": p.t_max * p.t_max,
            "t2_max_inside": p.t2_max * inside,
            "tan2_eps_inside": p.tan2_eps * inside,
            "k": k,
            "backoff": 1.0 - 20 * 2.0**-53 * (p.t2_max / k + p.t_max / p.g),
            "g_tan_eps": p.g * p.tan_eps,
        }
        got = {name: getattr(p, name) for name in want}
        assert {n: v.hex() for n, v in got.items()} == {n: v.hex() for n, v in want.items()}

    @pytest.mark.parametrize("limits", STRESS_SETS, ids=[
        "defaults", "t_max_1.0001g", "t_max_1.01g", "t_max_5g", "t_max_50g",
        "eps_1deg", "eps_45deg", "eps_85deg", "g_1e-3",
    ])
    def test_derived_fields_match_their_formulas(self, limits):
        self.assert_derived_fields(ConstraintParams(**limits))

    def test_replace_recomputes_derived_fields(self):
        p = ConstraintParams()
        for t_max in (1.01 * G, 5 * G):
            q = replace(p, t_max=t_max)
            self.assert_derived_fields(q)
            assert q.k != p.k and q.backoff != p.backoff and q.t2_max_inside != p.t2_max_inside
            assert q == ConstraintParams(t_max=t_max)

    @pytest.mark.parametrize("accepted, rejected, offset, documented", [
        (2 * G, G, 1.0, 1.2e-9), (2 * G, 1e10 * G, 0.0, 4.3e8),
    ], ids=["t_max_near_g", "t_max_far_above_g"])
    def test_backoff_bound_accepts_up_to_its_edge(self, accepted, rejected, offset,
                                                  documented):
        # bisect on floats to the edge of the backoff bound [1 - 2^-20, 1):
        # the last accepted t_max keeps its backoff in the interval, its
        # neighbour is rejected, and t_max / g - offset there is the
        # documented value
        def ok(t_max):
            try:
                ConstraintParams(t_max=t_max)
            except ValueError as exc:
                assert "outside [1 - 2^-20, 1)" in str(exc)
                return False
            return True

        while math.nextafter(accepted, rejected) != rejected:
            mid = 0.5 * (accepted + rejected)
            if mid in (accepted, rejected):
                mid = math.nextafter(accepted, rejected)
            accepted, rejected = (mid, rejected) if ok(mid) else (accepted, mid)
        assert ok(accepted) and not ok(rejected)
        assert 1 - 2.0**-20 <= ConstraintParams(t_max=accepted).backoff < 1.0
        assert accepted / G - offset == pytest.approx(documented, rel=0.05)

    @pytest.mark.parametrize("limits, message", [
        ({"g": 1e-200, "t_max": 2e-200}, "the limits t_max=2e-200 give t2_max = 0.0"),
        ({"t_max": 1e160}, "the limits t_max=1e+160 give t2_max = inf"),
        ({"phi_max": 1e-170}, "the limits phi_max=1e-170, theta_max=0.17453292519943295 give "
                              "tan2_eps = 0.0"),
        ({"g": 1e-310, "t_max": 1e100}, "the limits g=1e-310, phi_max=0.17453292519943295, "
                                        "theta_max=0.17453292519943295 give g_tan_eps = 1.76"),
        ({"g": 5.556896873712694e-163, "t_max": 1.4916681462400413e-154},
         "the limits t_max=1.4916681462400413e-154 give t2_max_inside = 2.2250738585071994e-308"),
        ({"phi_max": 1.4916681462400413e-154, "theta_max": 1.4916681462400413e-154},
         "the limits phi_max=1.4916681462400413e-154, theta_max=1.4916681462400413e-154 give "
         "tan2_eps_inside = 2.2250738585071994e-308"),
    ], ids=["t2_max_underflows", "t2_max_overflows", "tan2_eps_underflows", "g_tan_eps_subnormal",
            "t2_max_inside_subnormal", "tan2_eps_inside_subnormal"])
    def test_bound_that_is_not_a_normal_float_rejected(self, limits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}.*, not a normal float$"):
            ConstraintParams(**limits)

    def test_derived_fields_left_out_of_init_and_repr(self):
        with pytest.raises(TypeError):
            ConstraintParams(backoff=1.0)
        assert "backoff" not in repr(ConstraintParams())


class TestMembership:
    def test_in_U_examples(self, params):
        assert in_U(PhysicalInput(G, 0.0, 0.0), params)
        assert not in_U(PhysicalInput(1.46 * G, 0.0, 0.0), params)
        # boundary attitude at full thrust
        assert in_U(PhysicalInput(1.45 * G, 0.1745, -0.1745), params)

    def test_in_Vc_examples(self, params):
        assert in_Vc((0.0, 0.0, 0.0), params)
        assert in_Vc_within((0.0, 0.0, params.t_max - G), params, 1e-9)  # ball boundary
        assert not in_Vc((G * params.tan_eps + 1e-3, 0.0, 0.0), params)
        # the half-space is open, so the apex is not a member; (0, 0, -2g)
        # meets the ball clause and the squared cone clause (h2 = 0), so
        # only the half-space clause rejects it
        assert not in_Vc((0.0, 0.0, -G), params)
        assert not in_Vc((0.0, 0.0, -2 * G), params)
        assert in_Vc_within((0.0, 0.0, -2 * G), params, G)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_in_Vc_rejects_nan(self, params, axis):
        v = [0.0, 0.0, 0.0]
        v[axis] = math.nan
        assert not in_Vc(v, params)

    @pytest.mark.parametrize(
        "v", [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0], np.zeros((3, 1)), 0.0],
        ids=lambda v: str(np.shape(v)),
    )
    def test_in_Vc_rejects_other_than_three_values(self, params, v):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(v)}")):
            in_Vc(v, params)

    def test_epsilon_angle_values(self):
        assert epsilon_angle((0.0, 0.0, 3.0), G) == 0.0
        assert epsilon_angle((G, 0.0, 0.0), G) == pytest.approx(math.pi / 4, abs=1e-15)
        with pytest.raises(DomainError):
            epsilon_angle((1.0, 0.0, -G), G)

    def test_cone_clause_equivalent_to_angle_bound(self, params):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = rng.uniform([-4, -4, -G + 0.05], [4, 4, 8])
            c = v[2] + G
            h2 = v[0] ** 2 + v[1] ** 2
            lhs = h2 - c * c * params.tan2_eps
            if abs(lhs) < 1e-9:
                continue  # razor edge, both sides round
            clause = lhs <= 0.0
            angle_ok = epsilon_angle(v, G) <= params.eps_max
            assert clause == angle_ok


class TestInscribedBall:
    def test_reference_value(self, params):
        assert max_inscribed_ball(params) == pytest.approx(2.9019, abs=1e-3)

    def test_sphere_clause_active(self):
        p = ConstraintParams(t_max=2 * G, phi_max=math.pi / 2 - 1e-6,
                             theta_max=math.pi / 2 - 1e-6)
        assert max_inscribed_ball(p) == pytest.approx(G * G, rel=1e-9)

    def test_ball_contained_in_convex_set(self, params):
        rho = max_inscribed_ball(params)
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((100_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = math.sqrt(rho) * rng.uniform(size=(100_000, 1)) ** (1.0 / 3.0)
        pts = dirs * radii
        assert all(in_Vc(v, params) for v in pts)

    def test_ball_is_maximal(self, params):
        rho = max_inscribed_ball(params)
        eps = params.eps_max
        # direction of the closest cone-surface point seen from the origin
        witness = math.sqrt(rho * (1.0 + 1e-3)) * np.array(
            [math.cos(eps), 0.0, -math.sin(eps)]
        )
        assert not in_Vc(witness, params)

    def test_inflated_sphere_hits_violations_in_cone_directions(self, params):
        rho = max_inscribed_ball(params)
        eps = params.eps_max
        rng = np.random.default_rng(17)
        radius = math.sqrt(rho) * 1.05
        violated = 0
        for _ in range(1000):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            tilt = eps + rng.normal(0.0, 0.05)
            d = np.array(
                [
                    math.cos(tilt) * math.cos(ang),
                    math.cos(tilt) * math.sin(ang),
                    -math.sin(tilt),
                ]
            )
            violated += not in_Vc(radius * d, params)
        assert violated > 0


class TestSubsetOfPullbackSet:
    def test_convex_set_maps_into_box(self, params):
        # membership transported through the input map, over many yaws
        rng = np.random.default_rng(23)
        vs = sample_in_cone(rng, params, 100_000)
        psis = rng.uniform(-math.pi, math.pi, size=10)
        for psi in psis:
            for v in vs:
                assert in_U_within(to_physical(v, psi, params.g), params, 1e-9)

    def test_convexity_witness(self, params):
        rng = np.random.default_rng(29)
        va = sample_in_cone(rng, params, 10_000)
        vb = sample_in_cone(rng, params, 10_000)
        lam = rng.uniform(size=10_000)
        mix = lam[:, None] * va + (1.0 - lam)[:, None] * vb
        assert all(in_Vc_within(v, params, 1e-9) for v in mix)

    def test_pullback_set_is_not_convex(self, params):
        # two full-thrust inputs with the same roll sign both pull back into
        # the set, but their acceleration midpoint demands more roll than the
        # box allows: the roll clause is the non-convex one
        for psi in (0.0, 0.3, -1.1):
            ua = PhysicalInput(params.t_max, params.phi_max, params.theta_max)
            ub = PhysicalInput(params.t_max, params.phi_max, -params.theta_max)
            va = accel(ua, psi, params.g)
            vb = accel(ub, psi, params.g)
            assert in_U_within(to_physical(va, psi, params.g), params, 1e-9)
            assert in_U_within(to_physical(vb, psi, params.g), params, 1e-9)
            mid = 0.5 * (va + vb)
            assert not in_U_within(to_physical(mid, psi, params.g), params, 1e-9)
