import math
import re

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

from conftest import epsilon_angle

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


class TestMembership:
    def test_in_U_examples(self, params):
        assert in_U(PhysicalInput(G, 0.0, 0.0), params)
        assert not in_U(PhysicalInput(1.46 * G, 0.0, 0.0), params)
        # boundary attitude at full thrust
        assert in_U(PhysicalInput(1.45 * G, 0.1745, -0.1745), params)

    def test_in_Vc_examples(self, params):
        assert in_Vc((0.0, 0.0, 0.0), params)
        assert in_Vc((0.0, 0.0, params.t_max - G), params)  # ball boundary
        assert not in_Vc((G * params.tan_eps + 1e-3, 0.0, 0.0), params)

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
                assert in_U(to_physical(v, psi, params.g), params, tol=1e-9)

    def test_convexity_witness(self, params):
        rng = np.random.default_rng(29)
        va = sample_in_cone(rng, params, 10_000)
        vb = sample_in_cone(rng, params, 10_000)
        lam = rng.uniform(size=10_000)
        mix = lam[:, None] * va + (1.0 - lam)[:, None] * vb
        assert all(in_Vc(v, params, tol=1e-9) for v in mix)

    def test_pullback_set_is_not_convex(self, params):
        # two full-thrust inputs with the same roll sign both pull back into
        # the set, but their acceleration midpoint demands more roll than the
        # box allows: the roll clause is the non-convex one
        for psi in (0.0, 0.3, -1.1):
            ua = PhysicalInput(params.t_max, params.phi_max, params.theta_max)
            ub = PhysicalInput(params.t_max, params.phi_max, -params.theta_max)
            va = accel(ua, psi, params.g)
            vb = accel(ub, psi, params.g)
            assert in_U(to_physical(va, psi, params.g), params, tol=1e-9)
            assert in_U(to_physical(vb, psi, params.g), params, tol=1e-9)
            mid = 0.5 * (va + vb)
            assert not in_U(to_physical(mid, psi, params.g), params, tol=1e-9)
