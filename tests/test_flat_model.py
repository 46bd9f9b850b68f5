import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatsat import DomainError, PhysicalInput, accel, to_physical

from conftest import A_MATRIX, B_MATRIX, epsilon_angle, flat_dynamics

G = 9.81


def test_hover_is_equilibrium():
    a = accel(PhysicalInput(G, 0.0, 0.0), psi=0.7, g=G)
    assert np.max(np.abs(a)) == 0.0


def test_zero_thrust_free_fall():
    for psi in (0.0, 1.0, -2.3):
        a = accel(PhysicalInput(0.0, 0.0, 0.0), psi=psi, g=G)
        assert np.allclose(a, [0.0, 0.0, -G], atol=0.0)


def test_accel_against_high_precision_evaluation():
    # oracle: the same trig expression evaluated by mpmath at 40 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(2024)
    cases = [(1.45 * G, 0.1745, 0.1745, 0.0)]
    for _ in range(25):
        cases.append(
            (
                float(rng.uniform(0.0, 20.0)),
                float(rng.uniform(-1.4, 1.4)),
                float(rng.uniform(-1.4, 1.4)),
                float(rng.uniform(-math.pi, math.pi)),
            )
        )
    for t, phi, theta, psi in cases:
        got = accel(PhysicalInput(t, phi, theta), psi, G)
        tm, phim, thm, psim = map(mp.mpf, (t, phi, theta, psi))
        want = [
            tm * (mp.cos(phim) * mp.sin(thm) * mp.cos(psim) + mp.sin(phim) * mp.sin(psim)),
            tm * (mp.cos(phim) * mp.sin(thm) * mp.sin(psim) - mp.sin(phim) * mp.cos(psim)),
            tm * mp.cos(phim) * mp.cos(thm) - mp.mpf(G),
        ]
        for a, b in zip(got, want):
            assert abs(a - float(b)) < 1e-12


def test_to_physical_hover():
    u = to_physical((0.0, 0.0, 0.0), psi=1.2, g=G)
    assert u.thrust == pytest.approx(G, abs=0.0)
    assert u.roll == 0.0
    assert u.pitch == 0.0


def test_to_physical_near_apex_limit():
    u = to_physical((0.0, 0.0, -G + 1e-9), psi=0.0, g=G)
    assert u.thrust == pytest.approx(1e-9, rel=1e-6)
    assert u.roll == 0.0
    assert u.pitch == 0.0


def test_to_physical_rejects_apex_and_below():
    with pytest.raises(DomainError):
        to_physical((0.0, 0.0, -G), psi=0.0, g=G)
    with pytest.raises(DomainError):
        to_physical((1.0, 1.0, -2 * G), psi=0.0, g=G)


@pytest.mark.parametrize(
    "v", [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0], np.zeros((3, 1)), 0.0],
    ids=lambda v: str(np.shape(v)),
)
def test_to_physical_rejects_other_than_three_values(v):
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(v)}")):
        to_physical(v, psi=0.0, g=G)


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        PhysicalInput(math.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        PhysicalInput(-1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PhysicalInput(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        accel(PhysicalInput(G, 0.0, 0.0), psi=math.inf, g=G)
    with pytest.raises(DomainError):
        to_physical((math.nan, 0.0, 0.0), psi=0.0, g=G)


@pytest.mark.parametrize("psi, g", [(math.nan, G), (math.inf, G), (-math.inf, G),
                                    (0.0, math.nan), (0.0, math.inf)])
def test_non_finite_yaw_or_gravity_rejected(psi, g):
    with pytest.raises(DomainError, match="yaw and gravity must be finite"):
        to_physical((0.1, -0.2, 0.3), psi=psi, g=g)
    with pytest.raises(DomainError, match="yaw and gravity must be finite"):
        accel(PhysicalInput(G, 0.05, -0.05), psi=psi, g=g)


@settings(max_examples=300, deadline=None)
@given(
    v1=st.floats(-60.0, 60.0),
    v2=st.floats(-60.0, 60.0),
    v3=st.floats(-G + 1e-6, 60.0),
    psi=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_round_trip_identity(v1, v2, v3, psi):
    # the input map must invert the acceleration map exactly on its domain
    v = (v1, v2, v3)
    back = accel(to_physical(v, psi, G), psi, G)
    assert np.max(np.abs(back - np.array(v))) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-60.0, 60.0),
    v2=st.floats(-60.0, 60.0),
    v3=st.floats(-G + 1e-6, 60.0),
    psi=st.floats(-7.0, 7.0),
)
def test_thrust_norm_and_yaw_equivariance(v1, v2, v3, psi):
    u = to_physical((v1, v2, v3), psi, G)
    assert abs(u.thrust - math.hypot(v1, v2, v3 + G)) <= 1e-12
    # thrust never depends on yaw
    u0 = to_physical((v1, v2, v3), 0.0, G)
    assert u.thrust == u0.thrust


@settings(max_examples=300, deadline=None)
@given(
    v1=st.floats(-25.0, 25.0),
    v2=st.floats(-25.0, 25.0),
    v3=st.floats(-G + 1.0, 40.0),
    psi=st.floats(-7.0, 7.0),
)
def test_attitude_angles_bounded_by_tilt_angle(v1, v2, v3, psi):
    # tan() amplifies rounding near pi/2, hence the moderated command domain
    u = to_physical((v1, v2, v3), psi, G)
    eps = epsilon_angle((v1, v2, v3), G)
    assert abs(math.sin(u.roll)) <= math.sin(eps) + 1e-12
    assert abs(math.tan(u.pitch)) <= math.tan(eps) + 1e-12


def test_flat_dynamics_equilibrium_and_block_structure():
    assert np.all(flat_dynamics(np.zeros(6), np.zeros(3)) == 0.0)
    out = flat_dynamics([1, 2, 3, 4, 5, 6], [7, 8, 9])
    assert np.array_equal(out, [4, 5, 6, 7, 8, 9])


def test_flat_dynamics_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = rng.normal(size=6)
        v = rng.normal(size=3)
        want = A_MATRIX @ xi + B_MATRIX @ v
        assert np.allclose(flat_dynamics(xi, v), want, atol=0.0)


def checked_physical(v, psi, g):
    """The input map's formulas followed by every :class:`PhysicalInput`
    check: the oracle for the one overflow check that ``to_physical``
    leaves to :class:`PhysicalInput`."""
    v1, v2, v3 = v
    cpsi, spsi = math.cos(psi), math.sin(psi)
    c = v3 + g
    t = math.sqrt(v1 * v1 + v2 * v2 + c * c)
    a = v1 * cpsi + v2 * spsi
    b = v1 * spsi - v2 * cpsi
    roll = math.atan2(b, math.hypot(a, c))
    pitch = math.atan2(a, c)
    return PhysicalInput(t, roll, pitch)


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None)
@given(
    v1=st.floats(-1e308, 1e308),
    v2=st.floats(-1e308, 1e308),
    v3=st.floats(-G, 1e308, exclude_min=True),
    psi=st.floats(allow_nan=False, allow_infinity=False),
)
@example(v1=1e308, v2=1e308, v3=1e308, psi=math.pi / 4)
@example(v1=1.3e154, v2=0.0, v3=0.0, psi=0.0)
@example(v1=-1e308, v2=1e308, v3=-G + 1e-15, psi=-3 * math.pi / 4)
@example(v1=1e-300, v2=-1e308, v3=5e-324, psi=1e300)
def test_float_input_map_raises_exactly_when_physical_check_does(v1, v2, v3, psi):
    args = ((v1, v2, v3), psi, G)
    assert outcome(to_physical, *args) == outcome(checked_physical, *args)
