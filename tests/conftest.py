import math

import numpy as np
import pytest

from flatsat import ActiveConstraint, ConstraintParams, DomainError, synthesize_certificate

# initial state used by the gamma-comparison regulation studies
CANONICAL_X0 = np.array([-3.77, -0.46, -3.60, 0.94, -0.24, 2.31])

# the flat model as a matrix oracle: xi_dot = A xi + B v with
# xi = (pos, vel) and v the commanded acceleration
A_MATRIX = np.block(
    [[np.zeros((3, 3)), np.eye(3)], [np.zeros((3, 3)), np.zeros((3, 3))]]
)
B_MATRIX = np.vstack([np.zeros((3, 3)), np.eye(3)])
A_MATRIX.setflags(write=False)
B_MATRIX.setflags(write=False)


def flat_dynamics(xi, v):
    """State derivative of the acceleration-commanded model: (vel, v)."""
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.concatenate([xi[3:], v])


def epsilon_angle(v, g):
    """Tilt angle implied by an acceleration command: the angle between the
    commanded thrust direction and vertical. Upper-bounds both attitude
    angles produced by the input map. Requires ``v[2] > -g``."""
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    c = v3 + g
    if c <= 0.0:
        raise DomainError(f"v3 must exceed -g, got v3={v3} with g={g}")
    return math.atan(math.sqrt(v1 * v1 + v2 * v2) / c)


def residual_active(w, p):
    """The boundary piece a saturated output ``w`` lies on, classified by
    its smallest relative residual (ball and cone normalized by t_max^2,
    half-space by g): an oracle for ``saturate``'s ``active`` that does not
    use the exit factors."""
    c = w[2] + p.g
    h2 = w[0] * w[0] + w[1] * w[1]
    residuals = {
        ActiveConstraint.BALL: abs(h2 + c * c - p.t2_max) / p.t2_max,
        ActiveConstraint.CONE: abs(h2 - c * c * p.tan2_eps) / p.t2_max,
        ActiveConstraint.HALFSPACE: abs(c) / p.g,
    }
    return min(residuals, key=residuals.__getitem__)


@pytest.fixture(scope="session")
def params():
    return ConstraintParams()


@pytest.fixture(scope="session")
def cert075(params):
    return synthesize_certificate(params, alpha=0.75, gamma=1.0)


@pytest.fixture(scope="session")
def cert125(params):
    return synthesize_certificate(params, alpha=1.25, gamma=1.0)
