import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from flatsat import ActiveConstraint, ConstraintParams, DomainError, synthesize_certificate

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *args):
    """Run ``scripts/<name>`` as ``__main__`` with ``args`` as its argv."""
    script = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    runpy.run_path(str(script), run_name="__main__")


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


def dense_P(gain):
    """The assembled 6x6 Lyapunov matrix [[p1 I3, p2 I3], [p2 I3, p3 I3]] of
    a :class:`GainMatrix`, for checks against dense matrix algebra; the
    library works on the 2x2 axis block only."""
    return np.kron(np.array([[gain.p1, gain.p2], [gain.p2, gain.p3]]), np.eye(3))


def dense_P_inv_sqrt(gain):
    """P^(-1/2) of :func:`dense_P` from a dense symmetric eigendecomposition."""
    w, vecs = np.linalg.eigh(dense_P(gain))
    return vecs @ np.diag(1.0 / np.sqrt(w)) @ vecs.T


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
    its smaller relative residual (ball and cone normalized by t_max^2): an
    oracle for ``saturate``'s ``active`` that does not use the exit
    factors."""
    c = w[2] + p.g
    h2 = w[0] * w[0] + w[1] * w[1]
    residuals = {
        ActiveConstraint.BALL: abs(h2 + c * c - p.t2_max) / p.t2_max,
        ActiveConstraint.CONE: abs(h2 - c * c * p.tan2_eps) / p.t2_max,
    }
    return min(residuals, key=residuals.__getitem__)


def in_Vc_within(v, p, tol):
    """Membership in the command set with absolute slack ``tol`` on the
    squared ball and cone clauses and on the half-space, for hand-built
    boundary points that their own rounding puts on either side of the
    boundary. The library's ``in_Vc`` has no slack."""
    v1, v2, v3 = (float(x) for x in v)
    c = v3 + p.g
    h2 = v1 * v1 + v2 * v2
    return h2 + c * c <= p.t2_max + tol and h2 <= c * c * p.tan2_eps + tol and c >= -tol


def in_U_within(u, p, tol):
    """Membership in the physical input box with absolute slack ``tol`` on
    each limit, for the same use as :func:`in_Vc_within`."""
    return (
        -tol <= u.thrust <= p.t_max + tol
        and abs(u.roll) <= p.phi_max + tol
        and abs(u.pitch) <= p.theta_max + tol
    )


@pytest.fixture(scope="session")
def params():
    return ConstraintParams()


@pytest.fixture(scope="session")
def cert075(params):
    return synthesize_certificate(params, alpha=0.75, gamma=1.0)


@pytest.fixture(scope="session")
def cert125(params):
    return synthesize_certificate(params, alpha=1.25, gamma=1.0)
