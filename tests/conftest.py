import numpy as np
import pytest

from flatsat import ActiveConstraint, ConstraintParams, synthesize_certificate

# initial state used by the gamma-comparison regulation studies
CANONICAL_X0 = np.array([-3.77, -0.46, -3.60, 0.94, -0.24, 2.31])


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
