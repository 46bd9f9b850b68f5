"""Flatness-based saturated control for a quadcopter.

Exact linearization of the translational dynamics, the convex command set
with its largest inscribed ball, an optimization-free ray-saturation
operator, offline invariant-ellipsoid certificates, and a closed-loop
simulator with constraint and Lyapunov monitors.
"""

from .constraint_sets import (
    ConstraintParams,
    InscribedBall,
    epsilon_angle,
    in_U,
    in_Vc,
    max_inscribed_ball,
)
from .flat_model import (
    A_MATRIX,
    B_MATRIX,
    DomainError,
    PhysicalInput,
    accel,
    flat_dynamics,
    to_physical,
)
from .saturation import (
    ActiveConstraint,
    SaturationResult,
    saturate,
    saturate_batch,
    saturate_oracle,
)
from .simulation import (
    CircularReference,
    OriginReference,
    Scenario,
    SetpointReference,
    SimulationAborted,
    Trace,
    boundary_states,
    control_law,
    metrics,
    run,
)
from .synthesis import (
    EllipsoidCert,
    GainMatrix,
    SynthesisError,
    VerificationReport,
    eps_max,
    load_certificate,
    lyapunov_residual,
    synthesize_certificate,
    save_certificate,
    solve_stabilizing_P,
    verify_cert,
)

__version__ = "0.1.0"

__all__ = [
    "A_MATRIX",
    "ActiveConstraint",
    "B_MATRIX",
    "CircularReference",
    "ConstraintParams",
    "DomainError",
    "EllipsoidCert",
    "GainMatrix",
    "InscribedBall",
    "OriginReference",
    "PhysicalInput",
    "SaturationResult",
    "Scenario",
    "SetpointReference",
    "SimulationAborted",
    "SynthesisError",
    "Trace",
    "VerificationReport",
    "accel",
    "boundary_states",
    "control_law",
    "eps_max",
    "epsilon_angle",
    "flat_dynamics",
    "in_U",
    "in_Vc",
    "load_certificate",
    "lyapunov_residual",
    "max_inscribed_ball",
    "metrics",
    "run",
    "synthesize_certificate",
    "saturate",
    "saturate_batch",
    "saturate_oracle",
    "save_certificate",
    "solve_stabilizing_P",
    "to_physical",
    "verify_cert",
]
