import flatsat
from flatsat import constraint_sets, flat_model, saturation, simulation, synthesis

MODULES = (flat_model, constraint_sets, saturation, synthesis, simulation)

# the names the package exported before it derived its list from the
# modules, less the test-only ones that moved into the tests as oracles
# (A_MATRIX, B_MATRIX, flat_dynamics, epsilon_angle) and InscribedBall, a
# one-field wrapper that max_inscribed_ball no longer returns
EXPORTED_BEFORE = {
    "ActiveConstraint", "CircularReference", "ConstraintParams",
    "DomainError", "EllipsoidCert", "GainMatrix", "OriginReference",
    "PhysicalInput", "SaturationResult", "Scenario", "SetpointReference",
    "SimulationAborted", "SynthesisError", "Trace", "VerificationReport",
    "accel", "boundary_states", "control_law", "eps_max", "in_U", "in_Vc",
    "load_certificate", "lyapunov_residual", "max_inscribed_ball",
    "metrics", "run", "synthesize_certificate", "saturate",
    "saturate_batch", "saturate_oracle", "save_certificate",
    "solve_stabilizing_P", "to_physical", "verify_cert",
}


def test_all_is_the_module_lists_joined():
    joined = [name for module in MODULES for name in module.__all__]
    assert flatsat.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(flatsat, name) is getattr(module, name), name


def test_no_name_lost():
    assert len(EXPORTED_BEFORE) == 34
    assert EXPORTED_BEFORE <= set(flatsat.__all__)
    assert set(flatsat.__all__) - EXPORTED_BEFORE == {
        "DEFAULT_TOL", "CSV_COLUMNS", "RunMetrics", "CERT_FORMAT",
    }
    assert "kvformat" not in flatsat.__all__
