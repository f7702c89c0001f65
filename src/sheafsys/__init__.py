"""Behaviors of dynamical systems as interval sheaves and machine diagrams."""

__version__ = "0.1.0"

from .errors import (
    SheafSysError,
    OutOfRange,
    MisalignedOffset,
    JunctionMismatch,
    ShiftMismatch,
    GridMismatch,
    NotAMember,
    BlowUp,
    DimensionMismatch,
    StructureViolation,
    NoninteractionViolation,
    ConstraintViolation,
    NotClosed,
    ConfigError,
)
from .interval_sheaf import (
    Trajectory,
    identical,
    sup_distance,
    restrict,
    glue,
    BehaviorSheaf,
    CutCheck,
    AxiomReport,
    check_sheaf_axioms,
    write_csv,
    read_csv,
)
from .ode_behavior import (
    VectorField,
    batched,
    pointwise,
    grid_derivative,
    integrate,
    integrate_batch,
    membership_residual,
    OdeBehavior,
)
from .machine import (
    Machine,
    iso_machine,
    MachineMorphism,
    identity_morphism,
    morphism_defect,
    compose_morphisms,
    leg_restriction_defect,
    injectivity_probe,
    ProbeResult,
    DiagramReport,
    verify_port_control_diagram,
)
from .port_diagram import check_structure
from .port_hamiltonian import (
    PHSystem,
    ph_system,
    closed_behavior,
    extended_behavior,
    embed_closed,
    power_balance,
    dissipation_margin,
    closed_energy_drift,
    output_stencil_defect,
    closed_machine,
    enclosing_machine,
    ph_iso_machine,
    build_ph_diagram,
)
from .metriplectic import (
    MetriplecticSystem,
    metriplectic_system,
    closed_metriplectic_behavior,
    embed_metriplectic,
    side_condition_residuals,
    assert_side_conditions,
    degeneracy_audit,
    rate_audit,
    port_metriplectic_machine,
    closed_metriplectic_machine,
    enclosing_metriplectic_machine,
    build_metriplectic_diagram,
)
from .systems import (
    Polynomial,
    parse_polynomial,
    mass_spring_system,
    rigid_body_system,
    blowup_field,
    linear_field,
    SystemBundle,
    BUILTIN_SYSTEMS,
    resolve_builtin,
    load_config,
    bundle_from_config,
    seeded_initial_states,
)

__all__ = [name for name in dir() if not name.startswith("_")]
