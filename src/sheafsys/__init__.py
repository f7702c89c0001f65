"""Behaviors of dynamical systems as interval sheaves and machine diagrams."""

import types as _types

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
    DiagramReport,
    verify_port_control_diagram,
)
from .port_diagram import (
    check_structure,
    closed_behavior,
    embed,
    closed_machine,
    port_machine,
    enclosing_machine,
    build_diagram,
)
from .port_hamiltonian import (
    PHSystem,
    power_balance,
    dissipation_margin,
    closed_energy_drift,
)
from .metriplectic import (
    MetriplecticSystem,
    side_condition_residuals,
    degeneracy_audit,
    rate_audit,
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

# what the imports above bind, without the submodules they load
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
