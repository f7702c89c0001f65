"""The port-control diagram, built once for every family of systems with ports.

A closed system, its open port machine and the enclosing extended machine
are joined by three machine monomorphisms,

    psi: closed -> port,    xi: port -> enclosing,    a_phi: closed -> enclosing,

and the diagram commutes when a_phi = xi . psi.  The construction is the
same for port-Hamiltonian and metriplectic systems; a family supplies only
node formulas, through the :class:`PortSystem` methods.  They follow the
stack contract of :mod:`sheafsys.ode_behavior`: ``x`` is one state or an
(N, n) stack of them and ``s`` the port signals at the same nodes, so every
pass over a trajectory is one call:

- ``closed_rhs(x)`` and ``port_rhs(x, s)``, the closed and driven dynamics;
- ``zeta_rate(x, s)``, the rate of the port variables zeta of the extended
  space; the port output is its negative;
- ``port_side_residuals(e)``, algebraic conditions on state and signals
  that membership of the port and enclosing machines must meet as well
  (none by default), folded in by
  :func:`sheafsys.ode_behavior.with_conditions`;
- ``structure_residuals(x)``, the family's structure laws on a node stack,
  each named by what its failure says, as (worst residual, node) pairs.

A family declares each of its own formulas as a :func:`formula` field, with
its name and node shape.  Building a system lifts every formula to the stack
contract, checks its shape and holds its laws (:func:`check_structure`), so
a system that exists has passed them all and callers use its formulas directly.

The enclosing system adds to the port system an auxiliary energy on the
port variables, which describes the nature of the ports.  It is linear,
H_aux = u^T zeta, and for a metriplectic system the auxiliary entropy is
S_aux = tau^T zeta, so the signals s are grad_zeta of the auxiliary
generators and an enclosing member is (x, zeta, s): the signal samples are
channels after zeta, as on a port member.  The enclosing machine is the
machine of the extended field [port_rhs(x, s), zeta_rate(x, s)] driven by s,
with the port side conditions, which make the extended noninteraction laws
hold (see :mod:`sheafsys.metriplectic`).  The embedding and the port-to-extended map integrate the
same zeta-rate array with the same trapezoid rule, so the triangle closes
bit-exactly on the zeta channels.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NoninteractionViolation, NotAMember, StructureViolation
from .interval_sheaf import DEFAULT_STEP, Trajectory, worst_defect
from .machine import (
    DiagramReport,
    Machine,
    MachineMorphism,
    iso_machine,
    verify_port_control_diagram,
)
from .ode_behavior import (
    DEFAULT_RESIDUAL_TOL,
    OdeBehavior,
    VectorField,
    batched,
    membership_residual,
    pointwise,
    transpose,
)

MATRIX_TOL = 1e-10
GRAD_CONSISTENCY_RTOL = 1e-5


class PortSystem:
    """Node formulas of a system with ports; see the module docstring.

    Families are frozen dataclasses that subclass this one, with fields
    ``n`` (state dimension), ``m`` (port dimension), ``state_labels`` and
    their :func:`formula` fields.
    """

    n: int
    m: int
    state_labels: tuple

    @property
    def zeta_labels(self) -> tuple:
        return tuple(f"zeta{i}" for i in range(self.m))

    @property
    def input_labels(self) -> tuple:
        return tuple(f"u{i}" for i in range(self.m))

    @property
    def output_labels(self) -> tuple:
        return tuple(f"y{i}" for i in range(self.m))

    @property
    def signal_labels(self) -> tuple:
        """Channel names of the port signals s."""
        return self.input_labels

    def __post_init__(self):
        """Fill in the default state labels and check them, then lift each
        :func:`formula` to the stack contract and check its node shape at
        the first default probe point and on the (P, n) stack of them all (a
        matrix may give one matrix for a stack, as a constant does), then
        hold the structure laws (:func:`check_structure`)."""
        labels = tuple(self.state_labels or (f"x{i}" for i in range(self.n)))
        object.__setattr__(self, "state_labels", labels)
        if len(labels) != self.n:
            raise DimensionMismatch(f"{len(labels)} labels for state dimension {self.n}")
        channels = labels + self.zeta_labels + self.signal_labels
        if len(set(channels)) != len(channels):  # channels are looked up by name
            raise DimensionMismatch(f"state labels {labels} repeat a name or reuse a port channel's")
        points = np.array(default_probe_points(self.n))
        for f in fields(self):
            if "formula" not in f.metadata:
                continue
            name, dims = f.metadata["formula"]
            shape = tuple(getattr(self, d) for d in dims)
            value = getattr(self, f.name)
            value = as_matrix_field(value, *shape, name) if len(shape) == 2 else pointwise(value)
            object.__setattr__(self, f.name, value)
            for x, expected in ((points[0], shape), (points, (len(points),) + shape)):
                got = np.shape(value(x))
                if got != expected and not (len(shape) == 2 and got == shape):
                    raise DimensionMismatch(f"{name}(x) has shape {got}, expected {expected}")
        check_structure(self)

    def port_side_residuals(self, e: Trajectory) -> dict:
        return {}


def default_probe_points(n: int) -> list:
    """Deterministic structure-check points: origin, axes, mixed corners."""
    points = [np.zeros(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        points.append(e)
        points.append(-0.5 * e)
    points.append(0.3 * np.ones(n))
    points.append(np.array([(-0.7) ** (i + 1) for i in range(n)]))
    return points


def worst_per_condition(conditions: dict, nodes: int) -> dict:
    """(worst residual, node) over ``nodes`` nodes of each named condition, by
    :func:`~sheafsys.interval_sheaf.worst_defect`: its value is an (N, k)
    stack, or one (k,) value all nodes share, that vanishes where it holds,
    and its residual at a node the largest entry in absolute value."""
    return {
        name: worst_defect(np.broadcast_to(np.max(np.abs(v), axis=-1, initial=0.0), (nodes,)))
        for name, v in conditions.items()
    }


def entries(M: np.ndarray) -> np.ndarray:
    """The entries of each matrix of a stack as one vector per node."""
    return M.reshape(M.shape[:-2] + (-1,))


def negative_eigenvalues(M: np.ndarray) -> np.ndarray:
    """The eigenvalues of the symmetric part of each matrix, those above 0 set
    to 0, so all vanish where it is positive semidefinite; NaN for a matrix
    with a non-finite entry, which eigvalsh cannot take."""
    S = 0.5 * (M + transpose(M))
    finite = np.isfinite(S).all(axis=(-2, -1))[..., np.newaxis]
    eigenvalues = np.linalg.eigvalsh(np.where(finite[..., np.newaxis], S, 0.0))
    return np.where(finite, np.minimum(eigenvalues, 0.0), np.nan)


def gradient_gap(grad: Callable, energy: Callable, x: np.ndarray) -> np.ndarray:
    """A gradient minus central differences of its energy, relative to
    max(1, the largest |entry| of the differences), at every node."""
    reference = fd_gradient(energy, x.shape[-1])(x)
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=-1, keepdims=True))
    return (grad(x) - reference) / scale


def check_structure(system: PortSystem) -> None:
    """Hold the laws of ``system.structure_residuals`` at the default probe
    points in the table's order, a gradient law ("grad ...") to
    GRAD_CONSISTENCY_RTOL and the others to MATRIX_TOL.  The first broken
    law raises NoninteractionViolation (J grad S, G grad H) or
    StructureViolation, naming the law and its worst point."""
    points = np.array(default_probe_points(system.n))
    for law, (residual, node) in system.structure_residuals(points).items():
        if not residual <= (GRAD_CONSISTENCY_RTOL if law.startswith("grad ") else MATRIX_TOL):
            at = f"at x = {points[node].tolist()}"
            if law in ("J grad S", "G grad H"):
                raise NoninteractionViolation(f"{law} = {residual:.3e} {at}")
            raise StructureViolation(f"{law} {at} (residual {residual:.3e})")


def formula(name: str, dims: str):
    """A port-system field holding the node formula ``name``, whose value at
    one node has the shape that ``dims`` spells in dimension names: "nm" is
    (n, m), "n" a vector, "" a scalar."""
    return field(metadata={"formula": (name, dims)})


def as_matrix_field(value, rows: int, cols: int, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a constant matrix or a callable into a matrix field.

    The field maps a state stack (N, n) to (N, rows, cols), or one state to
    one matrix; a constant field gives its one matrix, shared by every node
    of a stack, and its shape is checked here.  It carries that matrix as
    its ``constant`` attribute (see :func:`constant_matrix`), so a family
    can fold it into its formulas once.  A callable of one node is lifted
    with :func:`~sheafsys.ode_behavior.pointwise`; its shape is checked when
    the system is built.
    """
    if callable(value):
        return pointwise(value)
    constant = np.array(value, dtype=float)
    if constant.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {constant.shape}, expected ({rows}, {cols})")
    constant.setflags(write=False)
    matrix_field = batched(lambda x: constant)
    matrix_field.constant = constant
    return matrix_field


def constant_matrix(matrix_field) -> Optional[np.ndarray]:
    """The read-only matrix of a constant matrix field, None for any other."""
    return getattr(matrix_field, "constant", None)


def fd_gradient(h_fn: Callable[[np.ndarray], float], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Central-difference gradient with step 1e-6 * (1 + |x_i|) per axis."""
    h_fn = pointwise(h_fn)

    @batched
    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for i in range(n):
            step = 1e-6 * (1.0 + np.abs(x[..., i]))
            plus = x.copy()
            minus = x.copy()
            plus[..., i] += step
            minus[..., i] -= step
            out[..., i] = (h_fn(plus) - h_fn(minus)) / (2.0 * step)
        return out

    return grad


def cumulative_trapezoid(w: np.ndarray, h: float) -> np.ndarray:
    """Trapezoidal antiderivative on the grid with value 0 at the first node."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    out[1:] = np.cumsum(0.5 * h * (w[:-1] + w[1:]), axis=0)
    return out


def _zero_signals(system: PortSystem, e: Trajectory) -> np.ndarray:
    return np.zeros((e.num_nodes, len(system.signal_labels)))


# ---------------------------------------------------------------------------
# behaviors


def closed_field(system: PortSystem) -> VectorField:
    return VectorField(system.n, batched(lambda t, x: system.closed_rhs(x)))


def port_field(system: PortSystem) -> VectorField:
    """x' = port_rhs(x, s), the port signals s its input."""
    return VectorField(system.n, batched(lambda t, x, s: system.port_rhs(x, s)))


def extended_field(system: PortSystem) -> VectorField:
    """(x, zeta)' = [port_rhs(x, s), zeta_rate(x, s)], the port signals s
    its input."""
    n = system.n

    @batched
    def rhs(t, xz, s):
        x = xz[..., :n]
        return np.concatenate([system.port_rhs(x, s), system.zeta_rate(x, s)], axis=-1)

    return VectorField(n + system.m, rhs)


def closed_behavior(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> OdeBehavior:
    """The closed behavior x' = closed_rhs(x)."""
    return OdeBehavior(closed_field(system), grid_step, residual_tolerance, system.state_labels)


def extended_behavior(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> OdeBehavior:
    """The enclosing behavior: members (x, zeta, s) of the extended field,
    the signals s held to the port side conditions."""
    return enclosing_machine(system, grid_step, residual_tolerance).behavior


def embed(
    system: PortSystem,
    e: Trajectory,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Trajectory:
    """Embed a closed-system member into the extended behavior.

    Appends the zeta channels, the trapezoidal antiderivative of the zeta
    rate with zero signals, anchored at zeta(0) = 0, and the zero signal
    channels: a closed run is enclosed with no auxiliary energy.
    """
    residual = membership_residual(closed_field(system), e)
    if not residual <= residual_tolerance:
        raise NotAMember(
            f"trajectory is not a closed-system member (residual {residual:.3e})"
        )
    signals = _zero_signals(system, e)
    zeta = cumulative_trapezoid(system.zeta_rate(e.values, signals), e.grid_step)
    return Trajectory(
        np.concatenate([e.values, zeta, signals], axis=1),
        e.grid_step,
        e.shift,
        e.labels + system.zeta_labels + system.signal_labels,
    )


# ---------------------------------------------------------------------------
# machines


def closed_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The closed system as a machine.

    The port leg is the port output with zero signals; the constant leg
    lands in the one-point sheaf (one zero channel per port signal), which
    is what the diagram verifier checks for closedness.
    """
    behavior = closed_behavior(system, grid_step, residual_tolerance)
    constant_labels = tuple(f"o{i}" for i in range(len(system.signal_labels)))

    def a_leg(e: Trajectory) -> Trajectory:
        y = -system.zeta_rate(e.values, _zero_signals(system, e))
        return Trajectory(y, e.grid_step, e.shift, system.output_labels)

    def e_leg(e: Trajectory) -> Trajectory:
        return Trajectory(_zero_signals(system, e), e.grid_step, e.shift, constant_labels)

    return Machine(behavior, a_leg, e_leg, system.output_labels, constant_labels, "closed")


def port_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The open port machine x' = port_rhs(x, s), y = -zeta_rate(x, s).

    Members pack state and signals: (x, u), n + m channels, for a
    port-Hamiltonian system, and (x, u, tau_in), n + 2m channels, for a
    metriplectic one.  Membership adds the family's port side conditions to
    the dynamics residual.  The output leg evaluates the port output
    node-wise: B^T grad H, or B^T grad H - A^T grad S - Jt u - Gt tau.  The
    sampler takes one input curve per signal group:
    ``sampler(x0, u_curve, length, shift=0.0)``, or
    ``sampler(x0, u_curve, tau_curve, length, shift=0.0)``.
    """
    return iso_machine(
        port_field(system),
        batched(lambda t, x, s: -system.zeta_rate(x, s)),
        len(system.signal_labels),
        system.m,
        grid_step,
        residual_tolerance,
        state_labels=system.state_labels,
        input_labels=system.signal_labels,
        output_labels=system.output_labels,
        name="port",
        side_residuals=system.port_side_residuals,
    )


def enclosing_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The enclosing machine: the port machine with zeta as extra state.

    Members are (x, zeta, s), the signals s the gradient in zeta of the
    linear auxiliary energy H_aux = u^T zeta (and, for a metriplectic
    system, of S_aux = tau^T zeta).  The dynamics are the extended field,
    membership adds the port side conditions, the input leg extracts the
    signals and the output leg evaluates -zeta_rate(x, s) node-wise.
    """
    n = system.n
    return iso_machine(
        extended_field(system),
        batched(lambda t, xz, s: -system.zeta_rate(xz[..., :n], s)),
        len(system.signal_labels),
        system.m,
        grid_step,
        residual_tolerance,
        state_labels=system.state_labels + system.zeta_labels,
        input_labels=system.signal_labels,
        output_labels=system.output_labels,
        name="enclosing",
        side_residuals=system.port_side_residuals,
    )


# ---------------------------------------------------------------------------
# the diagram


def _ident(e: Trajectory) -> Trajectory:
    return e


def closed_to_port_morphism(system: PortSystem) -> MachineMorphism:
    """Include the closed system into the port machine with zero signals.

    Swapped variant: the closed port leg pairs with the port machine's
    output and the constant leg with its (zero) input.
    """

    def beta(e: Trajectory) -> Trajectory:
        values = np.concatenate([e.values, _zero_signals(system, e)], axis=1)
        return Trajectory(values, e.grid_step, e.shift, e.labels + system.signal_labels)

    return MachineMorphism(beta, _ident, _ident, "swapped", "closed into port")


def port_to_extended_morphism(system: PortSystem, integral_sign: float = 1.0) -> MachineMorphism:
    """Map a port run (x, s) to the extended member (x, zeta, s).

    zeta is the trapezoidal antiderivative of the zeta rate, as in
    :func:`embed`.  ``integral_sign`` exists for violation tests; any value
    other than 1.0 corrupts the quadrature deliberately.
    """

    def beta(e: Trajectory) -> Trajectory:
        x = e.channels(system.state_labels)
        s = e.channels(system.signal_labels)
        zeta = integral_sign * cumulative_trapezoid(system.zeta_rate(x, s), e.grid_step)
        return Trajectory(
            np.concatenate([x, zeta, s], axis=1),
            e.grid_step,
            e.shift,
            system.state_labels + system.zeta_labels + system.signal_labels,
        )

    return MachineMorphism(beta, _ident, _ident, "straight", "port into extended")


def build_diagram(
    system: PortSystem,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    integral_sign: float = 1.0,
) -> DiagramReport:
    """Assemble the three machines and morphisms and verify the triangle.

    Probes must be closed-system members; their grid step fixes the
    machines' grid.  ``integral_sign`` is passed to the port-to-extended
    map so violation tests can corrupt the quadrature.  The builders and the
    embedding are called through this module's names, at call time, so
    whatever rebinds those names sees the calls.
    """
    if not probes:
        raise NotAMember("need at least one closed-system probe")
    h = probes[0].grid_step
    closed = closed_machine(system, h, residual_tolerance)
    port = port_machine(system, h, residual_tolerance)
    enclosing = enclosing_machine(system, h, residual_tolerance)
    embedding = MachineMorphism(
        lambda e: embed(system, e, residual_tolerance),
        _ident, _ident, "swapped", "closed into extended",
    )
    return verify_port_control_diagram(
        closed,
        enclosing,
        port,
        closed_to_port_morphism(system),
        port_to_extended_morphism(system, integral_sign),
        embedding,
        probes,
        tolerance,
    )
