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
- ``constant_port_map()``, the constant matrix B when ``port_rhs(x, s)``
  is ``closed_rhs(x) + B s``, or None;
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
hold (see :mod:`sheafsys.metriplectic`).  The port and enclosing machines
are built by one function, and so are the port member (x, 0) of a closed
run and the enclosing member (x, zeta, s) of a port run.  A diagram's
embedding a_phi is xi after psi, so a probe's a_phi image is its xi . psi
image, one object, and the triangle closes bit-exactly.
"""

from __future__ import annotations

from dataclasses import field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NoninteractionViolation, NotAMember, StructureViolation
from .interval_sheaf import DEFAULT_STEP, Trajectory, require_member, worst_row
from .machine import (
    DiagramReport,
    Machine,
    MachineMorphism,
    _once,
    iso_machine,
    node_map,
    verify_port_control_diagram,
)
from .ode_behavior import (
    DEFAULT_RESIDUAL_TOL,
    OdeBehavior,
    VectorField,
    batched,
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
            value = as_matrix_field(value) if len(shape) == 2 else pointwise(value)
            object.__setattr__(self, f.name, value)
            for x, expected in ((points[0], shape), (points, (len(points),) + shape)):
                got = np.shape(value(x))
                if got != expected and not (len(shape) == 2 and got == shape):
                    raise DimensionMismatch(f"{name}(x) has shape {got}, expected {expected}")
        check_structure(self)

    def constant_port_map(self) -> Optional[np.ndarray]:
        """The constant matrix B when port_rhs(x, s) is closed_rhs(x) +
        matvec(B, s), bit for bit; None otherwise (the default)."""
        return None

    def port_side_residuals(self, e: Trajectory) -> dict:
        return {}


def default_probe_points(n: int) -> list:
    """Deterministic structure-check points: origin, axes, mixed corners."""
    points = [np.zeros(n)]
    for i in range(n):
        for value in (1.0, -0.5):  # set, not scaled: -0.5 * e would hold -0.0
            e = np.zeros(n)
            e[i] = value
            points.append(e)
    points.append(0.3 * np.ones(n))
    points.append(np.array([(-0.7) ** (i + 1) for i in range(n)]))
    return points


def worst_per_condition(conditions: dict) -> dict:
    """(worst residual, node) of each named condition, by
    :func:`~sheafsys.interval_sheaf.worst_row`: its value is an (N, k)
    stack, or one (k,) value all nodes share (worst at node 0), that
    vanishes where it holds, and its residual at a node the largest entry
    in absolute value."""
    return {name: worst_row(np.atleast_2d(v)) for name, v in conditions.items()}


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
    max(1, the largest |entry| of the differences), at every node.  The
    differences run over the axes in order, with step 1e-6 (1 + |x_i|) on
    axis i; both formulas follow the stack contract."""
    points = np.asarray(x, dtype=float)
    reference = np.empty(points.shape)
    for i in range(points.shape[-1]):
        step = 1e-6 * (1.0 + np.abs(points[..., i]))
        plus, minus = points.copy(), points.copy()
        plus[..., i] += step
        minus[..., i] -= step
        reference[..., i] = (energy(plus) - energy(minus)) / (2.0 * step)
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


def as_matrix_field(value) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a constant matrix or a callable into a matrix field.

    The field maps a state stack (N, n) to a stack of matrices, or one state
    to one matrix; a constant field gives its one matrix, shared by every
    node of a stack.  It carries that matrix as its ``constant`` attribute
    (see :func:`constant_matrix`), so a family can fold it into its formulas
    once.  A callable of one node is lifted with
    :func:`~sheafsys.ode_behavior.pointwise`.  The shape of either is
    checked when the system is built.
    """
    if callable(value):
        return pointwise(value)
    constant = np.array(value, dtype=float)
    constant.setflags(write=False)
    matrix_field = batched(lambda x: constant)
    matrix_field.constant = constant
    return matrix_field


def constant_matrix(matrix_field) -> Optional[np.ndarray]:
    """The read-only matrix of a constant matrix field, None for any other."""
    return getattr(matrix_field, "constant", None)


def cumulative_trapezoid(w: np.ndarray, h: float) -> np.ndarray:
    """Trapezoidal antiderivative on the grid with value 0 at the first node."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    out[1:] = np.cumsum(0.5 * h * (w[:-1] + w[1:]), axis=0)
    return out


def _port_member(system: PortSystem, e: Trajectory) -> Trajectory:
    """The port member (x, 0) of a closed run x: zero signals after the state."""
    values = np.concatenate([e.values, np.zeros((e.num_nodes, len(system.signal_labels)))], axis=1)
    return Trajectory(values, e.grid_step, e.shift, e.labels + system.signal_labels)


def _enclosing_member(system: PortSystem, e: Trajectory, integral_sign: float) -> Trajectory:
    """The enclosing member (x, zeta, s) of a port run (x, s): zeta is
    ``integral_sign`` times the trapezoidal antiderivative of the zeta rate,
    anchored at zeta(0) = 0."""
    x = e.channels(system.state_labels)
    s = e.channels(system.signal_labels)
    zeta = integral_sign * cumulative_trapezoid(system.zeta_rate(x, s), e.grid_step)
    return Trajectory(
        # column-major, as concatenated: the formulas read it faster than C order
        np.concatenate([x, zeta, s], axis=1),
        e.grid_step,
        e.shift,
        system.state_labels + system.zeta_labels + system.signal_labels,
    )


# ---------------------------------------------------------------------------
# behaviors


def closed_field(system: PortSystem) -> VectorField:
    return VectorField(system.n, batched(lambda t, x: system.closed_rhs(x)))


def port_field(system: PortSystem) -> VectorField:
    """x' = port_rhs(x, s), the port signals s its input; affine, with
    closed_rhs as its drift, when the system's port map is constant."""
    port = system.constant_port_map()
    affine = None if port is None else (closed_field(system).rhs, port)
    return VectorField(system.n, batched(lambda t, x, s: system.port_rhs(x, s)), affine)


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


def embed(
    system: PortSystem,
    e: Trajectory,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Trajectory:
    """Embed a closed-system member into the extended behavior: a closed
    run is enclosed with no auxiliary energy, as xi of its psi image.

    The run must be a member of the closed behavior on its own grid, its
    labels the state labels (NotAMember otherwise).  :func:`build_diagram`
    does not call this: its a_phi is xi after psi, and the verifier's probe
    gate holds the probes to the closed behavior.
    """
    behavior = closed_behavior(system, e.grid_step, residual_tolerance)
    require_member(behavior, e, "trajectory is not a closed-system member")
    return _enclosing_member(system, _port_member(system, e), 1.0)


# ---------------------------------------------------------------------------
# machines


def closed_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The closed system as a machine.

    The port leg (the port output at zero signals) and the constant leg, in
    the one-point sheaf (one zero channel per port signal) as the diagram
    verifier's closedness gate checks, are :func:`~sheafsys.machine.node_map` legs.
    """
    behavior = closed_behavior(system, grid_step, residual_tolerance)
    zeros = lambda t: np.zeros((len(t), len(system.signal_labels)))
    a_leg = node_map(lambda t, x: -system.zeta_rate(x, zeros(t)), [system.state_labels],
                     system.output_labels, "closed", "input")
    e_leg = node_map(zeros, [], tuple(f"o{i}" for i in range(len(system.signal_labels))), "closed")
    return Machine(behavior, a_leg, e_leg, "closed")


def _signal_machine(
    system: PortSystem,
    dynamics: VectorField,
    state_labels: tuple,
    name: str,
    grid_step: float,
    residual_tolerance: float,
) -> Machine:
    """The machine of ``dynamics`` driven by the port signals s, whose first
    n state channels are x: membership adds the port side conditions, the
    input leg extracts the signals and the output leg is -zeta_rate(x, s)."""
    n = system.n
    return iso_machine(
        dynamics,
        batched(lambda t, x, s: -system.zeta_rate(x[..., :n], s)),
        len(system.signal_labels),
        system.m,
        grid_step,
        residual_tolerance,
        state_labels=state_labels,
        input_labels=system.signal_labels,
        output_labels=system.output_labels,
        name=name,
        side_residuals=system.port_side_residuals,
    )


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

    Its behavior is the sheaf of runs with continuous inputs: a run sampled
    from another's end node, with that run's shift minus its length and the
    same input curve, glues to it within rounding of the whole run, while
    pieces whose signals jump at the junction do not glue (JunctionMismatch).
    """
    return _signal_machine(
        system, port_field(system), system.state_labels, "port", grid_step, residual_tolerance
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
    return _signal_machine(
        system, extended_field(system), system.state_labels + system.zeta_labels,
        "enclosing", grid_step, residual_tolerance,
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

    return MachineMorphism(
        lambda e: _port_member(system, e), _ident, _ident, "swapped", "closed into port"
    )


def port_to_extended_morphism(system: PortSystem, integral_sign: float = 1.0) -> MachineMorphism:
    """Map a port run (x, s) to the extended member (x, zeta, s).

    zeta is the trapezoidal antiderivative of the zeta rate, as in
    :func:`embed`.  ``integral_sign`` exists for violation tests; any value
    other than 1.0 corrupts the quadrature deliberately.
    """
    return MachineMorphism(
        lambda e: _enclosing_member(system, e, integral_sign),
        _ident, _ident, "straight", "port into extended",
    )


def build_diagram(
    system: PortSystem,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    integral_sign: float = 1.0,
) -> DiagramReport:
    """Assemble the three machines and morphisms and verify the triangle.

    Probes must be closed-system members, which the verifier's probe gate
    holds them to; their grid step fixes the machines' grid.  The betas of
    psi and xi are evaluated once per probe, and a_phi's beta is xi's after
    psi's, so a probe's a_phi image is its xi . psi image, one object, and
    the verifier checks it once.  ``integral_sign`` is passed to the
    port-to-extended map so violation tests can corrupt the quadrature;
    a_phi keeps the true one.  The machine builders are called through this
    module's names, at call time, so whatever rebinds those names sees the
    calls.
    """
    if not probes:
        raise NotAMember("need at least one closed-system probe")
    h = probes[0].grid_step
    closed = closed_machine(system, h, residual_tolerance)
    port = port_machine(system, h, residual_tolerance)
    enclosing = enclosing_machine(system, h, residual_tolerance)
    psi, xi = closed_to_port_morphism(system), port_to_extended_morphism(system, integral_sign)
    psi, xi = (replace(phi, beta=_once(phi.beta)) for phi in (psi, xi))
    into_enclosing = xi.beta if integral_sign == 1.0 else port_to_extended_morphism(system).beta
    embedding = MachineMorphism(
        lambda e: into_enclosing(psi.beta(e)), _ident, _ident, "swapped", "closed into extended"
    )
    return verify_port_control_diagram(closed, enclosing, port, psi, xi, embedding, probes, tolerance)
