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
- ``signal_reader(tag)``, ``signal_tag(start, step, signals)`` and
  ``zero_tag()``: how signals are read from and stored in the
  auxiliary-energy tag an extended member carries (the reader maps
  absolute times and zeta values to the signals);
- ``port_side_residuals(e)`` and ``extended_side_residuals(tag, e)``,
  algebraic conditions that membership must meet as well (none by default);
- ``check(points=None)``, the family's structure check.

The extended field is [port_rhs(x, s), zeta_rate(x, s)] with s read from the
tag.  The embedding and the port-to-extended map integrate the same
zeta-rate array with the same trapezoid rule, so the triangle closes
bit-exactly on the zeta channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BlowUp, ConstraintViolation, DimensionMismatch, NotAMember
from .interval_sheaf import DEFAULT_STEP, BehaviorSheaf, Trajectory, restrict
from .machine import (
    ControlledField,
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
    worst_defect,
)

SIDE_CONDITION_TOL = 1e-8


class PortSystem:
    """Node formulas of a system with ports; see the module docstring.

    Families are frozen dataclasses with fields ``n`` (state dimension),
    ``m`` (port dimension) and ``state_labels`` that subclass this one.
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

    def gradient(self, fn, x, name: str) -> np.ndarray:
        """``fn(x)`` as a float array, checked to have the shape of x."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(fn(x), dtype=float)
        if out.shape != x.shape or x.shape[-1] != self.n:
            raise DimensionMismatch(
                f"grad {name} shape {out.shape}, expected {x.shape[:-1] + (self.n,)}"
            )
        return out

    def scalar(self, fn, x, name: str) -> np.ndarray:
        """``fn(x)`` as a float array, checked to hold one value per node."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(fn(x), dtype=float)
        if out.shape != x.shape[:-1]:
            raise DimensionMismatch(f"{name} shape {out.shape}, expected {x.shape[:-1]}")
        return out

    def port_side_residuals(self, e: Trajectory) -> dict:
        return {}

    def extended_side_residuals(self, tag, e: Trajectory) -> dict:
        return {}


def assert_conditions(residuals: dict, tolerance: float = SIDE_CONDITION_TOL) -> None:
    """Raise ConstraintViolation naming the first of the (residual, node)
    conditions that exceeds the tolerance."""
    for name, (residual, node) in residuals.items():
        if residual > tolerance:
            raise ConstraintViolation(name, node, residual)


def cumulative_trapezoid(w: np.ndarray, h: float) -> np.ndarray:
    """Trapezoidal antiderivative on the grid with value 0 at the first node."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    out[1:] = np.cumsum(0.5 * h * (w[:-1] + w[1:]), axis=0)
    return out


def zeta_rate_along(system: PortSystem, states: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """The zeta rate at every node of a state array and a signal array."""
    return system.zeta_rate(states, signals)


def _zero_signals(system: PortSystem, e: Trajectory) -> np.ndarray:
    return np.zeros((e.num_nodes, len(system.signal_labels)))


# ---------------------------------------------------------------------------
# behaviors


def closed_field(system: PortSystem) -> VectorField:
    return VectorField(system.n, batched(lambda t, x: system.closed_rhs(x)), "closed flow")


def closed_behavior(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    check_points: Optional[Sequence] = None,
) -> OdeBehavior:
    """The closed behavior, after the structure check at ``check_points``
    (the family's default points when omitted)."""
    system.check(check_points)
    return OdeBehavior(closed_field(system), grid_step, residual_tolerance, system.state_labels)


@dataclass(frozen=True)
class ExtendedBehavior(OdeBehavior):
    """The behavior of the extended field for one fixed tag (``aux``).

    Membership adds the family's extended side conditions, evaluated at
    every node, to the dynamics residual.
    """

    side_residuals: Callable[[Trajectory], dict] = lambda e: {}

    def assert_conditions(self, e: Trajectory, tolerance: float = SIDE_CONDITION_TOL) -> None:
        assert_conditions(self.side_residuals(e), tolerance)

    def membership(self, e: Trajectory) -> float:
        dynamics = super().membership(e)
        if dynamics == float("inf"):  # wrong tag or layout: no side conditions to read
            return dynamics
        return worst_defect([dynamics, *(v for v, _ in self.side_residuals(e).values())])[0]


def _fixed_tag_behavior(
    system: PortSystem, tag, grid_step: float, residual_tolerance: float
) -> ExtendedBehavior:
    """The extended field [port_rhs(x, s), zeta_rate(x, s)], s read from the tag."""
    read = system.signal_reader(tag)
    n = system.n

    @batched
    def rhs(t, xi):
        x = xi[..., :n]
        s = read(t, xi[..., n:])
        return np.concatenate([system.port_rhs(x, s), system.zeta_rate(x, s)], axis=-1)

    return ExtendedBehavior(
        VectorField(n + system.m, rhs, "extended flow"),
        grid_step,
        residual_tolerance,
        system.state_labels + system.zeta_labels,
        tag,
        partial(system.extended_side_residuals, tag),
    )


def extended_behavior(
    system: PortSystem,
    tag,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> ExtendedBehavior:
    """The structure-checked extended behavior for one fixed tag."""
    system.check()
    return _fixed_tag_behavior(system, tag, grid_step, residual_tolerance)


def extended_sheaf(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> BehaviorSheaf:
    """The enclosing behavior: members carry their own auxiliary-energy tag.

    Membership judges each trajectory against the extended dynamics of its
    own tag; untagged trajectories count as carrying the zero tag.  The
    sampler takes the tag as ``aux`` (zero when omitted).
    """
    labels = system.state_labels + system.zeta_labels

    def fixed(tag) -> ExtendedBehavior:
        tag = system.zero_tag() if tag is None else tag
        return _fixed_tag_behavior(system, tag, grid_step, residual_tolerance)

    def membership(e: Trajectory) -> float:
        if e.labels != labels:
            return float("inf")
        behavior = fixed(e.aux)
        return behavior.membership(e.replace_aux(behavior.aux))

    def sampler(x0_ext, length, shift=0.0, aux=None):
        return fixed(aux).sample(x0_ext, length, shift)

    return BehaviorSheaf(
        membership=membership,
        restrict=restrict,
        sampler=sampler,
        tolerance=residual_tolerance,
    )


def embed(
    system: PortSystem,
    e: Trajectory,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Trajectory:
    """Embed a closed-system member into the extended behavior.

    Appends the zeta channels, the trapezoidal antiderivative of the zeta
    rate with zero signals, anchored at zeta(0) = 0, and tags the result
    with the zero auxiliary energy.
    """
    residual = membership_residual(closed_field(system), e)
    if residual > residual_tolerance:
        raise NotAMember(
            f"trajectory is not a closed-system member (residual {residual:.3e})"
        )
    zeta = cumulative_trapezoid(
        zeta_rate_along(system, e.values, _zero_signals(system, e)), e.grid_step
    )
    return Trajectory(
        np.concatenate([e.values, zeta], axis=1),
        e.grid_step,
        e.shift,
        e.labels + system.zeta_labels,
        system.zero_tag(),
    )


# ---------------------------------------------------------------------------
# machines


def _probed_machine(behavior, a_leg, e_leg, a_labels, e_labels, name, x0, grid_step) -> Machine:
    """A machine whose leg laws are checked on one short member sampled from
    x0; a member that blows up is skipped, any other error propagates."""
    try:
        probes = [behavior.sampler(x0, 32 * grid_step)]
    except BlowUp:
        probes = []
    return Machine(behavior, a_leg, e_leg, a_labels, e_labels, name, check_probes=probes)


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
    behavior = closed_behavior(system, grid_step, residual_tolerance).as_behavior_sheaf()
    constant_labels = tuple(f"o{i}" for i in range(len(system.signal_labels)))

    def a_leg(e: Trajectory) -> Trajectory:
        y = -zeta_rate_along(system, e.values, _zero_signals(system, e))
        return Trajectory(y, e.grid_step, e.shift, system.output_labels)

    def e_leg(e: Trajectory) -> Trajectory:
        return Trajectory(_zero_signals(system, e), e.grid_step, e.shift, constant_labels)

    return _probed_machine(
        behavior, a_leg, e_leg, system.output_labels, constant_labels, "closed",
        0.3 * np.ones(system.n), grid_step,
    )


def port_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The open port machine x' = port_rhs(x, s), y = -zeta_rate(x, s).

    Members pack state and signals; membership adds the family's port side
    conditions to the dynamics residual.
    """
    system.check()
    return iso_machine(
        ControlledField(system.n, batched(lambda t, x, s: system.port_rhs(x, s)), "driven flow"),
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


def enclosing_legs(system: PortSystem):
    """Leg maps of the enclosing machine.

    The input leg reads the signals from the aux tag at each node; the
    output leg evaluates the port output with those signals.  Both are
    node-local, so they commute with restriction exactly.  Raises
    MissingAuxTag on trajectories without a tag of the family's kind.
    """

    def signals(e: Trajectory) -> np.ndarray:
        read = system.signal_reader(e.aux)
        return read(e.absolute_times, e.channels(system.zeta_labels))

    def a_leg(e: Trajectory) -> Trajectory:
        return Trajectory(signals(e), e.grid_step, e.shift, system.signal_labels)

    def e_leg(e: Trajectory) -> Trajectory:
        y = -zeta_rate_along(system, e.channels(system.state_labels), signals(e))
        return Trajectory(y, e.grid_step, e.shift, system.output_labels)

    return a_leg, e_leg


def enclosing_machine(
    system: PortSystem,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> Machine:
    """The extended behavior with its signal and port-output legs."""
    system.check()
    sheaf = extended_sheaf(system, grid_step, residual_tolerance)
    a_leg, e_leg = enclosing_legs(system)
    return _probed_machine(
        sheaf, a_leg, e_leg, system.signal_labels, system.output_labels, "enclosing",
        0.3 * np.ones(system.n + system.m), grid_step,
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
    """Map a port run (x, s) to the extended member (x, zeta) whose tag
    carries the sampled signals.

    zeta is the trapezoidal antiderivative of the zeta rate, as in
    :func:`embed`.  ``integral_sign`` exists for violation tests; any value
    other than 1.0 corrupts the quadrature deliberately.
    """

    def beta(e: Trajectory) -> Trajectory:
        x = e.channels(system.state_labels)
        s = e.channels(system.signal_labels)
        zeta = integral_sign * cumulative_trapezoid(zeta_rate_along(system, x, s), e.grid_step)
        return Trajectory(
            np.concatenate([x, zeta], axis=1),
            e.grid_step,
            e.shift,
            system.state_labels + system.zeta_labels,
            system.signal_tag(-e.shift, e.grid_step, s),
        )

    return MachineMorphism(beta, _ident, _ident, "straight", "port into extended")


class Builders(NamedTuple):
    """A family's public machine builders and embedding, which take the
    system first as the functions of this module do.  The diagram calls them
    by these names, so whatever wraps a family's names sees its calls."""

    closed: Callable[..., Machine]
    port: Callable[..., Machine]
    enclosing: Callable[..., Machine]
    embed: Callable[..., Trajectory]


def build_diagram(
    system: PortSystem,
    builders: Builders,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
    grid_step: Optional[float] = None,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    integral_sign: float = 1.0,
) -> DiagramReport:
    """Assemble the three machines and morphisms and verify the triangle.

    Probes must be closed-system members; their grid step fixes the
    machines' grid unless ``grid_step`` is given.  ``integral_sign`` is
    passed to the port-to-extended map so violation tests can corrupt the
    quadrature.
    """
    if not probes:
        raise NotAMember("need at least one closed-system probe")
    h = grid_step if grid_step is not None else probes[0].grid_step
    closed = builders.closed(system, h, residual_tolerance)
    port = builders.port(system, h, residual_tolerance)
    enclosing = builders.enclosing(system, h, residual_tolerance)
    embedding = MachineMorphism(
        lambda e: builders.embed(system, e, residual_tolerance),
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
