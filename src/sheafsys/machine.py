"""Machines: behaviors with input and output legs, and maps between them.

A machine is a span: a behavior sheaf together with two leg maps sending
each member to an input-side trajectory and an output-side trajectory over
the same interval.  Legs must preserve length and shift and commute with
restriction; both properties are probed at construction time.

Morphisms between machines come in two variants.  A straight morphism pairs
input with input and output with output; a swapped morphism crosses them,
which is how a system that consumes what another produces is wired up.
Composites follow the evident parity rule: two swaps straighten out.

``verify_port_control_diagram`` checks the whole port-control picture: a
closed system embeds into an extended one, the extended one maps onto an
open interconnection port, and the triangle of behavior maps commutes on a
probe set, with every map injective as far as the probes can tell.  The
systems that build this picture share one construction, in
:mod:`sheafsys.port_diagram`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotAMember, NotClosed, StructureViolation
from .interval_sheaf import (
    BehaviorSheaf,
    Trajectory,
    restrict,
    sup_distance,
)
from .ode_behavior import (
    VectorField,
    grid_derivative,
    integrate,
    node_defects,
    pointwise,
    worst_defect,
)

LEG_COMMUTE_TOL = 1e-9


@dataclass(frozen=True)
class Machine:
    """A behavior with input and output legs.

    Parameters
    ----------
    behavior : BehaviorSheaf
        The total behavior; members are the runs of the machine.
    a_leg, e_leg : callable
        Maps from members to input-side / output-side trajectories.  Legs
        must preserve the interval (length, grid step) and the shift tag,
        and must commute with restriction within 1e-9.
    a_labels, e_labels : tuple of str
        Channel names of the leg outputs.
    name : str
        Used in reports.
    check_probes : sequence of Trajectory, optional
        When given, the leg laws are verified on these members at
        construction; violations raise StructureViolation.
    """

    behavior: BehaviorSheaf
    a_leg: Callable[[Trajectory], Trajectory]
    e_leg: Callable[[Trajectory], Trajectory]
    a_labels: tuple = ()
    e_labels: tuple = ()
    name: str = "machine"
    check_probes: Optional[Sequence[Trajectory]] = None

    def __post_init__(self):
        if self.check_probes:
            defect = leg_restriction_defect(self, self.check_probes)
            if defect > LEG_COMMUTE_TOL:
                raise StructureViolation(
                    f"machine '{self.name}': legs fail to commute with "
                    f"restriction (defect {defect:.3e})"
                )


def _check_leg_shape(m: Machine, e: Trajectory, out: Trajectory, which: str) -> None:
    if out.num_nodes != e.num_nodes or out.grid_step != e.grid_step:
        raise StructureViolation(
            f"machine '{m.name}': {which} leg changed the interval"
        )
    if out.shift != e.shift:
        raise StructureViolation(
            f"machine '{m.name}': {which} leg changed the shift tag"
        )


def leg_restriction_defect(m: Machine, probes: Sequence[Trajectory]) -> float:
    """Worst disagreement between restrict-then-leg and leg-then-restrict.

    Uses halves and an interior window of each probe.  Membership is not
    required of the probes; the leg laws are about the maps alone.  A
    non-finite disagreement gives inf.
    """
    gaps = []
    for e in probes:
        for leg, which in ((m.a_leg, "input"), (m.e_leg, "output")):
            out = leg(e)
            _check_leg_shape(m, e, out, which)
            if e.num_nodes < 5:
                continue
            k = (e.num_nodes - 1) // 2
            windows = [
                (k * e.grid_step, 0.0),
                ((e.num_nodes - 1 - k) * e.grid_step, k * e.grid_step),
                ((e.num_nodes - 1 - 2 * (k // 2)) * e.grid_step, (k // 2) * e.grid_step),
            ]
            gaps.extend(
                sup_distance(leg(restrict(e, length, offset)), restrict(out, length, offset))
                for length, offset in windows
            )
    return worst_defect(gaps)[0]


@dataclass(frozen=True)
class ControlledField:
    """Vector field with an input slot, for :func:`iso_machine`."""

    dimension: int
    rhs_with_input: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    description: str = ""


def iso_machine(
    dynamics: ControlledField,
    readout: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    num_inputs: int,
    num_outputs: int,
    grid_step: float,
    residual_tolerance: float = 1e-4,
    state_labels: Optional[tuple] = None,
    input_labels: Optional[tuple] = None,
    output_labels: Optional[tuple] = None,
    name: str = "iso",
    side_residuals: Callable[[Trajectory], dict] = lambda e: {},
) -> Machine:
    """Machine of a controlled system x' = f(t, x, u), y = g(t, x, u).

    Members are (n + m)-channel trajectories holding state and input
    samples together.  The input leg extracts the input channels; the
    output leg evaluates the readout at every node.  ``dynamics`` and
    ``readout`` callables of one node are lifted with
    :func:`~sheafsys.ode_behavior.pointwise`.  ``side_residuals`` maps a
    member to named (residual, node) pairs of algebraic conditions that
    membership must meet as well (none by default).

    The sampler is ``sampler(x0, curve, ..., length, shift=0.0)``: the input
    at absolute time t is the concatenation of the curves' values, one curve
    per input group (callables of time, so the integrator can evaluate them
    between nodes; lifted with :func:`~sheafsys.ode_behavior.pointwise`).
    """
    n = dynamics.dimension
    m = int(num_inputs)
    state_labels = tuple(state_labels) if state_labels else tuple(f"x{i}" for i in range(n))
    input_labels = tuple(input_labels) if input_labels else tuple(f"u{i}" for i in range(m))
    output_labels = tuple(output_labels) if output_labels else tuple(f"y{i}" for i in range(num_outputs))
    member_labels = state_labels + input_labels
    rhs = pointwise(dynamics.rhs_with_input, 0, 1, 1)
    readout = pointwise(readout, 0, 1, 1)

    def split(e: Trajectory):
        x = e.channels(state_labels)
        u = e.channels(input_labels)
        return x, u

    def membership(e: Trajectory) -> float:
        if e.labels != member_labels:
            return float("inf")
        x, u = split(e)
        rates = np.asarray(rhs(e.absolute_times, x, u), dtype=float)
        worst, _ = worst_defect(node_defects(grid_derivative(x, e.grid_step), rates))
        return worst_defect([worst, *(v for v, _ in side_residuals(e).values())])[0]

    def a_leg(e: Trajectory) -> Trajectory:
        _, u = split(e)
        return Trajectory(u, e.grid_step, e.shift, input_labels)

    def e_leg(e: Trajectory) -> Trajectory:
        x, u = split(e)
        y = np.asarray(readout(e.absolute_times, x, u), dtype=float)
        return Trajectory(y, e.grid_step, e.shift, output_labels)

    def sampler(x0, *curves_and_length, shift: float = 0.0) -> Trajectory:
        *curves, length = curves_and_length
        if len(curves) == 1:
            input_curve = curves[0]
        else:
            input_curve = lambda t: np.concatenate([np.atleast_1d(c(t)) for c in curves])
        closed = VectorField(
            n,
            lambda t, x: rhs(t, x, np.atleast_1d(input_curve(t))),
            dynamics.description,
        )
        state = integrate(closed, x0, length, grid_step, shift, state_labels)
        u_nodes = np.asarray(pointwise(input_curve, 0)(state.absolute_times), dtype=float)
        values = np.concatenate([state.values, u_nodes.reshape(state.num_nodes, -1)], axis=1)
        return Trajectory(values, grid_step, shift, member_labels)

    behavior = BehaviorSheaf(
        membership=membership,
        restrict=restrict,
        sampler=sampler,
        tolerance=residual_tolerance,
    )
    return Machine(behavior, a_leg, e_leg, input_labels, output_labels, name)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class MachineMorphism:
    """A map of machines: behavior map plus leg intertwiners.

    ``beta`` maps members of the source behavior to members of the target.
    In the straight variant ``eta`` carries source outputs to target outputs
    and ``alpha`` carries source inputs to target inputs; in the swapped
    variant the roles cross (source outputs land on target inputs and vice
    versa), which is the shape of a map into a machine that consumes what
    the source emits.
    """

    beta: Callable[[Trajectory], Trajectory]
    eta: Callable[[Trajectory], Trajectory]
    alpha: Callable[[Trajectory], Trajectory]
    variant: str = "straight"
    name: str = "morphism"

    def __post_init__(self):
        if self.variant not in ("straight", "swapped"):
            raise StructureViolation(f"unknown variant {self.variant!r}")


def identity_morphism(name: str = "identity") -> MachineMorphism:
    ident = lambda e: e
    return MachineMorphism(ident, ident, ident, "straight", name)


def morphism_defect(
    phi: MachineMorphism,
    source: Machine,
    target: Machine,
    probes: Sequence[Trajectory],
    check_membership: bool = True,
) -> float:
    """Worst failure of the two leg squares on the probe members.

    Straight: eta(e_leg(e)) vs e_leg'(beta(e)) and alpha(a_leg(e)) vs
    a_leg'(beta(e)).  Swapped: eta(e_leg(e)) vs a_leg'(beta(e)) and
    alpha(a_leg(e)) vs e_leg'(beta(e)).  Probes must be members of the
    source behavior (NotAMember otherwise).  A non-finite gap gives inf.
    """
    gaps = []
    for i, e in enumerate(probes):
        if check_membership:
            res = source.behavior.membership(e)
            if res > source.behavior.tolerance:
                raise NotAMember(
                    f"probe {i} not in the source behavior of '{phi.name}' "
                    f"(residual {res:.3e})"
                )
        image = phi.beta(e)
        if phi.variant == "straight":
            pairs = (
                (phi.eta(source.e_leg(e)), target.e_leg(image)),
                (phi.alpha(source.a_leg(e)), target.a_leg(image)),
            )
        else:
            pairs = (
                (phi.eta(source.e_leg(e)), target.a_leg(image)),
                (phi.alpha(source.a_leg(e)), target.e_leg(image)),
            )
        gaps.extend(sup_distance(got, want) for got, want in pairs)
    return worst_defect(gaps)[0]


def compose_morphisms(outer: MachineMorphism, inner: MachineMorphism) -> MachineMorphism:
    """Composite morphism; two swapped maps compose to a straight one."""
    beta = lambda e: outer.beta(inner.beta(e))
    if inner.variant == "straight":
        eta = lambda e: outer.eta(inner.eta(e))
        alpha = lambda e: outer.alpha(inner.alpha(e))
    else:
        # the inner map lands outputs on the outer source's input side
        eta = lambda e: outer.alpha(inner.eta(e))
        alpha = lambda e: outer.eta(inner.alpha(e))
    variant = "straight" if inner.variant == outer.variant else "swapped"
    return MachineMorphism(beta, eta, alpha, variant, f"{outer.name} . {inner.name}")


@dataclass(frozen=True)
class ProbeResult:
    """Injectivity evidence: colliding probe index pairs, if any."""

    collisions: tuple
    separation: float
    note: str = "probe evidence only, not a proof of injectivity"

    @property
    def injective_on_probes(self) -> bool:
        return not self.collisions


def injectivity_probe(
    mapping: Callable[[Trajectory], Trajectory],
    probes: Sequence[Trajectory],
    separation: float,
) -> ProbeResult:
    """Check that distinct probes stay distinct under the map.

    Two images collide when their sup distance falls below a thousandth of
    the probe separation or is NaN (images on different grids are
    infinitely far apart and do not).  Evidence, not proof: only the given
    probes are examined.
    """
    images = [mapping(e) for e in probes]
    threshold = separation * 1e-3
    collisions = []
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            if sup_distance(probes[i], probes[j]) <= threshold:
                continue
            if not sup_distance(images[i], images[j]) >= threshold:
                collisions.append((i, j))
    return ProbeResult(tuple(collisions), separation)


# ---------------------------------------------------------------------------
# the port-control diagram


@dataclass(frozen=True)
class DiagramReport:
    """Outcome of a port-control diagram verification.

    ``defects`` maps named checks to worst residuals over the probes,
    ``collisions`` maps each behavior map to its injectivity evidence, and
    ``passed`` is the conjunction at the stated tolerance.
    """

    tolerance: float
    defects: dict
    collisions: dict
    passed: bool
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "defects": {k: float(v) for k, v in sorted(self.defects.items())},
            "collisions": {
                k: [list(pair) for pair in v.collisions]
                for k, v in sorted(self.collisions.items())
            },
            "pass": bool(self.passed),
            "notes": list(self.notes),
        }


def _min_separation(probes: Sequence[Trajectory]) -> float:
    gaps = [
        sup_distance(probes[i], probes[j])
        for i in range(len(probes))
        for j in range(i + 1, len(probes))
    ]
    finite = [g for g in gaps if np.isfinite(g)]
    return min(finite) if finite else 1.0


def _once(fn: Callable[[Trajectory], Trajectory]) -> Callable[[Trajectory], Trajectory]:
    """``fn`` evaluated once per argument; trajectories are keyed by identity."""
    cache = {}

    def call(e: Trajectory) -> Trajectory:
        if e not in cache:
            cache[e] = fn(e)
        return cache[e]

    return call


def verify_port_control_diagram(
    closed: Machine,
    enclosing: Machine,
    port: Machine,
    psi: MachineMorphism,
    xi: MachineMorphism,
    a_phi: MachineMorphism,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
) -> DiagramReport:
    """Verify the closed-through-port triangle on a probe set.

    The three maps are psi: closed -> port, xi: port -> enclosing and
    a_phi: closed -> enclosing; the triangle asserts a_phi = xi . psi.
    Probes must be members of the closed behavior, and the closed machine's
    output leg must land in the one-point sheaf: node-constant values,
    identical across all probes (raises NotClosed otherwise, and on any
    non-finite value).

    Checks performed, all reported as named worst-case defects:

    - membership of each probe and of each psi image in its source behavior
      (preconditions, raise NotAMember);
    - leg squares of each of the three morphisms;
    - the triangle on behaviors, beta legs compared pointwise;
    - the triangle on the two leg sides against the composite variant;
    - injectivity probes for all three behavior maps;
    - membership of each a_phi and xi image in the enclosing behavior.  An
      image outside it raises NotAMember when every other check passes;
      when the diagram fails anyway, a note names the image instead.

    Each image, leg and membership test the checks share is evaluated once.
    """
    notes = []
    for i, e in enumerate(probes):
        res = closed.behavior.membership(e)
        if res > closed.behavior.tolerance:
            raise NotAMember(
                f"probe {i} not in the closed behavior (residual {res:.3e})"
            )
    closed, port, enclosing = (
        Machine(m.behavior, _once(m.a_leg), _once(m.e_leg), m.a_labels, m.e_labels, m.name)
        for m in (closed, port, enclosing)
    )
    psi, xi, a_phi = (dataclasses.replace(phi, beta=_once(phi.beta)) for phi in (psi, xi, a_phi))
    # closedness: the output leg must be constant in time and across probes
    leg_values = []
    for i, e in enumerate(probes):
        out = closed.e_leg(e)
        wiggle = worst_defect(np.abs(out.values - out.values[0]))[0]
        if wiggle > tolerance:
            raise NotClosed(
                f"closed machine output varies in time on probe {i} "
                f"(wiggle {wiggle:.3e})"
            )
        leg_values.append(out.values[0])
    for i in range(1, len(leg_values)):
        gap = worst_defect(np.abs(leg_values[i] - leg_values[0]))[0]
        if gap > tolerance:
            raise NotClosed(
                f"closed machine output differs between probes 0 and {i} "
                f"(gap {gap:.3e})"
            )
    composite = compose_morphisms(xi, psi)
    if composite.variant != a_phi.variant:
        raise StructureViolation(
            f"composite variant {composite.variant} does not match "
            f"a_phi variant {a_phi.variant}"
        )

    psi_images = [psi.beta(e) for e in probes]
    defects = {
        "psi legs": morphism_defect(psi, closed, port, probes, check_membership=False),
        "xi legs": morphism_defect(xi, port, enclosing, psi_images),
        "a_phi legs": morphism_defect(a_phi, closed, enclosing, probes, check_membership=False),
    }
    triangle = {
        "triangle beta": [sup_distance(composite.beta(e), a_phi.beta(e)) for e in probes],
        "triangle eta": [
            sup_distance(composite.eta(closed.e_leg(e)), a_phi.eta(closed.e_leg(e)))
            for e in probes
        ],
        "triangle alpha": [
            sup_distance(composite.alpha(closed.a_leg(e)), a_phi.alpha(closed.a_leg(e)))
            for e in probes
        ],
    }
    defects.update({name: worst_defect(gaps)[0] for name, gaps in triangle.items()})

    separation = _min_separation(probes)
    collisions = {
        "psi": injectivity_probe(psi.beta, probes, separation),
        "xi": injectivity_probe(xi.beta, psi_images, separation),
        "a_phi": injectivity_probe(a_phi.beta, probes, separation),
    }
    passed = all(v <= tolerance for v in defects.values()) and all(
        r.injective_on_probes for r in collisions.values()
    )
    target = enclosing.behavior
    for label, phi, sources in (("a_phi", a_phi, probes), ("xi", xi, psi_images)):
        for i, e in enumerate(sources):
            res = target.membership(phi.beta(e))
            if res > target.tolerance:
                stray = (
                    f"image of probe {i} under {label} not in the enclosing "
                    f"behavior (residual {res:.3e})"
                )
                if passed:
                    raise NotAMember(stray)
                notes.append(stray)
    if len(probes) < 2:
        notes.append("fewer than two probes: injectivity evidence is vacuous")
    return DiagramReport(tolerance, defects, collisions, passed, tuple(notes))
