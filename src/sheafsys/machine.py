"""Machines: behaviors with input and output legs, and maps between them.

A machine is a span: a behavior sheaf together with two leg maps sending
each member to an input-side trajectory and an output-side trajectory over
the same interval.  Legs must preserve length and shift and commute with
restriction; the diagram verifier checks both on the members it holds.

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
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotAMember, NotClosed, StructureViolation
from .interval_sheaf import (
    BehaviorSheaf,
    Trajectory,
    restrict,
    sup_distance,
    worst_defect,
)
from .ode_behavior import DEFAULT_RESIDUAL_TOL, OdeBehavior, VectorField, pointwise

LEG_COMMUTE_TOL = 1e-9


@dataclass(frozen=True)
class Machine:
    """A behavior with input and output legs.

    Parameters
    ----------
    behavior : BehaviorSheaf or OdeBehavior
        The total behavior; members are the runs of the machine.
    a_leg, e_leg : callable
        Maps from members to input-side / output-side trajectories.  Legs
        must preserve the interval (length, grid step) and the shift tag,
        and must commute with restriction within ``LEG_COMMUTE_TOL``;
        :func:`verify_port_control_diagram` checks this on the members it
        holds, and :func:`leg_restriction_defect` on any others.
    a_labels, e_labels : tuple of str
        Channel names of the leg outputs.
    name : str
        Used in reports.
    """

    behavior: BehaviorSheaf | OdeBehavior
    a_leg: Callable[[Trajectory], Trajectory]
    e_leg: Callable[[Trajectory], Trajectory]
    a_labels: tuple = ()
    e_labels: tuple = ()
    name: str = "machine"


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

    Uses halves and an interior window of each probe, each cut once and fed
    to both legs.  Membership is not required of the probes; the leg laws
    are about the maps alone.  A non-finite disagreement gives inf.
    """
    gaps = []
    for e in probes:
        k = (e.num_nodes - 1) // 2
        windows = [] if e.num_nodes < 5 else [
            (k * e.grid_step, 0.0),
            ((e.num_nodes - 1 - k) * e.grid_step, k * e.grid_step),
            ((e.num_nodes - 1 - 2 * (k // 2)) * e.grid_step, (k // 2) * e.grid_step),
        ]
        pieces = [restrict(e, length, offset) for length, offset in windows]
        for leg, which in ((m.a_leg, "input"), (m.e_leg, "output")):
            out = leg(e)
            _check_leg_shape(m, e, out, which)
            gaps.extend(
                sup_distance(leg(piece), restrict(out, length, offset))
                for piece, (length, offset) in zip(pieces, windows)
            )
    return worst_defect(gaps)[0]


def iso_machine(
    dynamics: VectorField,
    readout: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    num_inputs: int,
    num_outputs: int,
    grid_step: float,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    state_labels: Optional[tuple] = None,
    input_labels: Optional[tuple] = None,
    output_labels: Optional[tuple] = None,
    name: str = "iso",
    side_residuals: Optional[Callable[[Trajectory], dict]] = None,
) -> Machine:
    """Machine of a controlled system x' = f(t, x, u), y = g(t, x, u), where
    f is the right-hand side of the field ``dynamics``.

    Its behavior is the :class:`~sheafsys.ode_behavior.OdeBehavior` of the
    driven field: members are (n + m)-channel trajectories holding state and
    input samples together, ``side_residuals`` adds algebraic conditions to
    membership, and the sampler takes one input curve per input group,
    ``sampler(x0, curve, ..., length, shift=0.0)``.  The input leg extracts
    the input channels; the output leg evaluates the readout at every node.
    A ``readout`` of one node is lifted with
    :func:`~sheafsys.ode_behavior.pointwise`.  The legs read channels by
    name, since the leg laws are probed on non-members too.
    """
    n = dynamics.dimension
    m = int(num_inputs)
    state_labels = tuple(state_labels) if state_labels else tuple(f"x{i}" for i in range(n))
    input_labels = tuple(input_labels) if input_labels else tuple(f"u{i}" for i in range(m))
    output_labels = tuple(output_labels) if output_labels else tuple(f"y{i}" for i in range(num_outputs))
    readout = pointwise(readout, 0, 1, 1)
    behavior = OdeBehavior(
        dynamics, grid_step, residual_tolerance, state_labels + input_labels,
        side_residuals=side_residuals,
    )

    def a_leg(e: Trajectory) -> Trajectory:
        return Trajectory(e.channels(input_labels), e.grid_step, e.shift, input_labels)

    def e_leg(e: Trajectory) -> Trajectory:
        x, u = e.channels(state_labels), e.channels(input_labels)
        y = np.asarray(readout(e.absolute_times, x, u), dtype=float)
        return Trajectory(y, e.grid_step, e.shift, output_labels)

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
    source behavior (NotAMember otherwise, also on a NaN residual).  A
    non-finite gap gives inf.
    """
    gaps = []
    for i, e in enumerate(probes):
        if check_membership:
            res = source.behavior.membership(e)
            if not res <= source.behavior.tolerance:
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
    """Injectivity evidence, not proof: colliding probe index pairs, if any."""

    collisions: tuple
    separation: float

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


def _once(fn: Callable[[Trajectory], object]) -> Callable[[Trajectory], object]:
    """``fn`` evaluated once per argument; trajectories are keyed weakly by
    identity, so a window's value is dropped with the window."""
    cache = weakref.WeakKeyDictionary()

    def call(e: Trajectory):
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
    - the leg laws of each machine on the members it holds: the closed
      machine on the probes, the port machine on the psi images, the
      enclosing machine on the a_phi and xi images (raise
      StructureViolation when a leg changes the interval or the shift tag,
      or fails to commute with restriction within ``LEG_COMMUTE_TOL``);
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
        if not res <= closed.behavior.tolerance:
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
    images = [a_phi.beta(e) for e in probes] + [xi.beta(e) for e in psi_images]
    for m, members in ((closed, probes), (port, psi_images), (enclosing, images)):
        defect = leg_restriction_defect(m, members)
        if defect > LEG_COMMUTE_TOL:
            raise StructureViolation(
                f"machine '{m.name}': legs fail to commute with "
                f"restriction (defect {defect:.3e})"
            )
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
            if not res <= target.tolerance:
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
