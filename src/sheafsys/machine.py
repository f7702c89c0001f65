"""Machines: behaviors with input and output legs, and maps between them.

A machine is a span: a behavior sheaf together with two leg maps sending
each member to an input-side trajectory and an output-side trajectory over
the same interval.  Legs preserve length and shift and commute with
restriction, :func:`node_map` legs by construction; the verifier checks others.

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
    _window,
    require_member,
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
        Maps from members to input-side / output-side trajectories.  They
        preserve the interval (length, grid step) and the shift tag and
        commute with restriction within ``LEG_COMMUTE_TOL``, by construction
        for :func:`node_map` legs; :func:`leg_restriction_defect` checks others.
    name : str
        Used in reports.
    """

    behavior: BehaviorSheaf | OdeBehavior
    a_leg: Callable[[Trajectory], Trajectory]
    e_leg: Callable[[Trajectory], Trajectory]
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
        n, k = e.num_nodes - 1, (e.num_nodes - 1) // 2
        # (first node, steps) of the halves and of the interior window
        windows = [] if n < 4 else [(0, k), (k, n - k), (k // 2, n - 2 * (k // 2))]
        pieces = [_window(e, first, steps) for first, steps in windows]
        for leg, which in ((m.a_leg, "input"), (m.e_leg, "output")):
            out = leg(e)
            _check_leg_shape(m, e, out, which)
            gaps.extend(
                sup_distance(leg(piece), _window(out, first, steps))
                for piece, (first, steps) in zip(pieces, windows)
            )
    return worst_defect(gaps)[0]


def node_map(formula: Callable, groups: Sequence, labels: tuple, name: str, which: str = "output"):
    """The ``which`` leg of machine ``name``: ``formula(t, *stacks)``, evaluated
    once on a member's absolute times and the stacks of its channel ``groups``
    picked by name, as channels ``labels`` on the member's grid step and shift.
    It carries ``node_wise`` and commutes with restriction by construction,
    bit for bit on windows of two or more nodes (numpy may round an
    ``np.matmul`` formula on one row unlike on a longer stack).  A formula
    that returns another number of rows raises StructureViolation."""
    def leg(e: Trajectory) -> Trajectory:
        stacks = [e.channels(group) for group in groups]
        values = formula(e.absolute_times, *stacks)
        if np.shape(values)[:1] != (e.num_nodes,):
            raise StructureViolation(f"machine '{name}': {which} leg changed the interval")
        return Trajectory(values, e.grid_step, e.shift, labels)
    leg.node_wise = True
    return leg


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
    ``sampler(x0, curve, ..., length, shift=0.0)``.  Its :func:`node_map` legs
    pick the input channels and evaluate the readout, which is lifted with
    :func:`~sheafsys.ode_behavior.pointwise` if it takes one node.
    """
    n = dynamics.dimension
    m = int(num_inputs)
    state_labels = tuple(state_labels) if state_labels else tuple(f"x{i}" for i in range(n))
    input_labels = tuple(input_labels) if input_labels else tuple(f"u{i}" for i in range(m))
    output_labels = tuple(output_labels) if output_labels else tuple(f"y{i}" for i in range(num_outputs))
    behavior = OdeBehavior(
        dynamics, grid_step, residual_tolerance, state_labels + input_labels,
        side_residuals=side_residuals,
    )
    a_leg = node_map(lambda t, u: u, [input_labels], input_labels, name, "input")
    e_leg = node_map(pointwise(readout, 0, 1, 1), [state_labels, input_labels], output_labels, name)
    return Machine(behavior, a_leg, e_leg, name)


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
        require_member(source.behavior, e, f"probe {i} not in the source behavior of '{phi.name}'")
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


def injectivity_probe(
    mapping: Callable[[Trajectory], Trajectory],
    probes: Sequence[Trajectory],
    separation: float,
) -> tuple:
    """The index pairs (i, j), i < j, of distinct probes whose images collide.

    Two images collide when their sup distance falls below a thousandth of
    the probe separation or is NaN (images on different grids are
    infinitely far apart and do not).  Evidence, not proof: only the given
    probes are examined, and an empty tuple says none of them collide.
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
    return tuple(collisions)


# ---------------------------------------------------------------------------
# the port-control diagram


@dataclass(frozen=True)
class DiagramReport:
    """Outcome of a port-control diagram verification.

    ``defects`` and ``collisions`` hold the verifier's verdict rows (worst
    residuals by row name, and the colliding probe index pairs of each
    injectivity probe), ``notes`` the gate rows that failed after the
    verdict had, and ``passed`` is whether every verdict row held.
    """

    defects: dict
    collisions: dict
    passed: bool
    notes: tuple = ()


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


@dataclass(frozen=True)
class _Check:
    """A row of :func:`verify_port_control_diagram`: it holds when ``measure()``, or its
    collision count, is within ``tolerance``; a failing gate says ``name (label value)``."""

    name: str
    measure: Callable[[], object]
    tolerance: float = 0.0
    error: Optional[type] = None
    label: str = ""


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
    Probes must be members of the closed behavior (NotAMember otherwise).

    The checks are one table of rows, evaluated in order under one rule: a
    failing gate row raises its error while the verdict stands, and is a
    note once the verdict has failed; a failing verdict row fails it.  The
    gates come first: the closed output leg lands in the one-point sheaf,
    finite, node-constant and the same on every probe (NotClosed, which a
    NaN ``tolerance`` raises at once); xi . psi has a_phi's variant, and
    each machine's legs, unless both are :func:`node_map` legs, commute with
    restriction within ``LEG_COMMUTE_TOL`` on the members it holds: the
    probes, the psi images, or the a_phi and xi images (StructureViolation,
    raised at once by a leg that changes the interval or the shift tag).
    The verdict rows are the leg squares of each morphism and the triangle
    on behaviors and on both leg sides, as ``defects`` (each square holds
    its members to the source behavior, so the xi square raises NotAMember
    on a psi image outside the port behavior), then injectivity probes of
    the three behavior maps, as ``collisions``.  The last gates hold each
    a_phi and xi image to the enclosing behavior (NotAMember), so an image
    outside it raises only when every verdict row holds.  Each image, leg
    and membership test is evaluated once per object and machine: the
    squares from the closed machine meet the probes' gate results, and an
    a_phi image that is its xi . psi image, as
    :func:`~sheafsys.port_diagram.build_diagram` forms it, is tested once,
    and images that are distinct objects are each checked, however alike.
    """
    node_wise = lambda leg: getattr(leg, "node_wise", False)
    gated = [not (node_wise(m.a_leg) and node_wise(m.e_leg)) for m in (closed, port, enclosing)]
    closed, port, enclosing = (
        dataclasses.replace(
            m, behavior=BehaviorSheaf(_once(m.behavior.membership), tolerance=m.behavior.tolerance),
            a_leg=_once(m.a_leg), e_leg=_once(m.e_leg),
        )
        for m in (closed, port, enclosing)
    )
    for i, e in enumerate(probes):
        require_member(closed.behavior, e, f"probe {i} not in the closed behavior")
    psi, xi, a_phi = (dataclasses.replace(phi, beta=_once(phi.beta)) for phi in (psi, xi, a_phi))
    composite = compose_morphisms(xi, psi)
    separation = _min_separation(probes)
    psi_images = lambda: [psi.beta(e) for e in probes]
    # an a_phi image that is its xi . psi image, one object, is checked once
    images = lambda: list({
        id(image): image for beta in (a_phi.beta, composite.beta) for image in map(beta, probes)
    }.values())
    constant = lambda i: closed.e_leg(probes[i]).values
    worst = lambda gaps: worst_defect(np.abs(gaps))[0]
    triangle = lambda via_psi, direct, leg: worst(
        [sup_distance(via_psi(leg(e)), direct(leg(e))) for e in probes]
    )
    checks = [
        *(
            _Check(f"closed machine output varies in time on probe {i}",
                   lambda i=i: worst(constant(i) - constant(i)[0]), tolerance, NotClosed, "wiggle")
            for i in range(len(probes))
        ),
        *(
            _Check(f"closed machine output differs between probes 0 and {i}",
                   lambda i=i: worst(constant(i)[0] - constant(0)[0]), tolerance, NotClosed, "gap")
            for i in range(1, len(probes))
        ),
        _Check(
            f"composite variant {composite.variant} does not match a_phi variant {a_phi.variant}",
            lambda: float(composite.variant != a_phi.variant), 0.0, StructureViolation,
        ),
        *(
            _Check(f"machine '{m.name}': legs fail to commute with restriction",
                   lambda m=m, members=members: leg_restriction_defect(m, members()),
                   LEG_COMMUTE_TOL, StructureViolation, "defect")
            for m, members, gate in zip((closed, port, enclosing), (lambda: probes, psi_images, images), gated)
            if gate
        ),
        _Check("psi legs", lambda: morphism_defect(psi, closed, port, probes), tolerance),
        _Check("xi legs", lambda: morphism_defect(xi, port, enclosing, psi_images()), tolerance),
        _Check("a_phi legs", lambda: morphism_defect(a_phi, closed, enclosing, probes), tolerance),
        _Check("triangle beta", lambda: triangle(composite.beta, a_phi.beta, lambda e: e), tolerance),
        _Check("triangle eta", lambda: triangle(composite.eta, a_phi.eta, closed.e_leg), tolerance),
        _Check("triangle alpha", lambda: triangle(composite.alpha, a_phi.alpha, closed.a_leg), tolerance),
        _Check("psi", lambda: injectivity_probe(psi.beta, probes, separation)),
        _Check("xi", lambda: injectivity_probe(xi.beta, psi_images(), separation)),
        _Check("a_phi", lambda: injectivity_probe(a_phi.beta, probes, separation)),
        *(
            _Check(f"image of probe {i} under {label} not in the enclosing behavior",
                   lambda beta=beta, e=e: float(enclosing.behavior.membership(beta(e))),
                   enclosing.behavior.tolerance, NotAMember, "residual")
            for label, beta in (("a_phi", a_phi.beta), ("xi", composite.beta))
            for i, e in enumerate(probes)
        ),
    ]
    defects, collisions, notes, passed = {}, {}, [], True
    for check in checks:
        got = check.measure()
        evidence = isinstance(got, tuple)  # colliding pairs, from injectivity_probe
        value = len(got) if evidence else got
        if check.error is None:
            (collisions if evidence else defects)[check.name] = got
            passed = passed and value <= check.tolerance
        elif not value <= check.tolerance:
            message = f"{check.name} ({check.label} {value:.3e})" if check.label else check.name
            if passed:
                raise check.error(message)
            notes.append(message)
    if len(probes) < 2:
        notes.append("fewer than two probes: injectivity evidence is vacuous")
    return DiagramReport(defects, collisions, passed, tuple(notes))
