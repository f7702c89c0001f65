import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    BehaviorSheaf,
    Machine,
    MachineMorphism,
    NotAMember,
    NotClosed,
    OdeBehavior,
    StructureViolation,
    Trajectory,
    VectorField,
    batched,
    check_sheaf_axioms,
    closed_behavior,
    compose_morphisms,
    identical,
    identity_morphism,
    injectivity_probe,
    iso_machine,
    leg_restriction_defect,
    morphism_defect,
    restrict,
    sup_distance,
    verify_port_control_diagram,
)
from sheafsys import build_diagram, port_diagram
from sheafsys.machine import LEG_COMMUTE_TOL
from sheafsys.systems import mass_spring_system, resolve_builtin, seeded_initial_states

H = 1e-3


def integrator_machine():
    # x' = u, y = x: the machine that accumulates its input
    dyn = VectorField(1, lambda t, x, u: u)
    return iso_machine(dyn, lambda t, x, u: x, 1, 1, H, name="accumulator")


def decay_machine():
    dyn = VectorField(1, lambda t, x, u: -x + u)
    return iso_machine(dyn, lambda t, x, u: x, 1, 1, H, name="leaky")


def test_iso_machine_sampler_and_legs():
    m = integrator_machine()
    run = m.behavior.sampler([0.0], lambda t: np.ones(1), 0.5)
    assert run.labels == ("x0", "u0")
    # constant drive integrates to a ramp, exactly for RK4
    assert np.max(np.abs(run.channels(("x0",))[:, 0] - run.times)) < 1e-13
    a = m.a_leg(run)
    e = m.e_leg(run)
    assert np.all(a.values == 1.0)
    assert np.max(np.abs(e.values[:, 0] - run.times)) < 1e-13
    assert a.shift == run.shift and e.grid_step == run.grid_step
    # the input leg freezes its own pick of the channels, as the constructor would
    assert identical(a, Trajectory(run.channels(("u0",)), run.grid_step, run.shift, ("u0",)))
    assert not a.values.flags.writeable and not np.shares_memory(a.values, run.values)


def test_iso_machine_membership_and_input_recovery():
    m = decay_machine()
    drive = lambda t: np.array([np.sin(t)])
    run = m.behavior.sampler([0.0], drive, 1.0)
    assert m.behavior.membership(run) <= m.behavior.tolerance
    # forced response from rest: x = (sin t - cos t + exp(-t)) / 2
    expect = 0.5 * (np.sin(run.times) - np.cos(run.times) + np.exp(-run.times))
    assert np.max(np.abs(run.channels(("x0",))[:, 0] - expect)) < 1e-10
    corrupted = np.array(run.values)
    corrupted[300, 0] += 1e-2
    bad = Trajectory(corrupted, run.grid_step, run.shift, run.labels)
    assert m.behavior.membership(bad) > m.behavior.tolerance


def test_legs_commute_with_restriction_exactly():
    m = decay_machine()
    probes = [
        m.behavior.sampler([x0], lambda t: np.array([np.cos(t)]), 0.4, shift=s)
        for x0, s in ((1.0, 0.0), (-0.5, 0.1), (2.0, 0.25))
    ]
    assert leg_restriction_defect(m, probes) == 0.0


def test_leg_laws_reject_anchored_and_shifted_legs():
    m = integrator_machine()
    probe = m.behavior.sampler([0.3], lambda t: np.ones(1), 0.2)

    def anchored(e):
        # running sums depend on where the window starts, breaking the leg law
        sums = np.cumsum(e.values[:, :1], axis=0) * e.grid_step
        return Trajectory(sums, e.grid_step, e.shift, ("y0",))

    assert leg_restriction_defect(Machine(m.behavior, m.a_leg, anchored), [probe]) > LEG_COMMUTE_TOL

    def shifty(e):
        return Trajectory(e.values[:, :1], e.grid_step, e.shift + 1.0, ("y0",))

    with pytest.raises(StructureViolation, match="shift tag"):
        leg_restriction_defect(Machine(m.behavior, shifty, m.e_leg), [probe])

    def short(e):  # drops the last node
        return Trajectory(e.values[:-1, :1], e.grid_step, e.shift, ("y0",))

    with pytest.raises(StructureViolation, match="^machine 'integrator': output leg changed the interval$"):
        leg_restriction_defect(Machine(m.behavior, m.a_leg, short, "integrator"), [probe])


def test_a_node_wise_leg_that_drops_a_node_raises_at_its_first_call():
    # the message leg_restriction_defect gives a hand-written leg that drops a node
    dyn = VectorField(1, lambda t, x, u: u)
    m = iso_machine(dyn, batched(lambda t, x, u: x[:-1]), 1, 1, H, name="integrator")
    probe = m.behavior.sampler([0.3], lambda t: np.ones(1), 0.2)
    assert m.a_leg(probe).num_nodes == probe.num_nodes
    with pytest.raises(StructureViolation, match="^machine 'integrator': output leg changed the interval$"):
        m.e_leg(probe)


def test_identity_morphism_has_zero_defect():
    m = decay_machine()
    run = m.behavior.sampler([1.0], lambda t: np.zeros(1), 0.3)
    assert morphism_defect(identity_morphism(), m, m, [run]) == 0.0


def test_morphism_defect_detects_leg_corruption():
    m = decay_machine()
    run = m.behavior.sampler([1.0], lambda t: np.ones(1), 0.3)
    doubler = MachineMorphism(
        beta=lambda e: e,
        eta=lambda e: Trajectory(2.0 * e.values, e.grid_step, e.shift, e.labels),
        alpha=lambda e: e,
    )
    defect = morphism_defect(doubler, m, m, [run])
    assert defect > 0.1


def test_morphism_defect_requires_membership():
    m = decay_machine()
    # constant state with zero drive decays, so these samples are not a run
    values = np.concatenate([np.ones((11, 1)), np.zeros((11, 1))], axis=1)
    stranger = Trajectory(values, H, 0.0, ("x0", "u0"))
    with pytest.raises(NotAMember):
        morphism_defect(identity_morphism(), m, m, [stranger])
    # the check can be disabled for leg-only experiments
    assert morphism_defect(identity_morphism(), m, m, [stranger], check_membership=False) == 0.0


def test_swapped_morphism_crosses_the_legs():
    m = decay_machine()
    crossed = Machine(
        behavior=m.behavior,
        a_leg=m.e_leg,
        e_leg=m.a_leg,
        name="crossed",
    )
    run = m.behavior.sampler([0.5], lambda t: np.array([np.sin(t)]), 0.3)
    ident = lambda e: e
    swapped = MachineMorphism(ident, ident, ident, variant="swapped")
    assert morphism_defect(swapped, m, crossed, [run]) == 0.0
    straight = MachineMorphism(ident, ident, ident, variant="straight")
    assert morphism_defect(straight, m, crossed, [run]) > 0.0


def test_compose_morphisms_variant_algebra():
    ident = lambda e: e
    s = MachineMorphism(ident, ident, ident, "straight")
    w = MachineMorphism(ident, ident, ident, "swapped")
    assert compose_morphisms(s, s).variant == "straight"
    assert compose_morphisms(w, s).variant == "swapped"
    assert compose_morphisms(s, w).variant == "swapped"
    assert compose_morphisms(w, w).variant == "straight"
    with pytest.raises(StructureViolation):
        MachineMorphism(ident, ident, ident, "diagonal")


def test_composite_of_exact_morphisms_is_exact():
    m = decay_machine()
    crossed = Machine(m.behavior, m.e_leg, m.a_leg, "crossed")
    run = m.behavior.sampler([0.5], lambda t: np.array([np.sin(t)]), 0.3)
    ident = lambda e: e
    into = MachineMorphism(ident, ident, ident, "swapped")
    back = MachineMorphism(ident, ident, ident, "swapped")
    around = compose_morphisms(back, into)
    assert around.variant == "straight"
    assert morphism_defect(around, m, m, [run]) == 0.0


@pytest.mark.parametrize("scale, collisions", [(0.5e-3, ((0, 1),)), (2e-3, ())])
def test_injectivity_threshold_is_a_thousandth_of_the_separation(scale, collisions):
    m = decay_machine()
    # with zero drive the pairwise distances are those at t = 0: 1, 4 and 3
    runs = [m.behavior.sampler([x0], lambda t: np.zeros(1), 0.2) for x0 in (1.0, 2.0, 5.0)]
    separation = sup_distance(runs[0], runs[1])
    shrink = lambda e: Trajectory(scale * e.values, e.grid_step, e.shift, e.labels)
    assert injectivity_probe(shrink, runs, separation) == collisions


def test_injectivity_probe_flags_collapsed_maps():
    m = decay_machine()
    runs = [
        m.behavior.sampler([x0], lambda t: np.zeros(1), 0.2)
        for x0 in (1.0, 2.0, -1.0)
    ]
    separation = min(
        sup_distance(runs[i], runs[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert injectivity_probe(lambda e: e, runs, separation) == ()
    assert (0, 1) in injectivity_probe(lambda e: runs[0], runs, separation)


def test_injectivity_probe_skips_probes_closer_than_its_threshold():
    m = decay_machine()
    runs = [m.behavior.sampler([x0], lambda t: np.zeros(1), 0.2) for x0 in (1.0, 2.0)]
    separation = sup_distance(*runs)
    # the twin of probe 0 is no distinct probe: its equal image is no collision
    assert injectivity_probe(lambda e: e, [runs[0], runs[0], runs[1]], separation) == ()
    assert injectivity_probe(lambda e: runs[0], [runs[0], runs[0], runs[1]], separation) == ((0, 2), (1, 2))


def oscillator_probes():
    """Two closed mass_spring members and a machine whose legs are the identity."""
    behavior = closed_behavior(mass_spring_system(), H)
    ident = lambda e: e
    m = Machine(behavior, ident, ident, name="state")
    return m, [behavior.sampler(x0, 0.05) for x0 in ([1.0, 0.0], [0.0, 1.0])]


def nan_at(e, node=None, channel=None):
    """``e`` with NaN at one node and channel, or everywhere when none is given."""
    values = np.array(e.values)
    if node is None:
        values[:] = np.nan
    else:
        values[node, channel] = np.nan
    return Trajectory(values, e.grid_step, e.shift, e.labels)


def test_nan_legs_and_images_never_pass_for_small():
    m, probes = oscillator_probes()
    ident = lambda e: e
    nan_eta = MachineMorphism(beta=ident, eta=nan_at, alpha=ident)
    assert morphism_defect(nan_eta, m, m, probes) == np.inf
    assert leg_restriction_defect(Machine(m.behavior, ident, nan_at), probes) == np.inf
    separation = sup_distance(*probes)
    assert injectivity_probe(nan_at, probes, separation) == ((0, 1),)
    # images on different grids are infinitely far apart, not colliding
    uneven = [probes[0], Trajectory(probes[1].values[:30], H, 0.0, probes[1].labels)]
    assert injectivity_probe(ident, uneven, separation) == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 50), st.integers(0, 1))
def test_a_nan_in_an_image_gives_an_inf_defect_and_a_collision(node, channel):
    m, probes = oscillator_probes()
    ident = lambda e: e
    poison = lambda e: nan_at(e, node, channel)
    image_defect = morphism_defect(MachineMorphism(poison, ident, ident), m, m, probes)
    assert image_defect == np.inf
    assert injectivity_probe(poison, probes, sup_distance(*probes)) == ((0, 1),)


def closed_decay_machine():
    """The port system with its input forced to zero, as a closed machine."""
    from sheafsys import OdeBehavior
    from sheafsys.systems import linear_field

    behavior = OdeBehavior(linear_field(), H, 1e-4)

    def zeros(e):
        return Trajectory(
            np.zeros((e.num_nodes, 1)), e.grid_step, e.shift, ("o0",)
        )

    def state(e):
        return Trajectory(e.values[:, :1], e.grid_step, e.shift, ("y0",))

    return Machine(
        behavior=behavior,
        a_leg=state,
        e_leg=zeros,
        name="closed",
    )


def closed_probe_runs(closed, count=3, length=0.3):
    return [
        closed.behavior.sampler([x0], length)
        for x0 in np.linspace(0.5, 2.0, count)
    ]


def append_zero_input(e):
    padded = np.concatenate([e.values, np.zeros((e.num_nodes, 1))], axis=1)
    return Trajectory(padded, e.grid_step, e.shift, ("x0", "u0"))


def test_port_control_diagram_with_identity_interface():
    port = decay_machine()
    closed = closed_decay_machine()
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped", "into port")
    xi = identity_morphism("interface")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped", "into model")
    probes = closed_probe_runs(closed)
    report = verify_port_control_diagram(
        closed, port, port, psi, xi, a_phi, probes, tolerance=1e-9
    )
    assert report.passed
    assert all(v <= 1e-9 for v in report.defects.values())
    assert "triangle beta" in report.defects
    assert report.collisions == {"psi": (), "xi": (), "a_phi": ()}


def test_diagram_rejects_machines_that_are_not_closed():
    port = decay_machine()
    closed = closed_decay_machine()
    leaky_closed = Machine(
        behavior=closed.behavior,
        a_leg=closed.a_leg,
        e_leg=closed.a_leg,  # output echoes the state: visibly not closed
        name="not closed",
    )
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    probes = closed_probe_runs(closed)
    with pytest.raises(NotClosed):
        verify_port_control_diagram(
            leaky_closed,
            port,
            port,
            psi,
            identity_morphism(),
            a_phi,
            probes,
            tolerance=1e-9,
        )


def test_diagram_requires_consistent_variants():
    port = decay_machine()
    closed = closed_decay_machine()
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    xi = identity_morphism()
    straight_a_phi = MachineMorphism(append_zero_input, ident, ident, "straight")
    with pytest.raises(StructureViolation):
        verify_port_control_diagram(
            closed, port, port, psi, xi, straight_a_phi,
            closed_probe_runs(closed), tolerance=1e-9,
        )


def test_an_all_nan_constant_leg_is_not_closed():
    port = decay_machine()
    closed = closed_decay_machine()
    nan_leg = lambda e: Trajectory(np.full((e.num_nodes, 1), np.nan), e.grid_step, e.shift, ("o0",))
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    probes = closed_probe_runs(closed)
    for e_leg in (nan_leg, lambda e: nan_leg(e) if e is probes[1] else closed.e_leg(e)):
        not_closed = Machine(closed.behavior, closed.a_leg, e_leg, "nan")
        with pytest.raises(NotClosed):
            verify_port_control_diagram(
                not_closed, port, port, psi, identity_morphism(), a_phi, probes, tolerance=1e-9
            )


CLOSEDNESS_TOL = 1e-6


def closed_with(e_leg):
    closed = closed_decay_machine()
    return Machine(closed.behavior, closed.a_leg, e_leg, "closed")


def verify_with_constant_leg(leg, probes):
    """Verify the identity-interface diagram with ``leg`` as the closed
    machine's constant leg."""
    port = decay_machine()
    closed = closed_with(leg)
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    return verify_port_control_diagram(
        closed, port, port, psi, identity_morphism(), a_phi, probes, tolerance=CLOSEDNESS_TOL
    )


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_closedness_gate_on_a_leg_that_varies_in_time(factor):
    amplitude = factor * CLOSEDNESS_TOL
    probes = closed_probe_runs(closed_decay_machine(), length=0.3)

    def ramp(e):
        # node-local, so it commutes with restriction; rises by the amplitude over a probe
        values = amplitude * e.absolute_times[:, np.newaxis] / 0.3
        return Trajectory(values, e.grid_step, e.shift, ("o0",))

    if factor > 1:
        with pytest.raises(NotClosed, match="varies in time"):
            verify_with_constant_leg(ramp, probes)
    else:
        assert verify_with_constant_leg(ramp, probes).passed


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_closedness_gate_on_constants_that_differ_between_probes(factor):
    closed = closed_decay_machine()
    probes = [closed.behavior.sampler([x0], 0.3) for x0 in (1.0, 1.0 + factor * CLOSEDNESS_TOL)]

    def initial_state(e):
        # x' = -x keeps x(t) e^t at x(0), so each probe's leg is its own constant
        values = e.values * np.exp(e.absolute_times)[:, np.newaxis] - 1.0
        return Trajectory(values, e.grid_step, e.shift, ("o0",))

    if factor > 1:
        with pytest.raises(NotClosed, match="differs between probes"):
            verify_with_constant_leg(initial_state, probes)
    else:
        assert verify_with_constant_leg(initial_state, probes).passed


def nan_membership(m):
    """``m`` with a behavior whose membership residual is NaN everywhere."""
    sheaf = BehaviorSheaf(lambda e: float("nan"), m.behavior.sampler, m.behavior.tolerance)
    return Machine(sheaf, m.a_leg, m.e_leg, m.name)


def test_morphism_defect_rejects_a_nan_membership():
    m, probes = oscillator_probes()
    with pytest.raises(NotAMember):
        morphism_defect(identity_morphism(), nan_membership(m), m, probes[:1])


def test_diagram_rejects_probes_with_a_nan_membership():
    port = decay_machine()
    closed = closed_decay_machine()
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    with pytest.raises(NotAMember, match="closed behavior"):
        verify_port_control_diagram(
            nan_membership(closed), port, port, psi, identity_morphism(), a_phi,
            closed_probe_runs(closed), tolerance=1e-9,
        )


def test_diagram_rejects_images_with_a_nan_enclosing_membership():
    port = decay_machine()
    closed = closed_decay_machine()
    ident = lambda e: e
    psi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    a_phi = MachineMorphism(append_zero_input, ident, ident, "swapped")
    with pytest.raises(NotAMember, match="enclosing"):
        verify_port_control_diagram(
            closed, nan_membership(port), port, psi, identity_morphism(), a_phi,
            closed_probe_runs(closed), tolerance=1e-9,
        )


def test_images_with_a_nan_shift_collide():
    _, probes = oscillator_probes()
    nan_shift = lambda e: Trajectory(e.values, e.grid_step, float("nan"), e.labels)
    assert injectivity_probe(nan_shift, probes, sup_distance(*probes)) == ((0, 1),)


def plus_shift(m, name=None):
    """``m``, renamed to ``name`` if given, with an output leg that adds the
    shift: it agrees with the true leg on shift-0 members, not on their windows."""

    def e_leg(e):
        out = m.e_leg(e)
        return Trajectory(out.values + e.shift, out.grid_step, out.shift, out.labels)

    return Machine(m.behavior, m.a_leg, e_leg, name or m.name)


def refusing_psi_images():
    """psi, and an enclosing machine whose behavior refuses exactly the psi
    images, which the identity xi carries over unchanged."""
    images = []

    def into_port(e):
        images.append(append_zero_input(e))
        return images[-1]

    refuse = lambda e: np.nan if any(e is image for image in images) else 0.0
    legs = decay_machine()
    enclosing = Machine(BehaviorSheaf(refuse, None, 1e-4), legs.a_leg, legs.e_leg, "enclosing")
    return {"psi": MachineMorphism(into_port, lambda e: e, lambda e: e, "swapped"), "enclosing": enclosing}


def plus_one(e):
    return Trajectory(e.values + 1.0, e.grid_step, e.shift, e.labels)


NAN_IMAGES = tuple(
    f"image of probe {i} under {label} not in the enclosing behavior (residual nan)"
    for label in ("a_phi", "xi")
    for i in range(3)
)
# per case: the parts that replace those of the identity-interface diagram,
# and the error raised with its full text, or None and the full notes
VERIFIER_MESSAGES = {
    "probe not a member": (
        lambda: {"closed": nan_membership(closed_decay_machine())},
        NotAMember,
        "probe 0 not in the closed behavior (residual nan)",
    ),
    "varies in time": (
        lambda: {"closed": closed_with(lambda e: Trajectory(
            e.absolute_times[:, np.newaxis], e.grid_step, e.shift, ("o0",)
        ))},
        NotClosed,
        "closed machine output varies in time on probe 0 (wiggle 3.000e-01)",
    ),
    "differs between probes": (
        # each probe's initial state at every node
        lambda: {"closed": closed_with(lambda e: Trajectory(
            np.full((e.num_nodes, 1), e.values[0, 0]), e.grid_step, e.shift, ("o0",)
        ))},
        NotClosed,
        "closed machine output differs between probes 0 and 1 (gap 7.500e-01)",
    ),
    "composite variant": (
        lambda: {"a_phi": MachineMorphism(append_zero_input, lambda e: e, lambda e: e, "straight")},
        StructureViolation,
        "composite variant swapped does not match a_phi variant straight",
    ),
    **{
        f"{which} legs fail to commute": (
            lambda which=which: {which: plus_shift(
                closed_decay_machine() if which == "closed" else decay_machine(), which
            )},
            StructureViolation,
            f"machine '{which}': legs fail to commute with restriction (defect 1.500e-01)",
        )
        for which in ("closed", "port", "enclosing")
    },
    "a_phi image not a member": (
        lambda: {"enclosing": nan_membership(decay_machine())},
        NotAMember,
        NAN_IMAGES[0],
    ),
    "xi image not a member": (refusing_psi_images, NotAMember, NAN_IMAGES[3]),
    "images not members of a failing diagram": (
        lambda: {
            "enclosing": nan_membership(decay_machine()),
            "a_phi": MachineMorphism(append_zero_input, plus_one, lambda e: e, "swapped"),
        },
        None,
        NAN_IMAGES,
    ),
    "vacuous injectivity": (
        lambda: {"probes": closed_probe_runs(closed_decay_machine(), count=1)},
        None,
        ("fewer than two probes: injectivity evidence is vacuous",),
    ),
}


@pytest.mark.parametrize("case", list(VERIFIER_MESSAGES))
def test_every_verifier_message_and_note_byte_for_byte(case):
    replace, error, text = VERIFIER_MESSAGES[case]
    closed = closed_decay_machine()
    into = MachineMorphism(append_zero_input, lambda e: e, lambda e: e, "swapped")
    parts = {
        "closed": closed, "enclosing": decay_machine(), "port": decay_machine(),
        "psi": into, "xi": identity_morphism(), "a_phi": into,
        "probes": closed_probe_runs(closed), "tolerance": 1e-9,
    }
    parts.update(replace())
    if error is None:
        report = verify_port_control_diagram(**parts)
        assert report.notes == text
        assert report.passed == (case == "vacuous injectivity")
    else:
        with pytest.raises(error) as caught:
            verify_port_control_diagram(**parts)
        assert str(caught.value) == text


DIAGRAMS = ("mass_spring", "rigid_body")  # a built-in of each family


@pytest.mark.parametrize("name", DIAGRAMS)
def test_a_diagram_needs_a_probe(name):
    with pytest.raises(NotAMember, match="^need at least one closed-system probe$"):
        build_diagram(resolve_builtin(name).instance, [])


def clean_probes(name):
    bundle = resolve_builtin(name)
    behavior = closed_behavior(bundle.instance, H, bundle.residual_tolerance)
    starts = seeded_initial_states(3, 2, bundle.instance.n)
    return bundle, [behavior.sampler(x0, 0.05) for x0 in starts]


def counted_memberships(monkeypatch, system):
    """The members each of the closed, port and enclosing behaviors of
    ``system`` is asked about from here on, by behavior."""
    seen = {"closed": [], "port": [], "enclosing": []}
    which = {
        system.state_labels: "closed",
        system.state_labels + system.signal_labels: "port",
        system.state_labels + system.zeta_labels + system.signal_labels: "enclosing",
    }
    membership = OdeBehavior.membership

    def counting(self, e):
        seen[which[self.labels]].append(e)  # held, so every id stays distinct
        return membership(self, e)

    monkeypatch.setattr(OdeBehavior, "membership", counting)
    return seen


@pytest.mark.parametrize("name", DIAGRAMS)
def test_the_diagram_tests_each_membership_once_per_probe(monkeypatch, name):
    bundle = resolve_builtin(name)
    system, tol = bundle.instance, bundle.residual_tolerance
    behavior = closed_behavior(system, H, tol)
    probes = [behavior.sampler(x0, 0.05) for x0 in seeded_initial_states(3, 5, system.n)]
    seen = counted_memberships(monkeypatch, system)
    assert build_diagram(system, probes, residual_tolerance=tol).passed
    assert {k: len(v) for k, v in seen.items()} == {"closed": 5, "port": 5, "enclosing": 5}

    # a corrupted quadrature gives xi images apart from the a_phi images
    seen = counted_memberships(monkeypatch, system)
    assert not build_diagram(system, probes, residual_tolerance=tol, integral_sign=-1.0).passed
    assert len({id(e) for e in seen["enclosing"]}) == len(seen["enclosing"]) == 10

    # embed, which the diagram no longer calls, keeps its own gate
    stranger = Trajectory(np.ones((32, system.n)), H, 0.0, system.state_labels)
    with pytest.raises(NotAMember, match="^trajectory is not a closed-system member"):
        port_diagram.embed(system, stranger, tol)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(DIAGRAMS),
    st.integers(0, 1),
    st.integers(0, 50),
    st.integers(0, 2),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_a_poisoned_probe_never_passes_the_diagram(name, probe, node, channel, value):
    bundle, probes = clean_probes(name)
    e = probes[probe]
    values = np.array(e.values)
    values[node, channel % e.dimension] = value
    probes[probe] = Trajectory(values, e.grid_step, e.shift, e.labels)
    with pytest.raises(NotAMember, match=f"probe {probe} "):
        build_diagram(bundle.instance, probes, residual_tolerance=bundle.residual_tolerance)


@pytest.mark.parametrize("name", DIAGRAMS)
@pytest.mark.parametrize("which", ["closed", "port", "enclosing"])
def test_an_output_leg_that_reads_the_shift_fails_the_diagram(monkeypatch, name, which):
    bundle, probes = clean_probes(name)
    build = getattr(port_diagram, f"{which}_machine")
    assert build_diagram(bundle.instance, probes, residual_tolerance=bundle.residual_tolerance).passed

    monkeypatch.setattr(port_diagram, f"{which}_machine", lambda *args: plus_shift(build(*args)))
    with pytest.raises(StructureViolation, match=f"machine '{which}': legs fail to commute"):
        build_diagram(bundle.instance, probes, residual_tolerance=bundle.residual_tolerance)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_the_enclosing_behavior_is_a_sheaf_on_driven_members(name):
    # xi images of port runs driven by u = 0.5 sin t (tau = 0) glue back
    # bit-exactly at every cut, and the enclosing legs commute with restrict
    # bit-exactly on them
    bundle = resolve_builtin(name)
    system, tol = bundle.instance, bundle.residual_tolerance
    groups = len(system.signal_labels) // system.m  # u, and tau for metriplectic
    curves = [lambda t: np.full(system.m, 0.5 * np.sin(t))]
    curves += [lambda t: np.zeros(system.m)] * (groups - 1)
    port = port_diagram.port_machine(system, H, tol).behavior
    xi = port_diagram.port_to_extended_morphism(system)
    runs = port.sampler(seeded_initial_states(4, 3, system.n), *curves, 0.5)
    images = [xi.beta(run) for run in runs]
    assert all(np.max(np.abs(e.channels(system.input_labels))) > 0.2 for e in images)
    enclosing = port_diagram.enclosing_machine(system, H, tol)
    report = check_sheaf_axioms(
        enclosing.behavior, images, [0.125, 0.25, 0.375]
    )
    assert report.passed
    assert all(c.glue_exact for c in report.checks) and len(report.checks) == 9
    assert leg_restriction_defect(enclosing, images) == 0.0


@pytest.mark.parametrize("name", DIAGRAMS)
def test_an_xi_image_is_c_contiguous_so_its_windows_are_views(name):
    bundle = resolve_builtin(name)
    system = bundle.instance
    port = port_diagram.port_machine(system, H, bundle.residual_tolerance).behavior
    zero = [lambda t: np.zeros(system.m)] * (len(system.signal_labels) // system.m)
    run = port.sampler(seeded_initial_states(4, 1, system.n)[0], *zero, 0.05)
    image = port_diagram.port_to_extended_morphism(system).beta(run)
    assert image.values.flags.c_contiguous
    window = restrict(image, 20 * H, 10 * H)
    assert np.shares_memory(window.values, image.values)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_the_diagram_checks_no_leg_law_of_node_wise_legs(monkeypatch, name):
    bundle, probes = clean_probes(name)
    system, tol = bundle.instance, bundle.residual_tolerance
    for which in ("closed", "port", "enclosing"):
        m = getattr(port_diagram, f"{which}_machine")(system, H, tol)
        assert m.a_leg.node_wise and m.e_leg.node_wise
    calls = []
    defect = leg_restriction_defect

    def spy(m, members):
        calls.append(m.name)
        return defect(m, members)

    monkeypatch.setattr("sheafsys.machine.leg_restriction_defect", spy)
    assert build_diagram(system, probes, residual_tolerance=tol).passed
    assert calls == []
    # a hand-written leg is checked still, on the members its machine holds
    build = port_diagram.port_machine
    monkeypatch.setattr(port_diagram, "port_machine", lambda *args: plus_shift(build(*args)))
    with pytest.raises(StructureViolation, match="machine 'port': legs fail to commute"):
        build_diagram(system, probes, residual_tolerance=tol)
    assert calls == ["port"]


def test_a_non_finite_node_wise_leg_fails_the_square_that_reads_it():
    # NaN at node 3 of every member: the leg commutes with restriction, so
    # no leg law blames it, and the psi and xi squares that read it fail
    nan_at_node_3 = batched(lambda t, x, u: np.where(np.arange(len(t))[:, np.newaxis] == 3, np.nan, x))
    port = iso_machine(VectorField(1, lambda t, x, u: -x + u), nan_at_node_3, 1, 1, H, name="port")
    closed = closed_decay_machine()
    into = MachineMorphism(append_zero_input, lambda e: e, lambda e: e, "swapped")
    report = verify_port_control_diagram(
        closed, decay_machine(), port, into, identity_morphism(), into,
        closed_probe_runs(closed), tolerance=1e-9,
    )
    assert report.defects["psi legs"] == np.inf and report.defects["xi legs"] == np.inf
    assert report.defects["a_phi legs"] == 0.0
    assert not report.passed
