import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    ControlledField,
    Machine,
    MachineMorphism,
    NotAMember,
    NotClosed,
    StructureViolation,
    Trajectory,
    closed_behavior,
    compose_morphisms,
    identity_morphism,
    injectivity_probe,
    iso_machine,
    leg_restriction_defect,
    morphism_defect,
    sup_distance,
    verify_port_control_diagram,
)
from sheafsys.systems import mass_spring_system

H = 1e-3


def integrator_machine():
    # x' = u, y = x: the machine that accumulates its input
    dyn = ControlledField(1, lambda t, x, u: u)
    return iso_machine(dyn, lambda t, x, u: x, 1, 1, H, name="accumulator")


def decay_machine():
    dyn = ControlledField(1, lambda t, x, u: -x + u)
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


def test_machine_construction_rejects_anchored_legs():
    m = integrator_machine()
    probe = m.behavior.sampler([0.3], lambda t: np.ones(1), 0.2)

    def anchored(e):
        # running sums depend on where the window starts, breaking the leg law
        sums = np.cumsum(e.values[:, :1], axis=0) * e.grid_step
        return Trajectory(sums, e.grid_step, e.shift, ("y0",))

    with pytest.raises(StructureViolation):
        Machine(m.behavior, m.a_leg, anchored, check_probes=[probe])

    def shifty(e):
        return Trajectory(e.values[:, :1], e.grid_step, e.shift + 1.0, ("y0",))

    with pytest.raises(StructureViolation):
        Machine(m.behavior, shifty, m.e_leg, check_probes=[probe])


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
        a_labels=m.e_labels,
        e_labels=m.a_labels,
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
    crossed = Machine(m.behavior, m.e_leg, m.a_leg, m.e_labels, m.a_labels, "crossed")
    run = m.behavior.sampler([0.5], lambda t: np.array([np.sin(t)]), 0.3)
    ident = lambda e: e
    into = MachineMorphism(ident, ident, ident, "swapped")
    back = MachineMorphism(ident, ident, ident, "swapped")
    around = compose_morphisms(back, into)
    assert around.variant == "straight"
    assert morphism_defect(around, m, m, [run]) == 0.0


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
    good = injectivity_probe(lambda e: e, runs, separation)
    assert good.injective_on_probes and not good.collisions
    squash = injectivity_probe(lambda e: runs[0], runs, separation)
    assert not squash.injective_on_probes
    assert (0, 1) in squash.collisions


def oscillator_probes():
    """Two closed mass_spring members and a machine whose legs are the identity."""
    behavior = closed_behavior(mass_spring_system(), H)
    ident = lambda e: e
    m = Machine(behavior.as_behavior_sheaf(), ident, ident, name="state")
    return m, [behavior.sample(x0, 0.05) for x0 in ([1.0, 0.0], [0.0, 1.0])]


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
    assert injectivity_probe(nan_at, probes, separation).collisions == ((0, 1),)
    # images on different grids are infinitely far apart, not colliding
    uneven = [probes[0], Trajectory(probes[1].values[:30], H, 0.0, probes[1].labels)]
    assert injectivity_probe(ident, uneven, separation).collisions == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 50), st.integers(0, 1))
def test_a_nan_in_an_image_gives_an_inf_defect_and_a_collision(node, channel):
    m, probes = oscillator_probes()
    ident = lambda e: e
    poison = lambda e: nan_at(e, node, channel)
    image_defect = morphism_defect(MachineMorphism(poison, ident, ident), m, m, probes)
    assert image_defect == np.inf
    result = injectivity_probe(poison, probes, sup_distance(*probes))
    assert result.collisions == ((0, 1),)


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
        behavior=behavior.as_behavior_sheaf(),
        a_leg=state,
        e_leg=zeros,
        a_labels=("y0",),
        e_labels=("o0",),
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
    doc = report.to_dict()
    assert doc["pass"] is True and "triangle beta" in doc["defects"]


def test_diagram_rejects_machines_that_are_not_closed():
    port = decay_machine()
    closed = closed_decay_machine()
    leaky_closed = Machine(
        behavior=closed.behavior,
        a_leg=closed.a_leg,
        e_leg=closed.a_leg,  # output echoes the state: visibly not closed
        a_labels=("y0",),
        e_labels=("o0",),
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
        not_closed = Machine(closed.behavior, closed.a_leg, e_leg, ("y0",), ("o0",), "nan")
        with pytest.raises(NotClosed):
            verify_port_control_diagram(
                not_closed, port, port, psi, identity_morphism(), a_phi, probes, tolerance=1e-9
            )
