import numpy as np
import pytest

from sheafsys import (
    DimensionMismatch,
    MachineMorphism,
    NotAMember,
    PHSystem,
    StructureViolation,
    Trajectory,
    build_diagram,
    check_structure,
    closed_behavior,
    closed_energy_drift,
    closed_machine,
    dissipation_margin,
    embed,
    enclosing_machine,
    port_machine,
    power_balance,
    restrict,
    verify_port_control_diagram,
)
from sheafsys.systems import mass_spring_system

H = 1e-3


def gradient_decay_system():
    # J = 0, R = I, no ports: plain gradient descent of H = |x|^2 / 2
    return PHSystem(
        2, 1,
        np.zeros((2, 2)),
        np.eye(2),
        np.zeros((2, 1)),
        lambda x: 0.5 * float(x @ x),
        lambda x: x,
    )


# ---------------------------------------------------------------------------
# structure checks


def test_check_structure_accepts_the_oscillator():
    check_structure(mass_spring_system())
    check_structure(mass_spring_system(damping=0.4))


def test_check_structure_rejects_symmetric_interconnection():
    with pytest.raises(StructureViolation, match=r"J\(x\) not antisymmetric"):
        PHSystem(
            2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)),
            np.array([[0.0], [1.0]]), lambda x: 0.5 * float(x @ x), lambda x: x,
        )


def test_check_structure_rejects_indefinite_dissipation():
    with pytest.raises(StructureViolation, match=r"R\(x\) not positive semidefinite"):
        PHSystem(
            2, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]), -np.eye(2),
            np.array([[0.0], [1.0]]), lambda x: 0.5 * float(x @ x), lambda x: x,
        )


def test_check_structure_rejects_wrong_gradient():
    with pytest.raises(StructureViolation, match="grad H inconsistent"):
        PHSystem(
            2, 1, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)),
            lambda x: 0.5 * float(x @ x),
            lambda x: 3.0 * x,  # inconsistent with H
        )


def test_enclosing_machine_reports_a_port_map_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch):
        bad = PHSystem(
            2, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)),
            lambda x: np.zeros((2, 2)),  # B(x) must be (2, 1)
            lambda x: 0.5 * float(x @ x), lambda x: x,
        )
        enclosing_machine(bad, H)


def test_a_constant_matrix_of_the_wrong_shape_is_named_with_its_shape():
    with pytest.raises(DimensionMismatch, match=r"^J\(x\) has shape \(1, 1\), expected \(2, 2\)$"):
        PHSystem(
            2, 1, [[0.0]], np.zeros((2, 2)), [[0.0], [1.0]],
            lambda x: 0.5 * float(x @ x), lambda x: x,
        )


# ---------------------------------------------------------------------------
# closed dynamics


def test_closed_oscillator_preserves_energy():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sampler([1.0, 0.0], 10.0)
    assert closed_energy_drift(ms, run) < 1e-12
    # and the orbit is the circle (cos t, -sin t)
    q = run.channels(("q",))[:, 0]
    assert np.max(np.abs(q - np.cos(run.times))) < 1e-10


def test_gradient_descent_decays_like_the_closed_form():
    sysd = gradient_decay_system()
    run = closed_behavior(sysd, H).sampler([1.0, -2.0], 2.0)
    expect = np.exp(-run.times)
    assert np.max(np.abs(run.values[:, 0] - 1.0 * expect)) < 1e-11
    assert np.max(np.abs(run.values[:, 1] + 2.0 * expect)) < 1e-11


# ---------------------------------------------------------------------------
# the enclosing behavior


def test_total_energy_with_the_linear_aux_is_conserved():
    # undamped, driven by a constant u: H(x) + u zeta is the extended
    # Hamiltonian of an antisymmetric extended field
    ms = mass_spring_system()
    beh = enclosing_machine(ms, H).behavior
    run = beh.sampler([1.0, 0.0, 0.3], lambda t: np.array([0.7]), 10.0)
    assert run.labels == ("q", "p", "zeta0", "u0")
    assert beh.membership(run) <= beh.tolerance
    u = run.channels(("u0",))[:, 0]
    assert np.all(u == 0.7)
    total = ms.hamiltonian(run.channels(ms.state_labels)) + u * run.channels(("zeta0",))[:, 0]
    assert np.max(np.abs(total - total[0])) < 1e-12


def test_the_enclosing_behavior_reads_the_signal_channels():
    ms = mass_spring_system()
    beh = enclosing_machine(ms, H).behavior
    run = beh.sampler([1.0, 0.0, 0.0], lambda t: np.array([np.sin(t)]), 2.0)
    assert beh.membership(run) <= beh.tolerance
    # the same state and zeta samples with the signals zeroed are not a member
    values = np.array(run.values)
    values[:, 3] = 0.0
    silenced = Trajectory(values, run.grid_step, run.shift, run.labels)
    assert beh.membership(silenced) > beh.tolerance


# ---------------------------------------------------------------------------
# embedding and legs


def test_embed_closed_appends_the_integrated_port_channel():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sampler([1.0, 0.0], 10.0)
    ext = embed(ms, run)
    assert ext.labels == ("q", "p", "zeta0", "u0")
    assert np.all(ext.channels(("u0",)) == 0.0)
    zeta = ext.channels(("zeta0",))[:, 0]
    assert np.max(np.abs(zeta - (1.0 - np.cos(run.times)))) < 1e-6
    with pytest.raises(NotAMember):
        embed(ms, Trajectory(np.ones((32, 2)), H, 0.0, ("q", "p")))


def test_embed_checks_a_run_as_the_closed_behavior_on_its_own_grid_does():
    ms = mass_spring_system()
    fine = closed_behavior(ms, 0.5 * H).sampler([1.0, 0.0], 0.05)
    assert embed(ms, fine).grid_step == 0.5 * H
    renamed = Trajectory(fine.values, fine.grid_step, fine.shift, ("x", "v"))
    with pytest.raises(NotAMember, match=r"^trajectory is not a closed-system member \(residual inf\)$"):
        embed(ms, renamed)


def test_embedding_windows_agree_after_reanchoring():
    # windowing before or after embedding gives the same zeta up to the
    # integration constant zeta(window start)
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sampler([1.0, 0.0], 2.0, shift=0.25)
    whole = restrict(embed(ms, run), 1.0, 0.5)
    fresh = embed(ms, restrict(run, 1.0, 0.5))
    z_window = whole.channels(("zeta0",))[:, 0]
    z_fresh = fresh.channels(("zeta0",))[:, 0]
    assert np.max(np.abs((z_window - z_window[0]) - z_fresh)) < 1e-12


def test_enclosing_legs_recover_input_and_output():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sampler([1.0, 0.0], 2.0)
    ext = embed(ms, run)
    enclosing = enclosing_machine(ms, H)
    assert np.max(np.abs(enclosing.a_leg(ext).values)) == 0.0  # zero signals drive nothing
    out = enclosing.e_leg(ext).values[:, 0]
    assert np.max(np.abs(out - run.channels(("p",))[:, 0])) == 0.0


# ---------------------------------------------------------------------------
# energy audits


def test_power_balance_on_the_driven_oscillator():
    ms = mass_spring_system()
    port = port_machine(ms, H)
    run = port.behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 10.0)
    assert power_balance(ms, run) < 1e-5


def test_power_balance_is_infinite_at_a_nan_node():
    ms = mass_spring_system()
    run = port_machine(ms, H).behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 1.0)
    values = np.array(run.values)
    values[500, 2] = np.nan  # the input channel
    assert power_balance(ms, Trajectory(values, H, run.shift, run.labels)) == np.inf


def test_damped_run_never_beats_the_supplied_power():
    msd = mass_spring_system(damping=0.1)
    port = port_machine(msd, H)
    run = port.behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 10.0)
    assert power_balance(msd, run) < 1e-5
    assert dissipation_margin(msd, run) < 1e-5


def test_ports_with_zero_map_cannot_move_the_state():
    sysd = gradient_decay_system()  # B = 0
    port = port_machine(sysd, H)
    driven = port.behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 1.0)
    silent = port.behavior.sampler([1.0, 0.0], lambda t: np.zeros(1), 1.0)
    x_driven = driven.channels(("x0", "x1"))
    x_silent = silent.channels(("x0", "x1"))
    assert np.max(np.abs(x_driven - x_silent)) == 0.0
    assert power_balance(sysd, driven) < 1e-5


# ---------------------------------------------------------------------------
# machines and the diagram


def test_closed_machine_legs():
    ms = mass_spring_system()
    closed = closed_machine(ms, H, 1e-4)
    run = closed.behavior.sampler([1.0, 0.0], 0.5)
    y = closed.a_leg(run)
    assert y.labels == ("y0",)
    assert np.max(np.abs(y.values[:, 0] - run.channels(("p",))[:, 0])) == 0.0
    o = closed.e_leg(run)
    assert np.all(o.values == 0.0) and o.dimension == 1


def test_ph_diagram_passes_and_detects_corruption():
    ms = mass_spring_system()
    beh = closed_behavior(ms, H)
    probes = [
        beh.sampler(x0, 2.0)
        for x0 in ([1.0, 0.0], [0.0, 1.0], [-0.5, 0.5], [0.3, -0.7], [1.5, 0.2])
    ]
    report = build_diagram(ms, probes, tolerance=1e-5)
    assert report.passed
    assert max(report.defects.values()) <= 1e-5
    assert not any(report.collisions.values())

    flipped = build_diagram(ms, probes, tolerance=1e-5, integral_sign=-1.0)
    assert not flipped.passed
    assert flipped.defects["triangle beta"] > 0.1
    # the corrupted xi images leave the enclosing behavior; the failing
    # report names them instead of raising
    assert any("under xi not in the enclosing behavior" in n for n in flipped.notes)


def test_ph_diagram_rejects_images_outside_the_enclosing_behavior():
    # a_phi and xi both double the zeta channels of the true maps: every leg
    # square and the triangle still commute, but the images no longer solve
    # the extended dynamics
    ms = mass_spring_system()
    beh = closed_behavior(ms, H)
    probes = [beh.sampler(x0, 1.0) for x0 in ([1.0, 0.0], [0.0, 1.0], [-0.5, 0.5])]
    ident = lambda e: e

    def doubled(ext, signals):
        values = np.array(ext.values)
        values[:, ms.n : ms.n + ms.m] *= 2.0
        values[:, ms.n + ms.m :] = signals
        return Trajectory(values, ext.grid_step, ext.shift, ext.labels)

    def zero_input(e):
        values = np.concatenate([e.values, np.zeros((e.num_nodes, 1))], axis=1)
        return Trajectory(values, e.grid_step, e.shift, e.labels + ("u0",))

    def port_to_extended(p):
        state = Trajectory(p.values[:, :ms.n], p.grid_step, p.shift, ms.state_labels)
        return doubled(embed(ms, state), p.channels(("u0",)))

    with pytest.raises(NotAMember, match="probe 0 under a_phi"):
        verify_port_control_diagram(
            closed_machine(ms, H),
            enclosing_machine(ms, H),
            port_machine(ms, H),
            MachineMorphism(zero_input, ident, ident, "swapped"),
            MachineMorphism(port_to_extended, ident, ident, "straight"),
            MachineMorphism(
                lambda e: doubled(embed(ms, e), 0.0), ident, ident, "swapped"
            ),
            probes,
        )


def test_audits_are_infinite_at_a_nan_node():
    ms = mass_spring_system()
    run = port_machine(ms, H).behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 1.0)
    for channel in (0, 2):  # a state channel and the input channel
        values = np.array(run.values)
        values[500, channel] = np.nan
        assert dissipation_margin(ms, Trajectory(values, H, run.shift, run.labels)) == np.inf
    closed = closed_behavior(ms, H).sampler([1.0, 0.0], 1.0)
    values = np.array(closed.values)
    values[500, 1] = np.nan
    assert closed_energy_drift(ms, Trajectory(values, H, closed.shift, closed.labels)) == np.inf


def test_embed_rejects_a_nan_closed_residual(monkeypatch):
    from sheafsys import ode_behavior

    run = closed_behavior(mass_spring_system(), H).sampler([1.0, 0.0], 0.05)
    monkeypatch.setattr(ode_behavior, "membership_residual", lambda *args: float("nan"))
    with pytest.raises(NotAMember):
        embed(mass_spring_system(), run)
