import numpy as np
import pytest

from sheafsys import (
    AuxHamiltonian,
    DimensionMismatch,
    MachineMorphism,
    MissingAuxTag,
    NotAMember,
    SampledCurve,
    GridMismatch,
    StructureViolation,
    Trajectory,
    aux_linear,
    aux_quadratic,
    aux_zero,
    build_ph_diagram,
    check_structure,
    closed_behavior,
    closed_energy_drift,
    dissipation_margin,
    embed_closed,
    extended_behavior,
    extended_energy,
    extended_sheaf,
    output_stencil_defect,
    ph_iso_machine,
    ph_system,
    power_balance,
    restrict,
    verify_port_control_diagram,
    write_csv,
)
from sheafsys.port_hamiltonian import (
    closed_machine,
    enclosing_machine,
    projections,
)
from sheafsys.systems import mass_spring_system

H = 1e-3


def gradient_decay_system():
    # J = 0, R = I, no ports: plain gradient descent of H = |x|^2 / 2
    return ph_system(
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
    bad = ph_system(
        2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)),
        np.array([[0.0], [1.0]]), lambda x: 0.5 * float(x @ x), lambda x: x,
    )
    with pytest.raises(StructureViolation):
        check_structure(bad)


def test_check_structure_rejects_indefinite_dissipation():
    bad = ph_system(
        2, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]), -np.eye(2),
        np.array([[0.0], [1.0]]), lambda x: 0.5 * float(x @ x), lambda x: x,
    )
    with pytest.raises(StructureViolation):
        check_structure(bad)


def test_check_structure_rejects_wrong_gradient():
    bad = ph_system(
        2, 1, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)),
        lambda x: 0.5 * float(x @ x),
        lambda x: 3.0 * x,  # inconsistent with H
    )
    with pytest.raises(StructureViolation):
        check_structure(bad)


def test_enclosing_machine_reports_a_port_map_of_the_wrong_shape():
    bad = ph_system(
        2, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)),
        lambda x: np.zeros((2, 2)),  # B(x) must be (2, 1)
        lambda x: 0.5 * float(x @ x), lambda x: x,
    )
    with pytest.raises(DimensionMismatch):
        enclosing_machine(bad, H)


# ---------------------------------------------------------------------------
# closed dynamics


def test_closed_oscillator_preserves_energy():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 10.0)
    assert closed_energy_drift(ms, run) < 1e-12
    # and the orbit is the circle (cos t, -sin t)
    q = run.channels(("q",))[:, 0]
    assert np.max(np.abs(q - np.cos(run.times))) < 1e-10


def test_gradient_descent_decays_like_the_closed_form():
    sysd = gradient_decay_system()
    run = closed_behavior(sysd, H).sample([1.0, -2.0], 2.0)
    expect = np.exp(-run.times)
    assert np.max(np.abs(run.values[:, 0] - 1.0 * expect)) < 1e-11
    assert np.max(np.abs(run.values[:, 1] + 2.0 * expect)) < 1e-11


# ---------------------------------------------------------------------------
# auxiliary energies


def test_aux_kinds_gradient_and_value():
    z = aux_zero(2)
    assert np.all(z.gradient(0.3, np.ones(2)) == 0.0)
    assert z.value(0.3, np.ones(2)) == 0.0

    lin = aux_linear(lambda s: np.array([s, 2 * s]), 2)
    assert np.allclose(lin.gradient(0.5, np.zeros(2)), [0.5, 1.0])
    assert lin.value(0.5, np.array([1.0, 1.0])) == pytest.approx(1.5)

    quad = aux_quadratic(2.0, [[1.0, 0.0], [0.0, 3.0]])
    zeta = np.array([1.0, -1.0])
    assert np.allclose(quad.gradient(9.9, zeta), [2.0, -6.0])
    assert quad.value(9.9, zeta) == pytest.approx(4.0)

    with pytest.raises(StructureViolation):
        AuxHamiltonian("cubic", 1)
    with pytest.raises(StructureViolation):
        AuxHamiltonian("linear", 1)
    with pytest.raises(StructureViolation):
        aux_quadratic(1.0, [[0.0, 1.0], [2.0, 0.0]])


def test_aux_equality_is_by_value():
    assert aux_zero(1) == aux_zero(1)
    assert aux_zero(1) != aux_zero(2)
    samples = np.sin(np.arange(11) * 0.1)
    a = aux_linear(SampledCurve(0.0, 0.1, samples), 1)
    b = aux_linear(SampledCurve(0.0, 0.1, samples.copy()), 1)
    assert a == b
    c = aux_linear(SampledCurve(0.5, 0.1, samples), 1)
    assert a != c
    assert aux_quadratic(1.0, [[1.0]]) != aux_zero(1)


def test_sampled_curve_interpolates_exactly_at_nodes():
    samples = np.array([0.0, 1.0, 4.0])
    curve = SampledCurve(1.0, 0.5, samples)
    assert curve(1.0)[0] == 0.0
    assert curve(1.5)[0] == 1.0
    assert curve(2.0)[0] == 4.0
    assert curve(1.25)[0] == pytest.approx(0.5)
    # clamped outside the sample window
    assert curve(0.0)[0] == 0.0
    assert curve(9.0)[0] == 4.0


def test_quadratic_aux_conserves_total_energy():
    ms = mass_spring_system()
    aux = aux_quadratic(0.7, [[2.0]])
    beh = extended_behavior(ms, aux, H)
    run = beh.sample([1.0, 0.0, 0.3], 10.0)
    assert beh.membership(run) <= beh.residual_tolerance
    total = extended_energy(ms, aux, run)
    assert np.max(np.abs(total - total[0])) < 1e-12


def test_extended_sheaf_reads_the_aux_tag():
    ms = mass_spring_system()
    sheaf = extended_sheaf(ms, H)
    times = np.arange(2001) * H
    aux = aux_linear(SampledCurve(0.0, H, np.sin(times)), 1)
    run = sheaf.sampler([1.0, 0.0, 0.0], 2.0, aux=aux)
    assert sheaf.membership(run) <= sheaf.tolerance
    # the same samples with the tag stripped are judged against aux zero
    naked = run.replace_aux(None)
    assert sheaf.membership(naked) > sheaf.tolerance
    with pytest.raises(MissingAuxTag):
        sheaf.membership(run.replace_aux("wrong kind of tag"))


# ---------------------------------------------------------------------------
# embedding and projections


def test_embed_closed_appends_the_integrated_port_channel():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 10.0)
    ext = embed_closed(ms, run)
    assert ext.labels == ("q", "p", "zeta0")
    assert ext.aux == aux_zero(1)
    zeta = ext.channels(("zeta0",))[:, 0]
    assert np.max(np.abs(zeta - (1.0 - np.cos(run.times)))) < 1e-6
    with pytest.raises(NotAMember):
        embed_closed(ms, Trajectory(np.ones((32, 2)), H, 0.0, ("q", "p")))


def test_write_csv_refuses_a_tagged_trajectory(tmp_path):
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 0.1)
    path = tmp_path / "tagged.csv"
    with pytest.raises(GridMismatch):
        write_csv(embed_closed(ms, run), path)
    assert not path.exists()


def test_embedding_windows_agree_after_reanchoring():
    # windowing before or after embedding gives the same zeta up to the
    # integration constant zeta(window start)
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 2.0, shift=0.25)
    whole = restrict(embed_closed(ms, run), 1.0, 0.5)
    fresh = embed_closed(ms, restrict(run, 1.0, 0.5))
    z_window = whole.channels(("zeta0",))[:, 0]
    z_fresh = fresh.channels(("zeta0",))[:, 0]
    assert np.max(np.abs((z_window - z_window[0]) - z_fresh)) < 1e-12


def test_projections_recover_input_and_output():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 2.0)
    ext = embed_closed(ms, run)
    a_leg, e_leg = projections(ms)
    assert np.max(np.abs(a_leg(ext).values)) == 0.0  # zero aux drives nothing
    out = e_leg(ext).values[:, 0]
    assert np.max(np.abs(out - run.channels(("p",))[:, 0])) == 0.0
    with pytest.raises(MissingAuxTag):
        a_leg(ext.replace_aux(None))


def test_output_stencil_defect_is_small_but_nonzero():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sample([1.0, 0.0], 2.0)
    gap = output_stencil_defect(ms, embed_closed(ms, run))
    assert 1e-9 < gap < 1e-5


# ---------------------------------------------------------------------------
# energy audits


def test_power_balance_on_the_driven_oscillator():
    ms = mass_spring_system()
    port = ph_iso_machine(ms, H)
    run = port.behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 10.0)
    assert power_balance(ms, run) < 1e-5


def test_power_balance_is_infinite_at_a_nan_node():
    ms = mass_spring_system()
    run = ph_iso_machine(ms, H).behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 1.0)
    values = np.array(run.values)
    values[500, 2] = np.nan  # the input channel
    assert power_balance(ms, Trajectory(values, H, run.shift, run.labels)) == np.inf


def test_damped_run_never_beats_the_supplied_power():
    msd = mass_spring_system(damping=0.1)
    port = ph_iso_machine(msd, H)
    run = port.behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 10.0)
    assert power_balance(msd, run) < 1e-5
    assert dissipation_margin(msd, run) < 1e-5


def test_ports_with_zero_map_cannot_move_the_state():
    sysd = gradient_decay_system()  # B = 0
    port = ph_iso_machine(sysd, H)
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
        beh.sample(x0, 2.0)
        for x0 in ([1.0, 0.0], [0.0, 1.0], [-0.5, 0.5], [0.3, -0.7], [1.5, 0.2])
    ]
    report = build_ph_diagram(ms, probes, tolerance=1e-5)
    assert report.passed
    assert max(report.defects.values()) <= 1e-5
    assert all(r.injective_on_probes for r in report.collisions.values())

    flipped = build_ph_diagram(ms, probes, tolerance=1e-5, integral_sign=-1.0)
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
    probes = [beh.sample(x0, 1.0) for x0 in ([1.0, 0.0], [0.0, 1.0], [-0.5, 0.5])]
    ident = lambda e: e

    def doubled(ext, aux):
        values = np.array(ext.values)
        values[:, ms.n:] *= 2.0
        return Trajectory(values, ext.grid_step, ext.shift, ext.labels, aux)

    def zero_input(e):
        values = np.concatenate([e.values, np.zeros((e.num_nodes, 1))], axis=1)
        return Trajectory(values, e.grid_step, e.shift, e.labels + ("u0",))

    def port_to_extended(p):
        state = Trajectory(p.values[:, :ms.n], p.grid_step, p.shift, ms.state_labels)
        curve = SampledCurve(-p.shift, p.grid_step, p.channels(("u0",)))
        return doubled(embed_closed(ms, state), aux_linear(curve, 1))

    with pytest.raises(NotAMember, match="probe 0 under a_phi"):
        verify_port_control_diagram(
            closed_machine(ms, H),
            enclosing_machine(ms, H),
            ph_iso_machine(ms, H),
            MachineMorphism(zero_input, ident, ident, "swapped"),
            MachineMorphism(port_to_extended, ident, ident, "straight"),
            MachineMorphism(
                lambda e: doubled(embed_closed(ms, e), aux_zero(1)), ident, ident, "swapped"
            ),
            probes,
        )


def test_audits_are_infinite_at_a_nan_node():
    ms = mass_spring_system()
    run = ph_iso_machine(ms, H).behavior.sampler([1.0, 0.0], lambda t: np.array([np.sin(t)]), 1.0)
    for channel in (0, 2):  # a state channel and the input channel
        values = np.array(run.values)
        values[500, channel] = np.nan
        assert dissipation_margin(ms, Trajectory(values, H, run.shift, run.labels)) == np.inf
    closed = closed_behavior(ms, H).sample([1.0, 0.0], 1.0)
    values = np.array(closed.values)
    values[500, 1] = np.nan
    assert closed_energy_drift(ms, Trajectory(values, H, closed.shift, closed.labels)) == np.inf
