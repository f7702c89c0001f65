"""A ledger of verdicts known to be wrong, each asserted the right way round.

Every case states the verdict the library should give and is marked as a
strict expected failure of its assertion, with the ROADMAP item that would
mend it; any other error fails the suite.  Because the mark is strict, a
case that starts to pass fails the suite too (XPASS): the change that mends
it removes the mark, so a case leaves this ledger only by becoming a passing
regular test.  The numbers in the comments are what the library gives today.
"""

import dataclasses

import numpy as np
import pytest

from sheafsys import (
    NotAMember,
    PHSystem,
    StructureViolation,
    Trajectory,
    batched,
    build_diagram,
    closed_behavior,
    port_diagram,
    restrict,
    sup_distance,
)
from sheafsys.cli import main
from sheafsys.port_diagram import port_machine, port_to_extended_morphism
from sheafsys.systems import (
    mass_spring_system,
    resolve_builtin,
    rigid_body_system,
    seeded_initial_states,
)

H = 1e-3


def known(item, what):
    reason = f"ROADMAP item {item}: {what}"
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@known(17, "the stencil membership rejects the blowup built-in's own audit run")
def test_the_blowup_audit_passes_at_its_default_length(tmp_path):
    # exits 1 today
    assert main(["audit", "--system", "blowup", "--out", str(tmp_path / "out")]) == 0


@known(17, "membership rejects a two-node window of a member")
def test_a_two_node_window_of_a_mass_spring_member_is_a_member():
    bundle = resolve_builtin("mass_spring")
    behavior = closed_behavior(bundle.instance, H, bundle.residual_tolerance)
    window = restrict(behavior.sampler(bundle.initial_state, 0.25), H, 0.1)
    assert window.num_nodes == 2
    # residual 5.0e-4 against the tolerance 1e-4 today
    assert behavior.membership(window) <= behavior.tolerance


@known(17, "the membership tolerance accepts a spring 1e-5 too stiff")
def test_a_mass_spring_run_with_another_stiffness_is_not_a_member():
    bundle = resolve_builtin("mass_spring")
    behavior = closed_behavior(bundle.instance, H, bundle.residual_tolerance)
    stiffer = closed_behavior(mass_spring_system(1.0 + 1e-5), H, bundle.residual_tolerance)
    # residual 1.0e-5 against the tolerance 1e-4 today
    assert behavior.membership(stiffer.sampler(bundle.initial_state, 0.25)) > behavior.tolerance


@known(17, "the membership tolerance accepts a rigid body whose friction is 1 % off")
def test_a_rigid_body_run_is_not_a_member_of_the_gamma_0_101_behavior():
    bundle = resolve_builtin("rigid_body")
    run = closed_behavior(bundle.instance, H, bundle.residual_tolerance).sampler(bundle.initial_state, 1.0)
    off = closed_behavior(rigid_body_system(gamma=0.101), H, bundle.residual_tolerance)
    # residual 3.4e-4 against the tolerance 1e-3 today
    assert off.membership(run) > off.tolerance


@known(11, "xi anchors zeta at the first node of whatever window it gets")
def test_xi_commutes_with_restriction_on_a_driven_run():
    system = mass_spring_system()
    run = port_machine(system, H).behavior.sampler(
        np.array([1.0, 0.0]), lambda t: np.array([0.5 * np.sin(t)]), 1.0
    )
    xi = port_to_extended_morphism(system).beta
    # 0.112 on [0.5, 1] today
    assert sup_distance(xi(restrict(run, 0.5, 0.5)), restrict(xi(run), 0.5, 0.5)) <= 1e-5


@batched
def off_point_interconnection(x):
    """[[0, 1 + c(x)], [-1, 0]] with c(x) = 0.2 x0 x1 (x0 - 0.3)(x1 - 0.49),
    which vanishes at every default probe point."""
    x0, x1 = x[..., 0], x[..., 1]
    J = np.zeros(x.shape[:-1] + (2, 2))
    J[..., 0, 1] = 1.0 + 0.2 * x0 * x1 * (x0 - 0.3) * (x1 - 0.49)
    J[..., 1, 0] = -1.0
    return J


@known(7, "the structure laws are held at the seven default points only")
def test_a_diagram_whose_j_is_not_antisymmetric_along_its_probes_fails():
    system = PHSystem(
        2, 1, interconnection=off_point_interconnection, dissipation=np.zeros((2, 2)),
        port_map=[[0.0], [1.0]], hamiltonian=batched(lambda x: 0.5 * np.sum(x * x, axis=-1)),
        grad_hamiltonian=batched(lambda x: 1.0 * x),
    )
    probes = closed_behavior(system, H, 1e-3).sampler(seeded_initial_states(0, 5, 2), 0.5)
    # passes today, every defect 0.0, while J + J^T reaches 0.035 on probe 0
    try:
        report = build_diagram(system, probes, residual_tolerance=1e-3)
    except StructureViolation as exc:
        assert "J(x) not antisymmetric" in str(exc)
    else:
        assert not report.passed


@known(6, "a failing membership note names no node")
def test_every_note_of_a_corrupted_quadrature_names_a_node():
    bundle = resolve_builtin("mass_spring")
    system, tol = bundle.instance, bundle.residual_tolerance
    probes = closed_behavior(system, H, tol).sampler(seeded_initial_states(0, 5, 2), 0.5)
    report = build_diagram(system, probes, residual_tolerance=tol, integral_sign=-1.0)
    # "image of probe 0 under xi not in the enclosing behavior (residual
    # 2.142e+00)" today
    assert report.notes and all("node" in note for note in report.notes)


@pytest.mark.parametrize("name", ["mass_spring", "rigid_body"])
@known(4, "the diagram never drives the port machine")
def test_xi_images_with_signals_shifted_by_one_node_fail_the_diagram(monkeypatch, name):
    true_xi = port_diagram.port_to_extended_morphism

    def shifted_xi(system, integral_sign=1.0):
        phi = true_xi(system, integral_sign)

        def beta(e):
            image = phi.beta(e)
            values = np.array(image.values)
            columns = list(image.channel_indices(system.signal_labels))
            values[1:, columns] = image.values[:-1, columns]
            return Trajectory(values, image.grid_step, image.shift, image.labels)

        return dataclasses.replace(phi, beta=beta)

    # build_diagram looks the map up in its module at call time
    monkeypatch.setattr(port_diagram, "port_to_extended_morphism", shifted_xi)
    bundle = resolve_builtin(name)
    system, tol = bundle.instance, bundle.residual_tolerance
    probes = closed_behavior(system, H, tol).sampler(seeded_initial_states(0, 5, system.n), 0.5)
    # passes today, every defect 0.0: the closed probes' signals are all zero
    try:
        report = build_diagram(system, probes, residual_tolerance=tol)
    except NotAMember:
        pass
    else:
        assert not report.passed
