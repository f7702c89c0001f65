import numpy as np
import pytest

from sheafsys import (
    ConstraintViolation,
    MetriplecticSystem,
    NoninteractionViolation,
    NotAMember,
    Trajectory,
    build_metriplectic_diagram,
    check_structure,
    closed_metriplectic_behavior,
    degeneracy_audit,
    embed_metriplectic,
    rate_audit,
    seeded_initial_states,
    side_condition_residuals,
)
from sheafsys.metriplectic import (
    closed_metriplectic_machine,
    enclosing_metriplectic_machine,
    port_metriplectic_machine,
    zeta_rate_along,
)
from sheafsys.ode_behavior import assert_conditions
from sheafsys.port_diagram import port_to_extended_morphism
from sheafsys.systems import hat, rigid_body_system

H = 1e-3


def sphere_entropy_system(**kwargs):
    return rigid_body_system(**kwargs)


def coupled_port_system(Jt=None, Gt=None):
    """Drift-only core with port-side coupling matrices for violation tests."""
    zeros = np.zeros((2, 2))
    return MetriplecticSystem(
        2, 2,
        poisson=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        friction=zeros,
        energy_port=zeros,
        entropy_port=zeros,
        port_poisson=zeros if Jt is None else np.asarray(Jt, dtype=float),
        port_friction=zeros if Gt is None else np.asarray(Gt, dtype=float),
        energy=lambda x: 0.5 * float(x @ x),
        entropy=lambda x: 0.0,
        grad_energy=lambda x: x,
        grad_entropy=lambda x: np.zeros(2),
    )


# ---------------------------------------------------------------------------
# structure


def test_rigid_body_satisfies_the_degeneracies():
    rb = sphere_entropy_system()
    check_structure(rb)
    laws = rb.structure_residuals(np.array(seeded_initial_states(7, 100, 3)))
    assert laws["J grad S"][0] < 1e-10
    assert laws["G grad H"][0] < 1e-10


def test_misaligned_entropy_gradient_is_caught():
    with pytest.raises(NoninteractionViolation, match=r"J grad S = 1\.000e\+00"):
        MetriplecticSystem(
            3, 1,
            poisson=lambda x: hat(x),
            friction=np.zeros((3, 3)),
            energy_port=np.zeros((3, 1)),
            entropy_port=np.zeros((3, 1)),
            port_poisson=np.zeros((1, 1)),
            port_friction=np.zeros((1, 1)),
            energy=lambda x: 0.5 * float(x @ x),
            entropy=lambda x: float(x[0]),
            grad_energy=lambda x: x,
            grad_entropy=lambda x: np.array([1.0, 0.0, 0.0]),
        )


def test_structure_check_rejects_indefinite_friction():
    from sheafsys import StructureViolation

    with pytest.raises(StructureViolation, match=r"G\(x\) not positive semidefinite"):
        MetriplecticSystem(
            2, 1,
            poisson=np.zeros((2, 2)),
            friction=-np.eye(2),
            energy_port=np.zeros((2, 1)),
            entropy_port=np.zeros((2, 1)),
            port_poisson=np.zeros((1, 1)),
            port_friction=np.zeros((1, 1)),
            energy=lambda x: 0.5 * float(x @ x),
            entropy=lambda x: 0.5 * float(x @ x),
            grad_energy=lambda x: x,
            grad_entropy=lambda x: x,
        )


# ---------------------------------------------------------------------------
# closed dynamics


def test_closed_run_conserves_energy_and_produces_entropy():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sampler([1.0, 0.5, 0.5], 5.0)
    audit = degeneracy_audit(rb, run)
    assert audit["energy_drift"] < 1e-12
    assert audit["entropy_rate_min"] >= -1e-8
    # friction is genuinely active away from equilibrium
    assert audit["entropy_rate_min"] > 0.0


def test_frictionless_variant_freezes_both_generators():
    rb0 = sphere_entropy_system(gamma=0.0)
    run = closed_metriplectic_behavior(rb0, H, 1e-3).sampler([1.0, 0.5, 0.5], 5.0)
    audit = degeneracy_audit(rb0, run)
    assert audit["energy_drift"] < 1e-12
    entropy = 0.5 * np.sum(run.values ** 2, axis=1)
    assert np.max(np.abs(entropy - entropy[0])) < 1e-12


def test_extended_friction_stays_psd_along_runs():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sampler([1.0, 0.5, 0.5], 2.0)
    laws = rb.structure_residuals(run.values)
    assert laws["[[G, A], [A^T, Gt]] not positive semidefinite"][0] < 1e-12


# ---------------------------------------------------------------------------
# side conditions on port runs


def test_compliant_driven_run_is_accepted():
    rb = sphere_entropy_system()
    port = port_metriplectic_machine(rb, H, 1e-3)
    run = port.behavior.sampler(
        [1.0, 0.5, 0.5],
        lambda t: np.array([0.2 * np.sin(t)]),
        lambda t: np.zeros(1),
        3.0,
    )
    assert port.behavior.membership(run) <= port.behavior.tolerance
    assert_conditions(side_condition_residuals(rb, run))  # should not raise
    audit = rate_audit(rb, run)
    assert audit["energy_rate_defect"] < 1e-5
    assert audit["entropy_rate_defect"] < 1e-5


def test_the_noninteraction_side_conditions_are_the_structure_laws_on_a_run():
    # one name and one value each: as side conditions of a port run and as
    # structure laws at its states
    rb = sphere_entropy_system()
    run = port_metriplectic_machine(rb, H).behavior.sampler(
        [1.0, 0.5, 0.5], lambda t: np.array([0.2 * np.sin(t)]), lambda t: np.zeros(1), 1.0
    )
    sides = side_condition_residuals(rb, run)
    laws = rb.structure_residuals(run.channels(rb.state_labels))
    for name in ("J grad S", "G grad H"):
        assert sides[name] == laws[name]


def test_rate_audit_and_side_conditions_are_infinite_at_a_nan_node():
    rb = sphere_entropy_system()
    port = port_metriplectic_machine(rb, H, 1e-3)
    run = port.behavior.sampler(
        [1.0, 0.5, 0.5], lambda t: np.array([0.2 * np.sin(t)]), lambda t: np.zeros(1), 0.5
    )
    values = np.array(run.values)
    values[250, 3] = np.nan  # the u channel
    poisoned = Trajectory(values, H, run.shift, run.labels)
    assert rate_audit(rb, poisoned) == {"energy_rate_defect": np.inf, "entropy_rate_defect": np.inf}
    assert side_condition_residuals(rb, poisoned)["A u"] == (np.inf, 250)
    assert port.behavior.membership(poisoned) == np.inf


def test_entropy_port_drive_outside_kernel_is_rejected():
    rb = sphere_entropy_system()
    port = port_metriplectic_machine(rb, H, 1e-3)
    run = port.behavior.sampler(
        [1.0, 0.5, 0.5],
        lambda t: np.array([0.2 * np.sin(t)]),
        lambda t: np.array([0.3]),
        1.0,
    )
    assert port.behavior.membership(run) > port.behavior.tolerance
    with pytest.raises(ConstraintViolation) as info:
        assert_conditions(side_condition_residuals(rb, run))
    assert info.value.condition == "B tau"
    assert info.value.residual > 0.2
    residuals = side_condition_residuals(rb, run)
    assert residuals["B tau"][0] > 0.2
    assert residuals["A u"][0] == 0.0


@pytest.mark.parametrize("tau, member", [(1e-6, False), (1e-9, True)])
def test_a_port_run_is_a_member_only_within_the_side_condition_tolerance(tau, member):
    # the dynamics residual of the run stays far inside the membership
    # tolerance; 'B tau' alone, held to SIDE_CONDITION_TOL, decides
    rb = sphere_entropy_system()
    port = port_metriplectic_machine(rb, H)
    run = port.behavior.sampler(
        [1.0, 0.5, 0.5], lambda t: np.zeros(1), lambda t: np.full(1, tau), 0.5
    )
    assert side_condition_residuals(rb, run)["B tau"][0] == pytest.approx(tau, rel=0.5)
    assert (port.behavior.membership(run) <= port.behavior.tolerance) == member
    if not member:
        assert port.behavior.membership(run) == np.inf
        with pytest.raises(ConstraintViolation, match="B tau"):
            assert_conditions(side_condition_residuals(rb, run))


def test_port_poisson_coupling_violates_its_side_condition():
    cpl = coupled_port_system(Jt=[[0.0, 1.0], [-1.0, 0.0]])
    check_structure(cpl)
    port = port_metriplectic_machine(cpl, H)
    run = port.behavior.sampler(
        [1.0, 0.0], lambda t: np.zeros(2), lambda t: np.array([0.2, 0.0]), 0.1
    )
    with pytest.raises(ConstraintViolation) as info:
        assert_conditions(side_condition_residuals(cpl, run))
    assert info.value.condition == "Jt tau"


# ---------------------------------------------------------------------------
# extended behavior


def test_extended_run_with_signal_channels_is_a_member():
    rb = sphere_entropy_system()
    ext = enclosing_metriplectic_machine(rb, H, 1e-3).behavior
    run = ext.sampler(
        [1.0, 0.5, 0.5, 0.0], lambda t: np.array([0.2 * np.sin(t)]), lambda t: np.zeros(1), 2.0
    )
    assert run.labels == ("x1", "x2", "x3", "zeta0", "u0", "tau_in0")
    assert ext.membership(run) <= ext.tolerance
    # the signals drive the state; zeroing them breaks membership
    values = np.array(run.values)
    values[:, 4] = 0.0
    silenced = Trajectory(values, run.grid_step, run.shift, run.labels)
    assert not ext.membership(silenced) <= ext.tolerance


def test_the_xi_image_of_a_port_member_is_an_enclosing_member():
    # Jt couples u to the zeta rate only; every port side condition holds
    cpl = coupled_port_system(Jt=[[0.0, 1.0], [-1.0, 0.0]])
    port = port_metriplectic_machine(cpl, H).behavior
    run = port.sampler([1.0, 0.0], lambda t: np.array([np.sin(t), 0.5]), lambda t: np.zeros(2), 0.5)
    assert all(r == 0.0 for r, _ in side_condition_residuals(cpl, run).values())
    assert port.membership(run) <= port.tolerance
    ext = enclosing_metriplectic_machine(cpl, H).behavior
    image = port_to_extended_morphism(cpl).beta(run)
    assert ext.membership(image) <= ext.tolerance
    assert_conditions(ext.side_residuals(image))  # should not raise


@pytest.mark.parametrize(
    "coupling, u, tau, condition",
    [
        ({"Jt": [[0.0, 1.0], [-1.0, 0.0]]}, [0.0, 0.0], [0.2, 0.0], "Jt tau"),
        ({"Gt": np.eye(2)}, [1.0, 0.0], [0.0, 0.0], "Gt u"),
    ],
)
def test_the_enclosing_behavior_holds_the_extended_noninteraction_laws(coupling, u, tau, condition):
    # the bottom rows of Jext grad S_ext and Gext grad H_ext are
    # -B^T grad S + Jt tau and A^T grad H + Gt u (B = A = 0 here)
    cpl = coupled_port_system(**coupling)
    ext = enclosing_metriplectic_machine(cpl, H).behavior
    run = ext.sampler([1.0, 0.0, 0.0, 0.0], lambda t: np.array(u), lambda t: np.array(tau), 0.1)
    assert ext.membership(run) == np.inf
    with pytest.raises(ConstraintViolation) as info:
        assert_conditions(ext.side_residuals(run))
    assert info.value.condition == condition


def test_friction_coupling_to_the_aux_entropy_is_allowed():
    # Gt tau is the zeta rate's own friction term, not a noninteraction
    # defect: with u = 0, Gt u = 0 and the member stands
    gts = coupled_port_system(Gt=np.eye(2))
    ext = enclosing_metriplectic_machine(gts, H).behavior
    run = ext.sampler(
        [1.0, 0.0, 0.0, 0.0], lambda t: np.zeros(2), lambda t: np.array([1.0, 0.0]), 0.1
    )
    assert ext.membership(run) <= ext.tolerance
    assert np.max(np.abs(run.channels(("zeta0",))[:, 0] - run.times)) < 1e-12


# ---------------------------------------------------------------------------
# embedding and the diagram


def test_embed_metriplectic_appends_zero_signals_and_integrates():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sampler([1.0, 0.5, 0.5], 2.0)
    emb = embed_metriplectic(rb, run)
    assert emb.labels == ("x1", "x2", "x3", "zeta0", "u0", "tau_in0")
    assert np.all(emb.values[:, 4:] == 0.0)
    assert emb.values[0, 3] == 0.0  # anchored at zero
    # zeta integrates minus the port output of the undriven run
    zeros = np.zeros((run.num_nodes, 1))
    rate = zeta_rate_along(rb, run.values, zeros, zeros)
    increments = np.diff(emb.values[:, 3])
    expect = 0.5 * H * (rate[:-1, 0] + rate[1:, 0])
    assert np.max(np.abs(increments - expect)) < 1e-15
    with pytest.raises(NotAMember):
        embed_metriplectic(rb, Trajectory(np.ones((16, 3)), H, 0.0, run.labels))


def test_closed_machine_output_is_constant():
    rb = sphere_entropy_system()
    closed = closed_metriplectic_machine(rb, H, 1e-3)
    run = closed.behavior.sampler([1.0, 0.5, 0.5], 0.5)
    o = closed.e_leg(run)
    assert o.dimension == 2 and np.all(o.values == 0.0)
    y = closed.a_leg(run)
    assert y.labels == ("y0",)


def test_diagram_embeds_at_its_own_residual_tolerance():
    rb = sphere_entropy_system()
    beh = closed_metriplectic_behavior(rb, 0.01, 1e-3)
    probes = [beh.sampler(x0, 0.5) for x0 in ([2.0, 2.0, -2.0], [1.0, 0.5, 0.5])]
    assert 1e-4 < beh.membership(probes[0]) <= 1e-3  # above the embedding's default
    report = build_metriplectic_diagram(rb, probes, 1e-5, residual_tolerance=1e-3)
    assert report.passed


def test_metriplectic_diagram_passes_and_detects_corruption():
    rb = sphere_entropy_system()
    beh = closed_metriplectic_behavior(rb, H, 1e-3)
    probes = [beh.sampler(x0, 2.0) for x0 in seeded_initial_states(11, 5, 3)]
    report = build_metriplectic_diagram(rb, probes, 1e-5, residual_tolerance=1e-3)
    assert report.passed
    assert max(report.defects.values()) <= 1e-5
    flipped = build_metriplectic_diagram(
        rb, probes, 1e-5, residual_tolerance=1e-3, integral_sign=-1.0
    )
    assert not flipped.passed
    assert flipped.defects["triangle beta"] > 0.1


def test_degeneracy_audit_fails_at_a_nan_node():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sampler([1.0, 0.5, 0.5], 1.0)
    values = np.array(run.values)
    values[500, 2] = np.nan
    audit = degeneracy_audit(rb, Trajectory(values, H, run.shift, run.labels))
    assert audit == {"energy_rate_max": np.inf, "entropy_rate_min": -np.inf, "energy_drift": np.inf}
    laws = rb.structure_residuals(values[:400])
    assert laws["[[G, A], [A^T, Gt]] not positive semidefinite"][0] < 1e-12
