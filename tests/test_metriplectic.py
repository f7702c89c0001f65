import numpy as np
import pytest

from sheafsys import (
    ConstraintViolation,
    MissingAuxTag,
    NoninteractionViolation,
    NotAMember,
    SampledCurve,
    Trajectory,
    assert_side_conditions,
    aux_linear,
    aux_zero,
    build_metriplectic_diagram,
    check_metriplectic_structure,
    closed_metriplectic_behavior,
    degeneracy_audit,
    embed_metriplectic,
    extended_metriplectic_behavior,
    extended_metriplectic_sheaf,
    extended_psd_min,
    metriplectic_system,
    noninteraction_residuals,
    rate_audit,
    seeded_initial_states,
    side_condition_residuals,
)
from sheafsys.metriplectic import (
    closed_metriplectic_machine,
    port_metriplectic_machine,
    zeta_rate_along,
)
from sheafsys.systems import hat, rigid_body_system

H = 1e-3


def sphere_entropy_system(**kwargs):
    return rigid_body_system(**kwargs)


def coupled_port_system(Jt=None, Gt=None):
    """Drift-only core with port-side coupling matrices for violation tests."""
    zeros = np.zeros((2, 2))
    return metriplectic_system(
        2, 2,
        J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        G=zeros,
        B=zeros,
        A=zeros,
        Jt=zeros if Jt is None else np.asarray(Jt, dtype=float),
        Gt=zeros if Gt is None else np.asarray(Gt, dtype=float),
        H=lambda x: 0.5 * float(x @ x),
        S=lambda x: 0.0,
        gradH=lambda x: x,
        gradS=lambda x: np.zeros(2),
    )


# ---------------------------------------------------------------------------
# structure


def test_rigid_body_satisfies_the_degeneracies():
    rb = sphere_entropy_system()
    check_metriplectic_structure(rb)
    worst_js, worst_gh, _, _ = noninteraction_residuals(
        rb, seeded_initial_states(7, 100, 3)
    )
    assert worst_js < 1e-10
    assert worst_gh < 1e-10


def test_misaligned_entropy_gradient_is_caught():
    bad = metriplectic_system(
        3, 1,
        J=lambda x: hat(x),
        G=np.zeros((3, 3)),
        B=np.zeros((3, 1)),
        A=np.zeros((3, 1)),
        Jt=np.zeros((1, 1)),
        Gt=np.zeros((1, 1)),
        H=lambda x: 0.5 * float(x @ x),
        S=lambda x: float(x[0]),
        gradH=lambda x: x,
        gradS=lambda x: np.array([1.0, 0.0, 0.0]),
    )
    worst_js, _, at_js, _ = noninteraction_residuals(bad)
    assert worst_js == pytest.approx(1.0)
    with pytest.raises(NoninteractionViolation):
        check_metriplectic_structure(bad)


def test_structure_check_rejects_indefinite_friction():
    bad = metriplectic_system(
        2, 1,
        J=np.zeros((2, 2)),
        G=-np.eye(2),
        B=np.zeros((2, 1)),
        A=np.zeros((2, 1)),
        Jt=np.zeros((1, 1)),
        Gt=np.zeros((1, 1)),
        H=lambda x: 0.5 * float(x @ x),
        S=lambda x: 0.5 * float(x @ x),
        gradH=lambda x: x,
        gradS=lambda x: x,
    )
    from sheafsys import StructureViolation

    with pytest.raises(StructureViolation):
        check_metriplectic_structure(bad)


# ---------------------------------------------------------------------------
# closed dynamics


def test_closed_run_conserves_energy_and_produces_entropy():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sample([1.0, 0.5, 0.5], 5.0)
    audit = degeneracy_audit(rb, run)
    assert audit["energy_drift"] < 1e-12
    assert audit["entropy_rate_min"] >= -1e-8
    # friction is genuinely active away from equilibrium
    assert audit["entropy_rate_min"] > 0.0


def test_frictionless_variant_freezes_both_generators():
    rb0 = sphere_entropy_system(gamma=0.0)
    run = closed_metriplectic_behavior(rb0, H, 1e-3).sample([1.0, 0.5, 0.5], 5.0)
    audit = degeneracy_audit(rb0, run)
    assert audit["energy_drift"] < 1e-12
    entropy = 0.5 * np.sum(run.values ** 2, axis=1)
    assert np.max(np.abs(entropy - entropy[0])) < 1e-12


def test_extended_friction_stays_psd_along_runs():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sample([1.0, 0.5, 0.5], 2.0)
    assert extended_psd_min(rb, run.values) > -1e-12


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
    assert_side_conditions(rb, run)  # should not raise
    audit = rate_audit(rb, run)
    assert audit["energy_rate_defect"] < 1e-5
    assert audit["entropy_rate_defect"] < 1e-5


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
        assert_side_conditions(rb, run)
    assert info.value.condition == "B tau"
    assert info.value.residual > 0.2
    residuals = side_condition_residuals(rb, run)
    assert residuals["B tau"][0] > 0.2
    assert residuals["A u"][0] == 0.0


def test_port_poisson_coupling_violates_its_side_condition():
    cpl = coupled_port_system(Jt=[[0.0, 1.0], [-1.0, 0.0]])
    check_metriplectic_structure(cpl)
    port = port_metriplectic_machine(cpl, H)
    run = port.behavior.sampler(
        [1.0, 0.0], lambda t: np.zeros(2), lambda t: np.array([0.2, 0.0]), 0.1
    )
    with pytest.raises(ConstraintViolation) as info:
        assert_side_conditions(cpl, run)
    assert info.value.condition == "Jt tau"


# ---------------------------------------------------------------------------
# extended behavior


def test_extended_run_with_aux_pair_is_a_member():
    rb = sphere_entropy_system()
    curve = SampledCurve(0.0, H, 0.2 * np.sin(np.arange(2001) * H))
    ext = extended_metriplectic_behavior(rb, aux_linear(curve, 1), aux_zero(1), H, 1e-3)
    run = ext.sample([1.0, 0.5, 0.5, 0.0], 2.0)
    assert run.labels == ("x1", "x2", "x3", "zeta0")
    assert ext.membership(run) <= ext.residual_tolerance
    # the tag carries both energies; dropping it breaks membership
    assert ext.membership(run.replace_aux(None)) == np.inf


def test_extended_sheaf_resolves_tags_and_rejects_odd_ones():
    rb = sphere_entropy_system()
    sheaf = extended_metriplectic_sheaf(rb, H, 1e-3)
    run = sheaf.sampler([1.0, 0.5, 0.5, 0.0], 1.0)
    assert sheaf.membership(run) <= sheaf.tolerance
    with pytest.raises(MissingAuxTag):
        sheaf.membership(run.replace_aux("just a string"))


def test_friction_coupling_to_aux_entropy_is_rejected():
    gts = coupled_port_system(Gt=np.eye(2))
    ext = extended_metriplectic_behavior(
        gts, aux_zero(2), aux_linear(lambda s: np.array([1.0, 0.0]), 2), H
    )
    run = ext.sample([1.0, 0.0, 0.0, 0.0], 0.1)
    with pytest.raises(ConstraintViolation) as info:
        ext.assert_conditions(run)
    assert info.value.condition == "Gt grad aux S"


# ---------------------------------------------------------------------------
# embedding and the diagram


def test_embed_metriplectic_tags_and_integrates():
    rb = sphere_entropy_system()
    run = closed_metriplectic_behavior(rb, H, 1e-3).sample([1.0, 0.5, 0.5], 2.0)
    emb = embed_metriplectic(rb, run)
    assert emb.labels == ("x1", "x2", "x3", "zeta0")
    assert emb.aux == (aux_zero(1), aux_zero(1))
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
    probes = [beh.sample(x0, 0.5) for x0 in ([2.0, 2.0, -2.0], [1.0, 0.5, 0.5])]
    assert 1e-4 < beh.membership(probes[0]) <= 1e-3  # above the embedding's default
    report = build_metriplectic_diagram(rb, probes, 1e-5, residual_tolerance=1e-3)
    assert report.passed


def test_metriplectic_diagram_passes_and_detects_corruption():
    rb = sphere_entropy_system()
    beh = closed_metriplectic_behavior(rb, H, 1e-3)
    probes = [beh.sample(x0, 2.0) for x0 in seeded_initial_states(11, 5, 3)]
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
    run = closed_metriplectic_behavior(rb, H, 1e-3).sample([1.0, 0.5, 0.5], 1.0)
    values = np.array(run.values)
    values[500, 2] = np.nan
    audit = degeneracy_audit(rb, Trajectory(values, H, run.shift, run.labels))
    assert audit == {"energy_rate_max": np.inf, "entropy_rate_min": -np.inf, "energy_drift": np.inf}
    assert extended_psd_min(rb, values[:400]) > -1e-12


def test_noninteraction_without_points_has_no_residual():
    assert noninteraction_residuals(coupled_port_system(), []) == (0.0, 0.0, None, None)
