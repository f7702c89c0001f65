"""The audit tables of the three system kinds, run by the library function
``run_audit`` on systems the CLI cannot build."""

import numpy as np
import pytest

from sheafsys import PHSystem, batched
from sheafsys.cli import RunConfig, _closed_behavior_for, _port_runs
from sheafsys.ode_behavior import SIDE_CONDITION_TOL, AuditRow, run_audit
from sheafsys.systems import SystemBundle, mass_spring_system, resolve_builtin

H, TOL = 1e-3, 1e-5


def audit(system, x0, length):
    """The system's audit table on the runs the audit command makes: u = a
    sin t on every input, a the family's drive amplitude, and the closed
    run, both from x0."""
    bundle = SystemBundle("library", "ph", "", system, np.asarray(x0, dtype=float), length, 1e-4, {})
    driven, closed = _port_runs(bundle, RunConfig("audit", "library", length, H, TOL, 0, ""))
    return run_audit(system.audit_table, driven, closed, TOL)


def failing(table, residuals):
    return [row.name for row in table if not row.informational and not row.holds(residuals[row.name], TOL)]


def oscillator(**formulas):
    """mass_spring's J, B and H, with the formulas given replacing them."""
    ms = mass_spring_system()
    parts = dict(
        interconnection=ms.interconnection, dissipation=np.zeros((2, 2)), port_map=ms.port_map,
        hamiltonian=ms.hamiltonian, grad_hamiltonian=ms.grad_hamiltonian,
    )
    return PHSystem(2, 1, **{**parts, **formulas})


@batched
def indefinite_dissipation(x):
    """R(x) = diag(0, -c(x)), c(x) = 2 x0 x1 (x0 - 0.3)(x0 + 0.7): zero at
    every default probe point, so the system builds, but negative where x0
    x1 (x0 - 0.3)(x0 + 0.7) > 0, where the closed run gains energy."""
    q, p = x[..., 0], x[..., 1]
    out = np.zeros(x.shape[:-1] + (2, 2))
    out[..., 1, 1] = -2.0 * q * p * (q - 0.3) * (q + 0.7)
    return out


def test_a_ph_system_with_an_indefinite_dissipation_fails_on_passivity_alone():
    system = oscillator(dissipation=indefinite_dissipation)
    residuals, passed = audit(system, [1.0, 0.5], 2.0)
    assert not passed
    assert failing(system.audit_table, residuals) == ["dissipation_excess"]
    assert residuals["dissipation_excess"] == pytest.approx(0.2975, abs=5e-4)
    assert residuals["power_balance_defect"] < 1e-6


def test_a_state_dependent_port_map_drives_the_port_run_and_passes_its_audit():
    def port_map(x):  # B(x) = (0, 1 + q^2 / 2)^T, read node by node
        return np.array([[0.0], [1.0 + 0.5 * x[0] ** 2]])

    system = oscillator(dissipation=[[0.0, 0.0], [0.0, 0.1]], port_map=port_map)
    assert system.constant_port_map() is None
    x, signals = np.array([[1.0, 0.5], [-0.4, 0.2]]), np.array([[0.7], [-1.3]])
    closed = system.closed_rhs(x)
    expected = np.column_stack([closed[:, 0], closed[:, 1] + (1.0 + 0.5 * x[:, 0] ** 2) * signals[:, 0]])
    assert np.array_equal(system.port_rhs(x, signals), expected)
    # the power balance holds only if the run is driven through the B(x)
    # that the output y = B(x)^T grad H reads
    residuals, passed = audit(system, [1.0, 0.5], 2.0)
    assert passed
    assert residuals["power_balance_defect"] <= 1e-5


def rows(table):
    return [(row.name, row.bound, row.floor, bool(row.informational)) for row in table]


def test_each_family_audits_exactly_its_rows_and_a_nan_fails_every_deciding_row():
    ph, mp = resolve_builtin("mass_spring").instance, resolve_builtin("rigid_body").instance
    linear = resolve_builtin("linear")
    ode = _closed_behavior_for(linear, H).audit_table
    assert rows(ph.audit_table) == [
        ("power_balance_defect", None, False, False),
        ("dissipation_excess", None, False, False),
        ("closed_energy_drift", None, False, True),
    ]
    assert rows(mp.audit_table) == [
        ("energy_rate_defect", None, False, False),
        ("entropy_rate_defect", None, False, False),
        ("side_conditions", SIDE_CONDITION_TOL, False, False),
        ("entropy_rate_min", SIDE_CONDITION_TOL, True, False),
        ("energy_rate_max", None, False, False),
        ("energy_drift", None, False, True),
    ]
    assert rows(ode) == [("membership", linear.residual_tolerance, False, False)]
    assert (ph.drive_amplitude, mp.drive_amplitude) == (1.0, 0.2)
    for row in (*ph.audit_table, *mp.audit_table, *ode):
        assert row.holds(0.0, TOL)
        assert not row.holds(np.nan, TOL) and not row.holds(-np.inf if row.floor else np.inf, TOL)


def test_rows_that_share_a_measure_share_its_one_call():
    calls = []

    def pair(driven, closed):
        calls.append((driven, closed))
        return {"a": 1.0, "b": -2.0}

    table = (
        AuditRow("a", pair), AuditRow("b", pair, 1.0, floor=True),
        AuditRow("c", lambda driven, closed: np.float64(3.0), informational="reported only"),
    )
    residuals, passed = run_audit(table, "driven", "closed", 1.0)
    assert calls == [("driven", "closed")]
    assert residuals == {"a": 1.0, "b": -2.0, "c": 3.0} and type(residuals["c"]) is float
    assert not passed  # b = -2.0 is below -1.0; c, above --tol, decides nothing
    assert run_audit(table[::2], "driven", "closed", 1.0)[1]
