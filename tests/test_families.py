"""Random members of the port-Hamiltonian family, their laws holding by
construction, against the diagram verifier and the family's audit table."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    PHSystem,
    batched,
    build_diagram,
    closed_behavior,
    port_machine,
    power_balance,
)
from sheafsys.ode_behavior import run_audit

H, LENGTH = 1e-3, 0.2


@st.composite
def ph_systems(draw):
    """A PHSystem and three probe starts in [-1, 1]^n: n in {2, 3}, m in
    {1, 2}, J = K - K^T, R = L L^T, a random B and H = x^T Q x / 2 with
    Q = M M^T + I / 2 and grad H = Q x, every entry of K, L, M and B
    uniform in [-0.5, 0.5]."""
    n, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, L, M = (rng.uniform(-0.5, 0.5, (n, n)) for _ in range(3))
    B = rng.uniform(-0.5, 0.5, (n, m))
    Q = M @ M.T + 0.5 * np.eye(n)

    @batched
    def energy(x):
        return 0.5 * np.sum(x * (x @ Q.T), axis=-1)

    @batched
    def gradient(x):
        return x @ Q.T

    system = PHSystem(
        n, m, interconnection=K - K.T, dissipation=L @ L.T, port_map=B,
        hamiltonian=energy, grad_hamiltonian=gradient,
    )
    return system, rng.uniform(-1.0, 1.0, (3, n))


@settings(max_examples=20, deadline=None)
@given(ph_systems())
def test_a_random_ph_system_closes_its_diagram_and_balances_its_power(drawn):
    system, starts = drawn
    probes = closed_behavior(system, H).sampler(starts, LENGTH)
    report = build_diagram(system, probes)
    assert report.passed
    assert all(defect == 0.0 for defect in report.defects.values())
    assert not any(report.collisions.values())
    assert not build_diagram(system, probes, integral_sign=-1.0).passed

    @batched
    def signals(t):  # the driven row, u = 0.5 sin t on every input, and the closed row
        out = np.zeros(t.shape + (2, system.m))
        out[:, 0] = 0.5 * np.sin(t)[:, np.newaxis]
        return out

    port = port_machine(system, H).behavior
    driven, still = port.sampler(np.stack([starts[0]] * 2), signals, LENGTH)
    assert power_balance(system, still) <= 1e-5
    residuals, passed = run_audit(system.audit_table, driven, probes[0], 1e-5)
    assert passed
    # R = L L^T is positive semidefinite, so passivity follows from the power
    # balance (see dissipation_margin)
    assert residuals["dissipation_excess"] <= residuals["power_balance_defect"]
