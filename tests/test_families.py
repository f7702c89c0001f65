"""Random members of the port-Hamiltonian and metriplectic families, their
laws holding by construction, against the diagram verifier and the family's
audit tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    MetriplecticSystem,
    PHSystem,
    batched,
    build_diagram,
    closed_behavior,
    degeneracy_audit,
    port_machine,
    power_balance,
    rate_audit,
)
from sheafsys.ode_behavior import SIDE_CONDITION_TOL, run_audit

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


@st.composite
def mp_systems(draw):
    """A MetriplecticSystem and three probe starts in [-1, 1]^n: n in {3, 4}
    (for n = 2, J = P K P below is 0), m in {1, 2}, S = c^T x and
    H = x^T Q x / 2 with Q = N N^T + I / 2, J = P K P with P = I - c c^T / |c|^2
    and K antisymmetric, so J grad S = 0, G(x) = Pi(x) M Pi(x) with
    Pi(x) = |grad H|^2 I - grad H grad H^T and M = L L^T / 10, so
    G grad H = 0, B = P B0, so B^T grad S = 0, A = 0, Gt = 0 and Jt a random
    antisymmetric matrix; every entry of c, K, N, L, B0 and Jt is uniform in
    [-0.5, 0.5].  The tenth keeps the friction slow enough that the
    membership stencil and the rate audit stay far inside their bounds."""
    n, m = draw(st.sampled_from([3, 4])), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.uniform(-0.5, 0.5, n)
    K, N, L = (rng.uniform(-0.5, 0.5, (n, n)) for _ in range(3))
    B0, Jt = rng.uniform(-0.5, 0.5, (n, m)), rng.uniform(-0.5, 0.5, (m, m))
    P = np.eye(n) - np.outer(c, c) / (c @ c)
    Q, M = N @ N.T + 0.5 * np.eye(n), (L @ L.T) / 10.0

    @batched
    def energy(x):
        return 0.5 * np.sum(x * (x @ Q.T), axis=-1)

    @batched
    def grad_energy(x):
        return x @ Q.T

    @batched
    def friction(x):
        g = x @ Q.T
        row, column = g[..., np.newaxis, :], g[..., :, np.newaxis]
        projector = (row @ column) * np.eye(n) - column * row
        return projector @ M @ projector

    system = MetriplecticSystem(
        n, m, poisson=P @ (K - K.T) @ P, friction=friction, energy_port=P @ B0,
        entropy_port=np.zeros((n, m)), port_poisson=Jt - Jt.T, port_friction=np.zeros((m, m)),
        energy=energy, entropy=batched(lambda x: x @ c),
        grad_energy=grad_energy, grad_entropy=batched(lambda x: np.zeros(np.shape(x)) + c),
    )
    return system, rng.uniform(-1.0, 1.0, (3, n))


@settings(max_examples=20, deadline=None)
@given(mp_systems())
def test_a_random_mp_system_closes_its_diagram_and_keeps_its_rates(drawn):
    system, starts = drawn
    probes = closed_behavior(system, H).sampler(starts, LENGTH)
    report = build_diagram(system, probes)
    assert report.passed
    assert all(defect == 0.0 for defect in report.defects.values())
    assert not any(report.collisions.values())
    assert not build_diagram(system, probes, integral_sign=-1.0).passed
    # S does not decrease along a closed run: dS/dt = c^T G c >= 0
    for probe in probes:
        assert degeneracy_audit(system, probe)["entropy_rate_min"] >= -SIDE_CONDITION_TOL
    # drive u = 0.5 sin t on every input, tau = 0
    port = port_machine(system, H).behavior
    drive = lambda t: 0.5 * np.sin(t) * np.ones(system.m)
    driven = port.sampler(starts[0], drive, lambda t: np.zeros(system.m), LENGTH)
    assert port.membership(driven) <= port.tolerance
    assert all(defect <= 1e-5 for defect in rate_audit(system, driven).values())
