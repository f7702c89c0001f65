"""Metriplectic systems and their port-control diagrams.

A metriplectic system carries two generators: an energy H driven through an
antisymmetric J and an entropy S driven through a symmetric PSD G, subject
to the noninteraction conditions J grad S = 0 and G grad H = 0, so that H
is conserved and S is nondecreasing along the closed flow

    x' = J grad H + G grad S.

Opening ports gives the control system

    x' = J grad H + G grad S + B u + A tau,
    y  = B^T grad H - A^T grad S - Jt u - Gt tau,

valid only where the algebraic side conditions hold (B tau = 0, A u = 0,
B^T grad S = 0, A^T grad H = 0, Jt tau = 0, Gt u = 0); membership of the
port machine enforces them as residuals with names.  The extended closed
system on (x, zeta) mirrors the port-Hamiltonian construction with paired
auxiliary energies (one for H, one for S) and the coupling blocks

    Jext = [[J, B], [-B^T, Jt]],      Gext = [[G, A], [A^T, Gt]].

The zeta rate that makes embedded trajectories members is
-B^T grad H + A^T grad S + Jt u + Gt tau (the signs the extended blocks
produce), and the port output is exactly its negative.  The port signals
are (u, tau_in); :class:`MetriplecticSystem` supplies these node formulas
and the side conditions to :mod:`sheafsys.port_diagram`, which builds the
machines, the embedding and the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingAuxTag, NoninteractionViolation
from .interval_sheaf import DEFAULT_STEP, Trajectory
from .machine import DiagramReport, Machine
from .ode_behavior import DEFAULT_RESIDUAL_TOL, grid_derivative, worst_defect
from . import port_diagram
from .port_diagram import (
    SIDE_CONDITION_TOL,
    Builders,
    ExtendedBehavior,
    PortSystem,
    assert_conditions,
    build_diagram,
    closed_behavior as closed_metriplectic_behavior,
    extended_behavior,
    extended_sheaf as extended_metriplectic_sheaf,
)
from .port_hamiltonian import (
    MATRIX_TOL,
    AuxHamiltonian,
    SampledCurve,
    as_matrix_field,
    aux_gradient,
    aux_linear,
    aux_zero,
    default_probe_points,
    fd_gradient,
    require_antisymmetric,
    require_gradient,
    require_psd,
    require_symmetric,
)


@dataclass(frozen=True)
class MetriplecticSystem(PortSystem):
    """Two-generator system with ports.

    Parameters
    ----------
    n, m : int
        State and port dimensions.
    poisson : callable
        x -> antisymmetric (n, n) matrix J(x), drives the energy.
    friction : callable
        x -> symmetric PSD (n, n) matrix G(x), drives the entropy.
    energy_port, entropy_port : callable
        x -> (n, m) matrices B(x) and A(x).
    port_poisson, port_friction : callable
        x -> (m, m) matrices Jt(x) (antisymmetric) and Gt(x); the block
        [[G, A], [A^T, Gt]] must be PSD.
    energy, entropy : callable
        Scalar fields H and S.
    grad_energy, grad_entropy : callable
        Their gradients.
    state_labels : tuple of str

    The port signals are s = (u, tau_in), read from and stored in a pair of
    auxiliary energies, one for H and one for S.
    """

    n: int
    m: int
    poisson: Callable
    friction: Callable
    energy_port: Callable
    entropy_port: Callable
    port_poisson: Callable
    port_friction: Callable
    energy: Callable
    entropy: Callable
    grad_energy: Callable
    grad_entropy: Callable
    state_labels: tuple = ()

    @property
    def tau_labels(self) -> tuple:
        # the input curve the source text overloads with the interval
        # length symbol; renamed throughout
        return tuple(f"tau_in{i}" for i in range(self.m))

    @property
    def signal_labels(self) -> tuple:
        return self.input_labels + self.tau_labels

    def grad_h(self, x) -> np.ndarray:
        return self.gradient(self.grad_energy, x, "H")

    def grad_s(self, x) -> np.ndarray:
        return self.gradient(self.grad_entropy, x, "S")

    # node formulas of the port diagram

    def check(self, points: Optional[Sequence] = None) -> None:
        check_metriplectic_structure(self, points)

    def closed_rhs(self, x) -> np.ndarray:
        return self.poisson(x) @ self.grad_h(x) + self.friction(x) @ self.grad_s(x)

    def port_rhs(self, x, s) -> np.ndarray:
        u, tau = s[: self.m], s[self.m :]
        return self.closed_rhs(x) + self.energy_port(x) @ u + self.entropy_port(x) @ tau

    def zeta_rate(self, x, s) -> np.ndarray:
        """-B^T grad H + A^T grad S + Jt u + Gt tau, the zeta row of the
        extended dynamics."""
        u, tau = s[: self.m], s[self.m :]
        return (
            -self.energy_port(x).T @ self.grad_h(x)
            + self.entropy_port(x).T @ self.grad_s(x)
            + self.port_poisson(x) @ u
            + self.port_friction(x) @ tau
        )

    def signal_reader(self, tag):
        if not (isinstance(tag, tuple) and len(tag) == 2):
            raise MissingAuxTag("extended metriplectic member needs a pair of auxiliary energies")
        read_h, read_s = (aux_gradient(aux, self.m) for aux in tag)
        return lambda t, zeta: np.concatenate([read_h(t, zeta), read_s(t, zeta)])

    def signal_tag(self, start: float, step: float, signals: np.ndarray):
        return (
            aux_linear(SampledCurve(start, step, signals[:, : self.m]), self.m),
            aux_linear(SampledCurve(start, step, signals[:, self.m :]), self.m),
        )

    def zero_tag(self):
        return (aux_zero(self.m), aux_zero(self.m))

    def port_side_residuals(self, e: Trajectory) -> dict:
        return side_condition_residuals(self, e)

    def extended_side_residuals(self, tag, e: Trajectory) -> dict:
        """Jt grad_zeta H_aux and Gt grad_zeta S_aux at every node."""
        aux_h, aux_s = tag
        zeta = e.channels(self.zeta_labels)
        x = e.channels(self.state_labels)
        return _worst_per_condition(
            ("Jt grad aux H", "Gt grad aux S"),
            (
                (
                    self.port_poisson(x[i]) @ aux_h.gradient(t, zeta[i]),
                    self.port_friction(x[i]) @ aux_s.gradient(t, zeta[i]),
                )
                for i, t in enumerate(e.absolute_times)
            ),
        )


def metriplectic_system(
    n: int,
    m: int,
    J,
    G,
    B,
    A,
    Jt,
    Gt,
    H: Callable,
    S: Callable,
    gradH: Optional[Callable] = None,
    gradS: Optional[Callable] = None,
    labels: Optional[tuple] = None,
) -> MetriplecticSystem:
    """Assemble a MetriplecticSystem from constants or callables."""
    labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(n))
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} labels for state dimension {n}")
    return MetriplecticSystem(
        n,
        m,
        as_matrix_field(J, n, n, "J"),
        as_matrix_field(G, n, n, "G"),
        as_matrix_field(B, n, m, "B"),
        as_matrix_field(A, n, m, "A"),
        as_matrix_field(Jt, m, m, "Jt"),
        as_matrix_field(Gt, m, m, "Gt"),
        H,
        S,
        gradH if gradH is not None else fd_gradient(H, n),
        gradS if gradS is not None else fd_gradient(S, n),
        labels,
    )


def extended_friction_block(sys: MetriplecticSystem, x) -> np.ndarray:
    """The (n+m) x (n+m) block [[G, A], [A^T, Gt]] at a state point."""
    n, m = sys.n, sys.m
    out = np.zeros((n + m, n + m))
    out[:n, :n] = sys.friction(x)
    A = sys.entropy_port(x)
    out[:n, n:] = A
    out[n:, :n] = A.T
    out[n:, n:] = sys.port_friction(x)
    return out


def noninteraction_residuals(sys: MetriplecticSystem, points: Optional[Sequence] = None):
    """Worst probe-point residuals of J grad S and G grad H."""
    if points is None:
        points = default_probe_points(sys.n)
    points = [np.asarray(x, dtype=float) for x in points]
    worst = _worst_per_condition(
        ("J gradS", "G gradH"),
        ((sys.poisson(x) @ sys.grad_s(x), sys.friction(x) @ sys.grad_h(x)) for x in points),
    )
    (js, i), (gh, j) = worst["J gradS"], worst["G gradH"]
    return js, gh, points[i] if js > 0 else None, points[j] if gh > 0 else None


def check_metriplectic_structure(
    sys: MetriplecticSystem, points: Optional[Sequence] = None
) -> None:
    """Verify antisymmetry, PSD blocks, gradient consistency, noninteraction."""
    if points is None:
        points = default_probe_points(sys.n)
    fd_h = fd_gradient(sys.energy, sys.n)
    fd_s = fd_gradient(sys.entropy, sys.n)
    for x in points:
        x = np.asarray(x, dtype=float)
        require_antisymmetric("J(x)", sys.poisson(x), x)
        require_antisymmetric("Jt(x)", sys.port_poisson(x), x)
        G = sys.friction(x)
        require_symmetric("G(x)", G, x)
        require_psd("G(x)", G, x)
        require_psd("[[G, A], [A^T, Gt]]", extended_friction_block(sys, x), x)
        require_gradient("H", sys.grad_h, fd_h, x)
        require_gradient("S", sys.grad_s, fd_s, x)
    worst_js, worst_gh, at_js, at_gh = noninteraction_residuals(sys, points)
    if worst_js > MATRIX_TOL:
        raise NoninteractionViolation(
            f"J grad S = {worst_js:.3e} at x = {at_js.tolist()}"
        )
    if worst_gh > MATRIX_TOL:
        raise NoninteractionViolation(
            f"G grad H = {worst_gh:.3e} at x = {at_gh.tolist()}"
        )


# ---------------------------------------------------------------------------
# node-wise formulas, side conditions and the extended behavior


def zeta_rate_along(
    sys: MetriplecticSystem,
    states: np.ndarray,
    u_nodes: np.ndarray,
    tau_nodes: np.ndarray,
) -> np.ndarray:
    """-B^T grad H + A^T grad S + Jt u + Gt tau at every node."""
    signals = np.concatenate([u_nodes, tau_nodes], axis=1)
    return port_diagram.zeta_rate_along(sys, states, signals)


SIDE_CONDITIONS = ("J gradS", "G gradH", "B tau", "A u", "B^T gradS", "A^T gradH", "Jt tau", "Gt u")


def _worst_per_condition(names: tuple, node_values) -> dict:
    """(worst residual, node) of each named condition, by
    :func:`~sheafsys.ode_behavior.worst_defect`; ``node_values`` yields, for
    every node, one array per name."""
    residuals = np.array(
        [[np.max(np.abs(v)) if np.size(v) else 0.0 for v in values] for values in node_values],
        dtype=float,
    ).reshape(-1, len(names))
    return {name: worst_defect(residuals[:, k]) for k, name in enumerate(names)}


def side_condition_residuals(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Worst node residual of each algebraic side condition on a port run.

    Returns a dict mapping the names in SIDE_CONDITIONS to (residual, node)
    pairs.
    """
    x = e.channels(sys.state_labels)
    u = e.channels(sys.input_labels)
    tau = e.channels(sys.tau_labels)

    def node_values():
        for i, xi in enumerate(x):
            gh = sys.grad_h(xi)
            gs = sys.grad_s(xi)
            yield (
                sys.poisson(xi) @ gs,
                sys.friction(xi) @ gh,
                sys.energy_port(xi) @ tau[i],
                sys.entropy_port(xi) @ u[i],
                sys.energy_port(xi).T @ gs,
                sys.entropy_port(xi).T @ gh,
                sys.port_poisson(xi) @ tau[i],
                sys.port_friction(xi) @ u[i],
            )

    return _worst_per_condition(SIDE_CONDITIONS, node_values())


def assert_side_conditions(
    sys: MetriplecticSystem,
    e: Trajectory,
    tolerance: float = SIDE_CONDITION_TOL,
) -> None:
    """Raise ConstraintViolation naming the first condition that fails."""
    assert_conditions(side_condition_residuals(sys, e), tolerance)


def extended_metriplectic_behavior(
    sys: MetriplecticSystem,
    aux_h: AuxHamiltonian,
    aux_s: AuxHamiltonian,
    grid_step: float = DEFAULT_STEP,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
) -> ExtendedBehavior:
    """Extended behavior for one fixed pair of auxiliary energies; membership
    includes the side conditions Jt grad_zeta H_aux and Gt grad_zeta S_aux."""
    return extended_behavior(sys, (aux_h, aux_s), grid_step, residual_tolerance)


def embed_metriplectic(
    sys: MetriplecticSystem, e: Trajectory, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Trajectory:
    """Embed a closed member into the extended behavior with zero aux pair:
    zeta integrates the zeta rate with zero port signals from zeta(0) = 0."""
    return port_diagram.embed(sys, e, residual_tolerance)


# ---------------------------------------------------------------------------
# audits


def _generator_rates(sys: MetriplecticSystem, x: np.ndarray, h: float):
    """H at every node, and dH/dt and dS/dt by the grid stencils."""
    energy = np.array([sys.energy(xi) for xi in x])[:, np.newaxis]
    entropy = np.array([sys.entropy(xi) for xi in x])[:, np.newaxis]
    return energy[:, 0], grid_derivative(energy, h)[:, 0], grid_derivative(entropy, h)[:, 0]


def degeneracy_audit(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Energy and entropy rates along a closed run, by the grid stencils.

    Returns max |dH/dt|, min dS/dt, and the total energy drift
    max |H(x(t)) - H(x(0))|.
    """
    x = e.channels(sys.state_labels) if e.labels != sys.state_labels else e.values
    energy, h_rate, s_rate = _generator_rates(sys, x, e.grid_step)
    return {
        "energy_rate_max": float(np.max(np.abs(h_rate))),
        "entropy_rate_min": float(np.min(s_rate)),
        "energy_drift": float(np.max(np.abs(energy - energy[0]))),
    }


def rate_audit(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Chain-rule identities along a port run.

    Checks dH/dt = grad H^T (B u + A tau) and
    dS/dt = grad S^T G grad S + grad S^T (B u + A tau) node-wise, with the
    left sides taken by the grid stencils.  A non-finite node defect gives
    inf.
    """
    x = e.channels(sys.state_labels)
    u = e.channels(sys.input_labels)
    tau = e.channels(sys.tau_labels)
    _, h_rate, s_rate = _generator_rates(sys, x, e.grid_step)
    h_defects, s_defects = [], []
    for i, xi in enumerate(x):
        drive = sys.energy_port(xi) @ u[i] + sys.entropy_port(xi) @ tau[i]
        gh = sys.grad_h(xi)
        gs = sys.grad_s(xi)
        h_defects.append(h_rate[i] - float(gh @ drive))
        production = float(gs @ sys.friction(xi) @ gs)
        s_defects.append(s_rate[i] - production - float(gs @ drive))
    return {
        "energy_rate_defect": worst_defect(np.abs(h_defects))[0],
        "entropy_rate_defect": worst_defect(np.abs(s_defects))[0],
    }


def extended_psd_min(sys: MetriplecticSystem, states: np.ndarray) -> float:
    """Smallest eigenvalue of [[G, A], [A^T, Gt]] along a state array."""
    worst = float("inf")
    for x in states:
        block = extended_friction_block(sys, x)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (block + block.T)).min()))
    return worst


# ---------------------------------------------------------------------------
# machines and the diagram


def port_metriplectic_machine(
    sys: MetriplecticSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """The open port machine of the two-generator system.

    Members pack (x, u, tau_in) as n + 2m channels; membership is the
    dynamics residual on the state channels together with every algebraic
    side condition.  The output leg evaluates
    B^T grad H - A^T grad S - Jt u - Gt tau node-wise.  The sampler is
    ``sampler(x0, u_curve, tau_curve, length, shift=0.0)``.
    """
    return port_diagram.port_machine(sys, grid_step, residual_tolerance)


def closed_metriplectic_machine(
    sys: MetriplecticSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """Closed system as a machine: port-leg B^T grad H - A^T grad S,
    constant-leg 2m zero channels."""
    return port_diagram.closed_machine(sys, grid_step, residual_tolerance)


def enclosing_metriplectic_machine(
    sys: MetriplecticSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """Extended behavior with the paired-gradient input leg (2m channels)
    and the node-local port-output leg."""
    return port_diagram.enclosing_machine(sys, grid_step, residual_tolerance)


def build_metriplectic_diagram(
    sys: MetriplecticSystem,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
    grid_step: Optional[float] = None,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    integral_sign: float = 1.0,
) -> DiagramReport:
    """Assemble the metriplectic triangle and verify it; see
    :func:`sheafsys.port_diagram.build_diagram`."""
    builders = Builders(
        closed_metriplectic_machine,
        port_metriplectic_machine,
        enclosing_metriplectic_machine,
        embed_metriplectic,
    )
    return build_diagram(
        sys, builders, probes, tolerance, grid_step, residual_tolerance, integral_sign
    )
