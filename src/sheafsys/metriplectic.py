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
from .ode_behavior import (
    DEFAULT_RESIDUAL_TOL,
    dot,
    grid_derivative,
    matvec,
    pointwise,
    transpose,
    worst_defect,
)
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
    antisymmetric,
    check_points,
    consistent_gradient,
    fd_gradient,
    require,
    semidefinite,
    symmetric,
)


@dataclass(frozen=True)
class MetriplecticSystem(PortSystem):
    """Two-generator system with ports.

    Parameters
    ----------
    n, m : int
        State and port dimensions.

    Every callable follows the stack contract of
    :mod:`sheafsys.ode_behavior` (:func:`metriplectic_system` lifts
    callables of one node):

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

    def energy_at(self, x) -> np.ndarray:
        return self.scalar(self.energy, x, "H")

    def entropy_at(self, x) -> np.ndarray:
        return self.scalar(self.entropy, x, "S")

    # node formulas of the port diagram

    def check(self, points: Optional[Sequence] = None) -> None:
        check_metriplectic_structure(self, points)

    def closed_rhs(self, x) -> np.ndarray:
        return matvec(self.poisson(x), self.grad_h(x)) + matvec(self.friction(x), self.grad_s(x))

    def port_rhs(self, x, s) -> np.ndarray:
        u, tau = s[..., : self.m], s[..., self.m :]
        return (
            self.closed_rhs(x) + matvec(self.energy_port(x), u) + matvec(self.entropy_port(x), tau)
        )

    def zeta_rate(self, x, s) -> np.ndarray:
        """-B^T grad H + A^T grad S + Jt u + Gt tau, the zeta row of the
        extended dynamics."""
        u, tau = s[..., : self.m], s[..., self.m :]
        return (
            -matvec(transpose(self.energy_port(x)), self.grad_h(x))
            + matvec(transpose(self.entropy_port(x)), self.grad_s(x))
            + matvec(self.port_poisson(x), u)
            + matvec(self.port_friction(x), tau)
        )

    def signal_reader(self, tag):
        if not (isinstance(tag, tuple) and len(tag) == 2):
            raise MissingAuxTag("extended metriplectic member needs a pair of auxiliary energies")
        read_h, read_s = (aux_gradient(aux, self.m) for aux in tag)
        return lambda t, zeta: np.concatenate([read_h(t, zeta), read_s(t, zeta)], axis=-1)

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
        times = e.absolute_times
        return _worst_per_condition(
            ("Jt grad aux H", "Gt grad aux S"),
            (
                matvec(self.port_poisson(x), aux_h.gradient(times, zeta)),
                matvec(self.port_friction(x), aux_s.gradient(times, zeta)),
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
    """Assemble a MetriplecticSystem from constants or callables; callables
    of one node are lifted with :func:`~sheafsys.ode_behavior.pointwise`."""
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
        pointwise(H),
        pointwise(S),
        pointwise(gradH) if gradH is not None else fd_gradient(H, n),
        pointwise(gradS) if gradS is not None else fd_gradient(S, n),
        labels,
    )


def extended_friction_block(sys: MetriplecticSystem, x) -> np.ndarray:
    """The (n+m) x (n+m) block [[G, A], [A^T, Gt]] at a state point or at
    every point of a stack."""
    x = np.asarray(x, dtype=float)
    n, m = sys.n, sys.m
    out = np.zeros(x.shape[:-1] + (n + m, n + m))
    out[..., :n, :n] = sys.friction(x)
    A = sys.entropy_port(x)
    out[..., :n, n:] = A
    out[..., n:, :n] = transpose(A)
    out[..., n:, n:] = sys.port_friction(x)
    return out


def noninteraction_residuals(sys: MetriplecticSystem, points: Optional[Sequence] = None):
    """Worst probe-point residuals of J grad S and G grad H."""
    points = check_points(sys.n, points)
    if not len(points):
        return 0.0, 0.0, None, None
    worst = _worst_per_condition(
        ("J gradS", "G gradH"),
        (
            matvec(sys.poisson(points), sys.grad_s(points)),
            matvec(sys.friction(points), sys.grad_h(points)),
        ),
    )
    (js, i), (gh, j) = worst["J gradS"], worst["G gradH"]
    return js, gh, points[i] if js > 0 else None, points[j] if gh > 0 else None


def check_metriplectic_structure(
    sys: MetriplecticSystem, points: Optional[Sequence] = None
) -> None:
    """Verify antisymmetry, PSD blocks, gradient consistency, noninteraction."""
    points = check_points(sys.n, points)
    if not len(points):
        return
    G = sys.friction(points)
    require(
        points,
        antisymmetric("J(x)", sys.poisson(points), points),
        antisymmetric("Jt(x)", sys.port_poisson(points), points),
        symmetric("G(x)", G, points),
        semidefinite("G(x)", G, points),
        semidefinite("[[G, A], [A^T, Gt]]", extended_friction_block(sys, points), points),
        consistent_gradient("H", sys.grad_h, fd_gradient(sys.energy, sys.n), points),
        consistent_gradient("S", sys.grad_s, fd_gradient(sys.entropy, sys.n), points),
    )
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


def _worst_per_condition(names: tuple, stacks) -> dict:
    """(worst residual, node) of each named condition, by
    :func:`~sheafsys.ode_behavior.worst_defect`; ``stacks`` holds one (N, k)
    stack of condition values per name."""
    return {
        name: worst_defect(np.max(np.abs(v), axis=-1) if v.shape[-1] else np.zeros(v.shape[:-1]))
        for name, v in zip(names, stacks)
    }


def side_condition_residuals(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Worst node residual of each algebraic side condition on a port run.

    Returns a dict mapping the names in SIDE_CONDITIONS to (residual, node)
    pairs.
    """
    x = e.channels(sys.state_labels)
    u = e.channels(sys.input_labels)
    tau = e.channels(sys.tau_labels)
    gh, gs = sys.grad_h(x), sys.grad_s(x)
    B, A = sys.energy_port(x), sys.entropy_port(x)
    return _worst_per_condition(
        SIDE_CONDITIONS,
        (
            matvec(sys.poisson(x), gs),
            matvec(sys.friction(x), gh),
            matvec(B, tau),
            matvec(A, u),
            matvec(transpose(B), gs),
            matvec(transpose(A), gh),
            matvec(sys.port_poisson(x), tau),
            matvec(sys.port_friction(x), u),
        ),
    )


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
    energy = sys.energy_at(x)[:, np.newaxis]
    entropy = sys.entropy_at(x)[:, np.newaxis]
    return energy[:, 0], grid_derivative(energy, h)[:, 0], grid_derivative(entropy, h)[:, 0]


def degeneracy_audit(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Energy and entropy rates along a closed run, by the grid stencils.

    Returns max |dH/dt|, min dS/dt, and the total energy drift
    max |H(x(t)) - H(x(0))|.  A non-finite node gives inf, and -inf for the
    entropy rate minimum, so the audit fails.
    """
    x = e.channels(sys.state_labels) if e.labels != sys.state_labels else e.values
    energy, h_rate, s_rate = _generator_rates(sys, x, e.grid_step)
    return {
        "energy_rate_max": worst_defect(np.abs(h_rate))[0],
        "entropy_rate_min": -worst_defect(-s_rate)[0],
        "energy_drift": worst_defect(np.abs(energy - energy[0]))[0],
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
    drive = matvec(sys.energy_port(x), u) + matvec(sys.entropy_port(x), tau)
    gh, gs = sys.grad_h(x), sys.grad_s(x)
    production = dot(gs, matvec(sys.friction(x), gs))
    return {
        "energy_rate_defect": worst_defect(np.abs(h_rate - dot(gh, drive)))[0],
        "entropy_rate_defect": worst_defect(np.abs(s_rate - production - dot(gs, drive)))[0],
    }


def extended_psd_min(sys: MetriplecticSystem, states: np.ndarray) -> float:
    """Smallest eigenvalue of [[G, A], [A^T, Gt]] along a state array; -inf
    at a non-finite node."""
    block = extended_friction_block(sys, states)
    return -worst_defect(-np.linalg.eigvalsh(0.5 * (block + transpose(block))).min(axis=-1))[0]


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
