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
system on (x, zeta) mirrors the port-Hamiltonian construction with the
linear auxiliary generators H_aux = u^T zeta and S_aux = tau^T zeta, so
that an enclosing member carries (u, tau_in) = (grad_zeta H_aux,
grad_zeta S_aux) as channels after zeta, and with the coupling blocks

    Jext = [[J, B], [-B^T, Jt]],      Gext = [[G, A], [A^T, Gt]].

The zeta rate that makes embedded trajectories members is
-B^T grad H + A^T grad S + Jt u + Gt tau (the signs the extended blocks
produce), and the port output is exactly its negative.  With
H_ext = H + H_aux and S_ext = S + S_aux, the extended noninteraction laws
Jext grad S_ext = 0 and Gext grad H_ext = 0 have the rows J grad S + B tau,
-B^T grad S + Jt tau, G grad H + A u and A^T grad H + Gt u, and the port
side conditions make every row vanish; so the enclosing machine holds its
members to the same eight conditions as the port machine.  The port
signals are (u, tau_in).  :class:`MetriplecticSystem`, the one constructor
of a metriplectic system, supplies these node formulas, the side conditions
and its structure-law table to :mod:`sheafsys.port_diagram`, which holds the
laws and builds the machines, the embedding and the diagram; the names this
module gives them (``closed_metriplectic_machine``,
``port_metriplectic_machine``, ``enclosing_metriplectic_machine``,
``embed_metriplectic``, ``build_metriplectic_diagram``) are the port_diagram
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interval_sheaf import Trajectory, worst_defect
from .ode_behavior import (
    dot,
    grid_derivative,
    matvec,
    transpose,
)
from .port_diagram import (
    PortSystem,
    build_diagram as build_metriplectic_diagram,
    closed_behavior as closed_metriplectic_behavior,
    closed_machine as closed_metriplectic_machine,
    constant_matrix,
    embed as embed_metriplectic,
    enclosing_machine as enclosing_metriplectic_machine,
    entries,
    formula,
    gradient_gap,
    negative_eigenvalues,
    port_machine as port_metriplectic_machine,
    worst_per_condition,
)


@dataclass(frozen=True)
class MetriplecticSystem(PortSystem):
    """Two-generator system with ports.

    Parameters
    ----------
    n, m : int
        State and port dimensions.

    Each formula is a constant matrix or a callable; building the system
    lifts a callable of one node to the stack contract of
    :mod:`sheafsys.ode_behavior` and checks every shape and the structure
    laws (:meth:`structure_residuals`) once:

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
        Their gradients, in closed form.
    state_labels : tuple of str
        Channel names for the state; x0, x1, ... when empty.

    The port signals are s = (u, tau_in), the gradients in zeta of the
    auxiliary energy u^T zeta and entropy tau_in^T zeta.
    """

    n: int
    m: int
    poisson: Callable = formula("J", "nn")
    friction: Callable = formula("G", "nn")
    energy_port: Callable = formula("B", "nm")
    entropy_port: Callable = formula("A", "nm")
    port_poisson: Callable = formula("Jt", "mm")
    port_friction: Callable = formula("Gt", "mm")
    energy: Callable = formula("H", "")
    entropy: Callable = formula("S", "")
    grad_energy: Callable = formula("grad H", "n")
    grad_entropy: Callable = formula("grad S", "n")
    state_labels: tuple = ()

    @property
    def tau_labels(self) -> tuple:
        # the input curve the source text overloads with the interval
        # length symbol; renamed throughout
        return tuple(f"tau_in{i}" for i in range(self.m))

    @property
    def signal_labels(self) -> tuple:
        return self.input_labels + self.tau_labels

    def __post_init__(self):
        super().__post_init__()
        # per port matrix A, Jt, Gt: False for a constant zero, whose products
        # port_rhs and zeta_rate leave out
        live = {}
        for name in ("entropy_port", "port_poisson", "port_friction"):
            constant = constant_matrix(getattr(self, name))
            live[name] = constant is None or bool(constant.any())
        object.__setattr__(self, "_live", live)

    # node formulas of the port diagram
    #
    # port_rhs and zeta_rate leave out the product of a constant zero A, Jt
    # or Gt.  At finite signals that product is +0.0, and no matrix product
    # here is ever -0.0, so adding it changes no sum except a -0.0 from the
    # negated first term of zeta_rate, which it makes +0.0; 0.0 - does that
    # too.  (A non-finite signal times a zero matrix is NaN in the full sum.)

    def structure_residuals(self, x) -> dict:
        """The noninteraction laws precede the gradient laws: they hold the
        gradients the dynamics use, so a gradient that breaks them, or is
        NaN, fails as one of them."""
        J, Jt, G = self.poisson(x), self.port_poisson(x), self.friction(x)
        return worst_per_condition(
            {
                "J(x) not antisymmetric": entries(J + transpose(J)),
                "Jt(x) not antisymmetric": entries(Jt + transpose(Jt)),
                "G(x) not symmetric": entries(G - transpose(G)),
                "G(x) not positive semidefinite": negative_eigenvalues(G),
                "[[G, A], [A^T, Gt]] not positive semidefinite": negative_eigenvalues(
                    extended_friction_block(self, x)
                ),
                "J grad S": matvec(J, self.grad_entropy(x)),
                "G grad H": matvec(G, self.grad_energy(x)),
                "grad H inconsistent with finite differences": gradient_gap(
                    self.grad_energy, self.energy, x
                ),
                "grad S inconsistent with finite differences": gradient_gap(
                    self.grad_entropy, self.entropy, x
                ),
            }
        )

    def closed_rhs(self, x) -> np.ndarray:
        return matvec(self.poisson(x), self.grad_energy(x)) + matvec(self.friction(x), self.grad_entropy(x))

    def port_rhs(self, x, s) -> np.ndarray:
        rate = self.closed_rhs(x) + matvec(self.energy_port(x), s[..., : self.m])
        if self._live["entropy_port"]:
            rate = rate + matvec(self.entropy_port(x), s[..., self.m :])
        return rate

    def zeta_rate(self, x, s) -> np.ndarray:
        """-B^T grad H + A^T grad S + Jt u + Gt tau, the zeta row of the
        extended dynamics, summed in this order."""
        live = self._live
        rate = 0.0 - matvec(transpose(self.energy_port(x)), self.grad_energy(x))
        if live["entropy_port"]:
            rate = rate + matvec(transpose(self.entropy_port(x)), self.grad_entropy(x))
        if live["port_poisson"]:
            rate = rate + matvec(self.port_poisson(x), s[..., : self.m])
        if live["port_friction"]:
            rate = rate + matvec(self.port_friction(x), s[..., self.m :])
        return rate

    def port_side_residuals(self, e: Trajectory) -> dict:
        return side_condition_residuals(self, e)


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


# ---------------------------------------------------------------------------
# node-wise formulas and side conditions


def zeta_rate_along(
    sys: MetriplecticSystem,
    states: np.ndarray,
    u_nodes: np.ndarray,
    tau_nodes: np.ndarray,
) -> np.ndarray:
    """-B^T grad H + A^T grad S + Jt u + Gt tau at every node."""
    signals = np.concatenate([u_nodes, tau_nodes], axis=1)
    return sys.zeta_rate(states, signals)


SIDE_CONDITIONS = (
    "J grad S", "G grad H", "B tau", "A u", "B^T grad S", "A^T grad H", "Jt tau", "Gt u"
)


def side_condition_residuals(sys: MetriplecticSystem, e: Trajectory) -> dict:
    """Worst node residual of each algebraic side condition on a port run.

    Returns a dict mapping the names in SIDE_CONDITIONS to (residual, node)
    pairs.
    """
    x = e.channels(sys.state_labels)
    u = e.channels(sys.input_labels)
    tau = e.channels(sys.tau_labels)
    gh, gs = sys.grad_energy(x), sys.grad_entropy(x)
    B, A = sys.energy_port(x), sys.entropy_port(x)
    values = (
        matvec(sys.poisson(x), gs),
        matvec(sys.friction(x), gh),
        matvec(B, tau),
        matvec(A, u),
        matvec(transpose(B), gs),
        matvec(transpose(A), gh),
        matvec(sys.port_poisson(x), tau),
        matvec(sys.port_friction(x), u),
    )
    return worst_per_condition(dict(zip(SIDE_CONDITIONS, values)))


# ---------------------------------------------------------------------------
# audits


def _generator_rates(sys: MetriplecticSystem, x: np.ndarray, h: float):
    """H at every node, and dH/dt and dS/dt by the grid stencils."""
    energy = sys.energy(x)[:, np.newaxis]
    entropy = sys.entropy(x)[:, np.newaxis]
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
    gh, gs = sys.grad_energy(x), sys.grad_entropy(x)
    production = dot(gs, matvec(sys.friction(x), gs))
    return {
        "energy_rate_defect": worst_defect(np.abs(h_rate - dot(gh, drive)))[0],
        "entropy_rate_defect": worst_defect(np.abs(s_rate - production - dot(gs, drive)))[0],
    }
