"""Port-Hamiltonian structure as a commuting diagram of machines.

A dissipative Hamiltonian system x' = (J - R) grad H closes up; opening a
port B turns it into the input-state-output system

    x' = (J - R) grad H + B u,        y = B^T grad H.

The same open system embeds into a closed one on the extended space
(x, zeta): the linear auxiliary energy H_aux = u^T zeta supplies the drive
through the extended antisymmetric block [[J, B], [-B^T, 0]], and the port
variable zeta integrates -B^T grad H.  An enclosing member carries
u = grad_zeta H_aux as channels after zeta.  :class:`PHSystem`, the one
constructor of a port-Hamiltonian system, supplies these node formulas to
:mod:`sheafsys.port_diagram`, which builds the three machines (closed, port,
extended) and the three behavior maps between them and hands the triangle
to the diagram verifier.  This module adds the
structure-law table (J antisymmetric, R symmetric positive semidefinite,
grad H consistent with H) and the audit table.

Leg maps are :func:`~sheafsys.machine.node_map` legs: they commute with
restriction bit-exactly by construction, so the diagram verifier skips them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interval_sheaf import Trajectory, worst_defect
from .ode_behavior import (
    AuditRow,
    dot,
    grid_derivative,
    matvec,
    transpose,
)
from .port_diagram import (
    PortSystem,
    constant_matrix,
    entries,
    formula,
    gradient_gap,
    negative_eigenvalues,
    worst_per_condition,
)

# read by nothing here: the benchmark tracer, perfbench/tracing.py, looks
# these names up in this module
from .port_diagram import (
    as_matrix_field,
    closed_machine,
    embed as embed_closed,
    enclosing_machine,
    port_machine as ph_iso_machine,
)


@dataclass(frozen=True)
class PHSystem(PortSystem):
    """A port-Hamiltonian system in coordinates.

    Parameters
    ----------
    n, m : int
        State and port dimensions.

    Each formula is a constant matrix or a callable; building the system
    lifts a callable of one node to the stack contract of
    :mod:`sheafsys.ode_behavior` and checks every shape and the structure
    laws (:meth:`structure_residuals`) once:

    interconnection : callable
        x -> antisymmetric (n, n) matrix J(x).
    dissipation : callable
        x -> symmetric positive-semidefinite (n, n) matrix R(x).
    port_map : callable
        x -> (n, m) matrix B(x).
    hamiltonian : callable
        x -> float, the stored energy H.
    grad_hamiltonian : callable
        x -> (n,) gradient of H, in closed form.
    state_labels : tuple of str
        Channel names for the state; x0, x1, ... when empty.

    The port signals are the inputs u, the gradient in zeta of the
    auxiliary energy u^T zeta.
    """

    n: int
    m: int
    interconnection: Callable[[np.ndarray], np.ndarray] = formula("J", "nn")
    dissipation: Callable[[np.ndarray], np.ndarray] = formula("R", "nn")
    port_map: Callable[[np.ndarray], np.ndarray] = formula("B", "nm")
    hamiltonian: Callable[[np.ndarray], float] = formula("H", "")
    grad_hamiltonian: Callable[[np.ndarray], np.ndarray] = formula("grad H", "n")
    state_labels: tuple = ()
    drive_amplitude = 1.0  # a of the audit's drive u = a sin(t), not a field

    def __post_init__(self):
        super().__post_init__()
        # J - R, formed once when both are constant, and a constant B, read
        # once; closed_rhs and port_rhs form them per call otherwise
        J, R = constant_matrix(self.interconnection), constant_matrix(self.dissipation)
        object.__setattr__(self, "_drift", None if J is None or R is None else J - R)
        object.__setattr__(self, "_port", constant_matrix(self.port_map))

    def constant_port_map(self):
        return self._port

    def port_output(self, x) -> np.ndarray:
        """The natural port output B(x)^T grad H(x)."""
        return matvec(transpose(self.port_map(x)), self.grad_hamiltonian(x))

    # node formulas of the port diagram

    def structure_residuals(self, x) -> dict:
        J, R = self.interconnection(x), self.dissipation(x)
        return worst_per_condition(
            {
                "J(x) not antisymmetric": entries(J + transpose(J)),
                "R(x) not symmetric": entries(R - transpose(R)),
                "R(x) not positive semidefinite": negative_eigenvalues(R),
                "grad H inconsistent with finite differences": gradient_gap(
                    self.grad_hamiltonian, self.hamiltonian, x
                ),
            }
        )

    def closed_rhs(self, x) -> np.ndarray:
        drift = self._drift
        if drift is None:
            drift = self.interconnection(x) - self.dissipation(x)
        return matvec(drift, self.grad_hamiltonian(x))

    def port_rhs(self, x, s) -> np.ndarray:
        port = self._port
        if port is None:
            port = self.port_map(x)
        return self.closed_rhs(x) + matvec(port, s)

    def zeta_rate(self, x, s) -> np.ndarray:
        return -self.port_output(x)

    @property
    def audit_table(self) -> tuple:
        """The rows of :func:`~sheafsys.ode_behavior.run_audit`: the power
        balance and passivity (:func:`dissipation_margin`) decide."""
        return (
            AuditRow("power_balance_defect", lambda driven, _: power_balance(self, driven)),
            AuditRow("dissipation_excess", lambda driven, _: dissipation_margin(self, driven)),
            AuditRow(
                "closed_energy_drift", lambda _, closed: closed_energy_drift(self, closed),
                informational="R(x) != 0 drains the closed run's energy, so a drift is no defect",
            ),
        )


# ---------------------------------------------------------------------------
# audits


def _port_run_rates(sys: PHSystem, e: Trajectory):
    """State, input and the stencil rate dH/dt along a port run."""
    x = e.channels(sys.state_labels)
    energy = sys.hamiltonian(x)[:, np.newaxis]
    return x, e.channels(sys.input_labels), grid_derivative(energy, e.grid_step)[:, 0]


def power_balance(sys: PHSystem, e: Trajectory) -> float:
    """Worst node defect of |dH/dt - (y^T u - grad H^T R grad H)|.

    ``e`` is a port-machine member (state and input channels together);
    dH/dt is taken by the grid stencils on the sampled energy.  A
    non-finite node defect gives inf.
    """
    x, u, rate = _port_run_rates(sys, e)
    grad = sys.grad_hamiltonian(x)
    supply = dot(sys.port_output(x), u)
    dissipated = dot(grad, matvec(sys.dissipation(x), grad))
    return worst_defect(np.abs(rate - (supply - dissipated)))[0]


def dissipation_margin(sys: PHSystem, e: Trajectory) -> float:
    """Worst node excess of dH/dt over the supplied power y^T u, the audit's
    passivity row.  At most the power balance defect where R(x) is positive
    semidefinite at every node: dH/dt - y^T u = (dH/dt - y^T u +
    grad H^T R grad H) - grad H^T R grad H.  So passivity fails while the
    power balance holds only where R(x) is indefinite at a visited state.
    A non-finite node gives inf.
    """
    x, u, rate = _port_run_rates(sys, e)
    return worst_defect(rate - dot(sys.port_output(x), u))[0]


def closed_energy_drift(sys: PHSystem, e: Trajectory) -> float:
    """Max |H(x(t)) - H(x(0))| along a closed-system member; inf at a
    non-finite node."""
    energy = sys.hamiltonian(e.values)
    return worst_defect(np.abs(energy - energy[0]))[0]
