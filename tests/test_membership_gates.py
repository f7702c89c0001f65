"""Negative controls for the membership gate of the three behaviors of the
port-control diagram: the closed behavior, the port machine and the
enclosing machine.

One state channel of a member moved by delta at one interior node raises
the centered-stencil defect of its two neighbours to delta / (2h), far above
the member's own residual.  So at the step h = 1e-3 and the default
tolerance 1e-4, the smallest single-node corruption that fails membership is
2h * tol = 2e-7: twice that must fail, with a residual of 2e-4, and half of
it must pass, with 5e-5.  The machines are built with their default
tolerance, so the tests pin it to 1e-4.  Port runs of `rigid_body` keep tau
at zero, so its side conditions hold.
"""

import numpy as np
import pytest

from sheafsys import Trajectory, resolve_builtin
from sheafsys.port_diagram import (
    closed_machine,
    enclosing_machine,
    port_machine,
    port_to_extended_morphism,
)

H, TOL, LENGTH = 1e-3, 1e-4, 0.5
THRESHOLD = 2 * H * TOL
NODE = 250  # an interior node of the 501


def members(name: str) -> dict:
    """Machine name -> (behavior, a member) for one built-in port system."""
    system = resolve_builtin(name).instance
    x0 = 0.5 * np.ones(system.n)
    groups = len(system.signal_labels) // system.m  # u, and tau for metriplectic
    curves = [lambda t: np.full(system.m, 0.2 * np.sin(t))]
    curves += [lambda t: np.zeros(system.m)] * (groups - 1)
    closed = closed_machine(system, H).behavior
    port = port_machine(system, H).behavior
    run = port.sampler(x0, *curves, LENGTH)
    return {
        "closed": (closed, closed.sampler(x0, LENGTH)),
        "port": (port, run),
        "enclosing": (
            enclosing_machine(system, H).behavior,
            port_to_extended_morphism(system).beta(run),
        ),
    }


def bumped(e: Trajectory, delta: float) -> Trajectory:
    values = e.values.copy()
    values[NODE, 0] += delta
    return Trajectory(values, e.grid_step, e.shift, e.labels)


@pytest.mark.parametrize("machine", ["closed", "port", "enclosing"])
@pytest.mark.parametrize("system", ["mass_spring", "rigid_body"])
def test_a_single_node_bump_fails_membership_just_above_the_threshold(system, machine):
    behavior, member = members(system)[machine]
    assert behavior.tolerance == TOL
    assert behavior.membership(member) <= 1e-2 * TOL
    above = behavior.membership(bumped(member, 2.0 * THRESHOLD))
    below = behavior.membership(bumped(member, 0.5 * THRESHOLD))
    assert not above <= behavior.tolerance
    assert below <= behavior.tolerance
    assert above == pytest.approx(2.0 * TOL, rel=1e-2)
    assert below == pytest.approx(0.5 * TOL, rel=1e-2)
