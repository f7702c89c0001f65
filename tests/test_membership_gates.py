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

The side conditions of a metriplectic port run are held to
SIDE_CONDITION_TOL node by node: a signal moved at one node to put one
condition at 0.5x the tolerance there leaves the dynamics residual as the
membership, and at 2x makes it inf.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import Trajectory, bundle_from_config, resolve_builtin
from sheafsys.metriplectic import side_condition_residuals
from sheafsys.ode_behavior import SIDE_CONDITION_TOL, with_conditions
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


@pytest.mark.parametrize("shift", [np.nan, np.inf])
@pytest.mark.parametrize("machine", ["closed", "port", "enclosing"])
def test_a_member_with_a_non_finite_shift_fails_membership(machine, shift):
    # the field of the closed behavior is autonomous, so the shift reaches no
    # node defect there: the non-finite shift itself gives inf
    behavior, member = members("mass_spring")[machine]
    retagged = Trajectory(member.values, member.grid_step, shift, member.labels)
    assert behavior.membership(retagged) == np.inf


# ---------------------------------------------------------------------------
# the port side conditions


def two_port_document(**matrices) -> dict:
    """An explicit mp document with n = m = 2 whose laws hold: J = 0,
    G = diag(0, 1), H = x0^2 / 2 and S = x1^2 / 2, so B^T grad S and
    A^T grad H vanish for B with a zero second row and A with a zero first
    row; ``matrices`` replaces any of J, G, B, A, Jt and Gt."""
    zero = [[0.0, 0.0], [0.0, 0.0]]
    doc = {
        "kind": "mp", "n": 2, "m": 2, "J": zero, "G": [[0.0, 0.0], [0.0, 1.0]],
        "B": zero, "A": zero, "Jt": zero, "Gt": zero,
        "H": {"terms": [{"coeff": 0.5, "powers": [2, 0]}]},
        "S": {"terms": [{"coeff": 0.5, "powers": [0, 2]}]},
    }
    return {**doc, **matrices}


# per condition: the one live matrix that moves it, the signal channel moved,
# which no product of the dynamics reads, and the factor of that signal in
# the condition; A needs G and Gt to keep the extended friction block PSD
# (G_11 Gt_00 > A_10^2), which puts 0.4 of the moved A u in Gt u
SIDE_CONTROLS = {
    "B tau": (two_port_document(B=[[1.0, 0.0], [0.0, 0.0]]), "tau_in0", 1.0),
    "A u": (two_port_document(A=[[0.0, 0.0], [0.25, 0.0]], Gt=[[0.1, 0.0], [0.0, 0.0]]), "u0", 0.25),
    "Jt tau": (two_port_document(Jt=[[0.0, 1.0], [-1.0, 0.0]]), "tau_in0", 1.0),
    "Gt u": (two_port_document(Gt=[[1.0, 0.0], [0.0, 0.0]]), "u0", 1.0),
}


@functools.cache
def side_member(condition: str):
    """The system, its port behavior and a member from (1, 0.5) with zero
    signals, on which every side condition is 0."""
    system = bundle_from_config(SIDE_CONTROLS[condition][0]).instance
    port = port_machine(system, H).behavior
    member = port.sampler([1.0, 0.5], lambda t: np.zeros(2), lambda t: np.zeros(2), LENGTH)
    return system, port, member


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("condition", sorted(SIDE_CONTROLS))
@settings(max_examples=20, deadline=None)
@given(node=st.integers(0, round(LENGTH / H)))
def test_one_side_condition_moved_at_one_node_decides_membership_at_its_tolerance(
    condition, factor, node
):
    system, port, member = side_member(condition)
    dynamics = port.membership(member)
    assert dynamics <= 1e-2 * TOL
    _, channel, weight = SIDE_CONTROLS[condition]
    values = member.values.copy()
    values[node, member.labels.index(channel)] = factor * SIDE_CONDITION_TOL / weight
    moved = Trajectory(values, member.grid_step, member.shift, member.labels)
    residuals = side_condition_residuals(system, moved)
    assert residuals[condition] == (factor * SIDE_CONDITION_TOL, node)
    assert all(residuals[name][0] < SIDE_CONDITION_TOL for name in residuals if name != condition)
    expected = dynamics if factor < 1.0 else np.inf
    assert with_conditions(dynamics, residuals) == expected
    assert port.membership(moved) == expected
