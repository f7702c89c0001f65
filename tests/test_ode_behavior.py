import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    BlowUp,
    ConstraintViolation,
    DimensionMismatch,
    GridMismatch,
    MisalignedOffset,
    OdeBehavior,
    Trajectory,
    VectorField,
    closed_behavior,
    grid_derivative,
    integrate,
    membership_residual,
    restrict,
)
from sheafsys.interval_sheaf import worst_defect, worst_row
from sheafsys.ode_behavior import assert_conditions, pointwise, with_conditions
from sheafsys.port_diagram import closed_field, embed
from sheafsys.systems import blowup_field, linear_field, mass_spring_system


def test_vector_field_checks_output_shape():
    bad = VectorField(2, lambda t, x: np.zeros(3))
    with pytest.raises(DimensionMismatch):
        bad(0.0, np.zeros(2))


@pytest.mark.parametrize("field", [
    linear_field([[1.0, 0.0], [0.0, 1.0]]),
    closed_field(mass_spring_system()),
    VectorField(2, lambda t, x: x),  # a field of one node, lifted
])
@pytest.mark.parametrize("x", [np.ones(3), np.ones((4, 3)), np.ones(1), np.float64(1.0)])
def test_vector_field_rejects_a_state_of_the_wrong_width_before_the_rhs(field, x):
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {np.shape(x)} given to a field of dimension 2")):
        field(0.0, x)


@pytest.mark.parametrize("times, states", [(np.arange(5.0), np.ones((3, 2))), (np.arange(3.0), np.ones((5, 2)))])
def test_pointwise_rejects_stacks_of_different_lengths(times, states):
    lifted = pointwise(lambda t, x: x * t, 0, 1)
    with pytest.raises(DimensionMismatch, match="disagree in length"):
        lifted(times, states)
    assert lifted(times[:2], states[:2]).shape == (2, 2)


def test_grid_derivative_exact_on_cubics():
    # the endpoint stencils are third order, so cubics differentiate exactly
    h = 0.01
    t = np.arange(50) * h
    values = (2.0 * t ** 3 - t ** 2 + 4 * t - 1)[:, None]
    expect = 6.0 * t ** 2 - 2.0 * t + 4
    d = grid_derivative(values, h)[:, 0]
    assert np.max(np.abs(d[0] - expect[0])) < 1e-10
    assert np.max(np.abs(d[-1] - expect[-1])) < 1e-10
    # interior stencil is exact on quadratics
    quad = (t ** 2 + t)[:, None]
    dq = grid_derivative(quad, h)[1:-1, 0]
    assert np.max(np.abs(dq - (2 * t + 1)[1:-1])) < 1e-11


def test_grid_derivative_short_inputs():
    h = 0.5
    two = grid_derivative(np.array([[0.0], [1.0]]), h)
    assert np.allclose(two[:, 0], [2.0, 2.0])
    three = grid_derivative(np.array([[0.0], [1.0], [4.0]]), h)
    assert three.shape == (3, 1)


def test_integrate_matches_exponential_decay():
    field = linear_field(((-1.0,),))
    e = integrate(field, [1.0], 1.0, 1e-3)
    exact = np.exp(-e.times)
    assert np.max(np.abs(e.values[:, 0] - exact)) < 1e-11


def test_integrate_exact_for_polynomial_drive():
    # x' = t - shift in node time; quartic quadrature is exact through cubics
    field = VectorField(1, lambda t, x: np.array([t]))
    shift = 0.25
    e = integrate(field, [2.0], 1.0, 1e-3, shift=shift)
    expect = 2.0 + e.times ** 2 / 2.0 - shift * e.times
    assert np.max(np.abs(e.values[:, 0] - expect)) < 1e-12


def test_integrate_rejects_bad_inputs():
    field = linear_field()
    with pytest.raises(DimensionMismatch):
        integrate(field, [1.0, 2.0], 1.0)
    with pytest.raises(GridMismatch):
        integrate(field, [1.0], 0.00037, 1e-3)


@pytest.mark.parametrize("length, step", [(np.nan, 1e-3), (np.inf, 1e-3), (-np.inf, 1e-3), (1.0, np.inf)])
def test_integrate_rejects_non_finite_lengths_and_steps(length, step):
    with pytest.raises(MisalignedOffset):
        integrate(linear_field(), [1.0], length, step)


def test_blowup_reports_time_and_truncated_run():
    field = blowup_field()
    with pytest.raises(BlowUp) as info:
        integrate(field, [1.0], 2.0, 1e-4)
    exc = info.value
    assert abs(exc.t_star - 1.0) < 0.01
    assert exc.trajectory.num_nodes == 10001
    assert np.all(np.isfinite(exc.trajectory.values))
    # the kept nodes still track the closed form
    kept = exc.trajectory
    sample = kept.values[9000, 0]
    assert sample == pytest.approx(1.0 / (1.0 - 0.9), rel=1e-10)


def test_membership_accepts_samples_and_rejects_corruption():
    behavior = OdeBehavior(linear_field(), 1e-3, 1e-4)
    e = behavior.sampler([1.0], 0.5)
    assert behavior.membership(e) < 1e-6
    corrupted = np.array(e.values)
    corrupted[200, 0] += 1e-2
    bad = Trajectory(corrupted, e.grid_step, e.shift, e.labels)
    assert behavior.membership(bad) > 1e-4


def test_membership_closed_under_restriction():
    behavior = OdeBehavior(linear_field(), 1e-3, 1e-4)
    e = behavior.sampler([1.0], 0.5, shift=0.125)
    base = behavior.membership(e)
    for offset_nodes, keep_nodes in ((0, 100), (100, 250), (400, 100)):
        w = restrict(e, keep_nodes * 1e-3, offset_nodes * 1e-3)
        assert behavior.membership(w) <= max(base, 1e-6) * 1.5 + 1e-12


def test_membership_gates_on_labels():
    behavior = OdeBehavior(linear_field(), 1e-3, 1e-4, labels=("v",))
    e = behavior.sampler([1.0], 0.1)
    assert behavior.membership(e) < 1e-6
    relabeled = Trajectory(e.values, e.grid_step, e.shift, ("w",))
    assert behavior.membership(relabeled) == np.inf


def test_membership_residual_grid_rules():
    field = linear_field()
    e = integrate(field, [1.0], 0.5, 1e-3)
    with pytest.raises(GridMismatch):
        membership_residual(field, e, grid_step=2e-3)
    coarse = Trajectory(e.values[::2], 2e-3, 0.0)
    assert membership_residual(field, coarse, grid_step=1e-3) < 1e-4
    wrong_dim = Trajectory(np.zeros((8, 2)), 1e-3, 0.0)
    with pytest.raises(DimensionMismatch):
        membership_residual(field, wrong_dim)


def test_time_varying_membership_uses_absolute_time():
    field = VectorField(1, lambda t, x: np.array([t]))
    shift = 0.125
    e = integrate(field, [0.0], 0.25, 1e-3, shift=shift)
    assert membership_residual(field, e) < 1e-8
    # forgetting the shift breaks membership
    untagged = Trajectory(e.values, e.grid_step, 0.0, e.labels)
    assert membership_residual(field, untagged) > 1e-2


@pytest.mark.parametrize(
    "node, channel, value",
    [(500, 0, np.nan), (0, 1, np.nan), (1000, 0, np.nan), (250, 1, np.inf), (500, 0, -np.inf)],
)
def test_membership_is_infinite_at_a_non_finite_node(node, channel, value):
    behavior = closed_behavior(mass_spring_system(), 1e-3)
    e = behavior.sampler([1.0, 0.0], 1.0)
    poisoned = np.array(e.values)
    poisoned[node, channel] = value
    bad = Trajectory(poisoned, e.grid_step, e.shift, e.labels)
    # an infinite state makes the field form inf - inf, which numpy reports
    with pytest.warns(RuntimeWarning, match="invalid value") if np.isinf(value) else nullcontext():
        assert behavior.membership(bad) == np.inf


def test_worst_defect_gives_the_first_worst_node_and_inf_on_non_finite():
    assert worst_defect([0.1, 0.3, 0.2, 0.3]) == (0.3, 1)
    assert worst_defect([0.1, np.nan, np.inf]) == (np.inf, 1)
    assert worst_defect([0.1, -np.inf, 0.3, np.nan]) == (np.inf, 1)
    assert worst_defect([0.1, -np.inf, 0.3]) == (np.inf, 1)
    assert worst_defect([]) == (0.0, 0)


# few distinct magnitudes, so maxima tie; the specials land where drawn
ENTRIES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0, np.nan, np.inf, -np.inf]) | st.floats()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 5), st.booleans(), st.data())
def test_worst_row_is_worst_defect_of_the_row_sup_norms(rows, width, transposed, data):
    entries = data.draw(st.lists(ENTRIES, min_size=rows * width, max_size=rows * width))
    values = np.array(entries, dtype=float).reshape(rows, width)
    if transposed:  # the same stack, laid out column by column
        values = np.array(values.T).T
    reference = worst_defect(np.max(np.abs(values), axis=-1, initial=0.0))
    got = worst_row(values)
    assert got == reference and type(got[0]) is float and type(got[1]) is int


def test_as_behavior_sheaf_samples_members():
    behavior = OdeBehavior(linear_field(), 1e-3, 1e-4)
    sheaf = behavior
    e = sheaf.sampler([1.0], 0.2)
    assert sheaf.membership(e) <= sheaf.tolerance


def test_side_conditions_never_pass_a_nan():
    with pytest.raises(ConstraintViolation) as info:
        assert_conditions({"small": (1e-12, 0), "poisoned": (float("nan"), 3)})
    assert info.value.condition == "poisoned" and info.value.node == 3
    assert_conditions({"small": (1e-12, 0)})
    assert with_conditions(1e-6, {"small": (1e-9, 2)}) == 1e-6
    assert with_conditions(1e-6, {"small": (1e-7, 2)}) == np.inf  # above SIDE_CONDITION_TOL
    assert with_conditions(1e-6, {"poisoned": (float("nan"), 2)}) == np.inf

    field = linear_field()
    plain = OdeBehavior(field, 1e-3, 1e-4)
    poisoned = OdeBehavior(field, 1e-3, 1e-4, side_residuals=lambda e: {"c": (np.nan, 2)})
    run = plain.sampler([1.0], 0.01)
    assert poisoned.membership(run) == np.inf
    assert plain.membership(run) <= 1e-4
    with pytest.raises(ConstraintViolation) as info:
        assert_conditions(poisoned.side_residuals(run))
    assert info.value.node == 2


# ---------------------------------------------------------------------------
# convergence orders on mass_spring from [1, 0] over [0, 2], whose exact
# solution is (cos t, -sin t) and whose zeta channel integrates sin t


def _order_errors(h: float) -> dict:
    """Each error of a step-h closed mass_spring run against its exact value."""
    system = mass_spring_system()
    run = closed_behavior(system, h).sampler([1.0, 0.0], 2.0)
    t = run.absolute_times
    rates = closed_field(system)(t, run.values)
    defects = np.abs(grid_derivative(run.values, h) - rates).max(axis=1)
    zeta = embed(system, run, residual_tolerance=1.0).channels(system.zeta_labels)[:, 0]
    return {
        "rk4": np.abs(run.values - np.column_stack([np.cos(t), -np.sin(t)])).max(),
        "interior stencil": defects[1:-1].max(),
        "end stencil": max(defects[0], defects[-1]),
        "trapezoid zeta": np.abs(zeta - (1.0 - np.cos(t))).max(),
    }


ORDER_STEPS = (0.1, 0.05, 0.025, 0.0125)


@pytest.fixture(scope="module")
def order_errors():
    return [_order_errors(h) for h in ORDER_STEPS]


@pytest.mark.parametrize("quantity, low, high", [
    ("rk4", 14.0, 18.0),  # fourth order
    ("interior stencil", 3.5, 4.5),  # second order
    ("end stencil", 7.0, 9.0),  # third order
    ("trapezoid zeta", 3.5, 4.5),  # second order
])
def test_halving_the_step_divides_each_error_by_its_order(order_errors, quantity, low, high):
    errors = [e[quantity] for e in order_errors]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(low <= r <= high for r in ratios), ratios
