"""The stack contract: batched node formulas against per-node references,
row independence, batched RK4 and leg/restriction commutation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    BlowUp,
    DimensionMismatch,
    GridMismatch,
    MetriplecticSystem,
    OdeBehavior,
    PHSystem,
    Polynomial,
    Trajectory,
    VectorField,
    identical,
    integrate,
    iso_machine,
    restrict,
)
from sheafsys.ode_behavior import batched, integrate_batch, pointwise
from sheafsys.port_diagram import (
    closed_behavior,
    closed_field,
    closed_machine,
    embed,
    enclosing_machine,
    port_field,
    port_machine,
    port_to_extended_morphism,
)
from sheafsys.systems import (
    blowup_field,
    bundle_from_config,
    linear_field,
    mass_spring_system,
    rigid_body_system,
)

H = 1e-3
K, MASS, DAMPING = 1.5, 0.5, 0.2
INERTIA, GAMMA = np.array([1.0, 2.0, 3.0]), 0.1
LINEAR = np.array([[-1.0, 2.0, 0.5], [0.0, -0.5, 1.0], [0.3, 0.0, -2.0]])

# ---------------------------------------------------------------------------
# per-node reference formulas, written out node by node


def ms_grad(x):
    return np.array([K * x[0], x[1] / MASS])


def ms_closed(x):
    return np.array([[0.0, 1.0], [-1.0, -DAMPING]]) @ ms_grad(x)


def ms_port(x, s):
    return ms_closed(x) + np.array([0.0, s[0]])


def ms_zeta(x, s):
    return np.array([-ms_grad(x)[1]])


def rb_grad_h(x):
    return x / INERTIA


def rb_friction(x):
    g = rb_grad_h(x)
    return GAMMA * (float(g @ g) * np.eye(3) - np.outer(g, g))


def rb_closed(x):
    return np.cross(x, rb_grad_h(x)) + rb_friction(x) @ x


def rb_port(x, s):
    return rb_closed(x) + np.array([-x[1], x[0], 0.0]) * s[0]


def rb_zeta(x, s):
    return np.array([-(-x[1] * rb_grad_h(x)[0] + x[0] * rb_grad_h(x)[1])])


SYSTEMS = {
    "mass_spring": (mass_spring_system(K, MASS, DAMPING), ms_closed, ms_port, ms_zeta),
    "rigid_body": (rigid_body_system(INERTIA, GAMMA), rb_closed, rb_port, rb_zeta),
}
FIELDS = {
    "blowup": (blowup_field(), lambda t, x: x * x),
    "linear": (linear_field(LINEAR), lambda t, x: LINEAR @ x),
}


def node_stacks(n, signals=0):
    shape = st.tuples(st.integers(1, 12), st.just(n + signals))
    return shape.flatmap(
        lambda s: st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=s[0] * s[1], max_size=s[0] * s[1]
        ).map(lambda v: np.array(v).reshape(s))
    )


def polynomials(n):
    term = st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False), st.lists(st.integers(0, 3), min_size=n, max_size=n)
    ).map(lambda t: (t[0], tuple(t[1])))
    return st.lists(term, max_size=4).map(lambda terms: Polynomial(n, tuple(terms)))


def poly_value(poly, x):
    return sum(c * math.prod(float(x[i]) ** p for i, p in enumerate(powers)) for c, powers in poly.terms)


def poly_gradient(poly, x):
    out = np.zeros(poly.n)
    for c, powers in poly.terms:
        for i, p in enumerate(powers):
            if p:
                rest = math.prod(float(x[j]) ** (q - (j == i)) for j, q in enumerate(powers))
                out[i] += c * p * rest
    return out


# ---------------------------------------------------------------------------
# batched forms against the per-node formulas


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_system_formulas_agree_with_the_node_formulas(name, data):
    system, closed, port, zeta = SYSTEMS[name]
    xs = data.draw(node_stacks(system.n, len(system.signal_labels)))
    x, s = xs[:, : system.n], xs[:, system.n :]
    assert np.allclose(system.closed_rhs(x), pointwise(closed)(x), rtol=0, atol=1e-12)
    assert np.allclose(system.port_rhs(x, s), pointwise(port, 1, 1)(x, s), rtol=0, atol=1e-12)
    assert np.allclose(system.zeta_rate(x, s), pointwise(zeta, 1, 1)(x, s), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fields_agree_with_the_node_formulas(name, data):
    field, reference = FIELDS[name]
    x = data.draw(node_stacks(field.dimension))
    t = np.arange(len(x)) * H
    assert np.allclose(field(t, x), pointwise(reference, 0, 1)(t, x), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(poly=polynomials(3), x=node_stacks(3))
def test_polynomial_agrees_with_the_node_formulas(poly, x):
    scale = 1.0 + np.max(np.abs(x)) ** 9
    value = pointwise(lambda p: poly_value(poly, p))(x)
    gradient = pointwise(lambda p: poly_gradient(poly, p))(x)
    assert np.allclose(poly(x), value, rtol=0, atol=1e-12 * scale)
    assert np.allclose(poly.gradient(x), gradient, rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# rows are independent: a slice of the rows gives the slice of the values


def batched_forms():
    for name, (system, *_) in SYSTEMS.items():
        k = len(system.signal_labels)
        yield name, system.n + k, lambda xs, sy=system: sy.closed_rhs(xs[..., : sy.n])
        yield name, system.n + k, lambda xs, sy=system: sy.port_rhs(xs[..., : sy.n], xs[..., sy.n :])
        yield name, system.n + k, lambda xs, sy=system: sy.zeta_rate(xs[..., : sy.n], xs[..., sy.n :])
    ms, rb = SYSTEMS["mass_spring"][0], SYSTEMS["rigid_body"][0]
    yield "H", 2, ms.hamiltonian
    yield "grad H", 3, rb.grad_energy
    yield "G", 3, rb.friction
    yield "J", 3, rb.poisson
    for name, (field, _) in FIELDS.items():
        yield name, field.dimension, lambda xs, f=field: f(0.25, xs)
    poly = Polynomial(2, ((0.5, (2, 0)), (-1.25, (1, 3)), (2.0, (0, 0))))
    yield "polynomial", 2, poly
    yield "polynomial gradient", 2, poly.gradient


FORMS = list(batched_forms())


@pytest.mark.parametrize("index", range(len(FORMS)))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluating_some_rows_gives_their_slice(index, data):
    _, width, form = FORMS[index]
    x = data.draw(node_stacks(width))
    i = data.draw(st.integers(0, len(x) - 1))
    j = data.draw(st.integers(i + 1, len(x)))
    assert np.array_equal(form(x[i:j]), form(x)[i:j])
    assert np.array_equal(form(x[i]), form(x)[i])


# ---------------------------------------------------------------------------
# batched RK4


def same_outcome(a, b) -> bool:
    if isinstance(a, BlowUp) or isinstance(b, BlowUp):
        return (
            isinstance(a, BlowUp) and isinstance(b, BlowUp)
            and a.t_star == b.t_star and identical(a.trajectory, b.trajectory)
        )
    return identical(a, b)


def one_at_a_time(field, x0, length):
    try:
        return integrate(field, x0, length, H)
    except BlowUp as exc:
        return exc


DUFFING = bundle_from_config({
    "kind": "ph", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.1]],
    "B": [[0.0], [1.0]],
    "H": {"terms": [
        {"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.1, "powers": [4, 0]},
        {"coeff": 0.5, "powers": [0, 2]}, {"coeff": 0.05, "powers": [3, 1]},
    ]},
}).instance
CLOSED_FIELDS = {name: closed_field(system) for name, (system, *_) in SYSTEMS.items()}
CLOSED_FIELDS.update({name: field for name, (field, _) in FIELDS.items()})
CLOSED_FIELDS["polynomial"] = closed_field(DUFFING)


@pytest.mark.parametrize("name", sorted(CLOSED_FIELDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_probes_integrated_together_equal_the_runs_one_at_a_time(name, data):
    field = CLOSED_FIELDS[name]
    starts = data.draw(node_stacks(field.dimension))
    length = 0.6 if name == "blowup" else 0.1
    together = integrate_batch(field, starts, length, H)
    assert len(together) == len(starts)
    for x0, run in zip(starts, together):
        assert same_outcome(run, one_at_a_time(field, x0, length))


def test_a_blown_up_row_leaves_the_batch_with_its_truncated_run():
    runs = integrate_batch(blowup_field(), [[2.0], [0.5], [4.0]], 1.0, H)
    assert [type(r).__name__ for r in runs] == ["BlowUp", "Trajectory", "BlowUp"]
    for x0, run in zip((2.0, 4.0), (runs[0], runs[2])):
        assert abs(run.t_star - 1.0 / x0) <= H
        assert run.trajectory.num_nodes == round(run.t_star / H) + 1
    assert runs[1].num_nodes == 1001


# x' = u, with u = c at the stages of step KICK and 0 elsewhere: a state moves
# only at that step, to x + (h / 6) (c + 2c + 2c + c)
KICK = 4
FOLLOWS_INPUT = VectorField(3, batched(lambda t, x, u: np.zeros_like(x) + u))


def kicked(starts, kicks):
    """Runs of FOLLOWS_INPUT over 10 steps from each row of ``starts``, the
    row's input ``kicks[row]`` at every stage of step KICK."""
    starts = np.array(starts, dtype=float)

    @batched
    def inputs(t):
        u = np.zeros((len(t),) + starts.shape)
        u[3 * KICK : 3 * KICK + 3] = np.array(kicks)[:, np.newaxis]
        return u

    return integrate_batch(FOLLOWS_INPUT, starts, 10 * H, H, inputs=inputs)


def test_a_value_of_exactly_the_blowup_threshold_carries_on():
    # the bound is inclusive, for one value at it and for two
    for x0 in ([1e8, 0.0, 0.0], [1e8, -1e8, 5.0]):
        (run,) = kicked([x0], [0.0])
        assert isinstance(run, Trajectory) and (run.values[:, :3] == x0).all()


def test_thirty_values_below_the_threshold_whose_squares_sum_above_it_carry_on():
    starts = np.full((10, 3), 0.9e8)
    # each value is under the bound though the stack's norm is over it
    assert starts.ravel().dot(starts.ravel()) > 1e16
    runs = kicked(starts, np.zeros(10))
    assert all(isinstance(run, Trajectory) and run.num_nodes == 11 for run in runs)


@pytest.mark.parametrize("kick", ["next above 1e8", "nan", "inf"])
def test_a_value_past_the_blowup_threshold_blows_up_at_its_step(kick):
    c = {"next above 1e8": 2.0 ** -26 / H, "nan": np.nan, "inf": np.inf}[kick]
    if kick == "next above 1e8":
        assert 1e8 + np.array(H / 6.0) * (c + (c + c) + (c + c) + c) == np.nextafter(1e8, np.inf)
    # the other row is small and carries on to the end
    runs = kicked([[1e8, 0.0, 0.0], [1.0, 0.0, 0.0]], [c, 0.0])
    assert isinstance(runs[0], BlowUp) and isinstance(runs[1], Trajectory)
    assert runs[0].t_star == KICK * H and runs[0].trajectory.num_nodes == KICK + 1
    assert runs[1].num_nodes == 11


def landing(x0, c):
    """Where kicked moves x0 at step KICK with the kick c, bit for bit as
    the RK4 step computes it."""
    return x0 + np.array(H / 6.0) * (c + (c + c) + (c + c) + c)


def kick_to(x0, target):
    """A kick that moves x0 exactly onto target at step KICK."""
    c = (target - x0) / H
    toward = np.inf if landing(x0, c) < target else -np.inf
    for _ in range(1000):
        if landing(x0, c) == target:
            return c
        c = np.nextafter(c, toward)
    raise AssertionError(f"no kick moves {x0!r} onto {target!r}")


@st.composite
def kicked_rows(draw):
    """A start of three values near +-0.9e8 or 0, and its row's kick: 0, a
    value near +-0.9e8, NaN, +-inf, +-1e300 (whose squares overflow), or
    one that lands the first value on +-1e8 or on the next float past it,
    from a start near +-0.9e8, and may land the others on 0."""
    near = st.floats(0.85e8, 0.95e8) | st.just(0.9e8)
    start = draw(st.lists(st.just(0.0) | near | near.map(lambda v: -v), min_size=3, max_size=3))
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["zero", "near", "nan", "inf", "huge", "on", "past"]))
    if kind in ("on", "past"):
        # a start of the target's sign, so a kick's last bit moves the landing by under one ulp
        target = sign * (1e8 if kind == "on" else np.nextafter(1e8, np.inf))
        start[0] = sign * draw(near)
        kick = kick_to(start[0], target)
        # the kick moves 0 by d and -d by exactly d, onto 0: a stack of one
        # value past the bound among zeros squares to just past 1e16
        start[1:] = [-landing(0.0, kick) if draw(st.booleans()) else v for v in start[1:]]
    else:
        fixed = {"zero": 0.0, "nan": np.nan, "inf": np.inf, "huge": 1e300}
        kick = sign * (fixed[kind] if kind in fixed else draw(near))
    return start, kick


@settings(max_examples=100, deadline=None)
@given(st.lists(kicked_rows(), min_size=1, max_size=12))
def test_a_kicked_row_blows_up_in_a_stack_exactly_as_alone(rows):
    starts = np.array([start for start, _ in rows])
    kicks = [kick for _, kick in rows]
    for x0, c, run in zip(starts, kicks, kicked(starts, kicks)):
        (alone,) = kicked([x0], [c])
        moved = landing(x0, c)
        if not (np.abs(moved) <= 1e8).all():  # NaN included
            assert isinstance(run, BlowUp) and isinstance(alone, BlowUp)
            assert run.t_star == alone.t_star == KICK * H
            assert run.trajectory.num_nodes == alone.trajectory.num_nodes == KICK + 1
            # a NaN kick sits in the input channels of the last node
            assert np.array_equal(run.trajectory.values, alone.trajectory.values, equal_nan=True)
        else:
            assert identical(run, alone) and (run.values[KICK + 1 :, :3] == moved).all()


def test_a_batch_checks_its_initial_states_and_step():
    for x0s in ([0.0, 0.0, 0.0], [[0.0, 0.0]], np.zeros((2, 3, 1))):
        with pytest.raises(DimensionMismatch, match="initial states shape"):
            integrate_batch(FOLLOWS_INPUT, x0s, 10 * H, H)
    for step in (0.0, -H):
        with pytest.raises(GridMismatch, match="grid step must be positive"):
            integrate_batch(FOLLOWS_INPUT, [[0.0, 0.0, 0.0]], 10 * H, step)


def test_a_stacked_sampler_gives_each_row_its_own_run():
    # x' = x^2 + u with one drive shared by the rows; from 5.0 the run blows up
    field = VectorField(1, batched(lambda t, x, u: x * x + u))
    behavior = OdeBehavior(field, H, labels=("x0", "u0"))
    drive = lambda t: 0.1 * np.sin(t)
    runs = behavior.sampler(np.array([[0.5], [5.0], [-1.0]]), drive, 0.5, shift=0.25)
    assert [type(r).__name__ for r in runs] == ["Trajectory", "BlowUp", "Trajectory"]
    for x0, run in zip((0.5, 5.0, -1.0), runs):
        try:
            alone = behavior.sampler([x0], drive, 0.5, shift=0.25)
        except BlowUp as exc:
            alone = exc
        assert same_outcome(run, alone)


# ---------------------------------------------------------------------------
# driven runs: input curves evaluated once on the RK4 stage grid


def reference_port_run(system, x0, curves, length, shift):
    """A port run by an RK4 loop written out here, reading the input curves
    at every stage time, one time at a time; states then inputs at the
    nodes."""

    def read(curve, t):
        return curve(np.array([t]))[0] if getattr(curve, "batched", False) else curve(t)

    def inputs(t):
        return np.concatenate([np.atleast_1d(read(curve, t)) for curve in curves])

    rhs = lambda t, x: system.port_rhs(x, inputs(t))
    x = np.array(x0, dtype=float)
    states = [x]
    for i in range(round(length / H)):
        t = i * H
        k1 = rhs(t - shift, x)
        k2 = rhs(t + 0.5 * H - shift, x + 0.5 * H * k1)
        k3 = rhs(t + 0.5 * H - shift, x + 0.5 * H * k2)
        k4 = rhs(t + H - shift, x + H * k3)
        x = x + (H / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    nodes = [inputs(i * H - shift) for i in range(len(states))]
    return np.concatenate([np.array(states), np.array(nodes)], axis=1)


def port_systems():
    yield "mass_spring", mass_spring_system(K, MASS, DAMPING)
    yield "rigid_body", rigid_body_system(INERTIA, GAMMA)
    rng = np.random.default_rng(7)
    terms = [{"coeff": float(rng.uniform(-0.5, 0.5)), "powers": [int(p) for p in rng.integers(0, 4, 2)]}
             for _ in range(4)]
    yield "polynomial", bundle_from_config({
        "kind": "ph", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.1]],
        "B": [[0.0], [1.0]],
        "H": {"terms": terms + [{"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]}]},
    }).instance


PORT_SYSTEMS = dict(port_systems())


def input_curves(k, style):
    """Curves of k signals in total: one per-node curve, one batched curve,
    or one curve per signal."""
    if style == "per-node":
        return [lambda t: np.array([0.3 * np.sin(2.0 * t) + 0.1 * j for j in range(k)])]
    if style == "batched":
        return [batched(lambda t: (0.5 * t - 0.2)[:, np.newaxis] * np.arange(1, k + 1))]
    return [lambda t, j=j: 0.25 * t * t - 0.1 * j for j in range(k)]


@pytest.mark.parametrize("shift", [0.0, 0.25])
@pytest.mark.parametrize("style", ["per-node", "batched", "several"])
@pytest.mark.parametrize("name", sorted(PORT_SYSTEMS))
def test_a_driven_run_equals_the_loop_reading_inputs_at_every_stage(name, style, shift):
    system = PORT_SYSTEMS[name]
    curves = input_curves(len(system.signal_labels), style)
    x0 = [0.4, -0.3, 0.2][: system.n]
    run = port_machine(system, H).behavior.sampler(x0, *curves, 0.05, shift=shift)
    assert run.labels == system.state_labels + system.signal_labels and run.shift == shift
    assert np.array_equal(run.values, reference_port_run(system, x0, curves, 0.05, shift))


def test_input_curves_are_called_once_per_run_on_the_stage_grid():
    calls = []

    @batched
    def counting(t):
        calls.append(np.array(t))
        return np.zeros((len(t), 1))

    port_machine(mass_spring_system(), H).behavior.sampler([1.0, 0.0], counting, 0.05, shift=0.5)
    (times,) = calls
    starts = np.arange(50) * H
    stages = np.column_stack([starts - 0.5, starts + 0.5 * H - 0.5, starts + H - 0.5])
    assert np.array_equal(times, np.append(stages, 50 * H - 0.5))


SOFTENING = bundle_from_config({
    "kind": "ph", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.2]],
    "B": [[0.0], [1.0]],
    "H": {"terms": [
        {"coeff": 0.45, "powers": [2, 0]}, {"coeff": -0.5, "powers": [4, 0]},
        {"coeff": 0.5, "powers": [0, 2]},
    ]},
}).instance


def test_a_driven_batch_row_that_blows_up_leaves_the_others_as_they_run_alone():
    field = port_field(SOFTENING)
    assert field.affine is not None  # B u is formed once per run and sliced with the rows
    starts = [[0.2, 0.0], [1.2, 0.5], [-0.3, 0.1]]
    per_row = batched(lambda t: np.sin(t)[:, np.newaxis, np.newaxis] * np.array([[1.0], [2.0], [-1.0]]))
    runs = integrate_batch(field, starts, 1.5, H, 0.1, inputs=per_row)
    assert [type(r).__name__ for r in runs] == ["Trajectory", "BlowUp", "Trajectory"]
    for row, (x0, run) in enumerate(zip(starts, runs)):
        alone = batched(lambda t, row=row: per_row(t)[:, row])
        try:
            expected = integrate(field, x0, 1.5, H, 0.1, inputs=alone)
        except BlowUp as exc:
            expected = exc
        assert same_outcome(run, expected)
    assert runs[1].trajectory.dimension == 3  # the truncated run keeps its inputs


def test_inputs_shared_by_a_batch_reach_a_field_of_one_node_per_row():
    field = VectorField(1, lambda t, x, u: np.array([u[0] - x[0]]))
    shared = batched(lambda t: np.cos(t)[:, np.newaxis])
    together = integrate_batch(field, [[0.0], [1.0]], 0.1, H, inputs=shared)
    for x0, run in zip([[0.0], [1.0]], together):
        assert identical(run, integrate(field, x0, 0.1, H, inputs=shared))


def test_driven_runs_check_the_shapes_of_inputs_and_dynamics():
    grows = iso_machine(VectorField(1, lambda t, x, u: np.zeros(2)), lambda t, x, u: x, 1, 1, H)
    with pytest.raises(DimensionMismatch, match="rhs returned shape"):
        grows.behavior.sampler([0.0], lambda t: np.ones(1), 0.01)
    field = port_field(SOFTENING)
    wrong_rows = batched(lambda t: np.zeros((len(t), 3, 1)))
    with pytest.raises(DimensionMismatch, match="inputs gave shape"):
        integrate_batch(field, [[0.0, 0.0], [1.0, 0.0]], 0.01, H, inputs=wrong_rows)


def test_inputs_of_the_wrong_width_fail_before_the_first_step():
    # two input channels for the one of mass_spring, on the 151 stage times
    # of a 0.05-unit run: the width of the constant port map fixes the width
    calls = []

    @batched
    def wide(t):
        calls.append(len(t))
        return np.zeros((len(t), 2))

    with pytest.raises(DimensionMismatch, match="width 2 given to a field that takes 1"):
        integrate_batch(port_field(mass_spring_system()), [[0.0, 0.0]], 0.05, inputs=wide)
    assert calls == [151]
    # rigid_body's port map depends on the state: the labels fix the width
    rb = rigid_body_system()
    with pytest.raises(DimensionMismatch, match="width 3 given to a field that takes 2"):
        integrate_batch(
            port_field(rb), [[1.0, 0.5, 0.5]], 0.05, H, labels=rb.state_labels + rb.signal_labels,
            inputs=batched(lambda t: np.zeros((len(t), 3))),
        )


@pytest.mark.parametrize("name", sorted(PORT_SYSTEMS))
def test_per_row_curves_drive_each_row_as_it_runs_alone(name):
    system = PORT_SYSTEMS[name]
    k = len(system.signal_labels)
    behavior = port_machine(system, H).behavior
    starts = np.array([[0.4, -0.3, 0.2][: system.n], [-0.2, 0.1, 0.5][: system.n]])
    gains = np.array([1.0, -0.5])
    per_row = batched(lambda t: np.sin(t)[:, np.newaxis, np.newaxis] * gains[:, np.newaxis] * np.ones(k))
    runs = behavior.sampler(starts, per_row, 0.05)
    assert not np.array_equal(runs[0].values[:, system.n:], runs[1].values[:, system.n:])
    for x0, gain, run in zip(starts, gains, runs):
        alone = batched(lambda t, gain=gain: np.sin(t)[:, np.newaxis] * gain * np.ones(k))
        assert identical(run, behavior.sampler(x0, alone, 0.05))


def test_per_row_curves_neither_mix_with_shared_ones_nor_miss_a_row():
    rb = rigid_body_system()
    behavior = port_machine(rb, H).behavior
    starts = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]]
    shared = batched(lambda t: np.zeros((len(t), 1)))
    for rows in (2, 3):
        per_row = batched(lambda t, rows=rows: np.zeros((len(t), rows, 1)))
        with pytest.raises(DimensionMismatch, match=r"each must be \(T, 2, w\)"):
            behavior.sampler(starts, per_row, shared if rows == 2 else per_row, 0.05)


# ---------------------------------------------------------------------------
# legs commute with restriction exactly


def port_diagram_legs(system):
    closed = closed_machine(system, H, 1e-3)
    port = port_machine(system, H, 1e-3)
    enclosing = enclosing_machine(system, H, 1e-3)
    probe = closed_behavior(system, H, 1e-3).sampler(0.4 * np.ones(system.n), 0.05)
    k = len(system.signal_labels)
    drive = lambda t: 0.1 * np.sin(3.0 * t) * np.ones(k) * (np.arange(k) < system.m)
    run = port.behavior.sampler(0.3 * np.ones(system.n), drive, 0.05)
    members = (
        (closed, probe),
        (port, run),
        (enclosing, port_to_extended_morphism(system).beta(run)),
        (enclosing, embed(system, probe, 1e-3)),
    )
    for machine, member in members:
        for leg in (machine.a_leg, machine.e_leg):
            yield leg, member


LEGS = [pair for system, *_ in SYSTEMS.values() for pair in port_diagram_legs(system)]


@pytest.mark.parametrize("index", range(len(LEGS)))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_port_diagram_leg_commutes_with_restriction(index, data):
    leg, e = LEGS[index]
    steps = e.num_nodes - 1
    offset = data.draw(st.integers(0, steps - 1))
    length = data.draw(st.integers(1, steps - offset))
    window = (length * e.grid_step, offset * e.grid_step)
    assert identical(leg(restrict(e, *window)), restrict(leg(e), *window))


# ---------------------------------------------------------------------------
# formula shapes are checked once, when a system is built


def square(x):
    return 0.5 * float(x @ x)


def identity(x):
    return np.array(x, dtype=float)


#: a valid two-state, one-port system of each family: per constructor field,
#: the formula's name in an error message and its value
VALID = {
    PHSystem: {
        "interconnection": ("J", np.array([[0.0, 1.0], [-1.0, 0.0]])),
        "dissipation": ("R", np.zeros((2, 2))),
        "port_map": ("B", np.zeros((2, 1))),
        "hamiltonian": ("H", square),
        "grad_hamiltonian": ("grad H", identity),
    },
    MetriplecticSystem: {
        "poisson": ("J", np.array([[0.0, 1.0], [-1.0, 0.0]])),
        "friction": ("G", np.zeros((2, 2))),
        "energy_port": ("B", np.zeros((2, 1))),
        "entropy_port": ("A", np.zeros((2, 1))),
        "port_poisson": ("Jt", np.zeros((1, 1))),
        "port_friction": ("Gt", np.zeros((1, 1))),
        "energy": ("H", square),
        "entropy": ("S", lambda x: 0.0),
        "grad_energy": ("grad H", identity),
        "grad_entropy": ("grad S", lambda x: np.zeros(2)),
    },
}
FORMULAS = [(cls, key) for cls, formulas in VALID.items() for key in formulas]
GENERATORS = ("H", "S", "grad H", "grad S")


def valid_fields(cls) -> dict:
    return {key: value for key, (_, value) in VALID[cls].items()}


def node_shape(value) -> tuple:
    return np.shape(value(np.zeros(2)) if callable(value) else value)


def formula_id(case) -> str:
    cls, key = case
    return f"{cls.__name__}-{VALID[cls][key][0]}"


@pytest.mark.parametrize("case", FORMULAS, ids=formula_id)
def test_a_formula_of_the_wrong_node_shape_fails_construction(case):
    cls, key = case
    name, value = VALID[cls][key]
    shape = node_shape(value)
    wrong = lambda x: np.zeros(shape + (1,))
    with pytest.raises(DimensionMismatch, match=rf"^{name}\(x\) has shape"):
        cls(2, 1, **{**valid_fields(cls), key: wrong})


@pytest.mark.parametrize("case", FORMULAS, ids=formula_id)
def test_a_batched_formula_giving_one_node_for_a_stack(case):
    """Fails construction for a gradient or energy; a matrix field may give
    one matrix for every node, as a constant does."""
    cls, key = case
    name, value = VALID[cls][key]
    shape = node_shape(value)
    one_node = batched(lambda x: np.zeros(shape))
    kwargs = {**valid_fields(cls), key: one_node}
    if name not in GENERATORS:
        cls(2, 1, **kwargs)
        return
    with pytest.raises(DimensionMismatch, match=rf"^{name}\(x\) has shape"):
        cls(2, 1, **kwargs)


def test_node_formulas_returning_lists_or_int_arrays_run_as_their_float_forms():
    loose = PHSystem(
        2, 1,
        lambda x: [[0, 1], [-1, 0]],
        lambda x: np.zeros((2, 2), dtype=int),
        lambda x: np.array([[0], [1]]),
        square,
        lambda x: [x[0], x[1]],
    )
    exact = PHSystem(
        2, 1,
        lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        lambda x: np.zeros((2, 2)),
        lambda x: np.array([[0.0], [1.0]]),
        square,
        identity,
    )
    runs = [closed_behavior(system, H).sampler([1.0, 0.5], 0.1) for system in (loose, exact)]
    assert identical(*runs)
    assert np.array_equal(loose.port_output(runs[0].values), exact.port_output(runs[1].values))
