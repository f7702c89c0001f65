"""The stack contract: batched node formulas against per-node references,
row independence, batched RK4 and leg/restriction commutation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import BlowUp, Polynomial, identical, integrate, restrict
from sheafsys.ode_behavior import integrate_batch, pointwise
from sheafsys.port_diagram import (
    closed_behavior,
    closed_field,
    closed_machine,
    embed,
    enclosing_machine,
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


# ---------------------------------------------------------------------------
# legs commute with restriction exactly


def port_diagram_legs(system):
    closed = closed_machine(system, H, 1e-3)
    port = port_machine(system, H, 1e-3)
    enclosing = enclosing_machine(system, H, 1e-3)
    probe = closed_behavior(system, H, 1e-3).sample(0.4 * np.ones(system.n), 0.05)
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
