"""The cheaper forms of the per-stage formulas give the bits of the plain
formulas: single-node products, folded constant matrices, skipped zero port
matrices, the compiled polynomial gradient, the rigid body's friction and
whole closed runs.  Bits include the sign of a zero."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import MetriplecticSystem, PHSystem, Polynomial, integrate
from sheafsys.ode_behavior import dot, matvec
from sheafsys.port_diagram import closed_field
from sheafsys.systems import (
    bundle_from_config,
    mass_spring_system,
    resolve_builtin,
    rigid_body_system,
)

H = 1e-3


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


# small values with exact zeros of both signs and values whose products
# underflow, so zero products show their sign
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200]), st.floats(-3.0, 3.0, allow_nan=False)
)


def arrays(shape):
    size = int(np.prod(shape))
    return st.lists(values, min_size=size, max_size=size).map(lambda v: np.array(v).reshape(shape))


def layouts(matrix, transposed: bool) -> np.ndarray:
    """The matrix as it is, or the same values as the transpose of a C array
    (the layout ``transpose`` gives)."""
    return np.ascontiguousarray(matrix.T).T if transposed else matrix


DUFFING = {
    "kind": "ph", "name": "duffing", "n": 2, "m": 1,
    "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.15]], "B": [[0.0], [1.0]],
    "H": {"terms": [
        {"coeff": 0.6, "powers": [2, 0]}, {"coeff": 0.08, "powers": [4, 0]},
        {"coeff": 0.5, "powers": [0, 2]},
    ]},
    "x0": [0.9, -0.4],
}


# ---------------------------------------------------------------------------
# single-node products


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4), transposed=st.booleans())
def test_matvec_of_one_node_and_of_a_stack_equals_at(data, rows, cols, transposed):
    matrix = layouts(data.draw(arrays((rows, cols))), transposed)
    vector = data.draw(arrays((cols,)))
    assert same_bits(matvec(matrix, vector), matrix @ vector)
    matrices = data.draw(arrays((3, rows, cols)))
    vectors = data.draw(arrays((3, cols)))
    assert same_bits(matvec(matrices, vectors), np.stack([m @ v for m, v in zip(matrices, vectors)]))
    assert same_bits(matvec(matrix, vectors), np.stack([matrix @ v for v in vectors]))


def test_zero_and_underflowing_products_keep_the_sign_at_gives():
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        for a, b in itertools.product([0.0, -0.0, 1e-200, -1e-200], repeat=2):
            matrix, vector = np.full((rows, cols), a), np.full(cols, b)
            for m in (matrix, layouts(matrix, True)):
                assert same_bits(matvec(m, vector), m @ vector), (rows, cols, a, b)
            assert same_bits(dot(vector, np.full(cols, a)), vector @ np.full(cols, a)), (cols, a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_dot_of_one_node_and_of_a_stack_equals_at(data, k):
    a, b = data.draw(arrays((k,))), data.draw(arrays((k,)))
    assert same_bits(dot(a, b), a @ b)
    a, b = data.draw(arrays((3, k))), data.draw(arrays((3, k)))
    assert same_bits(dot(a, b), [x @ y for x, y in zip(a, b)])


# ---------------------------------------------------------------------------
# folded and skipped port matrices


PH_SYSTEMS = {
    "mass_spring": mass_spring_system(1.5, 0.5, 0.2),
    "duffing": bundle_from_config(DUFFING).instance,
    # a callable J: nothing is folded, J(x) - R(x) is formed per call
    "callable J": PHSystem(
        2, 1, lambda x: np.array([[0.0, x[0]], [-x[0], 0.0]]), [[0.1, 0.0], [0.0, 0.2]],
        [[1.0], [0.5]], lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float),
    ),
}


@pytest.mark.parametrize("name", sorted(PH_SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4))
def test_folded_ph_formulas_equal_the_unfolded_ones(name, data, rows):
    sys_ = PH_SYSTEMS[name]
    for x, s in ((data.draw(arrays((2,))), data.draw(arrays((1,)))),
                 (data.draw(arrays((rows, 2))), data.draw(arrays((rows, 1))))):
        closed = matvec(sys_.interconnection(x) - sys_.dissipation(x), sys_.grad_hamiltonian(x))
        assert same_bits(sys_.closed_rhs(x), closed)
        assert same_bits(sys_.port_rhs(x, s), closed + matvec(sys_.port_map(x), s))


def full_mp_formulas(sys_, x, s):
    """port_rhs and zeta_rate with every product formed, as the sums read."""
    u, tau = s[..., : sys_.m], s[..., sys_.m :]
    gh, gs = sys_.grad_energy(x), sys_.grad_entropy(x)
    B, A = sys_.energy_port(x), sys_.entropy_port(x)
    closed = matvec(sys_.poisson(x), gh) + matvec(sys_.friction(x), gs)
    port = closed + matvec(B, u) + matvec(A, tau)
    zeta = (
        -matvec(np.swapaxes(B, -1, -2), gh)
        + matvec(np.swapaxes(A, -1, -2), gs)
        + matvec(sys_.port_poisson(x), u)
        + matvec(sys_.port_friction(x), tau)
    )
    return port, zeta


def two_ports(A, Jt, Gt):
    """A metriplectic system with n = m = 2 that keeps every law for the
    given A, Jt and Gt: J = 0, G = diag(0, 1), H = x0^2 / 2, S = x1^2 / 2."""
    return MetriplecticSystem(
        2, 2, np.zeros((2, 2)), [[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]], A, Jt, Gt,
        lambda x: 0.5 * x[0] ** 2, lambda x: 0.5 * x[1] ** 2,
        lambda x: np.array([x[0], 0.0]), lambda x: np.array([0.0, x[1]]),
    )


ZERO, SPIN = np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]]
MP_SYSTEMS = {
    "rigid_body": rigid_body_system((1.0, 2.0, 3.0), 0.1),  # A, Jt and Gt zero
    "all live": two_ports([[0.0, 0.0], [0.5, 0.0]], SPIN, [[1.0, 0.0], [0.0, 0.0]]),
    "zero A": two_ports(ZERO, SPIN, [[1.0, 0.0], [0.0, 0.0]]),
    "only Gt live": two_ports(ZERO, ZERO, [[1.0, 0.0], [0.0, 0.0]]),
    "all zero": two_ports(ZERO, ZERO, ZERO),
}


@pytest.mark.parametrize("name", sorted(MP_SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4))
def test_skipped_zero_port_matrices_leave_the_full_sums(name, data, rows):
    sys_ = MP_SYSTEMS[name]
    n, signals = sys_.n, 2 * sys_.m
    for x, s in ((data.draw(arrays((n,))), data.draw(arrays((signals,)))),
                 (data.draw(arrays((rows, n))), data.draw(arrays((rows, signals))))):
        port, zeta = full_mp_formulas(sys_, x, s)
        assert same_bits(sys_.port_rhs(x, s), port)
        assert same_bits(sys_.zeta_rate(x, s), zeta)


def test_a_zero_first_zeta_term_keeps_the_sign_of_the_full_sum():
    # B^T grad H is +0.0 on the x1 = 0 axis: alone and negated it is -0.0,
    # and the full sum adds the +0.0 products of the zero A, Jt and Gt
    sys_ = MP_SYSTEMS["rigid_body"]
    x, s = np.array([0.0, 0.7, -0.2]), np.array([-0.5, -0.25])
    _, zeta = full_mp_formulas(sys_, x, s)
    assert not np.signbit(zeta[0])
    assert same_bits(sys_.zeta_rate(x, s), zeta)


# ---------------------------------------------------------------------------
# the compiled polynomial gradient and the rigid body's friction


def term_loop_gradient(poly, x):
    """The polynomial gradient as a loop over the terms: the order of the
    compiled form, which must give these bits."""
    x = np.asarray(x, dtype=float)
    columns = x.T
    out = np.zeros(x.shape)
    out_columns = out.T
    for coeff, powers in poly.terms:
        for i, p in enumerate(powers):
            if not p:
                continue
            term = coeff * p
            for j, q in enumerate(powers):
                e = q - 1 if j == i else q
                if e:
                    term = term * (columns[j] if e == 1 else np.power(columns[j], e))
            out_columns[i] += term
    return out


def polynomials(n):
    term = st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False), st.lists(st.integers(0, 4), min_size=n, max_size=n)
    ).map(lambda t: (t[0], tuple(t[1])))
    return st.lists(term, max_size=5).map(lambda terms: Polynomial(n, tuple(terms)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), rows=st.integers(1, 4))
def test_compiled_polynomial_gradient_equals_the_term_loop(data, n, rows):
    poly = data.draw(polynomials(n))
    for x in (data.draw(arrays((n,))), data.draw(arrays((rows, n)))):
        assert same_bits(poly.gradient(x), term_loop_gradient(poly, x))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4))
def test_rigid_body_friction_is_built_from_the_energy_gradient(data, rows):
    sys_ = MP_SYSTEMS["rigid_body"]
    for x in (data.draw(arrays((3,))), data.draw(arrays((rows, 3)))):
        g = sys_.grad_energy(x)
        squared = dot(g, g)[..., np.newaxis, np.newaxis]
        expected = 0.1 * (squared * np.eye(3) - g[..., :, np.newaxis] * g[..., np.newaxis, :])
        assert same_bits(sys_.friction(x), expected)


# ---------------------------------------------------------------------------
# whole closed runs against a plain RK4 loop over the unfolded formulas


def plain_rk4(rhs, x0, length):
    x = np.array(x0, dtype=float)
    states = [x]
    for _ in range(round(length / H)):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * H * k1)
        k3 = rhs(x + 0.5 * H * k2)
        k4 = rhs(x + H * k3)
        x = x + (H / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def closed_runs():
    """Per name: the bundle of a closed run and its rhs, unfolded."""
    ms, rb, blowup, linear = map(resolve_builtin, ("mass_spring", "rigid_body", "blowup", "linear"))
    duffing = bundle_from_config(DUFFING)
    poly = duffing.instance.hamiltonian

    def ph(sys_, gradient):
        return lambda x: (sys_.interconnection(x) - sys_.dissipation(x)) @ gradient(x)

    def rigid_body(x):
        sys_ = rb.instance
        g = sys_.grad_energy(x)
        friction = 0.1 * (float(g @ g) * np.eye(3) - g[:, np.newaxis] * g[np.newaxis, :])
        return sys_.poisson(x) @ g + friction @ sys_.grad_entropy(x)

    return {
        "mass_spring": (ms, ph(ms.instance, ms.instance.grad_hamiltonian)),
        "rigid_body": (rb, rigid_body),
        "blowup": (blowup, lambda x: x * x),
        "linear": (linear, lambda x: np.array([[-1.0]]) @ x),
        "duffing": (duffing, ph(duffing.instance, lambda x: term_loop_gradient(poly, x))),
    }


CLOSED_RUNS = closed_runs()


@pytest.mark.parametrize("name", sorted(CLOSED_RUNS))
def test_a_closed_run_equals_the_plain_rk4_loop(name):
    bundle, rhs = CLOSED_RUNS[name]
    field = bundle.instance if bundle.kind == "ode" else closed_field(bundle.instance)
    length = 0.8 if name == "blowup" else 0.5  # the blowup run from x0 = 1 ends at t = 1
    run = integrate(field, bundle.initial_state, length, H)
    assert same_bits(run.values, plain_rk4(rhs, bundle.initial_state, length))
