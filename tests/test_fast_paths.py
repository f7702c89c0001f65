"""The cheaper forms of the per-stage formulas give the bits of the plain
formulas: single-node products, folded constant matrices, skipped zero port
matrices, the compiled polynomial gradient, the rigid body's formulas, whole
closed runs, the audits' two-row batches, driven runs whose constant port
map is taken once per run, and runs that call the rhs without a check once
its first output needs no converting.  Bits include the sign of a zero."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import DimensionMismatch, MetriplecticSystem, PHSystem, Polynomial, VectorField, integrate
from sheafsys.cli import RunConfig, _port_runs
from sheafsys.ode_behavior import batched, dot, integrate_batch, matvec
from sheafsys.port_diagram import closed_field, port_field, port_machine
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


def layouts(matrices, transposed: bool) -> np.ndarray:
    """The matrix or stack as it is, or the same values as the transpose of
    a C array at every node (the layout ``transpose`` gives)."""
    if not transposed:
        return matrices
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(matrices, -1, -2)), -1, -2)


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
    matrices = layouts(data.draw(arrays((3, rows, cols))), transposed)
    vectors = data.draw(arrays((3, cols)))
    assert same_bits(matvec(matrices, vectors), np.stack([m @ v for m, v in zip(matrices, vectors)]))
    assert same_bits(matvec(matrix, vectors), np.stack([matrix @ v for v in vectors]))


def test_zero_and_underflowing_products_keep_the_sign_at_gives():
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        for a, b in itertools.product([0.0, -0.0, 1e-200, -1e-200], repeat=2):
            matrix, vector = np.full((rows, cols), a), np.full(cols, b)
            for m in (matrix, layouts(matrix, True)):
                product = m @ vector
                assert same_bits(matvec(m, vector), product), (rows, cols, a, b)
                stack = layouts(np.full((2, rows, cols), a), m is not matrix)
                assert same_bits(matvec(stack, np.stack([vector] * 2)), np.stack([product] * 2))
            inner = vector @ np.full(cols, a)
            assert same_bits(dot(vector, np.full(cols, a)), inner), (cols, a, b)
            assert same_bits(dot(np.stack([vector] * 2), np.full((2, cols), a)), np.stack([inner] * 2))


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
    # a stack gives each row's bits as the point alone does
    poly = data.draw(polynomials(n))
    x, stack = data.draw(arrays((n,))), data.draw(arrays((rows, n)))
    assert same_bits(poly.gradient(x), term_loop_gradient(poly, x))
    assert same_bits(poly.gradient(stack), term_loop_gradient(poly, stack))
    assert same_bits(poly.gradient(stack), np.stack([term_loop_gradient(poly, row) for row in stack]))


def plain_rigid_body(x):
    """hat(x), G(x), B(x) and grad S(x) of the default rigid body at one
    node, entry by entry as the formulas read."""
    x0, x1, x2 = x
    g = x / np.array([1.0, 2.0, 3.0])
    hat = np.array([[0.0, -x2, x1], [x2, 0.0, -x0], [-x1, x0, 0.0]])
    friction = 0.1 * (float(g @ g) * np.eye(3) - np.outer(g, g))
    return hat, friction, np.array([[-x1], [x0], [0.0]]), np.array([x0, x1, x2])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4))
def test_rigid_body_formulas_equal_the_plain_ones(data, rows):
    sys_ = MP_SYSTEMS["rigid_body"]
    x, stack = data.draw(arrays((3,))), data.draw(arrays((rows, 3)))
    per_row = [plain_rigid_body(row) for row in stack]
    for i, formula in enumerate((sys_.poisson, sys_.friction, sys_.energy_port, sys_.grad_entropy)):
        assert same_bits(formula(x), plain_rigid_body(x)[i])
        assert same_bits(formula(stack), np.stack([plain[i] for plain in per_row]))
    # matvec sums a stack in one order only when it is C-contiguous
    assert sys_.poisson(x).flags.c_contiguous and sys_.poisson(stack).flags.c_contiguous


def test_rigid_body_grad_entropy_copies_only_a_stack_that_is_not_c_contiguous():
    sys_ = MP_SYSTEMS["rigid_body"]
    stack = np.random.default_rng(3).standard_normal((7, 3))
    grad = sys_.grad_entropy(stack)
    assert same_bits(grad, np.array(stack, dtype=float))  # the bits of the copy it made before
    assert np.shares_memory(grad, stack)
    # the state columns of a driven member, as the extended field slices its stage states
    bundle = resolve_builtin("rigid_body")
    port = port_machine(bundle.instance, H, bundle.residual_tolerance).behavior
    member = port.sampler([1.0, -0.5, 0.25], lambda t: np.array([np.sin(t)]), lambda t: np.zeros(1), 0.05)
    assert member.dimension == 5
    columns = member.values[:, :3]
    grad = sys_.grad_entropy(columns)
    assert same_bits(grad, columns) and grad.flags.c_contiguous
    assert not np.shares_memory(grad, member.values)


def test_rigid_body_formulas_read_grad_entropy_without_writing_into_it():
    # grad S of a read-only stack is that stack, so a formula that wrote
    # into its grad S would raise here
    sys_ = MP_SYSTEMS["rigid_body"]
    frozen = np.random.default_rng(4).standard_normal((6, 3))
    frozen.setflags(write=False)
    assert sys_.grad_entropy(frozen) is frozen
    s = np.ones((6, 2))
    for formula in (sys_.closed_rhs, sys_.structure_residuals):
        formula(frozen)
    for formula in (sys_.port_rhs, sys_.zeta_rate):
        formula(frozen, s)


# ---------------------------------------------------------------------------
# whole closed runs, and the audits' two-row batch of a driven and a closed
# port run, against plain RK4 loops over the unfolded formulas


def plain_rk4(rhs, x0, length, inputs=None):
    """Classical RK4 of x' = rhs(x), or of x' = rhs(x, u) with u the rows
    3 i, 3 i + 1 and 3 i + 2 of ``inputs`` at the stages of step i."""
    x = np.array(x0, dtype=float)
    states = [x]
    for i in range(round(length / H)):
        u1, u2, u4 = (() if inputs is None else (inputs[3 * i + j],) for j in range(3))
        k1 = rhs(x, *u1)
        k2 = rhs(x + 0.5 * H * k1, *u2)
        k3 = rhs(x + 0.5 * H * k2, *u2)
        k4 = rhs(x + H * k3, *u4)
        x = x + (H / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def plain_runs():
    """Per name: the bundle, its closed rhs(x) and, for a port system, its
    port rhs(x, s), unfolded."""
    ms, rb, blowup, linear = map(resolve_builtin, ("mass_spring", "rigid_body", "blowup", "linear"))
    duffing = bundle_from_config(DUFFING)
    poly = duffing.instance.hamiltonian

    def ph(sys_, gradient):
        def closed(x):
            return (sys_.interconnection(x) - sys_.dissipation(x)) @ gradient(x)

        return closed, lambda x, s: closed(x) + sys_.port_map(x) @ s

    def rigid_body(x):
        hat, friction, _, grad_s = plain_rigid_body(x)
        return hat @ (x / np.array([1.0, 2.0, 3.0])) + friction @ grad_s

    def rigid_body_port(x, s):  # the whole sum, the zero A's product too
        return rigid_body(x) + plain_rigid_body(x)[2] @ s[:1] + np.zeros((3, 1)) @ s[1:]

    return {
        "mass_spring": (ms, *ph(ms.instance, ms.instance.grad_hamiltonian)),
        "rigid_body": (rb, rigid_body, rigid_body_port),
        "blowup": (blowup, lambda x: x * x, None),
        "linear": (linear, lambda x: np.array([[-1.0]]) @ x, None),
        "duffing": (duffing, *ph(duffing.instance, lambda x: term_loop_gradient(poly, x))),
    }


PLAIN_RUNS = plain_runs()


@pytest.mark.parametrize("name", sorted(PLAIN_RUNS))
def test_a_closed_run_equals_the_plain_rk4_loop(name):
    bundle, rhs, _ = PLAIN_RUNS[name]
    field = bundle.instance if bundle.kind == "ode" else closed_field(bundle.instance)
    length = 0.8 if name == "blowup" else 0.5  # the blowup run from x0 = 1 ends at t = 1
    run = integrate(field, bundle.initial_state, length, H)
    assert same_bits(run.values, plain_rk4(rhs, bundle.initial_state, length))


@pytest.mark.parametrize("name", ["duffing", "mass_spring", "rigid_body"])
def test_the_audit_batch_equals_two_plain_rk4_loops(name):
    # the driven row carries u = a sin(t) on its inputs and its signals at the
    # nodes; the closed row is the port field with zero signals, state only
    bundle, _, port = PLAIN_RUNS[name]
    system, length = bundle.instance, 0.5
    driven, closed = _port_runs(bundle, RunConfig("audit", name, length, H, 1e-5, 0, ""))
    steps = round(length / H)
    starts = np.arange(steps) * H
    times = np.append(np.column_stack([starts, starts + 0.5 * H, starts + H]), steps * H)
    signals = np.zeros((len(times), len(system.signal_labels)))
    signals[:, : system.m] = (1.0 if bundle.kind == "ph" else 0.2) * np.sin(times)[:, np.newaxis]
    states = plain_rk4(port, bundle.initial_state, length, signals)
    assert same_bits(driven.values, np.concatenate([states, signals[::3]], axis=1))
    assert same_bits(closed.values, plain_rk4(port, bundle.initial_state, length, np.zeros_like(signals)))


# ---------------------------------------------------------------------------
# driven runs of the port field: a constant port map times the whole input
# stack once per run, against an RK4 loop calling port_rhs at every stage


DRIVEN = {
    # m = 1: one node's product in port_rhs is np.matvec
    "mass_spring": mass_spring_system(1.5, 0.5, 0.2),
    "ph, m = 1": PHSystem(
        2, 1, SPIN, [[0.1, 0.0], [0.0, 0.2]], [[0.5], [-0.25]],
        lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float),
    ),
    # m = 2: one node's product in port_rhs is ndarray.dot
    "ph, m = 2": PHSystem(
        2, 2, SPIN, [[0.1, 0.0], [0.0, 0.2]], [[1.0, 0.0], [0.5, 1.0]],
        lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float),
    ),
    # MP systems keep the field's products at every stage: constant B and a
    # live constant A, and rigid_body's B(x), which depends on the state
    "mp, live A": MP_SYSTEMS["all live"],
    "rigid_body": MP_SYSTEMS["rigid_body"],
}


def driving_signals(shape, seed):
    """Signals over three spells of the stage times: -0.0 throughout, so a
    run from a zero state stays at zeros; then zeros of both signs and
    subnormals whose products with the port maps underflow to zeros of
    either sign; then these and ordinary values."""
    rng = np.random.default_rng(seed)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324])
    third = shape[0] // 3
    return np.concatenate([
        np.full((third,) + shape[1:], -0.0),
        rng.choice(tiny, size=(third,) + shape[1:]),
        rng.choice(np.append(tiny, [1e-200, -0.7, 1.3]), size=(shape[0] - 2 * third,) + shape[1:]),
    ])


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("name", sorted(DRIVEN))
def test_a_driven_port_field_run_equals_rk4_calling_port_rhs_at_every_stage(name, per_row, rows):
    system = DRIVEN[name]
    field = port_field(system)
    assert (field.affine is None) == isinstance(system, MetriplecticSystem)
    length, k = 0.05, len(system.signal_labels)
    times = 3 * round(length / H) + 1
    signals = driving_signals((times, rows, k) if per_row else (times, k), rows)
    x0s = [[-0.0] * system.n, [0.4, -0.3, 0.2][: system.n]][:rows]
    runs = integrate_batch(field, x0s, length, H, inputs=batched(lambda t: signals))
    for row, (x0, run) in enumerate(zip(x0s, runs)):
        u = signals[:, row] if per_row else signals
        states = plain_rk4(system.port_rhs, x0, length, u)
        assert same_bits(run.values, np.concatenate([states, u[::3]], axis=1))


# ---------------------------------------------------------------------------
# the field's output checked once per stack of states, at its first stage:
# an output that needs converting is converted at every stage, and a wrong
# shape fails at once, also after rows leave the stack


LOOSE_OUTPUTS = {
    "float32": lambda v: v.astype(np.float32),
    "list": lambda v: v.tolist(),
    "int": lambda v: np.floor(4.0 * v).astype(int),
}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("kind", sorted(LOOSE_OUTPUTS))
def test_an_output_that_needs_converting_is_converted_at_every_stage(kind, rows):
    loose = LOOSE_OUTPUTS[kind]
    rhs = lambda x: loose(np.sin(x) - 0.5 * x)
    x0s = [[0.3, -1.2], [2.0, 0.7], [-0.4, 0.0]][:rows]
    runs = integrate_batch(VectorField(2, batched(lambda t, x: rhs(x))), x0s, 0.05, H)
    for x0, run in zip(x0s, runs):
        assert same_bits(run.values, plain_rk4(lambda x: np.asarray(rhs(x), dtype=float), x0, 0.05))


@pytest.mark.parametrize("rows", [1, 3])
def test_a_first_output_of_the_wrong_shape_fails_before_a_second_stage(rows):
    calls = []

    @batched
    def wide(t, x):
        calls.append(t)
        return np.zeros(x.shape[:-1] + (3,))

    with pytest.raises(DimensionMismatch, match="rhs returned shape"):
        integrate_batch(VectorField(2, wide), np.ones((rows, 2)), 0.05, H)
    assert len(calls) == 1


def test_an_rhs_that_keeps_the_old_row_count_after_a_blow_up_fails():
    # x' = x^2: the row from 4.0 blows up near t = 0.25 and leaves the stack;
    # the rhs pads its value back to the two rows of the start
    rows = []

    @batched
    def stale(t, x):
        rows.append(len(x))
        return np.concatenate([x * x, np.zeros((2 - len(x), 1))])

    with pytest.raises(DimensionMismatch, match=r"rhs returned shape \(2, 1\), expected \(1, 1\)"):
        integrate_batch(VectorField(1, stale), [[0.5], [4.0]], 1.0, H)
    assert rows.count(1) == 1 and rows[-1] == 1


@pytest.mark.parametrize("rows", [1, 3])
def test_a_closed_run_evaluates_its_rhs_four_times_a_step(rows):
    calls = []

    @batched
    def decay(t, x):
        calls.append(t)
        return -x

    integrate_batch(VectorField(2, decay), np.ones((rows, 2)), 0.05, H)
    assert len(calls) == 4 * 50
