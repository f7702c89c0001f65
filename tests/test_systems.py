import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheafsys import (
    BUILTIN_SYSTEMS,
    ConfigError,
    Polynomial,
    bundle_from_config,
    check_structure,
    load_config,
    parse_polynomial,
    resolve_builtin,
    seeded_initial_states,
)
from sheafsys.systems import blowup_field, hat, linear_field, rigid_body_system


def test_hat_matches_the_cross_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(v) @ w, np.cross(v, w))


def test_polynomial_value_and_gradient():
    # H = 0.5 q^2 + 1.5 q p^2
    poly = Polynomial(2, ((0.5, (2, 0)), (1.5, (1, 2))))
    x = np.array([2.0, 3.0])
    assert poly(x) == pytest.approx(0.5 * 4 + 1.5 * 2 * 9)
    grad = poly.gradient(x)
    assert grad[0] == pytest.approx(2.0 + 1.5 * 9)
    assert grad[1] == pytest.approx(1.5 * 2 * 2 * 3)
    # spot-check against central differences
    eps = 1e-6
    for i in range(2):
        bump = np.zeros(2)
        bump[i] = eps
        fd = (poly(x + bump) - poly(x - bump)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-6)


def test_parse_polynomial_round_trip_and_errors():
    doc = {"terms": [{"coeff": 0.5, "powers": [2, 0]}, {"coeff": 1.0, "powers": [0, 2]}]}
    poly = parse_polynomial(doc, 2)
    assert poly(np.array([1.0, 2.0])) == pytest.approx(4.5)
    with pytest.raises(ConfigError):
        parse_polynomial({"terms": [{"coeff": 1.0, "powers": [1]}]}, 2)
    with pytest.raises(ConfigError):
        parse_polynomial({"terms": [{"coeff": 1.0, "powers": [-1, 0]}]}, 2)
    with pytest.raises(ConfigError):
        parse_polynomial({"nope": []}, 2)


def test_builtin_systems_pass_their_structure_checks():
    assert set(BUILTIN_SYSTEMS) == {"blowup", "linear", "mass_spring", "rigid_body"}
    check_structure(resolve_builtin("mass_spring").instance)
    check_structure(resolve_builtin("rigid_body").instance)
    assert blowup_field()(0.0, np.array([2.0]))[0] == 4.0
    assert linear_field()(0.0, np.array([3.0]))[0] == -3.0


def test_resolve_builtin_handles_params_and_unknowns():
    bundle = resolve_builtin("mass_spring", {"k": 4.0})
    assert bundle.parameters["k"] == 4.0
    q = np.array([1.0, 0.0])
    assert bundle.instance.hamiltonian(q) == pytest.approx(2.0)
    with pytest.raises(ConfigError) as info:
        resolve_builtin("pendulum")
    assert "mass_spring" in str(info.value)
    with pytest.raises(ConfigError):
        resolve_builtin("mass_spring", {"stiffness": 1.0})


def test_bundle_from_config_builtin_reference():
    bundle = bundle_from_config({"system": "rigid_body", "params": {"gamma": 0.2}})
    assert bundle.kind == "mp"
    assert bundle.parameters["gamma"] == 0.2
    with pytest.raises(ConfigError):
        bundle_from_config({"system": "mass_spring", "params": 7})
    with pytest.raises(ConfigError):
        bundle_from_config({"kind": "spectral"})


def test_bundle_from_config_explicit_port_system():
    doc = {
        "kind": "ph",
        "n": 2,
        "m": 1,
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[0.0], [1.0]],
        "H": {"terms": [
            {"coeff": 0.5, "powers": [2, 0]},
            {"coeff": 0.5, "powers": [0, 2]},
        ]},
        "labels": ["q", "p"],
        "x0": [1.0, 0.0],
        "length": 4.0,
    }
    bundle = bundle_from_config(doc)
    assert bundle.kind == "ph" and bundle.default_length == 4.0
    check_structure(bundle.instance)
    assert bundle.instance.hamiltonian(np.array([1.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        bundle_from_config({**doc, "B": [[0.0, 1.0]]})
    with pytest.raises(ConfigError):
        bundle_from_config({**doc, "x0": [1.0]})
    doc_no_dims = {k: v for k, v in doc.items() if k != "n"}
    with pytest.raises(ConfigError):
        bundle_from_config(doc_no_dims)


def test_bundle_from_config_explicit_two_generator_system():
    doc = {
        "kind": "mp",
        "n": 2,
        "m": 1,
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "G": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[0.0], [0.0]],
        "A": [[0.0], [0.0]],
        "Jt": [[0.0]],
        "Gt": [[0.0]],
        "H": {"terms": [
            {"coeff": 0.5, "powers": [2, 0]},
            {"coeff": 0.5, "powers": [0, 2]},
        ]},
        "S": {"terms": []},
        "x0": [1.0, 0.0],
    }
    bundle = bundle_from_config(doc)
    assert bundle.kind == "mp"
    check_structure(bundle.instance)


NAN, INF = float("nan"), float("inf")
PH_DOC = {
    "kind": "ph", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]],
    "R": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
    "H": {"terms": [{"coeff": 0.5, "powers": [2, 0]}]},
}


@pytest.mark.parametrize("doc", [
    pytest.param({"system": "mass_spring", "params": {"x0": [NAN, 0.0]}}, id="builtin-x0"),
    pytest.param({"system": "mass_spring", "params": {"k": INF}}, id="builtin-k"),
    pytest.param({"system": "rigid_body", "params": {"gamma": NAN}}, id="builtin-gamma"),
    pytest.param({"system": "linear", "params": {"matrix": [[-INF]]}}, id="builtin-matrix"),
    pytest.param({"kind": "ode", "x0": [NAN]}, id="ode-x0"),
    pytest.param({**PH_DOC, "x0": [0.0, INF]}, id="ph-x0"),
    pytest.param({**PH_DOC, "R": [[0.0, 0.0], [0.0, NAN]]}, id="ph-matrix"),
    pytest.param({**PH_DOC, "H": {"terms": [{"coeff": NAN, "powers": [2, 0]}]}}, id="ph-coeff"),
    pytest.param({**PH_DOC, "length": INF}, id="ph-length"),
    pytest.param({**PH_DOC, "residual_tolerance": NAN}, id="ph-residual_tolerance"),
])
def test_a_non_finite_config_value_is_a_config_error(doc):
    with pytest.raises(ConfigError, match="not finite|non-finite"):
        bundle_from_config(doc)


@pytest.mark.parametrize("doc", [
    pytest.param({"system": "mass_spring", "params": {"k": "2"}}, id="builtin-string"),
    pytest.param({"system": "mass_spring", "params": {"k": True}}, id="builtin-bool"),
    pytest.param({"system": "mass_spring", "params": {"x0": [1.0, "0"]}}, id="builtin-x0-string"),
    pytest.param({"system": "rigid_body", "params": {"x0": [True, 0.5, 0.5]}}, id="builtin-x0-bool"),
    pytest.param({"kind": "ode", "matrix": [["-1"]]}, id="ode-matrix-string"),
    pytest.param({**PH_DOC, "x0": ["1", 0.0]}, id="ph-x0-string"),
    pytest.param({**PH_DOC, "B": [[0.0], ["1"]]}, id="ph-matrix-string"),
    pytest.param({**PH_DOC, "R": [[0.0, 0.0], [0.0, False]]}, id="ph-matrix-bool"),
    pytest.param({**PH_DOC, "H": {"terms": [{"coeff": "0.5", "powers": [2, 0]}]}}, id="ph-coeff-string"),
    pytest.param({**PH_DOC, "length": True}, id="ph-length-bool"),
])
def test_a_string_or_boolean_config_number_is_a_config_error(doc):
    with pytest.raises(ConfigError, match="is not numeric"):
        bundle_from_config(doc)


@pytest.mark.parametrize("params", [
    {"k": [1.0, 2.0]}, {"r": [[0.1]]}, {"x0": 1.0},
], ids=["k-vector", "r-matrix", "x0-scalar"])
def test_a_builtin_parameter_of_the_wrong_rank_is_a_config_error(params):
    with pytest.raises(ConfigError, match="must have rank"):
        bundle_from_config({"system": "mass_spring", "params": params})


@pytest.mark.parametrize("inertia", [(1.0, 0.0, 3.0), (1.0, -2.0, 3.0), (1.0, 2.0)])
def test_an_inertia_that_is_not_three_positive_numbers_is_a_config_error(inertia):
    with pytest.raises(ConfigError, match="inertia must be three positive numbers"):
        rigid_body_system(inertia)
    if len(inertia) == 3:
        params = dict(zip(("I1", "I2", "I3"), inertia))
        with pytest.raises(ConfigError, match="inertia must be three positive numbers"):
            bundle_from_config({"system": "rigid_body", "params": params})


@pytest.mark.parametrize("matrix", [[[1.0, 2.0]], [[1.0], [2.0]], [[[1.0]]]])
def test_a_linear_field_matrix_that_is_not_square_is_a_config_error(matrix):
    with pytest.raises(ConfigError, match="must be square"):
        linear_field(matrix)


def test_an_ode_document_with_a_non_square_matrix_is_a_config_error():
    with pytest.raises(ConfigError, match="must be square"):
        bundle_from_config({"kind": "ode", "matrix": [[1.0, 2.0]], "x0": [1.0]})


@pytest.mark.parametrize("kind", ["ph", "mp"])
@pytest.mark.parametrize("dims", [{"n": 0}, {"n": -1}, {"m": -1}])
def test_explicit_dimensions_out_of_range_are_a_config_error(kind, dims):
    doc = {"kind": kind, "n": 2, "m": 1, **dims}
    with pytest.raises(ConfigError, match=r"dimensions n=-?\d+, m=-?\d+ out of range"):
        bundle_from_config(doc)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(listy)


def test_seeded_initial_states_are_deterministic_and_bounded():
    a = seeded_initial_states(9, 5, 3)
    b = seeded_initial_states(9, 5, 3)
    assert all(np.all(x == y) for x, y in zip(a, b))
    assert all(np.all(np.abs(x) <= 2.0) for x in a)
    c = seeded_initial_states(10, 5, 3)
    assert not np.allclose(a[0], c[0])


@settings(max_examples=150, deadline=None)
@example(seed=0, count=12, dimension=6)
@example(seed=2**32 - 1, count=12, dimension=6)
@example(seed=2**32, count=12, dimension=6)
@example(seed=2**64 - 1, count=12, dimension=6)
@example(seed=2**64, count=12, dimension=6)
@example(seed=2**128, count=12, dimension=6)  # a fifth word, mixed into the pool
@given(
    seed=st.integers(0, 2**130 - 1),
    count=st.integers(0, 12),
    dimension=st.integers(1, 6),
)
def test_seeded_initial_states_are_numpys_default_rng_stream(seed, count, dimension):
    # numpy's generator is the reference: each start is its draw, bit for bit
    rng = np.random.default_rng(seed)
    expected = [rng.uniform(-2.0, 2.0, size=dimension) for _ in range(count)]
    starts = seeded_initial_states(seed, count, dimension)
    assert len(starts) == count
    for start, draw in zip(starts, expected):
        assert start.dtype == draw.dtype and start.shape == draw.shape
        assert start.tobytes() == draw.tobytes()


def test_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        seeded_initial_states(-1, 5, 3)
