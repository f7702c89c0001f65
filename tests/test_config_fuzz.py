"""Explicit ``ode``, ``ph`` and ``mp`` documents with one field mutated.

A mutation puts NaN or an infinity in place of a number, changes a value's
shape, changes its type (a boolean, a string, a non-integer number, null, an
object or an array), or deletes a key.  Every mutated document must give a
verdict (exit 0 or 1, matching the report's ``pass``) or a configuration
error (exit 2), never a traceback; a non-finite number is always a
configuration error, so it never passes.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheafsys.cli import main

NAN, INF = float("nan"), float("inf")

DOCS = {
    "ode": {
        "kind": "ode", "name": "decay", "matrix": [[-1.0, 0.5], [0.0, -2.0]], "x0": [1.0, 0.5],
        "length": 1.0, "residual_tolerance": 1e-3,
    },
    "ph": {
        "kind": "ph", "name": "damped", "n": 2, "m": 1,
        "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.1]], "B": [[0.0], [1.0]],
        "H": {"terms": [{"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]}]},
        "labels": ["q", "p"], "x0": [1.0, 0.0], "length": 1.0, "residual_tolerance": 1e-3,
    },
    "mp": {
        "kind": "mp", "name": "spinner", "n": 2, "m": 1,
        "J": [[0.0, 1.0], [-1.0, 0.0]], "G": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[0.0], [1.0]], "A": [[0.0], [0.0]], "Jt": [[0.0]], "Gt": [[0.0]],
        "H": {"terms": [{"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]}]},
        "S": {"terms": [{"coeff": 1.0, "powers": [0, 0]}]},
        "labels": ["a", "b"], "x0": [0.5, 0.5], "length": 1.0, "residual_tolerance": 1e-3,
    },
}
COMMANDS = ("simulate", "audit", "check-sheaf", "verify-diagram")
WRONG_TYPES = (True, False, "2", 2.7, None, {}, [])


def _paths(value, path=()):
    """(path, value) of every node below the root, depth first."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _mutated(doc: dict, path: tuple, mutate=None) -> dict:
    """A copy of ``doc`` with the node at ``path`` replaced by
    ``mutate(node)``, or deleted when ``mutate`` is None."""
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if mutate is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutate(parent[path[-1]])
    return out


def _reshape(value, how: int):
    if isinstance(value, list) and value and how == 0:
        return value[:-1]
    if isinstance(value, list) and value and how == 1:
        return value + value[-1:]
    return [value]


@st.composite
def mutated_documents(draw):
    """(document, mutation kind) pairs, one field of a valid document changed."""
    doc = DOCS[draw(st.sampled_from(sorted(DOCS)))]
    kind = draw(st.sampled_from(("non-finite", "shape", "type", "missing")))
    nodes = list(_paths(doc))
    if kind == "non-finite":
        numbers = [p for p, v in nodes if isinstance(v, (int, float)) and not isinstance(v, bool)]
        path = draw(st.sampled_from(numbers))
        value = draw(st.sampled_from((NAN, INF, -INF)))
        return _mutated(doc, path, lambda _: value), kind
    if kind == "missing":
        keys = [p for p, _ in nodes if isinstance(p[-1], str)]
        return _mutated(doc, draw(st.sampled_from(keys))), kind
    path = draw(st.sampled_from([p for p, _ in nodes]))
    if kind == "shape":
        how = draw(st.integers(0, 2))
        return _mutated(doc, path, lambda v: _reshape(v, how)), kind
    value = draw(st.sampled_from(WRONG_TYPES))
    return _mutated(doc, path, lambda _: copy.deepcopy(value)), kind


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_a_mutated_config_gives_a_verdict_or_a_config_error(tmp_path_factory, capsys, case, command):
    doc, kind = case
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "system.json"
    # NaN and the infinities are written as the bare tokens Python's json reads
    path.write_text(json.dumps(doc))
    out = folder / "out"
    capsys.readouterr()
    code = main([command, "--config", str(path), "--length", "0.02", "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (doc, code)
    if code == 2:
        assert "configuration error" in err, (doc, err)
        return
    assert kind != "non-finite", (doc, code, err)
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is (code == 0), (doc, report)
        assert all(math.isfinite(v) for v in report["residuals"].values()) or not report["pass"]
    else:
        assert code == 1 and "check failed" in err, (doc, err)
