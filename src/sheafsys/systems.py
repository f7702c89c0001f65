"""Built-in systems, polynomial energies, and configuration loading.

The registry powers the CLI and the test suite: a damped harmonic
oscillator with one force port, a scalar quadratic blow-up field, a linear
field, and a rigid-body style two-generator system whose dissipation acts
transverse to the energy gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .ode_behavior import VectorField, batched, dot, matvec
from .port_hamiltonian import PHSystem, ph_system
from .metriplectic import MetriplecticSystem, metriplectic_system


# where v and -v go in the flattened cross-product matrix
_HAT_PLUS, _HAT_MINUS = np.array([7, 2, 3]), np.array([5, 6, 1])


@batched
def hat(v) -> np.ndarray:
    """Cross-product matrix: hat(v) @ w = v x w, at one vector or a stack."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _HAT_PLUS] = v
    out[..., _HAT_MINUS] = -v
    return out.reshape(v.shape[:-1] + (3, 3))


# ---------------------------------------------------------------------------
# polynomial scalar fields (for JSON configs)


def _power(v, p: int):
    return v if p == 1 else np.power(v, p)


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial sum_k c_k * prod_i x_i^(p_ki) with analytic gradient.

    Value and gradient take one point (n,) or a stack (N, n); ``x.T[i]`` is
    then coordinate i as a number or as a column of the stack.  Powers go
    through the ``np.power`` ufunc for both, so a point gives bit for bit
    the value of its row in a stack (the ``**`` of a NumPy scalar rounds
    differently).
    """

    n: int
    terms: tuple  # of (coeff, powers-tuple)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        columns = x.T
        total = 0.0
        for coeff, powers in self.terms:
            term = coeff
            for i, p in enumerate(powers):
                if p:
                    term = term * _power(columns[i], p)
            total = total + term
        return float(total) if x.ndim == 1 else total + np.zeros(len(x))

    @batched
    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        columns = x.T
        out = np.zeros(x.shape)
        out_columns = out.T
        for coeff, powers in self.terms:
            for i, p in enumerate(powers):
                if not p:
                    continue
                term = coeff * p
                for j, q in enumerate(powers):
                    e = q - 1 if j == i else q
                    if e:
                        term = term * _power(columns[j], e)
                out_columns[i] += term
        return out

    batched = True  # after the methods, whose decorator this name would hide


def parse_polynomial(obj, n: int) -> Polynomial:
    """Read {"terms": [{"coeff": c, "powers": [..]}, ...]} into a Polynomial."""
    try:
        terms = []
        for term in obj["terms"]:
            powers = tuple(int(p) for p in term["powers"])
            if len(powers) != n or any(p < 0 for p in powers):
                raise ConfigError(
                    f"polynomial term powers {powers} invalid for dimension {n}"
                )
            terms.append((float(term["coeff"]), powers))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad polynomial specification: {exc}") from exc
    return Polynomial(n, tuple(terms))


# ---------------------------------------------------------------------------
# built-in instances


def mass_spring_system(k: float = 1.0, mass: float = 1.0, damping: float = 0.0) -> PHSystem:
    """Harmonic oscillator with one force port on the momentum."""

    @batched
    def H(x):
        return 0.5 * (k * x[..., 0] ** 2 + x[..., 1] ** 2 / mass)

    scale, divide = np.array([k, 1.0]), np.array([1.0, mass])

    @batched
    def gradH(x):  # (k q, p / m), each rounded once, as the formula is
        return x * scale / divide

    return ph_system(
        2,
        1,
        J=[[0.0, 1.0], [-1.0, 0.0]],
        R=[[0.0, 0.0], [0.0, float(damping)]],
        B=[[0.0], [1.0]],
        H=H,
        gradH=gradH,
        labels=("q", "p"),
    )


def rigid_body_system(
    inertia=(1.0, 2.0, 3.0), gamma: float = 0.1
) -> MetriplecticSystem:
    """Two-generator spinning-body system with transverse friction.

    The energy is the usual kinetic form, the entropy is half the squared
    angular momentum, the antisymmetric part is the cross-product matrix
    (so J grad S = x cross x = 0 identically, even in floats), and the
    friction G(x) = gamma * (|grad H|^2 I - grad H grad H^T) annihilates
    grad H while staying polynomial, hence continuous at the origin.  The
    energy port B(x) = hat(e3) x is tangent to the level sets of S, so
    B^T grad S vanishes identically as well.
    """
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape != (3,) or np.any(inertia <= 0):
        raise ConfigError("inertia must be three positive numbers")

    @batched
    def H(x):
        return 0.5 * (x[..., 0] ** 2 / inertia[0] + x[..., 1] ** 2 / inertia[1] + x[..., 2] ** 2 / inertia[2])

    @batched
    def gradH(x):
        return np.asarray(x, dtype=float) / inertia

    @batched
    def S(x):
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)

    @batched
    def gradS(x):
        return np.array(x, dtype=float)

    identity = np.eye(3)

    @batched
    def G(x):
        g = gradH(x)
        squared = dot(g, g)[..., np.newaxis, np.newaxis]
        return gamma * (squared * identity - g[..., :, np.newaxis] * g[..., np.newaxis, :])

    @batched
    def B(x):
        out = np.zeros(x.shape[:-1] + (3, 1))
        out[..., 0, 0] = -x[..., 1]
        out[..., 1, 0] = x[..., 0]
        return out

    return metriplectic_system(
        3,
        1,
        J=hat,
        G=G,
        B=B,
        A=np.zeros((3, 1)),
        Jt=np.zeros((1, 1)),
        Gt=np.zeros((1, 1)),
        H=H,
        S=S,
        gradH=gradH,
        gradS=gradS,
        labels=("x1", "x2", "x3"),
    )


def blowup_field() -> VectorField:
    """Scalar quadratic growth x' = x^2; solutions from x0 > 0 blow up at
    t = 1/x0."""
    return VectorField(1, batched(lambda t, x: x * x), "quadratic blow-up")


def linear_field(matrix=((-1.0,),)) -> VectorField:
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError("linear system matrix must be square")
    return VectorField(
        matrix.shape[0], batched(lambda t, x: matvec(matrix, x)), "constant-coefficient linear field"
    )


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class SystemBundle:
    """A resolved system ready for the drivers."""

    name: str
    kind: str  # "ode" | "ph" | "mp"
    description: str
    instance: object  # VectorField | PHSystem | MetriplecticSystem
    initial_state: np.ndarray
    default_length: float
    residual_tolerance: float
    parameters: dict


def _mass_spring_bundle(params: dict) -> SystemBundle:
    known = {"k": 1.0, "m": 1.0, "r": 0.0, "x0": [1.0, 0.0]}
    merged = _merge_params("mass_spring", known, params)
    sys_ = mass_spring_system(merged["k"], merged["m"], merged["r"])
    return SystemBundle(
        "mass_spring",
        "ph",
        "harmonic oscillator with one force port (k, m, r; port on momentum)",
        sys_,
        np.asarray(merged["x0"], dtype=float),
        10.0,
        1e-4,
        merged,
    )


def _rigid_body_bundle(params: dict) -> SystemBundle:
    known = {"I1": 1.0, "I2": 2.0, "I3": 3.0, "gamma": 0.1, "x0": [1.0, 0.5, 0.5]}
    merged = _merge_params("rigid_body", known, params)
    sys_ = rigid_body_system((merged["I1"], merged["I2"], merged["I3"]), merged["gamma"])
    return SystemBundle(
        "rigid_body",
        "mp",
        "spinning-body two-generator system with transverse friction (I1, I2, I3, gamma)",
        sys_,
        np.asarray(merged["x0"], dtype=float),
        10.0,
        1e-3,
        merged,
    )


def _blowup_bundle(params: dict) -> SystemBundle:
    merged = _merge_params("blowup", {"x0": [1.0]}, params)
    return SystemBundle(
        "blowup",
        "ode",
        "scalar quadratic growth; finite-time blow-up from positive starts",
        blowup_field(),
        np.asarray(merged["x0"], dtype=float),
        0.9,
        1e-3,
        merged,
    )


def _linear_bundle(params: dict) -> SystemBundle:
    merged = _merge_params("linear", {"matrix": [[-1.0]], "x0": [1.0]}, params)
    field = linear_field(merged["matrix"])
    return SystemBundle(
        "linear",
        "ode",
        "constant-coefficient linear field x' = M x",
        field,
        np.asarray(merged["x0"], dtype=float),
        5.0,
        1e-4,
        merged,
    )


BUILTIN_SYSTEMS = {
    "mass_spring": _mass_spring_bundle,
    "blowup": _blowup_bundle,
    "linear": _linear_bundle,
    "rigid_body": _rigid_body_bundle,
}


def _merge_params(name: str, known: dict, params: dict) -> dict:
    unknown = set(params) - set(known)
    if unknown:
        raise ConfigError(
            f"unknown parameters for {name}: {sorted(unknown)} "
            f"(accepted: {sorted(known)})"
        )
    merged = dict(known)
    merged.update(params)
    return merged


def resolve_builtin(name: str, params: Optional[dict] = None) -> SystemBundle:
    if name not in BUILTIN_SYSTEMS:
        raise ConfigError(
            f"unknown system {name!r}; built-ins: {', '.join(sorted(BUILTIN_SYSTEMS))}"
        )
    return BUILTIN_SYSTEMS[name](params or {})


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def bundle_from_config(doc: dict) -> SystemBundle:
    """Build a SystemBundle from a parsed configuration document.

    Either {"system": <builtin>, "params": {...}} or an explicit document
    with "kind" in {"ode", "ph", "mp"} and dense constant matrices plus
    polynomial energies as monomial lists.
    """
    if "system" in doc:
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        return resolve_builtin(str(doc["system"]), params)
    kind = doc.get("kind")
    if kind == "ph":
        return _ph_bundle_from_config(doc)
    if kind == "mp":
        return _mp_bundle_from_config(doc)
    if kind == "ode":
        merged = {"matrix": doc.get("matrix", [[-1.0]]), "x0": doc.get("x0", [1.0])}
        bundle = _linear_bundle(merged)
        return bundle
    raise ConfigError(
        "config needs either a 'system' built-in reference or kind in ode/ph/mp"
    )


def _matrix_from(doc: dict, key: str, rows: int, cols: int) -> np.ndarray:
    try:
        matrix = np.array(doc[key], dtype=float)
    except KeyError as exc:
        raise ConfigError(f"config missing matrix {key!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"matrix {key!r} malformed: {exc}") from exc
    if matrix.shape != (rows, cols):
        raise ConfigError(f"matrix {key!r} has shape {matrix.shape}, expected ({rows}, {cols})")
    return matrix


def _dims_from(doc: dict) -> tuple:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs integer dimensions n and m: {exc}") from exc
    if n < 1 or m < 0:
        raise ConfigError(f"dimensions n={n}, m={m} out of range")
    return n, m


def _initial_from(doc: dict, n: int) -> np.ndarray:
    x0 = np.asarray(doc.get("x0", np.zeros(n)), dtype=float)
    if x0.shape != (n,):
        raise ConfigError(f"x0 has shape {x0.shape}, expected ({n},)")
    return x0


def _ph_bundle_from_config(doc: dict) -> SystemBundle:
    n, m = _dims_from(doc)
    H = parse_polynomial(doc.get("H", {"terms": []}), n)
    sys_ = ph_system(
        n,
        m,
        J=_matrix_from(doc, "J", n, n),
        R=_matrix_from(doc, "R", n, n),
        B=_matrix_from(doc, "B", n, m),
        H=H,
        gradH=H.gradient,
        labels=tuple(doc["labels"]) if "labels" in doc else None,
    )
    return SystemBundle(
        str(doc.get("name", "custom_ph")),
        "ph",
        "user-configured port system",
        sys_,
        _initial_from(doc, n),
        float(doc.get("length", 10.0)),
        float(doc.get("residual_tolerance", 1e-4)),
        {},
    )


def _mp_bundle_from_config(doc: dict) -> SystemBundle:
    n, m = _dims_from(doc)
    H = parse_polynomial(doc.get("H", {"terms": []}), n)
    S = parse_polynomial(doc.get("S", {"terms": []}), n)
    sys_ = metriplectic_system(
        n,
        m,
        J=_matrix_from(doc, "J", n, n),
        G=_matrix_from(doc, "G", n, n),
        B=_matrix_from(doc, "B", n, m),
        A=_matrix_from(doc, "A", n, m),
        Jt=_matrix_from(doc, "Jt", m, m),
        Gt=_matrix_from(doc, "Gt", m, m),
        H=H,
        S=S,
        gradH=H.gradient,
        gradS=S.gradient,
        labels=tuple(doc["labels"]) if "labels" in doc else None,
    )
    return SystemBundle(
        str(doc.get("name", "custom_mp")),
        "mp",
        "user-configured two-generator system",
        sys_,
        _initial_from(doc, n),
        float(doc.get("length", 10.0)),
        float(doc.get("residual_tolerance", 1e-4)),
        {},
    )


def seeded_initial_states(seed: int, count: int, dimension: int) -> list:
    """Deterministic probe starts, uniform in [-2, 2] per channel."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-2.0, 2.0, size=dimension) for _ in range(count)]
