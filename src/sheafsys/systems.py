"""Built-in systems, polynomial energies, and configuration loading.

The built-ins are the rows of one table, ``BUILTIN_SYSTEMS``, read by
:func:`resolve_builtin` alone: a damped harmonic oscillator with one force
port, a scalar quadratic blow-up field, a linear field, and a rigid-body
style two-generator system whose dissipation acts transverse to the energy
gradient.  A configuration document names a row with its parameters, or is
explicit: a ``kind: "ode"`` document is the ``linear`` row, and a ph or mp
document is read by ``EXPLICIT_KINDS`` into the family class.  Every explicit
document may give its "name", "length" and "residual_tolerance".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .ode_behavior import VectorField, batched, matvec
from .port_hamiltonian import PHSystem
from .metriplectic import MetriplecticSystem


# the cross-product matrix, as positions in (v, -v, 0)
_HAT = np.array([[6, 5, 1], [2, 6, 3], [4, 0, 6]])


@batched
def hat(v) -> np.ndarray:
    """Cross-product matrix: hat(v) @ w = v x w, at one vector or a stack;
    a new C-contiguous array, as ``matvec`` sums a stack of those in one
    order."""
    v = np.asarray(v, dtype=float)
    signed = np.zeros(v.shape[:-1] + (7,))
    signed[..., :3] = v
    np.negative(v, out=signed[..., 3:6])
    return signed.take(_HAT, axis=-1)


# ---------------------------------------------------------------------------
# polynomial scalar fields (for JSON configs)


_ZERO = np.array(0.0)


def _sum(terms, columns, stack: bool):
    """A compiled table's sum: its terms in order, factors in column order."""
    # numbers as Python floats for a point, whose coordinates are numpy
    # scalars, and as 0-d arrays for a stack, which numpy takes without
    # a conversion per product: the same float64 arithmetic either way
    total = _ZERO if stack else 0.0  # from +0.0, in order, as += on a zero column
    for coeff, coeff_array, factors in terms:
        term = coeff_array if stack else coeff
        for j, e in factors:
            term = term * (columns[j] if e == 1 else np.power(columns[j], e))
        total = total + term
    return total


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

    def __post_init__(self):
        # the value's terms, c = coeff, and the gradient's per component i with
        # any, in the order of i: (i, ((c, c as a 0-d array, ((j, exponent),
        # ...)), ...)) with c = coeff * p_i, the terms in order
        def compiled(c, exponents):
            return c, np.array(c), tuple((j, e) for j, e in enumerate(exponents) if e)

        gradient_terms = {}
        for coeff, powers in self.terms:
            for i, p in enumerate(powers):
                if p:
                    exponents = list(powers)
                    exponents[i] -= 1
                    gradient_terms.setdefault(i, []).append(compiled(coeff * p, exponents))
        grouped = tuple((i, tuple(gradient_terms[i])) for i in sorted(gradient_terms))
        object.__setattr__(self, "_value_terms", tuple(compiled(*term) for term in self.terms))
        object.__setattr__(self, "_gradient_terms", grouped)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = _sum(self._value_terms, x.T, x.ndim > 1)
        return float(total) if x.ndim == 1 else total + np.zeros(len(x))

    @batched
    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        columns, stack = x.T, x.ndim > 1
        out = np.zeros(x.shape)
        out_columns = out.T
        for i, terms in self._gradient_terms:
            out_columns[i] = _sum(terms, columns, stack)
        return out

    batched = True  # after the methods, whose decorator this name would hide


def parse_polynomial(obj, n: int) -> Polynomial:
    """Read {"terms": [{"coeff": c, "powers": [..]}, ...]} into a Polynomial."""
    try:
        terms = []
        for term in obj["terms"]:
            powers = tuple(_integer(p, "a polynomial power") for p in term["powers"])
            if len(powers) != n or any(p < 0 for p in powers):
                raise ConfigError(
                    f"polynomial term powers {powers} invalid for dimension {n}"
                )
            terms.append((float(_finite(term["coeff"], "polynomial coefficient")), powers))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad polynomial specification: {exc}") from exc
    return Polynomial(n, tuple(terms))


# ---------------------------------------------------------------------------
# built-in instances


def mass_spring_system(k: float = 1.0, mass: float = 1.0, damping: float = 0.0) -> PHSystem:
    """Harmonic oscillator with one force port on the momentum."""
    if not mass > 0:
        raise ConfigError(f"mass m must be positive, got {mass!r}")

    @batched
    def H(x):
        return 0.5 * (k * x[..., 0] ** 2 + x[..., 1] ** 2 / mass)

    scale, divide = np.array([k, 1.0]), np.array([1.0, mass])

    @batched
    def gradH(x):  # (k q, p / m), each rounded once, as the formula is
        return x * scale / divide

    return PHSystem(
        2,
        1,
        interconnection=[[0.0, 1.0], [-1.0, 0.0]],
        dissipation=[[0.0, 0.0], [0.0, float(damping)]],
        port_map=[[0.0], [1.0]],
        hamiltonian=H,
        grad_hamiltonian=gradH,
        state_labels=("q", "p"),
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
        return x / inertia

    @batched
    def S(x):
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)

    @batched
    def gradS(x):  # x itself when it is a float array, in its layout, which no caller writes
        return np.asarray(x, dtype=float)

    identity, gamma = np.eye(3), np.array(float(gamma))  # 0-d: no conversion per product

    @batched
    def G(x):
        g = x / inertia  # grad H, as gradH forms it
        row, column = g[..., np.newaxis, :], g[..., :, np.newaxis]
        return gamma * ((row @ column) * identity - column * row)  # row @ column: g . g

    @batched
    def B(x):
        out = np.zeros(x.shape[:-1] + (3, 1))
        np.negative(x[..., 1], out=out[..., 0, 0])
        out[..., 1, 0] = x[..., 0]
        return out

    return MetriplecticSystem(
        3,
        1,
        poisson=hat,
        friction=G,
        energy_port=B,
        entropy_port=np.zeros((3, 1)),
        port_poisson=np.zeros((1, 1)),
        port_friction=np.zeros((1, 1)),
        energy=H,
        entropy=S,
        grad_energy=gradH,
        grad_entropy=gradS,
        state_labels=("x1", "x2", "x3"),
    )


def blowup_field() -> VectorField:
    """Scalar quadratic growth x' = x^2; solutions from x0 > 0 blow up at
    t = 1/x0."""
    return VectorField(1, batched(lambda t, x: x * x))


def linear_field(matrix=((-1.0,),)) -> VectorField:
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError("linear system matrix must be square")
    return VectorField(matrix.shape[0], batched(lambda t, x: matvec(matrix, x)))


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


#: the built-ins: name -> (kind, description, parameter defaults, build of the
#: instance from the merged parameters, default length, residual tolerance);
#: the "x0" parameter is the initial state and goes to no build; sequences
#: are tuples, so no bundle's parameters share a list with the table
BUILTIN_SYSTEMS = {
    "mass_spring": (
        "ph",
        "harmonic oscillator with one force port (k, m, r; port on momentum)",
        {"k": 1.0, "m": 1.0, "r": 0.0, "x0": (1.0, 0.0)},
        lambda p: mass_spring_system(p["k"], p["m"], p["r"]),
        10.0,
        1e-4,
    ),
    "blowup": (
        "ode",
        "scalar quadratic growth; finite-time blow-up from positive starts",
        {"x0": (1.0,)},
        lambda p: blowup_field(),
        0.9,
        1e-3,
    ),
    "linear": (
        "ode",
        "constant-coefficient linear field x' = M x",
        {"matrix": ((-1.0,),), "x0": (1.0,)},
        lambda p: linear_field(p["matrix"]),
        5.0,
        1e-4,
    ),
    "rigid_body": (
        "mp",
        "spinning-body two-generator system with transverse friction (I1, I2, I3, gamma)",
        {"I1": 1.0, "I2": 2.0, "I3": 3.0, "gamma": 0.1, "x0": (1.0, 0.5, 0.5)},
        lambda p: rigid_body_system((p["I1"], p["I2"], p["I3"]), p["gamma"]),
        10.0,
        1e-3,
    ),
}


def _merge_params(name: str, known: dict, params: dict) -> dict:
    unknown = set(params) - set(known)
    if unknown:
        raise ConfigError(
            f"unknown parameters for {name}: {sorted(unknown)} "
            f"(accepted: {sorted(known)})"
        )
    for key, value in params.items():
        rank = np.ndim(known[key])
        if np.ndim(_finite(value, f"parameter {key} of {name}")) != rank:
            raise ConfigError(f"parameter {key} of {name} must have rank {rank}: {value!r}")
    merged = dict(known)
    merged.update(params)
    return merged


def _finite(value, what: str):
    """``value`` unchanged; ConfigError unless it holds only finite numbers
    (a string or a boolean is none, though numpy would read one)."""
    try:
        finite = np.isfinite(np.asarray(value, dtype=float)).all()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} is not numeric: {exc}") from exc
    if any(isinstance(v, (str, bool)) for v in np.ravel(np.array(value, dtype=object))):
        raise ConfigError(f"{what} is not numeric: {value!r}")
    if not finite:
        raise ConfigError(f"{what} is not finite: {np.asarray(value, dtype=float).tolist()}")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int; ConfigError unless it is an integer (a boolean, a
    string or a float is none, even 2.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _state(value, n: int) -> np.ndarray:
    """The initial state ``value`` as an (n,) array; ConfigError unless it
    holds n finite numbers."""
    x0 = np.asarray(_finite(value, "x0"), dtype=float)
    if x0.shape != (n,):
        raise ConfigError(f"x0 has shape {x0.shape}, expected ({n},)")
    return x0


def _positive_number(value, what: str) -> float:
    """``value`` as a float; ConfigError unless it is one finite positive
    number."""
    if np.ndim(_finite(value, what)) or not value > 0:
        raise ConfigError(f"{what} must be one positive number, got {value!r}")
    return float(value)


def resolve_builtin(name: str, params: Optional[dict] = None) -> SystemBundle:
    """The bundle of the row ``name`` of BUILTIN_SYSTEMS, its parameter
    defaults overridden by ``params``."""
    if name not in BUILTIN_SYSTEMS:
        raise ConfigError(
            f"unknown system {name!r}; built-ins: {', '.join(sorted(BUILTIN_SYSTEMS))}"
        )
    kind, description, defaults, build, length, tolerance = BUILTIN_SYSTEMS[name]
    merged = _merge_params(name, defaults, params or {})
    instance = build(merged)
    n = instance.dimension if kind == "ode" else instance.n
    return SystemBundle(
        name, kind, description, instance, _state(merged["x0"], n), length, tolerance, merged
    )


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
    if isinstance(kind, str) and kind in EXPLICIT_KINDS:
        return _port_bundle_from_config(kind, doc)
    if kind == "ode":
        bundle = resolve_builtin("linear", {k: doc[k] for k in ("matrix", "x0") if k in doc})
        name, length, tolerance = _run_keys(
            doc, bundle.name, bundle.default_length, bundle.residual_tolerance
        )
        return replace(bundle, name=name, default_length=length, residual_tolerance=tolerance)
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
    _finite(doc[key], f"matrix {key!r}")
    return matrix


#: the explicit port documents: kind -> (family class, the bundle's default
#: name and description); the class's formula fields give the keys
EXPLICIT_KINDS = {
    "ph": (PHSystem, "custom_ph", "user-configured port system"),
    "mp": (MetriplecticSystem, "custom_mp", "user-configured two-generator system"),
}


def _port_bundle_from_config(kind: str, doc: dict) -> SystemBundle:
    """Read an explicit document of a kind in EXPLICIT_KINDS: dimensions,
    generators, matrices and labels, then the initial state and run defaults.
    Each formula of the family class is read from the key of its name: a
    scalar one is a polynomial generator (zero when absent), a matrix a
    dense matrix of its shape, and "grad X" the gradient of the generator X."""
    cls, name, description = EXPLICIT_KINDS[kind]
    n, m = (_integer(doc.get(key), f"dimension {key}") for key in ("n", "m"))
    if n < 1 or m < 0:
        raise ConfigError(f"dimensions n={n}, m={m} out of range")
    dims = {"n": n, "m": m}
    formulas = [(f.name, *f.metadata["formula"]) for f in fields(cls) if "formula" in f.metadata]
    generators = {
        key: parse_polynomial(doc.get(key, {"terms": []}), n) for _, key, shape in formulas if not shape
    }
    values = {}
    for attr, key, shape in formulas:
        if len(shape) == 2:
            values[attr] = _matrix_from(doc, key, dims[shape[0]], dims[shape[1]])
        elif shape:  # "grad X"
            values[attr] = generators[key.removeprefix("grad ")].gradient
        else:
            values[attr] = generators[key]
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(a, str) for a in labels)
    ):
        raise ConfigError(f"labels must be a list of strings, got {labels!r}")
    try:
        sys_ = cls(n=n, m=m, state_labels=labels, **values)
    except DimensionMismatch as exc:  # the labels: the shapes were checked above
        raise ConfigError(str(exc)) from exc
    name, length, tolerance = _run_keys(doc, name, 10.0, 1e-4)
    return SystemBundle(
        name, kind, description, sys_, _state(doc.get("x0", np.zeros(n)), n), length, tolerance, {}
    )


def _run_keys(doc: dict, name: str, length: float, tolerance: float) -> tuple:
    """The "name", "length" and "residual_tolerance" of an explicit
    document, each checked, or the given defaults where it has none."""
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    return (
        name,
        _positive_number(doc.get("length", length), "length"),
        _positive_number(doc.get("residual_tolerance", tolerance), "residual_tolerance"),
    )


# ---------------------------------------------------------------------------
# probe starts: numpy's default_rng stream, without importing numpy.random


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: the
    seed's 32-bit words, least significant first, hashed into a pool of
    four words, which is hashed again into eight words read as four
    little-endian 64-bit ones."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = mix(pool[target], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_doubles(seed: int):
    """The doubles in [0, 1) of numpy's ``PCG64(seed)``, as its
    ``next_double`` draws them: a 128-bit LCG seeded from the seed sequence
    (state words 0-1, increment words 2-3, high word first), each step's
    XSL-RR output shifted to 53 bits."""
    high, low, inc_high, inc_low = _seed_sequence_words(seed)
    increment = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    # from state 0: one step (state = increment), add the seed, one step
    state = ((increment + (high << 64 | low)) * _PCG64_MULTIPLIER + increment) & _MASK128
    while True:
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        rotation, word = state >> 122, (state >> 64 ^ state) & _MASK64
        word = (word >> rotation | word << (-rotation & 63)) & _MASK64
        yield (word >> 11) * 2.0**-53


def seeded_initial_states(seed: int, count: int, dimension: int) -> list:
    """Deterministic probe starts, uniform in [-2, 2] per channel: bit for
    bit the ``count`` draws of numpy's ``default_rng(seed).uniform(-2.0,
    2.0, size=dimension)``, computed without importing numpy.random.
    ConfigError for a negative seed, which a seed sequence cannot take."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    low, high = -2.0, 2.0
    doubles = _pcg64_doubles(seed)
    return [
        np.array([low + (high - low) * next(doubles) for _ in range(dimension)])
        for _ in range(count)
    ]
