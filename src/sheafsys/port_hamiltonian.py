"""Port-Hamiltonian structure as a commuting diagram of machines.

A dissipative Hamiltonian system x' = (J - R) grad H closes up; opening a
port B turns it into the input-state-output system

    x' = (J - R) grad H + B u,        y = B^T grad H.

The same open system embeds into a closed one on the extended space
(x, zeta): an auxiliary energy H_aux(t, zeta) supplies the drive through
the extended antisymmetric block [[J, B], [-B^T, 0]], and the port variable
zeta integrates -B^T grad H.  :class:`PHSystem` supplies these node formulas
to :mod:`sheafsys.port_diagram`, which builds the three machines (closed,
port, extended) and the three behavior maps between them and hands the
triangle to the diagram verifier.  This module adds the structure check,
the auxiliary energies and the energy audits.

Leg maps are computed node-locally from the trajectory channels and the aux
tag, so they commute with restriction bit-exactly; the finite-difference
reading of the output projection (minus the sampled derivative of the zeta
channels) is available as an audit and agrees on members to stencil order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingAuxTag, StructureViolation
from .interval_sheaf import DEFAULT_STEP, Trajectory
from .machine import DiagramReport, Machine
from .ode_behavior import (
    DEFAULT_RESIDUAL_TOL,
    batched,
    dot,
    grid_derivative,
    matvec,
    pointwise,
    transpose,
    worst_defect,
)
from . import port_diagram
from .port_diagram import (
    Builders,
    PortSystem,
    build_diagram,
    closed_behavior,
    enclosing_legs as projections,
    extended_behavior,
    extended_sheaf,
)

MATRIX_TOL = 1e-10
GRAD_CONSISTENCY_RTOL = 1e-5

#: distance, in steps, within which a sampled curve reads a sample exactly
SAMPLE_ALIGN_TOL = 1e-9


def as_matrix_field(value, rows: int, cols: int, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a constant matrix or a callable into a checked matrix field.

    The field maps a state stack (N, n) to (N, rows, cols), or one state to
    one matrix; a constant field gives its one matrix, shared by every node
    of a stack.  A callable of one node is lifted with
    :func:`~sheafsys.ode_behavior.pointwise`.
    """
    if callable(value):
        fn = pointwise(value)
    else:
        constant = np.array(value, dtype=float)
        if constant.shape != (rows, cols):
            raise DimensionMismatch(
                f"{name} has shape {constant.shape}, expected ({rows}, {cols})"
            )
        constant.setflags(write=False)
        fn = lambda x, _c=constant: _c

    @batched
    def field(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(fn(x), dtype=float)
        if out.shape != (rows, cols) and out.shape != x.shape[:-1] + (rows, cols):
            raise DimensionMismatch(
                f"{name}(x) has shape {out.shape}, expected {x.shape[:-1] + (rows, cols)}"
            )
        return out

    return field


def fd_gradient(h_fn: Callable[[np.ndarray], float], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Central-difference gradient with step 1e-6 * (1 + |x_i|) per axis."""
    h_fn = pointwise(h_fn)

    @batched
    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for i in range(n):
            step = 1e-6 * (1.0 + np.abs(x[..., i]))
            plus = x.copy()
            minus = x.copy()
            plus[..., i] += step
            minus[..., i] -= step
            out[..., i] = (h_fn(plus) - h_fn(minus)) / (2.0 * step)
        return out

    return grad


@dataclass(frozen=True)
class PHSystem(PortSystem):
    """A port-Hamiltonian system in coordinates.

    Parameters
    ----------
    n, m : int
        State and port dimensions.

    Every callable follows the stack contract of
    :mod:`sheafsys.ode_behavior` (:func:`ph_system` lifts callables of one
    node):

    interconnection : callable
        x -> antisymmetric (n, n) matrix J(x).
    dissipation : callable
        x -> symmetric positive-semidefinite (n, n) matrix R(x).
    port_map : callable
        x -> (n, m) matrix B(x).
    hamiltonian : callable
        x -> float, the stored energy H.
    grad_hamiltonian : callable
        x -> (n,) gradient of H; supply a closed form when available.
    state_labels : tuple of str
        Channel names for the state.

    The port signals are the inputs u, read from and stored in one
    auxiliary energy whose gradient is the input.
    """

    n: int
    m: int
    interconnection: Callable[[np.ndarray], np.ndarray]
    dissipation: Callable[[np.ndarray], np.ndarray]
    port_map: Callable[[np.ndarray], np.ndarray]
    hamiltonian: Callable[[np.ndarray], float]
    grad_hamiltonian: Callable[[np.ndarray], np.ndarray]
    state_labels: tuple = ()

    def grad(self, x) -> np.ndarray:
        return self.gradient(self.grad_hamiltonian, x, "H")

    def energy_at(self, x) -> np.ndarray:
        return self.scalar(self.hamiltonian, x, "H")

    def port_output(self, x) -> np.ndarray:
        """The natural port output B(x)^T grad H(x)."""
        return matvec(transpose(self.port_map(x)), self.grad(x))

    # node formulas of the port diagram

    def check(self, points: Optional[Sequence] = None) -> None:
        check_structure(self, points)

    def closed_rhs(self, x) -> np.ndarray:
        return matvec(self.interconnection(x) - self.dissipation(x), self.grad(x))

    def port_rhs(self, x, s) -> np.ndarray:
        return self.closed_rhs(x) + matvec(self.port_map(x), s)

    def zeta_rate(self, x, s) -> np.ndarray:
        return -self.port_output(x)

    def signal_reader(self, tag):
        return aux_gradient(tag, self.m)

    def signal_tag(self, start: float, step: float, signals: np.ndarray):
        return aux_linear(SampledCurve(start, step, signals), self.m)

    def zero_tag(self):
        return aux_zero(self.m)


def ph_system(
    n: int,
    m: int,
    J,
    R,
    B,
    H: Callable[[np.ndarray], float],
    gradH: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    labels: Optional[tuple] = None,
) -> PHSystem:
    """Assemble a PHSystem from constants or callables; gradient falls back
    to central differences when no closed form is given.  Callables of one
    node are lifted with :func:`~sheafsys.ode_behavior.pointwise`."""
    labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(n))
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} labels for state dimension {n}")
    return PHSystem(
        n,
        m,
        as_matrix_field(J, n, n, "J"),
        as_matrix_field(R, n, n, "R"),
        as_matrix_field(B, n, m, "B"),
        pointwise(H),
        pointwise(gradH) if gradH is not None else fd_gradient(H, n),
        labels,
    )


def default_probe_points(n: int) -> list:
    """Deterministic structure-check points: origin, axes, mixed corners."""
    points = [np.zeros(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        points.append(e)
        points.append(-0.5 * e)
    points.append(0.3 * np.ones(n))
    points.append(np.array([(-0.7) ** (i + 1) for i in range(n)]))
    return points


def require(points: np.ndarray, *checks) -> None:
    """Raise StructureViolation for the first of the points that fails a
    check, and there the first check it fails.  Each check is a (failing,
    message) pair: ``failing`` a bool per point (or one for all of them),
    ``message(i)`` the text for point i.
    """
    failing = [np.broadcast_to(failing, (len(points),)) for failing, _ in checks]
    hits = np.argwhere(np.column_stack(failing))
    if hits.size:
        point, check = hits[0]
        raise StructureViolation(checks[check][1](point))


def antisymmetric(name: str, M: np.ndarray, points: np.ndarray):
    defect = np.max(np.abs(M + transpose(M)), axis=(-2, -1))
    return ~(defect <= MATRIX_TOL), lambda i: (
        f"{name} not antisymmetric at x = {points[i].tolist()}"
    )


def symmetric(name: str, M: np.ndarray, points: np.ndarray):
    defect = np.max(np.abs(M - transpose(M)), axis=(-2, -1))
    return ~(defect <= MATRIX_TOL), lambda i: f"{name} not symmetric at x = {points[i].tolist()}"


def semidefinite(name: str, M: np.ndarray, points: np.ndarray):
    """Positive semidefinite symmetric part; symmetry itself is not checked."""
    lowest = np.linalg.eigvalsh(0.5 * (M + transpose(M))).min(axis=-1)
    return ~(lowest >= -MATRIX_TOL), lambda i: (
        f"{name} not positive semidefinite at x = {points[i].tolist()}"
    )


def consistent_gradient(name: str, grad, fd, points: np.ndarray):
    """The gradient agrees with central differences to GRAD_CONSISTENCY_RTOL."""
    reference = fd(points)
    gap = np.max(np.abs(grad(points) - reference), axis=-1)
    bound = GRAD_CONSISTENCY_RTOL * np.maximum(1.0, np.max(np.abs(reference), axis=-1))
    return ~(gap <= bound), lambda i: (
        f"grad {name} inconsistent with finite differences at x = {points[i].tolist()} "
        f"(gap {gap[i]:.3e})"
    )


def check_points(n: int, points: Optional[Sequence]) -> np.ndarray:
    """The structure-check points as a (P, n) stack; the defaults when None."""
    points = default_probe_points(n) if points is None else points
    return np.asarray(points, dtype=float).reshape(len(points), n)


def check_structure(sys: PHSystem, points: Optional[Sequence] = None) -> None:
    """Verify antisymmetry of J, symmetric PSD R, gradient consistency.

    Raises StructureViolation naming the failing probe point.
    """
    points = check_points(sys.n, points)
    if not len(points):
        return
    R = sys.dissipation(points)
    require(
        points,
        antisymmetric("J(x)", sys.interconnection(points), points),
        symmetric("R(x)", R, points),
        semidefinite("R(x)", R, points),
        consistent_gradient("H", sys.grad, fd_gradient(sys.hamiltonian, sys.n), points),
    )


# ---------------------------------------------------------------------------
# auxiliary energies


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Piecewise-linear curve through samples on a uniform absolute-time grid.

    Called with one time or an (N,) stack of times.  A time within
    ``SAMPLE_ALIGN_TOL`` steps of a sample time reads that sample exactly,
    so absolute node times, which restriction computes with different
    roundings, read the same values.  Equality is by value (start, step, and
    samples bit-exact), so aux tags built from the same data compare equal.
    """

    batched = True

    start: float
    step: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        if samples.shape[0] < 1:
            raise DimensionMismatch("a sampled curve needs at least one sample")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if not (self.step > 0):
            raise DimensionMismatch(f"curve step must be positive, got {self.step}")

    def __call__(self, s) -> np.ndarray:
        count = self.samples.shape[0]
        if count == 1:
            return np.broadcast_to(self.samples[0], np.shape(s) + self.samples.shape[1:])
        position = (np.asarray(s, dtype=float) - self.start) / self.step
        nearest = np.rint(position)
        position = np.where(np.abs(position - nearest) <= SAMPLE_ALIGN_TOL, nearest, position)
        position = np.clip(position, 0.0, count - 1.0)
        low = np.minimum(np.floor(position).astype(int), count - 2)
        frac = (position - low)[..., np.newaxis]
        return (1.0 - frac) * self.samples[low] + frac * self.samples[low + 1]

    def __eq__(self, other):
        return (
            isinstance(other, SampledCurve)
            and self.start == other.start
            and self.step == other.step
            and self.samples.shape == other.samples.shape
            and bool(np.all(self.samples == other.samples))
        )

    def __hash__(self):
        return hash((self.start, self.step, self.samples.shape))


@dataclass(frozen=True, eq=False)
class AuxHamiltonian:
    """Auxiliary energy H_aux(s, zeta) on the port variables.

    Three kinds cover the constructions here: ``zero``; ``linear``,
    H_aux = u(s)^T zeta with gradient u(s); and ``quadratic``,
    H_aux = kappa(s) * zeta^T Q zeta / 2 with gradient kappa(s) Q zeta.
    The time argument s is absolute (node time minus shift), so the tag is
    unchanged by restriction.  ``gradient`` and ``value`` take one node (s a
    time, zeta of shape (m,)) or stacks ((N,) times, (N, m) values; a single
    time is shared by every row); a curve of one time is lifted with
    :func:`~sheafsys.ode_behavior.pointwise`.
    """

    kind: str
    m: int
    curve: Optional[Callable] = None
    quad: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "quadratic"):
            raise StructureViolation(f"unknown aux kind {self.kind!r}")
        if self.kind != "zero" and self.curve is None:
            raise StructureViolation(f"{self.kind} aux needs a curve")
        if self.kind == "quadratic":
            if self.quad is None:
                raise StructureViolation("quadratic aux needs its matrix")
            quad = np.array(self.quad, dtype=float)
            if quad.shape != (self.m, self.m) or np.max(np.abs(quad - quad.T)) > MATRIX_TOL:
                raise StructureViolation("quadratic aux matrix must be symmetric (m, m)")
            quad.setflags(write=False)
            object.__setattr__(self, "quad", quad)
        if self.curve is not None:  # equality compares the curve as given
            object.__setattr__(self, "_stacked_curve", pointwise(self.curve, 0))

    def gradient(self, s, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=float)
        if self.kind == "zero":
            return np.zeros(zeta.shape[:-1] + (self.m,))
        if self.kind == "linear":
            out = np.asarray(self._stacked_curve(s), dtype=float)
            if out.shape == np.shape(s):  # scalar curve values
                out = out[..., np.newaxis]
            if out.shape != np.shape(s) + (self.m,):
                raise DimensionMismatch(
                    f"linear aux curve returned shape {out.shape}, "
                    f"expected {np.shape(s) + (self.m,)}"
                )
            return np.broadcast_to(out, zeta.shape[:-1] + (self.m,))
        kappa = np.asarray(self._stacked_curve(s), dtype=float)[..., np.newaxis]
        return kappa * matvec(self.quad, zeta)

    def value(self, s, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=float)
        if self.kind == "zero":
            return np.zeros(zeta.shape[:-1])
        if self.kind == "linear":
            return dot(self.gradient(s, zeta), zeta)
        kappa = np.asarray(self._stacked_curve(s), dtype=float)
        return 0.5 * kappa * dot(zeta, matvec(self.quad, zeta))

    def __eq__(self, other):
        if not isinstance(other, AuxHamiltonian):
            return NotImplemented
        if self.kind != other.kind or self.m != other.m:
            return False
        if self.kind == "zero":
            return True
        if self.curve is not other.curve and self.curve != other.curve:
            return False
        if self.kind == "quadratic":
            return bool(np.all(self.quad == other.quad))
        return True

    def __hash__(self):
        return hash((self.kind, self.m))


def aux_gradient(tag, m: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """The gradient of an auxiliary energy on m port variables; raises
    MissingAuxTag when ``tag`` is not an auxiliary energy."""
    if not isinstance(tag, AuxHamiltonian):
        raise MissingAuxTag(f"expected an auxiliary-energy tag, found {type(tag).__name__}")
    if tag.m != m:
        raise DimensionMismatch(f"aux port dimension {tag.m}, system has {m}")
    return tag.gradient


def aux_zero(m: int) -> AuxHamiltonian:
    return AuxHamiltonian("zero", m)


def aux_linear(curve, m: int) -> AuxHamiltonian:
    """H_aux(s, zeta) = u(s)^T zeta; ``curve`` maps absolute time to (m,)."""
    return AuxHamiltonian("linear", m, curve)


def aux_quadratic(kappa, quad) -> AuxHamiltonian:
    """H_aux(s, zeta) = kappa(s) zeta^T Q zeta / 2; scalar kappa allowed."""
    quad = np.array(quad, dtype=float)
    curve = kappa if callable(kappa) else (lambda s, _k=float(kappa): _k)
    return AuxHamiltonian("quadratic", quad.shape[0], curve, quad)


# ---------------------------------------------------------------------------
# machines and the embedding


def embed_closed(
    sys: PHSystem, e: Trajectory, residual_tolerance: float = DEFAULT_RESIDUAL_TOL
) -> Trajectory:
    """Embed a closed-system member into the extended behavior: append zeta,
    the trapezoidal antiderivative of -B^T grad H anchored at zeta(0) = 0,
    and tag the result with the zero auxiliary energy."""
    return port_diagram.embed(sys, e, residual_tolerance)


def output_stencil_defect(sys: PHSystem, e: Trajectory) -> float:
    """Gap between the node-local output leg and -d/dt of the zeta channels.

    The sampled-derivative reading of the output projection differs from the
    node-local one by the differentiation error; this audit bounds it.
    """
    _, e_leg = projections(sys)
    local = e_leg(e).values
    stencil = -grid_derivative(e.channels(sys.zeta_labels), e.grid_step)
    return worst_defect(np.abs(local - stencil))[0]


def closed_machine(
    sys: PHSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """The closed system as a machine: port leg B^T grad H, constant leg m
    zero channels."""
    return port_diagram.closed_machine(sys, grid_step, residual_tolerance)


def enclosing_machine(
    sys: PHSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """The extended behavior with its aux-gradient and port-output legs."""
    return port_diagram.enclosing_machine(sys, grid_step, residual_tolerance)


def ph_iso_machine(
    sys: PHSystem, grid_step=DEFAULT_STEP, residual_tolerance=DEFAULT_RESIDUAL_TOL
) -> Machine:
    """The open port machine: x' = (J - R) grad H + B u, y = B^T grad H."""
    return port_diagram.port_machine(sys, grid_step, residual_tolerance)


# ---------------------------------------------------------------------------
# audits


def _port_run_rates(sys: PHSystem, e: Trajectory):
    """State, input and the stencil rate dH/dt along a port run."""
    x = e.channels(sys.state_labels)
    energy = sys.energy_at(x)[:, np.newaxis]
    return x, e.channels(sys.input_labels), grid_derivative(energy, e.grid_step)[:, 0]


def power_balance(sys: PHSystem, e: Trajectory) -> float:
    """Worst node defect of |dH/dt - (y^T u - grad H^T R grad H)|.

    ``e`` is a port-machine member (state and input channels together);
    dH/dt is taken by the grid stencils on the sampled energy.  A
    non-finite node defect gives inf.
    """
    x, u, rate = _port_run_rates(sys, e)
    grad = sys.grad(x)
    supply = dot(sys.port_output(x), u)
    dissipated = dot(grad, matvec(sys.dissipation(x), grad))
    return worst_defect(np.abs(rate - (supply - dissipated)))[0]


def dissipation_margin(sys: PHSystem, e: Trajectory) -> float:
    """Worst node excess of dH/dt over the supplied power y^T u.

    Nonpositive (up to stencil error) whenever R is positive semidefinite.
    A non-finite node gives inf.
    """
    x, u, rate = _port_run_rates(sys, e)
    return worst_defect(rate - dot(sys.port_output(x), u))[0]


def closed_energy_drift(sys: PHSystem, e: Trajectory) -> float:
    """Max |H(x(t)) - H(x(0))| along a closed-system member; inf at a
    non-finite node."""
    energy = sys.energy_at(e.values)
    return worst_defect(np.abs(energy - energy[0]))[0]


def extended_energy(sys: PHSystem, aux: AuxHamiltonian, e: Trajectory) -> np.ndarray:
    """Total energy H(x) + H_aux(s, zeta) at every node."""
    x = e.channels(sys.state_labels)
    zeta = e.channels(sys.zeta_labels)
    return sys.energy_at(x) + aux.value(e.absolute_times, zeta)


def build_ph_diagram(
    sys: PHSystem,
    probes: Sequence[Trajectory],
    tolerance: float = 1e-5,
    grid_step: Optional[float] = None,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL,
    integral_sign: float = 1.0,
) -> DiagramReport:
    """Assemble the port-Hamiltonian triangle and verify it; see
    :func:`sheafsys.port_diagram.build_diagram`."""
    builders = Builders(closed_machine, ph_iso_machine, enclosing_machine, embed_closed)
    return build_diagram(
        sys, builders, probes, tolerance, grid_step, residual_tolerance, integral_sign
    )
