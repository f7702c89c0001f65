"""Behaviors of ordinary differential equations on uniform grids.

A vector field f on R^n induces a behavior whose members over [0, length]
are the sampled solutions of x' = f(t - shift, x).  Membership is decided by
a finite-difference residual: differentiate the samples with the grid
stencils and compare against f at every node.  The stencils are chosen so
that membership survives restriction: the one-sided end formulas are one
order more accurate than the centered interior ones, hence restriction can
only turn interior nodes into end nodes without raising the residual.

Node formulas follow the stack contract: a field, matrix field, gradient or
energy takes its node arguments stacked on a leading axis, times (N,) and
states (N, n), and returns one value per node, (N, n), (N, r, c) or (N,).
A time given as a scalar is shared by every row, and a single node (a state
of shape (n,)) gives a single value.  Callables marked with :func:`batched`
follow the contract themselves; :func:`pointwise` lifts any other callable
of one node to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUp, DimensionMismatch, GridMismatch
from .interval_sheaf import (
    DEFAULT_STEP,
    BehaviorSheaf,
    Trajectory,
    restrict,
)

#: magnitude beyond which an integration counts as blown up
BLOWUP_THRESHOLD = 1e8

#: default membership residual tolerance for ODE behaviors
DEFAULT_RESIDUAL_TOL = 1e-4


def batched(fn: Callable) -> Callable:
    """Mark ``fn`` as following the stack contract; returns ``fn``."""
    fn.batched = True
    return fn


def pointwise(fn: Callable, *ranks: int) -> Callable:
    """Lift ``fn``, a callable of one node, to the stack contract.

    ``ranks`` gives the rank of each argument at one node (default: one
    state vector, rank 1).  When the last argument has its node rank the
    call is one node and goes to ``fn`` unchanged; otherwise ``fn`` runs on
    every row of the stacks, with arguments given at node rank (a shared
    time) repeated for each row.  Callables marked :func:`batched` are
    returned as they are.
    """
    if getattr(fn, "batched", False):
        return fn
    ranks = ranks or (1,)

    @batched
    def stacked(*args):
        if np.ndim(args[-1]) == ranks[-1]:
            return fn(*args)
        count = len(args[-1])
        columns = [
            arg if np.ndim(arg) > rank else itertools.repeat(arg, count)
            for arg, rank in zip(args, ranks)
        ]
        rows = [np.asarray(fn(*row), dtype=float) for row in zip(*columns)]
        try:
            return np.stack(rows)
        except ValueError as exc:
            raise DimensionMismatch(f"node values do not stack: {exc}") from exc

    return stacked


def matvec(matrices, vectors) -> np.ndarray:
    """Matrix times vector at every node: (..., r, c) and (..., c) give (..., r)."""
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        return matrices @ vectors
    return np.matmul(matrices, vectors[..., np.newaxis])[..., 0]


def dot(a, b) -> np.ndarray:
    """Inner product at every node: (..., k) and (..., k) give (...)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return a @ b
    return np.matmul(a[..., np.newaxis, :], b[..., :, np.newaxis])[..., 0, 0]


def transpose(matrices) -> np.ndarray:
    """Transpose at every node: (..., r, c) gives (..., c, r)."""
    return np.swapaxes(matrices, -1, -2)


@dataclass(frozen=True)
class VectorField:
    """A time-dependent vector field on R^n.

    Parameters
    ----------
    dimension : int
        State dimension n.
    rhs : callable
        Maps (t, x) to the derivative.  A callable of one node, x of shape
        (n,) to shape (n,), is lifted with :func:`pointwise` at
        construction; a :func:`batched` one takes x of shape (N, n) with t a
        scalar or of shape (N,) and returns shape (N, n).
    description : str
        Human-readable note used in reports.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rhs", pointwise(self.rhs, 0, 1))

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        """The field at one node (x of shape (n,)) or a stack of nodes."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.rhs(t, x), dtype=float)
        if out.shape != x.shape or x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"rhs returned shape {out.shape}, expected {x.shape[:-1] + (self.dimension,)}"
            )
        return out


def grid_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Differentiate node samples: centered interior, one-sided cubic ends.

    The interior stencil (v[i+1] - v[i-1]) / 2h is second order.  The end
    stencils use four nodes and are third order, so trajectories keep their
    membership residual when a restriction turns an interior node into an
    endpoint.  Shorter arrays fall back to the best formula that fits.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise GridMismatch("need at least two nodes to differentiate")
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    if n >= 4:
        d[0] = (-11.0 * values[0] + 18.0 * values[1] - 9.0 * values[2] + 2.0 * values[3]) / (6.0 * h)
        d[-1] = (11.0 * values[-1] - 18.0 * values[-2] + 9.0 * values[-3] - 2.0 * values[-4]) / (6.0 * h)
    elif n == 3:
        d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    else:
        d[0] = d[-1] = (values[1] - values[0]) / h
    return d


def integrate(
    field: VectorField,
    x0,
    length: float,
    grid_step: float = DEFAULT_STEP,
    shift: float = 0.0,
    labels: Optional[tuple] = None,
    aux=None,
) -> Trajectory:
    """Integrate x' = f(t - shift, x) from x(0) = x0 with classical RK4.

    Raises
    ------
    BlowUp
        When a step produces a non-finite value or a component beyond the
        blow-up threshold.  The exception carries the truncated trajectory
        over the nodes computed so far and the last valid node time.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dimension,):
        raise DimensionMismatch(
            f"initial state shape {x0.shape}, field dimension {field.dimension}"
        )
    (run,) = integrate_batch(field, x0[np.newaxis], length, grid_step, shift, labels, aux)
    if isinstance(run, BlowUp):
        raise run
    return run


def integrate_batch(
    field: VectorField,
    x0s,
    length: float,
    grid_step: float = DEFAULT_STEP,
    shift: float = 0.0,
    labels: Optional[tuple] = None,
    aux=None,
) -> list:
    """Integrate x' = f(t - shift, x) from every row of ``x0s`` at once, as
    one (K, n) RK4 state.

    Returns one entry per row: its Trajectory, or the BlowUp that
    :func:`integrate` would raise for it.  A row that blows up leaves the
    batch at that step; the other rows carry on unaffected, and each row's
    nodes are exactly those of integrating it alone.
    """
    x = np.array(x0s, dtype=float)
    if x.ndim != 2 or x.shape[1] != field.dimension:
        raise DimensionMismatch(
            f"initial states shape {x.shape}, field dimension {field.dimension}"
        )
    h = float(grid_step)
    if h <= 0:
        raise GridMismatch(f"grid step must be positive, got {grid_step}")
    steps = int(round(length / h))
    if abs(steps * h - length) > 1e-12 * max(1.0, abs(length)):
        raise GridMismatch(f"length {length} is not a multiple of the step {h}")

    count = len(x)
    nodes = np.empty((steps + 1,) + x.shape)
    nodes[0] = x
    rows = np.arange(count)
    runs = [None] * count
    if count == 1:  # one run steps a single node, the cheapest call of a field
        x = x[0]
    for i in range(steps):
        if not rows.size:
            break
        t = i * h
        k1 = field(t - shift, x)
        k2 = field(t + 0.5 * h - shift, x + 0.5 * h * k1)
        k3 = field(t + 0.5 * h - shift, x + 0.5 * h * k2)
        k4 = field(t + h - shift, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(x).max() <= BLOWUP_THRESHOLD:  # also catches NaN
            bad = ~(np.abs(x).reshape(rows.size, -1).max(axis=1) <= BLOWUP_THRESHOLD)
            for row in rows[bad]:
                truncated = Trajectory(nodes[: i + 1, row], h, shift, labels, aux)
                runs[row] = BlowUp(i * h, truncated)
            x, rows = x.reshape(rows.size, -1)[~bad], rows[~bad]
        if rows.size == count:
            nodes[i + 1] = x
        elif rows.size:
            nodes[i + 1, rows] = x
    for row in rows:
        runs[row] = Trajectory(nodes[:, row], h, shift, labels, aux)
    return runs


def worst_defect(defects) -> tuple[float, int]:
    """The largest of some node values and its first node; inf at the first
    non-finite value, so a NaN never passes for a small number.  No values
    give (0.0, 0)."""
    defects = np.asarray(defects, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(defects))
    if bad.size:
        return float("inf"), int(bad[0])
    if not defects.size:
        return 0.0, 0
    node = int(np.argmax(defects))
    return float(defects[node]), node


def node_defects(derivative: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Sup-norm gap between a sampled derivative and the field at every node."""
    if rates.shape != derivative.shape:
        raise DimensionMismatch(f"field gave shape {rates.shape}, expected {derivative.shape}")
    return np.max(np.abs(derivative - rates), axis=1)


def membership_residual(
    field: VectorField,
    e: Trajectory,
    grid_step: Optional[float] = None,
) -> float:
    """Worst-node defect between the sampled derivative and the field.

    Computes max_i || D(e)_i - f(t_i - shift, e_i) ||_inf with D the grid
    stencils; a non-finite defect at any node gives inf.  When the
    behavior's own step is given, the trajectory may be sampled on it or on
    any integer multiple of it.
    """
    if e.dimension != field.dimension:
        raise DimensionMismatch(
            f"trajectory has {e.dimension} channels, field wants {field.dimension}"
        )
    if grid_step is not None:
        ratio = e.grid_step / grid_step
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise GridMismatch(
                f"trajectory step {e.grid_step} is not a multiple of behavior step {grid_step}"
            )
    if e.num_nodes < 2:
        raise GridMismatch("need at least two nodes to test membership")
    d = grid_derivative(e.values, e.grid_step)
    return worst_defect(node_defects(d, field(e.absolute_times, e.values)))[0]


@dataclass(frozen=True)
class OdeBehavior:
    """The behavior sheaf of a vector field on a fixed uniform grid.

    Members over [0, length] are trajectories whose finite-difference
    residual against the field stays within ``residual_tolerance`` at every
    node.  ``aux`` is attached to every sampled member and checked for
    equality by the sheaf machinery but carries no dynamics of its own here.
    """

    field: VectorField
    grid_step: float = DEFAULT_STEP
    residual_tolerance: float = DEFAULT_RESIDUAL_TOL
    labels: Optional[tuple] = None
    aux: object = None

    def sample(self, x0, length: float, shift: float = 0.0) -> Trajectory:
        return integrate(
            self.field, x0, length, self.grid_step, shift, self.labels, self.aux
        )

    def sample_batch(self, x0s, length: float, shift: float = 0.0) -> list:
        """One member (or the BlowUp ending it) per initial state, integrated
        together; see :func:`integrate_batch`."""
        return integrate_batch(
            self.field, x0s, length, self.grid_step, shift, self.labels, self.aux
        )

    def membership(self, e: Trajectory) -> float:
        if e.aux != self.aux:
            return float("inf")
        if self.labels is not None and e.labels != tuple(self.labels):
            return float("inf")
        return membership_residual(self.field, e, self.grid_step)

    def as_behavior_sheaf(self) -> BehaviorSheaf:
        return BehaviorSheaf(
            membership=self.membership,
            restrict=restrict,
            sampler=self.sample,
            tolerance=self.residual_tolerance,
        )
