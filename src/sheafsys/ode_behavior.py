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
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BlowUp, ConstraintViolation, DimensionMismatch, GridMismatch
from .interval_sheaf import DEFAULT_STEP, Trajectory, grid_count, worst_row

#: magnitude beyond which an integration counts as blown up
BLOWUP_THRESHOLD = 1e8

#: default membership residual tolerance for ODE behaviors
DEFAULT_RESIDUAL_TOL = 1e-4

#: tolerance of the algebraic side conditions of a membership
SIDE_CONDITION_TOL = 1e-8

# the dtype of every state and rate, native float64
_FLOAT = np.dtype(float)


def batched(fn: Callable) -> Callable:
    """Mark ``fn`` as following the stack contract; returns ``fn``."""
    fn.batched = True
    return fn


def pointwise(fn: Callable, *ranks: int) -> Callable:
    """Lift ``fn``, a callable of one node, to the stack contract.

    ``ranks`` gives the rank of each argument at one node (default: one
    state vector, rank 1).  When every argument has its node rank the call
    is one node and goes to ``fn`` unchanged; otherwise ``fn`` runs on every
    row of the stacks, with arguments given at node rank (a shared time or
    input) repeated for each row.  Either way the values come back as a float
    array.  Callables marked :func:`batched` are returned as they are.
    """
    if getattr(fn, "batched", False):
        return fn
    ranks = ranks or (1,)

    @batched
    def stacked(*args):
        counts = [len(arg) for arg, rank in zip(args, ranks) if np.ndim(arg) > rank]
        if not counts:
            return np.asarray(fn(*args), dtype=float)
        count = counts[0]
        if any(c != count for c in counts):
            raise DimensionMismatch(f"stacked arguments disagree in length: {counts}")
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


def matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Matrix times vector at every node: (..., r, c) and (..., c) give (..., r),
    with the bits of ``@`` at each node, the sign of a zero included.

    Stacks go through numpy's ``matvec`` gufunc, one call.  One matrix
    times one vector goes through ``ndarray.dot``, cheaper still there; but
    not for a vector of length 1, which ``dot`` takes for a scalar: a
    product that underflows keeps its sign there, where ``@`` gives +0.0.
    """
    if vectors.ndim == 1 and matrices.ndim == 2 and len(vectors) > 1:
        return matrices.dot(vectors)
    return np.matvec(matrices, vectors)


def dot(a, b) -> np.ndarray:
    """Inner product at every node: (..., k) and (..., k) give (...), with the
    bits of ``@`` at each node, by numpy's ``vecdot`` gufunc."""
    return np.vecdot(a, b)


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
        Maps (t, x), or (t, x, u) for a field with an input, to the
        derivative.  A callable of one node, x of shape (n,) to shape (n,),
        is lifted with :func:`pointwise` at construction; a :func:`batched`
        one takes x of shape (N, n) with t (and u) shared or given per row
        and returns shape (N, n).  A call of the field checks the state and
        the output's shape, and converts an output that is not a float
        ndarray; :func:`integrate_batch` checks the output once per run
        instead, at its first stage.
    affine : (callable, ndarray), optional
        For a field whose input enters through a constant matrix B: the
        drift, a :func:`batched` callable of (t, x) giving rates of the
        shape of x, and B, such that f(t, x, u) is drift(t, x) +
        matvec(B, u), bit for bit.  :func:`integrate_batch` then forms B u
        once per run and calls the drift as it is.
    """

    dimension: int
    rhs: Callable[..., np.ndarray]
    affine: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "rhs", pointwise(self.rhs, 0, 1, 1))

    def __call__(self, t, x: np.ndarray, u=None) -> np.ndarray:
        """The field at one node (x of shape (n,)) or a stack of nodes.  A
        float ndarray, given or returned, is used as it is."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise DimensionMismatch(
                f"state of shape {x.shape} given to a field of dimension {self.dimension}"
            )
        return checked_rate(self.rhs(t, x) if u is None else self.rhs(t, x, u), x)


def checked_rate(out, x: np.ndarray) -> np.ndarray:
    """``out``, a field's value at the states ``x``, as a float ndarray of
    x's shape, DimensionMismatch for any other shape; ``out`` itself when it
    is one already."""
    if type(out) is not np.ndarray or out.dtype is not _FLOAT:
        out = np.asarray(out, dtype=float)
    if out.shape != x.shape:
        raise DimensionMismatch(f"rhs returned shape {out.shape}, expected {x.shape}")
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
    inputs: Optional[Callable] = None,
) -> Trajectory:
    """Integrate x' = f(t - shift, x) from x(0) = x0 with classical RK4;
    ``inputs`` as in :func:`integrate_batch`.

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
    (run,) = integrate_batch(field, x0[np.newaxis], length, grid_step, shift, labels, inputs)
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
    inputs: Optional[Callable] = None,
) -> list:
    """Integrate x' = f(t - shift, x) from every row of ``x0s`` at once, as
    one (K, n) RK4 state.

    Returns one entry per row: its Trajectory, or the BlowUp that
    :func:`integrate` would raise for it.  A row that blows up leaves the
    batch at that step; the other rows carry on unaffected, and each row's
    nodes are exactly those of integrating it alone.

    ``inputs``, when given, is a curve of absolute time called once, on the
    stack of the stage times t_i - shift, t_i + h/2 - shift, t_i + h - shift
    of every step i and then the end node's time; it gives inputs shared by
    every row, (T, m), or one per row, (T, K, m); a width m that the
    field's ``affine`` port map or the ``labels`` past the state fix is
    checked before the first step.  The field is then called
    as f(t, x, u), and every run carries its inputs at the nodes as channels
    after the state.  A field with an ``affine`` split takes B u on that
    whole stack, before the first step; each stage then adds its row of it
    to the drift, which gives the bits of f(t, x, u).

    A stage's output is checked as a call of the field checks it, but only
    at the first stage of a run and at the first stage after rows leave the
    stack.  When that output needs no converting, the later stages use the
    rhs's outputs as they are (an rhs keeps its output's type within a
    run); otherwise every stage converts its output.
    """
    x = np.array(x0s, dtype=float)
    if x.ndim != 2 or x.shape[1] != field.dimension:
        raise DimensionMismatch(
            f"initial states shape {x.shape}, field dimension {field.dimension}"
        )
    h = float(grid_step)
    if h <= 0:
        raise GridMismatch(f"grid step must be positive, got {grid_step}")
    steps = grid_count(length, h, "length")

    count, n = x.shape
    u = None
    if inputs is not None:
        starts = np.arange(steps) * h  # the loop's i * h
        times = np.append(np.column_stack([starts, starts + 0.5 * h, starts + h]), steps * h) - shift
        u = np.asarray(inputs(times), dtype=float)
        if u.shape[:1] != times.shape or not (u.ndim == 2 or u.ndim == 3 and u.shape[1] == count):
            raise DimensionMismatch(f"inputs gave shape {u.shape} for {len(times)} times, {count} rows")
        # the input width, where the field's constant port map or the labels fix it
        if field.affine is not None:
            width = field.affine[1].shape[1]
        else:
            width = None if labels is None else len(labels) - n
        if width not in (None, u.shape[-1]):
            raise DimensionMismatch(f"inputs of width {u.shape[-1]} given to a field that takes {width}")
    nodes = np.empty((steps + 1, count, n + (0 if u is None else u.shape[-1])))
    states = nodes[..., :n]
    states[0] = x
    if u is not None:  # the inputs at the nodes: the first stage of every step, then the end
        nodes[..., n:] = u[::3] if u.ndim == 3 else u[::3, np.newaxis]
    rows = np.arange(count)
    runs = [None] * count
    if count == 1:  # one run steps a single node, the cheapest call of a field
        x = x[0]
        u = u[:, 0] if u is not None and u.ndim == 3 else u
    # a stage as it is: the field's rhs, or its drift plus the stage's row of
    # B u, taken at every stage time in one call, (T, [K,] n)
    if u is None:
        rhs = field.rhs

        def stage(t, x, _):
            return rhs(t, x)
    elif field.affine is None:
        stage = field.rhs
    else:
        drift, port = field.affine
        u = matvec(port, u)

        def stage(t, x, term):
            return drift(t, x) + term

    def checked(t, x, v):
        return checked_rate(stage(t, x, v), x)

    rate = None  # chosen by the first stage of a stack, from its checked output
    half = 0.5 * h
    # the factors of the stage products as 0-d arrays: numpy takes those as
    # they are, where it converts a Python float at every product
    by_half, by_step, by_sixth = np.array(half), np.array(h), np.array(h / 6.0)
    for i in range(steps):
        if not rows.size:
            break
        t = i * h
        u1, u2, u4 = (None, None, None) if u is None else (u[3 * i], u[3 * i + 1], u[3 * i + 2])
        if rate is None:  # an output that needs no converting is used as it is from here on
            out = stage(t - shift, x, u1)
            k1 = checked_rate(out, x)
            rate = stage if k1 is out else checked
        else:
            k1 = rate(t - shift, x, u1)
        mid = t + half - shift
        k2 = rate(mid, x + by_half * k1, u2)
        k3 = rate(mid, x + by_half * k2, u2)
        k4 = rate(t + h - shift, x + by_step * k3, u4)
        x = x + by_sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)  # k + k is 2.0 * k, exactly
        # a pass over the few values as Python floats is cheaper than
        # np.abs(x).max(); NaN fails the comparison too
        if not all(-BLOWUP_THRESHOLD <= v <= BLOWUP_THRESHOLD for v in x.ravel().tolist()):
            bad = ~(np.abs(x).reshape(rows.size, -1).max(axis=1) <= BLOWUP_THRESHOLD)
            for row in rows[bad]:
                truncated = Trajectory(nodes[: i + 1, row], h, shift, labels)
                runs[row] = BlowUp(i * h, truncated)
            x, rows, rate = x.reshape(rows.size, -1)[~bad], rows[~bad], None
            if u is not None and u.ndim == 3:
                u = u[:, ~bad]
        if rows.size == count:
            states[i + 1] = x
        elif rows.size:
            states[i + 1, rows] = x
    for row in rows:
        runs[row] = Trajectory(nodes[:, row], h, shift, labels)
    return runs


def membership_residual(
    field: VectorField,
    e: Trajectory,
    grid_step: Optional[float] = None,
    inputs: int = 0,
) -> float:
    """Worst-node defect between the sampled derivative and the field.

    Computes max_i || D(x)_i - f(t_i - shift, x_i) ||_inf with D the grid
    stencils and x the state channels; a non-finite defect at any node, or
    a non-finite shift, gives inf.  A driven member carries ``inputs`` input
    channels u after its state, and the field is evaluated as f(t, x, u) on
    them.  When the behavior's own step is given, the trajectory may be
    sampled on it or on any integer multiple of it.
    """
    n = field.dimension
    if e.dimension != n + inputs:
        raise DimensionMismatch(
            f"trajectory has {e.dimension} channels, field wants {n + inputs}"
        )
    if grid_step is not None:
        ratio = e.grid_step / grid_step
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise GridMismatch(
                f"trajectory step {e.grid_step} is not a multiple of behavior step {grid_step}"
            )
    if e.num_nodes < 2:
        raise GridMismatch("need at least two nodes to test membership")
    if not math.isfinite(e.shift):
        return math.inf
    x = e.values[:, :n]
    # the field's call holds its rates to the shape of x
    rates = field(e.absolute_times, x, e.values[:, n:] if inputs else None)
    return worst_row(grid_derivative(x, e.grid_step) - rates)[0]


def with_conditions(dynamics: float, residuals: dict) -> float:
    """A membership residual with the side conditions folded in: the
    dynamics residual when every (residual, node) pair is within
    ``SIDE_CONDITION_TOL``, inf otherwise (NaN included)."""
    if all(residual <= SIDE_CONDITION_TOL for residual, _ in residuals.values()):
        return dynamics
    return float("inf")


def assert_conditions(residuals: dict, tolerance: float = SIDE_CONDITION_TOL) -> None:
    """Raise ConstraintViolation naming the first of the (residual, node)
    conditions that is not within the tolerance (NaN included)."""
    for name, (residual, node) in residuals.items():
        if not residual <= tolerance:
            raise ConstraintViolation(name, node, residual)


class AuditRow(NamedTuple):
    """A row of an audit table (see :func:`run_audit`): the report name, a
    measure of (driven run, closed run), and a bound, --tol when None.  A
    ``floor`` row holds at value >= -bound, any other at value <= bound, so
    NaN fails either.  A row with an ``informational`` reason, which says why
    it does not decide, is reported only; every other row decides."""

    name: str
    measure: Callable
    bound: Optional[float] = None
    floor: bool = False
    informational: str = ""

    def holds(self, value: float, tolerance: float) -> bool:
        bound = tolerance if self.bound is None else self.bound
        return value >= -bound if self.floor else value <= bound


def run_audit(table, driven: Trajectory, closed: Trajectory, tolerance: float) -> tuple:
    """Run an audit table on a driven and a closed run, with --tol =
    ``tolerance``: returns (residuals by row name, whether every deciding row
    holds).  Rows that share a measure share its one call; such a measure
    gives the values of its rows by name."""
    measured, residuals = {}, {}
    for row in table:
        if row.measure not in measured:
            measured[row.measure] = row.measure(driven, closed)
        value = measured[row.measure]
        residuals[row.name] = float(value[row.name] if isinstance(value, dict) else value)
    return residuals, all(row.holds(residuals[row.name], tolerance) for row in table if not row.informational)


@dataclass(frozen=True)
class OdeBehavior:
    """The behavior sheaf of a closed or driven vector field on a fixed
    uniform grid.

    Members over [0, length] are trajectories whose finite-difference
    residual against the field stays within ``tolerance`` at every node.  A
    driven field's members carry their inputs as channels after the state:
    the ``labels`` past the field's dimension name them, and membership
    evaluates f(t, x, u) on them.  ``side_residuals``, when given, maps a
    member to named (residual, node) pairs of algebraic conditions that
    membership must meet as well, each within ``SIDE_CONDITION_TOL``: a
    member that fails one has residual inf, whatever its dynamics residual.
    """

    field: VectorField
    grid_step: float = DEFAULT_STEP
    tolerance: float = DEFAULT_RESIDUAL_TOL
    labels: Optional[tuple] = None
    side_residuals: Optional[Callable[[Trajectory], dict]] = None

    def sampler(self, x0, *curves_and_length, shift: float = 0.0):
        """The member from x0 over [0, length]: ``sampler(x0, length)``, or
        ``sampler(x0, curve, ..., length)`` for a driven field, whose input
        at absolute time t is the concatenation of the curves' values, one
        curve per input group (callables of time, lifted with
        :func:`pointwise`).  Each curve is called once per run, on the stack
        of T times: the RK4 stage times and the end node's.  One state (n,)
        gives its member or raises BlowUp; a (K, n) stack of states gives
        one member or BlowUp per row, integrated together (see
        :func:`integrate_batch`), its rows driven by the same curves, or
        each by its own when every curve gives one value per row, (T, K, w).
        Per-row and shared curves do not mix (DimensionMismatch)."""
        *curves, length = curves_and_length
        curves = [pointwise(c, 0) for c in curves]
        rows = len(x0) if np.ndim(x0) == 2 else 1

        def inputs(t):
            values = [np.asarray(c(t), dtype=float) for c in curves]
            if not any(v.ndim == 3 for v in values):
                return np.concatenate([v.reshape(len(t), -1) for v in values], axis=1)
            if any(v.shape[:2] != (len(t), rows) or v.ndim != 3 for v in values):
                shapes = [v.shape for v in values]
                raise DimensionMismatch(f"curves gave shapes {shapes}: each must be (T, {rows}, w)")
            return np.concatenate(values, axis=2)

        run = integrate_batch if np.ndim(x0) == 2 else integrate
        return run(
            self.field, x0, length, self.grid_step, shift, self.labels,
            inputs if curves else None,
        )

    def membership(self, e: Trajectory) -> float:
        if self.labels is not None and e.labels != tuple(self.labels):
            return float("inf")
        inputs = len(self.labels) - self.field.dimension if self.labels else 0
        dynamics = membership_residual(self.field, e, self.grid_step, inputs)
        if self.side_residuals is None:
            return dynamics
        return with_conditions(dynamics, self.side_residuals(e))

    @property
    def audit_table(self) -> tuple:
        """One row: the driven run's membership, within the tolerance."""
        return (AuditRow("membership", lambda run, _: self.membership(run), self.tolerance),)
