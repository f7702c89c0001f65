"""Behaviors of ordinary differential equations on uniform grids.

A vector field f on R^n induces a behavior whose members over [0, length]
are the sampled solutions of x' = f(t - shift, x).  Membership is decided by
a finite-difference residual: differentiate the samples with the grid
stencils and compare against f at every node.  The stencils are chosen so
that membership survives restriction: the one-sided end formulas are one
order more accurate than the centered interior ones, hence restriction can
only turn interior nodes into end nodes without raising the residual.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class VectorField:
    """A time-dependent vector field on R^n.

    Parameters
    ----------
    dimension : int
        State dimension n.
    rhs : callable
        Maps (t, x) with x of shape (n,) to the derivative, shape (n,).
    description : str
        Human-readable note used in reports.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    description: str = ""

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.rhs(t, np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dimension,):
            raise DimensionMismatch(
                f"rhs returned shape {out.shape}, expected ({self.dimension},)"
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
    h = float(grid_step)
    if h <= 0:
        raise GridMismatch(f"grid step must be positive, got {grid_step}")
    steps = int(round(length / h))
    if abs(steps * h - length) > 1e-12 * max(1.0, abs(length)):
        raise GridMismatch(f"length {length} is not a multiple of the step {h}")

    def g(t, x):
        return field(t - shift, x)

    nodes = np.empty((steps + 1, field.dimension))
    nodes[0] = x0
    x = x0
    for i in range(steps):
        t = i * h
        k1 = g(t, x)
        k2 = g(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = g(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = g(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > BLOWUP_THRESHOLD:
            truncated = Trajectory(nodes[: i + 1].copy(), h, shift, labels, aux)
            raise BlowUp(i * h, truncated)
        nodes[i + 1] = x
    return Trajectory(nodes, h, shift, labels, aux)


def worst_defect(defects) -> tuple[float, int]:
    """The largest of some nonnegative node defects and its first node; inf
    at the first non-finite defect, so a NaN never passes for a small
    number.  No defects give (0.0, 0)."""
    defects = np.asarray(defects, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(defects))
    if bad.size:
        return float("inf"), int(bad[0])
    if not defects.size:
        return 0.0, 0
    node = int(np.argmax(defects))
    return float(defects[node]), node


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
    return worst_defect(
        [np.max(np.abs(d[i] - field(t, e.values[i]))) for i, t in enumerate(e.absolute_times)]
    )[0]


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
