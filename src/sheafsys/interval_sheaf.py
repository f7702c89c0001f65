"""Intervals, sampled trajectories, and behavior sheaves.

The base category has the nonnegative reals as objects and translations as
morphisms: the morphisms from a to b form the interval [0, b - a] (empty when
b < a) and compose by adding offsets.  A behavior assigns to each interval
length a set of trajectories and to each morphism a restriction map; here a
morphism is the (new_length, offset) pair that :func:`restrict` takes.  On a
uniform grid both sheaf axioms reduce to index arithmetic on the sample
arrays, so the laws can be tested bit-exactly instead of approximately.
Gluing is tested; separation follows from it, because two windows that
glue back to a trajectory bit-exactly cover every one of its nodes (see
:func:`check_sheaf_axioms`).

Two equality regimes are used throughout: ``identical`` (bit-exact, for the
categorical laws) and ``sup_distance`` against a tolerance (for membership
and junction tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    GridMismatch,
    JunctionMismatch,
    MisalignedOffset,
    NotAMember,
    OutOfRange,
    ShiftMismatch,
)

#: relative tolerance for deciding whether an offset sits on the grid
GRID_ALIGN_RTOL = 1e-12

#: default tolerance for junction and membership comparisons
DEFAULT_TOLERANCE = 1e-9

#: default grid step (time units)
DEFAULT_STEP = 1e-3

#: rows formatted at a time by write_csv, which bounds its memory
CSV_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# trajectories


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled curve on [0, length] together with a time-shift tag.

    Parameters
    ----------
    values : array, shape (num_nodes, n)
        One state vector per grid node 0, h, 2h, ..., length.  The array is
        copied and frozen; n = 0 is allowed.
    grid_step : float
        Uniform node spacing h > 0.
    shift : float
        The time-shift tag.  A trajectory with shift theta represents the
        curve t -> x(t) observed from absolute time t - theta.
    labels : tuple of str
        Channel names, one per state component.

    The interval length is derived from the node count, so restriction and
    glue round trips reproduce lengths bit-exactly.
    """

    values: np.ndarray
    grid_step: float = DEFAULT_STEP
    shift: float = 0.0
    labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, np.newaxis]
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise GridMismatch(f"values must be a (num_nodes, n) array, got shape {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not (self.grid_step > 0.0):
            raise GridMismatch(f"grid step must be positive, got {self.grid_step}")
        labels = self.labels
        if labels is None:
            labels = _default_labels(vals.shape[1])
        labels = tuple(str(name) for name in labels)
        if len(labels) != vals.shape[1]:
            raise GridMismatch(
                f"{len(labels)} labels for {vals.shape[1]} channels"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> float:
        return (self.num_nodes - 1) * self.grid_step

    @property
    def times(self) -> np.ndarray:
        """Grid node times 0, h, ..., length."""
        return np.arange(self.num_nodes) * self.grid_step

    @property
    def absolute_times(self) -> np.ndarray:
        """Node times minus the shift; the argument the dynamics law sees."""
        return self.times - self.shift

    def channel_indices(self, names) -> tuple[int, ...]:
        """Positions of the named channels, in the order given."""
        try:
            return tuple(self.labels.index(name) for name in names)
        except ValueError as exc:
            raise GridMismatch(f"channel not present: {exc}") from exc

    def channels(self, names) -> np.ndarray:
        return self.values[:, list(self.channel_indices(names))]

    def __repr__(self):
        return (
            f"Trajectory(nodes={self.num_nodes}, dim={self.dimension}, "
            f"step={self.grid_step:g}, shift={self.shift:g}, labels={self.labels})"
        )


def identical(a: Trajectory, b: Trajectory) -> bool:
    """Bit-exact equality, the regime for the sheaf-law tests."""
    return (
        a.grid_step == b.grid_step
        and a.shift == b.shift
        and a.labels == b.labels
        and a.values.shape == b.values.shape
        and bool(np.all(a.values == b.values))
    )


def sup_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup-norm distance over channels plus shift disagreement.

    Trajectories on different grids or with different channel counts are
    infinitely far apart.  A NaN value or shift gives a NaN distance, which
    no tolerance accepts.  Labels are not compared.
    """
    if (
        a.grid_step != b.grid_step
        or a.values.shape != b.values.shape
    ):
        return float("inf")
    return float(np.max(np.abs(a.values - b.values), initial=abs(a.shift - b.shift)))


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


def grid_count(x: float, h: float, what: str) -> int:
    """Number of grid steps in x; MisalignedOffset off the grid, OutOfRange below 0."""
    k = int(round(x / h))
    if abs(k * h - x) > GRID_ALIGN_RTOL * max(1.0, abs(x)):
        raise MisalignedOffset(f"{what} {x!r} is not a multiple of the grid step {h!r}")
    if k < 0:
        raise OutOfRange(f"{what} must be nonnegative, got {x!r}")
    return k


def restrict(e: Trajectory, new_length: float, offset: float) -> Trajectory:
    """Restriction map: drop the first `offset` of the domain, keep `new_length`.

    The shift decreases by the offset, so the absolute times seen by the
    dynamics are preserved.  Offset and length must sit on the grid
    (MisalignedOffset otherwise).
    """
    k = grid_count(offset, e.grid_step, "offset")
    m = grid_count(new_length, e.grid_step, "new length")
    if k + m > e.num_nodes - 1:
        raise OutOfRange(
            f"window offset {offset} + length {new_length} exceeds domain {e.length}"
        )
    return Trajectory(
        e.values[k : k + m + 1],
        e.grid_step,
        e.shift - k * e.grid_step,
        e.labels,
    )


def glue(left: Trajectory, right: Trajectory, tolerance: float = DEFAULT_TOLERANCE) -> Trajectory:
    """Concatenate two compatible pieces, keeping the junction node once.

    The right piece must start where the left piece ends, both in value
    (within ``tolerance``) and in shift bookkeeping: right.shift must equal
    left.shift - left.length.  A non-finite junction never matches.
    """
    if left.grid_step != right.grid_step:
        raise GridMismatch(
            f"grid steps differ: {left.grid_step} vs {right.grid_step}"
        )
    if left.dimension != right.dimension or left.labels != right.labels:
        raise GridMismatch(
            f"channel layouts differ: {left.labels} vs {right.labels}"
        )
    shift_defect = abs(right.shift - (left.shift - left.length))
    if shift_defect > tolerance:
        raise ShiftMismatch(
            f"right shift {right.shift} vs expected {left.shift - left.length} "
            f"(defect {shift_defect:.3e})"
        )
    if left.dimension > 0:
        junction = float(np.max(np.abs(left.values[-1] - right.values[0])))
    else:
        junction = 0.0
    if not junction <= tolerance:
        raise JunctionMismatch(f"junction defect {junction:.3e} exceeds {tolerance:.3e}")
    values = np.concatenate([left.values, right.values[1:]], axis=0)
    return Trajectory(values, left.grid_step, left.shift, left.labels)


# ---------------------------------------------------------------------------
# behavior sheaves


@dataclass(frozen=True)
class BehaviorSheaf:
    """A behavior family: membership residual, optional sampler.

    ``membership`` maps a trajectory to a nonnegative residual; residual at
    most ``tolerance`` counts as membership, and a NaN residual never does.
    The restriction maps are :func:`restrict`.  ``sampler``, when present,
    generates members from initial data.  The behavior of a vector field,
    :class:`sheafsys.ode_behavior.OdeBehavior`, has the same three members
    and serves wherever a behavior sheaf does.
    """

    membership: Callable[[Trajectory], float]
    sampler: Optional[Callable[..., Trajectory]] = None
    tolerance: float = DEFAULT_TOLERANCE


@dataclass(frozen=True)
class CutCheck:
    """Axiom evidence for one probe at one cut point."""

    probe: int
    cut: float
    glue_exact: bool
    glue_residual: float


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CutCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.glue_exact and c.glue_residual <= self.tolerance for c in self.checks)

    def worst_glue_residual(self) -> float:
        """The largest glue residual; inf if any is not finite."""
        return worst_defect([c.glue_residual for c in self.checks])[0]


def check_sheaf_axioms(
    sheaf: BehaviorSheaf,
    probes: list[Trajectory],
    cut_points: list[float],
) -> AxiomReport:
    """Test gluing on a finite probe set; separation follows from it.

    For every probe and every cut: the glued pair of restrictions must
    reproduce the probe bit-exactly and remain a member.  Raises NotAMember
    if a probe fails membership up front.  A bit-exact glue keeps the
    probe's residual; only a glue that is not exact is measured again.

    Separation holds wherever the glue is exact.  The windows
    ``restrict(e, c, 0)`` and ``restrict(e, length - c, c)`` share node
    ``c / h`` and together cover every node of ``e``, and the left one
    carries ``e``'s exact shift.  So a probe that agrees with ``e`` within
    the tolerance on both windows agrees with it on the whole interval: the
    two are the same member.  A bit-exact glue is the evidence of that
    covering at the cut.
    """
    residuals = [float(sheaf.membership(e)) for e in probes]
    for i, residual in enumerate(residuals):
        if not residual <= sheaf.tolerance:
            raise NotAMember(
                f"probe {i} has membership residual {residual:.3e} "
                f"> tolerance {sheaf.tolerance:.3e}"
            )
    checks = []
    for i, (e, residual) in enumerate(zip(probes, residuals)):
        for cut in cut_points:
            if not (0.0 < cut < e.length):
                raise OutOfRange(
                    f"cut {cut} is not interior to probe {i} of length {e.length}"
                )
            left = restrict(e, cut, 0.0)
            right = restrict(e, e.length - cut, cut)
            glued = glue(left, right, sheaf.tolerance)
            exact = identical(glued, e)
            checks.append(CutCheck(i, cut, exact, residual if exact else float(sheaf.membership(glued))))
    return AxiomReport(tuple(checks), sheaf.tolerance)


# ---------------------------------------------------------------------------
# trajectory file format


def write_csv(e: Trajectory, path) -> None:
    """Write the trajectory with 17 significant digits (bit-exact round trip)."""
    row = ",".join(["%.17g"] * (e.dimension + 1)) + "\n"
    table = np.column_stack([e.times, e.values])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# shift={e.shift:.17g} step={e.grid_step:.17g}\n")
        fh.write(",".join(["t", *e.labels]) + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[start : start + CSV_CHUNK_ROWS].tolist()
            fh.writelines(row % tuple(values) for values in chunk)


def read_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`write_csv`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# shift="):
            raise GridMismatch(f"missing shift/step comment line in {path}")
        parts = dict(
            item.split("=", 1) for item in header[2:].split() if "=" in item
        )
        shift = float(parts["shift"])
        step = float(parts["step"])
        labels = fh.readline().strip().split(",")[1:]
        rows = [line.strip().split(",") for line in fh if line.strip()]
    values = np.array([[float(v) for v in row[1:]] for row in rows], dtype=float)
    return Trajectory(values, step, shift, tuple(labels))
