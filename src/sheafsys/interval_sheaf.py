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

import functools
import math
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

#: rows that write_csv formats with one ``%``; 1024 formatted no faster and
#: raised the peak memory of a long check-sheaf session by about 0.5 MiB
CSV_CHUNK_ROWS = 64


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
        One state vector per grid node 0, h, 2h, ..., length; n = 0 is
        allowed.  Data from outside is copied, checked and frozen, so a
        later change to the caller's array leaves the trajectory as it was.
    grid_step : float
        Uniform node spacing h > 0.
    shift : float
        The time-shift tag.  A trajectory with shift theta represents the
        curve t -> x(t) observed from absolute time t - theta.
    labels : tuple of str
        Channel names, one per state component.

    The interval length is derived from the node count, so restriction and
    glue round trips reproduce lengths bit-exactly.

    :func:`restrict` and :func:`glue` build their windows from values that
    were checked and frozen here already, without a second check: a
    restricted window shares its parent's read-only buffer, and a glued one
    freezes the array it concatenates.
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
        if not 0.0 < self.grid_step < math.inf:
            raise GridMismatch(f"grid step must be positive and finite, got {self.grid_step}")
        labels = self.labels
        if labels is None:
            labels = _default_labels(vals.shape[1])
        labels = tuple(str(name) for name in labels)
        if len(labels) != vals.shape[1]:
            raise GridMismatch(
                f"{len(labels)} labels for {vals.shape[1]} channels"
            )
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _derived(cls, values: np.ndarray, grid_step, shift, labels) -> Trajectory:
        """A trajectory of read-only float values, a step and labels taken
        from trajectories that passed the checks of ``__post_init__``."""
        e = object.__new__(cls)
        vars(e).update(values=values, grid_step=grid_step, shift=shift, labels=labels)
        return e

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
        and bool((a.values == b.values).all())
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
    return float(np.abs(a.values - b.values).max(initial=abs(a.shift - b.shift)))


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


def worst_row(values: np.ndarray) -> tuple[float, int]:
    """:func:`worst_defect` of the sup norms of the rows of an (N, k) stack.

    One flat pass, since numpy's reduction along a short last axis costs
    far more than one flat ``argmax`` (27 µs against 1.5 µs on 501 rows of
    3, on a 2-vCPU x86 VM).  The first largest |entry| lies in the first
    row of largest norm, so that row is its flat index floor-divided by k.
    An argmax that lands on a NaN or an inf looks up the first row holding
    a non-finite entry.  No entries give (0.0, 0).
    """
    magnitudes = np.abs(values)
    if not magnitudes.size:
        return 0.0, 0
    width = magnitudes.shape[-1]
    index = int(magnitudes.argmax())
    worst = float(magnitudes.flat[index])
    if not math.isfinite(worst):
        return float("inf"), int(np.flatnonzero(~np.isfinite(magnitudes))[0]) // width
    return worst, index // width


def grid_count(x: float, h: float, what: str) -> int:
    """Grid steps in x; MisalignedOffset off the grid or not finite, OutOfRange below 0."""
    q = x / h
    if not math.isfinite(q) or not abs(round(q) * h - x) <= GRID_ALIGN_RTOL * max(1.0, abs(x)):
        raise MisalignedOffset(f"{what} {x!r} is not a multiple of the grid step {h!r}")
    k = int(round(q))
    if k < 0:
        raise OutOfRange(f"{what} must be nonnegative, got {x!r}")
    return k


def restrict(e: Trajectory, new_length: float, offset: float) -> Trajectory:
    """Restriction map: drop the first `offset` of the domain, keep `new_length`.

    The shift decreases by the offset, so the absolute times seen by the
    dynamics are preserved.  Offset and length must sit on the grid
    (MisalignedOffset otherwise).

    The window's values are a read-only row slice of ``e``'s, with no copy.
    Values that are not C-contiguous, such as channels concatenated side by
    side, are copied as the public constructor copies them, so later
    products see the memory layout they always saw and keep their bits.
    """
    k = grid_count(offset, e.grid_step, "offset")
    m = grid_count(new_length, e.grid_step, "new length")
    if k + m > e.num_nodes - 1:
        raise OutOfRange(
            f"window offset {offset} + length {new_length} exceeds domain {e.length}"
        )
    return _window(e, k, m)


def _window(e: Trajectory, first: int, steps: int) -> Trajectory:
    """:func:`restrict` to the nodes ``first`` to ``first + steps``, which must
    lie in ``e``: the window given by node indices, with no check."""
    values = e.values[first : first + steps + 1]
    if not values.flags.c_contiguous:
        values = np.array(values)
        values.setflags(write=False)
    return Trajectory._derived(values, e.grid_step, e.shift - first * e.grid_step, e.labels)


def glue(left: Trajectory, right: Trajectory, tolerance: float = DEFAULT_TOLERANCE) -> Trajectory:
    """Concatenate two compatible pieces, keeping the junction node once.

    The right piece must start where the left piece ends, both in value
    (within ``tolerance``) and in shift bookkeeping: right.shift must equal
    left.shift - left.length.  A non-finite junction or shift never matches.
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
    if not shift_defect <= tolerance:
        raise ShiftMismatch(
            f"right shift {right.shift} vs expected {left.shift - left.length} "
            f"(defect {shift_defect:.3e})"
        )
    if left.dimension > 0:
        junction = float(np.abs(left.values[-1] - right.values[0]).max())
    else:
        junction = 0.0
    if not junction <= tolerance:
        raise JunctionMismatch(f"junction defect {junction:.3e} exceeds {tolerance:.3e}")
    values = np.concatenate([left.values, right.values[1:]], axis=0)
    values.setflags(write=False)
    return Trajectory._derived(values, left.grid_step, left.shift, left.labels)


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


def require_member(sheaf: BehaviorSheaf, e: Trajectory, what: str) -> float:
    """The membership residual of ``e`` in ``sheaf``, which must be within its
    tolerance: NotAMember "<what> (residual ...)" otherwise, NaN included."""
    residual = float(sheaf.membership(e))
    if not residual <= sheaf.tolerance:
        raise NotAMember(f"{what} (residual {residual:.3e})")
    return residual


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
    reproduce the probe bit-exactly and remain a member.  A probe that is
    not a member up front raises NotAMember (:func:`require_member`).  A
    bit-exact glue keeps the probe's residual; only a glue that is not exact
    is measured again.

    Separation holds wherever the glue is exact.  The windows
    ``restrict(e, c, 0)`` and ``restrict(e, length - c, c)`` share node
    ``c / h`` and together cover every node of ``e``, and the left one
    carries ``e``'s exact shift.  So a probe that agrees with ``e`` within
    the tolerance on both windows agrees with it on the whole interval: the
    two are the same member.  A bit-exact glue is the evidence of that
    covering at the cut.
    """
    residuals = [require_member(sheaf, e, f"probe {i} not in the behavior") for i, e in enumerate(probes)]
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
    chunks = _csv_rows(e.num_nodes, e.grid_step, e.dimension)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# shift={e.shift:.17g} step={e.grid_step:.17g}\n")
        fh.write(",".join(["t", *e.labels]) + "\n")
        for start, rows in zip(range(0, e.num_nodes, CSV_CHUNK_ROWS), chunks):
            fh.write(rows % tuple(e.values[start : start + CSV_CHUNK_ROWS].ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _csv_rows(num_nodes: int, grid_step: float, width: int) -> tuple[str, ...]:
    """The rows of each :func:`write_csv` chunk on one grid, the node times
    formatted and a ``%.17g`` for each of ``width`` values; one grid is kept,
    so the probes of one check format their times once."""
    row = "%.17g" + ",%%.17g" * width + "\n"
    # each chunk's node times as Trajectory.times forms them; no list of all
    # of them, which raised the peak memory of a 10001-node write by 0.2 MiB
    chunks = (
        (np.arange(start, min(start + CSV_CHUNK_ROWS, num_nodes)) * grid_step).tolist()
        for start in range(0, num_nodes, CSV_CHUNK_ROWS)
    )
    return tuple((row * len(chunk)) % tuple(chunk) for chunk in chunks)


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
