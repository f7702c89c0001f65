import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    AxiomReport,
    BehaviorSheaf,
    CutCheck,
    GridMismatch,
    JunctionMismatch,
    MisalignedOffset,
    NotAMember,
    OutOfRange,
    ShiftMismatch,
    Trajectory,
    check_sheaf_axioms,
    glue,
    identical,
    read_csv,
    restrict,
    sup_distance,
    write_csv,
)
from sheafsys.interval_sheaf import CSV_CHUNK_ROWS, require_member

H = 2.0 ** -10  # dyadic step: node times are exact floats


def dyadic_trajectory(num_nodes, dim=2, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(rng.standard_normal((num_nodes, dim)), H, shift)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_basics():
    e = Trajectory(np.arange(6.0), 0.5, shift=1.0)
    assert e.dimension == 1  # 1-D input becomes a single channel
    assert e.num_nodes == 6
    assert e.length == 2.5
    assert e.labels == ("x0",)
    assert np.allclose(e.times, 0.5 * np.arange(6))
    assert np.allclose(e.absolute_times, e.times - 1.0)


def test_trajectory_values_are_frozen():
    e = dyadic_trajectory(8)
    with pytest.raises(ValueError):
        e.values[0, 0] = 99.0


@pytest.mark.parametrize(
    "values", [np.zeros((4, 2, 1)), np.zeros((0, 2)), np.zeros(0)], ids=["3-D", "no rows", "empty 1-D"]
)
def test_a_trajectory_needs_a_two_dimensional_array_with_rows(values):
    with pytest.raises(GridMismatch, match=r"must be a \(num_nodes, n\) array"):
        Trajectory(values, H)


def test_a_trajectory_needs_one_label_per_channel():
    with pytest.raises(GridMismatch, match="1 labels for 2 channels"):
        Trajectory(np.zeros((3, 2)), H, 0.0, ("p",))


def test_channel_indices_name_a_missing_channel():
    e = Trajectory(np.zeros((3, 2)), H, 0.0, ("p", "q"))
    assert e.channel_indices(("q", "p")) == (1, 0)
    with pytest.raises(GridMismatch, match="channel not present"):
        e.channel_indices(("p", "r"))


def test_sup_distance_ignores_labels():
    a = Trajectory(np.ones((4, 1)), H, 0.0, ("p",))
    b = Trajectory(np.ones((4, 1)), H, 0.0, ("q",))
    assert sup_distance(a, b) == 0.0
    assert sup_distance(a, dyadic_trajectory(5)) == np.inf
    assert identical(a, a) and not identical(a, b)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_is_bit_exact_slicing():
    e = dyadic_trajectory(65, shift=3 * H)
    w = restrict(e, 16 * H, 8 * H)
    assert w.num_nodes == 17
    assert np.all(w.values == e.values[8:25])
    assert w.shift == e.shift - 8 * H
    # absolute times of the window nodes are preserved
    assert np.allclose(w.absolute_times, e.absolute_times[8:25], atol=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 32), st.integers(0, 32), st.integers(0, 32), st.integers(0, 1000))
def test_restrict_functoriality_bit_exact(k1, m2, k2, seed):
    # restrict twice == restrict once with added offsets, identically
    total = 80
    m1 = total - 1 - k1  # first window: nodes [k1, total)
    if k2 + m2 > m1:
        m2 = max(m1 - k2, 0)
    e = dyadic_trajectory(total, seed=seed, shift=5 * H)
    once = restrict(restrict(e, m1 * H, k1 * H), m2 * H, k2 * H)
    direct = restrict(e, m2 * H, (k1 + k2) * H)
    assert identical(once, direct)


def test_restrict_identity_window():
    e = dyadic_trajectory(33, shift=2 * H)
    assert identical(restrict(e, e.length, 0.0), e)


def test_restrict_rejects_misaligned_and_overrun():
    e = dyadic_trajectory(17)
    with pytest.raises(MisalignedOffset):
        restrict(e, 4 * H, H / 3.0)
    with pytest.raises(MisalignedOffset):
        restrict(e, 4.5 * H, 0.0)
    with pytest.raises(OutOfRange):
        restrict(e, 16 * H, 2 * H)


@pytest.mark.parametrize(
    "length, offset, match",
    [
        (4 * H, -2 * H, "offset must be nonnegative"),
        (-2 * H, 0.0, "new length must be nonnegative"),
        (17 * H, 0.0, "exceeds domain"),
    ],
)
def test_restrict_rejects_windows_outside_the_domain(length, offset, match):
    with pytest.raises(OutOfRange, match=match):
        restrict(dyadic_trajectory(17), length, offset)


@pytest.mark.parametrize(
    "length, offset",
    [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (4 * H, np.nan), (4 * H, np.inf), (4 * H, -np.inf)],
)
def test_restrict_rejects_non_finite_windows(length, offset):
    with pytest.raises(MisalignedOffset):
        restrict(dyadic_trajectory(17), length, offset)


def test_restrict_preserves_sampled_solution_values():
    # samples of 1/(1 - t) keep their absolute-time meaning after windowing
    h = 2.0 ** -8
    shift = 4 * h
    nodes = 129
    times = np.arange(nodes) * h - shift
    e = Trajectory(1.0 / (1.0 - times), h, shift)
    w = restrict(e, 32 * h, 16 * h)
    expect = 1.0 / (1.0 - w.absolute_times)
    assert np.all(w.values[:, 0] == e.values[16:49, 0])
    assert np.max(np.abs(w.values[:, 0] - expect)) == 0.0


# ---------------------------------------------------------------------------
# gluing


def test_glue_inverts_restriction_bit_exactly():
    e = dyadic_trajectory(41, shift=7 * H, seed=3)
    for cut_nodes in (1, 10, 20, 39):
        cut = cut_nodes * H
        left = restrict(e, cut, 0.0)
        right = restrict(e, e.length - cut, cut)
        assert identical(glue(left, right), e)


def test_glue_rejects_incompatible_pieces():
    e = dyadic_trajectory(21, seed=5)
    left = restrict(e, 10 * H, 0.0)
    right = restrict(e, 10 * H, 10 * H)
    bumped = Trajectory(right.values + 1e-6, right.grid_step, right.shift, right.labels)
    with pytest.raises(JunctionMismatch):
        glue(left, bumped)
    shifted = Trajectory(right.values, right.grid_step, right.shift + 0.5, right.labels)
    with pytest.raises(ShiftMismatch):
        glue(left, shifted)
    coarse = Trajectory(right.values, 2 * H, right.shift, right.labels)
    with pytest.raises(GridMismatch):
        glue(left, coarse)


def test_glue_rejects_pieces_with_other_channels():
    e = dyadic_trajectory(21, seed=6)
    left = restrict(e, 10 * H, 0.0)
    right = restrict(e, 10 * H, 10 * H)
    renamed = Trajectory(right.values, right.grid_step, right.shift, ("a", "b"))
    wider = Trajectory(np.column_stack([right.values, right.values[:, 0]]), right.grid_step, right.shift)
    for other in (renamed, wider):
        with pytest.raises(GridMismatch, match="channel layouts differ"):
            glue(left, other)


def test_glue_of_pieces_without_channels_checks_only_the_shift():
    e = Trajectory(np.zeros((9, 0)), H, 3 * H)
    left, right = restrict(e, 4 * H, 0.0), restrict(e, 4 * H, 4 * H)
    glued = glue(left, right)
    assert identical(glued, e) and glued.values.shape == (9, 0)
    with pytest.raises(ShiftMismatch):
        glue(left, Trajectory(np.zeros((5, 0)), H, right.shift + 0.5))


@pytest.mark.parametrize("step", [0.0, -H, np.nan, np.inf, -np.inf])
def test_a_trajectory_needs_a_positive_finite_grid_step(step):
    with pytest.raises(GridMismatch, match="grid step must be positive and finite"):
        Trajectory(np.zeros((3, 1)), step)


def test_glue_tolerates_junction_noise_within_tolerance():
    e = dyadic_trajectory(21, seed=8)
    left = restrict(e, 10 * H, 0.0)
    right = restrict(e, 10 * H, 10 * H)
    bumped = Trajectory(right.values + 1e-12, right.grid_step, right.shift, right.labels)
    out = glue(left, bumped, tolerance=1e-9)
    assert out.num_nodes == e.num_nodes
    # junction node comes from the left piece
    assert np.all(out.values[:11] == left.values)


@pytest.mark.parametrize(
    "side, value", [("left", np.nan), ("right", np.nan), ("left", np.inf), ("right", -np.inf)]
)
def test_glue_rejects_non_finite_junctions(side, value):
    e = dyadic_trajectory(21, seed=9)
    pieces = {"left": restrict(e, 10 * H, 0.0), "right": restrict(e, 10 * H, 10 * H)}
    piece = pieces[side]
    values = np.array(piece.values)
    values[-1 if side == "left" else 0, 1] = value  # the junction node
    pieces[side] = Trajectory(values, piece.grid_step, piece.shift, piece.labels)
    with pytest.raises(JunctionMismatch):
        glue(pieces["left"], pieces["right"])


@pytest.mark.parametrize("side", ["left", "right"])
def test_glue_rejects_a_nan_shift(side):
    pieces = {which: Trajectory(np.zeros((3, 1)), 0.1, 0.0) for which in ("left", "right")}
    pieces[side] = Trajectory(np.zeros((3, 1)), 0.1, np.nan)
    with pytest.raises(ShiftMismatch):
        glue(pieces["left"], pieces["right"])


@st.composite
def windowed_arrays(draw):
    """Values of 1-60 nodes and 0-4 channels, a random step and shift, and a
    grid-aligned window (offset k, length m steps) and cut on them."""
    nodes, dim = draw(st.integers(1, 60)), draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=nodes * dim, max_size=nodes * dim))
    h, shift = draw(st.floats(1e-6, 10.0)), draw(st.floats(-100.0, 100.0))
    k = draw(st.integers(0, nodes - 1))
    m = draw(st.integers(0, nodes - 1 - k))
    cut = draw(st.integers(0, nodes - 1))
    return np.array(values).reshape(nodes, dim), h, shift, k, m, cut


@settings(max_examples=150, deadline=None)
@given(windowed_arrays())
def test_windows_are_read_only_views_that_match_the_checked_constructor(case):
    data, h, shift, k, m, cut = case
    e = Trajectory(data, h, shift, tuple(f"c{i}" for i in range(data.shape[1])))
    window = restrict(e, m * h, k * h)
    assert identical(window, Trajectory(e.values[k : k + m + 1], h, e.shift - k * h, e.labels))
    with pytest.raises(ValueError):
        window.values[...] = 0.0
    assert window.values.size == 0 or np.shares_memory(window.values, e.values)
    glued = glue(restrict(e, cut * h, 0.0), restrict(e, e.length - cut * h, cut * h))
    assert identical(glued, e)
    with pytest.raises(ValueError):
        glued.values[...] = 0.0
    # the constructor copied the caller's array: changing it moves nothing
    kept = data.copy()
    data[...] = np.nan
    assert (e.values == kept).all() and (window.values == kept[k : k + m + 1]).all()


def test_a_window_of_values_in_another_layout_is_the_copy_the_constructor_makes():
    # column-major values, as concatenating channels side by side gives
    e = Trajectory(np.asfortranarray(dyadic_trajectory(17, dim=3).values), H)
    window = restrict(e, 8 * H, 4 * H)
    expected = Trajectory(e.values[4:13], H, e.shift - 4 * H, e.labels)
    assert identical(window, expected)
    assert window.values.strides == expected.values.strides
    assert not window.values.flags.writeable


# ---------------------------------------------------------------------------
# axiom checks


def test_axiom_check_rejects_non_members_and_bad_cuts():
    from sheafsys import NotAMember, OdeBehavior
    from sheafsys.systems import linear_field

    sheaf = OdeBehavior(linear_field(), H, 1e-4)
    probes = [sheaf.sampler([1.0], 32 * H)]
    with pytest.raises(NotAMember):
        check_sheaf_axioms(sheaf, [Trajectory(np.ones((33, 1)), H)], [8 * H])
    with pytest.raises(OutOfRange):
        check_sheaf_axioms(sheaf, probes, [40 * H])


def test_an_exact_glue_reuses_the_probe_residual():
    calls = []

    def membership(e):
        calls.append(e)
        return 0.25 * TOL

    sheaf = BehaviorSheaf(membership=membership, tolerance=TOL)
    probes = [dyadic_trajectory(33, seed=seed) for seed in range(3)]
    cuts = [8 * H, 16 * H, 24 * H]
    report = check_sheaf_axioms(sheaf, probes, cuts)
    assert calls == probes
    assert report.passed and report.worst_glue_residual() == 0.25 * TOL
    values = np.array(probes[1].values)
    values[3, 0] = np.nan  # away from every cut: each glue keeps the NaN, so none is identical
    probes[1] = Trajectory(values, H)
    calls.clear()
    report = check_sheaf_axioms(sheaf, probes, cuts)
    assert calls[:3] == probes and len(calls) == 3 + len(cuts)
    assert [c.glue_exact for c in report.checks] == [True] * 3 + [False] * 3 + [True] * 3
    assert not report.passed


# ---------------------------------------------------------------------------
# separation follows from bit-exact gluing


TOL = 1e-9
SCALES = [1.0 - 2.0 ** -20, 1.0 + 2.0 ** -20, -(1.0 + 2.0 ** -20), 0.5, 3.0]
KINDS = ["copy", "nan", "bump", "shift", "shorter"]


def reference_collisions(probes, cut, tolerance, gap=0):
    """The pairwise separation search: (i, j) for every probe j distinct
    from probe i (farther from it than the tolerance) that agrees with it, within the
    tolerance, on both windows of the cut.  ``gap`` starts the right window
    that many steps past the cut, leaving those nodes uncovered."""
    collisions = []
    for i, e in enumerate(probes):
        for j, other in enumerate(probes):
            if j == i or sup_distance(e, other) <= tolerance:
                continue
            if other.num_nodes != e.num_nodes or other.grid_step != e.grid_step:
                continue
            start = cut + gap * e.grid_step
            if all(
                sup_distance(restrict(e, length, offset), restrict(other, length, offset)) <= tolerance
                for length, offset in ((cut, 0.0), (e.length - start, start))
            ):
                collisions.append((i, j))
    return collisions


def glue_is_exact(e, cut, tolerance):
    try:
        glued = glue(restrict(e, cut, 0.0), restrict(e, e.length - cut, cut), tolerance)
    except JunctionMismatch:  # a non-finite junction node
        return False
    return identical(glued, e)


def variant(base, kind, node, scale):
    """``base`` with one difference of the given kind; ``scale`` puts a
    bump or a shift change just above (1 + 2^-20) or below (1 - 2^-20) the
    tolerance, or far from it."""
    values = np.array(base.values)
    node = node % base.num_nodes
    shift = base.shift
    if kind == "nan":
        values[node, 0] = np.nan
    elif kind == "bump":
        values[node, -1] += scale * TOL
    elif kind == "shift":
        shift += scale * TOL
    elif kind == "shorter":
        values = values[:-1]
    return Trajectory(values, base.grid_step, shift, base.labels)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(12, 24),
    st.integers(1, 3),
    st.integers(0, 1000),
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 100), st.sampled_from(SCALES)),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
)
def test_the_separation_search_finds_nothing_where_the_glue_is_exact(nodes, dim, seed, kinds, steps):
    base = dyadic_trajectory(nodes, dim, shift=8 * H, seed=seed)
    probes = [base] + [variant(base, *k) for k in kinds]
    for cut in (s * H for s in steps):
        collisions = reference_collisions(probes, cut, TOL)
        exact = [glue_is_exact(e, cut, TOL) for e in probes]
        # a collision may only sit where the glue is not exact, so never
        assert all(not exact[i] for i, _ in collisions)
        assert not collisions
        assert exact[0]


def test_the_separation_search_fires_when_the_windows_leave_a_node_uncovered():
    e = dyadic_trajectory(17)
    values = np.array(e.values)
    values[9, 1] += 1.0  # node 9 lies in the gap between the windows at cut 8
    probes = [e, Trajectory(values, H, e.shift, e.labels)]
    assert reference_collisions(probes, 8 * H, TOL, gap=2) == [(0, 1), (1, 0)]
    assert reference_collisions(probes, 8 * H, TOL) == []


# ---------------------------------------------------------------------------
# csv round trip


def test_csv_round_trip_is_identical(tmp_path):
    e = Trajectory(
        np.random.default_rng(11).standard_normal((19, 3)) * 1e3,
        1e-3,
        shift=0.125,
        labels=("q", "p", "zeta0"),
    )
    path = tmp_path / "run.csv"
    write_csv(e, path)
    back = read_csv(path)
    assert identical(back, e)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# shift=") and "step=" in first
    assert path.read_text().splitlines()[1] == "t,q,p,zeta0"


def per_value_csv(e: Trajectory) -> bytes:
    """The CSV of ``e`` formatted one value at a time."""
    lines = [f"# shift={e.shift:.17g} step={e.grid_step:.17g}", ",".join(("t",) + e.labels)]
    lines += [
        ",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]) for t, row in zip(e.times, e.values)
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_write_csv_bytes_match_the_per_value_format(tmp_path):
    values = np.array(
        [[-0.0, 5e-324], [1e300, 1.0 / 3.0], [np.inf, -np.nan], [-1e-300, 2.0 ** -1074]]
    )
    e = Trajectory(values, 0.1, -0.3, ("a", "b"))
    path = tmp_path / "e.csv"
    write_csv(e, path)
    assert path.read_bytes() == per_value_csv(e)


def test_write_csv_bytes_across_chunks_match_the_per_value_format(tmp_path):
    # one row format repeated over a chunk: the values around the chunk
    # boundary, and in the last, short chunk, land in their own rows
    values = np.random.default_rng(5).standard_normal((2 * CSV_CHUNK_ROWS + 3, 3))
    specials = [-0.0, np.inf, -np.inf, np.nan, -0.0, 5e-324]
    for i, v in enumerate(specials):
        values[CSV_CHUNK_ROWS - 3 + i, i % 3] = v
    values[0, 0], values[-1, 2] = -0.0, np.nan
    e = Trajectory(values, 1e-3, 0.25, ("q", "p", "u0"))
    path = tmp_path / "e.csv"
    write_csv(e, path)
    assert path.read_bytes() == per_value_csv(e)


# ---------------------------------------------------------------------------
# NaN never passes for small


def test_a_nan_shift_gap_is_a_nan_distance():
    a = dyadic_trajectory(9)
    b = Trajectory(a.values, H, float("nan"), a.labels)
    assert np.isnan(sup_distance(a, b)) and np.isnan(sup_distance(b, a))
    assert not sup_distance(a, b) <= 1e-9
    assert sup_distance(a, restrict(a, 8 * H, 0.0)) == 0.0


def test_axiom_check_rejects_a_nan_membership():
    sheaf = BehaviorSheaf(membership=lambda e: float("nan"))
    with pytest.raises(NotAMember, match=r"^probe 0 not in the behavior \(residual nan\)$"):
        check_sheaf_axioms(sheaf, [dyadic_trajectory(33)], [8 * H])


def test_require_member_returns_the_residual_or_names_the_failure():
    e = dyadic_trajectory(9)
    assert require_member(BehaviorSheaf(lambda e: 0.5, tolerance=0.5), e, "probe") == 0.5
    for residual, shown in ((0.75, "7.500e-01"), (float("nan"), "nan"), (float("inf"), "inf")):
        with pytest.raises(NotAMember, match=rf"^probe 3 is out \(residual {shown}\)$"):
            require_member(BehaviorSheaf(lambda e: residual, tolerance=0.5), e, "probe 3 is out")


def test_worst_glue_residual_is_infinite_at_a_nan():
    checks = tuple(CutCheck(0, 8 * H, True, r) for r in (1.0, float("nan"), 0.5))
    report = AxiomReport(checks, 1e-9)
    assert report.worst_glue_residual() == np.inf
    assert not report.passed
    assert AxiomReport(checks[::2], 2.0).worst_glue_residual() == 1.0
