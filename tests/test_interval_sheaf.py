import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsys import (
    BehaviorSheaf,
    GridMismatch,
    JunctionMismatch,
    MisalignedOffset,
    OutOfRange,
    ShiftMismatch,
    Trajectory,
    check_sheaf_axioms,
    close_members,
    glue,
    identical,
    read_csv,
    restrict,
    sup_distance,
    write_csv,
)

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


def test_sup_distance_ignores_aux_and_labels():
    a = Trajectory(np.ones((4, 1)), H, 0.0, ("p",), aux="tag")
    b = Trajectory(np.ones((4, 1)), H, 0.0, ("q",), aux=None)
    assert sup_distance(a, b) == 0.0
    assert not close_members(a, b, 1.0)  # aux gate
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
    bumped = Trajectory(
        right.values + 1e-6, right.grid_step, right.shift, right.labels, right.aux
    )
    with pytest.raises(JunctionMismatch):
        glue(left, bumped)
    shifted = Trajectory(right.values, right.grid_step, right.shift + 0.5, right.labels)
    with pytest.raises(ShiftMismatch):
        glue(left, shifted)
    coarse = Trajectory(right.values, 2 * H, right.shift, right.labels)
    with pytest.raises(GridMismatch):
        glue(left, coarse)
    retagged = right.replace_aux("other")
    with pytest.raises(JunctionMismatch):
        glue(left, retagged)


def test_glue_tolerates_junction_noise_within_tolerance():
    e = dyadic_trajectory(21, seed=8)
    left = restrict(e, 10 * H, 0.0)
    right = restrict(e, 10 * H, 10 * H)
    bumped = Trajectory(
        right.values + 1e-12, right.grid_step, right.shift, right.labels, right.aux
    )
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
    pieces[side] = Trajectory(values, piece.grid_step, piece.shift, piece.labels, piece.aux)
    with pytest.raises(JunctionMismatch):
        glue(pieces["left"], pieces["right"])


# ---------------------------------------------------------------------------
# axiom checks


def test_axiom_check_rejects_non_members_and_bad_cuts():
    from sheafsys import NotAMember, OdeBehavior
    from sheafsys.systems import linear_field

    sheaf = OdeBehavior(linear_field(), H, 1e-4).as_behavior_sheaf()
    probes = [sheaf.sampler([1.0], 32 * H)]
    with pytest.raises(NotAMember):
        check_sheaf_axioms(sheaf, [Trajectory(np.ones((33, 1)), H)], [8 * H])
    with pytest.raises(OutOfRange):
        check_sheaf_axioms(sheaf, probes, [40 * H])


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


def test_write_csv_bytes_match_the_per_value_format(tmp_path):
    values = np.array(
        [[-0.0, 5e-324], [1e300, 1.0 / 3.0], [np.inf, -np.nan], [-1e-300, 2.0 ** -1074]]
    )
    e = Trajectory(values, 0.1, -0.3, ("a", "b"))
    path = tmp_path / "e.csv"
    write_csv(e, path)
    lines = [f"# shift={e.shift:.17g} step={e.grid_step:.17g}", "t,a,b"]
    lines += [
        ",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]) for t, row in zip(e.times, e.values)
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
