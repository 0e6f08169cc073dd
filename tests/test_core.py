from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    FrameResult,
    LineFeatureAngles,
    MarkerGrid,
    SegmentationConfig,
    SoftnessParams,
    StickRegion,
    UsageError,
    baseline_least_squares,
    detect_contact,
    line_feature_angles,
)
from pivotgauge.core import (
    MAX_DISPLACEMENT_MM,
    MAX_GRID_MM,
    MAX_MARKERS,
    MIN_PITCH_MM,
    finite_pair,
)
from pivotgauge.segmentation import NO_CONTACT_REGION, _component, _distance_order
from conftest import half_curl


def test_grid_defaults_centered():
    grid = MarkerGrid()
    assert grid.rows == grid.cols == 20
    assert grid.origin == (-9.5, -9.5)
    center = grid.reference_positions.mean(axis=0)
    assert np.allclose(center, [0.0, 0.0])


def test_grid_rejects_degenerate_shapes():
    with pytest.raises(UsageError):
        MarkerGrid(rows=1, cols=5)
    with pytest.raises(UsageError):
        MarkerGrid(rows=5, cols=1)
    with pytest.raises(UsageError):
        MarkerGrid(pitch=0.0)
    for kwargs in ({"rows": 2.5}, {"cols": "20"}, {"origin": (1.0,)}, {"origin": ("a", "b")},
                   {"origin": (float("nan"), 0.0)}, {"rows": 2, "cols": MAX_MARKERS // 2 + 1}):
        with pytest.raises(UsageError):
            MarkerGrid(**kwargs)
    grid = MarkerGrid(rows=4.0, cols=np.int64(3))
    assert (grid.rows, grid.cols) == (4, 3) and type(grid.rows) is type(grid.cols) is int


def test_grid_rejects_ints_beyond_float_range():
    with pytest.raises(UsageError, match="grid.pitch must be a finite number"):
        MarkerGrid(pitch=10**400)
    with pytest.raises(UsageError, match="origin must be two finite numbers"):
        MarkerGrid(origin=(10**400, 0))


def test_grid_pitch_and_origin_lie_within_a_kilometre():
    assert MarkerGrid(pitch=MAX_GRID_MM, rows=2, cols=2, origin=(-MAX_GRID_MM, MAX_GRID_MM))
    with pytest.raises(UsageError, match=r"^grid.pitch must be at most 1e\+06 mm, got 1e\+200$"):
        MarkerGrid(pitch=1e200)
    for origin in ((math.nextafter(MAX_GRID_MM, math.inf), 0.0), (0.0, -1e300)):
        with pytest.raises(UsageError, match=r"^grid.origin must lie within \+-1e\+06 mm"):
            MarkerGrid(origin=origin)
    # The centred default origin too: a header written for the grid reads back.
    with pytest.raises(UsageError, match=r"grid.origin must lie within .* got \(-1500000.0, "):
        MarkerGrid(rows=2, cols=4, pitch=MAX_GRID_MM)


def test_grid_pitch_is_at_least_a_nanometre():
    assert MarkerGrid(pitch=MIN_PITCH_MM).pitch == MIN_PITCH_MM
    for pitch in (math.nextafter(MIN_PITCH_MM, 0.0), 5e-324, 0.0, -1.0):
        with pytest.raises(UsageError, match=r"^grid.pitch must be at least 1e-06 mm, got "):
            MarkerGrid(pitch=pitch)


def test_finite_pair_rejects_ints_beyond_float_range():
    with pytest.raises(UsageError, match="cor must be two finite numbers"):
        finite_pair([10**400, 0], "cor")
    assert finite_pair([10**300, 0], "cor") == (1e300, 0.0)


def test_reference_positions_exactly_affine():
    grid = MarkerGrid(rows=7, cols=5, pitch=0.31, origin=(1.25, -4.5))
    pos = grid.reference_positions
    for i in (0, 3, 6):
        for j in (0, 2, 4):
            idx = i * grid.cols + j
            assert pos[idx, 0] == 1.25 + j * 0.31
            assert pos[idx, 1] == -4.5 + i * 0.31


def test_neighbor_indices_interior_marker():
    grid = MarkerGrid(rows=3, cols=3)
    assert grid.neighbors[4] == (3, 5, 1, 7)


def test_neighbor_indices_corner_marker():
    # Only the sides inside the grid: no placeholder for a missing one.
    grid = MarkerGrid(rows=3, cols=3)
    assert grid.neighbors[0] == (1, 3)
    assert grid.neighbors[8] == (7, 5)


@given(
    rows=st.integers(min_value=2, max_value=30),
    cols=st.integers(min_value=2, max_value=30),
)
def test_neighbor_indices_match_row_col_definition(rows, cols):
    grid = MarkerGrid(rows=rows, cols=cols)
    assert len(grid.neighbors) == rows * cols
    for index, neighbors in enumerate(grid.neighbors):
        i, j = divmod(index, cols)
        # Left, right, up (the previous row), down; those off the grid left out.
        expected = tuple(
            r * cols + c
            for r, c in ((i, j - 1), (i, j + 1), (i - 1, j), (i + 1, j))
            if 0 <= r < rows and 0 <= c < cols
        )
        assert neighbors == expected


def test_neighbor_table_shares_one_int_per_index():
    # An index beyond 256 made by arithmetic is a new int object at every
    # entry; the table holds one object per index.
    grid = MarkerGrid(rows=20, cols=20)
    tracemalloc.start()
    try:
        table = grid.neighbors
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = [index for neighbors in table for index in neighbors]
    assert len(set(map(id, entries))) == len(set(entries)) == grid.n_markers
    assert held < 40 * 1024


@pytest.mark.parametrize(
    "grid, dtype",
    [
        (MarkerGrid(), np.uint16),
        # Off-centre: position differences round, so mirror markers can differ in distance.
        (MarkerGrid(rows=7, cols=9, pitch=0.7, origin=(123.456, -98.7)), np.uint8),
        (MarkerGrid(rows=300, cols=300, pitch=1.3, origin=(-4.1e5, 7.7e5)), np.uint32),
    ],
)
def test_distance_order_is_a_kept_stable_argsort(grid, dtype):
    _distance_order.cache_clear()
    pos, n = grid.reference_positions, grid.n_markers
    kept_keys = _distance_order.cache_info().maxsize
    centers = list(range(0, n, n // (kept_keys + 1)))[: kept_keys + 1]
    kept = {}
    for center in centers:
        rank, order = kept[center] = _distance_order(grid, center)
        cx, cy = pos[center].tolist()
        fresh = np.argsort(np.hypot(pos[:, 0] - cx, pos[:, 1] - cy), kind="stable")
        assert order.dtype == rank.dtype == dtype
        assert np.array_equal(order, fresh) and np.array_equal(rank[fresh], np.arange(n))
        assert not (rank.flags.writeable or order.flags.writeable)
        assert _distance_order(grid, center) is kept[center]
    # Nine centres asked for: the first was dropped, the other eight are kept.
    first, *rest = centers
    for center in reversed(rest):
        assert _distance_order(grid, center) is kept[center]
    again = _distance_order(grid, first)
    assert again is not kept[first]
    assert all(np.array_equal(a, b) for a, b in zip(again, kept[first]))


def test_component_is_the_kept_admissible_component_of_its_centre():
    _component.cache_clear()
    grid = MarkerGrid(rows=3, cols=4)
    # Two components: the left column with the top row, and the right column.
    admissible = np.zeros(12, dtype=bool)
    admissible[[0, 1, 2, 4, 8, 7, 11]] = True
    key = admissible.tobytes()
    index = _component(grid, 8, key)
    assert index.tolist() == [0, 1, 2, 4, 8]
    assert index.dtype == np.intp and not index.flags.writeable
    assert _component(grid, 1, key).tolist() == index.tolist()
    assert _component(grid, 11, key).tolist() == [7, 11]
    assert _component(grid, 8, key) is index
    # Eight more (centre, admissible set) pairs drop the least recently asked for.
    for center in range(_component.cache_info().maxsize):
        _component(grid, center, np.ones(12, dtype=bool).tobytes())
    again = _component(grid, 8, key)
    assert again.tolist() == index.tolist() and again is not index


def test_equal_grids_share_one_kept_entry():
    _distance_order.cache_clear()
    _component.cache_clear()
    # Equal values, built from other numbers: a signed zero and a whole float.
    grid = MarkerGrid(rows=3, cols=4, origin=(0.0, 0.0))
    twin = MarkerGrid(rows=3.0, cols=np.int64(4), pitch=1, origin=(-0.0, -0.0))
    assert twin is not grid and twin == grid
    order = _distance_order(grid, 5)
    assert _distance_order(twin, 5) is order
    pos = twin.reference_positions
    fresh = np.argsort(np.hypot(pos[:, 0] - pos[5, 0], pos[:, 1] - pos[5, 1]), kind="stable")
    assert np.array_equal(order[1], fresh)
    key = np.ones(12, dtype=bool).tobytes()
    assert _component(twin, 5, key) is _component(grid, 5, key)
    assert _distance_order.cache_info().currsize == _component.cache_info().currsize == 1
    assert _distance_order(MarkerGrid(rows=4, cols=3), 5) is not order


def test_an_entry_asked_for_again_survives_a_ninth_key():
    _distance_order.cache_clear()
    grid = MarkerGrid(rows=4, cols=4)
    limit = _distance_order.cache_info().maxsize
    kept = [_distance_order(grid, center) for center in range(limit)]
    assert _distance_order(grid, 0) is kept[0]  # now the most recently used
    _distance_order(grid, limit)  # a ninth key drops centre 1, the least recently used
    assert _distance_order(grid, 0) is kept[0]
    assert _distance_order(grid, 1) is not kept[1]


def test_frame_validates_shape_and_finiteness():
    with pytest.raises(UsageError):
        Frame(0.0, np.zeros((4, 2)))
    bad = np.zeros((4, 3))
    bad[1, 2] = np.nan
    with pytest.raises(UsageError):
        Frame(0.0, bad)


def test_frame_holds_every_component_within_the_bound():
    edge = np.full((4, 3), MAX_DISPLACEMENT_MM)
    edge[1] = -MAX_DISPLACEMENT_MM
    assert np.array_equal(Frame(0.0, edge).displacements, edge)
    beyond = (math.nextafter(MAX_DISPLACEMENT_MM, math.inf), -1e308, 1e308, math.inf, math.nan)
    for value in beyond:
        d = np.zeros((4, 3))
        d[2, 1] = value
        for given in (d, d.tolist()):
            with pytest.raises(UsageError, match=r"^displacements must lie within \+-1e\+06 mm$"):
                Frame(0.0, given)
    with pytest.raises(UsageError, match=r"^displacements must be \(n, 3\), got shape \(0, 3\)$"):
        Frame(0.0, np.zeros((0, 3)))


def test_one_grid_check_for_every_per_marker_record():
    grid = MarkerGrid(rows=4, cols=4)
    frame = Frame(0.0, np.zeros((9, 3)))
    mask = ContactMask(np.ones(16, dtype=bool), center_index=0)
    message = r"^frame has shape \(9,\), grid expects \(16,\)$"
    for call in (
        lambda: line_feature_angles(grid, frame),
        lambda: detect_contact(grid, frame, SegmentationConfig()),
        lambda: half_curl(grid, frame, frame),  # the curl oracle checks its grid alike
        lambda: baseline_least_squares(grid, frame, mask),
    ):
        with pytest.raises(UsageError, match=message):
            call()
    with pytest.raises(UsageError, match=r"^contact mask has shape \(4,\), grid expects \(16,\)$"):
        grid.require("contact mask", (4,))
    grid.require("angle record", (16,))


def test_angle_record_checks_its_own_arrays():
    with pytest.raises(UsageError, match="^angles and valid must have matching shapes$"):
        LineFeatureAngles(np.zeros(4), np.ones(3, dtype=bool))
    for value in (math.nan, math.inf, -1e308, math.nextafter(180.0, math.inf)):
        with pytest.raises(UsageError, match="^valid angles must be finite and lie within "
                                             r"\+-180 degrees$"):
            LineFeatureAngles(np.array([0.0, value]), np.array([True, True]))
    # An invalid entry may hold anything: it is never read.
    assert LineFeatureAngles(np.array([0.0, math.nan]), np.array([True, False])).valid[0]
    assert LineFeatureAngles(np.array([-180.0, 180.0]), np.array([True, True])).valid.all()


def test_regions_refuse_a_mean_angle_beyond_180_degrees_or_a_state_of_another_type():
    for mean in (math.nan, math.inf, -1e308, math.nextafter(-180.0, -math.inf), 181, True, "1"):
        with pytest.raises(UsageError, match="^mean_angle must"):
            StickRegion([0], mean, ContactState.STICK, 1.0)
    for mean in (-180.0, 180, np.float32(-3.5)):
        assert StickRegion([0], mean, ContactState.STICK, 1.0).mean_angle == mean
    for state in ("Stick", None, 1):
        with pytest.raises(UsageError, match="^a region's state must be a ContactState"):
            StickRegion([0], 1.0, state, 1.0)
    # Growth can no longer be handed angles whose mean overflows.
    with pytest.raises(UsageError, match="^valid angles must"):
        LineFeatureAngles(np.full(9, 1e308), np.ones(9, dtype=bool))


def test_frame_refuses_non_finite_timestamp():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match="timestamp must be a finite number"):
            Frame(t, np.zeros((4, 3)))


def test_frame_is_read_only():
    frame = Frame(0.0, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        frame.displacements[0, 0] = 1.0


def test_frame_copies_the_array_it_is_given():
    for given in (np.zeros((4, 3)), np.zeros((4, 3), order="F"), np.zeros((4, 3), np.float32)):
        frame = Frame(0.0, given)
        given[0, 0] = 1.0  # the caller's array stays writable and its own
        assert frame.displacements[0, 0] == 0.0
        assert frame.displacements.flags.c_contiguous and frame.displacements.dtype == float


def test_contact_mask_invariants():
    flags = np.array([True, False, True])
    with pytest.raises(UsageError):
        ContactMask(flags=flags, center_index=1)
    mask = ContactMask(flags=flags, center_index=2)
    assert mask.n_flagged == 2
    assert mask.contact_detected
    assert not ContactMask(flags).contact_detected


def test_contact_mask_center_index_is_a_whole_index_into_the_flags():
    flags = np.array([True, True, False, True])
    # -1 would index from the end, True would be read as 1.
    for index in (-1, len(flags), True, 2.5):
        with pytest.raises(UsageError, match="^center_index must "):
            ContactMask(flags, center_index=index)
    for index in (0, 3, 3.0, np.int64(3)):
        center = ContactMask(flags, center_index=index).center_index
        assert center == index and type(center) is int


def test_contact_mask_flags_are_one_dimensional():
    for flags in (np.ones((2, 2), dtype=bool), None, True):
        for center in (None, 0):
            with pytest.raises(UsageError, match="^contact flags must be 1-d, got shape "):
                ContactMask(flags, center_index=center)


def test_masks_and_angle_records_keep_arrays_that_cannot_change():
    base = np.ones(8, dtype=bool)
    mask = ContactMask(base[:4], center_index=0)
    base[0] = False  # a view's base is still writable
    assert mask.flags[mask.center_index] and not mask.flags.flags.writeable
    angle_base = np.zeros((2, 4))
    record = LineFeatureAngles(angle_base[0], base[4:])
    angle_base[0, 0] = math.nan  # would get round the finiteness check
    assert record.angles[0] == 0.0 and record.valid.all()
    assert not (record.angles.flags.writeable or record.valid.flags.writeable)
    # An array of its own, as every kernel makes, is kept and made read-only, not copied.
    angles, valid, flags = np.zeros(4), np.ones(4, dtype=bool), np.ones(4, dtype=bool)
    record = LineFeatureAngles(angles, valid)
    assert record.angles is angles and record.valid is valid and not angles.flags.writeable
    assert ContactMask(flags).flags is flags and not flags.flags.writeable


def test_softness_rejects_negative_ratio():
    with pytest.raises(UsageError):
        SoftnessParams(k=-0.1)
    assert SoftnessParams() == SoftnessParams(k=0.0, l_xy=0.0, l_yx=0.0)


def test_frame_result_holds_each_fact_once():
    flags = np.ones(4, dtype=bool)
    no_contact, contact = ContactMask(~flags), ContactMask(flags, center_index=0)
    angles = LineFeatureAngles(np.zeros(4), flags)
    stick = StickRegion([0, 1, 2, 3], -5.0, ContactState.STICK, 1.0)
    # A no-contact frame counted as contact with theta = 5 by the filter.
    with pytest.raises(UsageError, match="^theta must be 0 when no contact is detected$"):
        FrameResult(5.0, no_contact, None, NO_CONTACT_REGION)
    for mask, record, region in ((no_contact, None, stick), (contact, angles, NO_CONTACT_REGION)):
        with pytest.raises(UsageError, match="region is NoContact exactly without contact"):
            FrameResult(0.0, mask, record, region)
    for theta in (math.nan, math.inf, True, "5", None):
        with pytest.raises(UsageError, match="^frame result theta must be a finite number"):
            FrameResult(theta, contact, angles, stick)
    for theta in (5, np.float32(5.0)):
        held = FrameResult(theta, contact, angles, stick).theta
        assert held == 5.0 and type(held) is float
    assert FrameResult(0, no_contact, None, NO_CONTACT_REGION).theta == 0.0


def test_regions_refuse_a_ratio_or_a_no_contact_they_cannot_have():
    for ratio in (-0.1, 1.5, math.nan, "0.5", None):
        with pytest.raises(UsageError, match="^stick_ratio must"):
            StickRegion([0], 1.0, ContactState.STICK, ratio)
    for members, mean, ratio in (([0], 0.0, 0.0), ([], 0.0, 0.5),
                                 ([], 3.0, 0.0), ([], math.nan, 0.0)):
        with pytest.raises(UsageError, match="^a NoContact region has no members"):
            StickRegion(members, mean, ContactState.NO_CONTACT, ratio)
    for ratio in (0, 0.0, 1, 1.0):
        assert StickRegion([0], -2.0, ContactState.STICK, ratio).stick_ratio == ratio
    empty = StickRegion([], 0.0, ContactState.NO_CONTACT, 0.0)
    assert empty.members.tolist() == NO_CONTACT_REGION.members.tolist() == []


def test_frame_result_refuses_records_of_different_grids_and_a_wrong_ratio():
    flags = np.ones(4, dtype=bool)
    contact = ContactMask(flags, center_index=0)
    angles16 = LineFeatureAngles(np.zeros(16), np.ones(16, dtype=bool))
    # A 4-marker mask, a 16-marker angle record and 2 members where 4 are flagged.
    region = StickRegion([0, 3], -1.0, ContactState.STICK, 0.25)
    with pytest.raises(UsageError, match=r"angle record has shape \(16,\), its mask \(4,\)$"):
        FrameResult(1.0, contact, angles16, region)
    angles = LineFeatureAngles(np.zeros(4), flags)
    with pytest.raises(UsageError, match="stick ratio must be 2 members / 4 flagged, got 0.25"):
        FrameResult(1.0, contact, angles, region)
    partial = ContactMask(np.array([True, True, True, False]), center_index=1)
    assert partial.n_flagged == 3 and type(partial.n_flagged) is int
    for members in ([], [1], [0, 1, 2]):
        ratio = len(members) / 3
        state = ContactState.MACRO_SLIP if len(members) < 3 else ContactState.STICK
        result = FrameResult(1.0, partial, angles, StickRegion(members, -1.0, state, ratio))
        assert result.region.stick_ratio == ratio
        # The ratio is the one division growth makes, so one ulp off is refused.
        for wrong in ((ratio + 0.25) % 1.0, math.nextafter(ratio, 0.5)):
            with pytest.raises(UsageError, match="stick ratio must be"):
                FrameResult(1.0, partial, angles, StickRegion(members, -1.0, state, wrong))


def test_frame_result_refuses_a_stick_member_outside_its_mask():
    # One flagged marker of four, a ratio of 1.0 and a member index beyond the grid.
    contact = ContactMask(np.array([False, True, False, False]), center_index=1)
    angles = LineFeatureAngles(np.zeros(4), np.ones(4, dtype=bool))
    region = StickRegion([7], -1.0, ContactState.STICK, 1.0)
    with pytest.raises(UsageError, match="^a frame result's stick member 7 lies outside its "
                                         "4-marker mask$"):
        FrameResult(1.0, contact, angles, region)
    FrameResult(1.0, contact, angles, StickRegion([3], -1.0, ContactState.STICK, 1.0))


@pytest.mark.parametrize("members, held", [
    ([], []), ((), []), ([3], [3]), ((0, 2, 5), [0, 2, 5]), (np.arange(3), [0, 1, 2]),
    (np.array([1, 7], dtype=np.int32), [1, 7]), (np.arange(6, dtype=np.uint8)[::2], [0, 2, 4]),
    # Refused: floats, which would truncate, a bool mask, 2-d input, a
    # duplicate, a descending or negative index, and sets, which have no order.
    ([0.5], None), (np.array([1.0, 2.0]), None), (np.array([True, False, True]), None),
    ([[0, 1]], None), (np.arange(4).reshape(2, 2), None), ([1, 1], None), ([2, 1], None),
    ([-1, 2], None), ({1, 2}, None), (frozenset({1, 2}), None), (frozenset(), None),
])
def test_stick_members_are_an_ascending_index_array(members, held):
    if held is None:
        with pytest.raises(UsageError, match="^stick members must"):
            StickRegion(members, 1.0, ContactState.STICK, 0.5)
        return
    region = StickRegion(members, 1.0, ContactState.STICK, 0.5)
    assert region.members.dtype == np.intp and not region.members.flags.writeable
    if isinstance(members, np.ndarray) and members.flags.writeable:
        members[...] = 0  # a view or another dtype: the region holds its own copy
    assert region.members.tolist() == held
