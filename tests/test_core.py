from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    MarkerGrid,
    RotationEstimate,
    SoftnessParams,
    UsageError,
    neighbor_indices,
)
from pivotgauge.core import MAX_MARKERS


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


def test_reference_positions_exactly_affine():
    grid = MarkerGrid(rows=7, cols=5, pitch=0.31, origin=(1.25, -4.5))
    pos = grid.reference_positions
    for i in (0, 3, 6):
        for j in (0, 2, 4):
            idx = grid.index_of(i, j)
            assert pos[idx, 0] == 1.25 + j * 0.31
            assert pos[idx, 1] == -4.5 + i * 0.31


def test_neighbor_indices_interior_marker():
    grid = MarkerGrid(rows=3, cols=3)
    assert neighbor_indices(grid, 4) == (3, 5, 1, 7)


def test_neighbor_indices_corner_marker():
    grid = MarkerGrid(rows=3, cols=3)
    assert neighbor_indices(grid, 0) == (None, 1, None, 3)


def test_neighbor_indices_out_of_range():
    grid = MarkerGrid(rows=3, cols=3)
    with pytest.raises(UsageError):
        neighbor_indices(grid, 9)
    with pytest.raises(UsageError):
        neighbor_indices(grid, -1)


@given(
    rows=st.integers(min_value=2, max_value=30),
    cols=st.integers(min_value=2, max_value=30),
)
def test_neighbor_indices_match_row_col_definition(rows, cols):
    grid = MarkerGrid(rows=rows, cols=cols)
    for index in range(grid.n_markers):
        i, j = grid.row_col(index)
        expected = tuple(
            grid.index_of(r, c) if 0 <= r < rows and 0 <= c < cols else None
            for r, c in ((i, j - 1), (i, j + 1), (i - 1, j), (i + 1, j))
        )
        assert neighbor_indices(grid, index) == expected


@given(
    rows=st.integers(min_value=2, max_value=30),
    cols=st.integers(min_value=2, max_value=30),
    data=st.data(),
)
def test_index_row_col_round_trip(rows, cols, data):
    grid = MarkerGrid(rows=rows, cols=cols)
    index = data.draw(st.integers(min_value=0, max_value=rows * cols - 1))
    i, j = grid.row_col(index)
    assert grid.index_of(i, j) == index
    assert 0 <= i < rows and 0 <= j < cols


def test_frame_validates_shape_and_finiteness():
    with pytest.raises(UsageError):
        Frame(0.0, np.zeros((4, 2)))
    bad = np.zeros((4, 3))
    bad[1, 2] = np.nan
    with pytest.raises(UsageError):
        Frame(0.0, bad)


def test_frame_is_read_only():
    frame = Frame(0.0, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        frame.displacements[0, 0] = 1.0


def test_contact_mask_invariants():
    flags = np.array([True, False, True])
    with pytest.raises(UsageError):
        ContactMask(flags=flags, contact_detected=False, center_index=0)
    with pytest.raises(UsageError):
        ContactMask(flags=flags, contact_detected=True, center_index=1)
    mask = ContactMask(flags=flags, contact_detected=True, center_index=2)
    assert mask.n_flagged == 2


def test_softness_rejects_negative_ratio():
    with pytest.raises(UsageError):
        SoftnessParams(k=-0.1)
    assert SoftnessParams() == SoftnessParams(k=0.0, l_xy=0.0, l_yx=0.0)


def test_rotation_estimate_invariants():
    with pytest.raises(UsageError):
        RotationEstimate(theta=1.0, state=ContactState.NO_CONTACT, stick_ratio=0.0)
    with pytest.raises(UsageError):
        RotationEstimate(theta=float("nan"), state=ContactState.STICK, stick_ratio=1.0)
