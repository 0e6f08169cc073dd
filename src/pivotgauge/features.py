"""Line-feature angles and curl estimates of marker displacement fields.

The per-marker line-feature angle is the mean signed rotation of the
segments joining a marker to its 4-neighbours, comparing the deformed
segment direction against the reference direction. It responds to local
rotation of the field while being exactly invariant to uniform
translation, which is what makes it usable for pivot measurement.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Frame, LineFeatureAngles, MarkerGrid

# Segment shorter than this fraction of the pitch is considered collapsed.
DEGENERATE_LENGTH_RATIO = 0.01


# Slices of a (rows, cols) array that pair each marker with its neighbour
# on one side: ((reference offset / pitch), markers, their neighbours), in
# the order left, right, up, down ("up" is the previous row).
_ALL, _HEAD, _TAIL = slice(None), slice(1, None), slice(None, -1)
_SIDES = (
    ((-1.0, 0.0), (_ALL, _HEAD), (_ALL, _TAIL)),
    ((1.0, 0.0), (_ALL, _TAIL), (_ALL, _HEAD)),
    ((0.0, -1.0), (_HEAD, _ALL), (_TAIL, _ALL)),
    ((0.0, 1.0), (_TAIL, _ALL), (_HEAD, _ALL)),
)


def line_feature_angles(grid: MarkerGrid, frame: Frame) -> LineFeatureAngles:
    """Per-marker mean segment rotation angle, degrees, CCW positive.

    A marker is valid when at least two of its neighbour segments exist and
    are non-degenerate (current length >= 0.01 * pitch). Border markers
    with only 2-3 neighbours stay valid so contact patches near the edge
    still contribute.
    """
    frame.require_grid(grid)
    rows, cols, pitch = grid.rows, grid.cols, grid.pitch
    x, y = np.ascontiguousarray(frame.displacements[:, :2].T).reshape(2, rows, cols)
    angle_sum = np.zeros((rows, cols))
    seg_count = np.zeros((rows, cols), dtype=int)
    min_len = DEGENERATE_LENGTH_RATIO * pitch

    # Sides are summed in a fixed order: float addition is not associative.
    # Adding 0.0 for an unusable segment is exact: the sum starts at +0.0
    # and so never becomes -0.0.
    for (ux, uy), own, nbr in _SIDES:
        ox, oy = pitch * ux, pitch * uy
        cx = ox + x[nbr] - x[own]
        cy = oy + y[nbr] - y[own]
        usable = np.hypot(cx, cy) >= min_len
        seg_angle = np.degrees(np.arctan2(ox * cy - oy * cx, ox * cx + oy * cy))
        angle_sum[own] += np.where(usable, seg_angle, 0.0)
        seg_count[own] += usable

    valid = seg_count >= 2
    angles = np.where(valid, angle_sum, 0.0) / np.maximum(seg_count, 1)
    return LineFeatureAngles(angles=angles.ravel(), valid=valid.ravel())


def half_curl(grid: MarkerGrid, frame_prev: Frame, frame_next: Frame) -> np.ndarray:
    """Half the discrete curl of the displacement increment, degrees per marker.

    Central finite differences in the interior, one-sided at the borders.
    For a small rigid rotation increment this equals the sine-corrected
    increment angle everywhere.
    """
    frame_prev.require_grid(grid)
    frame_next.require_grid(grid)
    inc = frame_next.displacements - frame_prev.displacements
    dx = inc[:, 0].reshape(grid.rows, grid.cols)
    dy = inc[:, 1].reshape(grid.rows, grid.cols)
    # x varies along columns (axis=1), y along rows (axis=0)
    ddy_dx = np.gradient(dy, grid.pitch, axis=1)
    ddx_dy = np.gradient(dx, grid.pitch, axis=0)
    return np.degrees(0.5 * (ddy_dx - ddx_dy)).ravel()


def normalized_angle_difference(phi_i: float, phi_bar: float, epsilon: float = 0.05) -> float:
    """Dimensionless dissimilarity between a marker angle and a region mean.

    Same-sign angles well above the noise floor compare as
    |phi_i - phi_bar| / sqrt(phi_i * phi_bar); opposite rotations can never
    co-stick and return +inf; near-zero angles fall back to the linear
    floor |phi_i - phi_bar| / epsilon. Total function, never raises.
    """
    product = phi_i * phi_bar
    if product > epsilon * epsilon:
        return abs(phi_i - phi_bar) / math.sqrt(product)
    if abs(phi_i) > epsilon and abs(phi_bar) > epsilon:
        return math.inf
    return abs(phi_i - phi_bar) / epsilon
