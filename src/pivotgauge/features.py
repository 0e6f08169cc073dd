"""Line-feature angles and curl estimates of marker displacement fields.

The per-marker line-feature angle is the mean signed rotation of the
segments joining a marker to its 4-neighbours, comparing the deformed
segment direction against the reference direction. It responds to local
rotation of the field while being exactly invariant to uniform
translation, which is what makes it usable for pivot measurement.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import Frame, LineFeatureAngles, MarkerGrid

# Segment shorter than this fraction of the pitch is considered collapsed.
DEGENERATE_LENGTH_RATIO = 0.01


def line_feature_angles(grid: MarkerGrid, frame: Frame) -> LineFeatureAngles:
    """Per-marker mean segment rotation angle, degrees, CCW positive.

    A marker is valid when at least two of its neighbour segments exist and
    are non-degenerate (current length >= 0.01 * pitch). Border markers
    with only 2-3 neighbours stay valid so contact patches near the edge
    still contribute.
    """
    frame.require_grid(grid)
    n, cols, pitch = grid.n_markers, grid.cols, float(grid.pitch)
    x, y = np.ascontiguousarray(frame.displacements[:, :2].T)
    angle_sum = np.zeros(n)
    seg_count = np.zeros(n, dtype=int)
    min_len = DEGENERATE_LENGTH_RATIO * pitch
    # Each side pairs markers with their neighbours as contiguous slices of
    # the flat planes, in the order left, right, up, down ("up" is the
    # previous row): (offset to the neighbour, markers, neighbours, whether
    # the side is horizontal). A horizontal side also pairs the last marker
    # of a row with the first of the next one, every cols-th pair from
    # cols - 1 on; those are masked out of ``usable``.
    sides = (
        (-pitch, 0.0, slice(1, None), slice(None, -1), True),
        (pitch, 0.0, slice(None, -1), slice(1, None), True),
        (0.0, -pitch, slice(cols, None), slice(None, -cols), False),
        (0.0, pitch, slice(None, -cols), slice(cols, None), False),
    )

    # Sides are summed in a fixed order: float addition is not associative.
    # Adding 0.0 for an unusable segment is exact: the sum starts at +0.0
    # and so never becomes -0.0.
    for ox, oy, own, nbr, horizontal in sides:
        cx = ox + x[nbr] - x[own]
        cy = oy + y[nbr] - y[own]
        usable = np.hypot(cx, cy) >= min_len
        if horizontal:
            usable[cols - 1::cols] = False
        seg_angle = np.degrees(np.arctan2(ox * cy - oy * cx, ox * cx + oy * cy))
        angle_sum[own] += np.where(usable, seg_angle, 0.0)
        seg_count[own] += usable

    valid = seg_count >= 2
    angles = np.where(valid, angle_sum, 0.0) / np.maximum(seg_count, 1)
    return LineFeatureAngles(angles=angles, valid=valid)


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


def normalized_angle_difference(phi_i: float, phi_bar: float, epsilon: float) -> float:
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


# Relative slack of the admission certificate. It covers the rounding of the
# rule's own arithmetic and of a running mean, a few ulps (~1e-16) per step.
_CERTIFICATE_MARGIN = 1e-9


def admission_certain(phi: np.ndarray, threshold: float, epsilon: float) -> bool:
    """True when ``normalized_angle_difference(a, m, epsilon) < threshold``
    holds for every angle ``a`` in ``phi`` and every running mean ``m`` of
    angles in ``phi``; False when that cannot be shown.

    A bound on that one rule. Angles of one sign are mirrored to positive and
    span ``[lo, hi]``; a running mean is a convex combination of them, so it
    stays in ``[lo, hi]``. With ``lo > epsilon`` every pair takes the
    geometric branch, and ``|a - b| / sqrt(a * b)`` on ``[lo, hi]`` is
    largest at ``(lo, hi)``. Mixed signs, angles near zero and wide spreads
    fail. Both tests keep a relative margin of 1e-9, and ``epsilon`` must
    square to a normal float, so that rounding cannot turn a near-miss into
    a pass. ``phi`` must be non-empty.
    """
    lo, hi = float(phi.min()), float(phi.max())
    if hi < 0.0:
        lo, hi = -hi, -lo
    return (
        lo > epsilon * (1.0 + _CERTIFICATE_MARGIN)
        and epsilon * epsilon >= sys.float_info.min
        # sqrt(lo) * sqrt(hi) rather than sqrt(lo * hi): the product may overflow.
        and (hi - lo) / (math.sqrt(lo) * math.sqrt(hi)) < threshold * (1.0 - _CERTIFICATE_MARGIN)
    )
