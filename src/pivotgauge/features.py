"""Line-feature angles of marker displacement fields.

The per-marker line-feature angle is the mean signed rotation of the
segments joining a marker to its 4-neighbours, comparing the deformed
segment direction against the reference direction. A segment has one
angle, computed once and credited to both of its markers; one folded back
on itself reads +180 or -180 degrees, the same at both ends. The angle
responds to local rotation of the field while being invariant to uniform
translation up to rounding, which is what makes it usable for pivot
measurement.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import SIDES, Frame, LineFeatureAngles, MarkerGrid, _made

# Segment shorter than this fraction of the pitch is considered collapsed.
DEGENERATE_LENGTH_RATIO = 0.01


def line_feature_angles(grid: MarkerGrid, frame: Frame) -> LineFeatureAngles:
    """Per-marker mean segment rotation angle, degrees, CCW positive.

    A marker's segments are those to its grid neighbours, less any shorter
    than 1% of the pitch (``DEGENERATE_LENGTH_RATIO``). A marker with fewer
    than two is invalid and reads 0.0. Border markers with only 2-3
    neighbours stay valid so contact patches near the edge still contribute.
    """
    grid.require("frame", (frame.n_markers,))
    n, cols, pitch = grid.n_markers, grid.cols, float(grid.pitch)
    x, y = np.ascontiguousarray(frame.displacements[:, :2].T)
    angle_sum = np.zeros(n)
    count = grid.neighbor_count  # copied before the first short segment is taken off
    min_len = DEGENERATE_LENGTH_RATIO * pitch
    # Each segment is computed once, on the forward sides of SIDES (right and
    # down, flat offset k > 0): (u, v) is the displacement difference of the
    # markers k apart on the flat planes plus the pitch along the side. Its
    # one angle goes to the far marker's left or up side and to the near
    # marker's right or down side. A horizontal side also pairs the last
    # marker of a row with the first of the next one, every cols-th pair from
    # cols - 1 on; such a wrap pair is no segment. The angles of wrap pairs
    # and short segments are set to 0.0 before they are added. Each backward
    # side precedes its forward twin in SIDES, so every marker still sums its
    # sides in SIDES order: float addition is not associative. Adding 0.0 is
    # exact: the sum starts at +0.0 and so never becomes -0.0.
    for di, dj in SIDES:
        k = di * cols + dj
        if k < 0:
            continue
        u = x[k:] - x[:-k]
        v = y[k:] - y[:-k]
        along = v if di else u
        along += pitch
        short = np.hypot(u, v) < min_len
        # Written over v (and u) in place: each live temporary adds to peak memory.
        if di == 0:
            seg_angle = np.degrees(np.arctan2(v, u, out=v), out=v)
            seg_angle[cols - 1::cols] = 0.0
            short[cols - 1::cols] = False
        else:  # the down direction (0, pitch) turned onto (pitch, 0)
            seg_angle = np.degrees(np.arctan2(np.negative(u, out=u), v, out=v), out=v)
        if short.any():
            seg_angle[short] = 0.0
            if count is grid.neighbor_count:
                count = count.copy()
            count[k:] -= short
            count[:-k] -= short
        angle_sum[k:] += seg_angle
        angle_sum[:-k] += seg_angle

    if count is grid.neighbor_count:  # no short segment: every marker has 2 or more
        angle_sum /= count
        return _made(LineFeatureAngles, angles=angle_sum, valid=grid.all_markers)
    valid = count >= 2
    angles = np.where(valid, angle_sum, 0.0) / np.maximum(count, 1)
    return _made(LineFeatureAngles, angles=angles, valid=valid)


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
