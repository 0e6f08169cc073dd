"""Rotation estimators and the streaming measurement pipeline.

Two estimators are provided:

* the stick-region estimator: negate the mean line-feature angle of the
  grown stick region, with an optional soft-object correction,
* a least-squares baseline that fits a rigid 2-d rotation + translation to
  every flagged contact marker (deliberately including slipping markers,
  which is what biases it under incipient slip).

The streaming entry point is :class:`RotationPipeline`, which composes
contact detection, feature angles, region growth, estimation and the
causal window-5 mean filter. The filter's window starts at the first
contact and no-contact frames report 0. It has no zero-drift term: every
estimate before the first contact is a no-contact estimate, which is 0 by
contract, so their mean would always be 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ContactMask,
    ContactState,
    Frame,
    InsufficientDataError,
    MarkerGrid,
    RotationEstimate,
    SoftnessParams,
    StickRegion,
    UsageError,
)
from .features import line_feature_angles
from .segmentation import NO_CONTACT_REGION, SegmentationConfig, detect_contact, grow_stick_region

FILTER_WINDOW = 5

# Below this fitted angle the rotation centre of the baseline fit is
# numerically meaningless and omitted.
_MIN_COR_ANGLE_RAD = 1e-9


def estimate_rotation(region: StickRegion, softness: SoftnessParams) -> RotationEstimate:
    """Rotation estimate from a stick region.

    Rigid objects (k = 0, L = 0) reduce to theta = -mean_angle; the soft
    mode applies theta = -(k + 1) * mean_angle + (l_xy - l_yx) / 2. A
    no-contact region always yields theta = 0.
    """
    if region.state is ContactState.NO_CONTACT:
        return RotationEstimate(theta=0.0, state=region.state, stick_ratio=region.stick_ratio)
    theta = -(softness.k + 1.0) * region.mean_angle + 0.5 * (softness.l_xy - softness.l_yx)
    return RotationEstimate(theta=theta, state=region.state, stick_ratio=region.stick_ratio)


def baseline_least_squares(
    grid: MarkerGrid, frame: Frame, mask: ContactMask
) -> RotationEstimate:
    """Least-squares rigid-motion fit over all flagged contact markers.

    Fits the 2-d rotation angle about an unknown centre plus translation
    minimizing squared residuals of the tangential displacements
    (closed form via the centred cross/dot covariance). No marker is
    excluded, so slipping markers bias the angle low. Reports theta with
    the same sign convention as the stick-region estimator, assumes full
    stick (state Stick, ratio 1) and returns the fitted rotation centre
    when the angle is non-degenerate.
    """
    if not mask.contact_detected:
        raise UsageError("baseline requires a detected contact")
    mask.require_grid(grid)
    idx = mask.flags.nonzero()[0]
    n = idx.size
    if n < 3:
        raise InsufficientDataError(f"baseline needs >= 3 flagged markers, got {n}")
    frame.require_grid(grid)
    p = grid.reference_positions[idx]
    q = p + frame.displacements[idx, :2]
    p_bar = p.sum(axis=0) / n
    q_bar = q.sum(axis=0) / n
    pc = p - p_bar
    qc = q - q_bar
    sym = float((pc * qc).sum())
    antisym = float((pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]).sum())
    if sym == 0.0 and antisym == 0.0:
        return RotationEstimate(theta=0.0, state=ContactState.STICK, stick_ratio=1.0)
    alpha = math.atan2(antisym, sym)

    cor: Optional[tuple[float, float]] = None
    if abs(math.sin(alpha)) > _MIN_COR_ANGLE_RAD:
        # The centre solves (I - R) c = q_bar - R p_bar. I - R is a scaled
        # rotation [[a, s], [-s, a]] with a = 1 - cos(alpha), so its inverse
        # is [[a, -s], [s, a]] / (a^2 + s^2).
        c, s = math.cos(alpha), math.sin(alpha)
        (px, py), (qx, qy) = p_bar.tolist(), q_bar.tolist()
        bx, by = qx - (c * px - s * py), qy - (s * px + c * py)
        a = 1.0 - c
        det = a * a + s * s
        cor = ((a * bx - s * by) / det, (s * bx + a * by) / det)
    return RotationEstimate(
        theta=-math.degrees(alpha), state=ContactState.STICK, stick_ratio=1.0, cor=cor
    )


@dataclass
class EstimatorState:
    """Mutable per-stream filter state: single owner, one stream at a time.

    ``window`` holds the last raw estimates from the first contact on.
    """

    window: deque = field(default_factory=lambda: deque(maxlen=FILTER_WINDOW))
    last_timestamp: Optional[float] = None


def filter_step(
    state: EstimatorState, raw: RotationEstimate, timestamp: float
) -> RotationEstimate:
    """Advance the causal window-5 mean filter by one frame.

    Contact is read from the estimate: every state but NoContact. Before the
    first contact the output is 0; afterwards it is the window mean, except
    that a no-contact frame reports 0. Frames must arrive in strictly
    increasing timestamp order.
    """
    if state.last_timestamp is not None and timestamp <= state.last_timestamp:
        raise UsageError(f"out-of-order frame: t={timestamp} after t={state.last_timestamp}")
    state.last_timestamp = timestamp

    contact = raw.state is not ContactState.NO_CONTACT
    if contact or state.window:
        state.window.append(raw.theta)
    theta = sum(state.window) / len(state.window) if contact else 0.0
    return RotationEstimate(theta=theta, state=raw.state, stick_ratio=raw.stick_ratio, cor=raw.cor)


def estimate_frame(
    grid: MarkerGrid,
    frame: Frame,
    cfg: SegmentationConfig,
    softness: SoftnessParams,
) -> tuple[RotationEstimate, ContactMask, StickRegion]:
    """Single-frame (unfiltered) estimate with its intermediate products."""
    mask = detect_contact(grid, frame, cfg)
    if not mask.contact_detected:
        return estimate_rotation(NO_CONTACT_REGION, softness), mask, NO_CONTACT_REGION
    angles = line_feature_angles(grid, frame)
    region = grow_stick_region(grid, mask, angles, cfg)
    return estimate_rotation(region, softness), mask, region


class RotationPipeline:
    """Streaming pivot-rotation measurement over one frame sequence.

    Frames must be processed in strictly increasing timestamp order. The
    pipeline keeps the filter state; the most recent raw (unfiltered)
    estimate remains available as ``last_raw`` after each call.
    """

    def __init__(
        self,
        grid: MarkerGrid,
        cfg: Optional[SegmentationConfig] = None,
        softness: Optional[SoftnessParams] = None,
    ):
        self.grid = grid
        self.cfg = cfg if cfg is not None else SegmentationConfig()
        self.softness = softness if softness is not None else SoftnessParams()
        self.state = EstimatorState()
        self.last_raw: Optional[RotationEstimate] = None

    def process_frame(self, frame: Frame) -> RotationEstimate:
        """Run the full pipeline on one frame and return the filtered estimate."""
        raw, _mask, _region = estimate_frame(self.grid, frame, self.cfg, self.softness)
        self.last_raw = raw
        return filter_step(self.state, raw, frame.timestamp)
