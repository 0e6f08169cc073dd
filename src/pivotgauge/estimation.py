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
    FrameResult,
    InsufficientDataError,
    MarkerGrid,
    SoftnessParams,
    StickRegion,
    UsageError,
    _made,
    finite_number,
)
from .features import line_feature_angles
from .segmentation import NO_CONTACT_REGION, SegmentationConfig, detect_contact, grow_stick_region

FILTER_WINDOW = 5


def estimate_rotation(region: StickRegion, softness: SoftnessParams) -> float:
    """Rotation angle, degrees, from a stick region.

    Rigid objects (k = 0, L = 0) reduce to theta = -mean_angle; the soft
    mode applies theta = -(k + 1) * mean_angle + (l_xy - l_yx) / 2. A
    no-contact region always yields theta = 0.
    """
    if region.state is ContactState.NO_CONTACT:
        return 0.0
    return float(-(softness.k + 1.0) * region.mean_angle + 0.5 * (softness.l_xy - softness.l_yx))


def baseline_least_squares(grid: MarkerGrid, frame: Frame, mask: ContactMask) -> float:
    """Least-squares rigid-motion fit over all flagged contact markers.

    Fits the 2-d rotation angle about an unknown centre plus translation
    minimizing squared residuals of the tangential displacements
    (closed form via the centred cross/dot covariance) and returns the
    angle in degrees, with the same sign convention as the stick-region
    estimator. No marker is excluded, so slipping markers bias the angle low.
    """
    if not mask.contact_detected:
        raise UsageError("baseline requires a detected contact")
    grid.require("contact mask", mask.flags.shape)
    idx = mask.flags.nonzero()[0]
    n = idx.size
    if n < 3:
        raise InsufficientDataError(f"baseline needs >= 3 flagged markers, got {n}")
    grid.require("frame", (frame.n_markers,))
    p = grid.reference_positions[idx]
    q = p + frame.displacements[idx, :2]
    pc = p - p.sum(axis=0) / n
    qc = q - q.sum(axis=0) / n
    sym = float((pc * qc).sum())
    antisym = float((pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]).sum())
    if sym == 0.0 and antisym == 0.0:  # a collapsed patch: +0.0, never atan2's -0.0 or 180
        return 0.0
    return -math.degrees(math.atan2(antisym, sym))


def filter_step(pipeline: RotationPipeline, result: FrameResult, timestamp: float) -> float:
    """Keep ``result`` as the pipeline's ``last`` and advance its window-5
    filter; return the filtered angle, degrees.

    Contact is read from the mask's centre. Before the first contact the
    output is 0; afterwards it is the window mean, except that a no-contact
    frame reports 0. ``timestamp`` is read by the number rule, and frames
    must arrive in strictly increasing timestamp order.
    """
    timestamp = finite_number(timestamp, "frame timestamp")
    if pipeline.last_timestamp is not None and timestamp <= pipeline.last_timestamp:
        raise UsageError(f"out-of-order frame: t={timestamp} after t={pipeline.last_timestamp}")
    pipeline.last_timestamp, pipeline.last = timestamp, result

    contact = result.mask.contact_detected
    if contact or pipeline.window:
        pipeline.window.append(result.theta)
    return sum(pipeline.window) / len(pipeline.window) if contact else 0.0


def estimate_frame(
    grid: MarkerGrid,
    frame: Frame,
    cfg: SegmentationConfig,
    softness: SoftnessParams,
) -> FrameResult:
    """Single-frame (unfiltered) estimate with its intermediate products."""
    mask = detect_contact(grid, frame, cfg)
    angles, region = None, NO_CONTACT_REGION  # no angles are computed without contact
    if mask.contact_detected:
        angles = line_feature_angles(grid, frame)
        region = grow_stick_region(grid, mask, angles, cfg)
    return _made(FrameResult, theta=estimate_rotation(region, softness), mask=mask, angles=angles,
                 region=region)


@dataclass(eq=False)
class RotationPipeline:
    """Streaming pivot-rotation measurement over one frame sequence.

    The pipeline is the single owner of its stream's state: the filter
    ``window`` of raw estimates from the first contact on, the last
    timestamp and ``last``, the most recent frame's ``FrameResult``.
    Frames must be processed in strictly increasing timestamp order.
    """

    grid: MarkerGrid
    cfg: SegmentationConfig = field(default_factory=SegmentationConfig)
    softness: SoftnessParams = field(default_factory=SoftnessParams)
    window: deque = field(init=False, default_factory=lambda: deque(maxlen=FILTER_WINDOW))
    last_timestamp: Optional[float] = field(init=False, default=None)
    last: Optional[FrameResult] = field(init=False, default=None)

    def process_frame(self, frame: Frame) -> float:
        """Run the full pipeline on one frame and return its filtered angle,
        degrees; the frame's state and stick ratio are in ``last.region``."""
        result = estimate_frame(self.grid, frame, self.cfg, self.softness)
        return filter_step(self, result, frame.timestamp)
