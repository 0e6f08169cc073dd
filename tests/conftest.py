"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately re-derive quantities with plain Python loops
(no shared code with the package's vectorized paths) so they can vouch for
the implementation.
"""

from __future__ import annotations

import heapq
import math
import os
from pathlib import Path

import numpy as np
import pytest

import pivotgauge
from pivotgauge import (
    ContactState,
    Frame,
    LineFeatureAngles,
    MarkerGrid,
    StickRegion,
    normalized_angle_difference,
)
from pivotgauge.features import DEGENERATE_LENGTH_RATIO


def brute_force_feature_angle(grid: MarkerGrid, frame: Frame, index: int) -> float | None:
    """Mean segment angle at one marker via plain loops; None when invalid."""
    rows, cols, pitch = grid.rows, grid.cols, grid.pitch
    i, j = divmod(index, cols)
    disp = frame.displacements
    pos = grid.reference_positions
    neighbors = []
    if j > 0:
        neighbors.append(index - 1)
    if j < cols - 1:
        neighbors.append(index + 1)
    if i > 0:
        neighbors.append(index - cols)
    if i < rows - 1:
        neighbors.append(index + cols)
    angles = []
    for nbr in neighbors:
        ox = pos[nbr, 0] - pos[index, 0]
        oy = pos[nbr, 1] - pos[index, 1]
        cx = ox + disp[nbr, 0] - disp[index, 0]
        cy = oy + disp[nbr, 1] - disp[index, 1]
        if math.hypot(cx, cy) < 0.01 * pitch:
            continue
        cross = ox * cy - oy * cx
        dot = ox * cx + oy * cy
        angles.append(math.degrees(math.atan2(cross, dot)))
    if len(angles) < 2:
        return None
    return sum(angles) / len(angles)


# Slices of a (rows, cols) array that pair each marker with its neighbour on
# one side, in the order left, right, up, down. A copy of the package's own
# table, so that a change to the package's order fails the reference test.
_ALL, _HEAD, _TAIL = slice(None), slice(1, None), slice(None, -1)
_SIDES = (
    ((-1.0, 0.0), (_ALL, _HEAD), (_ALL, _TAIL)),
    ((1.0, 0.0), (_ALL, _TAIL), (_ALL, _HEAD)),
    ((0.0, -1.0), (_HEAD, _ALL), (_TAIL, _ALL)),
    ((0.0, 1.0), (_TAIL, _ALL), (_HEAD, _ALL)),
)


def reference_line_feature_angles(grid: MarkerGrid, frame: Frame) -> LineFeatureAngles:
    """The interleaved-view line-feature kernel the planar one must match bit
    for bit: same arithmetic per segment, boolean-mask accumulation."""
    frame.require_grid(grid)
    disp = frame.displacements[:, :2].reshape(grid.rows, grid.cols, 2)
    angle_sum = np.zeros((grid.rows, grid.cols))
    seg_count = np.zeros((grid.rows, grid.cols), dtype=int)
    min_len = DEGENERATE_LENGTH_RATIO * grid.pitch

    for unit, own, nbr in _SIDES:
        offset = grid.pitch * np.array(unit)
        current = offset + disp[nbr] - disp[own]
        length = np.hypot(current[..., 0], current[..., 1])
        usable = length >= min_len
        cross = offset[0] * current[..., 1] - offset[1] * current[..., 0]
        dot = offset[0] * current[..., 0] + offset[1] * current[..., 1]
        seg_angle = np.degrees(np.arctan2(cross, dot))
        angle_sum[own][usable] += seg_angle[usable]
        seg_count[own][usable] += 1

    valid = seg_count >= 2
    angles = np.zeros((grid.rows, grid.cols))
    angles[valid] = angle_sum[valid] / seg_count[valid]
    return LineFeatureAngles(angles=angles.ravel(), valid=valid.ravel())


def loop_grow_stick_region(grid: MarkerGrid, mask, angles, cfg):
    """Stick-region growth via plain loops: (members, mean_angle, state).

    A heap of (distance to the centre, index) orders the frontier, and each
    marker's 4-neighbours are worked out from its row and column per call.
    """
    if not mask.contact_detected:
        return frozenset(), 0.0, ContactState.NO_CONTACT
    center = mask.center_index
    if not angles.valid[center]:
        return frozenset(), 0.0, ContactState.MACRO_SLIP
    rows, cols = grid.rows, grid.cols
    pos = grid.reference_positions

    def neighbours(index):
        i, j = divmod(index, cols)
        out = []
        if j > 0:
            out.append(index - 1)
        if j < cols - 1:
            out.append(index + 1)
        if i > 0:
            out.append(index - cols)
        if i < rows - 1:
            out.append(index + cols)
        return out

    members = [center]
    mean = float(angles.angles[center])
    seen = {center}
    frontier = []

    def push(index):
        for nbr in neighbours(index):
            if nbr in seen or not (mask.flags[nbr] and angles.valid[nbr]):
                continue
            seen.add(nbr)
            dist = float(np.hypot(pos[nbr, 0] - pos[center, 0], pos[nbr, 1] - pos[center, 1]))
            heapq.heappush(frontier, (dist, nbr))

    push(center)
    while frontier:
        _, idx = heapq.heappop(frontier)
        phi = float(angles.angles[idx])
        if normalized_angle_difference(phi, mean, cfg.epsilon_angle) < cfg.delta_phi_th:
            members.append(idx)
            mean += (phi - mean) / len(members)
            push(idx)

    if len(members) < cfg.min_stick_markers:
        state = ContactState.MACRO_SLIP
    elif len(members) == int(mask.flags.sum()):
        state = ContactState.STICK
    else:
        state = ContactState.INCIPIENT_SLIP
    return frozenset(members), float(np.mean(angles.angles[sorted(members)])), state


def reference_grow_stick_region(grid: MarkerGrid, mask, angles, cfg) -> StickRegion:
    """``loop_grow_stick_region`` as the package's ``StickRegion``."""
    members, mean_angle, state = loop_grow_stick_region(grid, mask, angles, cfg)
    ratio = len(members) / mask.n_flagged if mask.contact_detected else 0.0
    return StickRegion(members=members, mean_angle=mean_angle, state=state, stick_ratio=ratio)


def brute_force_flags(frame: Frame, ratio: float) -> np.ndarray:
    dz = [row[2] for row in frame.displacements]
    top = max(dz)
    return np.array([v >= ratio * top for v in dz], dtype=bool)


def f1_against_mask(members, truth_mask: np.ndarray) -> float:
    recovered = np.zeros(truth_mask.shape[0], dtype=bool)
    recovered[list(members)] = True
    tp = int((recovered & truth_mask).sum())
    fp = int((recovered & ~truth_mask).sum())
    fn = int((~recovered & truth_mask).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 1.0


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m pivotgauge.cli`` child process that
    imports the same package as the tests, whether installed or not."""
    package_root = str(Path(pivotgauge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def grid20() -> MarkerGrid:
    return MarkerGrid()
