"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately re-derive quantities with plain Python loops
(no shared code with the package's vectorized paths) so they can vouch for
the implementation.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import pivotgauge
from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    InsufficientDataError,
    LineFeatureAngles,
    MarkerGrid,
    RotationEstimate,
    StickRegion,
    normalized_angle_difference,
)
from pivotgauge.estimation import _MIN_COR_ANGLE_RAD
from pivotgauge.features import DEGENERATE_LENGTH_RATIO
from pivotgauge.segmentation import _SCORE_EPSILON_MM
from pivotgauge.simulate import (
    GroundTruth,
    SimScenario,
    _contact_taper,
    _hertz_dz,
    _rotate_offsets,
)


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
# one side, in the order left, right, up, down: the order in which the
# package sums its sides, so that a change to that order fails the
# reference test.
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


def hostile_field(grid: MarkerGrid, d: np.ndarray, rng, zeros: float, collapsed: int,
                  reversed_: int) -> np.ndarray:
    """``d`` with exact zeros, collapsed segments (shorter than the degenerate
    length, or exactly zero) and axis-aligned segments turned back on
    themselves, whose cross product is a signed zero and dot product negative."""
    d = d.copy()
    rows, cols, pitch = grid.rows, grid.cols, grid.pitch
    d[rng.random(d.shape) < zeros] = 0.0
    d[rng.random(grid.n_markers) < zeros, :2] = 0.0
    for _ in range(collapsed):
        m = int(rng.integers(grid.n_markers))
        if m % cols + 1 < cols:
            d[m + 1, :2] = d[m, :2] + (-pitch + rng.choice([0.0, 0.005 * pitch]), 0.0)
    for _ in range(reversed_):
        m = int(rng.integers(grid.n_markers))
        vertical = bool(rng.integers(2))
        step = cols if vertical else 1
        if (m // cols if vertical else m % cols) + 1 < (rows if vertical else cols):
            d[m, :2] *= rng.choice([0.0, -0.0, 1.0])
            d[m + step, :2] = d[m, :2]
            d[m + step, int(vertical)] -= 2 * pitch
    return d


def reference_detect_contact(grid: MarkerGrid, frame: Frame, cfg) -> ContactMask:
    """Contact detection through numpy's own wrappers (``mean``,
    ``np.linalg.norm``); the package's kernel, written with plain
    reductions, must flag the same markers and pick the same centre."""
    disp = frame.displacements
    dz = disp[:, 2]
    flags = dz >= cfg.normal_filter_ratio * dz.max()
    flagged_idx = np.flatnonzero(flags)
    if flagged_idx.size == 0:
        return ContactMask(flags=np.zeros(grid.n_markers, dtype=bool))
    pos = grid.reference_positions[flagged_idx]
    centroid = pos.mean(axis=0)
    flagged = disp[flagged_idx]
    tang = np.hypot(flagged[:, 0], flagged[:, 1])
    tang_mean = tang.mean()
    score = (
        np.hypot(pos[:, 0] - centroid[0], pos[:, 1] - centroid[1]) / grid.pitch
        + np.abs(tang - tang_mean) / (tang_mean + _SCORE_EPSILON_MM)
    )
    center = int(flagged_idx[np.argmin(score)])
    if float(np.linalg.norm(disp[center])) <= cfg.contact_threshold:
        return ContactMask(flags=np.zeros(grid.n_markers, dtype=bool))
    return ContactMask(flags=flags, center_index=center)


def reference_baseline_least_squares(grid: MarkerGrid, frame: Frame,
                                     mask: ContactMask) -> RotationEstimate:
    """The least-squares baseline through numpy's own wrappers (``np.mean``,
    ``np.sum``) with its rotation centre from ``np.linalg.solve``. The
    package's kernel must give the same angle bit for bit; its closed-form
    centre may differ in the last bits."""
    idx = np.flatnonzero(mask.flags)
    if idx.size < 3:
        raise InsufficientDataError(f"baseline needs >= 3 flagged markers, got {idx.size}")
    p = grid.reference_positions[idx]
    q = p + frame.displacements[idx, :2]
    p_bar = np.mean(p, axis=0)
    q_bar = np.mean(q, axis=0)
    pc = p - p_bar
    qc = q - q_bar
    sym = float(np.sum(pc * qc))
    antisym = float(np.sum(pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]))
    if sym == 0.0 and antisym == 0.0:
        return RotationEstimate(theta=0.0, state=ContactState.STICK, stick_ratio=1.0)
    alpha = math.atan2(antisym, sym)
    cor = None
    if abs(math.sin(alpha)) > _MIN_COR_ANGLE_RAD:
        c, s = math.cos(alpha), math.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        center = np.linalg.solve(np.eye(2) - rot, q_bar - rot @ p_bar)
        cor = (float(center[0]), float(center[1]))
    return RotationEstimate(
        theta=-math.degrees(alpha), state=ContactState.STICK, stick_ratio=1.0, cor=cor
    )


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


def reference_decay_profile(rho: np.ndarray, r_s: float, a: float, gamma: float) -> np.ndarray:
    """The local-rotation decay built band by band: 1 in the stick core, the
    power law in the slip annulus, the power law times the edge taper
    between a and 2a, 0 beyond. The package starts from its kept contact
    taper instead and must match this bit for bit."""
    decay = np.zeros_like(rho)
    decay[rho <= r_s] = 1.0
    annulus = (rho > r_s) & (rho <= a)
    decay[annulus] = (r_s / rho[annulus]) ** gamma
    fringe = (rho > a) & (rho <= 2 * a)
    edge = np.sqrt(np.maximum(0.0, 1.0 - ((rho[fringe] - a) / a) ** 2))
    decay[fringe] = (r_s / rho[fringe]) ** gamma * edge
    return decay


def reference_noiseless_field(scenario: SimScenario, t: float) -> tuple[np.ndarray, GroundTruth]:
    """The field kernel that rebuilds its time-invariant arrays and its
    decay bands on every call; the package's kernel, which keeps them per
    scenario, must match it bit for bit."""
    grid = scenario.grid
    theta = scenario.theta_at(t)
    trans = scenario.translation_at(t)
    r_s = scenario.stick_radius_at(t)
    a = scenario.contact_radius
    k = scenario.softness.k

    d = grid.reference_positions - np.asarray(scenario.cor)
    rho = np.hypot(d[:, 0], d[:, 1])

    decay = reference_decay_profile(rho, r_s, a, scenario.decay_exponent)
    dz = _hertz_dz(rho, a, scenario.max_indent)

    beta_rad = np.radians(-theta * decay / (1.0 + k))
    tangential = _rotate_offsets(d, beta_rad) - d
    tangential += trans * _contact_taper(rho, a)[:, None]

    displacements = np.column_stack([tangential, dz])
    displacements.setflags(write=False)

    surf_rad = math.radians(-theta / (1.0 + k))
    object_disp = _rotate_offsets(d, np.full_like(rho, surf_rad)) - d + trans
    slip_field = object_disp - tangential

    stick_mask = (rho <= r_s) & (rho <= a)
    contact_mask = rho <= a
    truth = GroundTruth(
        theta=theta,
        stick_mask=stick_mask,
        slip_field=slip_field,
        contact_mask_true=contact_mask,
    )
    return displacements, truth


def reference_write_truth(out, t: float, truth: GroundTruth) -> None:
    """The truth-line writer with a Python loop per mask entry; the
    package's writer must give the same bytes."""
    out.write(
        json.dumps(
            {
                "t": t,
                "theta": truth.theta,
                "stick": [int(v) for v in truth.stick_mask],
                "contact": [int(v) for v in truth.contact_mask_true],
                "slip": truth.slip_field.tolist(),
            }
        )
        + "\n"
    )


def finite_steps_and_slopes(points) -> bool:
    """The breakpoint rule on neighbouring rows of a well-formed list, in
    Python floats: every t step and every slope is finite."""
    rows = [[float(x) for x in row] for row in points]
    for (t0, *v0), (t1, *v1) in zip(rows, rows[1:]):
        step = t1 - t0
        if not math.isfinite(step):
            return False
        if not all(math.isfinite((b - a) / step) for a, b in zip(v0, v1)):
            return False
    return True


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
    imports the same package as the tests, whether installed or not. It
    drops ``PYTHONUNBUFFERED``, so the child buffers its output as it would
    in a shell that does not set it."""
    package_root = str(Path(pivotgauge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def grid20() -> MarkerGrid:
    return MarkerGrid()
