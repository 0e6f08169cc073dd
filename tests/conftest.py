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
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import pivotgauge
from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    InsufficientDataError,
    LineFeatureAngles,
    MarkerGrid,
    StickRegion,
    normalized_angle_difference,
)
from pivotgauge import segmentation
from pivotgauge.features import DEGENERATE_LENGTH_RATIO
from pivotgauge.segmentation import _SCORE_EPSILON_MM
from pivotgauge.simulate import (
    GroundTruth,
    SimScenario,
    _contact_taper,
    _hertz_dz,
)


@contextmanager
def certificates_asked():
    """The admission certificates (``features.admission_certain`` results)
    that stick-region growth asks for while the block runs, in order: True
    for the certified path, False for the heap, none when growth returns
    before it (no contact, or a centre without a valid angle)."""
    certificate, held = segmentation.admission_certain, []

    def recording(*args):
        held.append(certificate(*args))
        return held[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "admission_certain", recording)
        yield held


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
# one side. A segment is taken once, from its near marker to its far one:
# to the right neighbour (offset on x, axis 0) and to the one below (offset
# on y, axis 1).
_ALL, _HEAD, _TAIL = slice(None), slice(1, None), slice(None, -1)
_SEGMENTS = (
    (0, (_ALL, _TAIL), (_ALL, _HEAD)),
    (1, (_TAIL, _ALL), (_HEAD, _ALL)),
)


def reference_line_feature_angles(grid: MarkerGrid, frame: Frame) -> LineFeatureAngles:
    """The interleaved-view line-feature kernel the planar one must match bit
    for bit: one angle per segment, credited to both of its markers by
    boolean-mask accumulation, each marker summing its sides in the order
    left, right, up, down (the package's order, so that a change to it
    fails the reference test)."""
    grid.require("frame", (frame.n_markers,))
    disp = frame.displacements[:, :2].reshape(grid.rows, grid.cols, 2)
    angle_sum = np.zeros((grid.rows, grid.cols))
    seg_count = np.zeros((grid.rows, grid.cols), dtype=int)
    min_len = DEGENERATE_LENGTH_RATIO * grid.pitch

    sides = []  # (own slice, angle, usable): left, right, up, down
    for axis, near, far in _SEGMENTS:
        current = disp[far] - disp[near]
        current[..., axis] += grid.pitch
        u, v = current[..., 0], current[..., 1]
        usable = np.hypot(u, v) >= min_len
        # The angle of the segment against its reference direction, (1, 0)
        # or (0, 1): a vertical segment turned by -90 degrees is measured
        # against (1, 0) too.
        seg_angle = np.degrees(np.arctan2(v, u) if axis == 0 else np.arctan2(-u, v))
        sides += [(far, seg_angle, usable), (near, seg_angle, usable)]
    for own, seg_angle, usable in sides:
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
    if not np.max(dz) > 0:
        return ContactMask(flags=np.zeros(grid.n_markers, dtype=bool))
    flags = dz >= cfg.normal_filter_ratio * np.max(dz)
    flagged_idx = np.flatnonzero(flags)
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


def reference_baseline_least_squares(grid: MarkerGrid, frame: Frame, mask: ContactMask) -> float:
    """The least-squares baseline angle through numpy's own wrappers
    (``np.mean``, ``np.sum``). The package's kernel must give the same angle
    bit for bit."""
    idx = np.flatnonzero(mask.flags)
    if idx.size < 3:
        raise InsufficientDataError(f"baseline needs >= 3 flagged markers, got {idx.size}")
    p = grid.reference_positions[idx]
    q = p + frame.displacements[idx, :2]
    pc = p - np.mean(p, axis=0)
    qc = q - np.mean(q, axis=0)
    sym = float(np.sum(pc * qc))
    antisym = float(np.sum(pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]))
    if sym == 0.0 and antisym == 0.0:
        return 0.0
    return -math.degrees(math.atan2(antisym, sym))


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
    return StickRegion(members=sorted(members), mean_angle=mean_angle, state=state, stick_ratio=ratio)


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


def analytic_local_rotation(scenario: SimScenario, t: float, position) -> float:
    """Closed-form local rotation of the generative field at a position, degrees.

    Carries the object-side sign: the elastomer's measured line-feature
    angle at the same position equals the negative of this value.
    """
    rho = np.array([math.hypot(position[0] - scenario.cor[0], position[1] - scenario.cor[1])])
    decay = reference_decay_profile(rho, scenario.stick_radius_at(t), scenario.contact_radius,
                                    scenario.decay_exponent)
    return float(scenario.theta_at(t) * decay[0] / (1.0 + scenario.softness.k))


def half_curl(grid: MarkerGrid, frame_prev: Frame, frame_next: Frame) -> np.ndarray:
    """Half the discrete curl of the displacement increment, degrees per marker.

    Central finite differences in the interior, one-sided at the borders.
    For a small rigid rotation increment this equals the sine-corrected
    increment angle everywhere. Like the package's per-marker kernels, it
    checks both frames against the grid.
    """
    grid.require("frame", (frame_prev.n_markers,))
    grid.require("frame", (frame_next.n_markers,))
    inc = frame_next.displacements - frame_prev.displacements
    dx = inc[:, 0].reshape(grid.rows, grid.cols)
    dy = inc[:, 1].reshape(grid.rows, grid.cols)
    # x varies along columns (axis=1), y along rows (axis=0)
    ddy_dx = np.gradient(dy, grid.pitch, axis=1)
    ddx_dy = np.gradient(dx, grid.pitch, axis=0)
    return np.degrees(0.5 * (ddy_dx - ddx_dy)).ravel()


def analytic_increment_half_curl(rho, r_s, gamma, theta0, theta1):
    """Closed-form half-curl (degrees) of the annulus increment field at
    radius rho in the power-law zone, for a rigid object."""
    out = []
    for theta in (theta0, theta1):
        psi = math.radians(-theta) * (r_s / rho) ** gamma
        # d(psi)/d(rho) = -gamma * psi / rho for the power-law profile
        out.append(math.sin(psi) - 0.5 * gamma * psi * math.cos(psi))
    return math.degrees(out[1] - out[0])


def reference_rotate_offsets(d: np.ndarray, angle_rad: np.ndarray) -> np.ndarray:
    """Each offset d[i] rotated by its own angle angle_rad[i], stacked by columns."""
    c = np.cos(angle_rad)
    s = np.sin(angle_rad)
    return np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])


def reference_noiseless_field(
    scenario: SimScenario, theta: float, trans: np.ndarray, r_s: float
) -> tuple[np.ndarray, GroundTruth]:
    """The field kernel that rebuilds its time-invariant arrays and its
    decay bands on every call, and rotates the object side by an array of
    copies of its one angle; the package's kernel, which keeps those arrays
    per scenario and rotates by the one angle, must match it bit for bit."""
    grid = scenario.grid
    a = scenario.contact_radius
    k = scenario.softness.k

    d = grid.reference_positions - np.asarray(scenario.cor)
    rho = np.hypot(d[:, 0], d[:, 1])

    decay = reference_decay_profile(rho, r_s, a, scenario.decay_exponent)
    dz = _hertz_dz(rho, a, scenario.max_indent)

    beta_rad = np.radians(-theta * decay / (1.0 + k))
    tangential = reference_rotate_offsets(d, beta_rad) - d
    tangential += trans * _contact_taper(rho, a)[:, None]

    displacements = np.column_stack([tangential, dz])
    displacements.setflags(write=False)

    surf_rad = math.radians(-theta / (1.0 + k))
    object_disp = reference_rotate_offsets(d, np.full_like(rho, surf_rad)) - d + trans
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


def reference_write_frame(out, frame: Frame) -> None:
    """The frame-line writer through ``json.dumps``; the package's writer,
    one format of a line template, must give the same bytes."""
    out.write(json.dumps({"t": frame.timestamp, "d": frame.displacements.tolist()}) + "\n")


def reference_write_truth(out, t: float, truth: GroundTruth) -> None:
    """The truth-line writer through ``json.dumps``, with a Python loop per
    mask entry; the package's writer must give the same bytes."""
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


def reference_read_frames(lines, grid: MarkerGrid, warn):
    """The frame reader with every line's rows through the number rule:
    ``Frame(obj["t"], obj["d"])`` on each parsed line, lines numbered as
    following a header on line 1. The package's reader, which reads some
    lines' rows in one pass, must give the same frames and warnings."""
    last_t = None
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            frame = Frame(obj["t"], obj["d"])
            grid.require("frame", (frame.n_markers,))
            if last_t is not None and not frame.timestamp > last_t:
                raise ValueError(f"out-of-order frame: t={frame.timestamp} not after t={last_t}")
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            print(f"warning: skipping frame line {lineno}: {exc}", file=warn)
            continue
        last_t = frame.timestamp
        yield frame


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


@st.composite
def run_times(draw) -> tuple[float, float, float]:
    """(t_start, rate_hz, t_end) of a run of 1 to 300 periods, with |t_start|
    from 1e-3 to 1e12 and a rate from 0.25 to 1000 Hz, both log-uniform. t_end
    is a computed frame time t_start + k / rate_hz, one to four float spacings
    off it, or between two."""
    t_start = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 12.0))
    rate = 10.0 ** draw(st.floats(math.log10(0.25), 3.0))
    k = draw(st.integers(1, 300))
    t_end = t_start + k / rate
    kind = draw(st.sampled_from(["on", "ulps", "off"]))
    if kind == "ulps":
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(1, 4))):
            t_end = math.nextafter(t_end, toward)
    elif kind == "off":
        t_end = t_start + (k + draw(st.floats(0.0, 1.0, exclude_max=True))) / rate
    return t_start, rate, t_end


def brute_force_frame_count(t_start: float, t_end: float, rate: float) -> int:
    """The computed times t_start + i / rate, i = 0, 1, ..., that lie at most
    twice ulp(max(|t_start|, |t_end|)) past t_end, counted one by one."""
    allowance = 2 * math.ulp(max(abs(t_start), abs(t_end)))
    i = 0
    while t_start + i / rate - t_end <= allowance:
        i += 1
    return i


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
