"""Contact detection, stick-centre selection and stick-region growth."""

from __future__ import annotations

import functools
import math
from heapq import heappop, heappush
from dataclasses import dataclass

import numpy as np

from .core import (
    ContactMask,
    ContactState,
    Frame,
    LineFeatureAngles,
    MarkerGrid,
    StickRegion,
    UsageError,
    _made,
    finite_number,
    whole_number,
)
from .features import admission_certain, normalized_angle_difference

# Keeps the tangential-deviation score term finite for a motionless patch.
_SCORE_EPSILON_MM = 1e-6

# The region of every frame without a detected contact. Its empty member
# index, read-only, is shared by every region without members: it fits every grid.
NO_CONTACT_REGION = StickRegion(
    members=np.empty(0, dtype=np.intp), mean_angle=0.0, state=ContactState.NO_CONTACT,
    stick_ratio=0.0,
)


@dataclass(frozen=True)
class SegmentationConfig:
    """Thresholds for contact detection and stick-region growth.

    ``contact_threshold`` (mm) gates the stick-centre deformation modulus,
    ``normal_filter_ratio`` flags contact markers relative to the largest
    normal displacement, ``delta_phi_th`` is the dimensionless admission
    threshold on the normalized angle difference, and regions smaller than
    ``min_stick_markers`` are classified as macro slip.
    """

    contact_threshold: float = 0.1
    normal_filter_ratio: float = 0.5
    delta_phi_th: float = 0.4
    min_stick_markers: int = 3
    epsilon_angle: float = 0.05

    def __post_init__(self) -> None:
        for name in ("contact_threshold", "delta_phi_th", "epsilon_angle"):
            value = getattr(self, name)
            if not finite_number(value, f"segmentation.{name}") > 0:
                raise UsageError(f"segmentation.{name} must be positive, got {value!r}")
        ratio = finite_number(self.normal_filter_ratio, "segmentation.normal_filter_ratio")
        if not 0 < ratio < 1:
            raise UsageError(f"segmentation.normal_filter_ratio must lie in (0, 1), got {ratio}")
        markers = whole_number(self.min_stick_markers, "segmentation.min_stick_markers")
        if markers < 1:
            raise UsageError(f"segmentation.min_stick_markers must be >= 1, got {markers}")
        object.__setattr__(self, "min_stick_markers", markers)


def _no_contact(grid: MarkerGrid) -> ContactMask:
    return _made(ContactMask, flags=np.zeros(grid.n_markers, dtype=bool), center_index=None,
                 n_flagged=0)


def detect_contact(grid: MarkerGrid, frame: Frame, cfg: SegmentationConfig) -> ContactMask:
    """Flag contact markers and pick the assumed stick centre.

    Without a marker pressed in (a positive normal displacement) there is
    no contact. Otherwise markers whose normal displacement reaches
    ``normal_filter_ratio`` times the largest one are flagged. The stick
    centre is the flagged marker with the smallest combined score of
    (distance to the flagged centroid) / pitch plus the relative deviation
    of its tangential magnitude from the flagged mean; ties resolve to the
    lowest index. Contact counts as detected only when the centre's full
    deformation modulus exceeds ``contact_threshold``.
    """
    grid.require("frame", (frame.n_markers,))
    disp = frame.displacements
    dz = disp[:, 2]
    top = dz.max()
    if not top > 0:  # nothing is pressed in
        return _no_contact(grid)
    flags = dz >= cfg.normal_filter_ratio * top  # the deepest marker at least
    flagged_idx = flags.nonzero()[0]
    n = flagged_idx.size

    pos = grid.reference_positions[flagged_idx]
    centroid = pos.sum(axis=0) / n
    flagged = disp[flagged_idx]
    tang = np.hypot(flagged[:, 0], flagged[:, 1])
    tang_mean = tang.sum() / n
    score = (
        np.hypot(pos[:, 0] - centroid[0], pos[:, 1] - centroid[1]) / grid.pitch
        + np.abs(tang - tang_mean) / (tang_mean + _SCORE_EPSILON_MM)
    )
    center = int(flagged_idx[score.argmin()])

    row = disp[center]
    modulus = math.sqrt(row.dot(row))
    if modulus <= cfg.contact_threshold:
        return _no_contact(grid)
    return _made(ContactMask, flags=flags, center_index=center, n_flagged=n)


# Keyed by the grid's value (a frozen dataclass): the positions of equal grids
# differ at most in the sign of a zero, which np.hypot ignores.
@functools.lru_cache(maxsize=8)
def _distance_order(grid: MarkerGrid, center: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rank, order)`` of the markers by distance to marker ``center``,
    ties by lower index: ``order`` lists the indices nearest first and
    ``rank`` is its inverse, each marker's place in that order. Both are
    read-only arrays of the smallest unsigned dtype that holds ``n_markers - 1``."""
    pos = grid.reference_positions
    cx, cy = pos[center].tolist()
    # A stable sort of the distances orders ties by index.
    order = np.argsort(np.hypot(pos[:, 0] - cx, pos[:, 1] - cy), kind="stable")
    dtype = np.min_scalar_type(grid.n_markers - 1)
    rank = np.empty(grid.n_markers, dtype=dtype)
    rank[order] = np.arange(grid.n_markers, dtype=dtype)
    found = rank, order.astype(dtype)
    for arr in found:
        arr.setflags(write=False)
    return found


@functools.lru_cache(maxsize=8)
def _component(grid: MarkerGrid, center: int, admissible_bytes: bytes) -> np.ndarray:
    """The 4-connected component that holds the admissible marker ``center``
    of the markers set in ``admissible_bytes`` (a bool mask's bytes), as a
    read-only ascending ``intp`` index."""
    seen = bytearray(admissible_bytes)  # an entry is cleared when it is reached
    seen[center] = False
    neighbors = grid.neighbors
    members = [center]
    for idx in members:  # appended to while walked: breadth first
        for nbr in neighbors[idx]:
            if seen[nbr]:
                seen[nbr] = False
                members.append(nbr)
    index = np.fromiter(sorted(members), dtype=np.intp, count=len(members))
    index.setflags(write=False)
    return index


def grow_stick_region(
    grid: MarkerGrid,
    mask: ContactMask,
    angles: LineFeatureAngles,
    cfg: SegmentationConfig,
) -> StickRegion:
    """Grow the stick region outward from the centre over flagged markers.

    The nearest frontier marker (by distance to the centre, then index) is
    popped next and admitted when its normalized angle difference against
    the running region mean stays below ``delta_phi_th``; the mean is
    updated after every admission. Rejected markers are not re-tested.
    Flagged markers without a valid angle are not admissible and do not
    carry connectivity. When every pair of admissible angles provably passes
    the admission test (``features.admission_certain``), growth reduces to
    the 4-connected component of admissible markers around the centre, found
    breadth-first without the heap or the per-marker test; the result is the
    same. The frontier orders of the last 8 (grid, centre) keys and the
    components of the last 8 (grid, centre, admissible set) keys are kept
    (``_distance_order`` and ``_component``, least recently used dropped
    first), so a patch that holds still is walked once; the mean is taken
    from each frame's own angles. Equal grids share their entries, and each
    cache holds up to 8 grids alive until their keys are dropped. ``members``
    is a read-only ascending ``intp`` index on every path.
    """
    grid.require("contact mask", mask.flags.shape)
    grid.require("angle record", angles.angles.shape)
    center = mask.center_index
    if center is None:
        return NO_CONTACT_REGION
    if not angles.valid[center]:
        return _made(StickRegion, members=NO_CONTACT_REGION.members, mean_angle=0.0,
                     state=ContactState.MACRO_SLIP, stick_ratio=0.0)

    admissible_mask = mask.flags & angles.valid
    if admission_certain(angles.angles[admissible_mask], cfg.delta_phi_th, cfg.epsilon_angle):
        # Every admission test would pass, so the region is the centre's
        # 4-connected admissible component, whatever the visiting order. The
        # centre is flagged and valid, so the certificate covers its angle too.
        members = _component(grid, center, admissible_mask.tobytes())
    else:
        neighbors = grid.neighbors
        admissible = bytearray(admissible_mask.tobytes())
        # A marker's admissible entry is cleared when it is reached, so the
        # bytes are also the seen-set.
        admissible[center] = False
        # The centre is admitted untested: for angles and epsilon_angle below
        # ~1e-162 their squares underflow and its difference to itself is inf.
        grown = [center]
        # The frontier holds ranks in the (distance, index) order, as
        # Python ints: a heap of ints pops what a heap of those pairs would.
        rank, order = map(memoryview, _distance_order(grid, center))
        phi = angles.angles.item
        epsilon, threshold = cfg.epsilon_angle, cfg.delta_phi_th
        mean = phi(center)
        frontier = [rank[center]]  # popped first: it is alone
        while frontier:
            idx = order[heappop(frontier)]
            if idx != center:
                angle = phi(idx)
                if not normalized_angle_difference(angle, mean, epsilon) < threshold:
                    continue
                grown.append(idx)
                mean += (angle - mean) / len(grown)
            for nbr in neighbors[idx]:
                if admissible[nbr]:
                    admissible[nbr] = False
                    heappush(frontier, rank[nbr])
        members = np.fromiter(sorted(grown), dtype=np.intp, count=len(grown))

    # The sum over ascending indices: the same values in the same order on either path.
    count, n_flagged = len(members), mask.n_flagged
    mean_angle = float(angles.angles[members].sum() / count)
    if count < cfg.min_stick_markers:
        state = ContactState.MACRO_SLIP
    elif count == n_flagged:
        state = ContactState.STICK
    else:
        state = ContactState.INCIPIENT_SLIP
    return _made(StickRegion, members=members, mean_angle=mean_angle, state=state,
                 stick_ratio=count / n_flagged)
