"""Contact detection, stick-centre selection and stick-region growth."""

from __future__ import annotations

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
)
from .features import admission_certain, normalized_angle_difference

# Keeps the tangential-deviation score term finite for a motionless patch.
_SCORE_EPSILON_MM = 1e-6

# The region of every frame without a detected contact.
NO_CONTACT_REGION = StickRegion(
    members=frozenset(), mean_angle=0.0, state=ContactState.NO_CONTACT, stick_ratio=0.0
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
        if not self.contact_threshold > 0:
            raise UsageError("contact_threshold must be positive")
        if not 0 < self.normal_filter_ratio < 1:
            raise UsageError("normal_filter_ratio must lie in (0, 1)")
        if not self.delta_phi_th > 0:
            raise UsageError("delta_phi_th must be positive")
        if self.min_stick_markers < 1:
            raise UsageError("min_stick_markers must be >= 1")
        if not self.epsilon_angle > 0:
            raise UsageError("epsilon_angle must be positive")


def detect_contact(grid: MarkerGrid, frame: Frame, cfg: SegmentationConfig) -> ContactMask:
    """Flag contact markers and pick the assumed stick centre.

    Markers whose normal displacement reaches ``normal_filter_ratio`` times
    the largest normal displacement are flagged. The stick centre is the
    flagged marker with the smallest combined score of (distance to the
    flagged centroid) / pitch plus the relative deviation of its tangential
    magnitude from the flagged mean; ties resolve to the lowest index.
    Contact counts as detected only when the centre's full deformation
    modulus exceeds ``contact_threshold``.
    """
    frame.require_grid(grid)
    disp = frame.displacements
    dz = disp[:, 2]
    flags = dz >= cfg.normal_filter_ratio * dz.max()
    flagged_idx = np.flatnonzero(flags)
    if flagged_idx.size == 0:
        return ContactMask(flags=np.zeros(grid.n_markers, dtype=bool), contact_detected=False)

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

    modulus = float(np.linalg.norm(disp[center]))
    if modulus <= cfg.contact_threshold:
        return ContactMask(flags=np.zeros(grid.n_markers, dtype=bool), contact_detected=False)
    return ContactMask(flags=flags, contact_detected=True, center_index=center)


def grow_stick_region(
    grid: MarkerGrid,
    mask: ContactMask,
    angles: LineFeatureAngles,
    cfg: SegmentationConfig,
) -> StickRegion:
    """Grow the stick region outward from the centre over flagged markers.

    Breadth-first growth in deterministic order (frontier sorted by
    distance to the centre, then index); a frontier marker is admitted when
    its normalized angle difference against the running region mean stays
    below ``delta_phi_th``, and the mean is updated after every admission.
    Rejected markers are not re-tested. Flagged markers without a valid
    angle are not admissible and do not carry connectivity. When every
    pair of admissible angles provably passes the admission test
    (``features.admission_certain``), growth reduces to the 4-connected
    component of admissible markers around the centre, found without the
    heap or the per-marker test; the result is the same.
    """
    if not mask.contact_detected:
        return NO_CONTACT_REGION
    center = mask.center_index
    if center is None or not angles.valid[center]:
        return StickRegion(
            members=frozenset(), mean_angle=0.0, state=ContactState.MACRO_SLIP, stick_ratio=0.0
        )

    neighbors = grid.neighbors
    admissible_mask = mask.flags & angles.valid
    admissible = admissible_mask.tolist()
    # A marker's admissible entry is cleared when it is reached, so the list
    # is also the seen-set. The centre is flagged and valid, so the
    # certificate covers its angle too.
    admissible[center] = False
    # The centre is admitted untested: for angles and epsilon_angle below
    # ~1e-162 their squares underflow and its difference to itself is inf.
    members = [center]
    if admission_certain(angles.angles[admissible_mask], cfg.delta_phi_th, cfg.epsilon_angle):
        # Every admission test would pass, so the region is the centre's
        # 4-connected admissible component, whatever the visiting order.
        for idx in members:  # appended to while walked: breadth first
            for nbr in neighbors[idx]:
                if nbr is not None and admissible[nbr]:
                    admissible[nbr] = False
                    members.append(nbr)
    else:
        pos = grid.reference_positions
        dist = np.hypot(pos[:, 0] - pos[center, 0], pos[:, 1] - pos[center, 1]).tolist()
        phi = angles.angles.tolist()
        epsilon, threshold = cfg.epsilon_angle, cfg.delta_phi_th
        mean = phi[center]
        frontier = [(0.0, center)]  # popped first: only the centre is at distance 0
        while frontier:
            _, idx = heappop(frontier)
            if idx != center:
                if not normalized_angle_difference(phi[idx], mean, epsilon) < threshold:
                    continue
                members.append(idx)
                mean += (phi[idx] - mean) / len(members)
            for nbr in neighbors[idx]:
                if nbr is not None and admissible[nbr]:
                    admissible[nbr] = False
                    heappush(frontier, (dist[nbr], nbr))

    n_flagged = mask.n_flagged
    if len(members) < cfg.min_stick_markers:
        state = ContactState.MACRO_SLIP
    elif len(members) == n_flagged:
        state = ContactState.STICK
    else:
        state = ContactState.INCIPIENT_SLIP
    return StickRegion(
        members=frozenset(members),
        mean_angle=float(np.mean(angles.angles[sorted(members)])),
        state=state,
        stick_ratio=len(members) / n_flagged,
    )
