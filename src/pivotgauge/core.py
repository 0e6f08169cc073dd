"""Shared domain types and marker-grid geometry.

Conventions used throughout the package:

* lengths are millimetres, times are seconds, angles are degrees
  (counter-clockwise positive); conversion to radians happens only at
  trigonometric call sites,
* markers are identified by their row-major index ``i * cols + j``;
  frames arrive already associated with the reference grid, there is no
  tracking logic,
* displacements are cumulative relative to the undeformed reference
  configuration, not inter-frame increments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np

# Largest grid a config or stream header may describe, far above any tactile
# sensor's marker count; checked before any array of that size is allocated.
MAX_MARKERS = 1_000_000
# Longest trajectory a config or caller may ask for, as rate x duration (over
# nine hours at 30 Hz); checked before any frame is generated.
MAX_FRAMES = 1_000_000


class UsageError(ValueError):
    """An operation was called outside its contract (bad index, size mismatch...)."""


class ConfigError(ValueError):
    """A configuration document is malformed or contains unknown keys."""


class InsufficientDataError(RuntimeError):
    """Too few contact markers to perform the requested computation."""


def finite_pair(value: Any, name: str) -> tuple[float, float]:
    """``value`` as a pair of finite floats, or a UsageError naming ``name``."""
    try:
        x, y = np.asarray(value, dtype=float).tolist()
        if math.isfinite(x) and math.isfinite(y):
            return x, y
    except (TypeError, ValueError, OverflowError):
        pass
    raise UsageError(f"{name} must be two finite numbers, got {value!r}")


def whole_number(value: Any, name: str) -> int:
    """``value`` as an int (a whole float such as ``25.0`` included), or a
    UsageError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be a whole number, got {value!r}")
    return int(value)


class ContactState(enum.Enum):
    """Contact-surface state reported alongside every rotation estimate."""

    NO_CONTACT = "NoContact"
    STICK = "Stick"
    INCIPIENT_SLIP = "IncipientSlip"
    MACRO_SLIP = "MacroSlip"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class MarkerGrid:
    """Reference geometry of the sensor's marker array.

    Marker ``(i, j)`` sits at ``origin + (j * pitch, i * pitch)``; positions
    are constructed by multiplication so they are exactly affine in the
    indices (no accumulated summation error). ``origin`` defaults to the
    placement that centres the marker span on (0, 0).
    """

    rows: int = 20
    cols: int = 20
    pitch: float = 1.0
    origin: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            object.__setattr__(self, name, whole_number(getattr(self, name), f"grid {name}"))
        if self.rows < 2 or self.cols < 2:
            raise UsageError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        if self.rows * self.cols > MAX_MARKERS:
            raise UsageError(f"grid {self.rows}x{self.cols} exceeds {MAX_MARKERS} markers")
        try:
            finite = math.isfinite(self.pitch)
        except OverflowError:  # an int beyond float range
            finite = False
        if not (self.pitch > 0 and finite):
            raise UsageError(f"pitch must be positive and finite, got {self.pitch}")
        if self.origin is None:
            ox = -(self.cols - 1) * self.pitch / 2.0
            oy = -(self.rows - 1) * self.pitch / 2.0
        else:
            ox, oy = finite_pair(self.origin, "origin")
        far = (ox + (self.cols - 1) * self.pitch, oy + (self.rows - 1) * self.pitch)
        if not all(map(math.isfinite, (ox, oy, *far))):
            raise UsageError(f"grid positions overflow with pitch {self.pitch} from {(ox, oy)}")
        object.__setattr__(self, "origin", (ox, oy))
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        pos = np.column_stack([ox + jj.ravel() * self.pitch, oy + ii.ravel() * self.pitch])
        pos.setflags(write=False)
        object.__setattr__(self, "_positions", pos)

    @property
    def n_markers(self) -> int:
        return self.rows * self.cols

    @property
    def half_extent(self) -> float:
        """Smaller half-width of the marker span, in mm."""
        return min(self.rows - 1, self.cols - 1) * self.pitch / 2.0

    @property
    def reference_positions(self) -> np.ndarray:
        """(n_markers, 2) array of reference xy positions, row-major."""
        return self._positions  # type: ignore[attr-defined]

    def index_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise UsageError(f"marker ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def row_col(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.n_markers):
            raise UsageError(f"marker index {index} outside grid of {self.n_markers}")
        return divmod(index, self.cols)

    @cached_property
    def neighbors(self) -> tuple[tuple[Optional[int], ...], ...]:
        """The (left, right, up, down) 4-neighbours of every marker, by index.

        Out-of-bounds sides are None. "Up" is the previous row
        (``index - cols``). Built on first use, so grids that never grow a
        region or walk their neighbours do not pay for it.
        """
        rows, cols = self.rows, self.cols
        table = []
        for index in range(rows * cols):
            i, j = divmod(index, cols)
            table.append((
                index - 1 if j > 0 else None,
                index + 1 if j < cols - 1 else None,
                index - cols if i > 0 else None,
                index + cols if i < rows - 1 else None,
            ))
        return tuple(table)


def neighbor_indices(
    grid: MarkerGrid, index: int
) -> tuple[Optional[int], Optional[int], Optional[int], Optional[int]]:
    """Return the (left, right, up, down) 4-neighbours of a marker.

    Out-of-bounds sides are None. "Up" is the previous row (``index - cols``).
    """
    grid.row_col(index)  # rejects indices outside the grid, including negative ones
    return grid.neighbors[index]


@dataclass(frozen=True, eq=False)
class Frame:
    """Per-marker 3-component displacement field at one timestamp.

    ``displacements`` is (n_markers, 3): tangential dx, dy and normal dz,
    all in mm, cumulative relative to the reference configuration.
    """

    timestamp: float
    displacements: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.displacements, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3:
            raise UsageError(f"displacements must be (n, 3), got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise UsageError("displacements contain non-finite values")
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "timestamp", float(self.timestamp))

    @property
    def n_markers(self) -> int:
        return self.displacements.shape[0]

    def require_grid(self, grid: MarkerGrid) -> None:
        if self.n_markers != grid.n_markers:
            raise UsageError(
                f"frame has {self.n_markers} markers, grid expects {grid.n_markers}"
            )


@dataclass(frozen=True, eq=False)
class ContactMask:
    """Markers flagged as belonging to the contact patch.

    ``center_index`` is the assumed stick centre; it is present only when
    contact was detected and always refers to a flagged marker.
    """

    flags: np.ndarray
    contact_detected: bool
    center_index: Optional[int] = None

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags, dtype=bool)
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)
        if not self.contact_detected and self.center_index is not None:
            raise UsageError("center_index must be absent when no contact is detected")
        if self.center_index is not None and not flags[self.center_index]:
            raise UsageError("center_index must refer to a flagged marker")

    @property
    def n_flagged(self) -> int:
        return int(self.flags.sum())


@dataclass(frozen=True, eq=False)
class LineFeatureAngles:
    """Per-marker local rotation angle of the displacement field, degrees.

    ``valid`` is False where too few usable neighbour segments exist;
    ``angles`` is 0.0 there.
    """

    angles: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if angles.shape != valid.shape:
            raise UsageError("angles and valid must have matching shapes")
        if not np.all(np.isfinite(angles[valid])):
            raise UsageError("valid angles must be finite")
        angles.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class StickRegion:
    """The grown set of sticking markers with its mean feature angle.

    ``stick_ratio`` is |members| / |flagged contact markers| (0 when there
    is no contact).
    """

    members: frozenset[int]
    mean_angle: float
    state: ContactState
    stick_ratio: float


@dataclass(frozen=True)
class SoftnessParams:
    """Soft-object correction constants.

    ``k`` is the shear-modulus ratio elastomer/object (0 for a rigid
    object); ``l_xy`` and ``l_yx`` are accumulated contact-distribution
    constants in degrees. The rigid default is all zeros.
    """

    k: float = 0.0
    l_xy: float = 0.0
    l_yx: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k", "l_xy", "l_yx"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int beyond float range
                finite = False
            if not finite:
                raise UsageError(f"softness {name} must be a finite number, got {value!r}")
        if self.k < 0:
            raise UsageError(f"softness ratio k must be >= 0, got {self.k}")


@dataclass(frozen=True)
class RotationEstimate:
    """Estimated pivot rotation for one frame.

    ``theta`` is always finite and 0 when there is no contact. ``cor`` is
    populated only by the least-squares baseline.
    """

    theta: float
    state: ContactState
    stick_ratio: float
    cor: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.theta):
            raise UsageError("estimate theta must be finite")
        if self.state is ContactState.NO_CONTACT and self.theta != 0.0:
            raise UsageError("theta must be 0 when no contact is detected")
