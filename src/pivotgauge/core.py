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
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Optional

import numpy as np

# Largest grid a config or stream header may describe, far above any tactile
# sensor's marker count; checked before any array of that size is allocated.
MAX_MARKERS = 1_000_000
# Longest trajectory a config or caller may ask for, as rate x duration (over
# nine hours at 30 Hz); checked before any frame is generated.
MAX_FRAMES = 1_000_000
_FLOAT_MAX = sys.float_info.max  # an int beyond it has no float value
_REALS = (int, float, np.integer, np.floating)  # bool is an int: refused separately
_ROWS = (list, tuple, range, np.ndarray)  # kinds of rows, and of sequences of them


class UsageError(ValueError):
    """An operation was called outside its contract (bad index, size mismatch...)."""


class ConfigError(ValueError):
    """A configuration document is malformed or contains unknown keys."""


class InsufficientDataError(RuntimeError):
    """Too few contact markers to perform the requested computation."""


def finite_number(value: Any, name: str) -> float:
    """``value`` as a float, or a UsageError naming ``name``: a finite int,
    float or numpy number, never a bool, a string, None, NaN, +-inf or an
    int beyond float range. The one rule for every numeric input."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:  # exact int-float compare
        return float(value)
    if isinstance(value, _REALS) and not isinstance(value, bool):
        with suppress(OverflowError):  # raised for an int beyond float range
            if math.isfinite(value):
                return float(value)
    raise UsageError(f"{name} must be a finite number, got {value!r}")


def finite_pair(value: Any, name: str) -> tuple[float, float]:
    """``value`` as a pair of finite floats, or a UsageError naming ``name``."""
    try:
        x, y = value
        return finite_number(x, name), finite_number(y, name)
    except (TypeError, ValueError):  # UsageError included
        raise UsageError(f"{name} must be two finite numbers, got {value!r}") from None


def number_rows(rows: Any, name: str, width: Optional[int] = None) -> np.ndarray:
    """``rows`` as an (n, width) float array, or a UsageError naming ``name``:
    n >= 1 rows of ``width`` numbers (any one width when None), each an int or
    float by the number rule (numpy reals included, bools not). The rows, and
    the sequence of them, are lists, tuples, ranges or arrays; any other value
    is refused by its type, never walked into. Finiteness is the caller's check."""
    wanted = f"rows of {width} numbers" if width else "rows of numbers of one width"
    try:
        n = len(rows)
        sequences = {type(rows), *map(type, rows)}
        widths = set(map(len, rows))
        types = set(map(type, chain.from_iterable(rows))) - {int, float}
    except TypeError:  # not a sequence of sized rows
        raise UsageError(f"{name} must be a sequence of {wanted}") from None
    odd = sorted(t.__name__ for t in sequences if not issubclass(t, _ROWS))
    if odd:  # a dict or set has no order of its own, a string or bytes no numbers
        raise UsageError(f"{name} must be lists, tuples or arrays of numbers, got {', '.join(odd)}")
    if len(widths) != 1 or (width is not None and widths != {width}):
        raise UsageError(f"{name} must be {wanted}, got widths {sorted(widths)}")
    bad = sorted(t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, _REALS))
    if bad:
        raise UsageError(f"{name} must be finite numbers, got {', '.join(bad)}")
    (w,) = widths
    try:
        return np.fromiter(chain.from_iterable(rows), float, count=w * n).reshape(n, w)
    except OverflowError:  # an int beyond float range
        raise UsageError(f"{name} contain non-finite values") from None


def whole_number(value: Any, name: str) -> int:
    """``value`` as an int (a whole float such as ``25.0`` included, a bool
    not), or a UsageError naming ``name``. Like every number, it must lie
    within float range (``finite_number``)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be a whole number, got {value!r}")
    finite_number(value, name)
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
            object.__setattr__(self, name, whole_number(getattr(self, name), f"grid.{name}"))
        if self.rows < 2 or self.cols < 2:
            raise UsageError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        if self.rows * self.cols > MAX_MARKERS:
            raise UsageError(f"grid {self.rows}x{self.cols} exceeds {MAX_MARKERS} markers")
        # The field keeps its number (a header writes an int pitch as an int).
        pitch = finite_number(self.pitch, "grid.pitch")
        if not pitch > 0:
            raise UsageError(f"grid.pitch must be positive, got {self.pitch!r}")
        if self.origin is None:
            ox = -(self.cols - 1) * pitch / 2.0
            oy = -(self.rows - 1) * pitch / 2.0
        else:
            ox, oy = finite_pair(self.origin, "grid.origin")
        far = (ox + (self.cols - 1) * pitch, oy + (self.rows - 1) * pitch)
        if not all(map(math.isfinite, (ox, oy, *far))):
            raise UsageError(f"grid positions overflow with pitch {self.pitch} from {(ox, oy)}")
        object.__setattr__(self, "origin", (ox, oy))
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        pos = np.column_stack([ox + jj.ravel() * pitch, oy + ii.ravel() * pitch])
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


@dataclass(frozen=True, eq=False)
class Frame:
    """Per-marker 3-component displacement field at one timestamp.

    ``timestamp`` is a finite number of seconds. ``displacements`` is
    (n_markers, 3): tangential dx, dy and normal dz, all in mm, cumulative
    relative to the reference configuration, all finite. It is given as an
    int, uint or float array, which the frame copies, or as rows of numbers
    by the number rule.
    """

    timestamp: float
    displacements: np.ndarray

    def __post_init__(self) -> None:
        t = finite_number(self.timestamp, "frame timestamp")
        d = self.displacements
        if not isinstance(d, np.ndarray):
            d = number_rows(d, "displacements", 3)
        elif d.dtype.kind in "iuf":
            d = np.array(d, dtype=float, order="C")  # the frame's own copy, never the caller's
        else:
            raise UsageError(f"displacements must be real numbers, got dtype {d.dtype}")
        if d.ndim != 2 or d.shape[1] != 3:
            raise UsageError(f"displacements must be (n, 3), got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise UsageError("displacements contain non-finite values")
        d.setflags(write=False)
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "timestamp", t)

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

    ``center_index`` is the assumed stick centre, the index in ``[0, len(flags))``
    of a flagged marker; contact is detected exactly when it is present.
    """

    flags: np.ndarray
    center_index: Optional[int] = None

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags, dtype=bool)
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)
        if self.center_index is not None:
            index = whole_number(self.center_index, "center_index")
            if not (0 <= index < len(flags) and flags[index]):
                raise UsageError(f"center_index must refer to a flagged marker, got {index}")
            object.__setattr__(self, "center_index", index)

    @property
    def contact_detected(self) -> bool:
        return self.center_index is not None

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
            finite_number(getattr(self, name), f"softness.{name}")
        if self.k < 0:
            raise UsageError(f"softness.k must be >= 0, got {self.k!r}")


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
        finite_number(self.theta, "estimate theta")
        if self.state is ContactState.NO_CONTACT and self.theta != 0.0:
            raise UsageError("theta must be 0 when no contact is detected")
