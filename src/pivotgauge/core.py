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
# Largest displacement component a frame holds, in mm: a kilometre, far beyond
# any elastomer's motion, and small enough that no kernel's arithmetic on a
# frame can overflow.
MAX_DISPLACEMENT_MM = 1e6
# Largest grid pitch and origin coordinate, in mm: a kilometre, like the
# displacement bound. Every marker position then lies within about 1e12 mm,
# so no product or sum the kernels take of positions and displacements overflows.
MAX_GRID_MM = 1e6
# Largest softness constant: k (a shear-modulus ratio) and |l_xy|, |l_yx|
# (degrees), far beyond any elastomer and object. A region's mean angle lies
# within +-180 degrees (StickRegion refuses any other), so every estimate stays
# within about 2e8 degrees and no filter sum or error mean of estimates can overflow.
MAX_SOFTNESS = 1e6
# Smallest grid pitch, in mm: a nanometre, far below any marker pitch. Kernels
# divide displacements by the pitch, so a subnormal one would overflow them.
MIN_PITCH_MM = 1e-6
# The four sides of a marker as (row step, column step): left, right, up (the
# previous row) and down. The one definition of the grid's 4-neighbour
# topology and of the order in which a marker's sides are visited.
SIDES = ((0, -1), (0, 1), (-1, 0), (1, 0))
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


def check_displacements(d: np.ndarray) -> None:
    """Refuse a component beyond +-``MAX_DISPLACEMENT_MM``, nan included; allocates nothing."""
    if not (-MAX_DISPLACEMENT_MM <= d.min() and d.max() <= MAX_DISPLACEMENT_MM):
        raise UsageError(f"displacements must lie within +-{MAX_DISPLACEMENT_MM:g} mm")


def _made(cls: type, **fields: Any) -> Any:
    """A ``cls`` record of ``fields``, derived ones (``n_flagged``) included, each
    array made read-only, without the public checks: for a kernel's own record,
    which its checked inputs guarantee and its public constructor would make alike."""
    record = object.__new__(cls)
    for name, value in fields.items():
        if type(value) is np.ndarray:
            value.setflags(write=False)
        # Field by field, as the public constructor does, so the record shares its
        # class's attribute keys: a __dict__.update would cost ~130 B more per record.
        object.__setattr__(record, name, value)
    return record


def frozen_array(value: Any, dtype: type) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array whose values never change: a
    view, which its base could still write, is copied; an array of its own is kept."""
    arr = np.asarray(value, dtype=dtype)
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        if pitch < MIN_PITCH_MM:
            raise UsageError(f"grid.pitch must be at least {MIN_PITCH_MM:g} mm, got {self.pitch!r}")
        if pitch > MAX_GRID_MM:
            raise UsageError(f"grid.pitch must be at most {MAX_GRID_MM:g} mm, got {self.pitch!r}")
        if self.origin is None:
            ox = -(self.cols - 1) * pitch / 2.0
            oy = -(self.rows - 1) * pitch / 2.0
        else:
            ox, oy = finite_pair(self.origin, "grid.origin")
        # The centred default too, so that a header written for the grid reads back.
        if not (abs(ox) <= MAX_GRID_MM and abs(oy) <= MAX_GRID_MM):
            raise UsageError(f"grid.origin must lie within +-{MAX_GRID_MM:g} mm, got {(ox, oy)}")
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

    def require(self, what: str, shape: tuple[int, ...]) -> None:
        """The one grid check of a per-marker record: ``shape`` must be (n_markers,)."""
        if shape != (self.n_markers,):
            raise UsageError(f"{what} has shape {shape}, grid expects ({self.n_markers},)")

    @property
    def reference_positions(self) -> np.ndarray:
        """(n_markers, 2) array of reference xy positions, row-major."""
        return self._positions  # type: ignore[attr-defined]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """The 4-neighbours of every marker, by index, in ``SIDES`` order;
        a border marker has only those inside the grid. Built on first use,
        so grids that never grow a region do not pay for it. Every entry of an
        index is one int object: Python makes a new int for each sum beyond
        256, which would hold a copy per entry.
        """
        rows, cols = self.rows, self.cols
        index = list(range(rows * cols))
        return tuple([
            # From a list, at its exact size: a tuple of a generator keeps its growth room.
            tuple([index[(i + di) * cols + j + dj] for di, dj in SIDES
                   if 0 <= i + di < rows and 0 <= j + dj < cols])
            for i in range(rows) for j in range(cols)
        ])

    @cached_property
    def neighbor_count(self) -> np.ndarray:
        """How many 4-neighbours each marker has, 2 to 4: a read-only uint8
        array, the segment count of a field with no collapsed segment."""
        count = np.fromiter(map(len, self.neighbors), dtype=np.uint8, count=self.n_markers)
        count.setflags(write=False)
        return count

    @cached_property
    def all_markers(self) -> np.ndarray:
        """A read-only all-True mask, one entry per marker: the one ``valid``
        shared by the angle records of fields without a short segment."""
        mask = np.ones(self.n_markers, dtype=bool)
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True, eq=False)
class Frame:
    """Per-marker 3-component displacement field at one timestamp.

    ``timestamp`` is a finite number of seconds. ``displacements`` is
    (n_markers, 3): tangential dx, dy and normal dz, all in mm, cumulative
    relative to the reference configuration, each within
    +-``MAX_DISPLACEMENT_MM``. It is given as an int, uint or float array,
    which the frame copies, or as rows of numbers by the number rule.
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
        if d.ndim != 2 or d.shape[1] != 3 or not len(d):
            raise UsageError(f"displacements must be (n, 3), got shape {d.shape}")
        check_displacements(d)
        d.setflags(write=False)
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "timestamp", t)

    @property
    def n_markers(self) -> int:
        return self.displacements.shape[0]


@dataclass(frozen=True, eq=False)
class ContactMask:
    """Markers flagged as belonging to the contact patch.

    ``center_index`` is the assumed stick centre, the index in ``[0, len(flags))``
    of a flagged marker; contact is detected exactly when it is present.
    ``n_flagged``, the number of flagged markers, is counted once, here.
    """

    flags: np.ndarray
    center_index: Optional[int] = None

    def __post_init__(self) -> None:
        flags = frozen_array(self.flags, bool)
        if flags.ndim != 1:
            raise UsageError(f"contact flags must be 1-d, got shape {flags.shape}")
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "n_flagged", int(np.count_nonzero(flags)))
        if self.center_index is not None:
            index = whole_number(self.center_index, "center_index")
            if not (0 <= index < len(flags) and flags[index]):
                raise UsageError(f"center_index must refer to a flagged marker, got {index}")
            object.__setattr__(self, "center_index", index)

    @property
    def contact_detected(self) -> bool:
        return self.center_index is not None


@dataclass(frozen=True, eq=False)
class LineFeatureAngles:
    """Per-marker local rotation angle of the displacement field, degrees.

    ``valid`` is False where too few usable neighbour segments exist;
    ``angles`` is 0.0 there. A valid angle lies within +-180 degrees.
    """

    angles: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        angles = frozen_array(self.angles, float)
        valid = frozen_array(self.valid, bool)
        if angles.shape != valid.shape:
            raise UsageError("angles and valid must have matching shapes")
        if not (np.abs(angles[valid]) <= 180.0).all():  # nan included
            raise UsageError("valid angles must be finite and lie within +-180 degrees")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True, eq=False)
class StickRegion:
    """The grown set of sticking markers with its mean feature angle.

    ``members`` are the region's marker indices, strictly ascending, given
    as a list, a tuple or an integer array and held as a read-only ``intp``
    array (an array of its own is kept, as ``frozen_array`` keeps one).
    ``stick_ratio`` is |members| / |flagged contact markers|, within [0, 1].
    ``mean_angle`` is a finite number of degrees within +-180, as a mean of
    valid angles is, and ``state`` a ``ContactState``. A NoContact region has
    no members, ratio 0 and mean 0.
    """

    members: np.ndarray
    mean_angle: float
    state: ContactState
    stick_ratio: float

    def __post_init__(self) -> None:
        members = np.asarray(self.members)
        # Neither a float (which would truncate) nor a bool mask is an index,
        # and a set has no order: numpy makes it a 0-d object array.
        if members.ndim != 1 or (members.size and members.dtype.kind not in "iu"):
            raise UsageError("stick members must be a list, tuple or 1-d array of integer "
                             f"indices, got {type(self.members).__name__} of {members.dtype}, "
                             f"shape {members.shape}")
        members = frozen_array(members, np.intp)
        if members.size and (members.item(0) < 0 or np.count_nonzero(members[1:] <= members[:-1])):
            raise UsageError("stick members must be strictly ascending non-negative indices")
        object.__setattr__(self, "members", members)
        if not 0.0 <= finite_number(self.stick_ratio, "stick_ratio") <= 1.0:
            raise UsageError(f"stick_ratio must lie in [0, 1], got {self.stick_ratio!r}")
        if not isinstance(self.state, ContactState):
            raise UsageError(f"a region's state must be a ContactState, got {self.state!r}")
        if self.state is ContactState.NO_CONTACT and (
                len(members) or self.stick_ratio or self.mean_angle):
            raise UsageError("a NoContact region has no members, ratio 0 and mean angle 0")
        if not abs(finite_number(self.mean_angle, "mean_angle")) <= 180.0:
            raise UsageError(f"mean_angle must lie within +-180 degrees, got {self.mean_angle!r}")


@dataclass(frozen=True)
class SoftnessParams:
    """Soft-object correction constants.

    ``k`` is the shear-modulus ratio elastomer/object (0 for a rigid
    object); ``l_xy`` and ``l_yx`` are accumulated contact-distribution
    constants in degrees. Each lies within +-``MAX_SOFTNESS``. The rigid
    default is all zeros.
    """

    k: float = 0.0
    l_xy: float = 0.0
    l_yx: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k", "l_xy", "l_yx"):
            value = getattr(self, name)
            if abs(finite_number(value, f"softness.{name}")) > MAX_SOFTNESS:
                raise UsageError(f"softness.{name} must lie within +-{MAX_SOFTNESS:g}, got {value!r}")
        if self.k < 0:
            raise UsageError(f"softness.k must be >= 0, got {self.k!r}")


@dataclass(frozen=True, eq=False)
class FrameResult:
    """What the pipeline yields for one frame, each fact once: the raw
    (unfiltered) angle ``theta``, the contact ``mask``, the line-feature
    ``angles`` (None exactly when no contact was detected, as none are
    computed then) and the stick ``region``, NoContact exactly then too.
    ``theta`` is a finite float, 0 when there is no contact. The mask and
    the angle record have one length, and with contact the region's members
    lie within it and its stick ratio is its member count over the mask's
    flagged count."""

    theta: float
    mask: ContactMask
    angles: Optional[LineFeatureAngles]
    region: StickRegion

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", finite_number(self.theta, "frame result theta"))
        contact = self.mask.contact_detected
        if (self.angles is None) == contact:
            raise UsageError("a frame result has angles exactly when contact was detected")
        if (self.region.state is ContactState.NO_CONTACT) == contact:
            raise UsageError("a frame result's region is NoContact exactly without contact")
        if not contact:
            if self.theta != 0.0:
                raise UsageError("theta must be 0 when no contact is detected")
            return
        shapes = self.angles.angles.shape, self.mask.flags.shape
        if shapes[0] != shapes[1]:
            raise UsageError("a frame result's angle record has shape %s, its mask %s" % shapes)
        members, n_markers = self.region.members, len(self.mask.flags)
        if len(members) and members.item(-1) >= n_markers:  # ascending: the last is the largest
            raise UsageError(f"a frame result's stick member {members.item(-1)} lies outside "
                             f"its {n_markers}-marker mask")
        count, flagged = len(members), self.mask.n_flagged
        ratio = self.region.stick_ratio
        if ratio != count / flagged:
            raise UsageError(f"a frame result's stick ratio must be {count} members / "
                             f"{flagged} flagged, got {ratio!r}")
