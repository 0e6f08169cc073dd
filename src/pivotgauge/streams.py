"""NDJSON frame streams and CSV emission.

Frame stream format: the first line is a header object
``{"rows", "cols", "pitch", "origin"}``; every following line is one frame
``{"t": seconds, "d": [[dx, dy, dz], ...]}`` in row-major marker order. A
truth line is ``{"t", "theta", "stick", "contact", "slip"}``, its masks
written as 0 and 1.

Each frame or truth line is one ``%`` format of a template built for its
row count. ``%r`` of a float is ``float.__repr__``, the function
``json.dumps`` calls on a finite float, and the template holds its
separators, so every line has the bytes ``json.dumps`` would give. Floats
thus keep full round-trip precision, and piping a stream through a file
reproduces bit-identical values. This holds for finite values only, which
``Frame`` and ``GroundTruth`` guarantee. A truth's values never change, so
the part of its line after ``"t"`` is formatted once per ``GroundTruth``
object: the frames of a hold, which share one truth, reuse that text.

``read_frames`` parses each frame line with ``json.loads``. When the line's
text shows that every leaf is a number, as on each line ``write_frame``
writes, its rows are read into an array in one pass; any other line goes
through the number rule of ``Frame``, and both give the same frame or the
same warning.

CSV output is RFC-4180-style with a header row, ``.`` decimal separator
and 6 significant digits for every float cell; other cells (counts,
states) are written with ``str``.
"""

from __future__ import annotations

import functools
import json
from contextlib import suppress
from dataclasses import asdict
from itertools import chain
from typing import IO, Any, Iterable, Iterator, Optional

import numpy as np

from .core import Frame, MarkerGrid, finite_number, finite_pair
from .simulate import GroundTruth


class StreamFormatError(RuntimeError):
    """The NDJSON header is missing or unusable (fatal for the stream)."""


# What a malformed line raises while it is parsed and checked: a JSON or value
# error (UsageError included), a missing key, a wrong type, an integer beyond
# float range, or nesting deeper than the JSON parser's recursion limit.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def fmt(value: float) -> str:
    """Fixed 6-significant-digit rendering used by every CSV column."""
    return format(float(value), ".6g")


def write_header(out: IO[str], grid: MarkerGrid) -> None:
    """The header line: the grid's fields, as the config's ``grid`` section names them."""
    out.write(json.dumps(asdict(grid)) + "\n")


def _rows(n: int, row: str) -> str:
    """The placeholders of ``n`` rows, as ``json.dumps`` separates list items."""
    return ", ".join([row] * n)


def _digits(mask: np.ndarray) -> str:
    """A bool mask as the items of a JSON list of 0 and 1."""
    return ", ".join((mask.view(np.uint8) + 48).tobytes().decode())


def write_frame(out: IO[str], frame: Frame) -> None:
    """One frame line, with the bytes ``json.dumps`` would give."""
    d = frame.displacements
    line = '{"t": %r, "d": [' + _rows(len(d), "[%r, %r, %r]") + "]}\n"
    out.write(line % (frame.timestamp, *d.ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _truth_body(truth: GroundTruth) -> str:
    """A truth line after its ``"t"`` member, kept for the last truth asked
    for: ``GroundTruth`` hashes by identity, and the cache's reference keeps
    that identity from being reused."""
    slip = truth.slip_field
    body = ', "theta": %r, "stick": [%s], "contact": [%s], "slip": ['
    body += _rows(len(slip), "[%r, %r]")
    return body % (truth.theta, _digits(truth.stick_mask), _digits(truth.contact_mask_true),
                   *slip.ravel().tolist()) + "]}\n"


def write_truth(out: IO[str], t: float, truth: GroundTruth) -> None:
    """One truth line at ``t``, with the bytes ``json.dumps`` would give.
    ``t`` is read by the number rule, so the line is strict JSON; a time that
    breaks it is refused and nothing is written."""
    value = finite_number(t, "truth time")
    # An int stays an int, and a float subclass such as np.float64, whose
    # repr names its type, is written as its float, as json.dumps does.
    out.write('{"t": %r' % (t if type(t) is int else value) + _truth_body(truth))


class NumberedLines:
    """The lines of a stream, numbered from 1 as they are read: ``lineno`` is
    the number of the last line read, blank lines included. ``read_header``
    and then ``read_frames`` given one report true line numbers."""

    def __init__(self, lines: Iterable[str], read: int = 0):
        self._lines = iter(lines)
        self.lineno = read

    def __iter__(self) -> "NumberedLines":
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.lineno += 1
        return line


def read_header(lines: Iterator[str]) -> MarkerGrid:
    """Parse the stream header into a grid; malformed header is fatal."""
    for line in lines:
        if line and not line.isspace():
            break
    else:
        raise StreamFormatError("empty stream: no header line")
    try:
        obj = json.loads(line)
        return MarkerGrid(
            rows=obj["rows"],
            cols=obj["cols"],
            pitch=obj["pitch"],
            # A header must state its origin: null is not the centred default.
            origin=finite_pair(obj["origin"], "origin"),
        )
    except _MALFORMED as exc:
        raise StreamFormatError(f"bad stream header: {exc}") from exc


def _numbers_at_once(line: Any, d: Any) -> Any:
    """A frame line's rows ``d`` as the array the number rule would make of
    them, read in one pass, or ``d`` itself when its text cannot vouch for them.

    The keys ``t`` and ``d`` take four ``"``, so a ``str`` line with exactly
    four holds no other string, and one with no ``u`` or ``a`` holds no
    ``true``, ``null``, ``false``, ``NaN`` or ``\\u`` escape. Every leaf json
    made of it is then an int, a float, a list or ``{}``. ``np.fromiter``
    refuses the last two and an int beyond float range, and converts the rest
    as the number rule does, so when each row has three leaves its array is
    the rule's own. Any other line, a bytes line from a binary file included,
    keeps its rows, and the rule gives their frame or its warning."""
    if type(line) is str and line.count('"') == 4 and "u" not in line and "a" not in line:
        with suppress(TypeError, ValueError, OverflowError):
            if set(map(len, d)) == {3}:
                return np.fromiter(chain.from_iterable(d), float, count=3 * len(d)).reshape(-1, 3)
    return d


def read_frames(lines: Iterator[str], grid: MarkerGrid, warn: IO[str]) -> Iterator[Frame]:
    """Yield frames from NDJSON lines, skipping malformed ones with a warning
    to ``warn``.

    A line is skipped (never fatal) when it fails to parse, has the wrong
    marker count, breaks the number rule of ``Frame``, or is not later than
    the last frame yielded (a duplicate or out-of-order line). A warning
    names the line by ``lines.lineno`` for ``NumberedLines``; other lines
    are numbered as following a header on line 1.
    """
    if not isinstance(lines, NumberedLines):
        lines = NumberedLines(lines, read=1)
    last_t: Optional[float] = None
    for line in lines:
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
            t, d = obj["t"], obj["d"]
            frame = Frame(timestamp=t, displacements=_numbers_at_once(line, d))
            grid.require("frame", (frame.n_markers,))
            if last_t is not None and not frame.timestamp > last_t:
                raise ValueError(f"out-of-order frame: t={frame.timestamp} not after t={last_t}")
        except _MALFORMED as exc:
            print(f"warning: skipping frame line {lines.lineno}: {exc}", file=warn)
            continue
        last_t = frame.timestamp
        yield frame


def write_csv_row(out: IO[str], values: Iterable[Any]) -> None:
    """Write one CSV row: a float cell through ``fmt``, any other through ``str``."""
    out.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in values) + "\n")
