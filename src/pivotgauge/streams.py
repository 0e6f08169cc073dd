"""NDJSON frame streams and CSV emission.

Frame stream format: the first line is a header object
``{"rows", "cols", "pitch", "origin"}``; every following line is one frame
``{"t": seconds, "d": [[dx, dy, dz], ...]}`` in row-major marker order.
Floats are serialized with full round-trip precision, so piping a stream
through a file reproduces bit-identical values.

CSV output is RFC-4180-style with a header row, ``.`` decimal separator
and 6 significant digits for every float cell; other cells (counts,
states) are written with ``str``.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Any, Iterable, Iterator, Optional

from .core import Frame, MarkerGrid, finite_pair
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
    out.write(
        json.dumps(
            {
                "rows": grid.rows,
                "cols": grid.cols,
                "pitch": grid.pitch,
                "origin": [grid.origin[0], grid.origin[1]],
            }
        )
        + "\n"
    )


def write_frame(out: IO[str], frame: Frame) -> None:
    out.write(json.dumps({"t": frame.timestamp, "d": frame.displacements.tolist()}) + "\n")


def write_truth(out: IO[str], t: float, truth: GroundTruth) -> None:
    out.write(
        json.dumps(
            {
                "t": t,
                "theta": truth.theta,
                "stick": truth.stick_mask.astype(int).tolist(),
                "contact": truth.contact_mask_true.astype(int).tolist(),
                "slip": truth.slip_field.tolist(),
            }
        )
        + "\n"
    )


def read_header(lines: Iterator[str]) -> MarkerGrid:
    """Parse the stream header into a grid; malformed header is fatal."""
    for line in lines:
        if line.strip():
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


def read_frames(
    lines: Iterator[str],
    grid: MarkerGrid,
    warn: Optional[IO[str]] = None,
) -> Iterator[Frame]:
    """Yield frames from NDJSON lines, skipping malformed ones with a warning.

    A line is skipped (never fatal) when it fails to parse, has the wrong
    marker count, contains non-finite components, or is not later than the
    last frame yielded (a duplicate or out-of-order line).
    """
    warn = warn if warn is not None else sys.stderr
    last_t: Optional[float] = None
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            frame = Frame(timestamp=obj["t"], displacements=obj["d"])
            frame.require_grid(grid)
            if last_t is not None and not frame.timestamp > last_t:
                raise ValueError(f"out-of-order frame: t={frame.timestamp} not after t={last_t}")
        except _MALFORMED as exc:
            print(f"warning: skipping frame line {lineno}: {exc}", file=warn)
            continue
        last_t = frame.timestamp
        yield frame


def write_csv_row(out: IO[str], values: Iterable[Any]) -> None:
    """Write one CSV row: a float cell through ``fmt``, any other through ``str``."""
    out.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in values) + "\n")
