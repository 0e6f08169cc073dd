"""Frame clock: frame times taken from outside the package, converted to a
reference machine speed.

Times are the process's CPU time. The package is single-threaded and
synchronous and the benchmark's sinks are in memory, so this equals the
wall time a frame takes, less the moments the operating system runs
something else; those moments otherwise land at random in the tail.

On a shared machine the core can also run this process 20-60% slower for
seconds at a time, and the speed changes within a single pass. CPU time
slows with it, so the cause is other tenants contending for the core, and
only a measurement made at the same moment can correct for it. A fixed
calibration slice of about 0.4 ms therefore runs in the gap before every
timed interval, outside it, and each interval is multiplied by
``SLICE_REF_NS`` over the median of the slices around it.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Optional

import numpy as np

# Reported times are those of a machine on which one slice takes this long:
# a fixed unit, chosen near the slice's time between frames on a 2-vCPU VM
# with Python 3.11 and numpy 2.4.
SLICE_REF_NS = 400_000
# Slices on each side of an interval that its scale is the median of.
NEIGHBOURS = 2

now_ns = time.process_time_ns

_RNG = np.random.default_rng(0)
_X, _Y = _RNG.standard_normal((2, 400))
_MATRIX = _RNG.standard_normal((21, 21))
_VALUES = _RNG.standard_normal(200).tolist()


def slice_ns() -> int:
    """Time one run of a fixed mix of the package's kinds of work: an
    interpreted loop over a dict, small numpy array operations, JSON
    encoding and decoding of floats, and formatting, sorting and joining
    of strings."""
    start = now_ns()
    counts, acc = {}, 0
    for i in range(300):
        acc += (i * i) % 7
        counts[i & 255] = acc
    for _ in range(5):
        near = np.hypot(_X, _Y) > 0.5
        acc += float(np.arctan2(_Y[near], _X[near]).mean())
        acc += float((_MATRIX @ _MATRIX).trace())
    acc += sum(json.loads(json.dumps({"t": acc, "d": _VALUES}))["d"])
    rows = [f"{i * 0.001:.6f},{i % 7}" for i in range(20)]
    ",".join(sorted(rows, key=lambda row: row[::-1]))
    return now_ns() - start


def block_ns(count: int = 16) -> float:
    """Median time of ``count`` slices run back to back."""
    return statistics.median(slice_ns() for _ in range(count))


class FrameClock:
    """Timed intervals of a pass, each belonging to one frame.

    Most workloads time a frame as one interval; a frame generated in one
    phase and written in another has two, and its time is their sum. When
    a tracer is given, each interval is also a root span with the frame's id.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.frames: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.slices: list[int] = []

    @property
    def running(self) -> bool:
        return len(self.starts) > len(self.ends)

    def start(self, frame: Optional[int] = None) -> None:
        """Run a calibration slice, then open an interval of ``frame``
        (by default the next frame)."""
        self.slices.append(slice_ns())
        t = now_ns()
        frame = len(self.starts) if frame is None else frame
        self.frames.append(frame)
        self.starts.append(t)
        if self.tracer is not None:
            self.tracer.begin_frame(t, frame)

    def stop(self) -> None:
        t = now_ns()
        self.ends.append(t)
        if self.tracer is not None:
            self.tracer.end(t)

    def frame_ns(self) -> tuple[list[float], list[float]]:
        """Each frame's measured time and its time at the reference speed."""
        n = max(self.frames) + 1
        raw, scaled = [0.0] * n, [0.0] * n
        for j, (frame, start, end) in enumerate(zip(self.frames, self.starts, self.ends)):
            near = statistics.median(self.slices[max(0, j - NEIGHBOURS) : j + NEIGHBOURS + 1])
            raw[frame] += end - start
            scaled[frame] += (end - start) * SLICE_REF_NS / near
        return raw, scaled
