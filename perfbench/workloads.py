"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Every workload is a closed loop with one caller: a pass starts only after
the previous one returned. Each pass times its frames from outside the
package with a ``clock.FrameClock``. The package is always reached through
its module attributes (``harness.estimate_from_stream``,
``streams.write_frame`` ...), so a traced pass sees the wrappers installed
by ``tracing``.
"""

from __future__ import annotations

import io
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from pivotgauge import config as config_mod
from pivotgauge import harness, simulate, streams

from . import tracing
from .clock import FrameClock

PRESET = "three-lift"
# The README's `compare` settings: a small stick core inside a smaller
# patch, so growth rejects most of its frontier.
SWEEP_SETTINGS = {"stick_radius": 3.0, "contact_radius": 6.0}
# Proposed-estimator MARE of the sweep at SWEEP_SETTINGS with 25 trials
# per angle and seed 0, pinned when the benchmark was defined. Checked with
# the +/-20% band that acceptance criterion C10 applies to its own golden
# value; seeds 0-5 all land within 0.3% of it.
SWEEP_GOLDEN_MARE_DEG = 0.887201412503185
GOLDEN_BAND = 0.2


class Sink:
    """Text sink that keeps a CRC-32 and the byte count of what was written.

    Timed passes stream into it the way a file write would, without an
    ever-growing buffer; the pass made for the checks also keeps the text.
    """

    def __init__(self, keep: bool):
        self.crc = 0
        self.size = 0
        self.chunks: Optional[list[str]] = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.crc = zlib.crc32(data, self.crc)
        self.size += len(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.chunks or ())


@dataclass
class Pass:
    """One timed pass: its frame times and what it produced.

    ``raw_ns`` holds each frame's measured time and ``ns`` the same at the
    reference speed. ``outputs`` holds one ``(crc, size)`` pair per output
    stream; ``texts`` holds the streams themselves when the pass was asked
    to keep them.
    """

    raw_ns: list[float]
    ns: list[float]
    outputs: tuple[tuple[int, int], ...]
    texts: tuple[str, ...] = ()
    skipped: int = 0
    frames: list = field(default_factory=list)
    mare: float = math.nan

    @property
    def n_frames(self) -> int:
        return len(self.ns)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    run_pass: Callable[[object, Optional[tracing.Tracer], bool], Pass]
    check: Callable[[object, Pass], tuple[list[Check], float]]


def _seeded(config, seed: int, **scenario_changes):
    scenario = replace(config.scenario, rng_seed=seed, **scenario_changes)
    return replace(config, scenario=scenario)


def _pass(clock: FrameClock, sinks: list[Sink], **extra) -> Pass:
    outputs = tuple((s.crc, s.size) for s in sinks)
    texts = tuple(s.text() for s in sinks) if sinks[0].chunks is not None else ()
    return Pass(*clock.frame_ns(), outputs, texts, **extra)


# replay-three-lift ---------------------------------------------------------


@dataclass(frozen=True)
class ReplayInput:
    config: object
    lines: tuple[str, ...]
    truth_theta: tuple[float, ...]


def replay_setup(seed: int) -> ReplayInput:
    """Simulate the preset and serialise it to NDJSON lines in memory."""
    config = _seeded(config_mod.load_config(PRESET), seed)
    h = config.harness
    out = io.StringIO()
    streams.write_header(out, config.grid)
    thetas = []
    for frame, truth in simulate.generate_trajectory(
        config.scenario, h.t_start, h.t_end, h.rate_hz
    ):
        streams.write_frame(out, frame)
        thetas.append(truth.theta)
    return ReplayInput(config, tuple(out.getvalue().splitlines(keepends=True)), tuple(thetas))


def _clocked_lines(lines, clock: FrameClock):
    """Hand out the header; a frame runs from the pull of its line to the next pull."""
    it = iter(lines)
    yield next(it)
    for line in it:
        if clock.running:
            clock.stop()
        clock.start()
        yield line
    clock.stop()


def replay_pass(inp: ReplayInput, tracer: Optional[tracing.Tracer], keep: bool = False) -> Pass:
    clock = FrameClock(tracer)
    csv, warn = Sink(keep), io.StringIO()
    harness.estimate_from_stream(_clocked_lines(inp.lines, clock), inp.config, csv, warn)
    return _pass(clock, [csv], skipped=warn.getvalue().count("\n"))


def replay_check(inp: ReplayInput, ref: Pass) -> tuple[list[Check], float]:
    """C9's rule: replayed rows equal ``run_dynamic``'s columns 0, 2, 3, 4, 5."""
    dyn = io.StringIO()
    harness.run_dynamic(inp.config, csv_out=dyn)
    dyn_rows = dyn.getvalue().splitlines()[1:]
    est_rows = ref.texts[0].splitlines()[1:]
    expected = [",".join(d[i] for i in (0, 2, 3, 4, 5)) for d in (r.split(",") for r in dyn_rows)]
    diff = sum(a != b for a, b in zip(est_rows, expected)) + abs(len(est_rows) - len(expected))
    detail = f"{diff} of {len(expected)} rows differ"
    checks = [Check("replay rows equal run_dynamic columns", diff == 0, detail)]
    lo, hi = harness.VALID_RANGE
    errors = []
    for row, theta in zip(est_rows, inp.truth_theta):
        _t, _raw, filtered, state, _ratio = row.split(",")
        if lo <= abs(theta) <= hi and state != "MacroSlip":
            errors.append(abs(float(filtered) - theta))
    return checks, float(np.mean(errors)) if errors else math.nan


# simulate-three-lift -------------------------------------------------------


def simulate_setup(seed: int):
    return _seeded(config_mod.load_config(PRESET), seed)


def simulate_pass(config, tracer: Optional[tracing.Tracer], keep: bool = False) -> Pass:
    """Generate the trajectory and write frame and truth NDJSON, as `simulate` does.

    ``generate_trajectory`` makes every frame before the first is written,
    so a frame's time is its generation plus its writing.
    """
    h = config.harness
    clock = FrameClock(tracer)
    generate = simulate.generate_frame

    def generate_frame(*args, **kwargs):
        clock.start()
        try:
            return generate(*args, **kwargs)
        finally:
            clock.stop()

    frames_out, truth_out = Sink(keep), Sink(keep)
    streams.write_header(frames_out, config.grid)
    streams.write_header(truth_out, config.grid)
    with tracing.swapped(simulate, "generate_frame", generate_frame):
        trajectory = simulate.generate_trajectory(config.scenario, h.t_start, h.t_end, h.rate_hz)
    for i, (frame, truth) in enumerate(trajectory):
        clock.start(i)
        streams.write_frame(frames_out, frame)
        streams.write_truth(truth_out, frame.timestamp, truth)
        clock.stop()
    frames = [frame for frame, _truth in trajectory] if keep else []
    return _pass(clock, [frames_out, truth_out], frames=frames)


def simulate_check(config, ref: Pass) -> tuple[list[Check], float]:
    """The frame stream re-parses to bit-identical frames on the same grid."""
    lines = iter(ref.texts[0].splitlines(keepends=True))
    grid = streams.read_header(lines)
    warn = io.StringIO()
    parsed = list(streams.read_frames(lines, grid, warn=warn))
    same = sum(
        a.timestamp == b.timestamp and a.displacements.tobytes() == b.displacements.tobytes()
        for a, b in zip(parsed, ref.frames)
    )
    truth_lines = ref.texts[1].count("\n") - 1
    return [
        Check("stream header round-trips the grid", grid == config.grid, f"{grid}"),
        Check(
            "frames re-parse bit-identical",
            same == len(ref.frames) == len(parsed) and not warn.getvalue(),
            f"{same} of {len(ref.frames)} identical, {len(parsed)} parsed",
        ),
        Check("one truth line per frame", truth_lines == len(ref.frames), f"{truth_lines} lines"),
    ], math.nan


# sweep-incipient-slip ------------------------------------------------------


def sweep_setup(seed: int):
    return _seeded(config_mod.load_config(None), seed, **SWEEP_SETTINGS)


def sweep_pass(config, tracer: Optional[tracing.Tracer], keep: bool = False) -> Pass:
    """One static sweep; a trial runs from its frame's generation to the next one's."""
    clock = FrameClock(tracer)
    generate = harness.generate_frame

    def generate_frame(*args, **kwargs):
        if clock.running:
            clock.stop()
        clock.start()
        return generate(*args, **kwargs)

    csv = Sink(keep)
    with tracing.swapped(harness, "generate_frame", generate_frame):
        reports = harness.run_static_sweep(config, csv_out=csv)
    clock.stop()
    return _pass(clock, [csv], mare=reports["proposed"].mare)


def sweep_check(config, ref: Pass) -> tuple[list[Check], float]:
    """C10's rule: the proposed MARE lies within +/-20% of the golden value."""
    ok = abs(ref.mare - SWEEP_GOLDEN_MARE_DEG) <= GOLDEN_BAND * SWEEP_GOLDEN_MARE_DEG
    detail = f"MARE {ref.mare:.6f} deg, golden {SWEEP_GOLDEN_MARE_DEG:.6f} +/-20%"
    return [Check("sweep MARE within golden band", ok, detail)], ref.mare


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replay-three-lift", replay_setup, replay_pass, replay_check),
        Workload("simulate-three-lift", simulate_setup, simulate_pass, simulate_check),
        Workload("sweep-incipient-slip", sweep_setup, sweep_pass, sweep_check),
    )
}
