"""Span recording around the package's layers, from outside the package.

A traced pass swaps each layer function for a timing wrapper at every
module attribute that holds it, so the caller's own lookup (for example
``pivotgauge.estimation.grow_stick_region``) finds the wrapper, and puts
every original back when the pass ends. Spans stay in memory as
``[name, start_ns, end_ns, parent, frame]`` lists until the run writes
them out.

Every timed interval of a frame is a root span named ``frame``; the layer
spans opened while it is open are its descendants and share its frame id.
Spans opened outside any frame (set-up) carry frame id -1.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from perfbench.clock import now_ns

FRAME = "frame"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], int] = now_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.frame = -1
        self.in_frame = False
        self.sums: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str, t: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        frame = self.frame if self.in_frame else -1
        self.spans.append([name, self.clock() if t is None else t, None, parent, frame])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End span ``index`` and any span still open inside it."""
        if index not in self._stack:
            return  # already ended by a frame boundary
        t = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = t
            if top == index:
                return

    def begin_frame(self, t: int, frame: int) -> None:
        """End everything still open at ``t`` and open a root of ``frame``."""
        self.end(t)
        self.frame, self.in_frame = frame, True
        self.open(FRAME, t)

    def end(self, t: int) -> None:
        """End every open span at ``t``."""
        while self._stack:
            self.spans[self._stack.pop()][2] = t
        self.in_frame = False

    def call(self, name: str, fn: Callable, args, kwargs, observe=None):
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.sums[name + ".failures"] += 1
            raise
        finally:
            self.close(index)
        if observe is not None:
            for key, value in observe(result).items():
                self.sums[f"{name}.{key}"] += value
        return result


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_name, start, end, _parent, _frame) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


@dataclass(frozen=True)
class Layer:
    """A package function traced under ``name``.

    ``target`` is ``module:attribute`` (or ``module:Class.method``).
    ``sites`` limits patching to the listed modules; by default every
    loaded ``pivotgauge`` module attribute bound to the function is patched.
    ``observe`` maps the function's result to counters summed per call.
    ``per_line`` marks the stream reader, a generator timed per yielded item.
    """

    name: str
    target: str
    sites: tuple[str, ...] = ()
    observe: Optional[Callable] = None
    per_line: bool = False


def _region_counts(region) -> dict[str, float]:
    return {"members": len(region.members), "stick_ratio": region.stick_ratio}


READ_FRAMES = "streams.read_frames"
LAYERS = (
    Layer("config.load_config", "pivotgauge.config:load_config"),
    Layer(READ_FRAMES, "pivotgauge.streams:read_frames", per_line=True),
    Layer("core.Frame", "pivotgauge.core:Frame", sites=("pivotgauge.streams",)),
    Layer("streams.write_frame", "pivotgauge.streams:write_frame"),
    Layer("streams.write_truth", "pivotgauge.streams:write_truth"),
    Layer("simulate.generate_frame", "pivotgauge.simulate:generate_frame"),
    Layer(
        "segmentation.detect_contact",
        "pivotgauge.segmentation:detect_contact",
        observe=lambda mask: {"flagged": mask.n_flagged},
    ),
    Layer("features.line_feature_angles", "pivotgauge.features:line_feature_angles"),
    Layer(
        "segmentation.grow_stick_region",
        "pivotgauge.segmentation:grow_stick_region",
        observe=_region_counts,
    ),
    Layer("estimation.estimate_rotation", "pivotgauge.estimation:estimate_rotation"),
    Layer("estimation.filter_step", "pivotgauge.estimation:filter_step"),
    Layer("estimation.process_frame", "pivotgauge.estimation:RotationPipeline.process_frame"),
    Layer("estimation.baseline_least_squares", "pivotgauge.estimation:baseline_least_squares"),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def patch_sites(layer: Layer) -> list[tuple[object, str]]:
    """Every (owner, attribute) through which callers reach the layer's function."""
    owner, attr, original = _resolve(layer.target)
    if isinstance(owner, type):
        return [(owner, attr)]
    if layer.sites:
        return [(sys.modules[name], attr) for name in layer.sites]
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "pivotgauge" or name.startswith("pivotgauge.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


@contextmanager
def swapped(owner: object, attr: str, replacement):
    """Bind ``owner.attr`` to ``replacement`` for the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _wrapper(tracer: Tracer, layer: Layer, original: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(layer.name, original, args, kwargs, layer.observe)

    def traced_generator(lines, grid, warn=None):
        # A frame's read span runs from the pull of its line to the yield.
        span = [-1]

        def pulls():
            for line in lines:
                span[0] = tracer.open(layer.name)
                yield line

        for item in original(pulls(), grid, warn=warn):
            tracer.close(span[0])
            yield item

    return traced_generator if layer.per_line else traced


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Trace every layer for the block; all originals are restored after."""
    with ExitStack() as stack:
        for layer in layers:
            wrapper = _wrapper(tracer, layer, _resolve(layer.target)[2])
            for owner, attr in patch_sites(layer):
                stack.enter_context(swapped(owner, attr, wrapper))
        yield tracer


def layer_metrics(tracer: Tracer, frames: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer busy time and counts per frame from the recorded spans.

    Only spans inside frames count, except ``config.load_config``, which
    runs during set-up and is reported per call. Times are multiplied by
    ``scale``, the factor to the reference machine speed.
    """
    totals: dict[str, int] = defaultdict(int)
    selfs: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    load_ns, load_calls = 0, 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _parent, frame = span
        if name == "config.load_config":
            load_ns += end - start
            load_calls += 1
        elif frame >= 0:
            totals[name] += end - start
            selfs[name] += own
            calls[name] += 1

    def per_frame_ms(ns: float) -> tuple[float, str]:
        return ns * scale / 1e6 / frames, "ms/frame"

    def per_call(name: str, key: str) -> float:
        return tracer.sums[f"{name}.{key}"] / calls[name] if calls[name] else 0.0

    out = {
        "config.load_config.ms": (load_ns * scale / 1e6 / load_calls if load_calls else 0.0, "ms/call"),
        "harness.self_ms": per_frame_ms(selfs[FRAME]),
        "streams.read_frames.self_ms": per_frame_ms(selfs[READ_FRAMES]),
    }
    for layer in LAYERS:
        if layer.name == "config.load_config":
            continue
        out[f"{layer.name}.ms"] = per_frame_ms(totals[layer.name])
        out[f"{layer.name}.calls"] = (calls[layer.name] / frames, "calls/frame")
    grow, detect = "segmentation.grow_stick_region", "segmentation.detect_contact"
    out[f"{detect}.flagged_mean"] = (per_call(detect, "flagged"), "markers")
    out[f"{grow}.members_mean"] = (per_call(grow, "members"), "markers")
    out[f"{grow}.stick_ratio_mean"] = (per_call(grow, "stick_ratio"), "ratio")
    base = "estimation.baseline_least_squares"
    out[f"{base}.failures"] = (tracer.sums[f"{base}.failures"], "count")
    return out
