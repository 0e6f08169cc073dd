"""Measurement loop, statistics and result printing for the benchmark.

``run`` sets the workload up and makes one untimed warm-up pass whose
output CRCs are the reference for every later pass. It then repeats timed
passes for the requested seconds (and at least ``MIN_FRAMES`` frames, so
that p99 has ten samples beyond it). Set-up is repeated between passes for
``SETUP_SHARE`` of the run; ``setup_s`` is the median. A last pass keeps
its outputs for the checks.

Every time is reported at the reference speed of ``clock``: frame times
are calibrated by the slices around them, and each batch of set-ups by a
block of slices before and after it. The measured figures are printed
beside them. Memory is counted by ``tracemalloc`` in a separate, untimed
set-up and pass, because resident size here also moves with the
allocator's reuse of freed pages.

Untraced, it reports the end-to-end metrics. Traced, it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus tracing overhead: the untraced throughput over the traced. A
traced run writes its spans to ``bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import time
import tracemalloc
from array import array
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench import clock, tracing, workloads

OUT_DIR = Path(__file__).resolve().parent.parent / "bench_out"
# Frames a run times at least, so that 10 samples lie beyond p99.
MIN_FRAMES = 1000
SETUP_SHARE = 0.2
SETUPS_PER_GAP = 20


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def frame_ms(passes, scaled: bool = True) -> list[float]:
    """Sorted frame times of the passes."""
    return sorted(t / 1e6 for p in passes for t in (p.ns if scaled else p.raw_ns))


def throughput(passes, scaled: bool = True) -> float:
    """Frames completed per second of frame time."""
    total_ns = sum(sum(p.ns if scaled else p.raw_ns) for p in passes)
    return sum(p.n_frames for p in passes) / (total_ns / 1e9)


def peak_alloc_mb(workload, seed: int) -> float:
    """Peak memory that one set-up and one pass of the workload hold at once."""
    tracemalloc.start()
    try:
        workload.run_pass(workload.setup(seed), None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> int:
    tracer = tracing.Tracer() if trace else None
    setup_raw_s: list[float] = []
    setup_s: list[float] = []

    def set_up(count: int):
        """Set the workload up ``count`` times; returns the last input."""
        before = clock.block_ns()
        for _ in range(count):
            start = clock.now_ns()
            inp = workload.setup(seed)
            setup_raw_s.append((clock.now_ns() - start) / 1e9)
        scale = clock.SLICE_REF_NS / ((before + clock.block_ns()) / 2)
        setup_s.extend(s * scale for s in setup_raw_s[-count:])
        return inp

    with tracing.installed(tracer) if tracer is not None else nullcontext():
        inp = set_up(1)
    reference = workload.run_pass(inp, None)
    plain, timed_traced = [], []
    mismatched = 0
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(timed_traced) < len(plain)
        with tracing.installed(tracer) if use_trace else nullcontext():
            p = workload.run_pass(inp, tracer if use_trace else None)
        mismatched += p.outputs != reference.outputs
        p.raw_ns, p.ns = array("d", p.raw_ns), array("d", p.ns)
        (timed_traced if use_trace else plain).append(p)
        elapsed = time.perf_counter() - start
        # Spread the set-ups over the run, so that their median sees the
        # same machine as the passes do.
        mean_s = statistics.fmean(setup_raw_s)
        due = math.floor((SETUP_SHARE * elapsed - sum(setup_raw_s)) / mean_s)
        if due > 0:
            inp = set_up(min(due, SETUPS_PER_GAP))
        frames = sum(q.n_frames for q in plain)
        if elapsed >= seconds and frames >= MIN_FRAMES and (timed_traced or tracer is None):
            break
    peak_mb = peak_alloc_mb(workload, seed) if tracer is None else math.nan

    kept = workload.run_pass(inp, None, True)
    checks, mare = workload.check(inp, kept)
    mismatched += kept.outputs != reference.outputs
    checks.append(
        workloads.Check(
            "every pass reproduces the warm-up outputs",
            mismatched == 0,
            f"{mismatched} passes differ",
        )
    )
    attempted = sum(p.n_frames for p in plain + timed_traced)
    skipped = sum(p.skipped for p in plain + timed_traced)
    failed_checks = sum(not c.ok for c in checks)
    failed = skipped + failed_checks

    times_ms, raw_ms = frame_ms(plain), frame_ms(plain, scaled=False)
    n = len(times_ms)
    p99, beyond = nearest_rank(times_ms, 0.99)
    report = {
        "frame_p50_ms": (
            nearest_rank(times_ms, 0.5)[0],
            "ms",
            f"n={n}; measured {nearest_rank(raw_ms, 0.5)[0]:.4g}",
        ),
        "frame_p99_ms": (
            p99,
            "ms",
            f"n={n}, {beyond} beyond; measured {nearest_rank(raw_ms, 0.99)[0]:.4g}",
        ),
        "throughput_fps": (
            throughput(plain),
            "1/s",
            f"{n} frames in {len(plain)} passes; measured {throughput(plain, False):.4g}",
        ),
        "setup_s": (
            statistics.median(setup_s),
            "s",
            f"median of {len(setup_s)}; measured {statistics.median(setup_raw_s):.4g}",
        ),
        "peak_alloc_mb": (peak_mb, "MB", "tracemalloc peak of one set-up and pass"),
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted}"),
        "mare_deg": (mare, "deg", "proposed estimator against simulator truth"),
    }
    result_keys = ("frame_p50_ms", "frame_p99_ms", "throughput_fps", "setup_s", "peak_alloc_mb")
    if tracer is not None:
        traced_frames = sum(p.n_frames for p in timed_traced)
        traced_scale = throughput(timed_traced, False) / throughput(timed_traced)
        layer = tracing.layer_metrics(tracer, traced_frames, traced_scale)
        layer["streams.read_frames.skipped"] = (sum(p.skipped for p in timed_traced), "count")
        written = sum(size for _crc, size in reference.outputs)
        layer["streams.bytes_out"] = (written / reference.n_frames, "B/frame")
        traced_fps, plain_fps = throughput(timed_traced), throughput(plain)
        layer["tracing.throughput_fps"] = (traced_fps, "1/s")
        layer["tracing.untraced_throughput_fps"] = (plain_fps, "1/s")
        layer["tracing.overhead_pct"] = (100.0 * (plain_fps / traced_fps - 1.0), "%")
        report.update({k: (v, u, "traced passes") for k, (v, u) in layer.items()})
        result_keys = tuple(layer)

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    inputs = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "frames_per_pass": reference.n_frames,
        "passes": len(plain),
        "traced_passes": len(timed_traced),
        "frames": attempted,
    }
    print(f"machine {json.dumps(machine)}")
    print(f"inputs {json.dumps(inputs)}")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    for name, (value, unit, note) in report.items():
        print(f"{name:45s} {value:14.6g} {unit:12s} {note}")

    if tracer is not None:
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{workload.name}-seed{seed}-spans.json", "w") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "frame"], "spans": tracer.spans},
                handle,
            )

    result = {
        "correct": failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in result_keys},
    }
    print(json.dumps(result))
    return 0 if failed_checks == 0 else 1
