"""Tests of the benchmark's own arithmetic, tracing and input generation."""

from __future__ import annotations

import json

import pytest

from perfbench import bench, clock, tracing, workloads
from pivotgauge import estimation, segmentation


def _span(name, start, end, parent, frame=0):
    return [name, start, end, parent, frame]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("frame", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 15, 20, 1),
        _span("b", 30, 60, 0),  # overlaps a: 10..60 is covered once
        _span("c", 90, 120, 0),  # sticks out of its parent: only 90..100 counts
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 30]


def test_intervals_of_one_frame_share_its_id():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.call("set-up", lambda: None, (), {})
    tracer.begin_frame(tracer.clock(), 0)
    tracer.call("layer", lambda: None, (), {})
    tracer.begin_frame(tracer.clock(), 1)
    tracer.end(tracer.clock())
    tracer.begin_frame(tracer.clock(), 0)  # a second interval of frame 0
    tracer.end(tracer.clock())
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("set-up", -1, -1),
        ("frame", -1, 0),
        ("layer", 1, 0),
        ("frame", -1, 1),
        ("frame", -1, 0),
    ]
    assert all(s[2] is not None for s in tracer.spans)


def test_frame_clock_sums_intervals_scaled_by_neighbouring_slices():
    fc = clock.FrameClock()
    ref = clock.SLICE_REF_NS
    fc.frames = [0, 1, 2, 0, 1, 2]
    fc.starts = [0, 100, 200, 300, 400, 500]
    fc.ends = [10, 120, 230, 340, 450, 560]
    fc.slices = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    raw, scaled = fc.frame_ns()
    assert raw == [10 + 40, 20 + 50, 30 + 60]
    # Medians of the slices j-2..j+2 that exist: ref, 1.5 ref, then 2 ref.
    assert scaled == pytest.approx([10 + 40 / 2, 20 / 1.5 + 50 / 2, 30 / 2 + 60 / 2])


def test_nearest_rank_leaves_ten_samples_beyond_p99_of_1000():
    values = [float(v) for v in range(1000)]
    assert bench.nearest_rank(values, 0.99) == (989.0, 10)
    assert bench.nearest_rank(values, 0.50) == (499.0, 500)


def _bindings():
    out = {}
    for layer in tracing.LAYERS:
        for owner, attr in tracing.patch_sites(layer):
            out[(owner, attr)] = getattr(owner, attr)
    return out


def test_traced_run_wraps_caller_lookups_and_restores_them(tmp_path, capsys):
    before = _bindings()
    assert (estimation, "grow_stick_region") in before
    assert (segmentation, "grow_stick_region") in before

    status = bench.run(
        workloads.WORKLOADS["sweep-incipient-slip"], 0, 0.01, trace=True, out_dir=tmp_path
    )

    assert status == 0
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    # estimate_frame reaches growth through pivotgauge.estimation's own name.
    assert metrics["segmentation.grow_stick_region.calls"]["value"] == 1.0
    assert _bindings() == before
    assert all(getattr(owner, attr) is value for (owner, attr), value in before.items())
    pipeline = estimation.RotationPipeline
    assert pipeline.__dict__["process_frame"] is before[(pipeline, "process_frame")]


def test_replay_stream_depends_on_seed_and_reproduces_byte_for_byte():
    first = workloads.replay_setup(1)
    again = workloads.replay_setup(1)
    other = workloads.replay_setup(2)
    assert "".join(first.lines).encode() == "".join(again.lines).encode()
    assert first.lines[0] == other.lines[0]  # same grid header
    assert first.lines[1:] != other.lines[1:]
