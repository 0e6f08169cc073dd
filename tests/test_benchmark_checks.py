"""The benchmark's own output checks hold on the package as it is.

Each workload of ``perfbench`` makes its set-up, one pass that keeps its
outputs, and runs its checks: replay rows equal to ``run_dynamic``'s, frames
that re-parse bit-identical, and the sweep MARE within its golden band. So a
change that breaks one of them fails here, not first in a benchmark run. A
traced replay pass must see each pipeline layer and put every binding back."""

from __future__ import annotations

import pytest

from perfbench import tracing
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_output_checks_hold(name):
    workload = WORKLOADS[name]
    inp = workload.setup(0)
    checks, _mare = workload.check(inp, workload.run_pass(inp, None, True))
    assert checks
    assert [(c.name, c.detail) for c in checks if not c.ok] == []


def _layer_bindings():
    return {(owner, attr): getattr(owner, attr)
            for layer in tracing.LAYERS for owner, attr in tracing.patch_sites(layer)}


def test_traced_replay_pass_sees_the_pipeline_layers_once_per_frame():
    # The pipeline reaches filter_step and its own process_frame through the
    # names the tracer wraps, so each is timed once per replayed frame.
    workload = WORKLOADS["replay-three-lift"]
    inp = workload.setup(0)
    before = _layer_bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workload.run_pass(inp, tracer)
    metrics = tracing.layer_metrics(tracer, traced.n_frames)
    for name in ("estimation.filter_step", "estimation.process_frame"):
        assert metrics[f"{name}.calls"] == (1.0, "calls/frame")
    assert all(getattr(owner, attr) is value for (owner, attr), value in before.items())
