"""The benchmark's own output checks hold on the package as it is.

Each workload of ``perfbench`` makes its set-up, one pass that keeps its
outputs, and runs its checks: replay rows equal to ``run_dynamic``'s, frames
that re-parse bit-identical, and the sweep MARE within its golden band. So a
change that breaks one of them fails here, not first in a benchmark run."""

from __future__ import annotations

import pytest

from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_output_checks_hold(name):
    workload = WORKLOADS[name]
    inp = workload.setup(0)
    checks, _mare = workload.check(inp, workload.run_pass(inp, None, True))
    assert checks
    assert [(c.name, c.detail) for c in checks if not c.ok] == []
