"""Byte-for-byte pins of CSV outputs and stderr summaries that a change of
structure must keep: ``dynamic`` on the three-lift preset, and ``sweep`` and
``compare`` with five trials at the README's compare settings and under a
light press (``scenario.max_indent=0.01``). The expected texts in ``golden/``
were written by the package as it stood when this test was added; the two
light-press pins were written later, by the change that made a trial
without contact a baseline failure, once a recount of those failures from
the contact masks agreed with them (``test_harness``). A light press leaves
some angles with no baseline trial, some with a few and some with all, so
those pins hold every branch of the sweep's reduction. Regenerate one only
with a change that means to alter that output. CSV cells carry 6
significant digits, so the last-bit differences between math libraries do
not reach them."""

from __future__ import annotations

from pathlib import Path

import pytest

from pivotgauge.cli import main

GOLDEN = Path(__file__).parent / "golden"
_COMPARE_SETTINGS = ["--set", "scenario.stick_radius=3.0", "--set", "scenario.contact_radius=6.0"]
_LIGHT_PRESS = ["--trials", "5", "--set", "scenario.max_indent=0.01"]
_RUNS = {
    "dynamic-three-lift": ["dynamic", "--config", "three-lift"],
    "sweep-trials5": ["sweep", "--trials", "5", *_COMPARE_SETTINGS],
    "compare-trials5": ["compare", "--trials", "5", *_COMPARE_SETTINGS],
    "sweep-light-press-trials5": ["sweep", *_LIGHT_PRESS],
    "compare-light-press-trials5": ["compare", *_LIGHT_PRESS],
}


def _first_difference(got: bytes, expected: bytes) -> str:
    got_rows, expected_rows = got.splitlines(True), expected.splitlines(True)
    for row, (g, e) in enumerate(zip(got_rows, expected_rows), start=1):
        if g != e:
            return f"row {row}: got {g!r}, expected {e!r}"
    return f"row count: got {len(got_rows)}, expected {len(expected_rows)}"


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_outputs_match_the_pinned_text(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*_RUNS[name], "--out", str(out)]) == 0
    outputs = {".csv": out.read_bytes(), ".stderr": capsys.readouterr().err.encode()}
    for suffix, got in outputs.items():
        expected = (GOLDEN / f"{name}{suffix}").read_bytes()
        assert got == expected, f"{name}{suffix}: {_first_difference(got, expected)}"
