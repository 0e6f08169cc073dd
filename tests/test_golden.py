"""Byte-for-byte pins of CSV outputs and stderr summaries that a change of
structure must keep: ``dynamic`` on the three-lift preset, and ``sweep`` and
``compare`` with five trials at the README's compare settings, under a
light press (``scenario.max_indent=0.01``) and on the three-lift preset.
The expected texts in ``golden/`` were written by the package as it stood
when this test was added; the two light-press pins were written later, by
the change that made a trial without contact a baseline failure, once a
recount of those failures from the contact masks agreed with them
(``test_harness``). A light press leaves some angles with no baseline
trial, some with a few and some with all, so those pins hold every branch
of the sweep's reduction. The two three-lift pins, whose stick radius
varies in time, were written before the sweep made all its trials from one
scenario read at t = 0. Regenerate one only with a change that means to
alter that output. CSV cells carry 6 significant digits, so the last-bit
differences between math libraries do not reach them.

``simulate-small`` pins a frame stream and its truth stream byte for byte.
They were written by the ``json.dumps`` writers that ``conftest`` keeps as
``reference_write_frame`` and ``reference_write_truth``. Their floats carry
every bit, so the scenario keeps decay exponent 2, which numpy squares
exactly: only sin, cos, hypot, sqrt and the seeded normal draws set them.
``simulate-small-hold`` pins the same grid through a ramp, a hold of angle
and stick radius, and a ramp back. It was written before frames of a hold
shared one field, and its bytes equal what the ``json.dumps`` writers give.

``estimate-hostile`` replays the hold's frames among hostile lines: ``true``,
``false`` and ``null`` leaves, a string leaf, a ragged row, an int beyond
float range, ``NaN`` and ``Infinity``, an out-of-order line, a string
timestamp, a blank line and a frame with an extra key. Its CSV and warnings
were written before the reader took a frame line's rows in one pass, when
every line went through the number rule of ``Frame``."""

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
    "sweep-three-lift-trials5": ["sweep", "--config", "three-lift", "--trials", "5"],
    "compare-three-lift-trials5": ["compare", "--config", "three-lift", "--trials", "5"],
    "estimate-hostile": ["estimate", "--in", str(GOLDEN / "estimate-hostile.ndjson")],
}
# A 4x5 grid turning from 0 to 9 degrees while it shifts, over four frames.
_SMALL_SIMULATE = [
    "simulate", "--set", "harness.t_end=0.1", "--set", "grid.rows=4", "--set", "grid.cols=5",
    "--set", "scenario.contact_radius=1.5", "--set", "scenario.stick_radius=0.9",
    "--set", "scenario.theta_trajectory=[[0,0],[0.1,9]]",
    "--set", "scenario.translation_trajectory=[0.02,-0.01]",
]
# The same grid turning to 9 degrees, holding there from t = 0.1 to 0.2 s while
# the stick radius holds too, and turning back to 4 degrees, over ten frames.
_SMALL_HOLD = [
    "simulate", "--set", "harness.t_end=0.3", "--set", "grid.rows=4", "--set", "grid.cols=5",
    "--set", "scenario.contact_radius=1.5",
    "--set", "scenario.stick_radius=[[0,0.9],[0.1,0.45],[0.2,0.45],[0.3,0.9]]",
    "--set", "scenario.theta_trajectory=[[0,0],[0.1,9],[0.2,9],[0.3,4]]",
    "--set", "scenario.translation_trajectory=[0.02,-0.01]",
]
_SIMULATE_RUNS = {"simulate-small": _SMALL_SIMULATE, "simulate-small-hold": _SMALL_HOLD}


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


def test_simulated_streams_match_the_pinned_bytes(tmp_path):
    frames, truth = tmp_path / "frames.ndjson", tmp_path / "truth.ndjson"
    for run, args in _SIMULATE_RUNS.items():
        assert main([*args, "--out", str(frames), "--truth-out", str(truth)]) == 0
        for got, name in ((frames, f"{run}.ndjson"), (truth, f"{run}-truth.ndjson")):
            got, expected = got.read_bytes(), (GOLDEN / name).read_bytes()
            assert got == expected, f"{name}: {_first_difference(got, expected)}"
