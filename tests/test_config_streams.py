from __future__ import annotations

import io
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pivotgauge import (
    ConfigError, ContactState, Frame, GroundTruth, MarkerGrid, UsageError, generate_frame,
    load_config,
)
from pivotgauge.cli import main
from pivotgauge.config import apply_overrides, build_config, load_document, three_lift_scenario
from pivotgauge import simulate
from pivotgauge.core import (
    MAX_DISPLACEMENT_MM, MAX_FRAMES, MAX_GRID_MM, MAX_MARKERS, MAX_SOFTNESS, MIN_PITCH_MM
)
from pivotgauge.harness import estimate_from_stream, run_dynamic, run_static_sweep
from pivotgauge.simulate import SimScenario, frame_count, iter_trajectory
from pivotgauge.streams import (
    NumberedLines,
    StreamFormatError,
    fmt,
    read_frames,
    read_header,
    write_csv_row,
    write_frame,
    write_header,
    write_truth,
)

from conftest import reference_read_frames, reference_write_frame, reference_write_truth, run_times

GOLDEN = Path(__file__).parent / "golden"


def test_default_config_builds():
    config = load_config(None)
    assert config.grid.rows == 20
    assert config.segmentation.delta_phi_th == 0.4
    assert config.harness.trials == 25
    assert config.softness.k == 0.0


def test_config_grid_and_softness_are_the_scenarios():
    config = load_config(None)
    assert config.grid is config.scenario.grid
    assert config.softness is config.scenario.softness
    grid = MarkerGrid(rows=12, cols=12)
    changed = replace(config, scenario=replace(config.scenario, grid=grid, contact_radius=4.0))
    assert changed.grid is changed.scenario.grid is grid
    assert changed.softness is changed.scenario.softness


def test_three_lift_preset_loads_by_name():
    config = load_config("three-lift")
    assert config.scenario.theta_at(2.5) == pytest.approx(6.0)
    assert config.harness.t_end == 12.0
    assert config.scenario.rng_seed == 7


def test_three_lift_scenario_reads_the_shipped_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three-lift").write_text("{}")
    scenario = three_lift_scenario()
    assert scenario.theta_at(2.5) == pytest.approx(6.0)
    assert scenario.rng_seed == 7
    # A name is tried as a path first, so there the file in the working
    # directory is what loads.
    assert load_config("three-lift").scenario.theta_at(2.5) == 0.0


def test_unknown_section_is_fatal():
    with pytest.raises(ConfigError, match="unknown config section"):
        build_config({"scenario": {}, "extras": {}})


def test_unknown_key_is_fatal():
    with pytest.raises(ConfigError, match="contact_radiuss"):
        build_config({"scenario": {"contact_radiuss": 5.0}})
    with pytest.raises(ConfigError, match="segmentation"):
        build_config({"segmentation": {"delta_phi": 0.4}})
    for key in ("grid", "softness"):
        with pytest.raises(ConfigError, match=f"unknown key.*'scenario': {key}"):
            build_config({"scenario": {key: {}}})


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "grid": {\n    "rows": 20,\n  }\n}\n')
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    # Deeper than the JSON parser's recursion limit.
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "nested.json"
    path.write_text('{"scenario": {"cor": ' + nested + "}}")
    with pytest.raises(ConfigError, match="nested too deeply"):
        load_config(path)
    out = tmp_path / "nested.csv"
    assert main(["dynamic", "--config", str(path), "--out", str(out)]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert not out.exists()
    assert main(["dynamic", "--set", f"scenario.cor={nested}", "--out", str(out)]) == 2
    assert "override scenario.cor is nested too deeply" in capsys.readouterr().err
    assert not out.exists()


def test_config_document_and_its_sections_are_objects(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    assert main(["sweep", "--config", str(listed)]) == 2
    assert "error: config document must be a JSON object" in capsys.readouterr().err
    # An override, or a flag that stands for one, is refused on the same
    # document, before any output, not walked into.
    out = tmp_path / "out.csv"
    for text in ("[]", '"x"', "null"):
        listed.write_text(text)
        for args in (["dynamic", "--set", "grid.rows=3"], ["dynamic", "--seed", "1"],
                     ["sweep", "--trials", "1"]):
            assert main([*args, "--config", str(listed), "--out", str(out)]) == 2, (text, args)
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists(), (text, args)
            assert captured.err.endswith("error: config document must be a JSON object\n")
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"scenario": 5}')
    assert main(["dynamic", "--config", str(scalar), "--set", "scenario.rng_seed=1"]) == 2
    assert "error: config section 'scenario' is not an object" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="^config section 'scenario' is not an object$"):
        apply_overrides({"scenario": 5}, ["scenario.rng_seed=1"])


def test_unreadable_config_is_config_error(tmp_path, capsys, monkeypatch):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"grid": {"rows": 20}, "note": "caf\xe9"}')
    assert main(["dynamic", "--config", str(undecodable)]) == 2
    assert "error: cannot read config " in capsys.readouterr().err
    readable = tmp_path / "readable.json"
    readable.write_text("{}")

    def refuse(*args, **kwargs):
        raise PermissionError("permission denied")

    monkeypatch.setattr(Path, "read_text", refuse)
    with pytest.raises(ConfigError, match=r"^cannot read config .*: permission denied$"):
        load_document(readable)


def test_missing_config_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


_FRAME_BOUND = rf"rate_hz x \(t_end - t_start\) exceeds {MAX_FRAMES} frames"


def test_invalid_value_is_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="invalid config value"):
        build_config({"grid": {"rows": 1}})
    with pytest.raises(ConfigError, match="invalid config value: softness.l_xy"):
        build_config(apply_overrides({}, ["softness.l_xy=NaN"]))
    with pytest.raises(ConfigError, match="invalid config value: scenario.theta_trajectory"):
        build_config(apply_overrides({}, ["scenario.theta_trajectory=[[0, 0], [1, Infinity]]"]))
    with pytest.raises(ConfigError, match="invalid config value: harness.t_end"):
        build_config({"harness": {"t_end": float("-inf")}})
    with pytest.raises(ConfigError, match="section 'grid' is not an object"):
        build_config({"grid": 20})
    for override, message in [
        ("grid.origin=[1]", "grid.origin must be two finite numbers"),
        ('grid.origin=["a","b"]', "grid.origin must be two finite numbers"),
        ("scenario.cor=[1]", "scenario.cor must be two finite numbers"),
        ("grid.rows=2.5", "grid.rows must be a whole number"),
        ("harness.trials=2.5", "harness.trials must be a whole number"),
        (f"grid.cols={MAX_MARKERS // 20 + 1}", f"grid 20x{MAX_MARKERS // 20 + 1} exceeds"),
        ("scenario.theta_trajectory=[[0,1,2],[1,2,3]]", "scenario.theta_trajectory must be a number"),
        ("scenario.theta_trajectory=null", "scenario.theta_trajectory must be a number"),
        ('scenario.theta_trajectory="3.5"', "scenario.theta_trajectory must be a number"),
        ("scenario.translation_trajectory=[[0,0],[1,1]]", "scenario.translation_trajectory must be a 2-vector"),
        ("scenario.translation_trajectory=ab", "scenario.translation_trajectory must be a 2-vector"),
        ("scenario.stick_radius=9", r"scenario.stick_radius must lie in \(0, 8.0\], got 9.0"),
        ("scenario.stick_radius=[[0,4],[1,0]]", r"scenario.stick_radius must lie in \(0, 8.0\], got 0.0"),
        ("harness.t_end=1e15", _FRAME_BOUND),
        ("harness.t_start=-1e15", _FRAME_BOUND),
        ("harness.rate_hz=1e300", _FRAME_BOUND),
        ("harness.rate_hz=0", "rate_hz must be positive"),
        ("scenario.rng_seed=-1", "scenario.rng_seed must be >= 0"),
        ("scenario.rng_seed=1.5", "scenario.rng_seed must be a whole number"),
        ("scenario.rng_seed=x", "scenario.rng_seed must be a whole number"),
        ("softness.l_xy=abc", "softness.l_xy must be a finite number"),
        ("softness.l_yx=[1]", "softness.l_yx must be a finite number"),
        (f"softness.k={10**400}", "softness.k must be a finite number"),
        ("softness.k=1e308", r"softness.k must lie within \+-1e\+06, got 1e\+308"),
        ("softness.l_xy=-1e307", r"softness.l_xy must lie within \+-1e\+06, got -1e\+307"),
        ("softness.l_yx=1000000.0000000001", r"softness.l_yx must lie within \+-1e\+06"),
    ]:
        with pytest.raises(ConfigError, match=f"invalid config value: {message}"):
            build_config(apply_overrides({}, [override]))
    trials = build_config({"harness": {"trials": 25.0}}).harness.trials
    assert trials == 25 and type(trials) is int
    rejected_csv = tmp_path / "rejected.csv"
    for flags in (["sweep", "--set", "harness.trials=2.5"], ["dynamic", "--seed", "-1"],
                  ["dynamic", "--set", "scenario.rng_seed=x"],
                  ["dynamic", "--set", "softness.l_xy=abc"],
                  ["dynamic", "--config", "three-lift", "--set", "softness.k=1e308"],
                  ["estimate", "--set", "softness.k=1e307"]):
        assert main([*flags, "--out", str(rejected_csv)]) == 2
        assert not rejected_csv.exists()
    # No key takes a boolean (Python would read true as 1), and the marker
    # count threshold is a whole number.
    capsys.readouterr()
    for override in ("harness.trials=true", "scenario.rng_seed=true", "softness.k=true",
                     "scenario.noise_sigma=true", "grid.pitch=true", "harness.t_end=true",
                     "segmentation.min_stick_markers=true",
                     "segmentation.min_stick_markers=2.5"):
        assert main(["dynamic", "--set", override, "--out", str(rejected_csv)]) == 2, override
        assert "invalid config value:" in capsys.readouterr().err, override
        assert not rejected_csv.exists()
    seg = build_config({"segmentation": {"min_stick_markers": 4.0}}).segmentation
    assert seg.min_stick_markers == 4 and type(seg.min_stick_markers) is int


def test_frame_count_is_bounded_at_load(tmp_path, capsys, monkeypatch):
    with pytest.raises(ConfigError, match=_FRAME_BOUND):
        build_config({"harness": {"rate_hz": float(MAX_FRAMES), "t_end": 1.0 + 1e-9}})
    at_limit = build_config({"harness": {"rate_hz": float(MAX_FRAMES), "t_end": 1.0}})
    assert at_limit.harness.rate_hz == MAX_FRAMES
    # A frame period must span four float spacings near the largest time (2**-53
    # here), or frames could share timestamps.
    close = {"t_start": 0.5, "t_end": math.nextafter(0.5, 1.0), "rate_hz": 2.0**51}
    assert build_config({"harness": close}).harness.rate_hz == 2.0**51
    with pytest.raises(ConfigError, match="frames would share timestamps"):
        build_config({"harness": {**close, "rate_hz": math.nextafter(2.0**51, math.inf)}})
    # The CLI refuses before any output and before a frame is generated.
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was generated")

    monkeypatch.setattr(simulate, "generate_frame", no_frames)
    out = tmp_path / "huge.csv"
    tracemalloc.start()
    try:
        assert main(["dynamic", "--out", str(out), "--set", "harness.t_end=1e15"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not out.exists()
    assert re.search(f"error: invalid config value: {_FRAME_BOUND}", capsys.readouterr().err)


def test_a_run_its_trajectory_does_not_cover_is_refused_before_output(tmp_path, capsys):
    # The preset's breakpoint lists end at t = 12 s; frame 391 would be at 13 s.
    csv, frames, truth = tmp_path / "d.csv", tmp_path / "f.ndjson", tmp_path / "t.ndjson"
    over = ["--config", "three-lift", "--set", "harness.t_end=13"]
    message = ("error: scenario.theta_trajectory does not cover the run: "
               "t=13.0 outside trajectory domain [0.0, 12.0]\n")
    assert main(["dynamic", *over, "--out", str(csv)]) == 2
    assert not csv.exists()  # not even the header
    assert capsys.readouterr().err == message
    csv.write_bytes(b"kept\r\n")  # an existing --out keeps its bytes
    assert main(["dynamic", *over, "--out", str(csv)]) == 2
    assert csv.read_bytes() == b"kept\r\n"
    assert capsys.readouterr().err == message
    assert main(["simulate", *over, "--out", str(frames), "--truth-out", str(truth)]) == 2
    assert not frames.exists() and not truth.exists()
    assert capsys.readouterr().err == message
    # A list that starts after t_start is named by its own key.
    late = ["--set", "harness.t_end=1", "--set", "scenario.translation_trajectory=[[0.5,0,0],[2,0,0]]"]
    assert main(["dynamic", *late, "--out", str(csv)]) == 2
    assert capsys.readouterr().err == ("error: scenario.translation_trajectory does not cover the "
                                       "run: t=0.0 outside trajectory domain [0.5, 2.0]\n")
    # sweep and compare use t = 0 only, so they still run such a config.
    assert main(["sweep", "--trials", "1", *over, "--out", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 20


@settings(max_examples=200, deadline=None)
# A bound 5e-10 periods short of a frame, a decimal bound one float
# spacing short of its computed frame, and a Unix-epoch clock.
@example(times=(0.0, 1.0, 2.9999999995))
@example(times=(16502.02, 10.0, 16504.92))
@example(times=(1700000000.05, 10.0, 1700000000.35))
@given(times=run_times())
def test_a_run_is_covered_by_breakpoint_lists_that_span_exactly_its_bounds(times):
    t_start, rate, t_end = times
    scenario = SimScenario(theta_trajectory=[[t_start, 0], [t_end, 5]],
                           translation_trajectory=[[t_start, 0, 0], [t_end, 0.1, 0]],
                           stick_radius=[[t_start, 3], [t_end, 4]])
    iter_trajectory(scenario, t_start, t_end, rate)  # the coverage check, no frame yet
    for i in range(frame_count(t_start, t_end, rate)):  # and each frame's evaluation
        t = t_start + i / rate
        scenario.theta_at(t), scenario.translation_at(t), scenario.stick_radius_at(t)


def _dynamic_times(capsys, tmp_path, *overrides: str) -> list[float]:
    """The t column of a ``dynamic`` run with these ``--set`` overrides."""
    out = tmp_path / "d.csv"
    args = ["dynamic", "--out", str(out)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 0, capsys.readouterr().err
    return [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]


def test_the_frames_of_a_run_are_those_within_the_allowance_of_t_end(tmp_path, capsys):
    # 3 s lies 5e-10 s past t_end, far beyond the rounding of a frame time.
    short = ["harness.t_end=2.9999999995", "harness.rate_hz=1"]
    assert _dynamic_times(capsys, tmp_path, *short) == [0, 1, 2]
    listed = "scenario.theta_trajectory=[[0,0],[2.9999999995,10]]"
    assert _dynamic_times(capsys, tmp_path, *short, listed) == [0, 1, 2]
    # The last computed time, 16504.920000000002, is one float spacing past
    # t_end, within the allowance, and a list that ends at t_end covers it.
    far = ["harness.t_start=16502.02", "harness.t_end=16504.92", "harness.rate_hz=10",
           "scenario.theta_trajectory=[[16502.02,0],[16504.92,5]]"]
    assert len(_dynamic_times(capsys, tmp_path, *far)) == 30
    # On a Unix-epoch clock the fourth computed time equals t_end.
    epoch = ["harness.t_start=1700000000.05", "harness.t_end=1700000000.35", "harness.rate_hz=10"]
    assert len(_dynamic_times(capsys, tmp_path, *epoch)) == 4
    assert 1700000000.05 + 3 / 10 == 1700000000.35


def test_a_scenario_that_could_break_the_displacement_bound_is_refused_at_load(tmp_path, capsys):
    out = tmp_path / "d.csv"
    far = ["--set", "harness.t_end=0.1", "--set", "scenario.translation_trajectory=[2e6,0]"]
    assert main(["dynamic", *far, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: invalid config value: scenario.contact_radius, translation_trajectory, max_indent "
        "and noise_sigma allow displacements up to 4 x 8 + 2e+06 + 0.5 + 10 x 0.005 = 2.00003e+06 "
        "mm, beyond +-1e+06 mm\n"
    )
    big_grid = {"rows": 3, "cols": 3, "pitch": 1e6, "origin": [0, 0]}
    for doc in ({"scenario": {"max_indent": 2e6}}, {"scenario": {"noise_sigma": 1e5}},
                {"scenario": {"translation_trajectory": [[0, 0, 0], [1, 0, -999_990]]}},
                {"grid": big_grid, "scenario": {"contact_radius": 3e5}}):
        with pytest.raises(ConfigError, match="allow displacements up to .* beyond"):
            build_config(doc)
    for doc in ({"scenario": {"translation_trajectory": [[0, 0, 0], [1, 0, -999_900]]}},
                {"grid": big_grid, "scenario": {"contact_radius": 2e5}}):
        build_config(doc)


def test_piecewise_trajectories_from_document():
    config = build_config(
        {
            "scenario": {
                "theta_trajectory": [[0.0, 0.0], [1.0, 10.0]],
                "stick_radius": [[0.0, 6.0], [1.0, 2.0]],
                "translation_trajectory": [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
            }
        }
    )
    assert config.scenario.theta_at(0.5) == pytest.approx(5.0)
    assert config.scenario.stick_radius_at(1.0) == pytest.approx(2.0)
    assert config.scenario.translation_at(1.0) == pytest.approx([0.5, -0.5])


def test_overrides_reach_nested_keys():
    doc = apply_overrides({}, ["scenario.noise_sigma=0.02", "harness.trials=7"])
    config = build_config(doc)
    assert config.scenario.noise_sigma == 0.02
    assert config.harness.trials == 7


def test_override_requires_section_key_form():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["trials=7"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["harness.trials"])


def test_fmt_six_significant_digits():
    assert fmt(12.3456789) == "12.3457"
    assert fmt(0.000123456789) == "0.000123457"
    assert fmt(float("nan")) == "nan"
    buf = io.StringIO()
    cells = (12.3456789, np.float64(2.0), 1234567, "theta_true_deg", ContactState.INCIPIENT_SLIP)
    write_csv_row(buf, cells)
    assert buf.getvalue() == "12.3457,2,1234567,theta_true_deg,IncipientSlip\n"


# Floats whose repr takes each of its forms: signed zero, the least
# subnormal, a negative exponent, the switch to an exponent at 1e16, a
# power of ten past the exact ints, the displacement bound and whole floats.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e22, -1e22, 1e6, -1e6, 3.0, -12.0]


def _floats(bound: float):
    return st.one_of(st.sampled_from([v for v in _EDGE_FLOATS if abs(v) <= bound]),
                     st.floats(-bound, bound))


@st.composite
def _frame_and_truth(draw):
    n = draw(st.integers(2, 9)) * draw(st.integers(2, 11))
    t = draw(st.one_of(st.integers(-10**6, 10**6), _floats(1e300),
                       _floats(1e300).map(np.float64)))
    d = draw(st.lists(_floats(MAX_DISPLACEMENT_MM), min_size=3 * n, max_size=3 * n))
    slip = draw(st.lists(_floats(1e300), min_size=2 * n, max_size=2 * n))
    masks = [draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(2)]
    truth = GroundTruth(theta=draw(_floats(1e300)), stick_mask=masks[0],
                        slip_field=np.reshape(slip, (n, 2)), contact_mask_true=masks[1])
    return t, Frame(timestamp=t, displacements=np.reshape(d, (n, 3))), truth


@settings(max_examples=150, deadline=None)
@given(case=_frame_and_truth())
def test_writers_give_the_json_dumps_bytes(case):
    t, frame, truth = case
    lines = [io.StringIO() for _ in range(4)]
    write_frame(lines[0], frame)
    reference_write_frame(lines[1], frame)
    write_truth(lines[2], t, truth)
    reference_write_truth(lines[3], t, truth)
    assert lines[0].getvalue() == lines[1].getvalue()
    assert lines[2].getvalue() == lines[3].getvalue()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.float64(math.nan), True, False,
                               10**400, "0.5", None],
                         ids=["nan", "inf", "-inf", "np-nan", "True", "False", "huge-int", "str",
                              "None"])
def test_write_truth_refuses_a_time_that_breaks_the_number_rule(t):
    # NaN and +-inf would be written as the bare words nan and inf, and True as
    # 1.0 where json.dumps writes true: no line would be strict JSON.
    truth = GroundTruth(theta=1.5, stick_mask=[True, False], slip_field=[[0.0, 0.5], [1.0, -2.0]],
                        contact_mask_true=[True, True])
    out = io.StringIO()
    with pytest.raises(UsageError, match=r"^truth time must be a finite number, got "):
        write_truth(out, t, truth)
    assert out.getvalue() == ""


def test_ndjson_round_trip_is_exact():
    scn = SimScenario(theta_trajectory=9.0, noise_sigma=0.01, rng_seed=3)
    frames = [generate_frame(scn, t / 30.0, frame_index=i)[0] for i, t in enumerate(range(5))]
    buf = io.StringIO()
    write_header(buf, scn.grid)
    for frame in frames:
        write_frame(buf, frame)
    buf.seek(0)
    lines = iter(buf)
    grid = read_header(lines)
    assert grid == scn.grid
    warn = io.StringIO()
    restored = list(read_frames(lines, grid, warn=warn))
    assert len(restored) == len(frames) and warn.getvalue() == ""
    for original, parsed in zip(frames, restored):
        assert parsed.timestamp == original.timestamp
        assert np.array_equal(parsed.displacements, original.displacements)


def test_read_frames_skips_malformed_lines():
    grid = MarkerGrid(rows=2, cols=2)
    good = json.dumps({"t": 0.0, "d": [[0, 0, 0]] * 4})
    wrong_count = json.dumps({"t": 1.0, "d": [[0, 0, 0]] * 3})
    nan_line = '{"t": 2.0, "d": [[0, 0, NaN], [0,0,0], [0,0,0], [0,0,0]]}'
    later = json.dumps({"t": 3.0, "d": [[0, 0, 0]] * 4})
    earlier = json.dumps({"t": 2.5, "d": [[0, 0, 0]] * 4})
    last = json.dumps({"t": 4.0, "d": [[0, 0, 0]] * 4})
    lines = [good, "not json", wrong_count, nan_line, later, later, earlier, last]
    warn = io.StringIO()
    frames = list(read_frames(iter(lines), grid, warn=warn))
    assert [f.timestamp for f in frames] == [0.0, 3.0, 4.0]
    warnings = warn.getvalue().strip().splitlines()
    assert len(warnings) == 5
    assert all("skipping frame line" in w for w in warnings)


# Number tokens that no frame or header may let through: non-finite
# literals, a float literal beyond range and an integer beyond float range.
_HOSTILE_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)
_LINE_DEFECTS = ("none", "truncated", "hostile number", "wrong shape", "missing key",
                 "duplicate", "not an object", "blank", "deep")


def _defective_lines(draw, t: float, d: list, defect: str) -> list[str]:
    line = json.dumps({"t": t, "d": d})
    if defect == "truncated":
        return [line[:draw(st.integers(0, len(line) - 1))]]
    if defect == "hostile number":
        token = draw(st.sampled_from(_HOSTILE_NUMBERS))
        if draw(st.booleans()):
            return [json.dumps({"t": "@", "d": d}).replace('"@"', token)]
        marker = draw(st.integers(0, len(d) - 1))
        d = [row if i != marker else [row[0], "@", row[2]] for i, row in enumerate(d)]
        return [json.dumps({"t": t, "d": d}).replace('"@"', token)]
    if defect == "wrong shape":
        shapes = (d[:-1], d + d[:1], [row[:2] for row in d], [row + [0.0] for row in d],
                  3.0, {"d": d}, [d])
        return [json.dumps({"t": t, "d": draw(st.sampled_from(shapes))})]
    if defect == "missing key":
        return [json.dumps(draw(st.sampled_from([{"d": d}, {"t": t}])))]
    if defect == "duplicate":
        return [line, line]
    if defect == "not an object":
        return [draw(st.sampled_from(["[1, 2]", '"frame"', "3", "null", "{"]))]
    if defect == "blank":
        return ["   \n", line]
    if defect == "deep":
        return ["[" * 100_000]
    return [line]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_frames_survives_hostile_lines(data):
    grid = MarkerGrid(rows=data.draw(st.integers(2, 3)), cols=data.draw(st.integers(2, 3)))
    component = st.floats(-5.0, 5.0, allow_nan=False)
    lines = []
    for t in data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=8)):
        d = data.draw(st.lists(st.lists(component, min_size=3, max_size=3),
                               min_size=grid.n_markers, max_size=grid.n_markers))
        lines += _defective_lines(data.draw, t, d, data.draw(st.sampled_from(_LINE_DEFECTS)))
    if data.draw(st.booleans()):
        lines = data.draw(st.permutations(lines))

    warn = io.StringIO()
    frames = list(read_frames(iter(lines), grid, warn=warn))

    times = [frame.timestamp for frame in frames]
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    for frame in frames:
        assert frame.displacements.shape == (grid.n_markers, 3)
        assert np.all(np.isfinite(frame.displacements)) and math.isfinite(frame.timestamp)
    # One warning per skipped line, naming that line; blank lines are ignored.
    warnings = warn.getvalue().splitlines()
    prefix = "warning: skipping frame line "
    assert all(w.startswith(prefix) for w in warnings)
    warned = [int(w[len(prefix):].split(":")[0]) for w in warnings]
    nonblank = [lineno for lineno, line in enumerate(lines, start=2) if line.strip()]
    assert len(set(warned)) == len(warned) and set(warned) <= set(nonblank)
    assert len(frames) + len(warnings) == len(nonblank)


# Leaf texts a frame line may hold instead of a written float: literals,
# strings, containers, non-finite and out-of-range numbers, which the reader
# must leave to the number rule, and ints and other number forms, which it
# may read in one pass only as that rule reads them.
_LEAVES = ("true", "false", "null", '"1.5"', '"-2"', '"1e3"', '"t"', "{}", "[]", "[1.5]",
           "1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400", "123456789012345678901234567",
           "-0", "7", "1E-3", "-0.0", "5e-324", "1e-400")
# What may follow the rows: extra keys with and without an a or u, in name or
# value, and repeated keys, whose last value json keeps.
_TAILS = (', "k": 1', ', "a": 1', ', "u": 1', ', "x": true', ', "x": "abc"', ', "note": []',
          ', "t": -1', ', "d": [[0, 0, 0]]', ', "d": {}')
_BAD_TIMES = ('"0.5"', "true", "false", "null", "NaN", "Infinity", "[]", "{}", "1" + "0" * 400)
_BLANKS = ("", "\n", " \t\n", "\x1c\n", "\u3000\n")


def _rows_text(rows: list[list[str]]) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _frame_line(t: str, d: str, tail: str = "") -> str:
    """A frame line as ``write_frame`` lays it out, from its texts."""
    return '{"t": ' + t + ', "d": ' + d + tail + "}\n"


def _variants(t: str, rows: list[list[str]]) -> list:
    """The hostile variants of the frame line with timestamp text ``t`` and leaf texts ``rows``."""
    def leaf(text: str) -> str:
        changed = [row[:] for row in rows]
        changed[-1][1] = text
        return _rows_text(changed)

    d = _rows_text(rows)
    lines = [_frame_line(t, leaf(text)) for text in _LEAVES]
    lines += [_frame_line(t, _rows_text(rows[:-1] + [rows[-1][:2]])),  # ragged rows
              _frame_line(t, _rows_text(rows[:-1] + [rows[-1] + ["0.5"]]))]
    lines += [_frame_line(t, d, tail) for tail in _TAILS]
    lines += [_frame_line(bad, d) for bad in _BAD_TIMES]
    lines += [_frame_line(t, shape) for shape in ("[]", "{}", "3", "[[]]", "[" + d + "]")]
    # An escaped key names t too, and a binary file's line is bytes.
    lines += [_frame_line(t, d).replace('"t"', '"\\u0074"'), _frame_line(t, d).encode()]
    return lines + list(_BLANKS)


def _written(t, d) -> tuple[str, str, list[list[str]]]:
    """A frame's written line, and its timestamp and leaf texts."""
    out = io.StringIO()
    frame = Frame(timestamp=t, displacements=d)
    write_frame(out, frame)
    rows = [[repr(x) for x in row] for row in frame.displacements.tolist()]
    return out.getvalue(), repr(frame.timestamp), rows


@st.composite
def _replay_lines(draw):
    grid = MarkerGrid(rows=draw(st.integers(2, 3)), cols=draw(st.integers(2, 3)))
    component = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([MAX_DISPLACEMENT_MM, -0.0]))
    times = st.lists(st.one_of(st.integers(-5, 5), st.floats(-10.0, 10.0)), max_size=8, unique=True)
    lines = []
    for t in sorted(draw(times)):
        d = draw(st.lists(component, min_size=3 * grid.n_markers, max_size=3 * grid.n_markers))
        written, t_text, rows = _written(t, np.reshape(d, (-1, 3)))
        assert _frame_line(t_text, _rows_text(rows)) == written
        lines.append(draw(st.one_of(st.just(written), st.sampled_from(_variants(t_text, rows)))))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return grid, lines


def _every_variant() -> tuple[MarkerGrid, list]:
    """Each variant of a 2x2 grid's line at its own time, after a written
    line of an earlier time: no variant is skipped as out of order."""
    d = np.arange(12.0).reshape(4, 3) / 7
    lines = []
    for k in range(len(_variants("0", [["0"] * 3] * 4))):
        lines.append(_written(2 * k, d)[0])
        lines.append(_variants(*_written(2 * k + 1, d)[1:])[k])
    return MarkerGrid(rows=2, cols=2), lines


def _frames_and_warnings(reader, lines, grid) -> tuple[list, str]:
    warn = io.StringIO()
    frames = [(type(f.timestamp), f.timestamp.hex(), f.displacements.shape,
               f.displacements.tobytes()) for f in reader(iter(lines), grid, warn=warn)]
    return frames, warn.getvalue()


@settings(max_examples=200, deadline=None)
@example(case=_every_variant())
@given(case=_replay_lines())
def test_read_frames_matches_the_number_rule_on_every_line(case):
    grid, lines = case
    got = _frames_and_warnings(read_frames, lines, grid)
    assert got == _frames_and_warnings(reference_read_frames, lines, grid)


def test_every_variant_keeps_its_frame_or_warning():
    # Each written line gives a frame. Of the variants, blank lines give
    # nothing, and those json reads as the written line would be, ints and
    # other number forms among them, give frames; the rest give warnings.
    grid, lines = _every_variant()
    frames, warned = _frames_and_warnings(read_frames, lines, grid)
    warned = warned.splitlines()
    assert len(frames) + len(warned) + len(_BLANKS) == len(lines)
    # Six number forms, six extra keys, the escaped key and the bytes line.
    assert len(frames) == len(lines) // 2 + 14
    finite, width, bounded = ("displacements must be finite numbers, got ",
                              "displacements must be rows of 3 numbers, got widths ",
                              "displacements must lie within +-1e+06 mm")
    objects = "displacements must be lists, tuples or arrays of numbers, got dict"
    assert [w.split(": ", 2)[2] for w in warned] == [
        *[finite + name for name in ("bool", "bool", "NoneType", *["str"] * 4, "dict", "list",
                                     "list")],
        "displacements contain non-finite values",  # the int beyond float range
        *[bounded] * 5,  # NaN, +-Infinity, 1e400 and an int beyond the bound
        width + "[2, 3]", width + "[3, 4]",  # the ragged rows
        "out-of-order frame: t=-1.0 not after t=60.0",  # json keeps the last "t"
        "frame has shape (1,), grid expects (4,)",  # and the last "d"
        objects,
        *["frame timestamp must be a finite number, got " + value
          for value in ("'0.5'", "True", "False", "None", "nan", "inf", "[]", "{}",
                        "1" + "0" * 400)],
        width + "[]", objects, "displacements must be a sequence of rows of 3 numbers",
        width + "[0]", width + "[4]",
    ]


def test_writer_lines_are_read_in_one_pass(tmp_path, monkeypatch):
    stream = tmp_path / "three-lift.ndjson"
    assert main(["simulate", "--config", "three-lift", "--out", str(stream)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a line reached the number rule")

    monkeypatch.setattr("pivotgauge.core.number_rows", refuse)
    for path in (GOLDEN / "simulate-small.ndjson", stream):
        with open(path, encoding="utf-8") as handle:
            lines = NumberedLines(handle)
            grid = read_header(lines)
            warn = io.StringIO()
            assert len(list(read_frames(lines, grid, warn=warn))) == lines.lineno - 1
        assert warn.getvalue() == "" and lines.lineno == len(path.read_text().splitlines())
    # A line left to the number rule, here one with an extra key, fails loudly.
    written, _, _ = _written(0.0, np.zeros((grid.n_markers, 3)))
    with pytest.raises(AssertionError, match="reached the number rule"):
        list(read_frames(iter([written.replace("}\n", ', "k": 1}\n')]), grid, warn=warn))


@pytest.mark.parametrize("name", ["estimate-hostile", "simulate-small"])
def test_a_binary_stream_replays_as_its_text(name):
    results = []
    for mode in ("r", "rb"):
        out, warn = io.StringIO(), io.StringIO()
        with open(GOLDEN / f"{name}.ndjson", mode) as handle:
            assert estimate_from_stream(handle, load_config(None), out, warn=warn) > 0
        results.append((out.getvalue(), warn.getvalue()))
    assert results[0] == results[1]


def _stream_header(rows: int, cols: int) -> str:
    out = io.StringIO()
    write_header(out, MarkerGrid(rows=rows, cols=cols, origin=(0.0, 0.0)))
    return out.getvalue()


def test_warnings_name_the_line_of_the_stream():
    # Blank lines before the header count: the bad frame is on line 5.
    grid = MarkerGrid(rows=2, cols=2, origin=(0.0, 0.0))
    good = json.dumps({"t": 0.0, "d": [[0.0, 0.0, 0.5]] * 4})
    lines = ["\n", "  \n", _stream_header(2, 2), good, "not json", "", '{"t": 2}']
    warn = io.StringIO()
    assert estimate_from_stream(lines, load_config(None), io.StringIO(), warn=warn) == 1
    assert [int(w.split()[4].rstrip(":")) for w in warn.getvalue().splitlines()] == [5, 7]
    # Without a header read first, the first line given is line 2.
    warn = io.StringIO()
    assert len(list(read_frames(iter(lines[3:]), grid, warn=warn))) == 1
    assert warn.getvalue().startswith("warning: skipping frame line 3: ")


@pytest.mark.parametrize("axis", [0, 1])
def test_replay_skips_a_line_whose_segments_would_overflow(axis):
    # Neighbouring components of +-1e308 are finite, but their difference is
    # not: the line is skipped before any kernel sees it.
    d = [[0.0, 0.0, 0.5] for _ in range(6)]
    d[0][axis], d[3 if axis else 1][axis] = 1e308, -1e308
    lines = [_stream_header(2, 3), json.dumps({"t": 0.0, "d": d}),
             json.dumps({"t": 1.0, "d": [[0.3, 0.0, 0.5]] * 6})]
    out, warn = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_from_stream(lines, load_config(None), out, warn=warn) == 1
    assert out.getvalue().splitlines()[1:] == ["1,0,0,Stick,1"]
    assert warn.getvalue() == (
        "warning: skipping frame line 2: displacements must lie within +-1e+06 mm\n"
    )


# Components over the whole float range: both signs of the extremes and of
# the smallest subnormal, the bound and the float just past it, nan and
# +-inf (NaN and Infinity in the line), and ordinary values.
_ANY_COMPONENT = st.one_of(
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, MAX_DISPLACEMENT_MM, -MAX_DISPLACEMENT_MM,
                     math.nextafter(MAX_DISPLACEMENT_MM, math.inf)]),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_line_ends_a_replay(data):
    rows, cols = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    component = st.lists(_ANY_COMPONENT, min_size=3, max_size=3)
    drawn = data.draw(st.lists(st.lists(component, min_size=rows * cols, max_size=rows * cols),
                               min_size=1, max_size=5))
    lines = [_stream_header(rows, cols)] + [json.dumps({"t": t, "d": d}) for t, d in
                                            enumerate(drawn)]
    # abs(nan) <= bound is False: a nan line is skipped like an out-of-range one.
    kept = [all(abs(x) <= MAX_DISPLACEMENT_MM for row in d for x in row) for d in drawn]
    out, warn = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow or invalid warning fails
        n = estimate_from_stream(lines, load_config(None), out, warn=warn)
    assert n == sum(kept) and len(out.getvalue().splitlines()) == 1 + n
    warned = [int(w.split()[4].rstrip(":")) for w in warn.getvalue().splitlines()]
    assert warned == [lineno for lineno, ok in enumerate(kept, start=2) if not ok]


# Header lengths over the whole float range, the grid bounds, the floats just
# past them and pitches that would overflow the kernels' squares included.
_ANY_LENGTH = st.one_of(
    _ANY_COMPONENT,
    st.sampled_from([MAX_GRID_MM, -MAX_GRID_MM, math.nextafter(MAX_GRID_MM, math.inf), 1e200,
                     MIN_PITCH_MM, math.nextafter(MIN_PITCH_MM, 0.0), 5e-324]),
    st.floats(0.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_accepted_header_and_frame_replays_quietly(data):
    rows, cols = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    pitch, ox, oy = (data.draw(_ANY_LENGTH) for _ in range(3))
    component = st.lists(_ANY_COMPONENT, min_size=3, max_size=3)
    drawn = data.draw(st.lists(st.lists(component, min_size=rows * cols, max_size=rows * cols),
                               min_size=1, max_size=3))
    header = json.dumps({"rows": rows, "cols": cols, "pitch": pitch, "origin": [ox, oy]})
    lines = [header] + [json.dumps({"t": t, "d": d}) for t, d in enumerate(drawn)]
    # Comparisons with nan are False: a nan pitch or origin is refused.
    accepted = (MIN_PITCH_MM <= pitch <= MAX_GRID_MM
                and abs(ox) <= MAX_GRID_MM and abs(oy) <= MAX_GRID_MM)
    kept = [all(abs(x) <= MAX_DISPLACEMENT_MM for row in d for x in row) for d in drawn]
    out, warn = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow or invalid warning fails
        if not accepted:
            with pytest.raises(StreamFormatError, match=r"^bad stream header: (grid\.)?(pitch|origin)"):
                estimate_from_stream(lines, load_config(None), out, warn=warn)
            assert not out.getvalue()
            return
        n = estimate_from_stream(lines, load_config(None), out, warn=warn)
    assert n == sum(kept) and len(out.getvalue().splitlines()) == 1 + n
    warned = [int(w.split()[4].rstrip(":")) for w in warn.getvalue().splitlines()]
    assert warned == [lineno for lineno, ok in enumerate(kept, start=2) if not ok]


# Config values over the whole float range, the softness bound and the floats
# just past it, and the largest ratio below 1 included.
_ANY_SETTING = st.one_of(
    st.floats(),
    st.sampled_from([MAX_SOFTNESS, -MAX_SOFTNESS, math.nextafter(MAX_SOFTNESS, math.inf),
                     1e307, 1e308, -1e308, 5e-324, math.nextafter(1.0, 0.0)]),
    st.floats(-2.0, 2.0),
)
_SETTING_KEYS = {
    "softness": ("k", "l_xy", "l_yx"),
    "segmentation": ("contact_threshold", "normal_filter_ratio", "delta_phi_th",
                     "min_stick_markers", "epsilon_angle"),
}


def _loads(document) -> bool:
    try:
        build_config(document)
    except ConfigError:
        return False
    return True


@st.composite
def _settings(draw):
    """A config whose softness and segmentation values are each drawn over the
    whole float range and kept when the loader accepts it. The harness start
    time and rate are drawn over it too, with an end time a few frames later
    when the rate allows one. Every frame's true angle is in range."""
    document = {"scenario": {"theta_trajectory": 10.0}}
    for section, keys in _SETTING_KEYS.items():
        drawn = {key: draw(_ANY_SETTING) for key in keys}
        document[section] = {key: value for key, value in drawn.items()
                             if _loads({section: {key: value}})}
    t_start, rate_hz = draw(_ANY_SETTING), abs(draw(_ANY_SETTING))
    span = (draw(st.integers(0, 3)) + 0.5) / rate_hz if rate_hz > 0 else 1.0
    document["harness"] = {"trials": 1, "t_start": t_start, "t_end": t_start + span,
                           "rate_hz": rate_hz}
    return document


def _short_run(softness):
    return {"scenario": {"theta_trajectory": 10.0}, "softness": softness,
            "harness": {"trials": 1, "t_start": 0.0, "t_end": 0.1, "rate_hz": 30.0}}


@settings(max_examples=100, deadline=None)
@given(document=_settings())
@example(document=_short_run({"k": 1e308}))
@example(document=_short_run({"k": 1e307}))
@example(document=_short_run({"l_xy": 1e308, "l_yx": -1e308}))
@example(document={"scenario": {"theta_trajectory": 10.0}, "harness": {
    "trials": 1, "t_start": 0.5, "t_end": 0.5000000000000001, "rate_hz": 1.8014398500474784e16}})
def test_every_accepted_config_runs_to_its_end(document):
    # The config-side twin of the stream test above: a config that loads
    # never ends a run later, nor gives it an infinite summary.
    try:
        config = build_config(document)
    except ConfigError:  # the harness time range and rate as a whole
        reject()
    harness = config.harness
    n = frame_count(harness.t_start, harness.t_end, harness.rate_hz)
    if n > 4:  # a few frames are enough
        reject()
    stream = io.StringIO()
    write_header(stream, config.grid)
    for frame, _truth in iter_trajectory(config.scenario, harness.t_start, harness.t_end,
                                         harness.rate_hz):
        write_frame(stream, frame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow or invalid warning fails
        dynamic = run_dynamic(config, io.StringIO())
        sweep = run_static_sweep(config, io.StringIO())
        out, warn = io.StringIO(), io.StringIO()
        replayed = estimate_from_stream(stream.getvalue().splitlines(), config, out, warn)
    assert dynamic.n_frames == n
    # Without an in-range frame outside macro slip the MARE is nan by contract.
    assert math.isfinite(dynamic.mare) or dynamic.in_range_frames == 0
    assert math.isfinite(sweep["proposed"].mare)
    baseline = sweep["baseline"]
    assert math.isfinite(baseline.mare) or all(row.failures == row.trials for row in baseline.rows)
    assert replayed == n and not warn.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_header_gives_grid_or_format_error(data):
    hostile = st.one_of(
        st.integers(-3, 40), st.floats(), st.none(), st.text(max_size=3),
        st.lists(st.floats(), max_size=3), st.just(10**400), st.just([10**400, 0]),
        st.booleans(),
    )
    header = {"rows": 20, "cols": 20, "pitch": 1.0, "origin": [-9.5, -9.5]}
    for key in list(header):
        change = data.draw(st.sampled_from(["keep", "replace", "drop"]))
        if change == "replace":
            header[key] = data.draw(hostile)
        elif change == "drop":
            del header[key]
    text = json.dumps(header)
    text = data.draw(st.sampled_from([text, text[:data.draw(st.integers(0, len(text)))],
                                      "[" + text + "]", "[" * 100_000]))
    try:
        grid = read_header(iter(["", "  \n", text]))
    except StreamFormatError:
        return
    assert 2 <= grid.rows and 2 <= grid.cols and grid.n_markers <= MAX_MARKERS
    assert not any(isinstance(v, bool) for v in (grid.rows, grid.cols, grid.pitch))
    assert np.all(np.isfinite(grid.reference_positions))


def test_bad_header_is_fatal(tmp_path, capsys):
    with pytest.raises(StreamFormatError):
        read_header(iter(["{not json"]))
    with pytest.raises(StreamFormatError):
        read_header(iter([]))
    with pytest.raises(StreamFormatError):
        read_header(iter([json.dumps({"rows": 20})]))
    good = {"rows": 20, "cols": 20, "pitch": 1.0, "origin": [-9.5, -9.5]}
    for change in ({"origin": [0]}, {"origin": [float("nan"), 0]}, {"origin": None},
                   {"rows": 2.5}, {"rows": "20"}, {"pitch": float("inf")}, {"pitch": 1e308},
                   {"pitch": 5e-324}, {"pitch": 0},
                   {"pitch": 1e307, "origin": [1.7e308, 0]}):
        with pytest.raises(StreamFormatError, match="bad stream header"):
            read_header(iter([json.dumps({**good, **change})]))
    stream = tmp_path / "inf_pitch.ndjson"
    stream.write_text(json.dumps({**good, "pitch": float("inf")}) + "\n")
    assert main(["estimate", "--in", str(stream)]) == 1
    assert "bad stream header: grid.pitch must be a finite number" in capsys.readouterr().err
    stream.write_text(json.dumps({**good, "pitch": True}) + "\n")
    assert main(["estimate", "--in", str(stream)]) == 1
    assert "grid.pitch must be a finite number, got True" in capsys.readouterr().err
    stream.write_text(json.dumps({**good, "pitch": 5e-324}) + "\n")
    assert main(["estimate", "--in", str(stream)]) == 1
    assert "bad stream header: grid.pitch must be at least 1e-06 mm" in capsys.readouterr().err
    # A grid over the size limit is refused before its arrays are allocated.
    tracemalloc.start()
    try:
        with pytest.raises(StreamFormatError, match="exceeds"):
            read_header(iter([json.dumps({**good, "rows": 2, "cols": MAX_MARKERS // 2 + 1})]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_header_defines_grid():
    grid = MarkerGrid(rows=4, cols=6, pitch=0.5, origin=(-1.0, 2.0))
    buf = io.StringIO()
    write_header(buf, grid)
    buf.seek(0)
    assert read_header(iter(buf)) == grid
