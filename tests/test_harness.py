from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pivotgauge import (
    ConfigError,
    SoftnessParams,
    UsageError,
    estimation,
    harness,
    load_config,
    simulate,
)
from pivotgauge.cli import build_parser, main
from pivotgauge.config import (
    HarnessConfig,
    apply_overrides,
    build_config,
    load_document,
    trial_count,
)
from pivotgauge.core import MAX_FRAMES, InsufficientDataError
from pivotgauge.harness import (
    SWEEP_ANGLES,
    compare_estimators,
    estimate_from_stream,
    run_dynamic,
    run_static_sweep,
)
from pivotgauge.segmentation import detect_contact
from pivotgauge.simulate import generate_frame, generate_trajectory
from pivotgauge.streams import fmt, write_frame, write_header
from conftest import cli_env, reference_grow_stick_region, reference_line_feature_angles


def config_with(scenario_overrides=None, harness_overrides=None):
    doc = {"scenario": dict(scenario_overrides or {}), "harness": dict(harness_overrides or {})}
    return build_config(doc)


def test_sweep_noiseless_full_stick_exact():
    config = config_with({"noise_sigma": 0.0}, {"trials": 2})
    reports = run_static_sweep(config, io.StringIO())
    assert reports["proposed"].mare < 1e-6
    assert reports["baseline"].mare < 1e-6
    assert all(row.trials == 2 for row in reports["proposed"].rows)
    assert [row.theta_true for row in reports["proposed"].rows] == list(map(float, SWEEP_ANGLES))


def test_sweep_csv_deterministic():
    config = config_with({"noise_sigma": 0.005, "rng_seed": 5}, {"trials": 1})
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        run_static_sweep(config, csv_out=buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    header = outputs[0].splitlines()[0]
    assert header.startswith("theta_true_deg,trials,proposed_mae_deg")


def test_sweep_and_compare_generate_one_frame_per_trial(monkeypatch):
    # A trial is one harness.generate_frame call with its own frame index.
    indices = []
    generate = harness.generate_frame

    def counting(scenario, t, frame_index=0):
        indices.append(frame_index)
        return generate(scenario, t, frame_index=frame_index)

    monkeypatch.setattr(harness, "generate_frame", counting)
    config = config_with(harness_overrides={"trials": 2})
    for run in (run_static_sweep, compare_estimators):
        indices.clear()
        run(config, io.StringIO())
        assert len(indices) == 38 == 2 * len(SWEEP_ANGLES)
        assert sorted(indices) == list(range(38))


def test_sweep_api_trials_must_be_whole():
    # The sweep APIs take their trial count from harness.trials, checked at load.
    with pytest.raises(ConfigError, match="harness.trials must be a whole number, got 2.5"):
        config_with(harness_overrides={"trials": 2.5})
    as_float, as_int = io.StringIO(), io.StringIO()
    report = run_static_sweep(config_with(harness_overrides={"trials": 3.0}), csv_out=as_float)
    assert report == run_static_sweep(config_with(harness_overrides={"trials": 3}), csv_out=as_int)
    assert as_float.getvalue() == as_int.getvalue()
    assert all(type(row.trials) is int for row in report["proposed"].rows)


def test_sweep_trials_are_bounded_before_allocating(monkeypatch, capsys, tmp_path):
    most = MAX_FRAMES // len(SWEEP_ANGLES)
    assert trial_count(most, "trials") == most
    over = most + 1
    bound = f"trials x {len(SWEEP_ANGLES)} sweep angles exceeds {MAX_FRAMES} frames"
    with pytest.raises(ConfigError, match=f"invalid config value: harness.{bound}"):
        build_config({"harness": {"trials": over}})

    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was generated")

    monkeypatch.setattr(harness, "generate_frame", no_frames)
    # The sweep APIs read harness.trials, which cannot hold the count.
    with pytest.raises(UsageError, match=bound):
        HarnessConfig(trials=over)
    out = tmp_path / "refused.csv"
    tracemalloc.start()
    try:
        for command in ("sweep", "compare"):
            for flags in (["--trials", str(over)], ["--trials", "100000000000"],
                          ["--set", f"harness.trials={over}"]):
                assert main([command, "--out", str(out), *flags]) == 2
                assert f"error: invalid config value: harness.{bound}" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not out.exists()  # refused at load, before any output


def test_outputs_match_reference_kernels(monkeypatch):
    # Every CSV byte must survive a swap back to the reference line-feature
    # kernel and the reference growth loop.
    compare_settings = config_with({"stick_radius": 3.0, "contact_radius": 6.0}, {"trials": 3})
    runs = (
        lambda out: run_dynamic(load_config("three-lift"), csv_out=out),
        lambda out: run_static_sweep(compare_settings, csv_out=out),
        lambda out: compare_estimators(compare_settings, csv_out=out),
    )

    def outputs():
        texts = []
        for run in runs:
            buf = io.StringIO()
            run(buf)
            texts.append(buf.getvalue())
        return texts

    package_outputs = outputs()
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel)
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(estimation, "line_feature_angles", counted(reference_line_feature_angles))
    monkeypatch.setattr(estimation, "grow_stick_region", counted(reference_grow_stick_region))
    assert outputs() == package_outputs
    assert calls.count(reference_line_feature_angles) == calls.count(reference_grow_stick_region)
    assert calls.count(reference_grow_stick_region) >= 361 + 2 * 3 * len(SWEEP_ANGLES)


def _reference_sweep_errors(config):
    """``harness._sweep_errors`` with each angle's scenario built by a fresh
    ``replace``, so that each angle makes its own field geometry and decay profile."""
    trials = config.harness.trials
    proposed = np.empty((len(SWEEP_ANGLES), trials))
    baseline = np.full_like(proposed, math.nan)
    for angle_pos, theta in enumerate(SWEEP_ANGLES):
        scenario = replace(config.scenario, theta_trajectory=float(theta))
        for trial in range(trials):
            frame, _truth = generate_frame(scenario, 0.0, frame_index=angle_pos * trials + trial)
            result = estimation.estimate_frame(config.grid, frame, config.segmentation,
                                               config.softness)
            proposed[angle_pos, trial] = abs(result.theta - theta)
            if result.mask.contact_detected:
                with contextlib.suppress(InsufficientDataError):
                    base = estimation.baseline_least_squares(config.grid, frame, result.mask)
                    baseline[angle_pos, trial] = abs(base - theta)
    return proposed, baseline


def test_sweep_makes_every_trial_from_one_scenario_and_keeps_every_bit(monkeypatch):
    # The golden CSVs keep 6 digits; these arrays keep every bit.
    config = config_with({"stick_radius": 3.0, "contact_radius": 6.0}, {"trials": 3})
    kernel = simulate._contact_taper
    tapers = []

    def counted_taper(*args):
        tapers.append(args)
        return kernel(*args)

    monkeypatch.setattr(simulate, "_contact_taper", counted_taper)
    decay_kernel = simulate._decay_profile
    decays = []

    def counted_decay(*args):
        decays.append(args)
        return decay_kernel(*args)

    monkeypatch.setattr(simulate, "_decay_profile", counted_decay)
    expected = _reference_sweep_errors(config)
    # The reference makes a geometry and a decay profile per angle.
    assert len(tapers) == len(decays) == len(SWEEP_ANGLES)
    tapers.clear()
    decays.clear()
    calls = []

    def recorded(scenario, t, **kwargs):
        calls.append((scenario, t))
        return generate_frame(scenario, t, **kwargs)

    monkeypatch.setattr(harness, "generate_frame", recorded)
    proposed, baseline = harness._sweep_errors(config)
    assert proposed.tobytes() == expected[0].tobytes()
    assert baseline.tobytes() == expected[1].tobytes()
    assert len(tapers) == len(decays) == 1  # one geometry and one decay for the whole sweep
    assert len(calls) == 3 * len(SWEEP_ANGLES)
    scenario = calls[0][0]
    assert scenario is not config.scenario
    assert all(called is scenario for called, _t in calls)
    # A trial at angle theta is the frame at t = theta.
    assert [t for _scenario, t in calls] == [float(theta) for theta in SWEEP_ANGLES
                                            for _trial in range(3)]
    assert all(scenario.theta_at(theta) == theta for theta in SWEEP_ANGLES)
    assert "_geometry" not in vars(config.scenario)
    assert not any(arr.flags.writeable for arr in scenario._geometry)
    assert not any(arr.flags.writeable for arr in scenario._stick_memo[1:])


def test_sweep_trend_incipient_slip():
    # slip annulus: baseline error grows with the commanded angle while the
    # stick-region estimator stays near the noise floor
    config = config_with(
        {
            "stick_radius": 3.0,
            "contact_radius": 6.0,
            "decay_exponent": 4.0,
            "noise_sigma": 0.005,
            "rng_seed": 77,
        },
        {"trials": 10},
    )
    reports = run_static_sweep(config, io.StringIO())
    proposed = [row.mean_abs_error for row in reports["proposed"].rows]
    baseline = {row.theta_true: row.mean_abs_error for row in reports["baseline"].rows}
    assert max(proposed) < 0.3
    assert baseline[10.0] < baseline[14.0] < baseline[18.0]
    assert baseline[18.0] > 5.0


def test_dynamic_three_lift_summary_and_schema():
    config = load_config("three-lift")
    buf = io.StringIO()
    result = run_dynamic(config, csv_out=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,theta_true_deg,theta_raw_deg,theta_filtered_deg,state,stick_ratio"
    assert len(lines) == 1 + result.n_frames
    assert result.n_frames == 361
    assert result.in_range_frames > 0
    assert math.isfinite(result.mare)
    states = {line.split(",")[4] for line in lines[1:]}
    assert {"Stick", "IncipientSlip", "MacroSlip"} <= states
    # macro-slip and out-of-range frames are excluded from the summary
    in_range = [
        line for line in lines[1:]
        if line.split(",")[4] != "MacroSlip" and 2.0 <= abs(float(line.split(",")[1])) <= 20.0
    ]
    assert result.in_range_frames == len(in_range)


def test_every_float_cell_has_six_significant_digits_under_numpy_softness():
    # A float32 softness constant makes float32 arithmetic. Every angle the
    # pipeline returns is a Python float, so its cells are written through fmt too.
    config = _three_lift(4.0)
    softness = SoftnessParams(k=np.float32(0.2))
    config = replace(config, scenario=replace(config.scenario, softness=softness))
    buf = io.StringIO()
    run_dynamic(config, csv_out=buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == 121
    for row in rows:
        t, theta_true, theta_raw, theta_filtered, _state, stick_ratio = row.split(",")
        for cell in (t, theta_true, theta_raw, theta_filtered, stick_ratio):
            assert cell == fmt(float(cell)), row


def test_process_frame_returns_the_filtered_angle_of_the_csv():
    config = _three_lift(4.0)
    buf = io.StringIO()
    run_dynamic(config, csv_out=buf)
    rows = buf.getvalue().splitlines()[1:]
    pipeline = estimation.RotationPipeline(config.grid, config.segmentation, config.softness)
    run = config.harness
    frames = simulate.iter_trajectory(config.scenario, run.t_start, run.t_end, run.rate_hz)
    for (frame, _truth), row in zip(frames, rows, strict=True):
        theta = pipeline.process_frame(frame)
        _t, _true, raw, filtered, state, stick_ratio = row.split(",")
        assert type(theta) is float and fmt(theta) == filtered, row
        region = pipeline.last.region
        assert (fmt(pipeline.last.theta), str(region.state), fmt(region.stick_ratio)) == (
            raw, state, stick_ratio)


def test_dynamic_zero_trajectory_reports_near_zero():
    config = config_with({"theta_trajectory": 0.0, "noise_sigma": 0.0},
                         {"t_start": 0.0, "t_end": 0.5})
    buf = io.StringIO()
    result = run_dynamic(config, csv_out=buf)
    assert result.in_range_frames == 0
    for line in buf.getvalue().splitlines()[1:]:
        cells = line.split(",")
        assert abs(float(cells[3])) < 1e-9


def test_dynamic_filter_smooths_plateau_noise():
    config = load_config("three-lift")
    buf = io.StringIO()
    run_dynamic(config, csv_out=buf)
    raw, filtered = [], []
    for line in buf.getvalue().splitlines()[1:]:
        cells = line.split(",")
        if 5.0 <= float(cells[0]) <= 6.5:
            raw.append(float(cells[2]))
            filtered.append(float(cells[3]))
    assert np.var(filtered) / np.var(raw) < 0.5


def test_stream_replay_matches_dynamic(tmp_path):
    config = load_config("three-lift")
    dynamic_buf = io.StringIO()
    run_dynamic(config, csv_out=dynamic_buf)

    ndjson = tmp_path / "frames.ndjson"
    assert main(["simulate", "--config", "three-lift", "--out", str(ndjson)]) == 0
    estimate_buf, warn = io.StringIO(), io.StringIO()
    with open(ndjson) as stream:
        n = estimate_from_stream(iter(stream), config, estimate_buf, warn=warn)
    assert n == 361 and warn.getvalue() == ""

    dynamic_rows = dynamic_buf.getvalue().splitlines()[1:]
    estimate_rows = estimate_buf.getvalue().splitlines()[1:]
    assert len(dynamic_rows) == len(estimate_rows)
    for dyn, est in zip(dynamic_rows, estimate_rows):
        d = dyn.split(",")
        assert est == ",".join([d[0], d[2], d[3], d[4], d[5]])


def test_stream_replay_empty_after_header():
    config = load_config(None)
    out, warn = io.StringIO(), io.StringIO()
    n = estimate_from_stream(
        iter(['{"rows": 20, "cols": 20, "pitch": 1.0, "origin": [-9.5, -9.5]}']), config, out,
        warn=warn,
    )
    assert n == 0 and warn.getvalue() == ""
    assert out.getvalue().splitlines() == [
        "t,theta_raw_deg,theta_filtered_deg,state,stick_ratio"
    ]


def test_stream_replay_reads_a_list_like_an_iterator():
    # A list restarts each time it is iterated; the header is still read once
    # and the frames from the line after it.
    config = load_config("three-lift")
    stream = io.StringIO()
    write_header(stream, config.grid)
    for frame, _truth in generate_trajectory(config.scenario, 0.0, 0.3, 30.0):
        write_frame(stream, frame)
    lines = stream.getvalue().splitlines(keepends=True)
    outputs = []
    for source in (lines, iter(lines)):
        csv, warn = io.StringIO(), io.StringIO()
        assert estimate_from_stream(source, config, csv, warn=warn) == len(lines) - 1
        assert warn.getvalue() == ""
        outputs.append(csv.getvalue())
    assert outputs[0] == outputs[1]


def test_compare_full_stick_win_rate_near_half():
    config = config_with({"noise_sigma": 0.005, "rng_seed": 21}, {"trials": 20})
    report = compare_estimators(config, io.StringIO())
    assert 0.25 <= report.overall_win_rate <= 0.75
    for ours, theirs in zip(report.sweep["proposed"].rows, report.sweep["baseline"].rows):
        assert theirs.failures == 0
        assert ours.mean_abs_error < 0.5 and theirs.mean_abs_error < 0.5


def test_compare_incipient_slip_win_rate_high():
    config = config_with(
        {
            "stick_radius": 3.0,
            "contact_radius": 6.0,
            "decay_exponent": 4.0,
            "noise_sigma": 0.005,
            "rng_seed": 13,
        },
        {"trials": 10},
    )
    report = compare_estimators(config, io.StringIO())
    high_angle_rates = [rate for row, rate in zip(report.sweep["proposed"].rows, report.win_rates)
                        if row.theta_true >= 10.0]
    assert len(high_angle_rates) == 11
    for rate in high_angle_rates:
        assert rate >= 0.9


def test_compare_reports_insufficient_baseline_data():
    config = config_with(
        {"contact_radius": 0.8, "cor": [0.5, 0.5], "noise_sigma": 0.0}, {"trials": 2}
    )
    report = compare_estimators(config, io.StringIO())
    for row in report.sweep["baseline"].rows:
        assert row.failures == 2
        assert math.isnan(row.mean_abs_error)


def test_one_reduction_leaves_out_failed_trials_of_either_estimator(monkeypatch):
    # A nan error is a failed trial: counted in failures, left out of every
    # mean, std and win rate.
    proposed = np.full((len(SWEEP_ANGLES), 3), 1.0)
    baseline = np.full_like(proposed, 2.0)
    proposed[0], baseline[0] = [1.0, math.nan, 3.0], [0.5, 2.0, math.nan]
    baseline[1] = math.nan
    proposed[2] = [3.0, 1.0, 1.0]
    monkeypatch.setattr(harness, "_sweep_errors", lambda *args: (proposed, baseline))
    config = config_with(harness_overrides={"trials": 3})

    reports = run_static_sweep(config, io.StringIO())
    ours, theirs = reports["proposed"].rows, reports["baseline"].rows
    assert (ours[0].mean_abs_error, ours[0].std_error, ours[0].failures) == (2.0, 1.0, 1)
    assert (theirs[0].mean_abs_error, theirs[0].std_error, theirs[0].failures) == (1.25, 0.75, 1)
    assert math.isnan(theirs[1].mean_abs_error) and math.isnan(theirs[1].std_error)
    assert theirs[1].failures == 3
    assert [row.failures for row in ours[1:]] == [0] * (len(SWEEP_ANGLES) - 1)
    assert reports["proposed"].mare == np.mean(proposed[~np.isnan(proposed)])
    assert reports["baseline"].mare == np.mean(baseline[~np.isnan(baseline)])

    report = compare_estimators(config, io.StringIO())
    assert report.sweep == reports
    ours, theirs = report.sweep["proposed"].rows, report.sweep["baseline"].rows
    assert ours[0].mean_abs_error == 2.0 and theirs[0].mean_abs_error == 1.25
    assert report.win_rates[0] == 0.0  # 1 < 0.5 fails; the other two are not measured
    assert math.isnan(report.win_rates[1]) and theirs[1].failures == 3
    assert report.win_rates[2] == 2 / 3
    assert list(report.win_rates[3:]) == [1.0] * (len(SWEEP_ANGLES) - 3)
    assert report.overall_win_rate == (0 + 2 + 3 * (len(SWEEP_ANGLES) - 3)) / (
        2 + 3 * (len(SWEEP_ANGLES) - 2))


# A light press: at some angles no trial, at some a few and at others every
# trial detects a contact the baseline can fit.
_LIGHT_PRESS = ["--trials", "5", "--set", "scenario.max_indent=0.01"]


def _recounted_baseline_failures(config):
    """Per sweep angle, the trials whose contact mask gives the baseline
    nothing to fit: no contact detected, or fewer than 3 flagged markers."""
    trials = config.harness.trials
    counts = [0] * len(SWEEP_ANGLES)
    for angle_pos, theta in enumerate(SWEEP_ANGLES):
        scenario = replace(config.scenario, theta_trajectory=float(theta))
        for trial in range(trials):
            frame, _truth = generate_frame(scenario, 0.0, frame_index=angle_pos * trials + trial)
            mask = detect_contact(config.grid, frame, config.segmentation)
            counts[angle_pos] += not mask.contact_detected or mask.n_flagged < 3
    return counts


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_trials_without_contact_are_baseline_failures(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, *_LIGHT_PRESS, "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == len(SWEEP_ANGLES)
    column = {name: [row[header.index(name)] for row in rows] for name in header}
    failures = list(map(int, column["baseline_failures"]))
    config = build_config({"scenario": {"max_indent": 0.01}, "harness": {"trials": 5}})
    assert failures == _recounted_baseline_failures(config)
    assert {0, 5} < set(failures)  # angles that fail none, all and some of their trials
    assert [mae == "nan" for mae in column["baseline_mae_deg"]] == [n == 5 for n in failures]
    stderr = capsys.readouterr().err.splitlines()
    if command == "sweep":
        assert stderr[0].endswith(f"over {5 * len(SWEEP_ANGLES)} trials")
        assert stderr[1].endswith(f"over {5 * len(SWEEP_ANGLES) - sum(failures)} trials")
    else:
        assert [rate == "nan" for rate in column["win_rate"]] == [n == 5 for n in failures]
        assert stderr[0].endswith(f"baseline insufficient-data trials: {sum(failures)}")


def test_sweep_summary_counts_only_the_measured_trials(tmp_path, capsys):
    # Every baseline trial fails: its MARE is nan over no trials.
    settings = ["--set", "scenario.contact_radius=0.8", "--set", "scenario.cor=[0.5,0.5]",
                "--set", "scenario.noise_sigma=0.0"]
    assert main(["sweep", "--trials", "2", *settings, "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "proposed: MARE 4.18355 +/- 2.08311 deg over 38 trials",
        "baseline: MARE nan +/- nan deg over 0 trials",
    ]


def test_dynamic_walks_its_trajectory_once(monkeypatch):
    # Frames and truths come from one walk of iter_trajectory's generator,
    # which can be walked only once, and give the rows of the finished list.
    config = build_config(apply_overrides(load_document("three-lift"), ["harness.t_end=4"]))
    streamed = io.StringIO()
    result = run_dynamic(config, csv_out=streamed)
    monkeypatch.setattr(harness, "iter_trajectory", lambda *args: iter(generate_trajectory(*args)))
    from_list = io.StringIO()
    assert run_dynamic(config, csv_out=from_list) == result
    assert streamed.getvalue() == from_list.getvalue()
    assert result.n_frames == 121


def _on_second_frame(monkeypatch, callback) -> list:
    """Patch ``simulate.generate_frame`` to call ``callback()`` just before it
    makes the second frame; returns the list of the times it was asked for."""
    generate, calls = simulate.generate_frame, []

    def counted(scenario, t, frame_index=0):
        calls.append(t)
        if len(calls) == 2:
            callback()
        return generate(scenario, t, frame_index)

    monkeypatch.setattr(simulate, "generate_frame", counted)
    return calls


def _three_lift(t_end: float):
    return build_config(apply_overrides(load_document("three-lift"), [f"harness.t_end={t_end}"]))


def test_dynamic_writes_a_row_before_it_makes_the_next_frame(monkeypatch):
    out, seen = io.StringIO(), []
    calls = _on_second_frame(monkeypatch, lambda: seen.append(out.getvalue().splitlines()))
    assert run_dynamic(_three_lift(0.2), csv_out=out).n_frames == len(calls) == 7
    (lines,) = seen
    assert lines[0].startswith("t,theta_true_deg,") and len(lines) == 2
    assert lines[1].startswith("0,0,")


def test_simulate_writes_a_line_before_it_makes_the_next_frame(monkeypatch, tmp_path):
    out, seen = io.StringIO(), []
    monkeypatch.setattr(sys, "stdout", out)
    calls = _on_second_frame(monkeypatch, lambda: seen.append(out.getvalue().splitlines()))
    args = ["simulate", "--config", "three-lift", "--set", "harness.t_end=0.2",
            "--truth-out", str(tmp_path / "truth.ndjson")]
    assert main(args) == 0 and len(calls) == 7
    (lines,) = seen
    assert len(lines) == 2 and json.loads(lines[1])["t"] == 0.0  # the header and frame 0


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dynamic_and_simulate_memory_does_not_grow_with_the_run(tmp_path):
    # Each frame is made, used and dropped before the next one is made, so
    # 300 frames hold no more memory than 30 (a list held ~14 KB per frame).
    def dynamic(t_end):
        config = _three_lift(t_end)
        return _peak_bytes(lambda: run_dynamic(config, csv_out=_Discard()))

    def simulate_cli(t_end):
        args = ["simulate", "--config", "three-lift", "--set", f"harness.t_end={t_end}",
                "--out", str(tmp_path / "frames.ndjson"), "--truth-out", str(tmp_path / "t.ndjson")]
        return _peak_bytes(lambda: main(args))

    for peak in (dynamic, simulate_cli):
        short, long = peak(1.0), peak(10.0)  # 31 and 301 frames
        assert long - short < 100_000, (peak.__name__, short, long)


def test_cli_sweep_and_compare_write_csv(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--trials", "1", "--seed", "3", "--out", str(sweep_csv),
         "--set", "scenario.noise_sigma=0.001"]
    )
    assert code == 0
    lines = sweep_csv.read_text().splitlines()
    assert len(lines) == 1 + len(SWEEP_ANGLES)

    cmp_csv = tmp_path / "cmp.csv"
    assert main(["compare", "--trials", "1", "--out", str(cmp_csv)]) == 0
    assert cmp_csv.read_text().startswith("theta_true_deg,trials,proposed_mae_deg")


def test_cli_seed_is_an_override(tmp_path, capsys):
    # --seed N is scenario.rng_seed=N, applied after every --set.
    def dynamic(*flags):
        out = tmp_path / "dynamic.csv"
        assert main(["dynamic", "--config", "three-lift", "--set", "harness.t_end=1",
                     "--out", str(out), *flags]) == 0
        return out.read_bytes(), capsys.readouterr()

    seeded = dynamic("--seed", "3")
    assert seeded == dynamic("--set", "scenario.rng_seed=3")
    assert seeded == dynamic("--set", "scenario.rng_seed=5", "--seed", "3")
    assert seeded != dynamic("--set", "scenario.rng_seed=5")


def test_cli_estimate_from_file_and_stdin(tmp_path):
    ndjson = tmp_path / "frames.ndjson"
    assert main(
        ["simulate", "--out", str(ndjson), "--set", "harness.t_end=0.2"]
    ) == 0
    out_csv = tmp_path / "est.csv"
    assert main(["estimate", "--in", str(ndjson), "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1 + 7  # header + frames at 30 Hz over [0, 0.2]

    with open(ndjson) as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "pivotgauge.cli", "estimate"],
            stdin=stdin, capture_output=True, text=True, env=cli_env(),
        )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == rows


def test_cli_estimate_writes_each_row_as_its_frame_arrives(tmp_path):
    # cli_env() leaves PYTHONUNBUFFERED unset, so a row reaches the pipe
    # before more input only if estimate flushes it itself.
    ndjson = tmp_path / "frames.ndjson"
    assert main(["simulate", "--out", str(ndjson), "--set", "harness.t_end=0.1"]) == 0
    header, first, *rest = ndjson.read_text().splitlines(keepends=True)
    with subprocess.Popen(
        [sys.executable, "-m", "pivotgauge.cli", "estimate"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    ) as proc:
        proc.stdin.write(header + first)
        proc.stdin.flush()
        rows = []
        # The CSV header row and the first frame's row.
        reader = threading.Thread(target=lambda: rows.extend(proc.stdout.readline() for _ in range(2)))
        reader.start()
        reader.join(timeout=10)
        live = not reader.is_alive()
        if not live:
            proc.kill()  # which ends the reader's wait
            reader.join()
        assert live, "no CSV row within 10 s of its frame"
        assert rows[0].startswith("t,") and rows[1].startswith("0,")
        proc.stdin.writelines(rest)
        proc.stdin.close()
        assert len(proc.stdout.read().splitlines()) == len(rest)
        assert proc.wait(timeout=60) == 0, proc.stderr.read()


def test_cli_truth_output(tmp_path):
    ndjson = tmp_path / "frames.ndjson"
    truth = tmp_path / "truth.ndjson"
    assert main(
        ["simulate", "--out", str(ndjson), "--truth-out", str(truth),
         "--set", "harness.t_end=0.1"]
    ) == 0
    lines = truth.read_text().splitlines()
    assert len(lines) == 1 + 4
    import json

    row = json.loads(lines[1])
    assert set(row) == {"t", "theta", "stick", "contact", "slip"}


def test_cli_simulate_opens_the_truth_file_before_any_frame_is_written(tmp_path, capsys):
    frames = tmp_path / "frames.ndjson"
    truth = tmp_path / "missing" / "truth.ndjson"
    assert main(["simulate", "--out", str(frames), "--truth-out", str(truth),
                 "--set", "harness.t_end=0.1"]) == 1
    assert not frames.exists()
    assert capsys.readouterr().err == (
        f"error: cannot write {truth}: its directory is missing or not writable\n")


def test_cli_simulate_leaves_the_truth_file_when_out_cannot_be_created(tmp_path, capsys):
    truth = tmp_path / "truth.ndjson"
    truth.write_text("old truth\n")
    missing = tmp_path / "missing" / "frames.ndjson"
    for out, error in ((missing, f"cannot write {missing}: its directory is missing"),
                       (tmp_path, f"cannot write {tmp_path}: it is a directory"),
                       ("", "cannot write an empty path")):
        assert main(["simulate", "--out", str(out), "--truth-out", str(truth),
                     "--set", "harness.t_end=0.1"]) == 1
        assert truth.read_text() == "old truth\n"
        assert capsys.readouterr().err.startswith(f"error: {error}")
    assert list(tmp_path.iterdir()) == [truth]


def test_cli_simulate_judges_an_existing_out_file_by_its_own_permission(
        tmp_path, monkeypatch, capsys):
    # As an unprivileged user sees them, /dev/null is writable and /dev is
    # not. The answers are given here, since root may write anywhere.
    access, answers = os.access, {"/dev": False, "/dev/null": True}
    monkeypatch.setattr(os, "access",
                        lambda path, mode: answers.get(str(path), access(path, mode)))
    truth = tmp_path / "truth.ndjson"
    run = ["simulate", "--out", "/dev/null", "--truth-out", str(truth),
           "--set", "harness.t_end=0.1"]
    assert main(run) == 0
    assert len(truth.read_text().splitlines()) == 1 + 4
    truth.write_text("old truth\n")
    answers["/dev/null"] = False
    assert main(run) == 1
    assert capsys.readouterr().err == "error: cannot write /dev/null: it is not writable\n"
    assert truth.read_text() == "old truth\n"


def test_cli_simulate_writes_truth_to_stdout_for_a_dash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run = ["simulate", "--set", "harness.t_end=0.1"]
    assert main([*run, "--out", "frames.ndjson", "--truth-out", "truth.ndjson"]) == 0
    assert main([*run, "--out", "frames-2.ndjson", "--truth-out", "-"]) == 0
    assert capsys.readouterr().out == (tmp_path / "truth.ndjson").read_text()
    assert (tmp_path / "frames-2.ndjson").read_bytes() == (tmp_path / "frames.ndjson").read_bytes()
    assert not (tmp_path / "-").exists()
    # Both streams on stdout would interleave, and in one file overwrite each
    # other: refused before any output.
    truth = (tmp_path / "truth.ndjson").read_bytes()
    stdout, same = "cannot both be stdout", "cannot be the same file"
    for outputs, error in ((["--truth-out", "-"], stdout),
                           (["--out", "-", "--truth-out", "-"], stdout),
                           (["--out", "s.ndjson", "--truth-out", "./s.ndjson"], same),
                           (["--out", "truth.ndjson", "--truth-out", "truth.ndjson"], same)):
        assert main([*run, *outputs]) == 2
        assert capsys.readouterr() == ("", f"error: --out and --truth-out {error}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "frames-2.ndjson", "frames.ndjson", "truth.ndjson"]
    assert (tmp_path / "truth.ndjson").read_bytes() == truth


def test_cli_simulate_refuses_two_names_of_one_file(tmp_path, capsys):
    frames, truth = tmp_path / "f.ndjson", tmp_path / "g.ndjson"
    frames.write_text("old frames\n")
    os.link(frames, truth)
    assert main(["simulate", "--set", "harness.t_end=0.1",
                 "--out", str(frames), "--truth-out", str(truth)]) == 2
    assert capsys.readouterr() == ("", "error: --out and --truth-out cannot be the same file\n")
    assert frames.read_text() == "old frames\n"


def test_cli_simulate_refuses_an_empty_truth_path(tmp_path, capsys):
    frames = tmp_path / "frames.ndjson"
    assert main(["simulate", "--set", "harness.t_end=0.1",
                 "--out", str(frames), "--truth-out", ""]) == 1
    assert capsys.readouterr() == ("", "error: cannot write an empty path\n")
    assert list(tmp_path.iterdir()) == []


def _run_cli(args, stdin=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pivotgauge.cli", *args], stdin=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, env=cli_env())


def test_cli_simulate_refuses_truth_on_the_file_that_stdout_is(tmp_path):
    # /dev/stdout names whatever stdout is: a file or a pipe. Written through
    # two buffers, the frame and truth lines would tear each other.
    run = ["simulate", "--set", "harness.t_end=0.2", "--truth-out", "/dev/stdout"]
    both = tmp_path / "both.out"
    with open(both, "wb") as stdout:
        to_file = _run_cli(run, stdout=stdout)
    to_pipe = _run_cli(run)
    for proc in (to_file, to_pipe):
        assert proc.returncode == 2
        assert proc.stderr == b"error: --out and --truth-out cannot be the same file\n"
    assert both.read_bytes() == to_pipe.stdout == b""


def test_cli_estimate_refuses_to_write_over_its_input(tmp_path):
    stream = tmp_path / "frames.ndjson"
    assert main(["simulate", "--out", str(stream), "--set", "harness.t_end=0.2"]) == 0
    before = stream.read_bytes()
    for args in (["--in", str(stream), "--out", str(stream)], ["--out", str(stream)]):
        with open(stream, "rb") as stdin:
            proc = _run_cli(["estimate", *args], stdin=stdin)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: --in and --out cannot be the same file\n"
        assert stream.read_bytes() == before


def test_a_config_name_too_long_for_a_path_is_not_found(capsys):
    name = "x" * 300
    with pytest.raises(ConfigError, match=f"^config file or preset not found: {name}$"):
        load_document(name)
    assert main(["sweep", "--trials", "1", "--config", name]) == 2
    assert capsys.readouterr() == ("", f"error: config file or preset not found: {name}\n")


def test_cli_estimate_skips_a_line_it_cannot_decode(tmp_path):
    # A byte that is not UTF-8 spoils only its own line, from a file or from
    # stdin decoded strictly (as under a UTF-8 desktop locale).
    ndjson = tmp_path / "frames.ndjson"
    assert main(["simulate", "--out", str(ndjson), "--set", "harness.t_end=0.2"]) == 0
    lines = ndjson.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:20] + b"\xff" + lines[3][20:]
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b"".join(lines))
    env = {**cli_env(), "PYTHONIOENCODING": "utf-8:strict"}
    for args in (["--in", str(bad)], []):
        with open(bad, "rb") as stdin:
            proc = subprocess.run([sys.executable, "-m", "pivotgauge.cli", "estimate", *args],
                                  stdin=stdin, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 6  # seven frames, one skipped
        warnings = proc.stderr.decode().splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning: skipping frame line 4: ")


def test_cli_exit_codes(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"scenario": {"typo_key": 1}}')
    assert main(["sweep", "--config", str(bad_config)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2

    assert main(["dynamic", "--set", "softness.l_xy=NaN"]) == 2
    rejected_csv = tmp_path / "rejected.csv"
    assert main(["dynamic", "--out", str(rejected_csv), "--set", "scenario.stick_radius=9"]) == 2
    assert not rejected_csv.exists()  # refused at load, before any output
    assert main(["sweep", "--trials", "0"]) == 2

    bad_stream = tmp_path / "bad.ndjson"
    bad_stream.write_text("not a header\n")
    assert main(["estimate", "--in", str(bad_stream)]) == 1

    stream = tmp_path / "frames.ndjson"
    assert main(["simulate", "--out", str(stream), "--set", "harness.t_end=0.2"]) == 0
    lines = stream.read_text().splitlines(keepends=True)
    repeated = tmp_path / "repeated.ndjson"
    repeated.write_text("".join(lines[:5] + [lines[4], lines[3]] + lines[5:]))
    out_csv = tmp_path / "est.csv"
    assert main(["estimate", "--in", str(repeated), "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 1 + 7


_OFF_ZERO = "does not cover the run: t=0.0 outside trajectory domain [1.0, 2.0]"
# A refusal of each command that comes before its first output, and its message.
_REFUSED = {
    "simulate": (["--set", "scenario.stick_radius=[[1,3],[2,3]]"],
                 f"error: scenario.stick_radius {_OFF_ZERO}"),
    "estimate": (["--in", "BAD_HEADER"], "error: bad stream header: 'cols'"),
    "sweep": (["--trials", "1", "--set", "scenario.stick_radius=[[1,3],[2,3]]"],
              f"error: scenario.stick_radius {_OFF_ZERO}"),
    "dynamic": (["--set", "scenario.theta_trajectory=[[1,0],[2,5]]"],
                f"error: scenario.theta_trajectory {_OFF_ZERO}"),
    "compare": (["--trials", "1", "--set", "scenario.translation_trajectory=[[1,0,0],[2,0,0]]"],
                f"error: scenario.translation_trajectory {_OFF_ZERO}"),
}


@pytest.mark.parametrize("command", sorted(_REFUSED))
def test_a_refused_run_leaves_its_out_file_as_it_was(command, tmp_path, capsys):
    # An output file is created at its first write: an existing --out keeps
    # its bytes, and a missing one is not created.
    bad_header = tmp_path / "bad.ndjson"
    bad_header.write_text('{"rows": 1}\n')
    flags, message = _REFUSED[command]
    flags = [str(bad_header) if flag == "BAD_HEADER" else flag for flag in flags]
    kept, missing = tmp_path / "kept.out", tmp_path / "missing.out"
    kept.write_bytes(b"kept\r\n")
    for out in (kept, missing):
        assert main([command, *flags, "--out", str(out)]) == (1 if command == "estimate" else 2)
        assert capsys.readouterr().err == message + "\n"
    assert kept.read_bytes() == b"kept\r\n"
    assert not missing.exists()


@pytest.mark.parametrize("command", sorted(_REFUSED))
def test_every_out_is_checked_before_the_run(command, tmp_path, monkeypatch, capsys):
    stream = tmp_path / "frames.ndjson"
    assert main(["simulate", "--out", str(stream), "--set", "harness.t_end=0.1"]) == 0
    calls = []

    def counted(function):
        def counting(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return counting

    for module, name in ((harness, "generate_frame"), (simulate, "generate_frame"),
                         (harness, "read_frames")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    run = [command, "--set", "harness.t_end=0.1", "--set", "harness.trials=1",
           *(["--in", str(stream)] if command == "estimate" else [])]
    out = tmp_path / "missing" / "x"
    assert main([*run, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: its directory is missing or not writable\n")
    assert calls == []
    assert list(tmp_path.iterdir()) == [stream]
    # The same run with a writable --out makes its frames.
    assert main([*run, "--out", str(tmp_path / "x")]) == 0
    assert calls


def test_cli_estimate_takes_no_seed(capsys):
    # estimate replays a stream and simulates nothing, so a seed could change
    # no byte of its output; every command that simulates keeps the flag.
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for command in ("simulate", "sweep", "dynamic", "compare"):
        assert build_parser().parse_args([command, "--seed", "3"]).seed == 3


def test_cli_rejects_unknown_override_key():
    assert main(["sweep", "--trials", "1", "--set", "scenario.bogus=1"]) == 2
