from __future__ import annotations

import io
import math
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pivotgauge import ConfigError, UsageError, estimation, harness, load_config
from pivotgauge.cli import main
from pivotgauge.config import (
    HarnessConfig,
    apply_overrides,
    build_config,
    load_document,
    trial_count,
)
from pivotgauge.core import MAX_FRAMES
from pivotgauge.harness import (
    SWEEP_ANGLES,
    compare_estimators,
    estimate_from_stream,
    run_dynamic,
    run_static_sweep,
)
from pivotgauge.segmentation import detect_contact
from pivotgauge.simulate import generate_frame, generate_trajectory
from pivotgauge.streams import write_frame, write_header
from conftest import cli_env, reference_grow_stick_region, reference_line_feature_angles


def config_with(scenario_overrides=None, harness_overrides=None):
    doc = {"scenario": dict(scenario_overrides or {}), "harness": dict(harness_overrides or {})}
    return build_config(doc)


def test_sweep_noiseless_full_stick_exact():
    config = config_with({"noise_sigma": 0.0}, {"trials": 2})
    reports = run_static_sweep(config)
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
        run(config)
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
    reports = run_static_sweep(config)
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
    estimate_buf = io.StringIO()
    with open(ndjson) as stream:
        n = estimate_from_stream(iter(stream), config, estimate_buf)
    assert n == 361

    dynamic_rows = dynamic_buf.getvalue().splitlines()[1:]
    estimate_rows = estimate_buf.getvalue().splitlines()[1:]
    assert len(dynamic_rows) == len(estimate_rows)
    for dyn, est in zip(dynamic_rows, estimate_rows):
        d = dyn.split(",")
        assert est == ",".join([d[0], d[2], d[3], d[4], d[5]])


def test_stream_replay_empty_after_header():
    config = load_config(None)
    out = io.StringIO()
    n = estimate_from_stream(
        iter(['{"rows": 20, "cols": 20, "pitch": 1.0, "origin": [-9.5, -9.5]}']), config, out
    )
    assert n == 0
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
    report = compare_estimators(config)
    assert 0.25 <= report.overall_win_rate <= 0.75
    for row in report.rows:
        assert row.baseline_failures == 0
        assert row.proposed_mae < 0.5 and row.baseline_mae < 0.5


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
    report = compare_estimators(config)
    high_angle_rows = [row for row in report.rows if row.theta_true >= 10.0]
    for row in high_angle_rows:
        assert row.win_rate >= 0.9


def test_compare_reports_insufficient_baseline_data():
    config = config_with(
        {"contact_radius": 0.8, "cor": [0.5, 0.5], "noise_sigma": 0.0}, {"trials": 2}
    )
    report = compare_estimators(config)
    for row in report.rows:
        assert row.baseline_failures == 2
        assert math.isnan(row.baseline_mae)


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

    reports = run_static_sweep(config)
    ours, theirs = reports["proposed"].rows, reports["baseline"].rows
    assert (ours[0].mean_abs_error, ours[0].std_error, ours[0].failures) == (2.0, 1.0, 1)
    assert (theirs[0].mean_abs_error, theirs[0].std_error, theirs[0].failures) == (1.25, 0.75, 1)
    assert math.isnan(theirs[1].mean_abs_error) and math.isnan(theirs[1].std_error)
    assert theirs[1].failures == 3
    assert [row.failures for row in ours[1:]] == [0] * (len(SWEEP_ANGLES) - 1)
    assert reports["proposed"].mare == np.mean(proposed[~np.isnan(proposed)])
    assert reports["baseline"].mare == np.mean(baseline[~np.isnan(baseline)])

    report = compare_estimators(config)
    assert report.rows[0].proposed_mae == 2.0 and report.rows[0].baseline_mae == 1.25
    assert report.rows[0].win_rate == 0.0  # 1 < 0.5 fails; the other two are not measured
    assert math.isnan(report.rows[1].win_rate) and report.rows[1].baseline_failures == 3
    assert report.rows[2].win_rate == 2 / 3
    assert [row.win_rate for row in report.rows[3:]] == [1.0] * (len(SWEEP_ANGLES) - 3)
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
    # Frames and truths come from one walk, so a trajectory that can be
    # walked only once gives the same rows as a list.
    config = build_config(apply_overrides(load_document("three-lift"), ["harness.t_end=4"]))
    from_list = io.StringIO()
    result = run_dynamic(config, csv_out=from_list)
    generate = harness.generate_trajectory
    monkeypatch.setattr(harness, "generate_trajectory", lambda *args: iter(generate(*args)))
    from_iterator = io.StringIO()
    assert run_dynamic(config, csv_out=from_iterator) == result
    assert from_iterator.getvalue() == from_list.getvalue()
    assert result.n_frames == 121


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


def test_cli_rejects_unknown_override_key():
    assert main(["sweep", "--trials", "1", "--set", "scenario.bogus=1"]) == 2
