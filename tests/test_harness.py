from __future__ import annotations

import io
import math
import subprocess
import sys

import numpy as np
import pytest

from pivotgauge import UsageError, estimation, harness, load_config
from pivotgauge.cli import main
from pivotgauge.config import build_config
from pivotgauge.harness import (
    SWEEP_ANGLES,
    compare_estimators,
    estimate_from_stream,
    run_dynamic,
    run_static_sweep,
)
from conftest import cli_env, reference_grow_stick_region, reference_line_feature_angles


def config_with(scenario_overrides=None, harness_overrides=None):
    doc = {"scenario": dict(scenario_overrides or {}), "harness": dict(harness_overrides or {})}
    return build_config(doc)


def test_sweep_noiseless_full_stick_exact():
    config = config_with({"noise_sigma": 0.0})
    reports = run_static_sweep(config, trials=2)
    assert reports["proposed"].mare < 1e-6
    assert reports["baseline"].mare < 1e-6
    assert all(row.trials == 2 for row in reports["proposed"].rows)
    assert [row.theta_true for row in reports["proposed"].rows] == list(map(float, SWEEP_ANGLES))


def test_sweep_csv_deterministic():
    config = config_with({"noise_sigma": 0.005, "rng_seed": 5})
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        run_static_sweep(config, trials=1, csv_out=buf)
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
    config = load_config(None)
    for run in (run_static_sweep, compare_estimators):
        indices.clear()
        run(config, trials=2)
        assert len(indices) == 38 == 2 * len(SWEEP_ANGLES)
        assert sorted(indices) == list(range(38))


def test_sweep_api_trials_must_be_whole():
    config = load_config(None)
    for run in (run_static_sweep, compare_estimators):
        with pytest.raises(UsageError, match="trials must be a whole number, got 2.5"):
            run(config, trials=2.5)
    as_float, as_int = io.StringIO(), io.StringIO()
    report = run_static_sweep(config, trials=3.0, csv_out=as_float)
    assert report == run_static_sweep(config, trials=3, csv_out=as_int)
    assert as_float.getvalue() == as_int.getvalue()
    assert all(type(row.trials) is int for row in report["proposed"].rows)


def test_outputs_match_reference_kernels(monkeypatch):
    # Every CSV byte must survive a swap back to the reference line-feature
    # kernel and the reference growth loop.
    compare_settings = config_with({"stick_radius": 3.0, "contact_radius": 6.0})
    runs = (
        lambda out: run_dynamic(load_config("three-lift"), csv_out=out),
        lambda out: run_static_sweep(compare_settings, trials=3, csv_out=out),
        lambda out: compare_estimators(compare_settings, trials=3, csv_out=out),
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
        }
    )
    reports = run_static_sweep(config, trials=10)
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


def test_compare_full_stick_win_rate_near_half():
    config = config_with({"noise_sigma": 0.005, "rng_seed": 21})
    report = compare_estimators(config, trials=20)
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
        }
    )
    report = compare_estimators(config, trials=10)
    high_angle_rows = [row for row in report.rows if row.theta_true >= 10.0]
    for row in high_angle_rows:
        assert row.win_rate >= 0.9


def test_compare_reports_insufficient_baseline_data():
    config = config_with({"contact_radius": 0.8, "cor": [0.5, 0.5], "noise_sigma": 0.0})
    report = compare_estimators(config, trials=2)
    for row in report.rows:
        assert row.baseline_failures == 2
        assert math.isnan(row.baseline_mae)


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
