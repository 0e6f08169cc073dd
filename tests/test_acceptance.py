"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from pivotgauge import (
    Frame,
    MarkerGrid,
    RotationPipeline,
    SegmentationConfig,
    SimScenario,
    SoftnessParams,
    estimate_frame,
    baseline_least_squares,
    generate_frame,
    generate_trajectory,
    half_curl,
)
from pivotgauge.config import build_config
from pivotgauge.harness import SWEEP_ANGLES, run_static_sweep
from conftest import brute_force_feature_angle, brute_force_flags, cli_env, f1_against_mask

CFG = SegmentationConfig()
RIGID = SoftnessParams()

# Established once via the brute-force oracle in criterion 10 (flags and
# feature angles recomputed with plain loops); pinned with a +/-20% band.
GOLDEN_SWEEP_MARE_DEG = 0.0038532456865525


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def full_stick_scenario(theta: float, sigma: float = 0.0, **kw) -> SimScenario:
    return SimScenario(theta_trajectory=theta, noise_sigma=sigma, **kw)


def pipeline_estimate_prewarmed(scenario: SimScenario, n_warm: int = 6) -> float:
    pipeline = RotationPipeline(scenario.grid)
    out = None
    for i in range(n_warm):
        frame, _ = generate_frame(scenario, i / 30.0)
        out = pipeline.process_frame(frame)
    return out.theta


def test_c01_noiseless_exactness():
    start = time.perf_counter()
    worst = 0.0
    for theta in range(2, 21):
        est = pipeline_estimate_prewarmed(full_stick_scenario(float(theta)))
        worst = max(worst, abs(est - theta))
    elapsed = time.perf_counter() - start
    _report(
        "C1 noiseless exactness",
        worst < 1e-6 and elapsed < 1.0,
        f"worst error {worst:.2e} deg, runtime {elapsed:.2f} s",
    )


def test_c02_translation_suppression():
    scenarios = [
        full_stick_scenario(5.0),
        full_stick_scenario(12.0),
        full_stick_scenario(20.0),
        SimScenario(theta_trajectory=15.0, stick_radius=3.0, contact_radius=6.0,
                    decay_exponent=4.0, noise_sigma=0.0),
        SimScenario(theta_trajectory=10.0, softness=SoftnessParams(k=0.2), noise_sigma=0.0),
    ]
    shifts = [(2.0, 0.0), (0.0, -2.0), (1.4, 1.4), (-0.5, 0.3)]
    worst = 0.0
    for scenario in scenarios:
        frame, _ = generate_frame(scenario, 0.0)
        base, _, _ = estimate_frame(scenario.grid, frame, CFG, RIGID)
        for tx, ty in shifts:
            disp = frame.displacements.copy()
            disp[:, 0] += tx
            disp[:, 1] += ty
            moved, _, _ = estimate_frame(scenario.grid, Frame(0.0, disp), CFG, RIGID)
            worst = max(worst, abs(moved.theta - base.theta))
    _report("C2 translation suppression", worst < 1e-9, f"worst shift {worst:.2e} deg")


def test_c03_stick_region_recovery():
    start = time.perf_counter()
    a = 6.5
    worst_clean = 1.0
    worst_noisy = 1.0
    for ratio in (0.4, 0.6, 0.8):
        for theta in (5.0, 10.0, 15.0):
            def scenario(sigma):
                return SimScenario(
                    theta_trajectory=theta, stick_radius=ratio * a, contact_radius=a,
                    cor=(0.5, 0.5), decay_exponent=1.5, noise_sigma=sigma, rng_seed=100,
                )

            scn = scenario(0.0)
            frame, truth = generate_frame(scn, 0.0)
            _, _, region = estimate_frame(scn.grid, frame, CFG, RIGID)
            worst_clean = min(worst_clean, f1_against_mask(region.members, truth.stick_mask))

            noisy = scenario(0.005)
            f1s = []
            for trial in range(50):
                frame, truth = generate_frame(noisy, 0.0, frame_index=trial)
                _, _, region = estimate_frame(noisy.grid, frame, CFG, RIGID)
                f1s.append(f1_against_mask(region.members, truth.stick_mask))
            worst_noisy = min(worst_noisy, float(np.mean(f1s)))
    elapsed = time.perf_counter() - start
    _report(
        "C3 stick-region recovery",
        worst_clean >= 0.95 and worst_noisy >= 0.85 and elapsed < 30.0,
        f"min noiseless F1 {worst_clean:.3f}, min noisy mean F1 {worst_noisy:.3f}, "
        f"runtime {elapsed:.1f} s",
    )


def test_c04_incipient_slip_advantage():
    baseline_means = []
    min_wins = 100
    for theta in (10.0, 14.0, 18.0):
        wins = 0
        b_errors = []
        for trial in range(100):
            scn = SimScenario(
                theta_trajectory=theta, stick_radius=3.0, contact_radius=6.0,
                decay_exponent=4.0, noise_sigma=0.005, rng_seed=31,
            )
            frame, _ = generate_frame(scn, 0.0, frame_index=trial)
            proposed, mask, _ = estimate_frame(scn.grid, frame, CFG, RIGID)
            baseline = baseline_least_squares(scn.grid, frame, mask)
            p_err = abs(proposed.theta - theta)
            b_err = abs(baseline.theta - theta)
            wins += p_err < b_err
            b_errors.append(b_err)
        min_wins = min(min_wins, wins)
        baseline_means.append(float(np.mean(b_errors)))
    monotone = baseline_means[0] < baseline_means[1] < baseline_means[2]
    _report(
        "C4 incipient-slip advantage",
        min_wins >= 90 and monotone,
        f"min wins {min_wins}/100, baseline mean errors "
        + ", ".join(f"{v:.2f}" for v in baseline_means),
    )


def _analytic_increment_half_curl(rho, r_s, gamma, theta0, theta1):
    values = []
    for theta in (theta0, theta1):
        psi = math.radians(-theta) * (r_s / rho) ** gamma
        values.append(math.sin(psi) - 0.5 * gamma * psi * math.cos(psi))
    return math.degrees(values[1] - values[0])


def test_c05_curl_identity_convergence():
    r_s, a, gamma = 2.0, 8.0, 2.0
    errors = []
    for factor in (1, 2, 4):
        pitch = 1.0 / factor
        grid = MarkerGrid(rows=24 * factor, cols=24 * factor, pitch=pitch)
        scn = SimScenario(
            grid=grid, theta_trajectory=[[0.0, 0.0], [1.0, 10.0]], stick_radius=r_s,
            contact_radius=a, decay_exponent=gamma, noise_sigma=0.0,
        )
        f0, _ = generate_frame(scn, 0.80)
        f1, _ = generate_frame(scn, 0.84)
        hc = half_curl(grid, f0, f1)
        rho = np.hypot(*(grid.reference_positions - np.asarray(scn.cor)).T)
        band = (rho >= 3.5) & (rho <= 6.5)
        expected = np.array(
            [_analytic_increment_half_curl(r, r_s, gamma, 8.0, 8.4) for r in rho[band]]
        )
        errors.append(float(np.max(np.abs(hc[band] - expected))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    _report(
        "C5 curl identity convergence",
        min(orders) >= 1.9,
        "orders " + ", ".join(f"{o:.2f}" for o in orders),
    )


def test_c06_soft_object_correction():
    k = 0.2
    scn = SimScenario(theta_trajectory=10.0, softness=SoftnessParams(k=k), noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    rigid_est, _, _ = estimate_frame(scn.grid, frame, CFG, RIGID)
    soft_est, _, _ = estimate_frame(scn.grid, frame, CFG, SoftnessParams(k=k))
    rel_err = abs(rigid_est.theta - 10.0) / 10.0
    ok = abs(rel_err - k / (1 + k)) < 1e-6 and abs(soft_est.theta - 10.0) < 1e-6
    _report(
        "C6 soft-object correction",
        ok,
        f"rigid rel err {rel_err:.8f} vs k/(1+k) {k / (1 + k):.8f}, "
        f"soft err {abs(soft_est.theta - 10.0):.2e} deg",
    )


def test_c07_macro_slip_detection():
    flips_ok = True
    for r_s in (0.4, 0.9):
        scn = SimScenario(
            theta_trajectory=21.0, stick_radius=r_s, contact_radius=8.0,
            cor=(0.5, 0.5), decay_exponent=1.5, noise_sigma=0.0,
        )
        frame, _ = generate_frame(scn, 0.0)
        _, _, region = estimate_frame(scn.grid, frame, CFG, RIGID)
        flips_ok &= region.state.value == "MacroSlip" and len(region.members) < 3

    false_positives = 0
    for trial in range(100):
        theta = 2.0 + 18.0 * trial / 99.0
        frame, _ = generate_frame(full_stick_scenario(theta), 0.0)
        _, _, region = estimate_frame(MarkerGrid(), frame, CFG, RIGID)
        false_positives += region.state.value == "MacroSlip"
    _report(
        "C7 macro-slip detection",
        flips_ok and false_positives == 0,
        f"flips ok {flips_ok}, false positives {false_positives}/100",
    )


def measure_frame_latency(config, n_frames: int = 1000) -> dict[str, float]:
    """Wall-clock per-frame pipeline latency over a synthetic stream, seconds."""
    scenario = replace(config.scenario, theta_trajectory=10.0)
    frames = [
        generate_frame(scenario, i / config.harness.rate_hz, frame_index=i)[0]
        for i in range(n_frames)
    ]
    pipeline = RotationPipeline(config.grid, config.segmentation, config.softness)
    samples = []
    for frame in frames:
        start = time.perf_counter()
        pipeline.process_frame(frame)
        samples.append(time.perf_counter() - start)
    arr = np.sort(np.asarray(samples))
    return {
        "mean": float(arr.mean()),
        "p99": float(arr[min(len(arr) - 1, int(math.ceil(0.99 * len(arr))) - 1)]),
        "max": float(arr[-1]),
    }


def test_c08_real_time_budget():
    config = build_config({})
    stats = measure_frame_latency(config, n_frames=1000)
    _report(
        "C8 real-time budget",
        stats["p99"] < 0.033,
        f"p99 {stats['p99'] * 1e3:.2f} ms, mean {stats['mean'] * 1e3:.2f} ms",
    )


def test_c09_determinism_round_trip(tmp_path):
    def run(args, **kw):
        proc = subprocess.run(
            [sys.executable, "-m", "pivotgauge.cli", *args],
            capture_output=True, text=True, env=cli_env(), **kw,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    frames_a = tmp_path / "a.ndjson"
    frames_b = tmp_path / "b.ndjson"
    run(["simulate", "--config", "three-lift", "--out", str(frames_a)])
    run(["simulate", "--config", "three-lift", "--out", str(frames_b)])
    identical_streams = frames_a.read_bytes() == frames_b.read_bytes()

    est_a = tmp_path / "a.csv"
    est_b = tmp_path / "b.csv"
    run(["estimate", "--config", "three-lift", "--in", str(frames_a), "--out", str(est_a)])
    run(["estimate", "--config", "three-lift", "--in", str(frames_b), "--out", str(est_b)])
    identical_estimates = est_a.read_bytes() == est_b.read_bytes()

    dyn = tmp_path / "dyn.csv"
    run(["dynamic", "--config", "three-lift", "--out", str(dyn)])
    dyn_rows = dyn.read_text().splitlines()[1:]
    est_rows = est_a.read_text().splitlines()[1:]
    match = len(dyn_rows) == len(est_rows)
    if match:
        for dyn_row, est_row in zip(dyn_rows, est_rows):
            d = dyn_row.split(",")
            if est_row != ",".join([d[0], d[2], d[3], d[4], d[5]]):
                match = False
                break
    _report(
        "C9 determinism and round trip",
        identical_streams and identical_estimates and match,
        f"streams identical {identical_streams}, estimates identical {identical_estimates}, "
        f"replay matches dynamic {match}",
    )


def test_c10_static_sweep_regression():
    config = build_config({})
    trials = config.harness.trials
    assert trials == 25

    oracle_errors = []
    for angle_pos, theta in enumerate(SWEEP_ANGLES):
        scn = replace(config.scenario, theta_trajectory=float(theta))
        for trial in range(trials):
            frame, _ = generate_frame(scn, 0.0, frame_index=angle_pos * trials + trial)
            flags = brute_force_flags(frame, config.segmentation.normal_filter_ratio)
            angles = [
                brute_force_feature_angle(config.grid, frame, i)
                for i in np.flatnonzero(flags)
            ]
            oracle_errors.append(abs(-sum(angles) / len(angles) - theta))
    oracle_mare = float(np.mean(oracle_errors))

    reports = run_static_sweep(config)
    sweep_mare = reports["proposed"].mare
    tol = 0.2 * GOLDEN_SWEEP_MARE_DEG
    ok = abs(sweep_mare - GOLDEN_SWEEP_MARE_DEG) <= tol and abs(
        oracle_mare - GOLDEN_SWEEP_MARE_DEG
    ) <= tol
    _report(
        "C10 static sweep regression",
        ok,
        f"sweep MARE {sweep_mare:.6f}, oracle MARE {oracle_mare:.6f}, "
        f"golden {GOLDEN_SWEEP_MARE_DEG:.6f} +/-20%",
    )
