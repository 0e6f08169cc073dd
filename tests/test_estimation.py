from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    InsufficientDataError,
    MarkerGrid,
    RotationEstimate,
    RotationPipeline,
    SegmentationConfig,
    SimScenario,
    SoftnessParams,
    StickRegion,
    UsageError,
    baseline_least_squares,
    detect_contact,
    estimate_frame,
    estimate_rotation,
    filter_step,
    generate_frame,
    generate_trajectory,
    three_lift_scenario,
)
from conftest import hostile_field, reference_baseline_least_squares, reference_detect_contact

CFG = SegmentationConfig()
RIGID = SoftnessParams()
# The filter reads only the estimates; any grid gives a pipeline to own them.
FILTER_GRID = MarkerGrid()


def region_with(mean_angle, state=ContactState.STICK, ratio=1.0):
    return StickRegion(members=frozenset({0, 1, 2}), mean_angle=mean_angle,
                       state=state, stick_ratio=ratio)


def make_estimate(theta, state=ContactState.STICK, ratio=1.0):
    return RotationEstimate(theta=theta, state=state, stick_ratio=ratio)


def test_rigid_mode_negates_mean_angle():
    est = estimate_rotation(region_with(-7.0), RIGID)
    assert est.theta == 7.0
    assert est.state is ContactState.STICK


def test_soft_mode_applies_correction():
    est = estimate_rotation(region_with(-5.0), SoftnessParams(k=0.2))
    assert est.theta == pytest.approx(6.0, abs=1e-12)
    shifted = estimate_rotation(region_with(-5.0), SoftnessParams(k=0.0, l_xy=1.0, l_yx=0.2))
    assert shifted.theta == pytest.approx(5.4, abs=1e-12)


def test_no_contact_forces_zero():
    region = StickRegion(frozenset(), 3.0, ContactState.NO_CONTACT, 0.0)
    est = estimate_rotation(region, RIGID)
    assert est.theta == 0.0
    assert est.state is ContactState.NO_CONTACT


def test_estimator_antisymmetry_exact():
    for mean in (0.33, -7.125, 19.9):
        plus = estimate_rotation(region_with(mean), SoftnessParams(k=0.15))
        minus = estimate_rotation(region_with(-mean), SoftnessParams(k=0.15))
        assert plus.theta == -minus.theta


def rigid_frame(grid, theta_deg, center=(0.0, 0.0), with_dz=True):
    ang = math.radians(theta_deg)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    d = grid.reference_positions - np.asarray(center)
    tang = d @ rot.T - d
    rho = np.hypot(d[:, 0], d[:, 1])
    dz = 0.5 * np.sqrt(np.maximum(0.0, 1.0 - (rho / 8.0) ** 2)) if with_dz else np.zeros_like(rho)
    return Frame(0.0, np.column_stack([tang, dz]))


def test_baseline_recovers_rigid_rotation_and_cor(grid20):
    for theta in (2.0, 9.5, 20.0):
        frame = rigid_frame(grid20, -theta, center=(1.0, -0.5))
        mask = detect_contact(grid20, frame, CFG)
        est = baseline_least_squares(grid20, frame, mask)
        assert est.theta == pytest.approx(theta, abs=1e-9)
        assert est.cor == pytest.approx((1.0, -0.5), abs=1e-9)


def test_baseline_pure_translation_zero_angle(grid20):
    disp = np.zeros((grid20.n_markers, 3))
    disp[:, 0] = 0.8
    rho = np.hypot(*grid20.reference_positions.T)
    disp[:, 2] = 0.5 * np.sqrt(np.maximum(0.0, 1.0 - (rho / 8.0) ** 2))
    mask = detect_contact(grid20, Frame(0.0, disp), CFG)
    est = baseline_least_squares(grid20, Frame(0.0, disp), mask)
    assert abs(est.theta) < 1e-9
    assert est.cor is None


def test_baseline_underestimates_under_incipient_slip(grid20):
    scn = SimScenario(theta_trajectory=15.0, stick_radius=3.0, contact_radius=6.0,
                      decay_exponent=4.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    proposed, mask, _ = estimate_frame(grid20, frame, CFG, RIGID)
    baseline = baseline_least_squares(grid20, frame, mask)
    assert abs(proposed.theta - 15.0) < 0.1
    assert baseline.theta < 15.0 - 1.0


def test_baseline_needs_three_markers(grid20):
    flags = np.zeros(grid20.n_markers, dtype=bool)
    flags[:2] = True
    from pivotgauge import ContactMask

    mask = ContactMask(flags=flags, center_index=0)
    frame = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    with pytest.raises(InsufficientDataError):
        baseline_least_squares(grid20, frame, mask)


def test_baseline_of_a_patch_collapsed_onto_one_point_is_plus_zero():
    # Every flagged marker moves onto (0.5, 0.25): the centred positions are
    # exact zeros, so the fit has no angle. It reports +0.0 and no centre,
    # where atan2 of the signed zero sums could give -0.0 or 180 degrees.
    grid = MarkerGrid(rows=4, cols=4)
    disp = np.zeros((grid.n_markers, 3))
    disp[:, :2] = np.array([0.5, 0.25]) - grid.reference_positions
    disp[:, 2] = 0.5
    mask = ContactMask(np.ones(grid.n_markers, dtype=bool), center_index=5)
    estimate = baseline_least_squares(grid, Frame(0.0, disp), mask)
    assert estimate.theta == 0.0 and math.copysign(1.0, estimate.theta) == 1.0
    assert estimate.cor is None and estimate.state is ContactState.STICK


def test_baseline_refuses_a_mask_of_another_grid():
    grid = MarkerGrid(rows=4, cols=4)
    frame = Frame(0.0, np.zeros((grid.n_markers, 3)))
    mask = ContactMask(np.ones(25, dtype=bool), center_index=20)
    with pytest.raises(UsageError, match=r"^contact mask has shape \(25,\), grid expects \(16,\)$"):
        baseline_least_squares(grid, frame, mask)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(2, 24),
    cols=st.integers(2, 24),
    pitch=st.sampled_from([0.7, 1.0, 1.3]),
    field=st.sampled_from(["press", "light press", "flat dz"]),
    scale=st.sampled_from([0.0, 0.001, 0.05, 0.5, 2.0]),
    threshold=st.sampled_from([0.1, 1e-3, 1e-9]),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    collapsed=st.integers(0, 6),
    reversed_=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_kernels_match_the_numpy_references(rows, cols, pitch, field, scale, threshold,
                                                   zeros, collapsed, reversed_, seed):
    # The same flags, centre and angle bit for bit; the closed-form rotation
    # centre as close to np.linalg.solve's as rounding allows.
    grid = MarkerGrid(rows=rows, cols=cols, pitch=pitch)
    rng = np.random.default_rng(seed)
    if field == "flat dz":  # every marker flagged
        d = rng.normal(0.0, scale, (grid.n_markers, 3))
        d[:, 2] = rng.choice([0.0, 0.01, 0.5])
    else:
        contact = rng.uniform(0.3, 1.0) * grid.half_extent
        scn = SimScenario(grid=grid, contact_radius=contact,
                          stick_radius=rng.uniform(0.1, 1.0) * contact,
                          max_indent=0.01 if field == "light press" else 0.5,
                          theta_trajectory=rng.uniform(-25.0, 25.0),
                          translation_trajectory=tuple(rng.normal(0.0, 0.2, 2)),
                          noise_sigma=scale, rng_seed=seed)
        d = generate_frame(scn, 0.0)[0].displacements
    frame = Frame(0.0, hostile_field(grid, d, rng, zeros, collapsed, reversed_))
    cfg = SegmentationConfig(contact_threshold=threshold)

    mask = detect_contact(grid, frame, cfg)
    expected_mask = reference_detect_contact(grid, frame, cfg)
    assert np.array_equal(mask.flags, expected_mask.flags)
    assert mask.center_index == expected_mask.center_index
    if not mask.contact_detected:
        event("no contact")
        return
    try:
        expected = reference_baseline_least_squares(grid, frame, mask)
    except InsufficientDataError:
        event("too few flagged markers")
        with pytest.raises(InsufficientDataError):
            baseline_least_squares(grid, frame, mask)
        return
    estimate = baseline_least_squares(grid, frame, mask)
    assert estimate.theta.hex() == expected.theta.hex()
    assert (estimate.cor is None) == (expected.cor is None)
    event("no centre" if expected.cor is None else "centre")
    if expected.cor is not None:
        # Both solve (I - R) c = q_bar - R p_bar. Its right side is rounded by
        # ulps of |p_bar| + |q_bar|, and solving divides that by the norm of
        # I - R, |2 sin(alpha / 2)|: at small angles even two correct
        # roundings differ by more than 1e-12 of |c|.
        p = grid.reference_positions[mask.flags]
        q = p + frame.displacements[mask.flags, :2]
        spread = (math.hypot(*p.mean(axis=0)) + math.hypot(*q.mean(axis=0))) / abs(
            2 * math.sin(math.radians(expected.theta) / 2))
        tolerance = 1e-12 * math.hypot(*expected.cor) + 16 * sys.float_info.epsilon * spread
        assert math.dist(estimate.cor, expected.cor) <= tolerance


def test_baseline_requires_contact(grid20):
    frame = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    mask = detect_contact(grid20, frame, CFG)
    with pytest.raises(UsageError):
        baseline_least_squares(grid20, frame, mask)


def test_baseline_and_proposed_agree_on_full_stick(grid20):
    for theta in range(2, 21, 3):
        scn = SimScenario(theta_trajectory=float(theta), noise_sigma=0.0)
        frame, _ = generate_frame(scn, 0.0)
        proposed, mask, _ = estimate_frame(grid20, frame, CFG, RIGID)
        baseline = baseline_least_squares(grid20, frame, mask)
        assert proposed.theta == pytest.approx(theta, abs=1e-9)
        assert baseline.theta == pytest.approx(theta, abs=1e-9)


def test_proposed_beats_baseline_under_incipient_slip_noise(grid20):
    wins = 0
    trials = 100
    for trial in range(trials):
        scn = SimScenario(theta_trajectory=12.0, stick_radius=3.0, contact_radius=6.0,
                          decay_exponent=4.0, noise_sigma=0.005, rng_seed=17)
        frame, _ = generate_frame(scn, 0.0, frame_index=trial)
        proposed, mask, _ = estimate_frame(grid20, frame, CFG, RIGID)
        baseline = baseline_least_squares(grid20, frame, mask)
        wins += abs(proposed.theta - 12.0) < abs(baseline.theta - 12.0)
    assert wins >= 90


def test_soft_mode_consistency(grid20):
    k = 0.2
    scn = SimScenario(theta_trajectory=10.0, softness=SoftnessParams(k=k), noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    rigid_est, _, _ = estimate_frame(grid20, frame, CFG, RIGID)
    soft_est, _, _ = estimate_frame(grid20, frame, CFG, SoftnessParams(k=k))
    assert abs(rigid_est.theta - 10.0) / 10.0 == pytest.approx(k / (1 + k), abs=1e-6)
    assert abs(soft_est.theta - 10.0) < 1e-6


def run_filter(estimates):
    """Filtered thetas of ``estimates`` fed one per second from t = 0."""
    pipeline = RotationPipeline(FILTER_GRID)
    return [filter_step(pipeline, raw, float(t)).theta for t, raw in enumerate(estimates)]


NO_CONTACT = RotationEstimate(theta=0.0, state=ContactState.NO_CONTACT, stick_ratio=0.0)


def test_filter_constant_input_is_fixed_point():
    assert run_filter([make_estimate(5.0)] * 6)[-1] == pytest.approx(5.0, abs=1e-12)


def test_filter_ramp_mean():
    outputs = run_filter(make_estimate(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0))
    assert outputs[-1] == pytest.approx(3.0, abs=1e-12)


def test_filter_window_is_five():
    outputs = run_filter(make_estimate(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert outputs[-1] == pytest.approx(4.0, abs=1e-12)  # mean of 2..6


def test_filter_window_starts_at_first_contact():
    # Contact is read from the estimate's state; frames before it are
    # no-contact estimates (0 by contract) and stay out of the window.
    assert run_filter([NO_CONTACT] * 3 + [make_estimate(6.0)]) == [0.0, 0.0, 0.0, 6.0]


def test_filter_pins_no_contact_output_to_zero():
    # a contact dropout after contact was seen must not leak a nonzero
    # window mean into a no-contact estimate; the dropout's 0 stays in the
    # window, so the next contact frame averages it in
    pipeline = RotationPipeline(FILTER_GRID)
    for t in range(5):
        filter_step(pipeline, make_estimate(8.0), float(t))
    out = filter_step(pipeline, NO_CONTACT, 5.0)
    assert out.theta == 0.0
    assert out.state is ContactState.NO_CONTACT
    assert filter_step(pipeline, make_estimate(8.0), 6.0).theta == pytest.approx(6.4, abs=1e-12)


def test_filter_rejects_out_of_order_timestamps():
    pipeline = RotationPipeline(FILTER_GRID)
    filter_step(pipeline, make_estimate(1.0), 1.0)
    with pytest.raises(UsageError):
        filter_step(pipeline, make_estimate(1.0), 0.5)
    with pytest.raises(UsageError):
        filter_step(pipeline, make_estimate(1.0), 1.0)


def test_pipeline_owns_its_stream_state(grid20):
    pipeline = RotationPipeline(grid20)
    assert (pipeline.cfg, pipeline.softness) == (SegmentationConfig(), SoftnessParams())
    assert (list(pipeline.window), pipeline.last_timestamp, pipeline.last_raw) == ([], None, None)
    raw = make_estimate(3.0)
    filter_step(pipeline, raw, 2.0)
    assert (list(pipeline.window), pipeline.last_timestamp, pipeline.last_raw) == ([3.0], 2.0, raw)
    with pytest.raises(UsageError, match="out-of-order"):
        filter_step(pipeline, make_estimate(4.0), 2.0)
    assert (list(pipeline.window), pipeline.last_raw) == ([3.0], raw)  # a refused frame
    with pytest.raises(TypeError):
        RotationPipeline(grid20, window=[1.0])  # stream state is not a constructor argument


def test_pipeline_zero_frame_reports_no_contact(grid20):
    pipeline = RotationPipeline(grid20)
    out = pipeline.process_frame(Frame(0.0, np.zeros((grid20.n_markers, 3))))
    assert out.state is ContactState.NO_CONTACT
    assert out.theta == 0.0


def test_pipeline_full_stick_prewarmed_exact(grid20):
    scn = SimScenario(theta_trajectory=12.0, noise_sigma=0.0)
    pipeline = RotationPipeline(grid20)
    out = None
    for i, (frame, _) in enumerate(generate_trajectory(scn, 0.0, 0.2, 30.0)):
        out = pipeline.process_frame(frame)
    assert abs(out.theta - 12.0) < 1e-6


def test_pipeline_rejects_out_of_order_frames(grid20):
    scn = SimScenario(theta_trajectory=5.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 1.0)
    pipeline = RotationPipeline(grid20)
    pipeline.process_frame(frame)
    with pytest.raises(UsageError):
        pipeline.process_frame(frame)
    # A non-finite timestamp is refused by Frame, so it can never become
    # the last timestamp and switch the order check off.
    for t in (math.nan, math.inf):
        with pytest.raises(UsageError, match="timestamp must be a finite number"):
            pipeline.process_frame(Frame(t, frame.displacements))
        with pytest.raises(UsageError, match="out-of-order"):
            pipeline.process_frame(frame)


def test_pipeline_tracks_three_lift_trajectory():
    scn = replace(three_lift_scenario(), noise_sigma=0.0)
    pipeline = RotationPipeline(scn.grid)
    trace = []
    for frame, truth in generate_trajectory(scn, 0.0, 12.0, 30.0):
        out = pipeline.process_frame(frame)
        trace.append((frame.timestamp, truth.theta, out.theta, out.state))
    for t0, t1, theta in ((2.0, 3.5, 6.0), (5.0, 6.5, 12.0), (8.0, 9.5, 18.0)):
        plateau = [row for row in trace if t0 <= row[0] <= t1]
        assert plateau
        assert max(abs(row[2] - theta) for row in plateau) < 0.2
    tail_states = {row[3] for row in trace if row[0] >= 11.0}
    assert tail_states == {ContactState.MACRO_SLIP}


def test_pipeline_filter_causality(grid20):
    # outputs depend only on frames seen so far: processing a prefix gives
    # the same outputs as processing the full stream
    scn = SimScenario(theta_trajectory=[[0.0, 0.0], [1.0, 10.0]], noise_sigma=0.005, rng_seed=4)
    frames = [f for f, _ in generate_trajectory(scn, 0.0, 0.5, 30.0)]
    full = RotationPipeline(grid20)
    full_outputs = [full.process_frame(f).theta for f in frames]
    prefix = RotationPipeline(grid20)
    prefix_outputs = [prefix.process_frame(f).theta for f in frames[:8]]
    assert full_outputs[:8] == prefix_outputs
