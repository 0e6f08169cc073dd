from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    FrameResult,
    InsufficientDataError,
    LineFeatureAngles,
    MarkerGrid,
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
    grow_stick_region,
    line_feature_angles,
    three_lift_scenario,
)
from pivotgauge.segmentation import NO_CONTACT_REGION
from conftest import hostile_field, reference_baseline_least_squares, reference_detect_contact

CFG = SegmentationConfig()
RIGID = SoftnessParams()
# The filter reads only the results' angles and masks; any grid gives a pipeline to own them.
FILTER_GRID = MarkerGrid()
FILTER_FLAGS = np.ones(FILTER_GRID.n_markers, dtype=bool)


def region_with(mean_angle, state=ContactState.STICK, ratio=1.0):
    return StickRegion(members=[0, 1, 2], mean_angle=mean_angle,
                       state=state, stick_ratio=ratio)


def frame_result(theta, state=ContactState.STICK, ratio=1.0):
    """A frame's result on FILTER_GRID whose raw angle is ``theta``."""
    if state is ContactState.NO_CONTACT:
        return FrameResult(theta, ContactMask(~FILTER_FLAGS), None, NO_CONTACT_REGION)
    angles = LineFeatureAngles(np.full(FILTER_GRID.n_markers, -theta), FILTER_FLAGS)
    region = StickRegion(np.arange(FILTER_GRID.n_markers), -theta, state, ratio)
    return FrameResult(theta, ContactMask(FILTER_FLAGS, center_index=0), angles, region)


def test_rigid_mode_negates_mean_angle():
    theta = estimate_rotation(region_with(-7.0), RIGID)
    assert theta == 7.0 and type(theta) is float


def test_soft_mode_applies_correction():
    soft = estimate_rotation(region_with(-5.0), SoftnessParams(k=0.2))
    assert soft == pytest.approx(6.0, abs=1e-12)
    shifted = estimate_rotation(region_with(-5.0), SoftnessParams(k=0.0, l_xy=1.0, l_yx=0.2))
    assert shifted == pytest.approx(5.4, abs=1e-12)


def test_no_contact_forces_zero():
    # A NoContact region's mean is 0; the soft offset (l_xy - l_yx) / 2 would not be.
    assert estimate_rotation(NO_CONTACT_REGION, RIGID) == 0.0
    assert estimate_rotation(NO_CONTACT_REGION, SoftnessParams(k=0.2, l_xy=1.0)) == 0.0


def test_estimator_antisymmetry_exact():
    for mean in (0.33, -7.125, 19.9):
        plus = estimate_rotation(region_with(mean), SoftnessParams(k=0.15))
        minus = estimate_rotation(region_with(-mean), SoftnessParams(k=0.15))
        assert plus == -minus


def rigid_frame(grid, theta_deg, center=(0.0, 0.0), with_dz=True):
    ang = math.radians(theta_deg)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    d = grid.reference_positions - np.asarray(center)
    tang = d @ rot.T - d
    rho = np.hypot(d[:, 0], d[:, 1])
    dz = 0.5 * np.sqrt(np.maximum(0.0, 1.0 - (rho / 8.0) ** 2)) if with_dz else np.zeros_like(rho)
    return Frame(0.0, np.column_stack([tang, dz]))


def test_baseline_recovers_rigid_rotation(grid20):
    for theta in (2.0, 9.5, 20.0):
        frame = rigid_frame(grid20, -theta, center=(1.0, -0.5))
        mask = detect_contact(grid20, frame, CFG)
        assert baseline_least_squares(grid20, frame, mask) == pytest.approx(theta, abs=1e-9)


def test_baseline_pure_translation_zero_angle(grid20):
    disp = np.zeros((grid20.n_markers, 3))
    disp[:, 0] = 0.8
    rho = np.hypot(*grid20.reference_positions.T)
    disp[:, 2] = 0.5 * np.sqrt(np.maximum(0.0, 1.0 - (rho / 8.0) ** 2))
    mask = detect_contact(grid20, Frame(0.0, disp), CFG)
    assert abs(baseline_least_squares(grid20, Frame(0.0, disp), mask)) < 1e-9


def test_baseline_underestimates_under_incipient_slip(grid20):
    scn = SimScenario(theta_trajectory=15.0, stick_radius=3.0, contact_radius=6.0,
                      decay_exponent=4.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    result = estimate_frame(grid20, frame, CFG, RIGID)
    baseline = baseline_least_squares(grid20, frame, result.mask)
    assert abs(result.theta - 15.0) < 0.1
    assert baseline < 15.0 - 1.0


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
    # exact zeros, so the fit has no angle. It reports +0.0, where atan2 of
    # the signed zero sums could give -0.0 or 180 degrees.
    grid = MarkerGrid(rows=4, cols=4)
    disp = np.zeros((grid.n_markers, 3))
    disp[:, :2] = np.array([0.5, 0.25]) - grid.reference_positions
    disp[:, 2] = 0.5
    mask = ContactMask(np.ones(grid.n_markers, dtype=bool), center_index=5)
    theta = baseline_least_squares(grid, Frame(0.0, disp), mask)
    assert theta == 0.0 and math.copysign(1.0, theta) == 1.0


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
    # The same flags, centre and angle bit for bit.
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
    theta = baseline_least_squares(grid, frame, mask)
    assert theta.hex() == expected.hex()


def test_baseline_requires_contact(grid20):
    frame = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    mask = detect_contact(grid20, frame, CFG)
    with pytest.raises(UsageError):
        baseline_least_squares(grid20, frame, mask)


def test_baseline_and_proposed_agree_on_full_stick(grid20):
    for theta in range(2, 21, 3):
        scn = SimScenario(theta_trajectory=float(theta), noise_sigma=0.0)
        frame, _ = generate_frame(scn, 0.0)
        result = estimate_frame(grid20, frame, CFG, RIGID)
        baseline = baseline_least_squares(grid20, frame, result.mask)
        assert result.theta == pytest.approx(theta, abs=1e-9)
        assert baseline == pytest.approx(theta, abs=1e-9)


def exactness_bound(pitch: float, rho: float) -> float:
    """The contact radius from which a full stick's estimate is exact: every
    flagged marker lies within sqrt((1 - rho^2) a^2 + rho^2 p^2 / 2) of the
    centre of rotation, and with its neighbours within that plus p <= a, every
    segment it averages turns rigidly by the object's angle."""
    return pitch * (1.0 + math.sqrt(1.0 - rho * rho * (1.0 - rho * rho / 2.0))) / (rho * rho)


@settings(max_examples=150, deadline=None)
@given(
    pitch=st.floats(0.3, 2.0),
    rho=st.floats(0.2, 0.9),
    over=st.floats(1.0, 1.3),
    extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    origin=st.one_of(st.none(), st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))),
    place=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    theta=st.floats(-20.0, 20.0),
    translation=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    max_indent=st.floats(0.6, 2.0),
)
def test_a_full_stick_at_or_above_the_exactness_bound_is_estimated_exactly(
        pitch, rho, over, extra, origin, place, theta, translation, max_indent):
    # At or above the bound, and wide enough that a patch centred on a corner
    # of the grid still flags 3 markers (r_f >= 1.5 p), so that it is no MacroSlip.
    a = over * max(exactness_bound(pitch, rho), 1.5 * pitch / math.sqrt(1.0 - rho * rho))
    span = math.ceil(2.0 * a / pitch)
    grid = MarkerGrid(rows=span + 1 + extra[0], cols=span + 1 + extra[1], pitch=pitch,
                      origin=origin)
    low, high = grid.reference_positions[0], grid.reference_positions[-1]
    cor = tuple(low + np.asarray(place) * (high - low))  # anywhere in the marker span
    # The centre presses in at least rho * 0.94 * max_indent > 0.1, the contact threshold.
    scenario = SimScenario(grid=grid, contact_radius=a, max_indent=max_indent, cor=cor,
                           theta_trajectory=theta, translation_trajectory=translation,
                           noise_sigma=0.0)
    frame, _truth = generate_frame(scenario, 0.0)
    result = estimate_frame(grid, frame, SegmentationConfig(normal_filter_ratio=rho), RIGID)
    assert result.region.state is ContactState.STICK
    assert result.region.members.tolist() == np.flatnonzero(result.mask.flags).tolist()
    assert abs(result.theta - theta) <= 1e-9


def test_a_full_stick_below_the_exactness_bound_is_biased():
    # At 3 pitches (the bound is 7.54 at rho = 0.5), segments of the flagged
    # markers reach out of the patch, where the field is tapered.
    assert exactness_bound(1.0, CFG.normal_filter_ratio) > 7.5
    errors = []
    for theta in (5.0, 10.0, 20.0):
        scenario = SimScenario(contact_radius=3.0, theta_trajectory=theta, noise_sigma=0.0)
        frame, _truth = generate_frame(scenario, 0.0)
        errors.append(abs(estimate_frame(scenario.grid, frame, CFG, RIGID).theta - theta))
    assert max(errors) > 0.1


def test_frame_result_has_angles_exactly_when_contact_was_detected(grid20):
    frame, _ = generate_frame(SimScenario(theta_trajectory=10.0, noise_sigma=0.0), 0.0)
    result = estimate_frame(grid20, frame, CFG, RIGID)
    assert result.mask.contact_detected
    assert result.angles.angles.tobytes() == line_feature_angles(grid20, frame).angles.tobytes()
    region = grow_stick_region(grid20, result.mask, result.angles, CFG)
    assert result.region.members.tolist() == region.members.tolist()
    assert (result.region.mean_angle, result.region.state) == (region.mean_angle, region.state)
    assert result.region.stick_ratio == region.stick_ratio
    for angles, mask in ((None, result.mask), (result.angles, NO_CONTACT.mask)):
        with pytest.raises(UsageError, match="angles exactly when contact was detected"):
            FrameResult(result.theta, mask, angles, result.region)


def test_proposed_beats_baseline_under_incipient_slip_noise(grid20):
    wins = 0
    trials = 100
    for trial in range(trials):
        scn = SimScenario(theta_trajectory=12.0, stick_radius=3.0, contact_radius=6.0,
                          decay_exponent=4.0, noise_sigma=0.005, rng_seed=17)
        frame, _ = generate_frame(scn, 0.0, frame_index=trial)
        result = estimate_frame(grid20, frame, CFG, RIGID)
        baseline = baseline_least_squares(grid20, frame, result.mask)
        wins += abs(result.theta - 12.0) < abs(baseline - 12.0)
    assert wins >= 90


def test_soft_mode_consistency(grid20):
    k = 0.2
    scn = SimScenario(theta_trajectory=10.0, softness=SoftnessParams(k=k), noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    rigid = estimate_frame(grid20, frame, CFG, RIGID).theta
    soft = estimate_frame(grid20, frame, CFG, SoftnessParams(k=k)).theta
    assert abs(rigid - 10.0) / 10.0 == pytest.approx(k / (1 + k), abs=1e-6)
    assert abs(soft - 10.0) < 1e-6


def run_filter(results):
    """Filtered thetas of ``results`` fed one per second from t = 0."""
    pipeline = RotationPipeline(FILTER_GRID)
    return [filter_step(pipeline, result, float(t)) for t, result in enumerate(results)]


NO_CONTACT = frame_result(0.0, ContactState.NO_CONTACT, 0.0)


def test_filter_constant_input_is_fixed_point():
    assert run_filter([frame_result(5.0)] * 6)[-1] == pytest.approx(5.0, abs=1e-12)


def test_filter_ramp_mean():
    outputs = run_filter(frame_result(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0))
    assert outputs[-1] == pytest.approx(3.0, abs=1e-12)


def test_filter_window_is_five():
    outputs = run_filter(frame_result(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert outputs[-1] == pytest.approx(4.0, abs=1e-12)  # mean of 2..6


def test_filter_window_starts_at_first_contact():
    # Contact is read from the mask's centre; frames before it are
    # no-contact estimates (0 by contract) and stay out of the window.
    assert run_filter([NO_CONTACT] * 3 + [frame_result(6.0)]) == [0.0, 0.0, 0.0, 6.0]


def test_filter_pins_no_contact_output_to_zero():
    # a contact dropout after contact was seen must not leak a nonzero
    # window mean into a no-contact estimate; the dropout's 0 stays in the
    # window, so the next contact frame averages it in
    pipeline = RotationPipeline(FILTER_GRID)
    for t in range(5):
        filter_step(pipeline, frame_result(8.0), float(t))
    assert filter_step(pipeline, NO_CONTACT, 5.0) == 0.0
    assert filter_step(pipeline, frame_result(8.0), 6.0) == pytest.approx(6.4, abs=1e-12)


def test_filter_rejects_out_of_order_timestamps():
    pipeline = RotationPipeline(FILTER_GRID)
    filter_step(pipeline, frame_result(1.0), 1.0)
    with pytest.raises(UsageError):
        filter_step(pipeline, frame_result(1.0), 0.5)
    with pytest.raises(UsageError):
        filter_step(pipeline, frame_result(1.0), 1.0)


def test_filter_reads_its_timestamp_by_the_number_rule():
    pipeline = RotationPipeline(FILTER_GRID)
    filter_step(pipeline, frame_result(1.0), 5.0)
    for t in (math.nan, math.inf, True, "3", None):
        with pytest.raises(UsageError, match="^frame timestamp must be a finite number"):
            filter_step(pipeline, frame_result(1.0), t)
    # A refused time never becomes the last one, so the order check stays on.
    with pytest.raises(UsageError, match="out-of-order"):
        filter_step(pipeline, frame_result(1.0), 1.0)
    filter_step(pipeline, frame_result(1.0), np.float32(6.0))
    assert pipeline.last_timestamp == 6.0 and type(pipeline.last_timestamp) is float


def test_pipeline_owns_its_stream_state(grid20):
    pipeline = RotationPipeline(grid20)
    assert (pipeline.cfg, pipeline.softness) == (SegmentationConfig(), SoftnessParams())
    assert (list(pipeline.window), pipeline.last_timestamp, pipeline.last) == ([], None, None)
    result = frame_result(3.0)
    filter_step(pipeline, result, 2.0)
    assert (list(pipeline.window), pipeline.last_timestamp, pipeline.last) == ([3.0], 2.0, result)
    with pytest.raises(UsageError, match="out-of-order"):
        filter_step(pipeline, frame_result(4.0), 2.0)
    assert (list(pipeline.window), pipeline.last) == ([3.0], result)  # a refused frame
    with pytest.raises(TypeError):
        RotationPipeline(grid20, window=[1.0])  # stream state is not a constructor argument


def test_pipeline_zero_frame_reports_no_contact(grid20):
    pipeline = RotationPipeline(grid20)
    assert pipeline.process_frame(Frame(0.0, np.zeros((grid20.n_markers, 3)))) == 0.0
    assert pipeline.last.region.state is ContactState.NO_CONTACT


def test_pipeline_full_stick_prewarmed_exact(grid20):
    scn = SimScenario(theta_trajectory=12.0, noise_sigma=0.0)
    pipeline = RotationPipeline(grid20)
    out = None
    for i, (frame, _) in enumerate(generate_trajectory(scn, 0.0, 0.2, 30.0)):
        out = pipeline.process_frame(frame)
    assert abs(out - 12.0) < 1e-6


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
        theta = pipeline.process_frame(frame)
        trace.append((frame.timestamp, truth.theta, theta, pipeline.last.region.state))
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
    full_outputs = [full.process_frame(f) for f in frames]
    prefix = RotationPipeline(grid20)
    prefix_outputs = [prefix.process_frame(f) for f in frames[:8]]
    assert full_outputs[:8] == prefix_outputs
