from __future__ import annotations

import gc
import io
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotgauge import (
    Frame,
    MarkerGrid,
    PiecewiseLinear,
    SimScenario,
    SoftnessParams,
    UsageError,
    generate_frame,
    generate_trajectory,
    half_curl,
    three_lift_scenario,
)
from pivotgauge import simulate
from pivotgauge.cli import main
from pivotgauge.core import MAX_DISPLACEMENT_MM, MAX_FRAMES, MAX_GRID_MM, MIN_PITCH_MM
from pivotgauge.simulate import GroundTruth
from pivotgauge.streams import write_frame, write_truth

from conftest import (
    analytic_local_rotation,
    finite_steps_and_slopes,
    reference_noiseless_field,
    reference_write_truth,
)


def annulus(theta=10.0, r_s=4.0, a=6.0, gamma=2.0, k=0.0, sigma=0.0, cor=(0.0, 0.0), seed=0):
    return SimScenario(
        theta_trajectory=theta,
        stick_radius=r_s,
        contact_radius=a,
        decay_exponent=gamma,
        cor=cor,
        softness=SoftnessParams(k=k),
        noise_sigma=sigma,
        rng_seed=seed,
    )


def test_no_motion_gives_zero_tangential_and_hertz_normal():
    scn = annulus(theta=0.0, a=6.0)
    frame, _ = generate_frame(scn, 0.0)
    assert np.all(frame.displacements[:, :2] == 0.0)
    rho = np.hypot(*(scn.grid.reference_positions - np.asarray(scn.cor)).T)
    expected = 0.5 * np.sqrt(np.maximum(0.0, 1.0 - (rho / 6.0) ** 2))
    assert np.allclose(frame.displacements[:, 2], expected, atol=1e-12)
    outside = rho > 6.0
    assert np.all(frame.displacements[outside, 2] == 0.0)


def test_stick_zone_displacement_matches_chord_formula():
    # marker (2.5, 0.5) sits at rho=2 from cor=(0.5, 0.5), inside r_s
    scn = annulus(theta=10.0, r_s=4.0, a=6.0, cor=(0.5, 0.5))
    frame, _ = generate_frame(scn, 0.0)
    idx = 10 * scn.grid.cols + 12
    pos = scn.grid.reference_positions[idx]
    assert pos[0] == 2.5 and pos[1] == 0.5
    tang = frame.displacements[idx, :2]
    assert math.hypot(*tang) == pytest.approx(2 * 2.0 * math.sin(math.radians(5.0)), abs=1e-12)
    # independent oracle: rotate the offset with an explicit matrix
    ang = math.radians(-10.0)
    d = np.array([2.0, 0.0])
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    assert np.allclose(tang, rot @ d - d, atol=1e-12)


def test_stick_mask_count_matches_lattice_scan():
    scn = annulus(theta=5.0, r_s=4.0, a=6.0, cor=(0.0, 0.0))
    _, truth = generate_frame(scn, 0.0)
    count = 0
    for i in range(20):
        for j in range(20):
            x, y = -9.5 + j, -9.5 + i
            if math.hypot(x, y) <= 4.0:
                count += 1
    assert truth.stick_mask.sum() == count
    assert count == 52


def test_slip_field_rederivation_rigid_object():
    scn = annulus(theta=12.0, r_s=3.0, a=6.0)
    frame, truth = generate_frame(scn, 0.0)
    d = scn.grid.reference_positions - np.asarray(scn.cor)
    ang = math.radians(-12.0)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    object_disp = d @ rot.T - d
    rederived = object_disp - frame.displacements[:, :2]
    assert np.max(np.abs(rederived - truth.slip_field)) < 1e-9


def test_slip_field_rederivation_soft_object():
    scn = annulus(theta=12.0, r_s=3.0, a=6.0, k=0.25)
    frame, truth = generate_frame(scn, 0.0)
    d = scn.grid.reference_positions - np.asarray(scn.cor)
    ang = math.radians(-12.0 / 1.25)  # surface-apparent angle for a soft object
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    rederived = (d @ rot.T - d) - frame.displacements[:, :2]
    assert np.max(np.abs(rederived - truth.slip_field)) < 1e-9


def test_stick_zone_is_exactly_slip_free():
    for k in (0.0, 0.3):
        scn = annulus(theta=15.0, r_s=4.0, a=6.0, k=k)
        _, truth = generate_frame(scn, 0.0)
        assert truth.stick_mask.any()
        assert np.max(np.abs(truth.slip_field[truth.stick_mask])) == 0.0
        assert np.all(truth.stick_mask <= truth.contact_mask_true)


def test_slip_magnitude_monotone_along_rays():
    scn = annulus(theta=15.0, r_s=2.0, a=8.0, cor=(0.5, 0.5))
    _, truth = generate_frame(scn, 0.0)
    grid = scn.grid
    slip_mag = np.hypot(truth.slip_field[:, 0], truth.slip_field[:, 1])
    # rays along +x, +y and the diagonal from the marker at the cor
    i0, j0 = 10, 10
    for di, dj in ((0, 1), (1, 0), (1, 1)):
        mags = []
        for step in range(1, 8):
            idx = (i0 + di * step) * grid.cols + j0 + dj * step
            rho = math.hypot(*(grid.reference_positions[idx] - np.array([0.5, 0.5])))
            if 2.0 < rho <= 8.0:
                mags.append(slip_mag[idx])
        assert all(b >= a - 1e-12 for a, b in zip(mags, mags[1:]))


def test_translation_uniform_inside_contact_tapered_outside():
    scn = SimScenario(
        theta_trajectory=0.0,
        translation_trajectory=(0.4, -0.2),
        stick_radius=3.0,
        contact_radius=4.0,
        noise_sigma=0.0,
    )
    frame, _ = generate_frame(scn, 0.0)
    rho = np.hypot(*(scn.grid.reference_positions - np.asarray(scn.cor)).T)
    inside = rho <= 4.0
    assert np.all(frame.displacements[inside, 0] == 0.4)
    assert np.all(frame.displacements[inside, 1] == -0.2)
    beyond = rho > 8.0
    assert np.all(frame.displacements[beyond, :2] == 0.0)
    fringe = (rho > 4.0) & (rho <= 8.0)
    mags = np.hypot(frame.displacements[fringe, 0], frame.displacements[fringe, 1])
    assert np.all(mags < math.hypot(0.4, 0.2) + 1e-12)


def test_softness_attenuates_surface_rotation():
    k = 0.2
    scn = annulus(theta=10.0, r_s=8.0, a=8.0, k=k)
    frame, _ = generate_frame(scn, 0.0)
    rigid = annulus(theta=10.0 / (1 + k), r_s=8.0, a=8.0, k=0.0)
    frame_rigid, _ = generate_frame(rigid, 0.0)
    assert np.allclose(frame.displacements, frame_rigid.displacements, atol=1e-12)


def test_generator_is_deterministic_per_seed_and_frame_index():
    scn = annulus(theta=8.0, sigma=0.01, seed=123)
    f1, t1 = generate_frame(scn, 0.0, frame_index=4)
    f2, t2 = generate_frame(scn, 0.0, frame_index=4)
    assert np.array_equal(f1.displacements, f2.displacements)
    assert np.array_equal(t1.slip_field, t2.slip_field)
    f3, _ = generate_frame(scn, 0.0, frame_index=5)
    assert not np.array_equal(f1.displacements, f3.displacements)


def _frame_and_truth_bytes(frame, truth):
    return (
        frame.timestamp, frame.displacements.tobytes(), truth.theta,
        truth.stick_mask.tobytes(), truth.slip_field.tobytes(), truth.contact_mask_true.tobytes(),
    )


@pytest.mark.parametrize("sigma", [0.0, 0.005])
@pytest.mark.parametrize("settings", [{}, {"stick_radius": 3.0, "contact_radius": 6.0}])
def test_repeated_time_matches_fresh_scenario(settings, sigma):
    # Static-sweep use: many trials at one time of one scenario.
    scn = SimScenario(noise_sigma=sigma, theta_trajectory=12.0, **settings)
    for i in (0, 1, 2, 1):
        assert _frame_and_truth_bytes(*generate_frame(scn, 0.0, i)) == \
            _frame_and_truth_bytes(*generate_frame(replace(scn), 0.0, i))
    # Returning to an earlier time gives that time's field again.
    ramp = replace(scn, theta_trajectory=[[0.0, 0.0], [1.0, 10.0]])
    for t, i in ((0.0, 0), (0.5, 1), (0.5, 2), (0.0, 3), (0.5, 1)):
        assert _frame_and_truth_bytes(*generate_frame(ramp, t, i)) == \
            _frame_and_truth_bytes(*generate_frame(replace(ramp), t, i))


def test_scenario_is_collectable_after_generating():
    scn = annulus(theta=8.0, sigma=0.01)
    generate_frame(scn, 0.0)
    generate_frame(scn, 0.0, frame_index=1)
    generate_trajectory(scn, 0.0, 0.3, 10.0)
    assert scn._geometry is not None
    ref = weakref.ref(scn)
    del scn
    gc.collect()
    assert ref() is None


def test_scenario_keeps_geometry_only_when_walked_through_time():
    # A static-sweep angle asks for one t: it holds its field memo and no more.
    scn = annulus(theta=8.0, sigma=0.01)
    for i in range(3):
        generate_frame(scn, 0.0, frame_index=i)
    assert scn._geometry is None
    generate_frame(scn, 0.1, frame_index=3)
    assert not any(arr.flags.writeable for arr in scn._geometry)


def _time_input(draw, values):
    """A time input of values drawn from ``values``: a constant, a ramp of two
    breakpoints over [0, 1] or a step between t = 0.15 and t = 0.16."""
    kind = draw(st.sampled_from(["constant", "ramp", "step"]))
    first, second = draw(values), draw(values)
    if kind == "constant":
        return first
    first, second = np.atleast_1d(first).tolist(), np.atleast_1d(second).tolist()
    if kind == "ramp":
        return [[0.0, *first], [1.0, *second]]
    return [[0.0, *first], [0.15, *first], [0.16, *second], [1.0, *second]]


@st.composite
def _scenarios(draw):
    grid = MarkerGrid(
        rows=draw(st.integers(2, 24)),
        cols=draw(st.integers(2, 24)),
        pitch=draw(st.sampled_from([0.7, 1.0, 1.3])),
    )
    # A centre of rotation on a marker gives that marker an exact-zero offset.
    cor = tuple(grid.reference_positions[draw(st.integers(0, grid.n_markers - 1))])
    a = grid.half_extent * draw(st.floats(0.05, 1.0))
    rho = np.hypot(*(grid.reference_positions - np.asarray(cor)).T)
    radii = rho[(rho > 0) & (rho <= grid.half_extent)]
    if radii.size and draw(st.booleans()):
        a = float(draw(st.sampled_from(radii)))  # a marker exactly on the contact edge
    shift = st.floats(-0.5, 0.5)
    return SimScenario(
        grid=grid,
        contact_radius=a,
        cor=cor,
        theta_trajectory=_time_input(draw, st.floats(-20.0, 20.0)),
        stick_radius=_time_input(draw, st.floats(0.05, 1.0).map(lambda f: a * f)),
        translation_trajectory=_time_input(draw, st.tuples(shift, shift)),
        decay_exponent=draw(st.sampled_from([1.0, 2.0, 3.5])),
        softness=SoftnessParams(k=draw(st.floats(0.01, 5.0))),
        noise_sigma=draw(st.sampled_from([0.0, 0.005])),
        rng_seed=draw(st.integers(0, 2**16)),
    )


def _stream_bytes(trajectory, truth_writer) -> tuple[str, str]:
    frames, truths = io.StringIO(), io.StringIO()
    for frame, truth in trajectory:
        write_frame(frames, frame)
        truth_writer(truths, frame.timestamp, truth)
    return frames.getvalue(), truths.getvalue()


@settings(max_examples=60, deadline=None)
@given(scn=_scenarios(), rate=st.sampled_from([10.0, 30.0]))
def test_trajectory_streams_match_the_reference_kernels(scn, rate):
    with mock.patch.object(simulate, "_noiseless_field", reference_noiseless_field):
        expected = _stream_bytes(generate_trajectory(replace(scn), 0.0, 0.3, rate),
                                 reference_write_truth)
    assert _stream_bytes(generate_trajectory(scn, 0.0, 0.3, rate), write_truth) == expected
    assert scn._geometry is not None  # frames after the second used the kept geometry


@pytest.mark.parametrize(
    "as_mask",
    [lambda m: m, lambda m: m.astype(int), lambda m: m.tolist(), lambda m: m.astype(int).tolist()],
    ids=["bool-array", "int-array", "bool-list", "int-list"],
)
def test_truth_masks_write_as_the_reference(as_mask):
    _, truth = generate_frame(annulus(theta=5.0, r_s=3.0), 0.0)
    given_truth = GroundTruth(
        theta=truth.theta,
        stick_mask=as_mask(truth.stick_mask),
        slip_field=truth.slip_field,
        contact_mask_true=as_mask(truth.contact_mask_true),
    )
    out, ref = io.StringIO(), io.StringIO()
    write_truth(out, 0.0, given_truth)
    reference_write_truth(ref, 0.0, given_truth)
    assert out.getvalue() == ref.getvalue()


def test_trajectory_uniform_timestamps():
    scn = annulus(theta=5.0)
    frames = generate_trajectory(scn, 0.0, 1.0, 30.0)
    assert len(frames) == 31
    for idx, (frame, _) in enumerate(frames):
        assert frame.timestamp == pytest.approx(idx / 30.0, abs=1e-12)


def test_trajectory_matches_individual_frames():
    scn = annulus(theta=5.0, sigma=0.01, seed=9)
    frames = generate_trajectory(scn, 0.0, 0.5, 10.0)
    for idx, (frame, _) in enumerate(frames):
        single, _ = generate_frame(scn, idx / 10.0, frame_index=idx)
        assert np.array_equal(frame.displacements, single.displacements)


def test_constant_theta_trajectory_frames_identical_noiseless():
    scn = annulus(theta=7.0, sigma=0.0)
    frames = generate_trajectory(scn, 0.0, 0.3, 10.0)
    first = frames[0][0].displacements
    for frame, _ in frames[1:]:
        assert np.array_equal(frame.displacements, first)


def test_trajectory_rejects_empty_range():
    scn = annulus()
    with pytest.raises(UsageError):
        generate_trajectory(scn, 1.0, 1.0, 30.0)
    with pytest.raises(UsageError):
        generate_trajectory(scn, 0.0, 1.0, 0.0)


def test_trajectory_refuses_too_many_frames(monkeypatch):
    # Refused before the first frame: were the check gone, the patched
    # generator would fail at once instead of building the trajectory.
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was generated")

    monkeypatch.setattr(simulate, "generate_frame", no_frames)
    scn = annulus()
    tracemalloc.start()
    try:
        for t1, rate in ((1e15, 30.0), (MAX_FRAMES / 30.0 + 1.0, 30.0)):
            with pytest.raises(UsageError, match=f"exceeds {MAX_FRAMES} frames"):
                generate_trajectory(scn, 0.0, t1, rate)
        # An infinite bound is not a number of frames at all.
        for t1, rate, name in ((1.0, math.inf, "rate_hz"), (math.inf, 30.0, "t_end")):
            with pytest.raises(UsageError, match=f"{name} must be a finite number"):
                generate_trajectory(scn, 0.0, t1, rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_piecewise_trajectory_domain_enforced():
    scn = SimScenario(theta_trajectory=[(0.0, 0.0), (1.0, 5.0)])
    generate_frame(scn, 0.5)
    with pytest.raises(UsageError):
        generate_frame(scn, 1.5)


@pytest.mark.parametrize(
    "points",
    [
        [[0, 1], [1e-323, 2]],  # a slope beyond float range
        [[0, 0], [1, 1e308], [2, -1e308]],  # a value step beyond float range
        [[-1e308, 0], [1e308, 1]],  # a t step beyond float range
    ],
)
def test_breakpoints_need_finite_steps_and_slopes(points, tmp_path, capsys):
    # Interpolation over such a list overflows; it is refused where it is
    # given, without a numpy warning (warnings are errors in this suite).
    with pytest.raises(UsageError, match="^piecewise-linear breakpoints must have finite t "):
        PiecewiseLinear(points)
    with pytest.raises(UsageError, match=r"^scenario\.theta_trajectory must be a number or "):
        SimScenario(theta_trajectory=points)
    out = tmp_path / "frames.ndjson"
    assert main(["simulate", "--set", f"scenario.theta_trajectory={points}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config value: scenario.theta_trajectory must be a number or a "
        "breakpoint list: piecewise-linear breakpoints must have finite t steps and slopes\n")
    assert not out.exists()  # refused at load, before any output


@pytest.mark.parametrize(
    "name, kind, width",
    [("theta_trajectory", "a number", 2), ("stick_radius", "a number", 2),
     ("translation_trajectory", "a 2-vector", 3)],
)
def test_time_inputs_are_data_not_functions(name, kind, width):
    # A function of time could not be checked at load, nor kept in a config.
    points = [[0.0] + [1.0] * (width - 1), [1.0] + [2.0] * (width - 1)]
    cause = "two finite numbers" if width == 3 else "a finite number"
    for value in (lambda t: points[0][1:], PiecewiseLinear(points)):
        message = (rf"^scenario\.{name} must be {kind} or a breakpoint list: "
                   rf"scenario\.{name} must be {cause}, got <")
        with pytest.raises(UsageError, match=message):
            SimScenario(**{name: value})


def test_stick_radius_rounded_past_its_last_breakpoint_is_in_range():
    # np.interp gives 6.530000000000001 here, one ulp above the contact radius.
    t = 7.539999999999999
    scn = SimScenario(contact_radius=6.53, stick_radius=[[0.0, 1.4], [7.54, 6.53]])
    _, truth = generate_frame(scn, t)
    assert scn.stick_radius_at(t) == 6.53
    assert np.array_equal(truth.stick_mask, truth.contact_mask_true)


@st.composite
def _stick_radius_breakpoints(draw):
    a = draw(st.floats(1e-3, 9.5))
    ts = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                       max_size=5, unique=True).map(sorted))
    radius = st.floats(0.0, a, exclude_min=True)
    return a, [[t, draw(radius)] for t in ts]


@settings(max_examples=300, deadline=None)
@given(spec=_stick_radius_breakpoints(), data=st.data())
def test_stick_radius_at_stays_within_the_contact_radius(spec, data):
    a, points = spec
    if not finite_steps_and_slopes(points):  # a huge or subnormal t step: refused on input
        with pytest.raises(UsageError, match=r"^scenario\.stick_radius must be a number or "):
            SimScenario(contact_radius=a, stick_radius=points)
        return
    scn = SimScenario(contact_radius=a, stick_radius=points)
    times = [row[0] for row in points]
    # The ends of the domain, the floats just inside them and one drawn time.
    times += [math.nextafter(times[0], math.inf), math.nextafter(times[-1], -math.inf),
              data.draw(st.floats(times[0], times[-1]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(0.0 <= scn.stick_radius_at(t) <= a for t in times)


def test_scenario_validation():
    with pytest.raises(UsageError):
        SimScenario(contact_radius=20.0)  # beyond grid half-extent
    # NaN would otherwise mean no noise.
    for sigma, message in ((-0.1, "must be >= 0"), (math.nan, "must be a finite number")):
        with pytest.raises(UsageError, match=f"noise_sigma {message}"):
            SimScenario(noise_sigma=sigma)
    with pytest.raises(UsageError, match="rng_seed must be a whole number"):
        SimScenario(rng_seed=True)  # a bool is an int to Python, not a seed
    with pytest.raises(UsageError):
        SimScenario(decay_exponent=0.0)
    with pytest.raises(UsageError, match=r"scenario.stick_radius must lie in \(0, 8.0\], got 9.0"):
        SimScenario(stick_radius=9.0, contact_radius=8.0)  # above contact radius
    with pytest.raises(UsageError, match=r"scenario.stick_radius must lie in \(0, 8.0\], got 0.0"):
        SimScenario(stick_radius=[(0.0, 4.0), (1.0, 0.0)])  # a breakpoint at 0
    with pytest.raises(UsageError, match="stick_radius must be a number or a breakpoint list"):
        SimScenario(stick_radius=lambda t: 9.0, contact_radius=8.0)  # time inputs are data


# Lengths from subnormal to beyond float range's useful end, the kilometre
# bounds and values past them included.
_ANY_LENGTH = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 2e6),
                        st.sampled_from([5e-324, 1e-300, MAX_DISPLACEMENT_MM, 1e300]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_accepted_scenario_makes_frames_within_the_displacement_bound(data):
    # Refused at load exactly when 4 a + |translation| + max_indent + 10 sigma
    # breaks the bound, or the centre of rotation lies beyond a kilometre;
    # otherwise every frame holds (Frame checks it) and no numpy warning fires.
    pitch = data.draw(st.floats(MIN_PITCH_MM, MAX_GRID_MM))
    grid = MarkerGrid(rows=5, cols=5, pitch=pitch, origin=(0, 0))
    a = data.draw(st.floats(0.0, grid.half_extent, exclude_min=True))
    signed = st.tuples(_ANY_LENGTH, st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])
    translation, cor = data.draw(st.tuples(signed, signed)), data.draw(st.tuples(signed, signed))
    indent = data.draw(_ANY_LENGTH.filter(lambda v: v > 0))
    sigma = data.draw(st.one_of(st.just(0.0), _ANY_LENGTH))
    theta = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    bound = 4 * a + max(map(abs, translation)) + indent + 10 * sigma
    try:
        scn = SimScenario(grid=grid, contact_radius=a, max_indent=indent, cor=cor,
                          theta_trajectory=theta, translation_trajectory=translation,
                          noise_sigma=sigma)
    except UsageError as exc:
        assert bound > MAX_DISPLACEMENT_MM or max(map(abs, cor)) > MAX_GRID_MM, exc
        return
    assert bound <= MAX_DISPLACEMENT_MM and max(map(abs, cor)) <= MAX_GRID_MM
    for t, i in ((0.0, 0), (0.0, 1), (1.0, 2)):
        frame, truth = generate_frame(scn, t, frame_index=i)
        assert np.abs(frame.displacements).max() <= MAX_DISPLACEMENT_MM
        assert np.isfinite(truth.slip_field).all()


def test_piecewise_linear_needs_two_rows_of_strictly_increasing_t():
    for points in ([[0.0, 1.0]], [[0.0], [1.0]]):
        with pytest.raises(UsageError, match=r"^piecewise-linear input needs >= 2 rows"):
            PiecewiseLinear(points)
    for points in ([[0.0, 1.0], [0.0, 2.0]], [[1.0, 1.0], [0.0, 2.0]]):
        with pytest.raises(UsageError, match="^piecewise-linear breakpoints must have strictly "):
            PiecewiseLinear(points)


def test_analytic_local_rotation_stick_zone():
    scn = annulus(theta=10.0, r_s=4.0, a=6.0)
    assert analytic_local_rotation(scn, 0.0, (1.0, 1.0)) == pytest.approx(10.0)


def test_analytic_local_rotation_power_law_decay():
    scn = annulus(theta=10.0, r_s=4.0, a=9.0, gamma=2.0)
    assert analytic_local_rotation(scn, 0.0, (8.0, 0.0)) == pytest.approx(2.5)


def test_analytic_local_rotation_outside_support():
    scn = annulus(theta=10.0, r_s=2.0, a=4.0)
    assert analytic_local_rotation(scn, 0.0, (9.0, 2.0)) == 0.0


def test_analytic_local_rotation_softness_attenuation():
    scn = annulus(theta=12.0, r_s=4.0, a=6.0, k=0.5)
    assert analytic_local_rotation(scn, 0.0, (1.0, 0.0)) == pytest.approx(8.0)


def test_rotation_balance_identity_of_generated_fields():
    # The discrete curls of the slip and elastomer fields balance the
    # object rotation up to the closed-form small-angle defect. For a rigid
    # object this holds at every marker (slip = object - elastomer with an
    # affine object field); for a soft object it is a stick-zone relation.
    theta = 0.5
    for k in (0.0, 0.2):
        scn = annulus(theta=theta, r_s=3.0, a=6.0, k=k)
        frame, truth = generate_frame(scn, 0.0)
        grid = scn.grid
        zero = Frame(0.0, np.zeros((grid.n_markers, 3)))
        as_frame = lambda f2: Frame(1.0, np.column_stack([f2, np.zeros(grid.n_markers)]))
        rot_slip = 2.0 * np.radians(half_curl(grid, zero, as_frame(truth.slip_field)))
        rot_elast = 2.0 * np.radians(half_curl(grid, zero, as_frame(frame.displacements[:, :2])))
        theta_rad = math.radians(theta)
        residual = rot_slip + (k + 1) * rot_elast + 2 * theta_rad
        expected = 2 * theta_rad - 2 * (1 + k) * math.sin(theta_rad / (1 + k))
        if k == 0.0:
            assert np.max(np.abs(residual - expected)) < 1e-9
        else:
            rho = np.hypot(*(grid.reference_positions - np.asarray(scn.cor)).T)
            interior = rho <= 3.0 - 1.01 * grid.pitch
            assert interior.sum() >= 4
            assert np.max(np.abs(residual[interior] - expected)) < 1e-9


def test_three_lift_scenario_shape():
    scn = replace(three_lift_scenario(), noise_sigma=0.0)
    assert scn.theta_at(0.2) == 0.0
    assert scn.theta_at(2.5) == pytest.approx(6.0)
    assert scn.theta_at(5.5) == pytest.approx(12.0)
    assert scn.theta_at(8.5) == pytest.approx(18.0)
    assert scn.theta_at(11.8) == pytest.approx(24.0)
    assert scn.stick_radius_at(11.5) < scn.grid.pitch
