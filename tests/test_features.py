from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotgauge import (
    Frame,
    MarkerGrid,
    SegmentationConfig,
    SimScenario,
    UsageError,
    generate_frame,
    line_feature_angles,
    normalized_angle_difference,
)
from pivotgauge.core import MAX_DISPLACEMENT_MM, MAX_GRID_MM, MIN_PITCH_MM
from pivotgauge.features import admission_certain
from conftest import (
    analytic_increment_half_curl,
    analytic_local_rotation,
    brute_force_feature_angle,
    half_curl,
    hostile_field,
    reference_line_feature_angles,
)

EPSILON = SegmentationConfig().epsilon_angle


def rigid_rotation_frame(grid: MarkerGrid, theta_deg: float, center=(0.0, 0.0), t=0.0) -> Frame:
    ang = math.radians(theta_deg)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    d = grid.reference_positions - np.asarray(center)
    tang = d @ rot.T - d
    return Frame(t, np.column_stack([tang, np.zeros(grid.n_markers)]))


def test_zero_field_gives_zero_angles(grid20):
    frame = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    result = line_feature_angles(grid20, frame)
    assert np.all(result.valid)
    assert np.all(result.angles == 0.0)


def test_global_rigid_rotation_recovered_exactly(grid20):
    frame = rigid_rotation_frame(grid20, 5.0)
    result = line_feature_angles(grid20, frame)
    assert np.all(result.valid)
    assert np.max(np.abs(result.angles - 5.0)) < 1e-9


@pytest.mark.parametrize("theta", [-20.0, -3.5, 2.0, 12.5, 20.0])
def test_rigid_rotation_exact_across_angles(grid20, theta):
    frame = rigid_rotation_frame(grid20, theta, center=(1.5, -2.5))
    result = line_feature_angles(grid20, frame)
    assert np.max(np.abs(result.angles[result.valid] - theta)) < 1e-9


def test_matches_brute_force_everywhere():
    # The non-square grid catches a rows/cols mix-up that a square one hides.
    for grid, contact_radius, stick_radius in (
        (MarkerGrid(), 6.0, 3.0),
        (MarkerGrid(rows=5, cols=9, pitch=0.7), 1.4, 0.7),
    ):
        scn = SimScenario(
            grid=grid,
            theta_trajectory=9.0,
            stick_radius=stick_radius,
            contact_radius=contact_radius,
            translation_trajectory=(0.3, 0.1),
            noise_sigma=0.01,
            rng_seed=5,
        )
        frame, _ = generate_frame(scn, 0.0)
        result = line_feature_angles(grid, frame)
        for idx in range(grid.n_markers):
            oracle = brute_force_feature_angle(grid, frame, idx)
            if oracle is None:
                assert not result.valid[idx]
            else:
                assert result.valid[idx]
                assert result.angles[idx] == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(2, 24),
    cols=st.integers(2, 24),
    pitch=st.sampled_from([0.7, 1.0, 1.3]),
    simulated=st.booleans(),
    scale=st.sampled_from([0.0, 0.001, 0.05, 0.5, 2.0]),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    collapsed=st.integers(0, 6),
    reversed_=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_planar_kernel_matches_reference_bit_for_bit(rows, cols, pitch, simulated, scale, zeros,
                                                     collapsed, reversed_, seed):
    # Bit identity, not a tolerance: estimates downstream must not move at all.
    grid = MarkerGrid(rows=rows, cols=cols, pitch=pitch)
    rng = np.random.default_rng(seed)
    if simulated:
        contact = rng.uniform(0.3, 1.0) * grid.half_extent
        scn = SimScenario(grid=grid, contact_radius=contact,
                          stick_radius=rng.uniform(0.1, 1.0) * contact,
                          theta_trajectory=rng.uniform(-25.0, 25.0),
                          translation_trajectory=tuple(rng.normal(0.0, 0.2, 2)),
                          noise_sigma=scale, rng_seed=seed)
        d = generate_frame(scn, 0.0)[0].displacements
    else:
        d = rng.normal(0.0, scale, (grid.n_markers, 3))
    frame = Frame(0.0, hostile_field(grid, d, rng, zeros, collapsed, reversed_))
    result = line_feature_angles(grid, frame)
    expected = reference_line_feature_angles(grid, frame)
    assert result.angles.tobytes() == expected.angles.tobytes()
    assert np.array_equal(result.valid, expected.valid)


def _collapse(grid: MarkerGrid, d: np.ndarray, near: int, far: int, exact: bool) -> None:
    """Move marker ``far`` so that its segment to ``near`` is exactly zero or
    0.005 pitch along each axis: shorter than the degenerate length."""
    pos = grid.reference_positions
    d[far, :2] = d[near, :2] - (pos[far] - pos[near]) + (0.0 if exact else 0.005 * grid.pitch)


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 7), (20, 20)])
@pytest.mark.parametrize("case", ["none", "last column", "last row", "one marker"])
@pytest.mark.parametrize("exact", [False, True])
def test_segment_counts_match_reference_with_and_without_short_segments(rows, cols, case, exact):
    # A marker's count is its number of grid neighbours less its short
    # segments. The last column's segment sits beside a wrap pair (its last
    # marker and the next row's first), which is no segment at all, short or not.
    grid = MarkerGrid(rows=rows, cols=cols, pitch=0.7)
    d = np.random.default_rng(rows * cols).normal(0.0, 0.02, (grid.n_markers, 3))
    marker = (rows // 2) * cols + cols // 2
    short = {
        "none": [],
        "last column": [(cols - 2, cols - 1)],
        "last row": [((rows - 2) * cols + 1, (rows - 1) * cols + 1)],
        "one marker": [(marker, nbr) for nbr in grid.neighbors[marker]],
    }[case]
    for near, far in short:
        _collapse(grid, d, near, far, exact)
    if case == "last column":  # the wrap pair beside it is short too, and still no segment
        d[cols, :2] = d[cols - 1, :2] - (grid.pitch - (0.0 if exact else 0.005 * grid.pitch), 0.0)
    frame = Frame(0.0, d)
    result = line_feature_angles(grid, frame)
    expected = reference_line_feature_angles(grid, frame)
    assert result.angles.tobytes() == expected.angles.tobytes()
    assert result.valid.tobytes() == expected.valid.tobytes()
    lost = Counter(index for pair in short for index in pair)
    count = [len(grid.neighbors[i]) - lost[i] for i in range(grid.n_markers)]
    assert result.valid.tolist() == [c >= 2 for c in count]
    assert (result.angles[~result.valid] == 0.0).all()
    if case == "one marker":
        assert not result.valid[marker]


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 7), (20, 20)])
def test_neighbor_count_is_the_read_only_number_of_neighbours(rows, cols):
    grid = MarkerGrid(rows=rows, cols=cols)
    count = grid.neighbor_count
    assert count.dtype == np.uint8
    assert count.tolist() == [len(grid.neighbors[i]) for i in range(grid.n_markers)]
    assert grid.neighbor_count is count
    with pytest.raises(ValueError):
        count[0] = 4
    # A field with short segments takes them off a copy, never off the grid's.
    d = np.zeros((grid.n_markers, 3))
    _collapse(grid, d, 0, 1, True)
    line_feature_angles(grid, Frame(0.0, d))
    assert count.tolist() == [len(grid.neighbors[i]) for i in range(grid.n_markers)]


def test_records_without_short_segments_share_only_the_read_only_valid(grid20):
    rng = np.random.default_rng(3)
    first, second = (line_feature_angles(grid20, Frame(0.0, rng.normal(0.0, 0.05, (400, 3))))
                     for _ in range(2))
    kept = first.angles.tobytes()
    # The mean is divided in place, on a sum made fresh for each call.
    assert not np.shares_memory(first.angles, second.angles)
    assert first.angles.tobytes() == kept
    assert first.valid is second.valid and first.valid.all()
    for record in (first, second):
        for array in (record.angles, record.valid):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_folded_segment_gives_both_markers_one_angle():
    # Markers 1, 2 and 3 move by (-2, 0), (-1, -1) and (-2, -2), which folds
    # segment 0-1 to (-1, +0) and segment 1-3 to (+0, -1): +180 and -180
    # degrees, by the sign of the zero. Segments 2-3 and 0-2 turn by -90 and
    # +90. Each segment's angle reaches both of its markers; a folded one
    # with opposite signs at its two ends would put -180 at marker 1 and 45
    # at marker 3.
    grid = MarkerGrid(rows=2, cols=2, pitch=1.0)
    d = np.array([[0.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [-2.0, -2.0, 0.0]])
    result = line_feature_angles(grid, Frame(0.0, d))
    assert result.valid.all()
    assert result.angles.tolist() == [135.0, 0.0, 0.0, -135.0]


def test_annulus_angle_bounded_by_brute_force_discretization():
    # The measured angle equals the brute-force segment mean; its gap to
    # the closed-form local rotation is the discretization error of the
    # segment sampling, so the oracle bounds it.
    scn = SimScenario(
        theta_trajectory=10.0,
        stick_radius=4.0,
        contact_radius=9.0,
        decay_exponent=2.0,
        cor=(0.5, 0.5),
        noise_sigma=0.0,
    )
    frame, _ = generate_frame(scn, 0.0)
    grid = scn.grid
    idx = 10 * grid.cols + 18  # position (8.5, 0.5): rho = 8 from the cor
    assert math.hypot(*(grid.reference_positions[idx] - np.array([0.5, 0.5]))) == 8.0
    analytic = analytic_local_rotation(scn, 0.0, grid.reference_positions[idx])
    assert analytic == pytest.approx(10.0 * (4.0 / 8.0) ** 2)
    measured = line_feature_angles(grid, frame).angles[idx]
    oracle = brute_force_feature_angle(grid, frame, idx)
    assert measured == pytest.approx(oracle, abs=1e-9)
    # the field rotation carries the opposite sign of the reported angle
    bound = abs(oracle - (-analytic)) + 1e-9
    assert abs(measured - (-analytic)) <= bound


def test_border_markers_stay_valid_with_two_segments(grid20):
    frame = rigid_rotation_frame(grid20, 3.0)
    result = line_feature_angles(grid20, frame)
    corner = 0
    assert result.valid[corner]
    assert result.angles[corner] == pytest.approx(3.0, abs=1e-9)


def test_degenerate_segments_invalidate_marker(grid20):
    disp = np.zeros((grid20.n_markers, 3))
    idx = 10 * grid20.cols + 10
    # collapse all four segments onto the centre marker
    for nbr, off in [
        (idx - 1, (1.0, 0.0)),
        (idx + 1, (-1.0, 0.0)),
        (idx - grid20.cols, (0.0, 1.0)),
        (idx + grid20.cols, (0.0, -1.0)),
    ]:
        disp[nbr, :2] = off
    result = line_feature_angles(grid20, Frame(0.0, disp))
    assert not result.valid[idx]
    assert result.angles[idx] == 0.0


def test_size_mismatch_is_usage_error(grid20):
    frame = Frame(0.0, np.zeros((9, 3)))
    with pytest.raises(UsageError):
        line_feature_angles(grid20, frame)
    with pytest.raises(UsageError):
        half_curl(grid20, frame, frame)


@pytest.mark.parametrize("pitch", [MIN_PITCH_MM, MAX_GRID_MM])
def test_kernels_stay_quiet_at_the_pitch_bounds(pitch):
    # Displacements at the bound, of random sign, on the finest and the
    # coarsest grid: no overflow or invalid value (warnings are errors here).
    grid = MarkerGrid(rows=3, cols=3, pitch=pitch)
    rng = np.random.default_rng(7)
    prev, nxt = (Frame(0.0, MAX_DISPLACEMENT_MM * rng.choice([-1.0, 1.0], (9, 3)))
                 for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(half_curl(grid, prev, nxt)).all()
        assert np.isfinite(line_feature_angles(grid, nxt).angles).all()


@settings(max_examples=40, deadline=None)
@given(
    tx=st.floats(-2.0, 2.0, allow_nan=False),
    ty=st.floats(-2.0, 2.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_translation_invariance(tx, ty, seed):
    grid = MarkerGrid(rows=8, cols=8)
    rng = np.random.default_rng(seed)
    disp = np.zeros((grid.n_markers, 3))
    disp[:, :2] = 0.25 * rng.standard_normal((grid.n_markers, 2))
    base = line_feature_angles(grid, Frame(0.0, disp))
    shifted = disp.copy()
    shifted[:, 0] += tx
    shifted[:, 1] += ty
    moved = line_feature_angles(grid, Frame(0.0, shifted))
    assert np.array_equal(base.valid, moved.valid)
    assert np.max(np.abs(base.angles - moved.angles)) < 1e-12


def test_antisymmetry_under_reversed_rotation():
    # Reversing the rotation mirror-conjugates the field, so angles negate
    # through the mirror permutation of the (symmetric) grid; rigid fields
    # negate pointwise.
    grid = MarkerGrid()
    rigid_pos = line_feature_angles(grid, rigid_rotation_frame(grid, 7.0))
    rigid_neg = line_feature_angles(grid, rigid_rotation_frame(grid, -7.0))
    assert np.max(np.abs(rigid_pos.angles + rigid_neg.angles)) < 1e-9

    idx = np.arange(grid.n_markers)
    i, j = np.divmod(idx, grid.cols)
    mirror = (grid.rows - 1 - i) * grid.cols + j
    for theta in (3.0, 10.0):
        pos = SimScenario(theta_trajectory=theta, stick_radius=4.0, contact_radius=6.0,
                          noise_sigma=0.0)
        neg = SimScenario(theta_trajectory=-theta, stick_radius=4.0, contact_radius=6.0,
                          noise_sigma=0.0)
        fp, _ = generate_frame(pos, 0.0)
        fn, _ = generate_frame(neg, 0.0)
        ap = line_feature_angles(pos.grid, fp)
        an = line_feature_angles(neg.grid, fn)
        assert np.max(np.abs(ap.angles + an.angles[mirror])) < 1e-9


def test_half_curl_zero_for_identical_frames(grid20):
    scn = SimScenario(theta_trajectory=5.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    assert np.all(half_curl(grid20, frame, frame) == 0.0)


def test_half_curl_rigid_increment_sine_corrected(grid20):
    delta = 0.1
    prev = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    nxt = rigid_rotation_frame(grid20, delta, t=1.0)
    hc = half_curl(grid20, prev, nxt)
    expected = math.degrees(math.sin(math.radians(delta)))
    assert np.max(np.abs(hc - expected)) < 1e-5


def test_half_curl_matches_analytic_curl_and_refines():
    r_s, a, gamma = 2.0, 8.0, 2.0
    errors = []
    for factor in (1, 2):
        pitch = 1.0 / factor
        grid = MarkerGrid(rows=24 * factor, cols=24 * factor, pitch=pitch)
        scn = SimScenario(
            grid=grid,
            theta_trajectory=[[0.0, 0.0], [1.0, 10.0]],
            stick_radius=r_s,
            contact_radius=a,
            decay_exponent=gamma,
            noise_sigma=0.0,
        )
        f0, _ = generate_frame(scn, 0.80)
        f1, _ = generate_frame(scn, 0.84)
        hc = half_curl(grid, f0, f1)
        rho = np.hypot(*(grid.reference_positions - np.asarray(scn.cor)).T)
        band = (rho >= 3.5) & (rho <= 6.5)
        expected = np.array(
            [analytic_increment_half_curl(r, r_s, gamma, 8.0, 8.4) for r in rho[band]]
        )
        errors.append(np.max(np.abs(hc[band] - expected)))
    assert errors[0] / errors[1] >= 3.5


def test_feature_angle_increment_agrees_with_half_curl(grid20):
    scn = SimScenario(
        theta_trajectory=[[0.0, 0.0], [1.0, 1.0]],
        stick_radius=2.0,
        contact_radius=8.0,
        decay_exponent=2.0,
        noise_sigma=0.0,
    )
    prev = Frame(0.0, np.zeros((grid20.n_markers, 3)))
    nxt, _ = generate_frame(scn, 0.2)  # 0.2 degree increment from rest
    angles = line_feature_angles(grid20, nxt)
    hc = half_curl(grid20, prev, nxt)
    rho = np.hypot(*grid20.reference_positions.T)
    band = (rho >= 3.5) & (rho <= 6.5)
    assert np.max(np.abs(angles.angles[band] - hc[band])) < 0.02


def test_normalized_angle_difference_identical_angles():
    assert normalized_angle_difference(10.0, 10.0, EPSILON) == 0.0


def test_normalized_angle_difference_reference_value():
    assert normalized_angle_difference(10.0, 10.5, EPSILON) == pytest.approx(0.5 / math.sqrt(105.0))


def test_normalized_angle_difference_opposite_signs_infinite():
    assert normalized_angle_difference(5.0, -5.0, EPSILON) == math.inf
    assert normalized_angle_difference(-0.06, 0.06, EPSILON) == math.inf


def test_normalized_angle_difference_noise_floor():
    assert normalized_angle_difference(0.0, 0.0, EPSILON) == 0.0
    assert normalized_angle_difference(0.04, -0.04, 0.05) == pytest.approx(0.08 / 0.05)
    assert normalized_angle_difference(0.0, 0.02, 0.05) == pytest.approx(0.4)


@given(
    phi_i=st.floats(-25.0, 25.0, allow_nan=False),
    phi_bar=st.floats(-25.0, 25.0, allow_nan=False),
)
def test_normalized_angle_difference_total_and_nonnegative(phi_i, phi_bar):
    value = normalized_angle_difference(phi_i, phi_bar, EPSILON)
    assert value >= 0.0


@pytest.mark.parametrize(
    "phi, threshold, epsilon",
    [
        ([1e100, 1e200, 1e300], 1e9, 0.05),  # lo * hi overflows to inf
        ([1e-180, 1.01e-180], 0.4, 1e-200),  # the rule's products underflow to 0
        ([-3.0, -2.0], 0.4, 0.05),  # bound 1/sqrt(6) just over the threshold
        ([2.0, 2.5, -2.0], 100.0, 0.05),  # mixed signs
        ([0.0, 0.01], 0.1, 0.05),  # below the noise floor
    ],
)
def test_admission_certificate_refuses_where_the_rule_can_fail(phi, threshold, epsilon):
    rule = [normalized_angle_difference(a, b, epsilon) for a in phi for b in phi]
    assert max(rule) >= threshold
    assert not admission_certain(np.array(phi), threshold, epsilon)


def test_admission_certificate_holds_for_narrow_same_sign_ranges():
    for phi in ([2.0, 2.1, 2.05], [-2.0, -2.1], [7.5]):
        assert admission_certain(np.array(phi), 0.4, EPSILON)
