from __future__ import annotations

import math

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
    analytic_local_rotation,
    generate_frame,
    half_curl,
    line_feature_angles,
    normalized_angle_difference,
)
from pivotgauge.features import admission_certain
from conftest import brute_force_feature_angle, reference_line_feature_angles

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


def _hostile_field(grid: MarkerGrid, d: np.ndarray, rng, zeros: float, collapsed: int,
                   reversed_: int) -> np.ndarray:
    """``d`` with exact zeros, collapsed segments (shorter than the degenerate
    length, or exactly zero) and axis-aligned segments turned back on
    themselves, whose cross product is a signed zero and dot product negative."""
    d = d.copy()
    rows, cols, pitch = grid.rows, grid.cols, grid.pitch
    d[rng.random(d.shape) < zeros] = 0.0
    d[rng.random(grid.n_markers) < zeros, :2] = 0.0
    for _ in range(collapsed):
        m = int(rng.integers(grid.n_markers))
        if m % cols + 1 < cols:
            d[m + 1, :2] = d[m, :2] + (-pitch + rng.choice([0.0, 0.005 * pitch]), 0.0)
    for _ in range(reversed_):
        m = int(rng.integers(grid.n_markers))
        vertical = bool(rng.integers(2))
        step = cols if vertical else 1
        if (m // cols if vertical else m % cols) + 1 < (rows if vertical else cols):
            d[m, :2] *= rng.choice([0.0, -0.0, 1.0])
            d[m + step, :2] = d[m, :2]
            d[m + step, int(vertical)] -= 2 * pitch
    return d


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
    frame = Frame(0.0, _hostile_field(grid, d, rng, zeros, collapsed, reversed_))
    result = line_feature_angles(grid, frame)
    expected = reference_line_feature_angles(grid, frame)
    assert result.angles.tobytes() == expected.angles.tobytes()
    assert np.array_equal(result.valid, expected.valid)


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


def analytic_increment_half_curl(rho, r_s, gamma, theta0, theta1):
    """Closed-form half-curl (degrees) of the annulus increment field at
    radius rho in the power-law zone, for a rigid object."""
    out = []
    for theta in (theta0, theta1):
        psi = math.radians(-theta) * (r_s / rho) ** gamma
        # d(psi)/d(rho) = -gamma * psi / rho for the power-law profile
        out.append(math.sin(psi) - 0.5 * gamma * psi * math.cos(psi))
    return math.degrees(out[1] - out[0])


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
