from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pivotgauge import (
    ContactMask,
    ContactState,
    Frame,
    LineFeatureAngles,
    MarkerGrid,
    SegmentationConfig,
    SimScenario,
    UsageError,
    detect_contact,
    generate_frame,
    grow_stick_region,
    line_feature_angles,
    normalized_angle_difference,
    three_lift_scenario,
)
from pivotgauge import segmentation
from conftest import brute_force_flags, f1_against_mask, loop_grow_stick_region


CFG = SegmentationConfig()


def test_config_validation():
    with pytest.raises(UsageError):
        SegmentationConfig(contact_threshold=0.0)
    with pytest.raises(UsageError):
        SegmentationConfig(normal_filter_ratio=1.0)
    with pytest.raises(UsageError):
        SegmentationConfig(min_stick_markers=0)


def test_zero_frame_has_no_contact(grid20):
    mask = detect_contact(grid20, Frame(0.0, np.zeros((grid20.n_markers, 3))), CFG)
    assert not mask.contact_detected
    assert mask.center_index is None
    assert mask.n_flagged == 0


def test_noise_only_frame_has_no_contact(grid20):
    rng = np.random.default_rng(3)
    disp = 0.005 * rng.standard_normal((grid20.n_markers, 3))
    mask = detect_contact(grid20, Frame(0.0, disp), CFG)
    assert not mask.contact_detected


def test_flagged_set_matches_indentation_profile(grid20):
    # w0=0.5, a=5: markers above half the peak normal displacement lie
    # within a * sqrt(3)/2 of the pressure centre
    scn = SimScenario(theta_trajectory=0.0, contact_radius=5.0, max_indent=0.5,
                      noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    assert mask.contact_detected
    assert np.array_equal(mask.flags, brute_force_flags(frame, 0.5))
    rho = np.hypot(*grid20.reference_positions.T)
    analytic = rho <= 5.0 * math.sqrt(3.0) / 2.0
    assert np.array_equal(mask.flags, analytic)


def test_center_is_nearest_cor_on_symmetric_field(grid20):
    scn = SimScenario(theta_trajectory=8.0, stick_radius=4.0, contact_radius=6.0,
                      noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    # brute-force score over flagged markers
    disp = frame.displacements
    flagged = np.flatnonzero(mask.flags)
    pos = grid20.reference_positions[flagged]
    centroid = pos.mean(axis=0)
    tang = np.hypot(disp[flagged, 0], disp[flagged, 1])
    score = np.hypot(*(pos - centroid).T) / grid20.pitch + np.abs(tang - tang.mean()) / (
        tang.mean() + 1e-6
    )
    assert mask.center_index == flagged[np.argmin(score)]
    rho_center = math.hypot(*grid20.reference_positions[mask.center_index])
    assert rho_center == pytest.approx(math.sqrt(0.5))  # one of the four nearest the cor


def test_uniform_rotation_grows_full_patch(grid20):
    scn = SimScenario(theta_trajectory=10.0, noise_sigma=0.0)  # full stick
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert region.state is ContactState.STICK
    assert region.members == frozenset(np.flatnonzero(mask.flags))
    assert region.stick_ratio == 1.0


def test_pure_translation_grows_full_patch_with_zero_angle(grid20):
    scn = SimScenario(theta_trajectory=0.0, translation_trajectory=(0.3, -0.1),
                      contact_radius=6.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    assert mask.contact_detected
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert region.state is ContactState.STICK
    assert region.mean_angle == pytest.approx(0.0, abs=1e-9)


def test_annulus_recovery_against_simulator_mask(grid20):
    scn = SimScenario(theta_trajectory=10.0, stick_radius=4.0, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.0)
    frame, truth = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert region.state is ContactState.INCIPIENT_SLIP
    assert f1_against_mask(region.members, truth.stick_mask) >= 0.95


def test_tiny_stick_radius_is_macro_slip(grid20):
    scn = SimScenario(theta_trajectory=21.0, stick_radius=0.5, contact_radius=6.0,
                      cor=(0.5, 0.5), decay_exponent=1.5, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert region.state is ContactState.MACRO_SLIP
    assert len(region.members) < CFG.min_stick_markers


def test_no_contact_mask_passthrough(grid20):
    mask = detect_contact(grid20, Frame(0.0, np.zeros((grid20.n_markers, 3))), CFG)
    angles = LineFeatureAngles(np.zeros(grid20.n_markers), np.ones(grid20.n_markers, bool))
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert region.state is ContactState.NO_CONTACT
    assert region.members == frozenset()
    assert region.stick_ratio == 0.0


def test_invalid_center_degenerates_to_macro_slip(grid20):
    scn = SimScenario(theta_trajectory=10.0, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    bad_valid = angles.valid.copy()
    bad_valid[mask.center_index] = False
    broken = LineFeatureAngles(angles.angles, bad_valid)
    region = grow_stick_region(grid20, mask, broken, CFG)
    assert region.state is ContactState.MACRO_SLIP
    assert region.members == frozenset()


def test_region_is_four_connected_and_contains_center(grid20):
    scn = SimScenario(theta_trajectory=12.0, stick_radius=4.0, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.005, rng_seed=11)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    assert mask.center_index in region.members
    # flood fill within members must reach every member
    seen = {mask.center_index}
    frontier = [mask.center_index]
    while frontier:
        nxt = []
        for idx in frontier:
            for nbr in grid20.neighbors[idx]:
                if nbr is not None and nbr in region.members and nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    assert seen == set(region.members)


def _spread_for_bound(bound: float) -> float:
    """The relative width w with w / sqrt(1 + w) == bound: angles in
    [lo, lo * (1 + w)] have a normalized difference of at most ``bound``."""
    return (bound * bound + math.sqrt(bound ** 4 + 4.0 * bound * bound)) / 2.0


def _grow_with_branch(grid, mask, angles, cfg):
    """``grow_stick_region`` and whether its admission certificate held."""
    certificate, held = segmentation.admission_certain, []

    def recording(*args):
        held.append(certificate(*args))
        return held[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "admission_certain", recording)
        region = grow_stick_region(grid, mask, angles, cfg)
    assert len(held) == 1
    return region, held[0]


# Field kinds: "random" has base +- spread angles, often mixed in sign, so
# admission often hinges on the order in which the frontier is visited;
# "certified" has a narrow same-sign range whose bound is well below the
# threshold; "edge" puts the threshold within 1e-9 (down to a few ulps) of
# the bound of a lo/hi field; "near_eps" puts the smallest magnitude within
# 1e-9 of epsilon; "mixed" holds admissible angles of both signs;
# "underflow" has angles and epsilon so small that their squares are 0.
FIELD_KINDS = ("random", "certified", "edge", "near_eps", "mixed", "underflow")


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(FIELD_KINDS),
    rows=st.integers(2, 24),
    cols=st.integers(2, 24),
    pitch=st.sampled_from([0.7, 1.0, 1.3]),
    base=st.floats(-20.0, 20.0),
    spread=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**31 - 1),
    delta_phi_th=st.floats(0.05, 100.0),
    sign=st.sampled_from([1.0, -1.0]),
    lo=st.floats(0.06, 20.0),
    fraction=st.floats(0.0, 0.9),
    rel=st.one_of(st.floats(-3e-9, 3e-9), st.integers(-4, 4).map(lambda k: k * 2.0**-52)),
)
# A 3x3 field of 1e-170 with epsilon 1e-200, every marker flagged and valid
# and the centre at index 4: the centre's difference to itself is inf.
@example(kind="underflow", rows=3, cols=3, pitch=1.0, base=0.0, spread=1.0, seed=241,
         delta_phi_th=0.4, sign=1.0, lo=1.0, fraction=0.0, rel=0.0)
def test_growth_matches_loop_oracle(kind, rows, cols, pitch, base, spread, seed, delta_phi_th,
                                    sign, lo, fraction, rel):
    grid = MarkerGrid(rows=rows, cols=cols, pitch=pitch)
    rng = np.random.default_rng(seed)
    n = grid.n_markers
    center = int(rng.integers(n))
    other = (center + 1) % n
    flags = rng.random(n) < 0.85
    valid = rng.random(n) < 0.95
    flags[center] = valid[center] = True
    phi = base + spread * rng.standard_normal(n)
    epsilon = SegmentationConfig().epsilon_angle
    if kind == "certified":
        width = _spread_for_bound(fraction * delta_phi_th)
        phi = np.where(flags, sign * lo * (1.0 + width * rng.random(n)), -phi)
    elif kind == "edge":
        hi = lo * (1.0 + _spread_for_bound(fraction * delta_phi_th))
        phi = sign * np.where(rng.random(n) < 0.5, lo, hi)
        phi[center] = sign * lo
        delta_phi_th = max(normalized_angle_difference(hi, lo, epsilon) * (1.0 + rel), 1e-300)
    elif kind == "near_eps":
        small = epsilon * (1.0 + rel)
        phi = sign * small * (1.0 + _spread_for_bound(fraction) * rng.random(n))
        phi[center] = sign * small
    elif kind == "mixed":
        flags[other] = valid[other] = True
        phi = sign * (0.06 + np.abs(phi))
        phi[other] = -phi[center]
    elif kind == "underflow":
        epsilon = 1e-200
        phi = sign * 1e-170 * (1.0 + fraction * rng.random(n))
    phi = np.where(valid, phi, 0.0)
    mask = ContactMask(flags, center_index=center)
    angles = LineFeatureAngles(phi, valid)
    cfg = SegmentationConfig(delta_phi_th=delta_phi_th, epsilon_angle=epsilon)
    region, certified = _grow_with_branch(grid, mask, angles, cfg)
    event(f"{kind}, certified={certified}")
    members, mean_angle, state = loop_grow_stick_region(grid, mask, angles, cfg)
    assert region.members == members
    assert region.mean_angle == mean_angle
    assert region.state is state
    assert region.stick_ratio == len(members) / mask.n_flagged
    # Both branches are hit: certified fields of either sign take the
    # component walk, fields with both signs take the loop.
    if kind == "certified":
        assert certified
    elif kind == "mixed":
        assert not certified


def test_growth_rejects_at_exact_threshold():
    # The threshold equals the rule's own value for the pair (hi, lo), so
    # the loop rejects every hi marker next to a lo centre; rounding alone
    # must not let the certificate claim otherwise.
    grid = MarkerGrid(rows=3, cols=3)
    center = 1 * grid.cols + 1
    mask = ContactMask(np.ones(grid.n_markers, bool), center_index=center)
    rng = np.random.default_rng(5)
    for lo, width in zip(rng.uniform(0.1, 20.0, 200), rng.uniform(1e-3, 0.5, 200)):
        for sign in (1.0, -1.0):
            phi = np.full(grid.n_markers, sign * lo * (1.0 + width))
            phi[center] = sign * lo
            cfg = SegmentationConfig(
                delta_phi_th=normalized_angle_difference(phi[0], phi[center], CFG.epsilon_angle)
            )
            angles = LineFeatureAngles(phi, np.ones(grid.n_markers, bool))
            region = grow_stick_region(grid, mask, angles, cfg)
            assert region.members == {center}
            assert region.state is ContactState.MACRO_SLIP


def test_growth_is_deterministic(grid20):
    scn = SimScenario(theta_trajectory=9.0, stick_radius=3.5, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.005, rng_seed=2)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    first = grow_stick_region(grid20, mask, angles, CFG)
    second = grow_stick_region(grid20, mask, angles, CFG)
    assert first.members == second.members
    assert first.mean_angle == second.mean_angle


def test_mean_angle_is_arithmetic_mean_of_members(grid20):
    scn = SimScenario(theta_trajectory=9.0, stick_radius=4.0, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.005, rng_seed=8)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    region = grow_stick_region(grid20, mask, angles, CFG)
    expected = float(np.mean([angles.angles[m] for m in sorted(region.members)]))
    assert region.mean_angle == pytest.approx(expected, rel=1e-12)


def test_huge_threshold_admits_whole_patch(grid20):
    scn = SimScenario(theta_trajectory=10.0, stick_radius=3.0, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    open_cfg = SegmentationConfig(delta_phi_th=1e9)
    region = grow_stick_region(grid20, mask, angles, open_cfg)
    assert region.members == frozenset(np.flatnonzero(mask.flags))
    assert region.state is ContactState.STICK


def test_vanishing_threshold_keeps_only_matching_angles(grid20):
    scn = SimScenario(theta_trajectory=10.0, stick_radius=3.0, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.0)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    tight_cfg = SegmentationConfig(delta_phi_th=1e-9)
    region = grow_stick_region(grid20, mask, angles, tight_cfg)
    center_angle = angles.angles[mask.center_index]
    for member in region.members:
        assert angles.angles[member] == pytest.approx(center_angle, abs=1e-7)


def test_smaller_stick_radius_gives_nested_region(grid20):
    members = {}
    for r_s in (4.0, 2.5):
        scn = SimScenario(theta_trajectory=10.0, stick_radius=r_s, contact_radius=6.0,
                          decay_exponent=1.5, noise_sigma=0.0)
        frame, _ = generate_frame(scn, 0.0)
        mask = detect_contact(grid20, frame, CFG)
        angles = line_feature_angles(grid20, frame)
        members[r_s] = grow_stick_region(grid20, mask, angles, CFG).members
    pos = grid20.reference_positions
    big_radius = max(math.hypot(*pos[m]) for m in members[4.0])
    for m in members[2.5]:
        assert math.hypot(*pos[m]) <= big_radius + grid20.pitch


def test_stick_ratio_non_increasing_across_preset_plateaus():
    scn = replace(three_lift_scenario(), noise_sigma=0.0)
    ratios = []
    for t in (2.5, 5.5, 8.5):  # plateau midpoints
        frame, _ = generate_frame(scn, t)
        mask = detect_contact(scn.grid, frame, CFG)
        angles = line_feature_angles(scn.grid, frame)
        region = grow_stick_region(scn.grid, mask, angles, CFG)
        assert region.state is not ContactState.MACRO_SLIP
        ratios.append(region.stick_ratio)
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize(
    "flags, center, n_angles, message",
    [
        (25, 20, 16, r"^contact mask has shape \(25,\), grid expects \(16,\)$"),
        (16, 5, 25, r"^angle record has shape \(25,\), grid expects \(16,\)$"),
        (16, 5, 9, r"^angle record has shape \(9,\), grid expects \(16,\)$"),
    ],
)
def test_growth_refuses_records_of_another_grid(flags, center, n_angles, message):
    grid = MarkerGrid(rows=4, cols=4)
    mask = ContactMask(np.ones(flags, dtype=bool), center_index=center)
    angles = LineFeatureAngles(np.full(n_angles, 1.0), np.ones(n_angles, dtype=bool))
    with pytest.raises(UsageError, match=message):
        grow_stick_region(grid, mask, angles, CFG)
