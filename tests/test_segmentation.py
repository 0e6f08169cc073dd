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
    SoftnessParams,
    UsageError,
    detect_contact,
    estimate_frame,
    generate_frame,
    grow_stick_region,
    line_feature_angles,
    normalized_angle_difference,
    three_lift_scenario,
)
from pivotgauge.segmentation import _component, _distance_order
from conftest import (
    brute_force_flags, certificates_asked, f1_against_mask, loop_grow_stick_region
)


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


@pytest.mark.parametrize("dz", [0.0, -0.3])
def test_shear_without_a_marker_pressed_in_is_no_contact(grid20, dz):
    # Uniform 0.2 mm shear over a surface nothing presses into: every
    # marker's modulus clears the contact threshold, yet there is no contact.
    disp = np.zeros((grid20.n_markers, 3))
    disp[:, 0] = 0.2
    disp[:, 2] = dz
    frame = Frame(0.0, disp)
    mask = detect_contact(grid20, frame, CFG)
    assert not mask.contact_detected and mask.n_flagged == 0
    result = estimate_frame(grid20, frame, CFG, SoftnessParams())
    assert result.region.state is ContactState.NO_CONTACT and result.theta == 0.0
    assert result.region.members.tolist() == []
    assert result.angles is None  # none are computed without contact


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
    assert region.members.tolist() == np.flatnonzero(mask.flags).tolist()
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
    assert region.members.tolist() == []
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
    assert region.members.tolist() == []


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
                if nbr in region.members and nbr not in seen:
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
    with certificates_asked() as held:
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
    # An off-centre origin: position differences round, so distances that
    # would tie on a centred grid may differ in their last bits.
    origin=st.one_of(st.none(), st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))),
    more_centers=st.integers(0, 3),
)
# A 3x3 field of 1e-170 with epsilon 1e-200, every marker flagged and valid
# and the centre at index 4: the centre's difference to itself is inf.
@example(kind="underflow", rows=3, cols=3, pitch=1.0, base=0.0, spread=1.0, seed=241,
         delta_phi_th=0.4, sign=1.0, lo=1.0, fraction=0.0, rel=0.0, origin=None, more_centers=0)
# Ten centres on one grid, then back: growth keeps the orders of eight, so
# the walk back reuses kept orders and remakes dropped ones.
@example(kind="random", rows=6, cols=7, pitch=0.7, base=3.0, spread=2.0, seed=7,
         delta_phi_th=0.4, sign=1.0, lo=1.0, fraction=0.0, rel=0.0,
         origin=(123.456, -98.7), more_centers=9)
# The same for certified growth from ten admissible sets: growth keeps the
# components of eight (grid, centre, admissible set) keys.
@example(kind="certified", rows=6, cols=7, pitch=1.0, base=0.0, spread=1.0, seed=5,
         delta_phi_th=0.4, sign=-1.0, lo=2.0, fraction=0.5, rel=0.0, origin=None,
         more_centers=9)
def test_growth_matches_loop_oracle(kind, rows, cols, pitch, base, spread, seed, delta_phi_th,
                                    sign, lo, fraction, rel, origin, more_centers):
    grid = MarkerGrid(rows=rows, cols=cols, pitch=pitch, origin=origin)
    rng = np.random.default_rng(seed)
    n = grid.n_markers
    center = int(rng.integers(n))
    other = (center + 1) % n
    flags = rng.random(n) < 0.85
    valid = rng.random(n) < 0.95
    flags[center] = valid[center] = True
    phi = base + spread * rng.standard_normal(n)
    epsilon = SegmentationConfig().epsilon_angle
    if kind in ("certified", "edge"):
        # A valid angle lies within +-180 degrees, so a field's ratio hi / lo
        # is capped (bound 50 is a ratio of about 2502) and lo scaled to fit,
        # a degree clear of rounding: the rule's difference depends on that
        # ratio alone, and lo stays above epsilon.
        width = _spread_for_bound(min(fraction * delta_phi_th, 50.0))
        lo = min(lo, 179.0 / (1.0 + width))
    if kind == "certified":
        phi = np.where(flags, sign * lo * (1.0 + width * rng.random(n)), -phi)
    elif kind == "edge":
        hi = lo * (1.0 + width)
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
    assert region.members.tolist() == sorted(members)
    assert region.mean_angle == mean_angle
    assert region.state is state
    assert region.stick_ratio == len(members) / mask.n_flagged
    # Both branches are hit: certified fields of either sign take the
    # component walk, fields with both signs take the loop.
    if kind == "certified":
        assert certified
    elif kind == "mixed":
        assert not certified
    admissible = np.flatnonzero(flags & valid)
    if certified:
        # A second certified field over the same mask, its admissible angles
        # shuffled, reuses the component the grid kept for the first.
        shuffled = phi.copy()
        shuffled[admissible] = rng.permutation(phi[admissible])
        again = LineFeatureAngles(shuffled, valid)
        region_again, still_certified = _grow_with_branch(grid, mask, again, cfg)
        assert still_certified and region_again.members is region.members
        members, mean_angle, state = loop_grow_stick_region(grid, mask, again, cfg)
        assert region_again.members.tolist() == sorted(members)
        assert region_again.mean_angle == mean_angle
        assert region_again.state is state
        assert region_again.stick_ratio == len(members) / mask.n_flagged
    # More centres among the admissible markers, grown on the same grid object,
    # each with the centres before it left out: distinct admissible sets.
    extra = rng.permutation(admissible)[:more_centers].tolist()
    other_masks = []
    for i, other_center in enumerate(extra):
        other_flags = flags.copy()
        other_flags[extra[:i]] = False
        other_masks.append(ContactMask(other_flags, center_index=other_center))
    for other_mask in other_masks + other_masks[::-1]:
        region = grow_stick_region(grid, other_mask, angles, cfg)
        members, mean_angle, state = loop_grow_stick_region(grid, other_mask, angles, cfg)
        assert (region.members.tolist(), region.mean_angle, region.state) == (sorted(members), mean_angle, state)


def test_heap_growth_makes_each_centres_distance_order_once():
    _distance_order.cache_clear()
    grid = MarkerGrid(rows=6, cols=7, pitch=0.9, origin=(10.3, -4.4))
    rng = np.random.default_rng(3)
    n = grid.n_markers
    everywhere = np.ones(n, dtype=bool)
    # Angles of both signs: no certificate, so every call takes the heap.
    angles = LineFeatureAngles(rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n)), everywhere)
    centers = (8, 30, 8, 8, 30, 17, 30, 8)
    masks = [ContactMask(everywhere, center_index=center) for center in centers]
    expected = [loop_grow_stick_region(grid, mask, angles, CFG) for mask in masks]
    hypot, made = np.hypot, []

    def counting(*args, **kwargs):
        made.append(args)
        return hypot(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "hypot", counting)
        for mask, (members, mean_angle, state) in zip(masks, expected):
            region, certified = _grow_with_branch(grid, mask, angles, CFG)
            assert not certified
            assert (region.members.tolist(), region.mean_angle, region.state) == (sorted(members), mean_angle, state)
    assert len(made) == len(set(centers))


def test_certified_growth_walks_each_kept_component_once():
    _component.cache_clear()
    grid = MarkerGrid(rows=6, cols=7, pitch=0.9)
    rng = np.random.default_rng(4)
    n = grid.n_markers
    flags = rng.random(n) < 0.8
    flags[20] = True
    everywhere = np.ones(n, dtype=bool)
    mask = ContactMask(flags, center_index=20)
    # Three fields of one sign within 5% of each other: every one is certified.
    fields = [LineFeatureAngles(base * (1.0 + 0.05 * rng.random(n)), everywhere)
              for base in (2.0, 3.0, -4.0)]
    regions = []
    for angles in fields:
        region, certified = _grow_with_branch(grid, mask, angles, CFG)
        members, mean_angle, state = loop_grow_stick_region(grid, mask, angles, CFG)
        assert certified
        assert (region.members.tolist(), region.mean_angle, region.state) == (sorted(members), mean_angle, state)
        regions.append(region)
    assert _component.cache_info().misses == 1
    assert all(region.members is regions[0].members for region in regions)
    assert len({region.mean_angle for region in regions}) == 3
    # One marker of the component fewer is another admissible set.
    fewer = flags.copy()
    fewer[max(regions[0].members)] = False
    fewer_mask = ContactMask(fewer, center_index=20)
    region = grow_stick_region(grid, fewer_mask, fields[0], CFG)
    assert _component.cache_info().misses == 2
    assert region.members.tolist() == sorted(loop_grow_stick_region(grid, fewer_mask, fields[0], CFG)[0])
    assert len(region.members) < len(regions[0].members)
    index = _component(grid, 20, flags.tobytes())
    assert _component.cache_info().misses == 2
    assert index is regions[0].members
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0


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
            assert region.members.tolist() == [center]
            assert region.state is ContactState.MACRO_SLIP


def test_growth_is_deterministic(grid20):
    scn = SimScenario(theta_trajectory=9.0, stick_radius=3.5, contact_radius=6.0,
                      decay_exponent=1.5, noise_sigma=0.005, rng_seed=2)
    frame, _ = generate_frame(scn, 0.0)
    mask = detect_contact(grid20, frame, CFG)
    angles = line_feature_angles(grid20, frame)
    first = grow_stick_region(grid20, mask, angles, CFG)
    second = grow_stick_region(grid20, mask, angles, CFG)
    assert first.members.tolist() == second.members.tolist()
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
    assert region.members.tolist() == np.flatnonzero(mask.flags).tolist()
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
