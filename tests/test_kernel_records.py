"""The public constructors accept every record a kernel makes.

``detect_contact``, ``line_feature_angles``, ``grow_stick_region``,
``estimate_frame`` and ``generate_frame`` build their records through a
route that skips the checks their inputs already passed. This oracle passes
each record they make back through its public constructor: the constructor
must accept it, and the two must agree field by field. Arrays agree when
their dtype, shape and bytes are equal and both are read-only.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pivotgauge import (
    ContactState,
    Frame,
    MarkerGrid,
    SegmentationConfig,
    SimScenario,
    SoftnessParams,
    estimate_frame,
    generate_frame,
)

from conftest import certificates_asked


def assert_public_twin(record) -> None:
    """``record``, rebuilt from its fields by its public constructor, is
    accepted and equal to it field by field, derived fields included."""
    own = vars(record)
    # Before the constructor runs: it would make an array of the record's own read-only.
    writeable = [name for name, value in own.items()
                 if isinstance(value, np.ndarray) and value.flags.writeable]
    assert not writeable, f"{type(record).__name__} holds writeable arrays {writeable}"
    twin = type(record)(**{f.name: getattr(record, f.name) for f in fields(record)})
    theirs = vars(twin)
    assert own.keys() == theirs.keys()
    for name, value in own.items():
        other = theirs[name]
        if isinstance(value, np.ndarray):
            assert isinstance(other, np.ndarray) and not other.flags.writeable, name
            assert (value.dtype, value.shape, value.tobytes()) == \
                (other.dtype, other.shape, other.tobytes()), name
        else:  # a record is kept as given; repr tells -0.0 from 0.0
            assert value is other or (type(value) is type(other) and repr(value) == repr(other)), name


def _rigid(grid, rng, theta_deg, translation):
    """Every marker moved by one rotation about a drawn point plus a translation."""
    pos = grid.reference_positions
    pivot = pos[rng.integers(grid.n_markers)] + rng.uniform(-0.5, 0.5, 2) * grid.pitch
    c, s = np.cos(np.radians(theta_deg)), np.sin(np.radians(theta_deg))
    off = pos - pivot
    rotated = np.column_stack([c * off[:, 0] - s * off[:, 1], s * off[:, 0] + c * off[:, 1]])
    return rotated - off + translation


# Frame kinds and the path each takes: "rotation" moves the grid rigidly, so
# every angle is one and growth is certified; "translation" has every angle 0,
# below epsilon, so growth takes the heap; "collapsed" folds the pressed
# marker's neighbours onto it, so the centre has no valid angle and growth
# stops early at MacroSlip; "unpressed" pushes no marker in and "shallow"
# presses below the contact threshold, the two no-contact masks; "random" and
# "simulated" (generate_frame's frame, with noise or without) take either path.
KINDS = ("rotation", "translation", "collapsed", "unpressed", "shallow", "random", "simulated")


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    rows=st.integers(2, 16),
    cols=st.integers(2, 16),
    pitch=st.sampled_from([0.7, 1.0, 1.3]),
    origin=st.one_of(st.none(), st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))),
    seed=st.integers(0, 2**31 - 1),
    theta=st.floats(1.0, 20.0),
    sign=st.sampled_from([1.0, -1.0]),
    noise_sigma=st.sampled_from([0.0, 0.005, 0.05]),
    delta_phi_th=st.sampled_from([0.05, 0.4, 3.0]),
    k=st.sampled_from([0.0, 0.5]),
)
def test_every_kernel_made_record_is_one_its_public_constructor_accepts(
        kind, rows, cols, pitch, origin, seed, theta, sign, noise_sigma, delta_phi_th, k):
    grid = MarkerGrid(rows=rows, cols=cols, pitch=pitch, origin=origin)
    rng = np.random.default_rng(seed)
    n = grid.n_markers
    cfg = SegmentationConfig(delta_phi_th=delta_phi_th)
    softness = SoftnessParams(k=k, l_xy=rng.uniform(-1, 1), l_yx=rng.uniform(-1, 1))
    d = np.zeros((n, 3))
    if kind == "simulated":
        a = grid.half_extent * rng.uniform(0.3, 1.0)
        cor = grid.reference_positions[rng.integers(n)] + rng.uniform(-0.5, 0.5, 2) * pitch
        scenario = SimScenario(
            grid=grid, contact_radius=a, cor=tuple(cor),
            stick_radius=a * rng.uniform(0.1, 1.0), theta_trajectory=sign * theta,
            translation_trajectory=tuple(rng.uniform(-0.3, 0.3, 2)),
            softness=softness, noise_sigma=noise_sigma, rng_seed=seed,
        )
        frame, _truth = generate_frame(scenario, float(rng.uniform(-5, 5)), int(rng.integers(4)))
        assert_public_twin(frame)
        event(f"generate_frame, noise_sigma={noise_sigma}")
    else:
        if kind == "rotation":
            d[:, :2] = _rigid(grid, rng, sign * theta, rng.uniform(-0.5, 0.5, 2))
            d[:, 2] = 0.5
        elif kind == "translation":
            d[:, :2] = rng.uniform(-0.5, 0.5, 2)
            d[:, 2] = 0.5
        elif kind == "collapsed":
            center = int(rng.integers(n))
            pos = grid.reference_positions
            for nbr in grid.neighbors[center]:
                d[nbr, :2] = pos[center] - pos[nbr]
            d[center, 2] = 1.0
        elif kind == "unpressed":
            d[:, :2] = rng.uniform(-0.5, 0.5, (n, 2))
            d[:, 2] = -rng.uniform(0.0, 0.5, n)
        elif kind == "shallow":
            d = rng.uniform(-0.05, 0.05, (n, 3))
            d[rng.integers(n), 2] = 0.05
        else:
            d[:, :2] = rng.uniform(-0.3, 0.3, (n, 2)) * pitch
            d[:, 2] = rng.uniform(-0.2, 1.0, n)
        frame = Frame(timestamp=0.0, displacements=d)
    with certificates_asked() as held:
        result = estimate_frame(grid, frame, cfg, softness)
    state = result.region.state
    event(f"{kind}: {state}, certificate {held}")
    if kind == "rotation":
        assert held == [True]
    elif kind == "translation":
        assert held == [False]
    elif kind == "collapsed":
        assert held == [] and state is ContactState.MACRO_SLIP and not len(result.region.members)
    elif kind in ("unpressed", "shallow"):
        assert held == [] and state is ContactState.NO_CONTACT
    assert_public_twin(result.mask)
    assert_public_twin(result.region)
    if result.angles is not None:
        assert_public_twin(result.angles)
    assert_public_twin(result)
