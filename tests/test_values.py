"""One rule per value: every numeric input, whichever route it takes (a
config document, a stream header or line, or a Python constructor), is
checked by ``core.finite_number``, and every trajectory length by
``simulate.frame_count``."""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotgauge import (
    ConfigError,
    Frame,
    HarnessConfig,
    MarkerGrid,
    PiecewiseLinear,
    SegmentationConfig,
    SimScenario,
    SoftnessParams,
    UsageError,
    generate_trajectory,
)
from pivotgauge.cli import main
from pivotgauge.config import build_config
from pivotgauge.core import MAX_FRAMES, finite_number
from pivotgauge.simulate import frame_count
from pivotgauge.streams import read_frames, write_header

from conftest import finite_steps_and_slopes

_NOT_NUMBERS = (True, "1", None, math.nan, math.inf, 10**400)

# Every float field of the types a config builds, by section and key.
_NUMBER_FIELDS = (
    (MarkerGrid, "grid", "pitch"),
    (SoftnessParams, "softness", "k"),
    (SoftnessParams, "softness", "l_xy"),
    (SoftnessParams, "softness", "l_yx"),
    (SegmentationConfig, "segmentation", "contact_threshold"),
    (SegmentationConfig, "segmentation", "normal_filter_ratio"),
    (SegmentationConfig, "segmentation", "delta_phi_th"),
    (SegmentationConfig, "segmentation", "epsilon_angle"),
    (SimScenario, "scenario", "contact_radius"),
    (SimScenario, "scenario", "max_indent"),
    (SimScenario, "scenario", "decay_exponent"),
    (SimScenario, "scenario", "noise_sigma"),
    (HarnessConfig, "harness", "rate_hz"),
    (HarnessConfig, "harness", "t_start"),
    (HarnessConfig, "harness", "t_end"),
)
# The whole-number fields; 10**400 is whole, and refused as beyond float range.
_WHOLE_FIELDS = (
    (MarkerGrid, "grid", "rows"),
    (MarkerGrid, "grid", "cols"),
    (SimScenario, "scenario", "rng_seed"),
    (SegmentationConfig, "segmentation", "min_stick_markers"),
    (HarnessConfig, "harness", "trials"),
)


def test_finite_number_accepts_numbers_only():
    for value in (1, -2.5, 0, np.float32(0.5), np.int64(3), np.float64(1e308), 10**308):
        number = finite_number(value, "x")
        assert type(number) is float and number == float(value)
    for value in (*_NOT_NUMBERS, False, np.True_, -math.inf, -(10**400), np.float32("inf"),
                  np.float64("nan"), [1.0], np.array(1.0), b"1"):
        with pytest.raises(UsageError, match=r"^x must be a finite number, got "):
            finite_number(value, "x")


@pytest.mark.parametrize("cls, section, key, value", [
    pytest.param(cls, section, key, value, id=f"{section}.{key}={value!r:.8}")
    for fields_, values in ((_NUMBER_FIELDS, _NOT_NUMBERS), (_WHOLE_FIELDS, _NOT_NUMBERS))
    for cls, section, key in fields_
    for value in values
])
def test_every_numeric_field_refuses_non_numbers(cls, section, key, value):
    with pytest.raises(UsageError, match=rf"^{section}\.{key} must be a"):
        cls(**{key: value})
    with pytest.raises(ConfigError, match=rf"^invalid config value: {section}\.{key} must be a"):
        build_config({section: {key: value}})


@pytest.mark.parametrize("value", _NOT_NUMBERS, ids=repr)
def test_frame_timestamp_refuses_non_numbers(value):
    with pytest.raises(UsageError, match="^frame timestamp must be a finite number"):
        Frame(value, np.zeros((4, 3)))


def test_fields_keep_the_numbers_they_were_given():
    grid = MarkerGrid(pitch=1)
    out = io.StringIO()
    write_header(out, grid)
    assert json.loads(out.getvalue())["pitch"] == 1 and '"pitch": 1,' in out.getvalue()
    assert grid.reference_positions.dtype == float
    assert type(SoftnessParams(k=1).k) is int and type(HarnessConfig(t_end=3).t_end) is int


def test_boolean_breakpoints_are_refused():
    breakpoints = [[0, True], [1, 2]]
    with pytest.raises(UsageError, match="scenario.theta_trajectory must be a number"):
        SimScenario(theta_trajectory=breakpoints)
    with pytest.raises(ConfigError, match="invalid config value: scenario.theta_trajectory"):
        build_config({"scenario": {"theta_trajectory": breakpoints}})
    with pytest.raises(ConfigError, match="invalid config value: scenario.translation_traj"):
        build_config({"scenario": {"translation_trajectory": [[0, 0, 1], [1, 2, False]]}})
    # A list nested deeper than a row's entries is refused by its type, not recursed into.
    deep = 1.0
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(UsageError, match="scenario.stick_radius must be a number"):
        SimScenario(stick_radius=[[0, deep], [1, 2]])
    # Called directly, PiecewiseLinear holds the same rule, for arrays too: it
    # reads its rows with the reader Frame uses, then checks finiteness.
    for points in ([[0, "1"], [1, True]], [[0, 1.0], [1, True]], [[0, deep], [1, 2]],
                   np.array([[False, True], [True, True]]), np.array([[0.0, 1.0], [1.0, math.nan]])):
        with pytest.raises(UsageError, match="piecewise-linear breakpoint"):
            PiecewiseLinear(points)
    assert PiecewiseLinear([[0, 1], [2, 3]])(1) == 2.0


def test_frame_count_is_the_one_rule():
    assert frame_count(0.0, 1.0, 30.0) == 31
    assert frame_count(0.0, 12.0, 30.0) == 361
    with pytest.raises(UsageError, match="t_end must exceed t_start"):
        frame_count(5.0, 1.0, 30.0)
    with pytest.raises(UsageError, match="rate_hz must be positive"):
        frame_count(0.0, 1.0, 0.0)
    with pytest.raises(UsageError, match=f"exceeds {MAX_FRAMES} frames"):
        frame_count(0.0, MAX_FRAMES, 1.0 + 1e-9)
    for harness in ({"t_end": 0}, {"t_start": 5}, {"t_start": 1.0, "t_end": 1.0}):
        with pytest.raises(ConfigError, match="invalid config value: t_end must exceed t_start"):
            build_config({"harness": harness})


@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("position, name", [(0, "t_start"), (1, "t_end"), (2, "rate_hz")])
def test_trajectory_numbers_follow_the_rule(position, name, value):
    args = [0.0, 2.0, 1.0]
    args[position] = value
    with pytest.raises(UsageError, match=f"{name} must be a finite number"):
        generate_trajectory(SimScenario(), *args)


def test_trajectory_of_int_inputs_keeps_its_timestamps():
    ints = [frame.timestamp for frame, _ in generate_trajectory(SimScenario(), 1, 2, 3)]
    floats = [frame.timestamp for frame, _ in generate_trajectory(SimScenario(), 1.0, 2.0, 3.0)]
    assert ints == floats and all(type(t) is float for t in ints)


@pytest.mark.parametrize("override", ["harness.t_end=0", "harness.t_start=5"])
def test_empty_time_range_is_refused_before_output(override, tmp_path, capsys):
    out = tmp_path / "dynamic.csv"
    assert main(["dynamic", "--set", override, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: invalid config value: t_end must exceed t_start" in captured.err
    assert not out.exists()


def test_header_and_stream_numbers_follow_the_rule(tmp_path, capsys):
    header = {"rows": 2, "cols": 2, "pitch": 1.0, "origin": [True, False]}
    stream = tmp_path / "origin.ndjson"
    stream.write_text(json.dumps(header) + "\n")
    assert main(["estimate", "--in", str(stream)]) == 1
    assert "bad stream header: origin must be two finite numbers" in capsys.readouterr().err

    grid = MarkerGrid(rows=2, cols=2)
    d = [[0.0, 0.0, 0.0]] * 4
    lines = [json.dumps({"t": t, "d": d}) for t in ("0.5", True, 1.0)]
    warn = io.StringIO()
    frames = list(read_frames(iter(lines), grid, warn=warn))
    assert [frame.timestamp for frame in frames] == [1.0]
    warnings = warn.getvalue().splitlines()
    assert warnings == [
        "warning: skipping frame line 2: frame timestamp must be a finite number, got '0.5'",
        "warning: skipping frame line 3: frame timestamp must be a finite number, got True",
    ]


def test_frame_displacements_follow_the_rule():
    with pytest.raises(UsageError, match="^displacements must be finite numbers, got bool$"):
        Frame(0.0, [[True, False, 1]])
    for d in ([[0.0, 0.0, "1"]], [[0.0, 0.0, None]], [[0.0, [1.0], 0.0]], [[np.True_, 0, 0]],
              [[10**400, 0, 0]], [[0.0, 0.0]], [], 3.0, None, np.zeros((1, 3), dtype=bool),
              np.zeros((1, 3), dtype=object), np.zeros((1, 3), dtype=complex)):
        with pytest.raises(UsageError, match="^displacements "):
            Frame(0.0, d)
    # numpy reals pass in rows as in finite_number; arrays need a real dtype.
    row = [np.float32(0.5), np.int64(3), np.uint8(2)]
    assert Frame(0.0, [row]).displacements.tobytes() == np.asarray([row], float).tobytes()
    for dtype in (np.int32, np.uint16, np.float32):
        array = np.arange(6, dtype=dtype).reshape(2, 3)
        assert np.array_equal(Frame(0.0, array).displacements, array.astype(float))


def test_rows_are_lists_tuples_or_arrays():
    # A dict row would be read as its keys, a set row in hash order and a
    # bytes row as its byte values.
    for rows in ([{1.0: "x", 2.0: "y", 3.0: "z"}, [4, 5, 6]], [[1, 2, 3], {4, 5, 6}],
                 [frozenset({1, 2, 3})], [b"abc", b"def"], [bytearray(b"abc")], ["abc"]):
        with pytest.raises(UsageError, match="^displacements must be lists, tuples or arrays "):
            Frame(0.0, rows)
    for points in ([{0: "a", 1: "b"}, range(1, 3)], [b"\x00\x01", b"\x02\x03"]):
        with pytest.raises(UsageError, match="^piecewise-linear breakpoints must be lists, "):
            PiecewiseLinear(points)
        with pytest.raises(UsageError, match="^scenario.theta_trajectory must be a number or "):
            SimScenario(theta_trajectory=points)
    # A dict or set of rows has no order of rows either.
    for rows, kind in (({(1, 2, 3): "x"}, "dict"), ({(1, 2, 3)}, "set")):
        with pytest.raises(UsageError, match=f"^displacements must be lists, .* got {kind}$"):
            Frame(0.0, rows)
    rows = [[0, 1, 2], (0, 1, 2), range(3), np.arange(3.0)]
    assert Frame(0.0, rows).displacements.tolist() == [[0.0, 1.0, 2.0]] * 4
    assert PiecewiseLinear([range(2), (1, 3), np.array([2.0, 5.0])])(1.5) == 4.0


# Values no displacement component may be, as a stream line's JSON gives them.
_NOT_COMPONENTS = ("1", True, False, None, [1.0], [[1.0, 2.0, 3.0]], {"x": 1.0},
                   10**400, -(10**400))


@st.composite
def _displacement_lists(draw, n):
    """A stream line's ``"d"`` for n markers, and whether it breaks the rule."""
    number = st.one_of(st.floats(-5.0, 5.0), st.integers(-(2**64), 2**64), st.just(10**300))
    d = draw(st.lists(st.lists(number, min_size=3, max_size=3), min_size=n, max_size=n))
    defect = draw(st.sampled_from(["none", "none", "component", "width", "not rows"]))
    row = draw(st.integers(0, n - 1))
    if defect == "component":
        d[row][draw(st.integers(0, 2))] = draw(st.sampled_from(_NOT_COMPONENTS))
    elif defect == "width":
        d[row] = draw(st.sampled_from([[], d[row][:2], d[row] + [0.0]]))
    elif defect == "not rows":
        d = draw(st.sampled_from([None, 1.0, "abc", {"d": d}, d[row]]))
    return d, defect != "none"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stream_displacements_follow_the_rule(data):
    grid = MarkerGrid(rows=2, cols=data.draw(st.integers(2, 3)))
    drawn = data.draw(st.lists(_displacement_lists(grid.n_markers), min_size=1, max_size=6))
    lines = [json.dumps({"t": t, "d": d}) for t, (d, _bad) in enumerate(drawn)]
    warn = io.StringIO()
    frames = list(read_frames(iter(lines), grid, warn=warn))
    # A good line gives the bytes that a plain float conversion gives.
    assert [(frame.timestamp, frame.displacements.tobytes()) for frame in frames] == [
        (t, np.asarray(d, dtype=float).tobytes()) for t, (d, bad) in enumerate(drawn) if not bad
    ]
    # A bad line is skipped with one warning that names it.
    warned = [int(w.split()[4].rstrip(":")) for w in warn.getvalue().splitlines()]
    assert warned == [lineno for lineno, (_d, bad) in enumerate(drawn, start=2) if bad]


# Each scenario time input: the attribute holding its function, its row
# width, and the entries a good breakpoint list may hold (a stick radius
# must lie within the default contact radius).
_TIME_INPUTS = {
    "theta_trajectory": ("_theta_fn", 2, st.one_of(st.floats(-30.0, 30.0),
                                                   st.integers(-(2**64), 2**64))),
    "stick_radius": ("_stick_fn", 2, st.one_of(st.floats(0.5, 8.0), st.integers(1, 8))),
    "translation_trajectory": ("_translation_fn", 3, st.one_of(st.floats(-5.0, 5.0),
                                                               st.just(10**300))),
}


@st.composite
def _breakpoint_lists(draw, width, entries):
    """A breakpoint list of rows ``width`` wide, and whether it breaks the rule."""
    ts = draw(st.lists(st.one_of(st.integers(0, 99), st.floats(0.0, 99.0)), min_size=2,
                       max_size=5, unique=True).map(sorted))
    points = [[t, *draw(st.lists(entries, min_size=width - 1, max_size=width - 1))] for t in ts]
    defect = draw(st.sampled_from(["none", "none", "component", "component", "component",
                                   "width", "widths", "not rows"]))
    row = draw(st.integers(0, len(points) - 1))
    if defect == "component":
        points[row][draw(st.integers(0, width - 1))] = draw(st.sampled_from(_NOT_COMPONENTS))
    elif defect == "width":
        points[row] = draw(st.sampled_from([[], points[row][:-1], points[row] + [0.0]]))
    elif defect == "widths":  # one width for every row, but not the input's
        points = [p + [0.0] for p in points]
    elif defect == "not rows":
        points = draw(st.sampled_from([True, "abc", {"d": points}, points[row], [points]]))
    return points, defect != "none"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_breakpoint_lists_follow_the_rule(data):
    name = data.draw(st.sampled_from(sorted(_TIME_INPUTS)))
    attr, width, entries = _TIME_INPUTS[name]
    points, bad = data.draw(_breakpoint_lists(width, entries))
    if bad or not finite_steps_and_slopes(points):
        with pytest.raises(UsageError, match=rf"^scenario\.{name} must be "):
            SimScenario(**{name: points})
        with pytest.raises(ConfigError, match=rf"^invalid config value: scenario\.{name} "):
            build_config({"scenario": {name: json.loads(json.dumps(points))}})
        return
    # A good list gives the bytes that a plain float conversion gives.
    expected = np.asarray(points, dtype=float).tobytes()
    for fn in (getattr(SimScenario(**{name: points}), attr), PiecewiseLinear(points)):
        assert np.column_stack([fn._t, fn._v]).tobytes() == expected


# Config fuzzing: random JSON values for every key of every section.
_SECTIONS = {
    "grid": MarkerGrid,
    "scenario": SimScenario,
    "segmentation": SegmentationConfig,
    "softness": SoftnessParams,
    "harness": HarnessConfig,
}
_KEYS = {
    section: [f.name for f in fields(cls) if f.name not in _SECTIONS]
    for section, cls in _SECTIONS.items()
}
# Small integers keep every grid small: a grid or trajectory over its limit is
# refused before anything of that size is allocated.
_SCALARS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.integers(-3, 40),
    st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), 10**300, 1e308, 0.5, 2.0]),
)
# Breakpoint lists of any width, wrong ones included, and unordered times.
_BREAKPOINTS = st.lists(
    st.lists(st.one_of(st.floats(-20.0, 20.0), _SCALARS), min_size=0, max_size=4),
    min_size=0, max_size=4,
)
_HOSTILE = st.one_of(
    _SCALARS,
    _BREAKPOINTS,
    st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)
# Values a key may well hold, so that some documents load and their fields
# can be inspected; each document also carries up to two hostile values.
_PAIR = st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)
_RAMP = st.one_of(
    st.floats(0.1, 4.0),
    st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)).map(lambda v: [[0, v[0]], [1, v[1]]]),
)
_PLAUSIBLE = {"origin": _PAIR, "cor": _PAIR, "translation_trajectory": _PAIR,
              "theta_trajectory": _RAMP, "stick_radius": _RAMP,
              **{key: st.integers(2, 12) for _cls, _section, key in _WHOLE_FIELDS}}
_SMALL = st.one_of(st.integers(1, 12), st.floats(0.01, 0.9), st.floats(0.01, 12.0))


@st.composite
def _documents(draw):
    document = {}
    for section, keys in _KEYS.items():
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        if chosen or draw(st.booleans()):
            document[section] = {key: draw(_PLAUSIBLE.get(key, _SMALL)) for key in chosen}
    present = [(section, key) for section in document for key in document[section]]
    if present:
        for section, key in draw(st.lists(st.sampled_from(present), max_size=2)):
            document[section][key] = draw(_HOSTILE)
    return document


def _numbers_in(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers_in(item)
    else:
        yield value


@settings(max_examples=300, deadline=None)
@given(document=_documents())
def test_build_config_returns_or_raises_config_error(document):
    try:
        config = build_config(json.loads(json.dumps(document)))
    except ConfigError:
        return
    for section in _SECTIONS:
        typed = getattr(config, section)
        for key in _KEYS[section]:
            for value in _numbers_in(getattr(typed, key)):
                assert not isinstance(value, bool), (section, key, value)
                if isinstance(value, (int, float)):
                    assert -sys.float_info.max <= value <= sys.float_info.max, (section, key)


@settings(max_examples=10, deadline=None)
@given(document=_documents())
def test_cli_gives_exit_0_or_2_on_fuzzed_documents(document, tmp_path_factory):
    # A short trajectory, so a document that loads runs in a moment.
    document["harness"] = {"t_end": 0.1}
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "config.json"
    path.write_text(json.dumps(document))
    out = directory / "out.csv"
    assert main(["dynamic", "--config", str(path), "--out", str(out)]) in (0, 2)

