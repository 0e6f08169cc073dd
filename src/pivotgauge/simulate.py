"""Synthetic elastomer-contact displacement fields with full ground truth.

The generative surface model is a Coulomb-style stick/slip annulus: markers
inside the stick radius co-rotate rigidly with the object-side surface,
markers in the slip annulus rotate by a power-law-attenuated fraction of
that angle, and the field is tapered smoothly to zero outside the contact
patch. The normal component follows a Hertz-like indentation profile whose
only job is to exercise contact detection; its amplitude is decoupled from
the tangential mechanics.

Sign convention: when the object pivots by +theta (the reported angle),
the elastomer surface rotates by -theta / (1 + k), where k is the
elastomer/object shear-modulus ratio. All ground-truth quantities carry the
object-side sign.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence, Union

import numpy as np

from .core import (
    MAX_DISPLACEMENT_MM,
    MAX_FRAMES,
    MAX_GRID_MM,
    Frame,
    MarkerGrid,
    SoftnessParams,
    UsageError,
    _made,
    check_displacements,
    finite_number,
    finite_pair,
    frozen_array,
    number_rows,
    whole_number,
)


def _time_allowance(*times: float) -> float:
    """How far a computed time t0 + i / rate may round, where ``times`` holds the largest
    |time|: by two roundings, each within half the float spacing near a result up to twice it."""
    return 2 * math.ulp(max(map(abs, times)))


class PiecewiseLinear:
    """Piecewise-linear time function over the closed domain of its breakpoints.

    ``points`` is a sequence of (t, v0[, v1...]) rows of one width with
    strictly increasing t, each entry a finite number, read by
    ``core.number_rows``. Every t step and every slope between neighbouring
    rows must be finite too, so interpolation cannot overflow. Evaluation
    beyond the domain by more than ``_time_allowance``, or at a nan or
    infinite time, is a usage error.
    """

    def __init__(self, points: Sequence[Sequence[float]]):
        arr = number_rows(points, "piecewise-linear breakpoints")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise UsageError("piecewise-linear input needs >= 2 rows of (t, value...)")
        if not np.isfinite(arr).all():
            raise UsageError("piecewise-linear breakpoints must be finite numbers")
        if not np.all(arr[1:, 0] > arr[:-1, 0]):  # no subtraction to overflow
            raise UsageError("piecewise-linear breakpoints must have strictly increasing t")
        # In Python floats a step or slope beyond float range is inf, with no warning.
        t, *values = arr.T.tolist()
        steps = [t1 - t0 for t0, t1 in zip(t, t[1:])]
        slopes = [(v1 - v0) / step for v in values for v0, v1, step in zip(v, v[1:], steps)]
        if not all(map(math.isfinite, steps + slopes)):
            raise UsageError("piecewise-linear breakpoints must have finite t steps and slopes")
        self._t = arr[:, 0]
        self._v = arr[:, 1:]

    def __call__(self, t: float) -> Union[float, np.ndarray]:
        t0, t1 = float(self._t[0]), float(self._t[-1])
        # Written so that a nan t fails, and an infinite one, whose allowance is inf.
        if not max(t0 - t, t - t1) <= _time_allowance(t, t0, t1) < math.inf:
            raise UsageError(f"t={t} outside trajectory domain [{t0}, {t1}]")
        if self._v.shape[1] == 1:
            return float(np.interp(t, self._t, self._v[:, 0]))
        return np.array([np.interp(t, self._t, self._v[:, j]) for j in range(self._v.shape[1])])


def _time_fn(value, name: str, shape: tuple[int, ...]) -> Callable[[float], Any]:
    """A function of time from a constant of ``shape`` (``()`` or ``(2,)``) or a
    breakpoint list of ``(t, value...)`` rows, for ``scenario.name``."""
    name = f"scenario.{name}"
    try:
        if not (np.iterable(value) and any(map(np.iterable, value))):  # no rows: a constant
            constant = finite_pair(value, name) if shape else finite_number(value, name)
            return lambda t: constant
        fn = PiecewiseLinear(value)
        if fn._v.shape[1] != math.prod(shape):
            raise UsageError(f"breakpoint rows must be {1 + math.prod(shape)} wide")
        return fn
    except UsageError as exc:
        kind = "a 2-vector" if shape else "a number"
        raise UsageError(f"{name} must be {kind} or a breakpoint list: {exc}") from exc


def _extremes(fn: Callable[[float], Any]) -> list[float]:
    """Every value a ``_time_fn`` function takes at a breakpoint, or its
    constant: a piecewise-linear function's extremes lie among them."""
    return np.ravel(fn._v if isinstance(fn, PiecewiseLinear) else fn(0.0)).tolist()


# Noise a scenario's field is allowed beyond its noiseless bound, in units of
# noise_sigma: a normal draw exceeds it with a chance of about 1e-23.
NOISE_ALLOWANCE_SIGMAS = 10


@dataclass(frozen=True, eq=False)
class SimScenario:
    """Generative parameters for one synthetic contact experiment.

    ``theta_trajectory``, ``stick_radius`` (within (0, contact_radius]) and
    ``translation_trajectory`` (2-vectors) are each a constant or breakpoints.
    ``decay_exponent`` controls how sharply the slip annulus decouples from
    the stick core (larger = sharper boundary).
    """

    grid: MarkerGrid = field(default_factory=MarkerGrid)
    contact_radius: float = 8.0
    max_indent: float = 0.5
    cor: tuple[float, float] = (0.0, 0.0)
    stick_radius: Union[float, Sequence, None] = None  # default: contact_radius
    theta_trajectory: Union[float, Sequence] = 0.0
    translation_trajectory: Sequence = (0.0, 0.0)
    decay_exponent: float = 2.0
    softness: SoftnessParams = field(default_factory=SoftnessParams)
    noise_sigma: float = 0.005
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_indent", "decay_exponent"):
            value = getattr(self, name)
            if not finite_number(value, f"scenario.{name}") > 0:
                raise UsageError(f"scenario.{name} must be positive, got {value!r}")
        if not finite_number(self.noise_sigma, "scenario.noise_sigma") >= 0:
            raise UsageError(f"scenario.noise_sigma must be >= 0, got {self.noise_sigma!r}")
        object.__setattr__(self, "rng_seed", whole_number(self.rng_seed, "scenario.rng_seed"))
        if self.rng_seed < 0:
            raise UsageError(f"scenario.rng_seed must be >= 0, got {self.rng_seed}")
        radius = finite_number(self.contact_radius, "scenario.contact_radius")
        if not 0 < radius <= self.grid.half_extent:
            raise UsageError(
                f"scenario.contact_radius must lie in (0, {self.grid.half_extent}], "
                f"got {self.contact_radius}"
            )
        stick = self.stick_radius if self.stick_radius is not None else self.contact_radius
        cor = finite_pair(self.cor, "scenario.cor")
        if max(map(abs, cor)) > MAX_GRID_MM:  # like the grid, so the field's radii stay finite
            raise UsageError(f"scenario.cor must lie within +-{MAX_GRID_MM:g} mm, got {cor}")
        object.__setattr__(self, "cor", cor)
        object.__setattr__(self, "_stick_fn", _time_fn(stick, "stick_radius", ()))
        object.__setattr__(self, "_theta_fn", _time_fn(self.theta_trajectory, "theta_trajectory", ()))
        translation_fn = _time_fn(self.translation_trajectory, "translation_trajectory", (2,))
        object.__setattr__(self, "_translation_fn", translation_fn)
        # generate_frame's (t, field inputs as float64 bytes, noiseless displacements,
        # truth) of the last field made, with the last t that asked for it.
        object.__setattr__(self, "_field_memo", None)
        # _noiseless_field's read-only (stick radius, decay profile, stick mask)
        # of the last field made.
        object.__setattr__(self, "_stick_memo", None)
        for r_s in _extremes(self._stick_fn):  # type: ignore[attr-defined]
            if not 0 < r_s <= self.contact_radius:
                raise UsageError(
                    f"scenario.stick_radius must lie in (0, {self.contact_radius}], got {r_s}"
                )
        # Beyond twice the contact radius the noiseless field is exactly 0, so
        # no component of it exceeds 4 a + |translation| + max_indent.
        largest = max(map(abs, _extremes(translation_fn)))
        bound = 4 * radius + largest + self.max_indent + NOISE_ALLOWANCE_SIGMAS * self.noise_sigma
        if not bound <= MAX_DISPLACEMENT_MM:
            raise UsageError(
                "scenario.contact_radius, translation_trajectory, max_indent and noise_sigma "
                f"allow displacements up to 4 x {radius:g} + {largest:g} + {self.max_indent:g} + "
                f"{NOISE_ALLOWANCE_SIGMAS} x {self.noise_sigma:g} = {bound:g} mm, "
                f"beyond +-{MAX_DISPLACEMENT_MM:g} mm"
            )

    def require_times(self, t_first: float, t_last: float) -> None:
        """Refuse, naming its key, a breakpoint list whose domain does not
        hold the times ``t_first`` to ``t_last``, before any frame exists.
        Both times are read by the number rule first."""
        t_first, t_last = finite_number(t_first, "t"), finite_number(t_last, "t")
        fns = {"theta_trajectory": self._theta_fn, "translation_trajectory": self._translation_fn,
               "stick_radius": self._stick_fn}  # type: ignore[attr-defined]
        for key, fn in fns.items():
            try:  # evaluation's own domain rule, at both ends
                fn(t_first), fn(t_last)
            except UsageError as exc:
                raise UsageError(f"scenario.{key} does not cover the run: {exc}") from None

    # t by the number rule, which a constant would not check.
    def theta_at(self, t: float) -> float:
        return float(self._theta_fn(finite_number(t, "t")))  # type: ignore[attr-defined]

    def translation_at(self, t: float) -> np.ndarray:
        translation = self._translation_fn(finite_number(t, "t"))  # type: ignore[attr-defined]
        return np.asarray(translation, dtype=float)

    def stick_radius_at(self, t: float) -> float:
        # np.interp may round one ulp past the breakpoints' checked range.
        r_s = self._stick_fn(finite_number(t, "t"))  # type: ignore[attr-defined]
        return float(min(max(r_s, 0.0), self.contact_radius))

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, ...]:
        """The read-only arrays of the field that no time input changes: the
        marker offsets from ``cor``, their radii, the contact mask, the Hertz
        normal profile and the contact taper. Made at the first field and kept."""
        a = self.contact_radius
        d = self.grid.reference_positions - np.asarray(self.cor)
        rho = np.hypot(d[:, 0], d[:, 1])
        geometry = (d, rho, rho <= a, _hertz_dz(rho, a, self.max_indent), _contact_taper(rho, a))
        for arr in geometry:
            arr.setflags(write=False)
        return geometry


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Oracle values attached to every generated frame.

    ``slip_field`` is the relative surface motion, object side minus
    elastomer side, of the noiseless field; it is exactly zero on
    ``stick_mask``. ``theta`` carries the object-side reported rotation.
    ``theta`` is a finite number, ``slip_field`` a finite (n, 2) float array
    and each mask an (n,) bool array, so a truth line is strict JSON. Each
    array is read-only, and a view of another array is copied, so a truth's
    values never change: ``write_truth`` formats them once per truth.
    """

    theta: float
    stick_mask: np.ndarray
    slip_field: np.ndarray
    contact_mask_true: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", finite_number(self.theta, "truth theta"))
        slip = frozen_array(self.slip_field, float)
        if slip.ndim != 2 or slip.shape[1] != 2 or not len(slip):
            raise UsageError(f"slip_field must be (n, 2), got shape {slip.shape}")
        # Refuses nan and +-inf, and allocates nothing.
        if not (math.isfinite(slip.min()) and math.isfinite(slip.max())):
            raise UsageError("slip_field must be finite")
        object.__setattr__(self, "slip_field", slip)
        for name in ("stick_mask", "contact_mask_true"):
            mask = frozen_array(getattr(self, name), bool)
            if mask.shape != (len(slip),):
                raise UsageError(f"{name} must be ({len(slip)},), got shape {mask.shape}")
            object.__setattr__(self, name, mask)


def _decay_profile(rho: np.ndarray, taper: np.ndarray, r_s: float, gamma: float) -> np.ndarray:
    """Local-rotation attenuation: the contact taper (1 within the contact
    radius, so in the whole stick core) times the power law (r_s / rho) **
    gamma beyond the stick radius."""
    decay = taper.copy()
    slip = rho > r_s
    decay[slip] *= (r_s / rho[slip]) ** gamma
    return decay


def _contact_taper(rho: np.ndarray, a: float) -> np.ndarray:
    """1 within the contact radius a, a quarter ellipse down to 0 at 2a, 0 beyond."""
    taper = np.zeros_like(rho)
    taper[rho <= a] = 1.0
    fringe = (rho > a) & (rho <= 2 * a)
    taper[fringe] = np.sqrt(np.maximum(0.0, 1.0 - ((rho[fringe] - a) / a) ** 2))
    return taper


def _hertz_dz(rho: np.ndarray, a: float, w0: float) -> np.ndarray:
    """w0 * sqrt(1 - (rho / a) ** 2) within the contact radius a, 0 beyond it,
    where the square of a far marker's rho / a could overflow."""
    dz = np.zeros_like(rho)
    inside = rho < a
    dz[inside] = w0 * np.sqrt(1.0 - (rho[inside] / a) ** 2)
    return dz


def _rotate_offsets(d: np.ndarray, angle_rad: Union[float, np.ndarray]) -> np.ndarray:
    """Rotate each 2-vector d[i] by angle_rad[i], or all by one angle (CCW positive):
    (c x - s y, s x + c y), written into one new (n, 2) array. One angle takes one
    numpy cos and sin (not math's), which give the values of an array of its
    copies; the tests' reference field rotates by such an array, bit for bit."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    x, y = d.T
    rotated = np.empty_like(d)
    np.subtract(c * x, s * y, out=rotated[:, 0])
    np.add(s * x, c * y, out=rotated[:, 1])
    return rotated


def _noiseless_field(
    scenario: SimScenario, theta: float, trans: np.ndarray, r_s: float
) -> tuple[np.ndarray, GroundTruth]:
    """The read-only (n, 3) noiseless displacements and the ground truth of the
    field inputs a time gives: the angle, the translation and the stick radius.

    Both depend only on the scenario and those inputs, never on the time
    itself or on a frame's noise. The time-invariant arrays come from the
    scenario's ``_geometry``. Of the field inputs, the decay profile and the
    stick mask depend on the stick radius alone, so they are kept until it
    changes: through a hold and through a ramp of the angle.
    """
    k = scenario.softness.k
    d, rho, contact_mask, dz, taper = scenario._geometry
    memo = scenario._stick_memo  # type: ignore[attr-defined]
    if memo is None or memo[0] != r_s:
        memo = (r_s, _decay_profile(rho, taper, r_s, scenario.decay_exponent),
                (rho <= r_s) & contact_mask)
        for arr in memo[1:]:
            arr.setflags(write=False)
        object.__setattr__(scenario, "_stick_memo", memo)
    _r_s, decay, stick_mask = memo

    # Elastomer surface rotates opposite to the reported angle, attenuated
    # by the softness ratio.
    beta_rad = np.radians(-theta * decay / (1.0 + k))
    tangential = _rotate_offsets(d, beta_rad) - d
    del beta_rad  # so the first call's memory peak does not grow
    # Column by column: the values of trans * taper[:, None] and column_stack, in cheaper calls.
    tx, ty = trans
    tangential[:, 0] += tx * taper
    tangential[:, 1] += ty * taper
    displacements = np.empty((len(d), 3))
    displacements[:, :2] = tangential
    displacements[:, 2] = dz
    displacements.setflags(write=False)

    # Ground truth: the object-side surface moves rigidly with the
    # attenuated surface angle (equal to theta for a rigid object), so the
    # stick zone is exactly slip-free by construction.
    surf_rad = math.radians(-theta / (1.0 + k))
    object_disp = _rotate_offsets(d, surf_rad) - d + trans
    slip_field = object_disp - tangential

    truth = GroundTruth(
        theta=theta,
        stick_mask=stick_mask,
        slip_field=slip_field,
        contact_mask_true=contact_mask,
    )
    return displacements, truth


def generate_frame(
    scenario: SimScenario, t: float, frame_index: int = 0
) -> tuple[Frame, GroundTruth]:
    """Generate the displacement frame and its ground truth at time t.

    ``frame_index`` seeds the per-frame noise stream; frames of a
    trajectory can therefore be generated independently (and in parallel)
    with reproducible output. The scenario keeps its last noiseless field
    with the last ``t`` that asked for it. A call at that ``t`` (the static
    sweep's trials), or at a ``t`` whose angle, translation and stick radius
    equal the field's bit for bit (a hold), reuses the read-only field and
    the same ``GroundTruth`` object and draws only its noise. Every field of
    the scenario is made from its one ``_geometry``. ``t`` is read by the
    number rule before any field is made or kept. The frame holds the noisy
    array made for it, or the read-only noiseless field when ``noise_sigma``
    is 0, and is refused beyond the displacement bound, as ``Frame`` refuses.
    """
    t = finite_number(t, "t")
    memo = scenario._field_memo  # type: ignore[attr-defined]
    if memo is None or memo[0] != t:
        theta, trans = scenario.theta_at(t), scenario.translation_at(t)
        r_s = scenario.stick_radius_at(t)
        inputs = struct.pack("4d", theta, *trans, r_s)  # as bytes, so -0.0 is not 0.0
        if memo is not None and memo[1] == inputs:
            memo = (t, *memo[1:])
        else:
            memo = (t, inputs, *_noiseless_field(scenario, theta, trans, r_s))
        object.__setattr__(scenario, "_field_memo", memo)
    _t, _inputs, displacements, truth = memo
    if scenario.noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scenario.rng_seed, spawn_key=(frame_index,))
        )
        noise = rng.standard_normal(displacements.shape)
        noise *= scenario.noise_sigma
        noise += displacements
        displacements = noise
    check_displacements(displacements)
    return _made(Frame, timestamp=t, displacements=displacements), truth


def frame_count(t0: float, t1: float, rate: float) -> int:
    """The number of computed times t0 + i / rate (i >= 0) within the allowance of t1,
    checked before any frame exists; messages name ``t_start``, ``t_end``, ``rate_hz``."""
    t0 = finite_number(t0, "t_start")
    t1 = finite_number(t1, "t_end")
    rate = finite_number(rate, "rate_hz")
    if not t1 > t0:
        raise UsageError(f"t_end must exceed t_start, got t_start={t0}, t_end={t1}")
    if not rate > 0:
        raise UsageError(f"rate_hz must be positive, got {rate}")
    if not (t1 - t0) * rate <= MAX_FRAMES:
        raise UsageError(f"rate_hz x (t_end - t_start) exceeds {MAX_FRAMES} frames")
    allowance = _time_allowance(t0, t1)
    if 2 * allowance * rate > 1:  # a period of two allowances keeps neighbouring times apart
        raise UsageError(f"rate_hz {rate} is too high for times near {max(abs(t0), abs(t1))}: "
                         "frames would share timestamps")
    n = math.floor((t1 - t0) * rate)  # at most one period off: the computed times decide
    if t0 + (n + 1) / rate - t1 <= allowance:
        n += 1
    elif t0 + n / rate - t1 > allowance:
        n -= 1
    return n + 1


def iter_trajectory(
    scenario: SimScenario, t0: float, t1: float, rate: float
) -> Iterator[tuple[Frame, GroundTruth]]:
    """Frames at the ``frame_count`` times t0 + i / rate, each made only when it
    is asked for. The frame count and the scenario's domains are checked, by
    one allowance, at the call, before the first frame."""
    n = frame_count(t0, t1, rate)
    scenario.require_times(t0, t0 + (n - 1) / rate)
    return (generate_frame(scenario, t0 + i / rate, frame_index=i) for i in range(n))


def generate_trajectory(
    scenario: SimScenario, t0: float, t1: float, rate: float
) -> list[tuple[Frame, GroundTruth]]:
    """The frames of ``iter_trajectory``, as one list."""
    return list(iter_trajectory(scenario, t0, t1, rate))
