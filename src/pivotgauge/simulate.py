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
from dataclasses import dataclass, field
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
    finite_number,
    finite_pair,
    number_rows,
    whole_number,
)


class PiecewiseLinear:
    """Piecewise-linear time function over the closed domain of its breakpoints.

    ``points`` is a sequence of (t, v0[, v1...]) rows of one width with
    strictly increasing t, each entry a finite number, read by
    ``core.number_rows``. Every t step and every slope between neighbouring
    rows must be finite too, so interpolation cannot overflow.
    Evaluation outside the domain is a usage error.
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

    @property
    def domain(self) -> tuple[float, float]:
        return float(self._t[0]), float(self._t[-1])

    def __call__(self, t: float) -> Union[float, np.ndarray]:
        t0, t1 = self.domain
        if t < t0 - 1e-12 or t > t1 + 1e-12:
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
        # generate_frame's (t, noiseless displacements, truth) of the last t.
        object.__setattr__(self, "_field_memo", None)
        # _noiseless_field's time-invariant arrays, once it is walked through time.
        object.__setattr__(self, "_geometry", None)
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
        hold the times ``t_first`` to ``t_last``, before any frame exists."""
        fns = {"theta_trajectory": self._theta_fn, "translation_trajectory": self._translation_fn,
               "stick_radius": self._stick_fn}  # type: ignore[attr-defined]
        for key, fn in fns.items():
            try:  # evaluation's own domain rule, at both ends
                fn(t_first), fn(t_last)
            except UsageError as exc:
                raise UsageError(f"scenario.{key} does not cover the run: {exc}") from None

    def theta_at(self, t: float) -> float:
        return float(self._theta_fn(t))  # type: ignore[attr-defined]

    def translation_at(self, t: float) -> np.ndarray:
        return np.asarray(self._translation_fn(t), dtype=float)  # type: ignore[attr-defined]

    def stick_radius_at(self, t: float) -> float:
        # np.interp may round one ulp past the breakpoints' checked range.
        r_s = self._stick_fn(t)  # type: ignore[attr-defined]
        return float(min(max(r_s, 0.0), self.contact_radius))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Oracle values attached to every generated frame.

    ``slip_field`` is the relative surface motion, object side minus
    elastomer side, of the noiseless field; it is exactly zero on
    ``stick_mask``. ``theta`` carries the object-side reported rotation.
    """

    theta: float
    stick_mask: np.ndarray
    slip_field: np.ndarray
    contact_mask_true: np.ndarray

    def __post_init__(self) -> None:
        for name in ("stick_mask", "slip_field", "contact_mask_true"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def _rotate_offsets(d: np.ndarray, angle_rad: np.ndarray) -> np.ndarray:
    """Rotate each 2-vector d[i] by angle_rad[i] (CCW positive)."""
    c = np.cos(angle_rad)
    s = np.sin(angle_rad)
    return np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])


def _noiseless_field(scenario: SimScenario, t: float) -> tuple[np.ndarray, GroundTruth]:
    """The read-only (n, 3) noiseless displacements and the ground truth at t.

    Both depend only on ``(scenario, t)``, never on a frame's noise.
    """
    theta = scenario.theta_at(t)
    trans = scenario.translation_at(t)
    r_s = scenario.stick_radius_at(t)
    a = scenario.contact_radius
    k = scenario.softness.k

    geometry = scenario._geometry  # type: ignore[attr-defined]
    if geometry is None:
        d = scenario.grid.reference_positions - np.asarray(scenario.cor)
        rho = np.hypot(d[:, 0], d[:, 1])
        geometry = (d, rho, rho <= a, _hertz_dz(rho, a, scenario.max_indent),
                    _contact_taper(rho, a))
        # A second distinct t: the scenario is walked through time, so keep
        # them. A scenario asked for one t (a sweep angle) holds only its memo.
        if scenario._field_memo is not None:  # type: ignore[attr-defined]
            for arr in geometry:
                arr.setflags(write=False)
            object.__setattr__(scenario, "_geometry", geometry)
    d, rho, contact_mask, dz, taper = geometry
    decay = _decay_profile(rho, taper, r_s, scenario.decay_exponent)

    # Elastomer surface rotates opposite to the reported angle, attenuated
    # by the softness ratio.
    beta_rad = np.radians(-theta * decay / (1.0 + k))
    del decay  # and beta_rad below, so the first call's memory peak does not grow
    tangential = _rotate_offsets(d, beta_rad) - d
    del beta_rad
    tangential += trans * taper[:, None]

    displacements = np.column_stack([tangential, dz])
    displacements.setflags(write=False)

    # Ground truth: the object-side surface moves rigidly with the
    # attenuated surface angle (equal to theta for a rigid object), so the
    # stick zone is exactly slip-free by construction.
    surf_rad = math.radians(-theta / (1.0 + k))
    object_disp = _rotate_offsets(d, np.full_like(rho, surf_rad)) - d + trans
    slip_field = object_disp - tangential

    stick_mask = (rho <= r_s) & contact_mask
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
    with reproducible output. The scenario keeps the noiseless field of the
    last ``t`` it was asked for, so repeated trials at one time (the static
    sweep) draw only their noise.
    """
    memo = scenario._field_memo  # type: ignore[attr-defined]
    if memo is not None and memo[0] == t:
        _t, displacements, truth = memo
    else:
        displacements, truth = _noiseless_field(scenario, t)
        object.__setattr__(scenario, "_field_memo", (t, displacements, truth))
    if scenario.noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scenario.rng_seed, spawn_key=(frame_index,))
        )
        noise = rng.standard_normal(displacements.shape)
        noise *= scenario.noise_sigma
        noise += displacements
        displacements = noise
    return Frame(timestamp=t, displacements=displacements), truth


def frame_count(t0: float, t1: float, rate: float) -> int:
    """Number of timestamps t0, t0 + 1/rate, ..., <= t1, checked before any
    frame exists; messages name a config's ``t_start``, ``t_end``, ``rate_hz``."""
    t0 = finite_number(t0, "t_start")
    t1 = finite_number(t1, "t_end")
    rate = finite_number(rate, "rate_hz")
    if not t1 > t0:
        raise UsageError(f"t_end must exceed t_start, got t_start={t0}, t_end={t1}")
    if not rate > 0:
        raise UsageError(f"rate_hz must be positive, got {rate}")
    if not (t1 - t0) * rate <= MAX_FRAMES:
        raise UsageError(f"rate_hz x (t_end - t_start) exceeds {MAX_FRAMES} frames")
    return int(math.floor((t1 - t0) * rate + 1e-9)) + 1


def iter_trajectory(
    scenario: SimScenario, t0: float, t1: float, rate: float
) -> Iterator[tuple[Frame, GroundTruth]]:
    """Frames at uniform timestamps t0, t0 + 1/rate, ..., <= t1, each made
    only when it is asked for. The frame count and the scenario's domains
    are checked at the call, before the first frame."""
    n = frame_count(t0, t1, rate)
    scenario.require_times(t0, t0 + (n - 1) / rate)
    return (generate_frame(scenario, t0 + i / rate, frame_index=i) for i in range(n))


def generate_trajectory(
    scenario: SimScenario, t0: float, t1: float, rate: float
) -> list[tuple[Frame, GroundTruth]]:
    """The frames of ``iter_trajectory``, as one list."""
    return list(iter_trajectory(scenario, t0, t1, rate))
