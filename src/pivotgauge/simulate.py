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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence, Union

import numpy as np

from .core import (
    MAX_FRAMES,
    Frame,
    MarkerGrid,
    SoftnessParams,
    UsageError,
    finite_pair,
    whole_number,
)

TimeScalarFn = Callable[[float], float]
TimeVectorFn = Callable[[float], np.ndarray]


class PiecewiseLinear:
    """Piecewise-linear time function over the closed domain of its breakpoints.

    ``points`` is a sequence of (t, v0[, v1...]) rows with strictly
    increasing t. Evaluation outside the domain is a usage error.
    """

    def __init__(self, points: Sequence[Sequence[float]]):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise UsageError("piecewise-linear input needs >= 2 rows of (t, value...)")
        if not np.all(np.diff(arr[:, 0]) > 0):
            raise UsageError("piecewise-linear breakpoints must have strictly increasing t")
        self._t = arr[:, 0]
        self._v = arr[:, 1:]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self._t[0]), float(self._t[-1])

    def __call__(self, t: float) -> Union[float, np.ndarray]:
        t0, t1 = self.domain
        if t < t0 - 1e-12 or t > t1 + 1e-12:
            raise UsageError(f"t={t} outside trajectory domain [{t0}, {t1}]")
        out = np.array([np.interp(t, self._t, self._v[:, j]) for j in range(self._v.shape[1])])
        if out.size == 1:
            return float(out[0])
        return out


def _time_fn(value, name: str, shape: tuple[int, ...]) -> Callable[[float], Any]:
    """A function of time from a callable, a constant of ``shape`` (``()`` or
    ``(2,)``) or a breakpoint list of ``(t, value...)`` rows."""
    if callable(value):
        return value
    try:
        # No float dtype here: it would parse strings and read null as NaN,
        # where isfinite raises TypeError for both.
        arr = np.array(value)
        if not all(map(math.isfinite, arr.ravel().tolist())):
            raise ValueError(f"not finite numbers: {value!r}")
        if arr.shape == shape:
            constant = arr.astype(float) if shape else float(arr)
            return lambda t: constant
        if arr.ndim != 2 or arr.shape[1] != 1 + math.prod(shape):
            raise ValueError(f"breakpoint rows must be {1 + math.prod(shape)} wide")
        return PiecewiseLinear(arr)
    except (TypeError, ValueError) as exc:  # UsageError included
        kind = "a 2-vector" if shape else "a number"
        raise UsageError(f"{name} must be {kind}, callable or breakpoint list") from exc


@dataclass(frozen=True, eq=False)
class SimScenario:
    """Generative parameters for one synthetic contact experiment.

    ``theta_trajectory`` and ``stick_radius`` accept a constant, a callable
    of time, or a breakpoint list; ``translation_trajectory`` likewise with
    2-vector values. A stick radius must lie in (0, contact_radius]: checked
    here for a constant or breakpoints, at each evaluation for a callable.
    ``decay_exponent`` controls how sharply the slip annulus decouples from
    the stick core (larger = sharper boundary).
    """

    grid: MarkerGrid = field(default_factory=MarkerGrid)
    contact_radius: float = 8.0
    max_indent: float = 0.5
    cor: tuple[float, float] = (0.0, 0.0)
    stick_radius: Union[float, TimeScalarFn, Sequence, None] = None  # default: contact_radius
    theta_trajectory: Union[float, TimeScalarFn, Sequence] = 0.0
    translation_trajectory: Union[Sequence[float], TimeVectorFn] = (0.0, 0.0)
    decay_exponent: float = 2.0
    softness: SoftnessParams = field(default_factory=SoftnessParams)
    noise_sigma: float = 0.005
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.max_indent > 0:
            raise UsageError(f"max_indent must be positive, got {self.max_indent}")
        if not self.decay_exponent > 0:
            raise UsageError(f"decay_exponent must be positive, got {self.decay_exponent}")
        if self.noise_sigma < 0:
            raise UsageError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "rng_seed", whole_number(self.rng_seed, "rng_seed"))
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0 < self.contact_radius <= self.grid.half_extent:
            raise UsageError(
                f"contact_radius must lie in (0, {self.grid.half_extent}], "
                f"got {self.contact_radius}"
            )
        stick = self.stick_radius if self.stick_radius is not None else self.contact_radius
        object.__setattr__(self, "cor", finite_pair(self.cor, "cor"))
        object.__setattr__(self, "_stick_fn", _time_fn(stick, "stick_radius", ()))
        object.__setattr__(self, "_theta_fn", _time_fn(self.theta_trajectory, "theta_trajectory", ()))
        translation_fn = _time_fn(self.translation_trajectory, "translation_trajectory", (2,))
        object.__setattr__(self, "_translation_fn", translation_fn)
        # generate_frame's (t, noiseless displacements, truth) of the last t.
        object.__setattr__(self, "_field_memo", None)
        if not callable(stick):  # piecewise linear, so its extremes lie at the breakpoints
            for r_s in map(float, [row[1] for row in stick] if np.iterable(stick) else [stick]):
                if not 0 < r_s <= self.contact_radius:
                    raise UsageError(
                        f"stick_radius {r_s} outside (0, contact_radius={self.contact_radius}]"
                    )

    def theta_at(self, t: float) -> float:
        return float(self._theta_fn(t))  # type: ignore[attr-defined]

    def translation_at(self, t: float) -> np.ndarray:
        return np.asarray(self._translation_fn(t), dtype=float)  # type: ignore[attr-defined]

    def stick_radius_at(self, t: float) -> float:
        r_s = float(self._stick_fn(t))  # type: ignore[attr-defined]
        if not 0 < r_s <= self.contact_radius:
            raise UsageError(
                f"stick radius {r_s} at t={t} outside (0, contact_radius={self.contact_radius}]"
            )
        return r_s


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


def _decay_profile(rho: np.ndarray, r_s: float, a: float, gamma: float) -> np.ndarray:
    """Local-rotation attenuation: 1 in the stick core, power law in the
    slip annulus, tapered to 0 between a and 2a, 0 beyond."""
    decay = np.zeros_like(rho)
    stick = rho <= r_s
    decay[stick] = 1.0
    annulus = (rho > r_s) & (rho <= a)
    decay[annulus] = (r_s / rho[annulus]) ** gamma
    fringe = (rho > a) & (rho <= 2 * a)
    decay[fringe] = (r_s / rho[fringe]) ** gamma * _edge_taper(rho[fringe], a)
    return decay


def _edge_taper(rho: np.ndarray, a: float) -> np.ndarray:
    return np.sqrt(np.maximum(0.0, 1.0 - ((rho - a) / a) ** 2))


def _translation_taper(rho: np.ndarray, a: float) -> np.ndarray:
    taper = np.zeros_like(rho)
    inside = rho <= a
    taper[inside] = 1.0
    fringe = (rho > a) & (rho <= 2 * a)
    taper[fringe] = _edge_taper(rho[fringe], a)
    return taper


def _hertz_dz(rho: np.ndarray, a: float, w0: float) -> np.ndarray:
    return w0 * np.sqrt(np.maximum(0.0, 1.0 - (rho / a) ** 2))


def _rotate_offsets(d: np.ndarray, angle_rad: np.ndarray) -> np.ndarray:
    """Rotate each 2-vector d[i] by angle_rad[i] (CCW positive)."""
    c = np.cos(angle_rad)
    s = np.sin(angle_rad)
    return np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])


def _noiseless_field(scenario: SimScenario, t: float) -> tuple[np.ndarray, GroundTruth]:
    """The read-only (n, 3) noiseless displacements and the ground truth at t.

    Both depend only on ``(scenario, t)``, never on a frame's noise.
    """
    grid = scenario.grid
    theta = scenario.theta_at(t)
    trans = scenario.translation_at(t)
    r_s = scenario.stick_radius_at(t)
    a = scenario.contact_radius
    k = scenario.softness.k

    d = grid.reference_positions - np.asarray(scenario.cor)
    rho = np.hypot(d[:, 0], d[:, 1])

    decay = _decay_profile(rho, r_s, a, scenario.decay_exponent)
    dz = _hertz_dz(rho, a, scenario.max_indent)

    # Elastomer surface rotates opposite to the reported angle, attenuated
    # by the softness ratio.
    beta_rad = np.radians(-theta * decay / (1.0 + k))
    tangential = _rotate_offsets(d, beta_rad) - d
    tangential += trans * _translation_taper(rho, a)[:, None]

    displacements = np.column_stack([tangential, dz])
    displacements.setflags(write=False)

    # Ground truth: the object-side surface moves rigidly with the
    # attenuated surface angle (equal to theta for a rigid object), so the
    # stick zone is exactly slip-free by construction.
    surf_rad = math.radians(-theta / (1.0 + k))
    object_disp = _rotate_offsets(d, np.full_like(rho, surf_rad)) - d + trans
    slip_field = object_disp - tangential

    stick_mask = (rho <= r_s) & (rho <= a)
    contact_mask = rho <= a
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
    sweep) draw only their noise; its time inputs must be pure functions.
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
        displacements = displacements + scenario.noise_sigma * rng.standard_normal(
            displacements.shape
        )
    return Frame(timestamp=t, displacements=displacements), truth


def generate_trajectory(
    scenario: SimScenario, t0: float, t1: float, rate: float
) -> list[tuple[Frame, GroundTruth]]:
    """Generate frames at uniform timestamps t0, t0 + 1/rate, ..., <= t1."""
    if not t1 > t0:
        raise UsageError(f"empty time range [{t0}, {t1}]")
    if not rate > 0:
        raise UsageError(f"rate must be positive, got {rate}")
    if not (t1 - t0) * rate <= MAX_FRAMES:
        raise UsageError(f"{rate} Hz over [{t0}, {t1}] exceeds {MAX_FRAMES} frames")
    n = int(math.floor((t1 - t0) * rate + 1e-9)) + 1
    return [generate_frame(scenario, t0 + i / rate, frame_index=i) for i in range(n)]


def analytic_local_rotation(scenario: SimScenario, t: float, position: Sequence[float]) -> float:
    """Closed-form local rotation of the generative field at a position, degrees.

    Carries the object-side sign: the elastomer's measured line-feature
    angle at the same position equals the negative of this value.
    """
    pos = np.asarray(position, dtype=float)
    rho = np.array([math.hypot(pos[0] - scenario.cor[0], pos[1] - scenario.cor[1])])
    decay = _decay_profile(rho, scenario.stick_radius_at(t), scenario.contact_radius,
                           scenario.decay_exponent)
    return float(scenario.theta_at(t) * decay[0] / (1.0 + scenario.softness.k))


def with_constant_theta(scenario: SimScenario, theta: float) -> SimScenario:
    """Copy of a scenario whose rotation is held at a fixed angle."""
    return replace(scenario, theta_trajectory=float(theta))
