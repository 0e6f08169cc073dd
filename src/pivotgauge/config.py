"""Loading of the shared JSON configuration document.

One file carries five sections: ``grid``, ``scenario``, ``segmentation``,
``softness`` and ``harness``. Every section and every key is optional
(defaults apply), but unknown sections or keys are fatal so typos cannot
silently change an experiment: the loader checks sections and keys, and the
types check the values. Named presets shipped with the package can be
referenced by name instead of a path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

from .core import (
    MAX_FRAMES, ConfigError, MarkerGrid, SoftnessParams, UsageError, finite_number, whole_number
)
from .segmentation import SegmentationConfig
from .simulate import SimScenario, frame_count


# Integer rotation angles of the static sweep, degrees.
SWEEP_ANGLES = tuple(range(2, 21))


def trial_count(value: Any, name: str) -> int:
    """``value`` as a number of sweep trials per angle, or a UsageError naming
    ``name``: a whole number >= 1 whose sweep stays within MAX_FRAMES frames,
    checked before anything is allocated."""
    trials = whole_number(value, name)
    if trials < 1:
        raise UsageError(f"{name} must be >= 1, got {trials}")
    if len(SWEEP_ANGLES) * trials > MAX_FRAMES:
        raise UsageError(
            f"{name} x {len(SWEEP_ANGLES)} sweep angles exceeds {MAX_FRAMES} frames, got {trials}"
        )
    return trials


@dataclass(frozen=True)
class HarnessConfig:
    """Experiment-harness parameters shared by the CLI subcommands."""

    trials: int = 25
    rate_hz: float = 30.0
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", trial_count(self.trials, "harness.trials"))
        keys = ("t_start", "t_end", "rate_hz")  # frame_count's t0, t1 and rate
        frame_count(*(finite_number(getattr(self, key), f"harness.{key}") for key in keys))


@dataclass(frozen=True)
class FullConfig:
    """One loaded configuration document. The grid and softness sections
    are held by the scenario, and read through it."""

    scenario: SimScenario
    segmentation: SegmentationConfig
    harness: HarnessConfig

    @property
    def grid(self) -> MarkerGrid:
        return self.scenario.grid

    @property
    def softness(self) -> SoftnessParams:
        return self.scenario.softness


_SECTION_TYPES = {
    "grid": MarkerGrid,
    "scenario": SimScenario,
    "segmentation": SegmentationConfig,
    "softness": SoftnessParams,
    "harness": HarnessConfig,
}
# A section accepts the fields of its type, except fields named after another
# section (the scenario's grid and softness), which that section fills.
_SECTION_KEYS = {
    section: {f.name for f in fields(cls)} - set(_SECTION_TYPES)
    for section, cls in _SECTION_TYPES.items()
}


def _section(document: dict[str, Any], section: str) -> dict[str, Any]:
    """A copy of one section, checked for unknown keys; its type checks the values."""
    data = document.get(section, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{section}' is not an object")
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section '{section}': {', '.join(sorted(unknown))}"
        )
    return dict(data)


def _existing_file(path: Path) -> Optional[Path]:
    """``path`` if it names a file, else None: also for a name the file system
    refuses, such as one too long for it."""
    try:
        return path if path.is_file() else None
    except OSError:
        return None


def preset_path(name: str) -> Optional[Path]:
    """Path of a named preset shipped with the package, or None."""
    presets = resources.files("pivotgauge").joinpath("presets")
    return _existing_file(Path(str(presets), f"{name.replace('-', '_')}.json"))


def build_config(document: dict[str, Any]) -> FullConfig:
    """Build the typed configuration from a parsed JSON document."""
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(document) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")

    grid_raw = _section(document, "grid")
    scenario_raw = _section(document, "scenario")
    seg_raw = _section(document, "segmentation")
    soft_raw = _section(document, "softness")
    harness_raw = _section(document, "harness")

    try:
        grid = MarkerGrid(**grid_raw)
        softness = SoftnessParams(**soft_raw)
        scenario = SimScenario(grid=grid, softness=softness, **scenario_raw)
        segmentation = SegmentationConfig(**seg_raw)
        harness = HarnessConfig(**harness_raw)
    except (UsageError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    return FullConfig(scenario=scenario, segmentation=segmentation, harness=harness)


def load_config(source: Union[str, Path, None] = None) -> FullConfig:
    """Load a configuration from a path, a preset name, or defaults.

    ``source`` may be None (all defaults), the path of a JSON file, or the
    name of a shipped preset such as ``three-lift``.
    """
    return build_config(load_document(source))


def three_lift_scenario() -> SimScenario:
    """The ``three-lift`` preset's staged pivoting scenario over t in [0, 12] s.

    The rotation ramps to plateaus near 6, 12 and 18 degrees and then past
    20 degrees while the stick radius collapses below one marker pitch,
    taking the contact from stable stick through incipient slip into macro
    slip on the final ramp. Plateau stick radii keep the flagged patch
    (whose stencils stay inside the stick zone) effectively rigid so the
    plateau estimates track the commanded angle closely.
    """
    # By preset path: a file named "three-lift" in the working directory
    # would shadow the name.
    return load_config(preset_path("three-lift")).scenario


def apply_overrides(document: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply ``section.key=value`` override strings to a raw document.

    Values are parsed as JSON when possible, else kept as strings. A
    document that is not an object is refused as ``build_config`` refuses it.
    """
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got '{item}'")
        target, value_text = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override key must be section.key, got '{target}'")
        section, key = target.split(".", 1)
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        except RecursionError as exc:
            raise ConfigError(f"override {target} is nested too deeply to parse") from exc
        document.setdefault(section, {})
        if not isinstance(document[section], dict):
            raise ConfigError(f"config section '{section}' is not an object")
        document[section][key] = value
    return document


def load_document(source: Union[str, Path, None]) -> dict[str, Any]:
    """Load the raw JSON document (for override support), defaults to {}."""
    if source is None:
        return {}
    path = _existing_file(Path(source)) or preset_path(str(source))
    if path is None:
        raise ConfigError(f"config file or preset not found: {source}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse failure in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
