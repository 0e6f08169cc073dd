"""Experiment harness: static sweep, dynamic trajectory, stream replay,
estimator comparison.

The static protocol applies discrete rotations one frame at a time and
bypasses the temporal filter; the dynamic protocol streams a trajectory
through the full filtered pipeline. Every emitted CSV has a fixed column
order and is byte-deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from .config import SWEEP_ANGLES, FullConfig
from .core import ContactState, Frame, InsufficientDataError, MarkerGrid
from .estimation import RotationPipeline, baseline_least_squares, estimate_frame
from .simulate import generate_frame, generate_trajectory, with_constant_theta
from .streams import read_frames, read_header, write_csv_row

VALID_RANGE = (2.0, 20.0)

SWEEP_CSV_HEADER = (
    "theta_true_deg",
    "trials",
    "proposed_mae_deg",
    "proposed_std_deg",
    "baseline_mae_deg",
    "baseline_std_deg",
    "baseline_failures",
)
ESTIMATE_CSV_HEADER = (
    "t",
    "theta_raw_deg",
    "theta_filtered_deg",
    "state",
    "stick_ratio",
)
# A dynamic row is an estimate row with the true angle inserted after t.
DYNAMIC_CSV_HEADER = ("t", "theta_true_deg", *ESTIMATE_CSV_HEADER[1:])
COMPARE_CSV_HEADER = (
    "theta_true_deg",
    "trials",
    "proposed_mae_deg",
    "baseline_mae_deg",
    "win_rate",
    "baseline_failures",
)


@dataclass(frozen=True)
class SweepRow:
    theta_true: float
    trials: int
    mean_abs_error: float
    std_error: float
    failures: int = 0


@dataclass(frozen=True)
class SweepReport:
    """Per-angle error rows plus the overall mean absolute rotational error."""

    estimator: str
    rows: tuple[SweepRow, ...]
    mare: float
    mare_std: float


@dataclass(frozen=True)
class CompareRow:
    theta_true: float
    trials: int
    proposed_mae: float
    baseline_mae: float
    win_rate: float
    baseline_failures: int


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    overall_win_rate: float


def _sweep_errors(config: FullConfig, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Absolute errors of the proposed and baseline estimators per trial.

    Both arrays are (len(SWEEP_ANGLES), trials). A trial is a single
    independently seeded frame at a fixed angle run through the unfiltered
    pipeline. Baseline entries are nan where too few markers were flagged
    for its fit.
    """
    proposed = np.empty((len(SWEEP_ANGLES), trials))
    baseline = np.empty_like(proposed)
    for angle_pos, theta in enumerate(SWEEP_ANGLES):
        scenario = with_constant_theta(config.scenario, float(theta))
        for trial in range(trials):
            frame_index = angle_pos * trials + trial
            frame, _truth = generate_frame(scenario, 0.0, frame_index=frame_index)
            estimate, mask, _region = estimate_frame(
                config.grid, frame, config.segmentation, config.softness
            )
            proposed[angle_pos, trial] = abs(estimate.theta - theta)
            try:
                base = baseline_least_squares(config.grid, frame, mask)
                baseline[angle_pos, trial] = abs(base.theta - theta)
            except InsufficientDataError:
                baseline[angle_pos, trial] = math.nan
    return proposed, baseline


def _mean_std(errors: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of some errors; nan for none."""
    if not errors.size:
        return math.nan, math.nan
    return float(errors.mean()), float(errors.std())


def run_static_sweep(
    config: FullConfig,
    csv_out: Optional[IO[str]] = None,
) -> dict[str, SweepReport]:
    """Static rotation sweep over integer angles 2..20 degrees.

    Each trial is a single independently seeded frame at a fixed angle run
    through the unfiltered pipeline; errors are aggregated per angle and
    overall for both the stick-region estimator and the least-squares
    baseline.
    """
    trials = config.harness.trials
    proposed, baseline = _sweep_errors(config, trials)

    rows = {"proposed": [], "baseline": []}
    for theta, p, b_raw in zip(SWEEP_ANGLES, proposed, baseline):
        b = b_raw[~np.isnan(b_raw)]
        rows["proposed"].append(SweepRow(float(theta), trials, *_mean_std(p)))
        rows["baseline"].append(SweepRow(float(theta), trials, *_mean_std(b), trials - b.size))

    if csv_out is not None:
        write_csv_row(csv_out, SWEEP_CSV_HEADER)
        for prop, base in zip(rows["proposed"], rows["baseline"]):
            write_csv_row(csv_out, (
                prop.theta_true, prop.trials, prop.mean_abs_error, prop.std_error,
                base.mean_abs_error, base.std_error, base.failures,
            ))

    overall = {"proposed": proposed.ravel(), "baseline": baseline[~np.isnan(baseline)]}
    return {
        name: SweepReport(name, tuple(rows[name]), *_mean_std(errors))
        for name, errors in overall.items()
    }


@dataclass(frozen=True)
class DynamicResult:
    n_frames: int
    in_range_frames: int
    mare: float


def _estimate_rows(frames: Iterable[Frame], grid: MarkerGrid, config: FullConfig) -> Iterator:
    """Drive one filtered pipeline over ``frames``; yield each frame's filtered
    estimate and its row of ``ESTIMATE_CSV_HEADER`` values."""
    pipeline = RotationPipeline(grid, config.segmentation, config.softness)
    for frame in frames:
        filtered = pipeline.process_frame(frame)
        raw = pipeline.last_raw
        yield filtered, (frame.timestamp, raw.theta, filtered.theta, filtered.state,
                         filtered.stick_ratio)


def run_dynamic(config: FullConfig, csv_out: Optional[IO[str]] = None) -> DynamicResult:
    """Stream the configured trajectory through the filtered pipeline.

    The summary error covers only in-range frames: |true angle| within
    [2, 20] degrees and no macro slip.
    """
    harness = config.harness
    if csv_out is not None:
        write_csv_row(csv_out, DYNAMIC_CSV_HEADER)
    trajectory = generate_trajectory(
        config.scenario, harness.t_start, harness.t_end, harness.rate_hz
    )
    rows = _estimate_rows((frame for frame, _truth in trajectory), config.grid, config)
    errors = []
    n = 0
    for (_frame, truth), (filtered, row) in zip(trajectory, rows):
        n += 1
        in_range = VALID_RANGE[0] <= abs(truth.theta) <= VALID_RANGE[1]
        if in_range and filtered.state is not ContactState.MACRO_SLIP:
            errors.append(abs(filtered.theta - truth.theta))
        if csv_out is not None:
            write_csv_row(csv_out, (row[0], truth.theta, *row[1:]))
    mare = float(np.mean(errors)) if errors else math.nan
    return DynamicResult(n_frames=n, in_range_frames=len(errors), mare=mare)


def estimate_from_stream(
    lines,
    config: FullConfig,
    csv_out: IO[str],
    warn: Optional[IO[str]] = None,
) -> int:
    """Replay an NDJSON frame stream through the pipeline, CSV to ``csv_out``.

    The stream header defines the grid. Malformed frame lines are skipped
    with a warning; a malformed header is fatal. Returns the number of
    frames processed.
    """
    grid = read_header(lines)
    write_csv_row(csv_out, ESTIMATE_CSV_HEADER)
    n = 0
    for _filtered, row in _estimate_rows(read_frames(lines, grid, warn=warn), grid, config):
        n += 1
        write_csv_row(csv_out, row)
    return n


def compare_estimators(
    config: FullConfig,
    csv_out: Optional[IO[str]] = None,
) -> CompareReport:
    """Side-by-side per-angle errors plus the proposed-vs-baseline win rate.

    A trial is a win when the stick-region estimator's absolute error is
    strictly smaller than the baseline's. Trials where the baseline has too
    few markers count as failures and are excluded from the win rate.
    """
    trials = config.harness.trials
    proposed, baseline = _sweep_errors(config, trials)

    if csv_out is not None:
        write_csv_row(csv_out, COMPARE_CSV_HEADER)
    rows = []
    total_wins = 0
    total_valid = 0
    for theta, p, b in zip(SWEEP_ANGLES, proposed, baseline):
        ok = ~np.isnan(b)
        wins = int(np.sum(p[ok] < b[ok]))
        n_ok = int(ok.sum())
        total_wins += wins
        total_valid += n_ok
        win_rate = wins / n_ok if n_ok else math.nan
        row = CompareRow(
            theta_true=float(theta),
            trials=trials,
            proposed_mae=float(p.mean()),
            baseline_mae=_mean_std(b[ok])[0],
            win_rate=win_rate,
            baseline_failures=trials - n_ok,
        )
        rows.append(row)
        if csv_out is not None:
            write_csv_row(csv_out, astuple(row))
    overall = total_wins / total_valid if total_valid else math.nan
    return CompareReport(rows=tuple(rows), overall_win_rate=overall)

