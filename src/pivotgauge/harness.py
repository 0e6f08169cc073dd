"""Experiment harness: static sweep, dynamic trajectory, stream replay,
estimator comparison.

The static protocol applies discrete rotations one frame at a time and
bypasses the temporal filter; the dynamic protocol streams a trajectory
through the full filtered pipeline. Every emitted CSV has a fixed column
order and is byte-deterministic under a fixed seed.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import astuple, dataclass, replace
from typing import IO, Optional

import numpy as np

from .config import SWEEP_ANGLES, FullConfig
from .core import ContactState, Frame, InsufficientDataError
from .estimation import RotationPipeline, baseline_least_squares, estimate_frame
from .simulate import generate_frame, iter_trajectory
from .streams import NumberedLines, read_frames, read_header, write_csv_row

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
    failures: int


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


def _sweep_errors(config: FullConfig) -> tuple[np.ndarray, np.ndarray]:
    """Absolute errors of the proposed and baseline estimators per trial.

    Both arrays are (len(SWEEP_ANGLES), harness.trials). A trial is a single
    independently seeded frame at a fixed angle run through the unfiltered
    pipeline. A nan entry is a failed trial: the baseline fails where no
    contact was detected or too few markers were flagged for its fit.
    """
    config.scenario.require_times(0.0, 0.0)  # every trial is a frame at t = 0
    trials = config.harness.trials
    proposed = np.empty((len(SWEEP_ANGLES), trials))
    baseline = np.full_like(proposed, math.nan)
    for angle_pos, theta in enumerate(SWEEP_ANGLES):
        scenario = replace(config.scenario, theta_trajectory=float(theta))
        for trial in range(trials):
            frame, _truth = generate_frame(scenario, 0.0, frame_index=angle_pos * trials + trial)
            estimate, mask, _region = estimate_frame(
                config.grid, frame, config.segmentation, config.softness
            )
            proposed[angle_pos, trial] = abs(estimate.theta - theta)
            if mask.contact_detected:  # without contact the baseline has nothing to fit
                with contextlib.suppress(InsufficientDataError):
                    base = baseline_least_squares(config.grid, frame, mask)
                    baseline[angle_pos, trial] = abs(base.theta - theta)
    return proposed, baseline


def _mean_std(errors: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of some errors; nan for none."""
    if not errors.size:
        return math.nan, math.nan
    return float(errors.mean()), float(errors.std())


def _sweep_reports(proposed: np.ndarray, baseline: np.ndarray) -> dict[str, SweepReport]:
    """Reduce each estimator's table of per-trial errors, (angles, trials).

    A nan error is a failed trial. Every mean and std covers the trials that
    did not fail, and a row's ``failures`` counts the ones that did.
    """
    reports = {}
    for estimator, errors in (("proposed", proposed), ("baseline", baseline)):
        failed = np.isnan(errors)
        rows = tuple(
            SweepRow(float(theta), len(row), *_mean_std(row[~row_failed]), int(row_failed.sum()))
            for theta, row, row_failed in zip(SWEEP_ANGLES, errors, failed)
        )
        reports[estimator] = SweepReport(estimator, rows, *_mean_std(errors[~failed]))
    return reports


def run_static_sweep(
    config: FullConfig,
    csv_out: Optional[IO[str]] = None,
) -> dict[str, SweepReport]:
    """Static rotation sweep over integer angles 2..20 degrees: errors per
    angle and overall for the stick-region estimator and the least-squares
    baseline."""
    reports = _sweep_reports(*_sweep_errors(config))
    if csv_out is not None:
        write_csv_row(csv_out, SWEEP_CSV_HEADER)
        for prop, base in zip(reports["proposed"].rows, reports["baseline"].rows):
            write_csv_row(csv_out, (
                prop.theta_true, prop.trials, prop.mean_abs_error, prop.std_error,
                base.mean_abs_error, base.std_error, base.failures,
            ))
    return reports


@dataclass(frozen=True)
class DynamicResult:
    n_frames: int
    in_range_frames: int
    mare: float


def _estimate_row(pipeline: RotationPipeline, frame: Frame) -> tuple:
    """Run one frame through the filtered pipeline; return its row of
    ``ESTIMATE_CSV_HEADER`` values."""
    filtered = pipeline.process_frame(frame)
    return (frame.timestamp, pipeline.last_raw.theta, filtered.theta, filtered.state,
            filtered.stick_ratio)


def run_dynamic(config: FullConfig, csv_out: Optional[IO[str]] = None) -> DynamicResult:
    """Stream the configured trajectory through the filtered pipeline, each
    frame made, estimated and written before the next one is made.

    The summary error covers only in-range frames: |true angle| within
    [2, 20] degrees and no macro slip.
    """
    harness = config.harness
    # Checked before the header: a trajectory the scenario does not cover.
    trajectory = iter_trajectory(config.scenario, harness.t_start, harness.t_end, harness.rate_hz)
    if csv_out is not None:
        write_csv_row(csv_out, DYNAMIC_CSV_HEADER)
    pipeline = RotationPipeline(config.grid, config.segmentation, config.softness)
    errors = []
    n = 0
    for n, (frame, truth) in enumerate(trajectory, start=1):
        t, raw_theta, theta, state, stick_ratio = _estimate_row(pipeline, frame)
        in_range = VALID_RANGE[0] <= abs(truth.theta) <= VALID_RANGE[1]
        if in_range and state is not ContactState.MACRO_SLIP:
            errors.append(abs(theta - truth.theta))
        if csv_out is not None:
            write_csv_row(csv_out, (t, truth.theta, raw_theta, theta, state, stick_ratio))
    mare = float(np.mean(errors)) if errors else math.nan
    return DynamicResult(n_frames=n, in_range_frames=len(errors), mare=mare)


def estimate_from_stream(
    lines,
    config: FullConfig,
    csv_out: IO[str],
    warn: Optional[IO[str]] = None,
) -> int:
    """Replay an NDJSON frame stream through the pipeline, CSV to ``csv_out``.

    ``lines`` is any iterable of lines: a list, an open file or stdin. The
    stream header defines the grid. Malformed frame lines are skipped
    with a warning; a malformed header is fatal. Returns the number of
    frames processed.
    """
    lines = NumberedLines(lines)  # the header is read once, then frames from the next line
    grid = read_header(lines)
    write_csv_row(csv_out, ESTIMATE_CSV_HEADER)
    pipeline = RotationPipeline(grid, config.segmentation, config.softness)
    n = 0
    for n, frame in enumerate(read_frames(lines, grid, warn=warn), start=1):
        write_csv_row(csv_out, _estimate_row(pipeline, frame))
    return n


def compare_estimators(config: FullConfig, csv_out: Optional[IO[str]] = None) -> CompareReport:
    """Side-by-side per-angle errors plus the proposed-vs-baseline win rate.

    A trial is a win when the stick-region estimator's absolute error is
    strictly smaller than the baseline's. A failed baseline trial is never a
    win and is left out of the win rate, which covers the measured trials.
    The CLI's ``baseline insufficient-data trials: N`` sums the rows'
    ``baseline_failures``: N counts the trials without a detected contact
    as well as those with fewer than 3 flagged markers.
    """
    proposed, baseline = _sweep_errors(config)
    reports = _sweep_reports(proposed, baseline)
    ours, theirs = reports["proposed"].rows, reports["baseline"].rows
    wins = np.sum(proposed < baseline, axis=1)  # False where the baseline is nan
    measured = np.array([row.trials - row.failures for row in theirs])
    with np.errstate(invalid="ignore"):  # no trial measured: 0 / 0, a nan win rate
        win_rates, overall = (wins / measured).tolist(), float(wins.sum() / measured.sum())
    rows = tuple(
        CompareRow(p.theta_true, p.trials, p.mean_abs_error, b.mean_abs_error, rate, b.failures)
        for p, b, rate in zip(ours, theirs, win_rates)
    )
    if csv_out is not None:
        write_csv_row(csv_out, COMPARE_CSV_HEADER)
        for row in rows:
            write_csv_row(csv_out, astuple(row))
    return CompareReport(rows=rows, overall_win_rate=overall)
