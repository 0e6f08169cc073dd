"""Command-line harness.

Subcommands:

* ``simulate`` - emit an NDJSON frame stream (optionally ground truth),
* ``estimate`` - replay an NDJSON stream through the pipeline, CSV out,
* ``sweep``    - static rotation sweep with per-angle error statistics,
* ``dynamic``  - filtered pipeline over the configured trajectory,
* ``compare``  - stick-region estimator vs least-squares baseline.

Exit codes: 0 success, 1 runtime/data error, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from .config import ConfigError, FullConfig, apply_overrides, build_config, load_document
from .core import UsageError
from .harness import (
    compare_estimators,
    estimate_from_stream,
    run_dynamic,
    run_static_sweep,
)
from .simulate import generate_trajectory
from .streams import StreamFormatError, fmt, write_frame, write_header, write_truth


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config JSON path or preset name (e.g. three-lift)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override scenario.rng_seed")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotgauge",
        description="Incipient-slip-aware pivot rotation measurement on synthetic "
        "or recorded marker displacement streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit an NDJSON frame stream")
    _add_common(p_sim)
    p_sim.add_argument("--truth-out", help="also write ground truth NDJSON to this path")

    p_est = sub.add_parser("estimate", help="estimate rotation from an NDJSON stream")
    _add_common(p_est)
    p_est.add_argument("--in", dest="input", help="input NDJSON path (default: stdin)")

    p_sweep = sub.add_parser("sweep", help="static rotation sweep, 2..20 degrees")
    _add_common(p_sweep)
    p_sweep.add_argument("--trials", type=int, help="trials per angle (default: config)")

    p_dyn = sub.add_parser("dynamic", help="filtered pipeline over the configured trajectory")
    _add_common(p_dyn)

    p_cmp = sub.add_parser("compare", help="proposed vs baseline comparison")
    _add_common(p_cmp)
    p_cmp.add_argument("--trials", type=int, help="trials per angle (default: config)")
    return parser


def _load(args: argparse.Namespace) -> FullConfig:
    # --seed and --trials are shorthands for overrides: applied after the
    # --set values, so they win, and checked at load before any output.
    flags = {"scenario.rng_seed": args.seed, "harness.trials": getattr(args, "trials", None)}
    document = load_document(args.config)
    apply_overrides(document, [
        *args.overrides, *(f"{key}={value}" for key, value in flags.items() if value is not None)
    ])
    return build_config(document)


@contextlib.contextmanager
def _open(path, mode="w"):
    """The file at ``path`` in ``mode`` "r" or "w", or stdin/stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, newline=None if mode == "r" else "") as handle:
            yield handle


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    harness = config.harness
    frames = generate_trajectory(
        config.scenario, harness.t_start, harness.t_end, harness.rate_hz
    )
    with _open(args.out) as out:
        write_header(out, config.grid)
        for frame, _truth in frames:
            write_frame(out, frame)
    if args.truth_out:
        with open(args.truth_out, "w") as out:
            write_header(out, config.grid)
            for frame, truth in frames:
                write_truth(out, frame.timestamp, truth)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _load(args)
    with _open(args.input, "r") as source, _open(args.out) as out:
        if isinstance(out, io.TextIOWrapper):  # a file or pipe: each row as its frame is read
            out.reconfigure(line_buffering=True)
        estimate_from_stream(source, config, out, warn=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    with _open(args.out) as out:
        reports = run_static_sweep(config, csv_out=out)
    for name in ("proposed", "baseline"):
        rep = reports[name]
        print(
            f"{name}: MARE {fmt(rep.mare)} +/- {fmt(rep.mare_std)} deg "
            f"over {sum(r.trials - r.failures for r in rep.rows)} trials",
            file=sys.stderr,
        )
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    config = _load(args)
    with _open(args.out) as out:
        result = run_dynamic(config, csv_out=out)
    print(
        f"dynamic MARE {fmt(result.mare)} deg over {result.in_range_frames} in-range "
        f"of {result.n_frames} frames",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    with _open(args.out) as out:
        report = compare_estimators(config, csv_out=out)
    failures = sum(r.baseline_failures for r in report.rows)
    print(
        f"proposed wins {fmt(report.overall_win_rate)} of valid trials; "
        f"baseline insufficient-data trials: {failures}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "dynamic": _cmd_dynamic,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
