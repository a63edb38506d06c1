"""Command-line entry points.

Subcommands: simulate, sweep-delta-t, sweep-event-rate, compare-sampling,
active-pixels. Exit code 0 on success, 2 when the input is at fault (a
scenario value, a flag, an input file or an ``OSError``), and 1, with no
message, when the reader closes stdout early (``evsl ... | head``). Any
other error is a fault of the program and is raised with its traceback.
A table's header is its first row's keys, declared in :mod:`evsl.harness`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .events import make_event_frame
from .formats import read_event_stream, write_csv
from .harness import (
    DUMP_KINDS,
    ConfigError,
    compare_sampling,
    load_scenario,
    run_scenario,
    steady_periods,
    sweep_dwell_time,
    sweep_event_rate,
)
from .policy import active_pixel_fraction


_MAX_FREQUENCIES = 1_000_000


def _frequencies(args) -> list[float]:
    for flag, value in (("--f-min", args.f_min), ("--f-max", args.f_max), ("--f-step", args.f_step)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag}: must be finite, got {value}")
    if args.f_min <= 0:
        raise ConfigError(f"--f-min: must be positive, got {args.f_min}")
    if args.f_step <= 0 or args.f_max < args.f_min:
        raise ConfigError("invalid frequency range: need f_min <= f_max and f_step > 0")
    if args.f_max + args.f_step == args.f_max:
        raise ConfigError(f"--f-step: {args.f_step} no longer changes the frequency at {args.f_max} Hz")
    steps = (args.f_max + 1e-9 - args.f_min) / args.f_step  # counted before any is built
    if steps >= _MAX_FREQUENCIES:
        raise ConfigError(f"--f-step: {args.f_step} makes more than {_MAX_FREQUENCIES} frequencies "
                          f"from {args.f_min} to {args.f_max} Hz")
    return [round(args.f_min + i * args.f_step, 9) for i in range(math.floor(steps) + 1)]


def _emit_rows(rows, out_path) -> None:
    """The rows as CSV under the first row's keys, to stdout when ``out_path`` is None."""
    write_csv(sys.stdout if out_path is None else out_path, list(rows[0]), (row.values() for row in rows))
    if out_path is not None:
        print(f"wrote {out_path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evsl",
        description="Event-guided structured-light depth sensing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_args = argparse.ArgumentParser(add_help=False)  # shared by simulate and compare-sampling
    run_args.add_argument("scenario", type=Path, help="scenario YAML file")
    run_args.add_argument("--out-dir", type=Path, default=None, help="artifact directory")
    run_args.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_args.add_argument("--periods", type=int, default=None, help="override the period count")
    run_args.add_argument("--parallel", action="store_true",
                          help="run the guide stage, then whole periods, on a 2-worker thread pool (identical output)")

    sim = sub.add_parser("simulate", parents=[run_args], help="run one scenario and write per-period metrics")
    sim.add_argument("--dump", nargs="+", choices=DUMP_KINDS, default=[],
                     help="artifact kinds to write per period")
    sim.set_defaults(func=_cmd_simulate)

    for name, quantity, sweep_fn in (
        ("sweep-delta-t", "dense dwell time", sweep_dwell_time),
        ("sweep-event-rate", "theoretical event rate", sweep_event_rate),
    ):
        sweep = sub.add_parser(name, help=f"{quantity} per sensor preset over a frequency range")
        sweep.add_argument("--f-min", type=float, default=50.0, help="lowest scan frequency in Hz")
        sweep.add_argument("--f-max", type=float, default=290.0, help="highest scan frequency in Hz")
        sweep.add_argument("--f-step", type=float, default=10.0, help="frequency step in Hz")
        sweep.add_argument("--out", type=Path, default=None, help="CSV output path (default: stdout)")
        sweep.set_defaults(func=partial(_cmd_sweep, sweep_fn))

    compare = sub.add_parser("compare-sampling", parents=[run_args],
                             help="dense vs sparse vs event-guided on one scenario")
    compare.set_defaults(func=_cmd_compare)

    active = sub.add_parser("active-pixels", help="active-pixel fraction of an event stream file")
    active.add_argument("events", type=Path, help="event stream text file (t_us,x,y,p)")
    active.add_argument("--threshold", type=int, default=1, help="events per pixel to count as active")
    active.add_argument("--resolution", type=int, nargs=2, metavar=("W", "H"), default=None,
                        help="sensor resolution; inferred from the data when omitted")
    active.set_defaults(func=_cmd_active_pixels)
    return parser


def _load_with_overrides(args):
    """The scenario file with ``--seed``/``--periods`` replacing its run values, checked as the file's are."""
    overrides = {"seed": args.seed, "periods": args.periods}
    return replace(load_scenario(args.scenario), **{k: v for k, v in overrides.items() if v is not None})


def _cmd_simulate(args) -> int:
    scenario = _load_with_overrides(args)
    out_dir = args.out_dir or Path("evsl_out") / scenario.name
    reports = run_scenario(scenario, parallel=args.parallel, dump=args.dump, out_dir=out_dir)
    steady = steady_periods(reports)  # as compare-sampling averages
    mean_fraction = sum(r.mask_fraction for r in steady) / len(steady)
    print(f"ran {len(reports)} scan period(s) of '{scenario.name}' (seed {scenario.seed})")
    print(f"mean mask fraction {mean_fraction:.4f} over periods {steady[0].period}+ -> "
          f"{100 * (1 - mean_fraction):.1f}% illumination reduction vs dense")
    print(f"wrote {Path(out_dir) / 'periods.csv'}")
    return 0


def _cmd_sweep(sweep_fn, args) -> int:
    _emit_rows(sweep_fn(frequencies_hz=_frequencies(args)), args.out)
    return 0


def _cmd_compare(args) -> int:
    rows = compare_sampling(_load_with_overrides(args), parallel=args.parallel)
    _emit_rows(rows, None)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        _emit_rows(rows, args.out_dir / "compare_sampling.csv")
    return 0


def _cmd_active_pixels(args) -> int:
    if args.threshold < 1:
        raise ConfigError(f"--threshold: must be at least 1, got {args.threshold}")
    resolution = tuple(args.resolution) if args.resolution else None
    try:
        stream = read_event_stream(args.events, resolution)
    except ValueError as exc:  # the file's content (or --resolution), not the program, is at fault
        raise ConfigError(f"{args.events}: {exc}") from None
    frame = make_event_frame(stream, (0.0, float("inf")))  # timestamps are finite and non-negative
    fraction = active_pixel_fraction(frame, args.threshold)
    print(f"active_pixel_fraction {fraction:.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # as the Python docs' SIGPIPE note advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
