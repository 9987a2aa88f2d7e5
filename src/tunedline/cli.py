"""Command-line interface: tuning queries, single-point solves, sweeps.

Exit codes: 0 success, 2 argument or config error, 3 singular operating
point (solve only), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from itertools import islice
from pathlib import Path

from . import __version__
from .config import load_sweep_config, resolve_config_arg
from .linemodel import Frequency
from .powerflow import ResonanceError
from .reporting import (
    PLOT_QUANTITIES,
    RecordWriter,
    build_manifest,
    dips_report_json,
    open_atomic,
)
from .sweep import TuningDipWindow, sweep_points
from .tuning import DEFAULT_VELOCITY_KM_S, tuned_lengths, tuning_frequencies

# Grid points `sweep` solves and appends to its files per step:
# large enough that the per-chunk cost vanishes, small enough that peak
# memory does not grow with n_points.
CHUNK_POINTS = 4096


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunedline",
        description="Steady-state simulation of long HVAC lines and tuned-frequency analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tuning = sub.add_parser(
        "tuning",
        help="tuned lengths for a frequency, or tuning frequencies for a length",
    )
    group = p_tuning.add_mutually_exclusive_group(required=True)
    group.add_argument("--length", type=float, metavar="KM", help="line length in km")
    group.add_argument("--frequency", type=float, metavar="HZ", help="supply frequency in Hz")
    p_tuning.add_argument(
        "--velocity",
        type=float,
        default=DEFAULT_VELOCITY_KM_S,
        metavar="KM_S",
        help="wave velocity in km/s (default %(default)s)",
    )
    p_tuning.add_argument(
        "--n-max", type=int, default=3, metavar="N", help="highest harmonic (default 3)"
    )
    p_tuning.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output format"
    )
    p_tuning.set_defaults(func=cmd_tuning)

    p_solve = sub.add_parser("solve", help="solve one operating point of a configured system")
    p_solve.add_argument("--config", required=True, help="config file path or bundled name")
    p_solve.add_argument(
        "--frequency", type=float, required=True, metavar="HZ", help="supply frequency in Hz"
    )
    p_solve.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_solve.add_argument("--out", help="also write the JSON report to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a frequency sweep and emit CSV plus reports")
    p_sweep.add_argument("--config", required=True, help="config file path or bundled name")
    p_sweep.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p_sweep.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="records format; json writes records.json alongside the CSV",
    )
    p_sweep.add_argument(
        "--plot-data",
        action="store_true",
        help="also write two-column gnuplot files per quantity",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def cmd_tuning(args: argparse.Namespace) -> int:
    if args.length is not None:
        solutions = tuning_frequencies(args.length, args.velocity, args.n_max)
        unit, title = "Hz", f"tuning frequencies for a {args.length:g} km line"
    else:
        solutions = tuned_lengths(Frequency(args.frequency), args.velocity, args.n_max)
        unit, title = "km", f"tuned lengths at {args.frequency:g} Hz"

    if args.format == "json":
        payload = [{"n": s.n, "value": s.value, "unit": unit} for s in solutions]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(f"n,value_{unit.lower()}")
        for s in solutions:
            print(f"{s.n},{format(s.value, '.17g')}")
    else:
        print(f"# {title} (v = {args.velocity:g} km/s)")
        print(f"{'n':>3}  {'value':>14}")
        for s in solutions:
            print(f"{s.n:>3}  {s.value:>11.6g} {unit}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_sweep_config(resolve_config_arg(args.config))
    frequency = Frequency(args.frequency).f  # rejects non-positive and non-finite values
    (record,) = sweep_points(cfg, [frequency])
    if record.singular:
        raise ResonanceError(f"line-load resonance at f = {frequency} Hz")
    report = json.dumps(record._asdict(), indent=2)
    if args.format == "json":
        print(report)
    else:
        f_hz, p_r_mw, q_r_mvar, q_line_mvar, vs_kv, vr_kv, delta_v, _ = record
        print(f"f        = {f_hz:g} Hz")
        print(f"model    = {cfg.model}, length = {cfg.length:g} km")
        print(f"P_r      = {p_r_mw:.6g} MW (three-phase)")
        print(f"Q_r      = {q_r_mvar:.6g} MVAr")
        print(f"Q_line   = {q_line_mvar:.6g} MVAr")
        print(f"|Vs|     = {vs_kv:.6g} kV (line-to-line)")
        print(f"|Vr|     = {vr_kv:.6g} kV")
        print(f"delta_v  = {delta_v:.6g}")
    if args.out:
        with open_atomic(args.out) as fh:
            fh.write(report + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Stream the sweep into one output set, CHUNK_POINTS records at a time.

    Every file of the run is written through open_atomic as a .partial
    sibling, and none is renamed until all are written: the records,
    dips.json and manifest.json.  manifest.json is renamed last, so it
    marks a complete run, and a failure before then leaves the previous
    run's files as they were.  After the renames, the fixed-name outputs
    this run did not write are deleted, so the directory holds one run.
    """
    cfg = load_sweep_config(resolve_config_arg(args.config))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every fixed-name output, in the manifest's order, and whether this run writes it
    file_set = {
        "records.csv": True,
        "records.json": args.format == "json",
        "dips.json": True,
        **{f"{q}.dat": args.plot_data for q in PLOT_QUANTITIES},
    }
    outputs = [out_dir / name for name, written in file_set.items() if written]

    records = sweep_points(cfg, cfg.grid())
    window = TuningDipWindow(cfg.length, cfg.line.velocity)
    n_records = 0
    with ExitStack() as stack:
        # entered first, so renamed last, once every other file is in place
        manifest_file = stack.enter_context(open_atomic(out_dir / "manifest.json"))
        csv, records_json, dips_file, *plots = [
            stack.enter_context(open_atomic(out_dir / name)) if written else None
            for name, written in file_set.items()
        ]
        writer = RecordWriter(csv, records_json, plots if args.plot_data else ())
        while chunk := list(islice(records, CHUNK_POINTS)):
            window.extend(chunk)
            writer.write(chunk)
            n_records += len(chunk)
        writer.close()
        dips = window.close()
        dips_file.write(dips_report_json(dips))
        manifest = build_manifest(cfg, [str(path) for path in outputs])
        manifest_file.write(json.dumps(manifest, indent=2) + "\n")
    for name, written in file_set.items():
        if not written:
            (out_dir / name).unlink(missing_ok=True)

    n_singular = n_records - window.usable
    print(f"wrote {n_records} records ({n_singular} singular) to {outputs[0]}")
    matched = [d for d in dips if d.n_matched > 0]
    print(f"tuning dips: {len(matched)} matched, {len(dips) - len(matched)} unmatched")
    for d in matched:
        print(f"  n={d.n_matched}  f={d.f_detected:g} Hz")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResonanceError as exc:
        print(f"error: singular operating point: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
