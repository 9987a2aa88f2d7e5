"""Command-line interface: tuning queries, single-point solves, sweeps.

`main(argv)` returns the exit code: 0 success, 2 argument or config
error, 3 singular operating point (solve only), 4 I/O error.  It may be
called repeatedly in one process; the argument parser is built on the
first call and reused by later ones, never at import.  Each command
imports json, config and reporting itself, only if it runs them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import ExitStack
from itertools import islice
from pathlib import Path

from . import __version__
from .linemodel import Frequency
from .powerflow import ResonanceError
from .sweep import summarize, sweep_points
from .tuning import DEFAULT_VELOCITY_KM_S, tuned_lengths, tuning_frequencies

# Grid points `sweep` solves and appends to its files per step:
# large enough that the per-chunk cost vanishes, small enough that peak
# memory does not grow with n_points.
CHUNK_POINTS = 4096

# Highest `tuning --n-max`: the command builds every solution and its whole
# report before printing, ~1 KB per harmonic.  At the default velocity the
# 1000th harmonic is at least 150 kHz on any line up to 1000 km.
TUNING_N_MAX = 1000


# built by main's first call and reused by later ones: the tree depends only
# on module constants, and parse_args keeps its state in the Namespace it returns
@functools.cache
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
        "--n-max", type=int, default=3, metavar="N",
        help=f"highest harmonic, at most {TUNING_N_MAX} (default %(default)s)",
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
    if args.n_max > TUNING_N_MAX:
        raise ValueError(f"--n-max must be at most {TUNING_N_MAX}")
    if args.length is not None:
        solutions = tuning_frequencies(args.length, args.velocity, args.n_max)
        unit, title = "Hz", f"tuning frequencies for a {args.length!r} km line"
    else:
        solutions = tuned_lengths(Frequency(args.frequency), args.velocity, args.n_max)
        unit, title = "km", f"tuned lengths at {args.frequency!r} Hz"

    if args.format == "json":
        import json
        payload = [{"n": s.n, "value": s.value, "unit": unit} for s in solutions]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(f"n,value_{unit.lower()}")
        for s in solutions:
            print(f"{s.n},{format(s.value, '.17g')}")
    else:
        print(f"# {title} (v = {args.velocity!r} km/s)")
        print(f"{'n':>3}  {'value':>14}")
        for s in solutions:
            print(f"{s.n:>3}  {s.value:>11.6g} {unit}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    import json
    from .config import load_sweep_config, resolve_config_arg
    from .reporting import open_atomic
    cfg = load_sweep_config(resolve_config_arg(args.config))
    frequency = Frequency(args.frequency).f  # rejects non-positive and non-finite values
    (record,) = sweep_points(cfg, [frequency])
    if record.singular:
        raise ResonanceError(f"line-load resonance at f = {frequency} Hz")
    report = json.dumps(record._asdict(), indent=2)
    # written before anything is printed, so a failed write (exit 4) prints nothing
    if args.out:
        # a Path, so that f/ names the file f, as pathlib spells it
        with open_atomic(Path(args.out)) as fh:
            fh.write(report + "\n")
    if args.format == "json":
        print(report)
    else:
        f_hz, p_r_mw, q_r_mvar, q_line_mvar, vs_kv, vr_kv, delta_v, _ = record
        print(f"f        = {f_hz!r} Hz")
        model = f"pi-cascade({cfg.pi_sections})" if cfg.model == "pi-cascade" else cfg.model
        print(f"model    = {model}, length = {cfg.length!r} km")
        print(f"P_r      = {p_r_mw:.6g} MW (three-phase)")
        print(f"Q_r      = {q_r_mvar:.6g} MVAr")
        print(f"Q_line   = {q_line_mvar:.6g} MVAr")
        print(f"|Vs|     = {vs_kv:.6g} kV (line-to-line)")
        print(f"|Vr|     = {vr_kv:.6g} kV")
        print(f"delta_v  = {delta_v:.6g}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Stream the sweep into one output set, CHUNK_POINTS records at a time.

    Every file of the run is written through open_atomic as a .partial
    sibling, and none is renamed until all are written: the records,
    dips.json and manifest.json.  manifest.json is renamed last, so it
    marks a complete run, and a failure before then leaves the previous
    run's files as they were.  After the renames, the fixed-name outputs
    this run did not write are deleted, so the directory holds one run.

    --out becomes the run's one Path, which makes the directory and
    spells it as pathlib does (d/ and ./d as d, d//x as d/x) for stdout
    and the manifest.  Every output path is a str joined to that
    spelling, and is checked, opened and deleted through os.
    """
    import json
    from .config import load_sweep_config, resolve_config_arg
    from .reporting import (PLOT_QUANTITIES, RecordWriter, build_manifest, dips_report_json,
                            open_atomic)
    cfg = load_sweep_config(resolve_config_arg(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out_dir = str(out)
    # every fixed-name output, in the manifest's order, and whether this run writes it
    file_set = {
        "records.csv": True,
        "records.json": args.format == "json",
        "dips.json": True,
        **{f"{q}.dat": args.plot_data for q in PLOT_QUANTITIES},
    }
    # each output path is prefix + name, as pathlib joins them: d/x/name, and name in .
    prefix = "" if out_dir == "." else os.path.join(out_dir, "")
    outputs = [prefix + name for name, written in file_set.items() if written]
    # a directory at a fixed name would fail its rename or unlink after others succeeded
    for path in [prefix + name for name in ("manifest.json", *file_set)]:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory, not an output file")

    with ExitStack() as stack:
        # entered first, so renamed last, once every other file is in place
        manifest_file = stack.enter_context(open_atomic(prefix + "manifest.json"))
        csv, records_json, dips_file, *plots = [
            stack.enter_context(open_atomic(prefix + name)) if written else None
            for name, written in file_set.items()
        ]
        writer = RecordWriter(csv, records_json, plots if args.plot_data else ())

        def written_records():
            records = sweep_points(cfg, cfg.grid())
            while chunk := list(islice(records, CHUNK_POINTS)):
                writer.write(chunk)
                yield from chunk

        summary = summarize(written_records(), cfg.length, cfg.line.velocity)
        writer.close()
        dips_file.write(dips_report_json(summary.dips))
        manifest = build_manifest(cfg, outputs)
        manifest_file.write(json.dumps(manifest, indent=2) + "\n")
    for name, written in file_set.items():
        if not written:
            try:
                os.unlink(prefix + name)
            except FileNotFoundError:
                pass

    # the files are committed, so the path is spelled as stdout can carry it: a
    # character its encoding and error handler refuse becomes \xe9 or \udce9
    path, encoding = outputs[0], getattr(sys.stdout, "encoding", None) or "utf-8"
    try:
        path.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
    except UnicodeEncodeError:
        path = path.encode(encoding, "backslashreplace").decode(encoding)
    print(f"wrote {summary.n_records} records ({summary.n_singular} singular) to {path}")
    matched = [d for d in summary.dips if d.n_matched > 0]
    print(f"tuning dips: {len(matched)} matched, {len(summary.dips) - len(matched)} unmatched")
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
