"""Benchmark for `tunedline sweep`: seeded workloads, every output checked.

Run from the repository root, with nothing installed (the package is
imported from src/):

    python3 perfbench/run.py --workload sweep-lossless-large --seed 1 --seconds 25 --trace 0

All load comes from this one process and thread, in a closed loop with
one client: the next op starts when the previous one and its checks are
done.  An op is one `sweep` run, either a `python -m tunedline` process
(cli-bundled) or an in-process `tunedline.cli.main` call.  Outputs are
checked outside the timed region (see checks.py); an op that fails a
check counts as failed.

Every time is scaled to a reference machine speed by speed.Gauge, with
the process and its children pinned to one CPU; the raw wall-clock
figures go to the results file beside the scaled ones.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each config
in-process untraced, then traced, then replays its scalar layers, and
prints the per-layer metrics (op_tail_s there is the tail of the untraced
ops).  The last stdout line is one JSON object {correct, attempted,
failed, metrics} holding the metrics BENCHMARK.json names for the mode.
Spans and full results are written under .perfbench/ in the repository
root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from speed import Gauge
from workloads import BUNDLED, WORKLOADS, make_cases, write_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
GOLDEN = json.loads((HERE / "golden.json").read_text())

SETUP_SPAWNS = 15  # fresh processes timed for setup_s, after one warm-up
START_SPAWNS = 5  # fresh processes timed for python.start_s and cli.import_s
MIN_TAIL_BEYOND = 10

SETUP_CODE = (
    "import sys, tunedline.cli\n"
    "from tunedline.config import load_sweep_config, resolve_config_arg\n"
    "for arg in sys.argv[1:]:\n"
    "    load_sweep_config(resolve_config_arg(arg))\n"
)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(argv: list[str]) -> tuple[float, int, float]:
    """Run argv to completion from the repo root: (wall s, exit code, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def median_spawn(gauge: Gauge, argv: list[str], n: int) -> float:
    """Median scaled wall time of n fresh processes, after one warm-up."""
    spawn(argv)  # fills the page cache and the bytecode caches
    times = []
    for _ in range(n):
        gauge.mark()
        wall, rc, _ = spawn(argv)
        times.append(wall * gauge.factor())
        if rc != 0:
            raise RuntimeError(f"{argv[:3]} exited with {rc}")
    return statistics.median(times)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tunedline").rglob("*")):
        if path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Op:
    wall: float  # raw seconds
    factor: float  # speed.Gauge scale for this op
    case: int
    check: object  # checks.OpCheck
    rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.check.problems

    @property
    def seconds(self) -> float:
        """Scaled op time; a failed op counts as missing every latency limit."""
        return self.wall * self.factor if self.ok else math.inf


class Bench:
    def __init__(self, wl, cases, seed: int, work: Path, gauge: Gauge):
        from checks import Expected, parse_model
        from tunedline import cli
        from tunedline.config import load_sweep_config, resolve_config_arg

        self.cli = cli
        self.wl = wl
        self.cases = cases
        self.seed = seed
        self.work = work
        self.gauge = gauge
        self.model, self.sections = parse_model(wl.model)
        paths = [resolve_config_arg(c.config_arg) for c in cases]
        self.config_sha256 = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        self.expected = [
            Expected(
                cfg=load_sweep_config(path),
                model=self.model,
                pi_sections=self.sections,
                records_json="json" in wl.sweep_args,
                plot_data="--plot-data" in wl.sweep_args,
                golden=GOLDEN.get(c.label),
            )
            for c, path in zip(cases, paths)
        ]
        self.ops: list[Op] = []
        self.digests: dict[int, str] = {}

    def run_op(self, case: int, in_process: bool, out_dir: Path | None = None) -> Op:
        from checks import check_op

        out_dir = out_dir or self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["sweep", "--config", self.cases[case].config_arg, "--out", str(out_dir),
                *self.wl.sweep_args]
        rss = 0.0
        gc.collect()  # every op starts from the same heap state, as a fresh process does
        self.gauge.mark()
        if in_process:
            with redirect_stdout(StringIO()):
                start = time.perf_counter()
                rc = self.cli.main(argv)
                wall = time.perf_counter() - start
        else:
            wall, rc, rss = spawn([sys.executable, "-m", "tunedline", *argv])
        factor = self.gauge.factor()

        check = check_op(out_dir, self.expected[case], rc,
                         random.Random(f"check:{self.seed}:{len(self.ops)}"))
        if check.config_digest and self.digests.setdefault(case, check.config_digest) != (
            check.config_digest
        ):
            check.problems.append("manifest config_digest changed between runs of one config")
        for problem in check.problems[:3]:
            print(f"check failed ({self.cases[case].label}): {problem}", file=sys.stderr)
        op = Op(wall, factor, case, check, rss)
        self.ops.append(op)
        return op


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest percentile with
    MIN_TAIL_BEYOND samples beyond it, never below the median."""
    times = sorted(times)
    n = len(times)
    rank = max(n - MIN_TAIL_BEYOND, n // 2 + 1)
    return 100.0 * rank / n, times[rank - 1], n - rank


def end_to_end(bench: Bench, seconds: float, setup_s: float) -> tuple[dict, dict]:
    in_process = bench.wl.in_process
    bench.run_op(0, in_process)  # warm-up: checked, not timed
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(bench.run_op(len(ops) % len(bench.cases), in_process))

    times = [op.seconds for op in ops]
    pct, tail_s, beyond = tail(times)
    points = sum(op.check.rows for op in ops if op.ok)
    if in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(op.rss_mb for op in ops)
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_SPAWNS),
        "op_s": (statistics.median(times), "s", len(ops)),
        "op_tail_s": (tail_s, "s", len(ops)),
        "points_per_s": (points / sum(op.wall * op.factor for op in ops), "1/s", len(ops)),
        "peak_rss_mb": (rss, "MB", 1),
        "error_rate": (failed / len(ops), "ratio", len(ops)),
    }
    extra = {
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "op_wall_median_s": statistics.median(op.wall for op in ops),
        "speed_factor_median": statistics.median(op.factor for op in ops),
        "op_wall_s": [op.wall for op in ops],
        "op_factor": [op.factor for op in ops],
    }
    return metrics, extra


def golden_probe(bench: Bench) -> bool:
    """Run both bundled configs in-process; True when their records.csv bytes match."""
    wl = WORKLOADS["cli-bundled"]
    probe = Bench(wl, make_cases(wl, 0), bench.seed, bench.work, bench.gauge)
    ops = [probe.run_op(case, True, bench.work / f"golden-{case}") for case in range(len(BUNDLED))]
    bench.ops.extend(ops)
    return all(op.check.golden_match for op in ops)


def per_layer(bench: Bench, seconds: float, start_s: float) -> tuple[dict, dict]:
    from tracing import Recorder, Replay

    from tunedline.linemodel import RECIPROCITY_TOL

    gauge = bench.gauge
    import_s = median_spawn(gauge, [sys.executable, "-c", "import tunedline.cli"], START_SPAWNS)
    golden_match = bench.wl.name == "cli-bundled" or golden_probe(bench)

    # Each iteration runs one config untraced, then traced, then replays its
    # scalar layers, so all three see the same machine conditions.
    bench.run_op(0, True)  # warm-up
    recorder = Recorder()
    untraced, traced, replays, replay_factors = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        case = len(traced) % len(bench.cases)
        untraced.append(bench.run_op(case, True))
        recorder.op = len(traced)
        recorder.install()
        try:
            traced.append(bench.run_op(case, True))
        finally:
            recorder.uninstall()
        replays.append(Replay())
        gauge.mark()
        replays[-1].run(bench.expected[case].cfg, bench.model, bench.sections)
        replay_factors.append(gauge.factor())

    golden_match = golden_match and all(op.check.golden_match is not False for op in bench.ops)
    first_per_case = {}
    for op in untraced + traced:
        if op.ok:
            first_per_case.setdefault(op.case, op.check)
    checks = list(first_per_case.values())
    singular = sum(c.singular for c in checks)

    spans = recorder.per_op()
    ok = [i for i, op in enumerate(traced) if op.ok]

    def span_s(i: int, *names: str) -> float:
        return sum(spans.get(i, {}).get(n, 0.0) for n in names) * traced[i].factor

    def span_median(*names: str) -> float:
        return statistics.median(span_s(i, *names) for i in ok) if ok else math.nan

    def replay_us(i: int, layer: str) -> float:
        return replays[i].us_per_point(layer) * replay_factors[i]

    def replay_median(layer: str) -> float:
        return statistics.median(replay_us(i, layer) for i in range(len(replays)))

    n_points = bench.wl.n_points
    model_layer = {"lossless": "lossless", "exact": "exact"}.get(bench.model, "pi_cascade")
    sweep_us = {i: span_s(i, "sweep.run_sweep") / n_points * 1e6 for i in ok}
    self_us = [
        sweep_us[i] - sum(replay_us(i, k) for k in (model_layer, "solve", "accounting"))
        for i in ok
    ]
    max_defect = max(r.max_defect for r in replays)
    traced_s = statistics.median(op.seconds for op in traced)
    untraced_s = statistics.median(op.seconds for op in untraced)
    n_it, n_ok = len(replays), len(ok)

    metrics = {
        "python.start_s": (start_s, "s", START_SPAWNS),
        "cli.import_s": (import_s - start_s, "s", START_SPAWNS),
        "cli.self_s": (span_median("cli.main.self"), "s", n_ok),
        "config.load_s": (span_median("config.load_sweep_config"), "s", n_ok),
        "linemodel.lossless_us_per_point": (replay_median("lossless"), "us", n_it),
        "linemodel.exact_us_per_point": (replay_median("exact"), "us", n_it),
        "linemodel.pi_cascade_us_per_point": (replay_median("pi_cascade"), "us", n_it),
        "linemodel.max_reciprocity_defect": (max_defect, "ratio", n_it),
        "powerflow.solve_us_per_point": (replay_median("solve"), "us", n_it),
        "powerflow.accounting_us_per_point": (replay_median("accounting"), "us", n_it),
        "powerflow.singular_rows": (singular, "count", len(checks)),
        "powerflow.singular_ratio": (singular / (n_points * len(checks)), "ratio", len(checks)),
        "sweep.run_sweep_s": (span_median("sweep.run_sweep"), "s", n_ok),
        "sweep.us_per_point": (statistics.median(sweep_us.values()), "us", n_ok),
        "sweep.self_us_per_point": (statistics.median(self_us), "us", n_ok),
        "sweep.detect_dips_s": (span_median("sweep.detect_tuning_dips"), "s", n_ok),
        "sweep.dips_matched": (sum(c.dips_matched for c in checks), "count", len(checks)),
        "sweep.dips_unmatched": (sum(c.dips_unmatched for c in checks), "count", len(checks)),
        "reporting.csv_s": (span_median("reporting.to_csv_rows", "reporting.format_sweep_csv"),
                            "s", n_ok),
        "reporting.csv_bytes": (statistics.median(c.csv_bytes for c in checks), "bytes",
                                len(checks)),
        "reporting.write_s": (span_median("reporting.write_text_atomic"), "s", n_ok),
        "reporting.bytes_written": (statistics.median(c.bytes_written for c in checks), "bytes",
                                    len(checks)),
        "reporting.files_written": (statistics.median(c.files_written for c in checks), "count",
                                    len(checks)),
        "reporting.manifest_s": (span_median("reporting.build_manifest"), "s", n_ok),
        "reporting.csv_golden_match": (int(golden_match), "bool", len(BUNDLED)),
        "check.max_oracle_residual": (max(op.check.residual for op in bench.ops), "ratio",
                                      len(bench.ops)),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio", len(traced)),
    }
    pct, tail_s, beyond = tail([op.seconds for op in untraced])
    metrics["op_tail_s"] = (tail_s, "s", len(untraced))
    extra = {
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "untraced_op_s": untraced_s,
        "traced_op_s": traced_s,
        "reciprocity_ok": max_defect < RECIPROCITY_TOL,
    }
    if not extra["reciprocity_ok"]:
        print(f"reciprocity defect {max_defect:.3e} >= {RECIPROCITY_TOL}", file=sys.stderr)
    trace_path = STATE / "trace" / f"{bench.wl.name}-seed{bench.seed}.json"
    recorder.dump(trace_path, {
        "workload": bench.wl.name, "seed": bench.seed, "n_points": n_points,
        "op_speed_factor": [op.factor for op in traced],
    })
    extra["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, extra


def finite(value: float) -> float | None:
    """JSON has no infinity: a median over failed ops reads null."""
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tunedline" / "cli.py").is_file():
        print(f"error: no tunedline package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    wl = WORKLOADS[args.workload]
    cases = make_cases(wl, args.seed)
    if cases != make_cases(wl, args.seed):
        print("error: workload generation is not deterministic", file=sys.stderr)
        return 3

    # One CPU for the gauge, the ops and their child processes: the two
    # vCPUs of a shared host drift apart in speed, and a child process on
    # the other CPU would not be measured by the gauge at all.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cases = write_cases(cases, work)
        gauge = Gauge()
        start_s = median_spawn(gauge, [sys.executable, "-c", "pass"], START_SPAWNS)
        bench = Bench(wl, cases, args.seed, work, gauge)
        if args.trace:
            metrics, extra = per_layer(bench, args.seconds, start_s)
        else:
            setup_argv = [sys.executable, "-c", SETUP_CODE, *(c.config_arg for c in cases)]
            setup_s = median_spawn(gauge, setup_argv, SETUP_SPAWNS)
            metrics, extra = end_to_end(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.ops)
    failed = sum(not op.ok for op in bench.ops)
    correct = failed == 0 and extra.get("reciprocity_ok", True)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python.start_s": start_s,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {"n_points": wl.n_points, "configs": len(cases), "model": wl.model,
                  "sweep_args": list(wl.sweep_args), "in_process": wl.in_process},
        "config_sha256": bench.config_sha256,
    }
    print(f"# tunedline benchmark  workload={wl.name} seed={args.seed} trace={args.trace}")
    print(f"# env: {json.dumps(env)}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:36s} {value!r:>24} {unit:6s} n={n}")
    print(f"# op_tail_s is p{extra['op_tail_percentile']:.1f} with "
          f"{extra['op_tail_samples_beyond']} samples beyond; "
          f"{attempted} ops attempted, {failed} failed")

    results = STATE / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "env": env, "extra": extra, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": finite(metrics[k][0]), "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
