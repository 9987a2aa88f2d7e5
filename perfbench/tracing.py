"""Spans around the calls into tunedline's modules, and per-point replays.

The traced run wraps the coarse public functions each op goes through
(one call per op, so the wrappers cost next to nothing) and keeps every
span in memory until the run ends.  Per-point layers (`linemodel`,
`powerflow`) are not wrapped, since a wrapper on every grid point would
dominate what it measures; they are timed by replaying the public scalar
functions over the op's grid instead.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (span name, module, attribute).  A target the package no longer has is
# recorded as absent instead of failing the run.
TARGETS = (
    ("cli.main", "tunedline.cli", "main"),
    ("config.resolve_config_arg", "tunedline.config", "resolve_config_arg"),
    ("config.load_sweep_config", "tunedline.config", "load_sweep_config"),
    ("sweep.run_sweep", "tunedline.sweep", "run_sweep"),
    ("sweep.detect_tuning_dips", "tunedline.sweep", "detect_tuning_dips"),
    ("reporting.to_csv_rows", "tunedline.reporting", "to_csv_rows"),
    ("reporting.format_sweep_csv", "tunedline.reporting", "format_sweep_csv"),
    ("reporting.write_text_atomic", "tunedline.reporting", "write_text_atomic"),
    ("reporting.dips_report_json", "tunedline.reporting", "dips_report_json"),
    ("reporting.build_manifest", "tunedline.reporting", "build_manifest"),
)

# Helpers that planned simplifications may delete; their presence is
# recorded with the spans and nothing depends on them.
OPTIONAL_HELPERS = (
    ("tunedline.sweep", "SweepRecord"),
    ("tunedline.reporting", "SweepCsvRow"),
    ("tunedline.reporting", "to_csv_rows"),
    ("tunedline.sweep", "SweepConfig.two_port"),
)


def _lookup(module: str, dotted: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


@dataclass
class Recorder:
    """In-memory spans: (id, parent id, op, name, start ns, end ns)."""

    spans: list = field(default_factory=list)
    op: int = -1
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, start, end)

        return traced

    def install(self) -> None:
        """Replace each target in every loaded tunedline module that holds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tunedline"]
        self.absent = []
        for name, module, attr in TARGETS:
            fn = _lookup(module, attr)
            if fn is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def per_op(self) -> dict[int, dict[str, float]]:
        """Seconds per span name per op, plus '<name>.self' (minus direct children)."""
        child_s: dict[int, float] = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start) / 1e9
        out: dict[int, dict[str, float]] = {}
        for sid, _, op, name, start, end in self.spans:
            totals = out.setdefault(op, {})
            dur = (end - start) / 1e9
            totals[name] = totals.get(name, 0.0) + dur
            self_key = name + ".self"
            totals[self_key] = totals.get(self_key, 0.0) + dur - child_s.get(sid, 0.0)
        return out

    def dump(self, path: Path, meta: dict) -> None:
        present = {f"{m}.{a}": _lookup(m, a) is not None for m, a in OPTIONAL_HELPERS}
        payload = {
            **meta,
            "absent_spans": self.absent,
            "optional_helpers_present": present,
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


PI_REPLAY_POINTS = 201
REPLAY_LAYERS = ("lossless", "exact", "pi_cascade", "solve", "accounting")


@dataclass
class Replay:
    """Seconds and points per replayed layer, summed over the grids replayed."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(REPLAY_LAYERS, 0.0))
    points: dict = field(default_factory=lambda: dict.fromkeys(REPLAY_LAYERS, 0))
    max_defect: float = 0.0

    def us_per_point(self, layer: str) -> float:
        return self.seconds[layer] / self.points[layer] * 1e6

    def _timed(self, layer: str, fn, items) -> list:
        start = time.perf_counter()
        out = [fn(x) for x in items]
        self.seconds[layer] += time.perf_counter() - start
        self.points[layer] += len(items)
        return out

    def run(self, cfg, model: str, sections: int) -> None:
        """Replay abcd_lossless/abcd_exact/pi_cascade_oracle, solve and accounting on cfg's grid.

        abcd_lossless runs on the lossless twin (r = g = 0) of a lossy line.
        pi_cascade_oracle runs on at most PI_REPLAY_POINTS evenly strided grid
        points.  solve and accounting replay the two-ports of the op's model.
        """
        from tunedline.linemodel import (
            Frequency,
            LineParameters,
            abcd_exact,
            abcd_lossless,
            pi_cascade_oracle,
        )
        from tunedline.powerflow import (
            ResonanceError,
            complex_power_accounting,
            solve_receiving_end,
        )

        step = (cfg.f_end - cfg.f_start) / (cfg.n_points - 1)
        grid = [cfg.f_start + i * step for i in range(cfg.n_points - 1)] + [cfg.f_end]
        freqs = [Frequency(f) for f in grid]
        pi_freqs = freqs[:: max(1, math.ceil(len(freqs) / PI_REPLAY_POINTS))]
        twin = LineParameters(L=cfg.line.L, C=cfg.line.C)
        line, length = cfg.line, cfg.length

        ports = {
            "lossless": self._timed("lossless", lambda fq: abcd_lossless(twin, length, fq), freqs),
            "exact": self._timed("exact", lambda fq: abcd_exact(line, length, fq), freqs),
            "pi-cascade": self._timed(
                "pi_cascade", lambda fq: pi_cascade_oracle(line, length, fq, sections), pi_freqs
            ),
        }
        for tps in ports.values():
            for tp in tps:
                self.max_defect = max(self.max_defect, abs(tp.a * tp.d - tp.b * tp.c - 1.0))

        vs = complex(cfg.source_voltage / 3.0**0.5, 0.0)
        pairs = list(zip(ports[model], pi_freqs if model == "pi-cascade" else freqs))

        def solve(pair):
            try:
                return solve_receiving_end(pair[0], vs, cfg.load, pair[1])
            except ResonanceError:
                return None

        states = [s for s in self._timed("solve", solve, pairs) if s is not None]
        self._timed("accounting", complex_power_accounting, states)
