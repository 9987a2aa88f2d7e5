"""The README's examples run as written."""

from __future__ import annotations

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tunedline import (
    Frequency,
    LoadSpec,
    abcd_exact,
    abcd_lossless,
    complex_power_accounting,
    solve_receiving_end,
)
from tunedline.config import bundled_config_path, load_sweep_config, parse_sweep_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(language: str) -> list[str]:
    """The bodies of README's ```<language> blocks, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_ini_example_is_the_bundled_500km_config():
    (block,) = code_blocks("ini")
    bundled = bundled_config_path("experiment_500km").read_text()
    assert parse_sweep_config(block) == parse_sweep_config(bundled)


@pytest.mark.parametrize("block", code_blocks("python"))
def test_python_example_runs(block):
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def assert_rounds_to(cell: str, value: float, *context) -> None:
    """value rounds to cell, at cell's number of decimals."""
    assert abs(value - float(cell)) <= 0.5 * 10.0 ** -len(cell.split(".")[1]), (
        *context, cell, value)


def test_reproduction_table_matches_the_scalar_functions():
    rows = re.findall(r"^\| `(\w+)` \| (\d+) Hz[^|]*\| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                      README, re.MULTILINE)
    assert [row[:2] for row in rows] == [("experiment_500km", "50"), ("experiment_500km", "300"),
                                         ("experiment_300km", "50"), ("experiment_300km", "500")]
    for name, f_hz, *cells in rows:
        cfg = load_sweep_config(bundled_config_path(name))
        freq = Frequency(float(f_hz))
        state = solve_receiving_end(abcd_lossless(cfg.line, cfg.length, freq),
                                    complex(cfg.source_voltage / math.sqrt(3.0)), cfg.load, freq)
        power = complex_power_accounting(state)
        # three-phase MW and MVAr and line-to-line kV, rounded as each cell is
        values = [power.p_r * 3.0 / 1e6, power.q_line * 3.0 / 1e6,
                  abs(state.vr) * math.sqrt(3.0) / 1e3]
        for cell, value in zip(cells, values):
            assert_rounds_to(cell, value, name, f_hz)


def test_lossy_table_matches_the_scalar_functions():
    span = r"([\d.]+) → ([\d.]+)"
    rows = re.findall(rf"^\| ([\d.]+) \| (flat|√f) \| {span} \| {span} \| {span} \|$",
                      README, re.MULTILINE)
    assert [row[:2] for row in rows] == [(load, r) for load in ("100", "161.3", "300")
                                         for r in ("flat", "√f")]
    cfg = load_sweep_config(bundled_config_path("experiment_500km"))
    vs = complex(cfg.source_voltage / math.sqrt(3.0))
    for load_mw, r_model, *cells in rows:
        # a resistive load drawing load_mw at 220 kV
        load = LoadSpec(float(load_mw) * 1e6 / 220e3**2, 0.0)
        values = []
        for f_hz in (50.0, 300.0):
            r = 0.03 * (math.sqrt(f_hz / 50.0) if r_model == "√f" else 1.0)
            freq = Frequency(f_hz)
            state = solve_receiving_end(abcd_exact(cfg.line._replace(r=r), cfg.length, freq),
                                        vs, load, freq)
            p_r = complex_power_accounting(state).p_r
            p_s = (state.vs * state.is_.conjugate()).real
            values.append((p_r * 3.0 / 1e6, (p_s - p_r) / p_s * 100.0,
                           abs(state.vr) * math.sqrt(3.0) / 1e3))
        # cells: P_r, loss and |Vr|, each at 50 Hz and then at 300 Hz
        expected = [q for pair in zip(*values) for q in pair]
        for cell, value in zip(cells, expected, strict=True):
            assert_rounds_to(cell, value, load_mw, r_model)
