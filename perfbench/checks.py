"""Output checks for one `tunedline sweep` op, run outside the timed region.

Every check reads the files the CLI wrote and compares them with values
recomputed here from the package's public scalar functions
(`abcd_lossless`, `abcd_exact`, `nominal_pi`, `solve_receiving_end`,
`complex_power_accounting`).  For pi-cascade models the reference is a
literal chain of `nominal_pi` sections multiplied out in this file, so a
faster cascade in the package cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from tunedline.linemodel import Frequency, TwoPort, abcd_exact, abcd_lossless, nominal_pi
from tunedline.powerflow import ResonanceError, complex_power_accounting, solve_receiving_end

CSV_HEADER = "f_hz,p_r_mw,q_r_mvar,q_line_mvar,vs_kv,vr_kv,delta_v,singular"
CSV_FIELDS = CSV_HEADER.split(",")
PLOT_QUANTITIES = ("p_r_mw", "q_r_mvar", "q_line_mvar")

# Largest accepted |row - oracle|, relative to the row's scale (apparent
# power for P/Q, the larger terminal voltage for kV, 1 + |dV| for dV).
ORACLE_TOL = 1e-9
SAMPLE_ROWS = 32
_SQRT3 = 3.0**0.5


@dataclass(frozen=True)
class Expected:
    """What one op on one config must produce."""

    cfg: object  # the package's SweepConfig for the config file
    model: str  # "lossless", "exact" or "pi-cascade"
    pi_sections: int
    records_json: bool
    plot_data: bool
    golden: dict | None = None  # bundled configs only


@dataclass
class OpCheck:
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    singular: int = 0
    dips_matched: int = 0
    dips_unmatched: int = 0
    residual: float = 0.0
    golden_match: bool | None = None
    config_digest: str = ""
    csv_bytes: int = 0
    bytes_written: int = 0
    files_written: int = 0


def parse_model(text: str) -> tuple[str, int]:
    """'pi-cascade(1000)' -> ('pi-cascade', 1000); other names keep 100 sections."""
    if text.startswith("pi-cascade(") and text.endswith(")"):
        return "pi-cascade", int(text[len("pi-cascade(") : -1])
    return text, 100


def chain_nominal_pi(line, length: float, freq, n: int) -> TwoPort:
    """n equal nominal-pi sections multiplied out one by one."""
    s = nominal_pi(line, length / n, freq)
    a, b, c, d = s.a, s.b, s.c, s.d
    for _ in range(n - 1):
        a, b, c, d = a * s.a + b * s.c, a * s.b + b * s.d, c * s.a + d * s.c, c * s.b + d * s.d
    return TwoPort(a, b, c, d)


def reference_two_port(exp: Expected, freq) -> TwoPort:
    cfg = exp.cfg
    if exp.model == "lossless":
        return abcd_lossless(cfg.line, cfg.length, freq)
    if exp.model == "exact":
        return abcd_exact(cfg.line, cfg.length, freq)
    return chain_nominal_pi(cfg.line, cfg.length, freq, exp.pi_sections)


def oracle_row(exp: Expected, f: float):
    """(values, scales) in CSV units, or (vs_kv, None) when the oracle is singular."""
    freq = Frequency(f)
    vs = complex(exp.cfg.source_voltage / _SQRT3, 0.0)
    vs_kv = abs(vs) * _SQRT3 / 1e3
    try:
        state = solve_receiving_end(reference_two_port(exp, freq), vs, exp.cfg.load, freq)
    except ResonanceError:
        return vs_kv, None
    res = complex_power_accounting(state)
    vr_kv = abs(state.vr) * _SQRT3 / 1e3
    s_scale = (abs(state.vr * state.ir.conjugate()) + abs(state.vs * state.is_.conjugate())) * 3e-6
    v_scale = max(vs_kv, vr_kv)
    values = (res.p_r * 3e-6, res.q_r * 3e-6, res.q_line * 3e-6, vs_kv, vr_kv, res.delta_v)
    scales = (s_scale, s_scale, s_scale, v_scale, v_scale, 1.0 + abs(res.delta_v))
    return values, scales


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def read_csv(text: str, problems: list[str]) -> list[tuple]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        problems.append("records.csv: wrong header")
        return []
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 8 or cells[7] not in ("true", "false"):
            problems.append(f"records.csv:{no}: malformed row")
            return rows
        values = [_cell(c) for c in cells[:7]]
        singular = cells[7] == "true"
        if singular:
            ok = values[0] is not None and values[4] is not None and all(
                values[i] is None for i in (1, 2, 3, 5, 6)
            )
        else:
            ok = all(v is not None and math.isfinite(v) for v in values)
        if not ok:
            problems.append(f"records.csv:{no}: neither finite nor a flagged singular row")
            return rows
        rows.append((*values, singular))
    return rows


def _check_grid(rows: list[tuple], cfg, problems: list[str]) -> None:
    step = (cfg.f_end - cfg.f_start) / (cfg.n_points - 1)
    tol = 1e-9 * cfg.f_end
    for i, row in enumerate(rows):
        if abs(row[0] - (cfg.f_start + i * step)) > tol:
            problems.append(f"records.csv: row {i} is off the frequency grid")
            return


def _check_oracle(rows, exp: Expected, rng: random.Random, out: OpCheck) -> None:
    picks = set(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    picks.update((0, len(rows) - 1))
    picks.update(i for i, row in enumerate(rows) if row[7])
    for i in sorted(picks):
        row = rows[i]
        ref, scales = oracle_row(exp, row[0])
        if scales is None:
            if not row[7]:
                out.problems.append(f"row {i} (f={row[0]!r}): oracle is singular, row is not flagged")
            elif abs(row[4] - ref) > ORACLE_TOL * ref:
                out.problems.append(f"row {i}: vs_kv of a singular row is wrong")
            continue
        if row[7]:
            out.problems.append(f"row {i} (f={row[0]!r}): flagged singular, oracle is not")
            continue
        worst = max(abs(row[k + 1] - ref[k]) / scales[k] for k in range(6))
        out.residual = max(out.residual, worst)
        if not worst <= ORACLE_TOL:
            out.problems.append(f"row {i} (f={row[0]!r}): residual {worst:.3e} vs oracle")


def _check_dips(path: Path, exp: Expected, out: OpCheck) -> None:
    dips = json.loads(path.read_text())
    cfg = exp.cfg
    step = (cfg.f_end - cfg.f_start) / (cfg.n_points - 1)
    velocity = 1.0 / math.sqrt(cfg.line.L * cfg.line.C)
    for d in dips:
        n = d["n_matched"]
        if n > 0 and abs(d["f_detected"] - n * velocity / (2.0 * cfg.length)) > 2.0 * step:
            out.problems.append(f"dips.json: n={n} dip at {d['f_detected']} Hz is off its harmonic")
    out.dips_matched = sum(1 for d in dips if d["n_matched"] > 0)
    out.dips_unmatched = len(dips) - out.dips_matched
    if exp.golden is not None:
        got = [[d["n_matched"], d["f_detected"]] for d in dips]
        if got != exp.golden["dips"]:
            out.problems.append(f"dips.json: dip set {got} differs from {exp.golden['dips']}")


def _check_side_files(out_dir: Path, rows: list[tuple], exp: Expected, out: OpCheck) -> None:
    if exp.records_json:
        records = json.loads((out_dir / "records.json").read_text())
        if [tuple(r.get(k) for k in CSV_FIELDS) for r in records] != rows:
            out.problems.append("records.json differs from records.csv")
    if exp.plot_data:
        for k, quantity in enumerate(PLOT_QUANTITIES, start=1):
            lines = (out_dir / f"{quantity}.dat").read_text().splitlines()
            points = [tuple(map(float, line.split())) for line in lines[1:]]
            if points != [(r[0], r[k]) for r in rows if r[k] is not None]:
                out.problems.append(f"{quantity}.dat differs from records.csv")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digest = manifest.get("config_digest", "")
    if len(digest) != 64:
        out.problems.append("manifest.json: no sha-256 config digest")
    out.config_digest = digest
    for name in manifest.get("outputs", []):
        if not Path(name).is_file():
            out.problems.append(f"manifest.json lists missing output {name}")


def expected_files(exp: Expected) -> set[str]:
    names = {"records.csv", "dips.json", "manifest.json"}
    if exp.records_json:
        names.add("records.json")
    if exp.plot_data:
        names.update(f"{q}.dat" for q in PLOT_QUANTITIES)
    return names


def check_op(out_dir: Path, exp: Expected, rc: int, rng: random.Random) -> OpCheck:
    """Check everything one sweep op left in out_dir; problems list the failures."""
    out = OpCheck()
    if rc != 0:
        out.problems.append(f"exit code {rc}")
        return out
    try:
        _check_outputs(out_dir, exp, rng, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"unreadable output: {exc!r}")
    return out


def _check_outputs(out_dir: Path, exp: Expected, rng: random.Random, out: OpCheck) -> None:
    present = {p.name: p for p in out_dir.iterdir()} if out_dir.is_dir() else {}
    missing = expected_files(exp) - set(present)
    if missing:
        out.problems.append(f"missing outputs: {sorted(missing)}")
        return
    partial = [n for n in present if n.endswith(".partial")]
    if partial:
        out.problems.append(f"left-over partial files: {partial}")
    out.files_written = len(present)
    out.bytes_written = sum(p.stat().st_size for p in present.values())

    raw = (out_dir / "records.csv").read_bytes()
    out.csv_bytes = len(raw)
    if exp.golden is not None:
        out.golden_match = hashlib.sha256(raw).hexdigest() == exp.golden["records_csv_sha256"]
    rows = read_csv(raw.decode(), out.problems)
    out.rows = len(rows)
    out.singular = sum(1 for r in rows if r[7])
    if out.problems:
        return
    if len(rows) != exp.cfg.n_points:
        out.problems.append(f"records.csv has {len(rows)} rows, want {exp.cfg.n_points}")
        return
    _check_grid(rows, exp.cfg, out.problems)
    _check_oracle(rows, exp, rng, out)
    _check_dips(out_dir / "dips.json", exp, out)
    _check_side_files(out_dir, rows, exp, out)
