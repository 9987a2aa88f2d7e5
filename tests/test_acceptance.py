"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see one
PASS line per criterion.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from conftest import sweep_records, twoport_max_error, window_dips

from tunedline import (
    Frequency,
    LineParameters,
    LoadSpec,
    TwoPort,
    abcd_exact,
    complex_power_accounting,
    default_line,
    nominal_pi,
    pi_cascade_oracle,
    reactive_power_tuned,
    reactive_power_with_regulation,
    receiving_reactive_power,
    solve_receiving_end,
    tuned_lengths,
    tuning_frequencies,
    voltage_regulation,
    PowerTransferInputs,
)
from tunedline.cli import main
from tunedline.config import bundled_config_path, load_sweep_config

LINE = default_line()
V = 3.0e5
RATED_CAP = LoadSpec.from_rated_capacitor(100e6, 220e3, 50.0)
VS_PHASE = 220e3 / math.sqrt(3)

TUNED_POINTS = [(500.0, 300.0, 1), (500.0, 600.0, 2), (500.0, 900.0, 3),
                (300.0, 500.0, 1), (300.0, 1000.0, 2)]


def _report(number: int, text: str) -> None:
    print(f"\n[criterion {number}] PASS: {text}")


def test_criterion_1_tuning_frequency_reproduction(capsys):
    assert main(["tuning", "--length", "500", "--format", "json"]) == 0
    freqs = [row["value"] for row in json.loads(capsys.readouterr().out)]
    assert main(["tuning", "--frequency", "50", "--format", "json"]) == 0
    lens = [row["value"] for row in json.loads(capsys.readouterr().out)]
    for got, want in zip(freqs, (300.0, 600.0, 900.0)):
        assert abs(got - want) <= 1e-12 * want
    for got, want in zip(lens, (3000.0, 6000.0, 9000.0)):
        assert abs(got - want) <= 1e-12 * want

    # the closed-form solve itself must run in well under a millisecond
    runtime = min(
        _timed(lambda: tuning_frequencies(500.0, V, 3)),
        _timed(lambda: tuned_lengths(Frequency(50.0), V, 3)),
    )
    assert runtime < 1e-3, f"tuning solve took {runtime * 1e3:.3f} ms"
    with capsys.disabled():
        _report(1, f"500 km -> 300/600/900 Hz, 50 Hz -> 3000/6000/9000 km "
                   f"(1e-12 rel), solve {runtime * 1e6:.1f} us")


def _timed(fn) -> float:
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_2_300km_tuning_frequencies(capsys):
    sols = tuning_frequencies(300.0, V, 2)
    for sol, want in zip(sols, (500.0, 1000.0)):
        assert abs(sol.value - want) <= 1e-12 * want
    with capsys.disabled():
        _report(2, "300 km -> 500/1000 Hz (1e-12 rel)")


def test_criterion_3_signed_identity_at_tuning(capsys):
    for length, f, n in TUNED_POINTS:
        tp = abcd_exact(LINE, length, Frequency(f))
        sign = (-1.0) ** n
        assert abs(tp.a - sign) < 1e-9, (length, f)
        assert abs(tp.d - sign) < 1e-9, (length, f)
        assert abs(tp.b) < 1e-9, (length, f)
        assert abs(tp.c) < 1e-9, (length, f)
    with capsys.disabled():
        _report(3, "abcd_exact = (-1)^n * identity within 1e-9 at all five tuned points")


def test_criterion_4_zero_regulation_at_tuning(capsys):
    worst = 0.0
    for length, f, _ in TUNED_POINTS:
        freq = Frequency(f)
        state = solve_receiving_end(
            abcd_exact(LINE, length, freq), VS_PHASE + 0.0j, RATED_CAP, freq
        )
        delta_v = complex_power_accounting(state).delta_v
        worst = max(worst, abs(delta_v))
        assert abs(delta_v) < 1e-9, (length, f, delta_v)
    with capsys.disabled():
        _report(4, f"|delta_v| < 1e-9 with the rated capacitive load (worst {worst:.2e})")


def test_criterion_5_sweep_dip_detection(capsys):
    cfg500 = load_sweep_config(bundled_config_path("experiment_500km"))
    t0 = time.perf_counter()
    records500 = sweep_records(cfg500)
    runtime = time.perf_counter() - t0
    assert runtime < 5.0, f"951-point sweep took {runtime:.2f} s"
    assert len(records500) == 951

    step = records500[1].f_hz - records500[0].f_hz
    dips500 = window_dips(records500, cfg500.length, cfg500.line.velocity)
    matched500 = sorted(
        (d.n_matched, d.f_detected) for d in dips500 if d.n_matched > 0
    )
    assert [n for n, _ in matched500] == [1, 2, 3]
    for n, f_detected in matched500:
        assert abs(f_detected - n * V / (2.0 * cfg500.length)) <= step

    cfg300 = load_sweep_config(bundled_config_path("experiment_300km"))
    records300 = sweep_records(cfg300)
    dips300 = window_dips(records300, cfg300.length, cfg300.line.velocity)
    matched300 = sorted(
        (d.n_matched, d.f_detected) for d in dips300 if d.n_matched > 0
    )
    assert [n for n, _ in matched300] == [1, 2]
    for n, f_detected in matched300:
        assert abs(f_detected - n * V / (2.0 * cfg300.length)) <= step

    with capsys.disabled():
        _report(5, f"500 km dips at n=1,2,3 and 300 km dips at n=1,2, "
                   f"951 points in {runtime * 1e3:.0f} ms")


def test_criterion_6_pi_cascade_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for length in (500.0, 300.0):
        for f in rng.uniform(50.0, 1000.0, size=20):
            freq = Frequency(float(f))
            exact = abcd_exact(LINE, length, freq)
            errors = [
                twoport_max_error(pi_cascade_oracle(LINE, length, freq, n), exact)
                for n in (10, 100, 1000)
            ]
            assert errors[0] > errors[1] > errors[2], (length, f, errors)
            assert errors[2] < 1e-4, (length, f, errors[2])
            worst = max(worst, errors[2])
    with capsys.disabled():
        _report(6, f"pi cascade (1000 sections) within 1e-4 of exact, monotone decay "
                   f"(worst {worst:.2e})")


def test_criterion_7_formula_identities(capsys):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        vs = rng.uniform(0.1, 1e3)
        vr = rng.uniform(0.1, 1e3)
        delta = rng.uniform(-math.pi, math.pi)
        x = rng.uniform(1e-3, 1e3) * rng.choice((1.0, -1.0))

        direct = receiving_reactive_power(PowerTransferInputs(vs, vr, delta, x))
        delta_v = voltage_regulation(vs, vr)
        via_reg = reactive_power_with_regulation(vr, delta_v, delta, x)
        scale = max(abs(direct), abs(via_reg), vs * vr / abs(x))
        assert abs(direct - via_reg) <= 1e-12 * scale

        lhs = via_reg - reactive_power_tuned(vr, delta, x)
        rhs = vr**2 * delta_v * math.cos(delta) / x
        scale = max(abs(lhs), abs(rhs), vr**2 / abs(x))
        assert abs(lhs - rhs) <= 1e-12 * scale

        assert reactive_power_tuned(vr, delta, abs(x)) <= 0.0
    with capsys.disabled():
        _report(7, "Q formulas: direct == regulation form, tuned reduction identity, "
                   "tuned Q <= 0 (1000 random inputs, 1e-12 rel)")


def test_criterion_8_conservation_and_reciprocity(capsys):
    rng = np.random.default_rng(8)

    # 1000 random two-ports from all three constructors plus random
    # cascades, drawn inside the overhead-line envelope: small loss
    # tangent, electrical length to 4*pi, pi sections short enough to
    # stay in the chain's passband
    ports: list[TwoPort] = []
    while len(ports) < 1000:
        inductance = rng.uniform(5e-4, 5e-3)
        freq = Frequency(rng.uniform(25.0, 2000.0))
        params = LineParameters(
            L=inductance,
            C=rng.uniform(5e-9, 5e-8),
            r=rng.uniform(0.0, 0.2) * freq.omega * inductance,
            g=rng.uniform(0.0, 1e-7),
        )
        theta = rng.uniform(0.1, 4.0 * math.pi)
        length = theta * params.velocity / freq.omega
        n_sections = int(rng.integers(0, 20)) + max(2, math.ceil(2.0 * theta))
        built = [
            abcd_exact(params, length, freq),
            nominal_pi(params, length, freq),
            pi_cascade_oracle(params, length, freq, n_sections),
        ]
        built.append(built[0] @ built[int(rng.integers(0, 3))])
        ports.extend(built)
    worst_defect = max(tp.reciprocity_defect() for tp in ports[:1000])
    assert worst_defect < 1e-10

    # active power conservation on lossless solves
    worst_rel = 0.0
    checked = 0
    while checked < 200:
        params = LineParameters(L=rng.uniform(5e-4, 5e-3), C=rng.uniform(5e-9, 5e-8))
        freq = Frequency(rng.uniform(1.0, 2000.0))
        length = rng.uniform(1.0, 2000.0)
        load = LoadSpec(rng.uniform(1e-6, 1.0), rng.uniform(0.0, 1e-4))
        line = abcd_exact(params, length, freq)
        state = solve_receiving_end(line, VS_PHASE + 0.0j, load, freq)
        s_s = state.vs * state.is_.conjugate()
        s_r = state.vr * state.ir.conjugate()
        rel = abs(s_s.real - s_r.real) / max(abs(s_s), abs(s_r))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9
        checked += 1
    with capsys.disabled():
        _report(8, f"|AD-BC-1| < 1e-10 on 1000 two-ports (worst {worst_defect:.2e}); "
                   f"lossless P conserved to 1e-9 (worst {worst_rel:.2e})")


def test_criterion_9_sweep_determinism(capsys, tmp_path):
    for name in ("experiment_500km", "experiment_300km"):
        blobs = []
        for run in ("first", "second"):
            out = tmp_path / f"{name}_{run}"
            assert main(["sweep", "--config", name, "--out", str(out)]) == 0
            blobs.append((out / "records.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{name}: CSV bytes differ between runs"
    with capsys.disabled():
        _report(9, "both bundled sweeps produce byte-identical CSVs on re-run")
