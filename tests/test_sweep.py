"""Tests for the frequency-sweep engine and dip detection."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_tuning_dips, sweep_records, window_dips
from tunedline import (
    RECIPROCITY_TOL,
    Frequency,
    LineParameters,
    LoadSpec,
    ResonanceError,
    SweepConfig,
    SweepRecord,
    TuningDipWindow,
    abcd_exact,
    abcd_lossless,
    complex_power_accounting,
    default_line,
    nominal_pi,
    pi_cascade_oracle,
    solve_receiving_end,
    sweep_points,
    wave_quantities,
)
from tunedline.cli import CHUNK_POINTS
from tunedline.config import bundled_config_path, load_sweep_config
from tunedline.sweep import _chain_plan, _pi_cascade

LINE = default_line()

# experiment load: 100 MVAr capacitor bank plus 100 MW resistive component,
# both rated at 220 kV
LOAD = LoadSpec.from_rated_capacitor(
    100e6, 220e3, 50.0, g_load=100e6 / (220e3) ** 2
)


def experiment_config(length: float, **overrides) -> SweepConfig:
    base = dict(
        line=LINE,
        length=length,
        source_voltage=220e3,
        load=LOAD,
        f_start=50.0,
        f_end=1000.0,
        n_points=951,
        model="lossless",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_grid_endpoints_inclusive(self):
        cfg = experiment_config(500.0, n_points=2)
        assert list(cfg.grid()) == [50.0, 1000.0]

    def test_grid_is_uniform_1hz(self):
        grid = list(experiment_config(500.0).grid())
        assert len(grid) == 951
        assert grid[0] == 50.0
        assert grid[-1] == 1000.0
        steps = {b - a for a, b in zip(grid, grid[1:])}
        assert steps == {1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            experiment_config(0.0)
        with pytest.raises(ValueError):
            experiment_config(500.0, f_start=1000.0, f_end=50.0)
        with pytest.raises(ValueError):
            experiment_config(500.0, n_points=1)
        with pytest.raises(ValueError):
            experiment_config(500.0, model="spice")
        with pytest.raises(ValueError):
            experiment_config(500.0, model="pi-cascade", pi_sections=0)
        # 5e-324 km / 2 rounds to a zero-length section; only pi-cascade has sections
        with pytest.raises(ValueError, match="zero-length section"):
            experiment_config(5e-324, model="pi-cascade", pi_sections=2)
        assert experiment_config(5e-324, pi_sections=2).length == 5e-324

    @pytest.mark.parametrize(
        "field", ["source_voltage", "f_start", "f_end"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError):
            experiment_config(500.0, **{field: bad})

    def test_lossless_model_requires_lossless_line(self):
        lossy = type(LINE)(L=LINE.L, C=LINE.C, r=0.01)
        with pytest.raises(ValueError):
            experiment_config(500.0, line=lossy, model="lossless")

    def test_rejects_degenerate_grid(self):
        # step 1.05e-15 Hz is below ulp(50) = 7.1e-15: the 951 computed
        # frequencies would take only 142 distinct values
        with pytest.raises(ValueError, match="ulp"):
            experiment_config(500.0, f_start=50.0, f_end=50.000000000001, n_points=951)
        two_ulp = 2.0 * math.ulp(1000.0)
        with pytest.raises(ValueError, match="ulp"):
            experiment_config(500.0, f_start=1000.0 - two_ulp, f_end=1000.0, n_points=2)
        grid = list(experiment_config(
            500.0, f_start=1000.0 - 2.0 * two_ulp, f_end=1000.0, n_points=2
        ).grid())
        assert grid[0] < grid[1]

    @given(
        f_end=st.floats(min_value=1e-3, max_value=1e12),
        n_points=st.integers(min_value=2, max_value=2000),
        ulps_per_step=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=300)
    def test_property_accepted_grid_strictly_increases(self, f_end, n_points, ulps_per_step):
        f_start = f_end - ulps_per_step * math.ulp(f_end) * (n_points - 1)
        try:
            cfg = experiment_config(500.0, f_start=f_start, f_end=f_end, n_points=n_points)
        except ValueError:
            return
        grid = list(cfg.grid())
        assert len(grid) == n_points
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestRunSweep:
    def test_two_point_sweep(self):
        records = sweep_records(experiment_config(500.0, n_points=2))
        assert [r.f_hz for r in records] == [50.0, 1000.0]
        assert not any(r.singular for r in records)

    def test_records_ascending_and_complete(self):
        records = sweep_records(experiment_config(500.0))
        assert len(records) == 951
        assert all(a.f_hz < b.f_hz for a, b in zip(records, records[1:]))

    def test_deterministic(self):
        cfg = experiment_config(500.0)
        assert sweep_records(cfg) == sweep_records(cfg)

    def test_exact_model_agrees_with_lossless(self):
        lossless = sweep_records(experiment_config(500.0, n_points=20))
        exact = sweep_records(experiment_config(500.0, n_points=20, model="exact"))
        for a, b in zip(lossless, exact):
            assert b.p_r_mw == pytest.approx(a.p_r_mw, rel=1e-9)
            # abs 3e-9 MVAr three-phase is 1e-3 VAr per phase
            assert b.q_line_mvar == pytest.approx(a.q_line_mvar, rel=1e-9, abs=3e-9)

    def test_pi_cascade_model_runs(self):
        records = sweep_records(
            experiment_config(500.0, n_points=5, model="pi-cascade", pi_sections=200)
        )
        assert len(records) == 5
        assert not any(r.singular for r in records)

    def test_singular_point_flagged_not_dropped(self):
        # load capacitance chosen so a + b*y = 0 exactly at 75 Hz
        c_res = 1.0 / (300.0 * 2.0 * math.pi * 75.0)
        cfg = experiment_config(
            500.0,
            load=LoadSpec(0.0, c_res),
            f_start=74.0,
            f_end=76.0,
            n_points=3,
        )
        records = sweep_records(cfg)
        assert [r.singular for r in records] == [False, True, False]
        bad = records[1]
        assert bad.f_hz == 75.0
        assert bad.p_r_mw is None and bad.q_r_mvar is None and bad.q_line_mvar is None
        assert bad.vr_kv is None and bad.delta_v is None
        assert bad.vs_kv == pytest.approx(220.0)

    def test_solution_matches_direct_solve(self):
        from tunedline import complex_power_accounting, solve_receiving_end

        cfg = experiment_config(500.0, n_points=20)
        records = sweep_records(cfg)
        probe = records[7]
        freq = Frequency(probe.f_hz)
        state = solve_receiving_end(
            abcd_exact(LINE, 500.0, freq), complex(220e3 / math.sqrt(3), 0.0), LOAD, freq
        )
        result = complex_power_accounting(state)
        assert probe.p_r_mw == pytest.approx(result.p_r * 3.0 / 1e6, rel=1e-9)
        # abs 3e-9 MVAr three-phase is 1e-3 VAr per phase
        assert probe.q_line_mvar == pytest.approx(result.q_line * 3.0 / 1e6, rel=1e-9, abs=3e-9)


def lossy_tuning_frequency(line: LineParameters, length: float, n: int) -> float:
    """The f where Im(gamma)*length = n*pi, by bisection around the lossless harmonic."""
    lo, hi = 0.5 * n * line.velocity / (2.0 * length), 2.0 * n * line.velocity / (2.0 * length)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if wave_quantities(line, Frequency(mid)).gamma.imag * length < n * math.pi:
            lo = mid
        else:
            hi = mid
    return lo


class TestDetectTuningDips:
    def test_500km_dips_match_first_three_harmonics(self):
        records = sweep_records(experiment_config(500.0))
        dips = window_dips(records, 500.0, 3e5)
        matched = {d.n_matched: d for d in dips if d.n_matched > 0}
        assert sorted(matched) == [1, 2, 3]
        assert matched[1].f_detected == pytest.approx(300.0, abs=1.0)
        assert matched[2].f_detected == pytest.approx(600.0, abs=1.0)
        assert matched[3].f_detected == pytest.approx(900.0, abs=1.0)

    def test_300km_dips_include_sweep_edge(self):
        records = sweep_records(experiment_config(300.0))
        dips = window_dips(records, 300.0, 3e5)
        matched = {d.n_matched: d for d in dips if d.n_matched > 0}
        assert sorted(matched) == [1, 2]
        assert matched[1].f_detected == pytest.approx(500.0, abs=1.0)
        assert matched[2].f_detected == pytest.approx(1000.0, abs=1.0)

    def test_lossy_exact_line_dips_match_first_three_harmonics(self):
        # dips are matched against the lossless harmonics n/(2*l*sqrt(LC)),
        # while a lossy line tunes where beta*l = n*pi with beta = Im sqrt(z*y)
        cfg = load_sweep_config(bundled_config_path("experiment_500km"))
        line = cfg.line._replace(r=0.03, g=5e-9)
        cfg = cfg._replace(line=line, model="exact")
        assert cfg.n_points == 951
        records = sweep_records(cfg)
        step = records[1].f_hz - records[0].f_hz
        dips = window_dips(records, cfg.length, line.velocity)
        matched = {d.n_matched: d.f_detected for d in dips if d.n_matched > 0}
        assert sorted(matched) == [1, 2, 3]
        for n, f_detected in matched.items():
            assert f_detected == pytest.approx(300.0 * n, abs=1.0)
            assert abs(f_detected - lossy_tuning_frequency(line, cfg.length, n)) <= 2.0 * step

    def test_unmatched_minima_are_reported_with_n_zero(self):
        # q_line = Qs - Qr also crosses zero between harmonics (for example
        # where the load happens to present the surge impedance); those dips
        # are genuine minima but lie far from every harmonic
        records = sweep_records(experiment_config(500.0))
        dips = window_dips(records, 500.0, 3e5)
        unmatched = [d for d in dips if d.n_matched == 0]
        assert unmatched
        for d in unmatched:
            distances = [abs(d.f_detected - n * 3e5 / 1000.0) for n in range(1, 4)]
            assert min(distances) > 2.0

    def test_delta_v_small_at_matched_dips(self):
        records = sweep_records(experiment_config(500.0))
        by_f = {r.f_hz: r for r in records}
        for d in window_dips(records, 500.0, 3e5):
            if d.n_matched > 0:
                assert abs(by_f[d.f_detected].delta_v) < 1e-3

    def test_dips_below_inter_harmonic_midpoints(self):
        records = sweep_records(experiment_config(500.0))
        by_f = {r.f_hz: r for r in records}
        dips = {d.n_matched: d for d in window_dips(records, 500.0, 3e5) if d.n_matched}
        for n, midpoint in ((1, 450.0), (2, 750.0)):
            assert abs(dips[n].q_line_at_dip) < abs(by_f[midpoint].q_line_mvar)
            assert abs(dips[n + 1].q_line_at_dip) < abs(by_f[midpoint].q_line_mvar)

    def test_stable_under_grid_refinement(self):
        coarse = sweep_records(experiment_config(500.0))
        fine = sweep_records(experiment_config(500.0, n_points=1902))
        coarse_step = coarse[1].f_hz - coarse[0].f_hz
        coarse_matched = {
            d.n_matched: d.f_detected
            for d in window_dips(coarse, 500.0, 3e5)
            if d.n_matched
        }
        fine_matched = {
            d.n_matched: d.f_detected
            for d in window_dips(fine, 500.0, 3e5)
            if d.n_matched
        }
        assert set(fine_matched) == set(coarse_matched)
        for n, f_fine in fine_matched.items():
            assert abs(f_fine - coarse_matched[n]) <= coarse_step

    def test_flat_records_have_no_dips(self):
        records = [
            SweepRecord(
                f_hz=float(f),
                p_r_mw=1.0,
                q_r_mvar=1.0,
                q_line_mvar=5.0,
                vs_kv=1.0,
                vr_kv=1.0,
                delta_v=0.0,
                singular=False,
            )
            for f in range(50, 60)
        ]
        assert window_dips(records, 500.0, 3e5) == []

    def test_requires_three_usable_records(self):
        records = sweep_records(experiment_config(500.0, n_points=4))
        crippled = records[:2]
        assert window_dips(crippled, 500.0, 3e5) == []

    def test_neighbors_of_singular_points_are_skipped(self):
        good = sweep_records(experiment_config(500.0, f_start=290.0, f_end=310.0, n_points=21))
        # knock out the record next to the dip: the dip at 300 survives,
        # but a minimum adjacent to the gap must not be invented
        records = [
            SweepRecord(r.f_hz, None, None, None, r.vs_kv, None, None, True)
            if r.f_hz == 295.0
            else r
            for r in good
        ]
        dips = window_dips(records, 500.0, 3e5)
        assert all(d.f_detected != 294.0 and d.f_detected != 296.0 for d in dips)
        assert any(d.n_matched == 1 and d.f_detected == 300.0 for d in dips)


# --- the streaming dip window against whole-list indexing ------------------


@st.composite
def chunked_records(draw) -> tuple[list[SweepRecord], list[int]]:
    """Records on a 1 Hz grid near the 300 Hz harmonic of a 500 km line,
    some singular, |q_line_mvar| from a few values so ties occur; and the
    chunk sizes they are fed in."""
    n = draw(st.integers(min_value=2, max_value=40))
    f_start = draw(st.sampled_from((280.0, 290.0, 296.5, 299.0, 300.0)))
    records = []
    for i in range(n):
        f = f_start + i
        if draw(st.integers(0, 5)) == 0:
            records.append(SweepRecord(f, None, None, None, 1.0, None, None, True))
        else:
            q = draw(st.sampled_from((-3.0, -1.0, 0.5, 1.0, 2.0, 3.0)))
            records.append(SweepRecord(f, 1.0, 0.0, q, 1.0, 1.0, 0.0, False))
    chunks = []
    while sum(chunks) < n:
        chunks.append(draw(st.integers(min_value=1, max_value=8)))
    return records, chunks


@given(case=chunked_records())
@settings(max_examples=400)
def test_property_dip_window_equals_whole_list_detection(case):
    records, chunks = case
    window = TuningDipWindow(500.0, 3e5)
    start = 0
    for size in chunks:
        window.extend(records[start:start + size])
        start += size
    usable = sum(not r.singular for r in records)
    assert window.usable == usable
    if usable < 3:
        assert window.close() == []
    else:
        assert window.close() == reference_tuning_dips(records, 500.0, 3e5)


@pytest.mark.parametrize("layout", ["", "s", "u", "us", "su", "uu", "uus", "suu", "usu", "susus"])
@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_fewer_than_three_usable_records_give_no_dips(layout, chunk):
    # u: a usable record, s: a singular one.  |q_line_mvar| rises with f, so
    # a lone usable record, or a usable first record with a usable right
    # neighbour, is an edge dip by the other rules; the count alone must
    # suppress it
    records = [
        SweepRecord(300.0 + i, None, None, None, 1.0, None, None, True) if kind == "s"
        else SweepRecord(300.0 + i, 1.0, 0.0, 1.0 + i, 1.0, 1.0, 0.0, False)
        for i, kind in enumerate(layout)
    ]
    if layout.startswith("uu"):
        assert reference_tuning_dips(records, 500.0, 3e5)
    window = TuningDipWindow(500.0, 3e5)
    for start in range(0, len(records), chunk):
        window.extend(records[start:start + chunk])
    assert window.usable == layout.count("u")
    assert window.close() == []


@pytest.mark.parametrize("length, harmonics", [(500.0, [1, 2, 3]), (300.0, [1, 2])])
def test_dip_window_in_chunks_equals_whole_list_detection(length, harmonics):
    records = sweep_records(experiment_config(length))
    expected = reference_tuning_dips(records, length, 3e5)
    assert [d.n_matched for d in expected if d.n_matched] == harmonics
    assert window_dips(records, length, 3e5) == expected
    for size in (1, 2, 3, 7, 250):
        window = TuningDipWindow(length, 3e5)
        for start in range(0, len(records), size):
            window.extend(iter(records[start:start + size]))
        assert window.close() == expected


# --- the fused loop against the scalar oracle --------------------------------


def oracle_record(cfg: SweepConfig, f: float) -> SweepRecord:
    """The record abcd_* -> solve_receiving_end -> complex_power_accounting give,
    converted to three-phase MW/MVAr and line-to-line kV: x*3/1e6 and
    v*sqrt(3)/1e3, in that operation order."""
    freq = Frequency(f)
    if cfg.model == "lossless":
        line = abcd_lossless(cfg.line, cfg.length, freq)
    elif cfg.model == "exact":
        line = abcd_exact(cfg.line, cfg.length, freq)
    else:
        line = pi_cascade_oracle(cfg.line, cfg.length, freq, cfg.pi_sections)
    vs = complex(cfg.source_voltage / math.sqrt(3.0), 0.0)
    try:
        state = solve_receiving_end(line, vs, cfg.load, freq)
    except ResonanceError:
        return SweepRecord(f, None, None, None, abs(vs) * math.sqrt(3.0) / 1e3, None, None, True)
    result = complex_power_accounting(state)
    return SweepRecord(
        f, result.p_r * 3.0 / 1e6, result.q_r * 3.0 / 1e6, result.q_line * 3.0 / 1e6,
        abs(state.vs) * math.sqrt(3.0) / 1e3, abs(state.vr) * math.sqrt(3.0) / 1e3,
        result.delta_v, False,
    )


# load capacitance that puts a + b*y = 0 exactly at 75 Hz on the default line
C_RESONANT_75HZ = 1.0 / (300.0 * 2.0 * math.pi * 75.0)


@st.composite
def sweep_configs(draw) -> SweepConfig:
    model = draw(st.sampled_from(("lossless", "exact", "pi-cascade")))
    lossy = model != "lossless" and draw(st.booleans())
    line = LineParameters(
        L=draw(st.floats(min_value=5e-4, max_value=5e-3)),
        C=draw(st.floats(min_value=5e-9, max_value=5e-8)),
        r=draw(st.floats(min_value=0.0, max_value=0.1)) if lossy else 0.0,
        g=draw(st.floats(min_value=0.0, max_value=1e-7)) if lossy else 0.0,
    )
    # a pure capacitor (g_load = 0) resonates with the line somewhere in band
    load = LoadSpec(
        draw(st.sampled_from((0.0, 1e-3)) | st.floats(min_value=0.0, max_value=1e-2)),
        draw(st.floats(min_value=0.0, max_value=1e-4)),
    )
    f_start = draw(st.floats(min_value=1.0, max_value=500.0))
    return SweepConfig(
        line=line,
        length=draw(st.floats(min_value=10.0, max_value=2000.0)),
        source_voltage=draw(st.floats(min_value=1e3, max_value=1e6)),
        load=load,
        f_start=f_start,
        f_end=f_start + draw(st.floats(min_value=1.0, max_value=2000.0)),
        n_points=draw(st.integers(min_value=2, max_value=60)),
        model=model,
        pi_sections=draw(st.integers(min_value=1, max_value=8)),
    )


@given(cfg=sweep_configs())
@example(cfg=experiment_config(
    500.0, load=LoadSpec(0.0, C_RESONANT_75HZ),
    f_start=74.0, f_end=76.0, n_points=3,
))
@example(cfg=experiment_config(
    500.0, load=LoadSpec(0.0, C_RESONANT_75HZ),
    f_start=74.0, f_end=76.0, n_points=3, model="exact",
))
@example(cfg=experiment_config(
    # |a + b*y| / |a| from 3e-8 down to 0 and back: near misses either
    # side of the exact hit, so a moved threshold changes the flags
    500.0, load=LoadSpec(0.0, C_RESONANT_75HZ),
    f_start=75.0 - 1e-6, f_end=75.0 + 1e-6, n_points=5,
))
@example(cfg=experiment_config(
    # |a + b*y| / |a| of 7e-10 and 3e-10: inside the 1e-9 threshold
    500.0, load=LoadSpec(0.0, C_RESONANT_75HZ),
    f_start=75.0 - 2e-8, f_end=75.0 + 2e-8, n_points=5,
))
@example(cfg=experiment_config(
    500.0, load=LoadSpec(0.0, 1e-6), f_start=389.0, f_end=390.0, n_points=41,
))
@settings(max_examples=300, deadline=None)
def test_property_fused_loop_is_bit_identical_to_scalar_oracle(cfg):
    records = sweep_records(cfg)
    assert len(records) == cfg.n_points
    for rec, f in zip(records, cfg.grid()):
        # == on floats: the loop must reproduce the oracle bit for bit,
        # and flag exactly the points where the oracle raises ResonanceError
        assert rec == oracle_record(cfg, f)


# --- the fused pi-cascade chain against pi_cascade_oracle --------------------

# theta = omega * (length/N) * sqrt(LC) of one section: a lossless section's
# |ZY| is theta**2, so theta past 2 puts every section in the stopband
CHAIN_THETAS = (1e-3, 0.5, 1.9, 2.0, 2.1, 4.0, 30.0, 100.0)


def pi_chain_case(n_sections: int, lossy: bool):
    """A 500 km pi-cascade(n_sections) config and the frequencies at CHAIN_THETAS."""
    line = LineParameters(L=1e-3, C=1.0 / 9.0e7, r=0.03 if lossy else 0.0,
                          g=5e-9 if lossy else 0.0)
    return _pi_chain_case(line, 500.0, LoadSpec(1e-3, 1e-6), n_sections, CHAIN_THETAS)


def _pi_chain_case(line, length, load, n_sections, thetas):
    cfg = SweepConfig(
        line=line, length=length, source_voltage=220e3, load=load, f_start=1.0,
        f_end=2.0, n_points=2, model="pi-cascade", pi_sections=n_sections,
    )
    scale = 2.0 * math.pi * (length / n_sections) * math.sqrt(line.L * line.C)
    return cfg, [theta / scale for theta in thetas]


@st.composite
def pi_chain_cases(draw):
    lossy = draw(st.booleans())
    line = LineParameters(
        L=draw(st.floats(min_value=5e-4, max_value=5e-3)),
        C=draw(st.floats(min_value=5e-9, max_value=5e-8)),
        r=draw(st.floats(min_value=0.0, max_value=0.1)) if lossy else 0.0,
        g=draw(st.floats(min_value=0.0, max_value=1e-7)) if lossy else 0.0,
    )
    load = LoadSpec(
        draw(st.sampled_from((0.0, 1e-3)) | st.floats(min_value=0.0, max_value=1e-2)),
        draw(st.floats(min_value=0.0, max_value=1e-4)),
    )
    thetas = draw(st.lists(st.floats(min_value=-3.0, max_value=2.0).map(lambda e: 10.0**e),
                           min_size=1, max_size=6))
    return _pi_chain_case(line, draw(st.floats(min_value=10.0, max_value=2000.0)), load,
                          draw(st.integers(min_value=1, max_value=10**5)), thetas)


def fused_record_or_error(cfg: SweepConfig, f: float) -> SweepRecord | str:
    """sweep_points' record at f, or the message of its ValueError."""
    try:
        return next(sweep_points(cfg, [f]))
    except ValueError as exc:
        return str(exc)


def oracle_record_or_error(cfg: SweepConfig, f: float) -> SweepRecord | str:
    """oracle_record, or the sweep's error where the oracle leaves the float range."""
    error = f"solution out of float range at f = {f} Hz"
    try:
        rec = oracle_record(cfg, f)
    except (ArithmeticError, ValueError):
        return error
    if not rec.singular and not math.isfinite(rec.p_r_mw + rec.q_line_mvar + rec.delta_v):
        return error
    return rec


@given(case=pi_chain_cases())
@example(case=pi_chain_case(1, lossy=False))
@example(case=pi_chain_case(1, lossy=True))
@example(case=pi_chain_case(2, lossy=False))
@example(case=pi_chain_case(1000, lossy=True))
@example(case=pi_chain_case(1023, lossy=False))
@example(case=pi_chain_case(1024, lossy=True))
@example(case=pi_chain_case(65536, lossy=False))
@example(case=pi_chain_case(100000, lossy=False))
@example(case=pi_chain_case(100000, lossy=True))
@settings(max_examples=300, deadline=None)
def test_property_fused_pi_chain_is_bit_identical_to_pi_cascade_oracle(case):
    cfg, frequencies = case
    for f in frequencies:
        got = fused_record_or_error(cfg, f)
        want = oracle_record_or_error(cfg, f)
        # == on floats, and repr for the signs of zeros, which == ignores
        # but the output files print
        assert got == want
        assert repr(got) == repr(want)
        # the chain itself: the solve hides most signed zeros and every
        # non-finite entry of the two-port, so compare its four entries too
        freq = Frequency(f)
        chain = _pi_cascade(
            cfg.line.series_impedance(freq.omega), cfg.line.shunt_admittance(freq.omega),
            cfg.length / cfg.pi_sections, *_chain_plan(cfg.pi_sections),
        )
        assert repr(chain) == repr(tuple(
            pi_cascade_oracle(cfg.line, cfg.length, freq, cfg.pi_sections)
        ))


def test_sweep_points_solves_arbitrary_frequencies():
    cfg = experiment_config(500.0, load=LoadSpec(0.0, C_RESONANT_75HZ))
    records = list(sweep_points(cfg, [75.0, 437.3, 60.0]))
    assert [r.f_hz for r in records] == [75.0, 437.3, 60.0]
    assert [r.singular for r in records] == [True, False, False]
    assert records == [oracle_record(cfg, f) for f in (75.0, 437.3, 60.0)]


def test_records_carry_three_phase_units():
    # the 500 km line is tuned at 300 Hz, so |Vr| = |Vs| = 220 kV line to
    # line and the bundled load (100 MW and 100 MVAr at 50 Hz and 220 kV)
    # takes 100 MW and, at six times its rated frequency, gives 600 MVAr
    cfg = load_sweep_config(bundled_config_path("experiment_500km"))
    (rec,) = sweep_points(cfg, [300.0])
    assert rec.vs_kv == pytest.approx(220.0, rel=1e-12)
    assert rec.vr_kv == pytest.approx(220.0, rel=1e-9)
    assert rec.p_r_mw == pytest.approx(100.0, rel=1e-9)
    assert rec.q_r_mvar == pytest.approx(-600.0, rel=1e-9)
    # x*3/1e6 and v*sqrt(3)/1e3, in this operation order: the CSV bytes
    # depend on it
    freq = Frequency(300.0)
    vs = complex(220e3 / math.sqrt(3.0), 0.0)
    state = solve_receiving_end(abcd_lossless(cfg.line, cfg.length, freq), vs, cfg.load, freq)
    power = complex_power_accounting(state)
    assert rec == (
        300.0,
        power.p_r * 3.0 / 1e6,
        power.q_r * 3.0 / 1e6,
        power.q_line * 3.0 / 1e6,
        abs(vs) * math.sqrt(3.0) / 1e3,
        abs(state.vr) * math.sqrt(3.0) / 1e3,
        power.delta_v,
        False,
    )


def test_singular_record_carries_f_hz_and_vs_kv_only():
    cfg = experiment_config(500.0, load=LoadSpec(0.0, C_RESONANT_75HZ))
    singular, plain = sweep_points(cfg, [75.0, 60.0])
    vs_kv = abs(complex(220e3 / math.sqrt(3.0), 0.0)) * math.sqrt(3.0) / 1e3
    assert singular == (75.0, None, None, None, vs_kv, None, None, True)
    # one vs_kv float object for the whole sweep, which the writer formats once
    assert not plain.singular
    assert singular.vs_kv is plain.vs_kv


def test_sweep_past_one_chunk_shares_vs_kv_and_finite_cells():
    # what RecordWriter relies on, across the first chunk boundary: one
    # vs_kv float object for the whole sweep and finite cells in every
    # non-singular record.  The grid step is 50 Hz / (2 * CHUNK_POINTS),
    # so the resonant 75 Hz is the first point of the second chunk.
    n_points = 2 * CHUNK_POINTS + 1
    cfg = experiment_config(500.0, load=LoadSpec(0.0, C_RESONANT_75HZ),
                            f_start=50.0, f_end=100.0, n_points=n_points)
    records = sweep_records(cfg)
    assert len(records) == n_points
    assert [(i, r.f_hz) for i, r in enumerate(records) if r.singular] == [(CHUNK_POINTS, 75.0)]
    vs_kv = records[0].vs_kv
    assert all(r.vs_kv is vs_kv for r in records)
    assert all(math.isfinite(x) for r in records if not r.singular for x in r[:7])


# --- stopband pi-cascade rows against an exact rational chain --------------


def _q(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _conj(x):
    return x[0], -x[1]


def _div(x, y):
    num = _mul(x, _conj(y))
    den = y[0] ** 2 + y[1] ** 2
    return num[0] / den, num[1] / den


def _to_complex(x) -> complex:
    return complex(float(x[0]), float(x[1]))


def rational_chain_record(cfg: SweepConfig, f: float) -> tuple[float, ...]:
    """(p_r, q_r, q_line, vr_mag, delta_v, |S|) from exact arithmetic on the
    float nominal-pi section: the N-section product, the solve and the
    power accounting are all done in Fractions, rounded once at the end."""
    sec = nominal_pi(cfg.line, cfg.length / cfg.pi_sections, Frequency(f))
    a, b, c, d = _q(sec.a), _q(sec.b), _q(sec.c), _q(sec.d)
    pa, pb, pc, pd = a, b, c, d
    for _ in range(cfg.pi_sections - 1):
        pa, pb, pc, pd = (
            _add(_mul(pa, a), _mul(pb, c)), _add(_mul(pa, b), _mul(pb, d)),
            _add(_mul(pc, a), _mul(pd, c)), _add(_mul(pc, b), _mul(pd, d)),
        )
    y = _q(complex(cfg.load.g_load, 2.0 * math.pi * f * cfg.load.c_load))
    vs = _q(complex(cfg.source_voltage / math.sqrt(3.0), 0.0))
    vr = _div(vs, _add(pa, _mul(pb, y)))
    ir = _mul(y, vr)
    is_ = _add(_mul(pc, vr), _mul(pd, ir))
    s_r = _mul(vr, _conj(ir))
    s_s = _mul(vs, _conj(is_))
    vr_mag = abs(_to_complex(vr))
    vs_mag = abs(_to_complex(vs))
    apparent = max(abs(_to_complex(s_r)), abs(_to_complex(s_s)))
    return (float(s_r[0]), float(s_r[1]), float(s_s[1] - s_r[1]),
            vr_mag, (vs_mag - vr_mag) / vr_mag, apparent)


@pytest.mark.parametrize("sections", [4, 7])
def test_stopband_pi_cascade_rows_match_rational_chain(sections):
    # |ZY| of one section is far above 4: the float product's entries reach
    # ~1e16 and its |AD-BC-1| misses RECIPROCITY_TOL from cancellation in
    # ad - bc alone, yet every row equals the exact product of the same
    # float sections
    line = LineParameters(L=5e-3, C=50e-9)
    cfg = SweepConfig(
        line=line, length=2000.0, source_voltage=220e3, load=LoadSpec(1e-3),
        f_start=2400.0, f_end=2500.0, n_points=11, model="pi-cascade",
        pi_sections=sections,
    )
    product = pi_cascade_oracle(line, 2000.0, Frequency(2500.0), sections)
    assert product.reciprocity_defect() > 1e6 * RECIPROCITY_TOL
    for rec in sweep_records(cfg):
        assert not rec.singular
        p_r, q_r, q_line, vr_mag, delta_v, apparent = rational_chain_record(cfg, rec.f_hz)
        # the references in the records' units, converted as the sweep converts
        vr_kv = vr_mag * math.sqrt(3.0) / 1e3
        assert abs(rec.vr_kv - vr_kv) <= 1e-12 * vr_kv
        assert abs(rec.delta_v - delta_v) <= 1e-12 * abs(delta_v)
        apparent_mva = apparent * 3.0 / 1e6
        for got, want in ((rec.p_r_mw, p_r), (rec.q_r_mvar, q_r), (rec.q_line_mvar, q_line)):
            assert abs(got - want * 3.0 / 1e6) <= 1e-12 * apparent_mva
