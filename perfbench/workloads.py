"""Seeded workload inputs: INI configs that drive `tunedline sweep`.

The program receives only the INI files written here.  Every value is
drawn from a `random.Random` keyed by the workload name and the seed, so
the same seed gives byte-identical configs on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED = ("experiment_500km", "experiment_300km")

# Loads rotate through these three shapes within every run, so each run
# carries the same mix whatever the seed.  The pure capacitor has a
# line-load resonance inside the band and so puts near-resonant points on
# the grid; the pure resistor has none.
LOAD_SHAPES = ("capacitor+resistor", "resistor", "capacitor")


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    n_points: int
    model: str
    sweep_args: tuple[str, ...]
    lossy: bool = False


# BENCHMARK.json records why each workload is in the benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-bundled",
            in_process=False,
            n_points=951,
            model="lossless",
            sweep_args=("--format", "json", "--plot-data"),
        ),
        Workload(
            name="sweep-lossless-large",
            in_process=True,
            n_points=50_000,
            model="lossless",
            sweep_args=(),
        ),
        Workload(
            name="sweep-exact-lossy",
            in_process=True,
            n_points=20_000,
            model="exact",
            sweep_args=("--format", "json", "--plot-data"),
            lossy=True,
        ),
        Workload(
            name="pi-cascade",
            in_process=True,
            n_points=201,
            model="pi-cascade(1000)",
            sweep_args=(),
            lossy=True,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One config a workload's ops rotate through."""

    label: str
    config_arg: str  # what `--config` receives: a path or a bundled name
    text: str  # INI text ("" for bundled configs, which are the program's own)


def _g(x: float) -> str:
    return format(x, ".10g")


def _ini(rng: random.Random, wl: Workload, shape: str) -> str:
    length = rng.uniform(250.0, 1000.0)
    l_mh = rng.uniform(0.9, 1.1)
    c_nf = rng.uniform(10.0, 12.5)
    r = rng.uniform(0.01, 0.05) if wl.lossy else 0.0
    g_ns = rng.uniform(1.0, 10.0) if wl.lossy else 0.0
    v_kv = rng.choice((220.0, 345.0, 400.0, 500.0))
    q_mvar = rng.uniform(50.0, 150.0)
    p_mw = rng.uniform(50.0, 300.0)
    f_end = rng.uniform(1000.0, 1500.0)

    if shape == "capacitor+resistor":
        load = (
            "kind = fixed-capacitance-rated\n"
            f"rated_q = {_g(q_mvar)} MVAr\nrated_v = {_g(v_kv)} kV\n"
            f"rated_f = 50 Hz\nrated_p = {_g(p_mw)} MW\n"
        )
    elif shape == "resistor":
        load = f"kind = impedance\nresistance = {_g(v_kv**2 / p_mw)} ohm\n"
    else:
        # a bank of q_mvar at 50 Hz: C = Q / (2*pi*50*V^2), MVAr / kV^2 = F
        c_uf = q_mvar / (2.0 * 3.141592653589793 * 50.0 * v_kv**2) * 1e6
        load = f"kind = admittance\nc_load = {_g(c_uf)} uF\n"

    return (
        f"# {wl.name}: {shape} load\n\n"
        "[line]\n"
        f"r = {_g(r)} ohm/km\nL = {_g(l_mh)} mH/km\n"
        f"g = {_g(g_ns)} nS/km\nC = {_g(c_nf)} nF/km\n"
        f"length = {_g(length)} km\n\n"
        f"[load]\n{load}\n"
        f"[source]\nvoltage = {_g(v_kv)} kV\n\n"
        "[sweep]\n"
        f"f_start = 50 Hz\nf_end = {_g(f_end)} Hz\n"
        f"n_points = {wl.n_points}\nmodel = {wl.model}\n"
    )


def make_cases(wl: Workload, seed: int) -> list[Case]:
    """The configs for one run; a pure function of (workload, seed)."""
    if wl.name == "cli-bundled":
        return [Case(label=name, config_arg=name, text="") for name in BUNDLED]
    rng = random.Random(f"{wl.name}:{seed}")
    return [
        Case(label=shape, config_arg=f"{wl.name}-{i}.ini", text=_ini(rng, wl, shape))
        for i, shape in enumerate(LOAD_SHAPES)
    ]


def write_cases(cases: list[Case], work: Path) -> list[Case]:
    """Write generated configs under `work`; return cases whose config_arg is the path."""
    out = []
    for case in cases:
        if not case.text:
            out.append(case)
            continue
        path = work / case.config_arg
        path.write_text(case.text)
        out.append(Case(label=case.label, config_arg=str(path), text=case.text))
    return out
