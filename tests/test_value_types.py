"""Value types: immutable, hashable, and cheap to import."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tunedline
from tunedline import (
    Frequency,
    LineParameters,
    LoadSpec,
    PowerResult,
    PowerTransferInputs,
    SweepConfig,
    SweepRecord,
    TerminalState,
    TuningDip,
    TuningSolution,
    TwoPort,
    WaveQuantities,
    default_line,
)


def value_types() -> list:
    line = default_line()
    load = LoadSpec(g_load=1e-3, c_load=1e-6)
    return [
        LineParameters(L=1e-3, C=1e-8, r=0.01, g=1e-9),
        Frequency(50.0),
        WaveQuantities(gamma=0.001j, zc=300 + 0j),
        TwoPort.identity(),
        load,
        TerminalState(vs=1 + 0j, is_=0.5j, vr=1 + 0j, ir=0.5j),
        PowerTransferInputs(vs_mag=1.0, vr_mag=1.0, delta=0.1, x=1.0),
        PowerResult(p_r=1.0, q_r=-1.0, delta_v=0.0, q_line=0.5),
        SweepConfig(line=line, length=500.0, source_voltage=220e3, load=load,
                    f_start=50.0, f_end=1000.0, n_points=951),
        SweepRecord(50.0, 1.0, -1.0, 0.5, 220.0, 220.0, 0.0, False),
        TuningDip(f_detected=300.0, n_matched=1, q_line_at_dip=0.0),
        TuningSolution(n=1, value=300.0),
    ]


@pytest.mark.parametrize("value", value_types(), ids=lambda v: type(v).__name__)
def test_immutable(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, twin", zip(value_types(), value_types()),
                         ids=lambda v: type(v).__name__)
def test_hashable_and_equal_by_value(value, twin):
    assert twin is not value
    assert twin == value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


# (a valid value, a field, a value __new__ rejects for it) per validating type
VALIDATING = [
    (LineParameters(L=1e-3, C=1e-8), "L", -1.0),
    (Frequency(50.0), "f", -5.0),
    (LoadSpec(1.0, 0.0), "g_load", -1.0),
    (PowerTransferInputs(vs_mag=1.0, vr_mag=1.0, delta=0.1, x=1.0), "x", 0.0),
    pytest.param(PowerTransferInputs(vs_mag=1.0, vr_mag=1.0, delta=0.1, x=1.0), "vs_mag", -1.0,
                 id="PowerTransferInputs-vs_mag"),
    (SweepConfig(line=default_line(), length=500.0, source_voltage=220e3,
                 load=LoadSpec(1.0, 0.0), f_start=50.0, f_end=1000.0, n_points=951),
     "n_points", 1),
]


@pytest.mark.parametrize("value, field, bad", VALIDATING,
                         ids=lambda v: type(v).__name__ if hasattr(v, "_fields") else "")
def test_make_and_replace_validate(value, field, bad):
    cls = type(value)
    with pytest.raises(ValueError):
        cls(**{**value._asdict(), field: bad})
    with pytest.raises(ValueError):
        value._replace(**{field: bad})
    with pytest.raises(ValueError):
        cls._make(bad if name == field else v for name, v in zip(cls._fields, value))
    with pytest.raises(TypeError):
        cls._make(tuple(value)[:-1])
    # valid input still builds the type
    assert type(value._replace()) is cls and value._replace() == value
    assert type(cls._make(iter(value))) is cls and cls._make(iter(value)) == value


# the modules a command may skip, and which of them each command loads: only
# sweep's manifest hashes (config_digest), so only sweep loads hashlib and OpenSSL
PER_COMMAND = ("json", "hashlib", "_hashlib", "tunedline.config", "tunedline.reporting")
# modules whose import cost no command pays
NEVER = ("dataclasses", "datetime", "inspect", "ast", "dis", "configparser", "typing",
         "importlib.resources")


@pytest.mark.parametrize("argv, loaded", [
    (["tuning", "--length", "500"], set()),
    (["tuning", "--length", "500", "--format", "json"], {"json"}),
    (["solve", "--config", "experiment_500km", "--frequency", "300"],
     {"json", "tunedline.config", "tunedline.reporting"}),
    (["sweep", "--config", "experiment_500km", "--out", "OUT"], set(PER_COMMAND)),
], ids=["tuning", "tuning-json", "solve", "sweep"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # timing-free; -S keeps site start-up, which may import any of them, out of the probe
    src = Path(tunedline.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "from tunedline.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(*sorted(set(sys.modules) & {set(PER_COMMAND + NEVER)!r}), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert set(proc.stderr.split()) == loaded


def test_cli_parser_built_once_per_process_and_not_at_import():
    # timing-free: the progs of every ArgumentParser made at import and over main() calls
    probe = (
        "import argparse, contextlib, io, json\n"
        "progs = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    progs.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import tunedline.cli\n"
        "at_import = list(progs)\n"
        "calls = [['tuning', '--length', '500'], ['tuning'], ['--version'],\n"
        "         ['tuning', '--frequency', '50', '--format', 'json']]\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    codes = [tunedline.cli.main(argv) for argv in calls]\n"
        "print(json.dumps([at_import, codes, progs]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    at_import, codes, progs = json.loads(proc.stdout)
    assert at_import == []
    assert codes == [0, 2, 0, 0]
    # one root parser and its three subcommand parsers, made by the first call
    assert progs == ["tunedline", "tunedline tuning", "tunedline solve", "tunedline sweep"]
