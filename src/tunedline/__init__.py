"""Steady-state phasor simulation of long HVAC lines and tuned-frequency analysis.

A sweep yields one record type, `SweepRecord` (per-phase SI units);
`three_phase_row` is the one conversion to the three-phase MW/MVAr and
line-to-line kV that every CLI output reports.
"""

# before the submodule imports: reporting reads it at import time
__version__ = "0.1.0"

from .linemodel import (
    RECIPROCITY_TOL,
    Frequency,
    LineParameters,
    TwoPort,
    WaveQuantities,
    abcd_exact,
    abcd_lossless,
    default_line,
    nominal_pi,
    pi_cascade_oracle,
    wave_quantities,
)
from .powerflow import (
    LoadSpec,
    PowerResult,
    PowerTransferInputs,
    ResonanceError,
    TerminalState,
    complex_power_accounting,
    receiving_active_power,
    receiving_reactive_power,
    reactive_power_tuned,
    reactive_power_with_regulation,
    solve_receiving_end,
    voltage_regulation,
)
from .reporting import three_phase_row
from .sweep import (
    MODEL_CHOICES,
    SweepConfig,
    SweepRecord,
    TuningDip,
    TuningDipWindow,
    detect_tuning_dips,
    run_sweep,
    sweep_points,
)
from .tuning import (
    DEFAULT_VELOCITY_KM_S,
    TuningSolution,
    is_tuned,
    tuned_lengths,
    tuning_frequencies,
)

__all__ = [
    "__version__",
    "RECIPROCITY_TOL",
    "Frequency",
    "LineParameters",
    "TwoPort",
    "WaveQuantities",
    "abcd_exact",
    "abcd_lossless",
    "default_line",
    "nominal_pi",
    "pi_cascade_oracle",
    "wave_quantities",
    "LoadSpec",
    "PowerResult",
    "PowerTransferInputs",
    "ResonanceError",
    "TerminalState",
    "complex_power_accounting",
    "receiving_active_power",
    "receiving_reactive_power",
    "reactive_power_tuned",
    "reactive_power_with_regulation",
    "solve_receiving_end",
    "voltage_regulation",
    "MODEL_CHOICES",
    "SweepConfig",
    "SweepRecord",
    "TuningDip",
    "TuningDipWindow",
    "detect_tuning_dips",
    "run_sweep",
    "sweep_points",
    "three_phase_row",
    "DEFAULT_VELOCITY_KM_S",
    "TuningSolution",
    "is_tuned",
    "tuned_lengths",
    "tuning_frequencies",
]
