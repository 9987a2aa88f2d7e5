"""Steady-state phasor simulation of long HVAC lines and tuned-frequency analysis.

A sweep yields one record type, `SweepRecord`, whose fields are the
records.csv columns: three-phase MW/MVAr and line-to-line kV, converted
from the per-phase solution once, in the sweep loop.  The scalar
functions of `linemodel` and `powerflow` work per phase in SI units.
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
from .sweep import (
    MODEL_CHOICES,
    SweepConfig,
    SweepRecord,
    TuningDip,
    TuningDipWindow,
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
    "sweep_points",
    "DEFAULT_VELOCITY_KM_S",
    "TuningSolution",
    "is_tuned",
    "tuned_lengths",
    "tuning_frequencies",
]
