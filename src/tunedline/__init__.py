"""Steady-state phasor simulation of long HVAC lines and tuned-frequency analysis.

A sweep yields one record type, `SweepRecord`, whose fields are the
records.csv columns: three-phase MW/MVAr and line-to-line kV, converted
from the per-phase solution once, in the sweep loop.  The scalar
functions of `linemodel` and `powerflow` work per phase in SI units.
"""

# before the submodule imports: reporting reads it at import time
__version__ = "0.1.0"

# the public API is each module's __all__, republished
from . import linemodel, powerflow, sweep, tuning
from .linemodel import *
from .powerflow import *
from .sweep import *
from .tuning import *

__all__ = [
    "__version__",
    *linemodel.__all__,
    *powerflow.__all__,
    *sweep.__all__,
    *tuning.__all__,
]
