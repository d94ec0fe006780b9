"""Gait-biomechanics toolkit and cable-driven ankle-assistance simulator.

Ingests motion-capture trials (a C3D subset, plus a CSV fallback), cleans
and smooths marker series, segments and time-normalizes gait cycles,
runs equivalence statistics (random-intercept model by REML, TOST with a
Welch standard error), generates assistance torque profiles, estimates
gait phase from FSR heel strikes, and closes a PID + feedforward tension
loop around a simulated Bowden-cable plant.

The command line lives in ``exogait.cli`` (also ``python -m exogait``). The
package does not import it, so ``python -m exogait.cli`` runs that module
once, as ``__main__``, without runpy's double-import warning.
"""

from . import errors
from .assist import (
    DEFAULT_MOMENT_ARM,
    DEFAULT_PROFILE,
    TensionConversion,
    TorqueProfile,
)
from .c3d import map_event, read_c3d, write_c3d
from .csvio import compare_tables, read_csv_trial, read_events_csv
from .cycles import (
    CycleFeatures,
    Stride,
    TemporalFeatures,
    analyze_trial,
    ensemble,
    normalize_cycle,
    temporal_params,
)
from .errors import ExogaitError
from .phase import detect_heel_strikes
from .preprocess import fill_gaps, smooth_to_mse, smooth_with_lambda
from .simulate import (
    DEFAULT_GAINS,
    PidGains,
    PlantParams,
    SimResult,
    run_simulation,
)
from .stats import LmeFit, TostResult, tost_welch
from .trial import (
    AnalogChannel,
    EventKind,
    GaitEvent,
    MarkerTrajectory,
    Side,
    Trial,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogChannel",
    "CycleFeatures",
    "DEFAULT_GAINS",
    "DEFAULT_MOMENT_ARM",
    "DEFAULT_PROFILE",
    "EventKind",
    "ExogaitError",
    "GaitEvent",
    "LmeFit",
    "MarkerTrajectory",
    "PidGains",
    "PlantParams",
    "SimResult",
    "Side",
    "Stride",
    "TemporalFeatures",
    "TensionConversion",
    "TorqueProfile",
    "TostResult",
    "Trial",
    "analyze_trial",
    "compare_tables",
    "detect_heel_strikes",
    "ensemble",
    "errors",
    "fill_gaps",
    "map_event",
    "normalize_cycle",
    "read_c3d",
    "read_csv_trial",
    "read_events_csv",
    "run_simulation",
    "smooth_to_mse",
    "smooth_with_lambda",
    "temporal_params",
    "tost_welch",
    "write_c3d",
]
