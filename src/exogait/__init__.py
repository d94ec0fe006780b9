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
    G_STANDARD,
    TensionConversion,
    TorqueProfile,
    reference_tension,
    torque_at,
    torque_to_tension,
)
from .c3d import map_event, read_c3d, write_c3d
from .csvio import read_csv_trial, read_events_csv
from .cycles import (
    N_SAMPLES,
    CycleFeatures,
    NormalizedCycle,
    Stride,
    TemporalFeatures,
    cycle_features,
    ensemble,
    normalize_cycle,
    segment_strides,
    temporal_params,
)
from .errors import ExogaitError
from .phase import (
    DEFAULT_STRIDE_S,
    FsrConfig,
    PhaseState,
    StrikeDetector,
    detect_heel_strikes,
    update_phase,
)
from .preprocess import (
    GapFillSpec,
    SmoothingSpec,
    fill_gaps,
    smooth_to_mse,
    smooth_with_lambda,
)
from .simulate import (
    DEFAULT_GAINS,
    CycleSummary,
    PidGains,
    PlantParams,
    SimResult,
    run_simulation,
)
from .stats import LmeFit, TostResult, tost_welch, wald_p
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
    "CycleSummary",
    "DEFAULT_GAINS",
    "DEFAULT_MOMENT_ARM",
    "DEFAULT_PROFILE",
    "DEFAULT_STRIDE_S",
    "EventKind",
    "ExogaitError",
    "FsrConfig",
    "G_STANDARD",
    "GaitEvent",
    "GapFillSpec",
    "LmeFit",
    "MarkerTrajectory",
    "N_SAMPLES",
    "NormalizedCycle",
    "PhaseState",
    "PidGains",
    "PlantParams",
    "SimResult",
    "Side",
    "SmoothingSpec",
    "Stride",
    "StrikeDetector",
    "TemporalFeatures",
    "TensionConversion",
    "TorqueProfile",
    "TostResult",
    "Trial",
    "cycle_features",
    "detect_heel_strikes",
    "ensemble",
    "errors",
    "fill_gaps",
    "map_event",
    "normalize_cycle",
    "read_c3d",
    "read_csv_trial",
    "read_events_csv",
    "reference_tension",
    "run_simulation",
    "segment_strides",
    "smooth_to_mse",
    "smooth_with_lambda",
    "temporal_params",
    "torque_at",
    "torque_to_tension",
    "tost_welch",
    "update_phase",
    "wald_p",
    "write_c3d",
]
