"""Deterministic simulator of a stacked pneumatic transport station.

Rings of inflatable chambers grasp (Compression) and lift (Longitudinal)
an object through a vertical stack.  The package provides the geometry
model and design sweep, a fixed-step plant, a hardware abstraction with
simulated and replay backends, the closed-loop phase controller with
pressure-rate contact detection, and a CLI over all of it.
"""

from .geometry import (
    ARC_TOLERANCE,
    SWEEP_PARAMETERS,
    InfeasibleGeometryError,
    RingGeometry,
    SurrogateMaterial,
    SweepResult,
    ValidationReport,
    calibrate_kappa,
    solve_chamber_length,
    surrogate_inflation,
    sweep,
    uniformity_factor,
    validate_geometry,
)
from .plant import (
    COMPRESSION,
    DEFLATE,
    HOLD,
    INFLATE,
    LONGITUDINAL,
    LONGITUDINAL_STROKE_FRACTION,
    ModuleSpec,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    StationLayout,
    build_station,
    station_violations,
    time_to_contact,
)
from .hal import (
    EndOfRecordingError,
    ReplayBackend,
    ReplayMismatchError,
    Rows,
    SimulatedBackend,
    ValveCommand,
)
from .control import (
    ADVANCE_RELEASE,
    GRASP,
    REGRASP_BOTTOM,
    RESET_TOP,
    CalibrationError,
    ControlConfig,
    ControlFaultError,
    DetectionConfig,
    DetectionResult,
    RunResult,
    StationController,
    calibrate_baseline,
    detect_contact,
    run_station,
)
from .telemetry import (
    TELEMETRY_HEADER,
    TelemetryLog,
    TelemetryWriter,
    read_telemetry,
)
from .config import (
    BASELINES_HEADER,
    ConfigError,
    RunConfig,
    load_baselines,
    load_config,
    write_baselines,
)

__version__ = "0.1.0"
