"""Configuration loading.

One nested YAML file; every section is optional and every omitted value
falls back to a default, so an empty file (or no file at all) runs the
nominal five-module scenario.  The exception is the geometry section:
because the packing constraint couples all seven fields, a geometry
section must state all of them or none.

Two failure channels, matching the CLI exit codes:
  - structural problems (unknown keys, wrong types, missing geometry
    fields) raise ConfigError at load time;
  - semantic problems (rule violations, invalid parameter combinations)
    are collected into RunConfig.problems so `validate` can report them
    all at once.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import yaml

from .control import ControlConfig, DetectionConfig
from .geometry import RingGeometry, SurrogateMaterial, calibrate_kappa, validate_geometry
from .plant import (
    MODULE_KINDS,
    ModuleSpec,
    ObjectSpec,
    PlantParams,
    StationLayout,
    alternating_modules,
    stack_modules,
    station_violations,
)


class ConfigError(ValueError):
    """Configuration failed to parse or type-check."""


DEFAULT_GEOMETRY = {
    "outer_radius_R": 40.0,  # mm
    "inner_radius_r": 25.0,  # mm
    "step_height_m": 1.5,  # mm
    "chamber_spacing_l": 12.0,  # mm
    "wall_thickness_t": 2.0,  # mm
    "chamber_length_s": 28.8,  # mm
    "chamber_count_N": 5,
}

DEFAULT_MATERIAL = {
    "youngs_modulus_E": 100.0,  # kPa
    "poisson_ratio_nu": 0.45,
    # normalized full-pressure inflation d_c/r the surrogate is pinned to
    "calibration_target": 0.69,
}

DEFAULT_STATION = {
    "module_count": 5,
    "compression_height": 20.0,  # mm
    "longitudinal_height": 20.0,  # mm
    "modules": None,  # explicit [{kind, height}, ...] overrides the three above
}

DEFAULT_OBJECT = {
    "present": True,
    "radius_r_o": 17.5,  # mm
    "length_L_o": 75.0,  # mm
    "initial_z": 0.0,  # mm
}


def _dataclass_defaults(cls) -> dict:
    """A section's keys and defaults, read off the dataclass it builds.

    A field without a plain default is not a YAML key: the baseline_rates
    of DetectionConfig come from a calibration file.
    """
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


DEFAULT_PLANT = _dataclass_defaults(PlantParams)
DEFAULT_DETECTION = _dataclass_defaults(DetectionConfig)
DEFAULT_CONTROL = _dataclass_defaults(ControlConfig)

DEFAULT_CALIBRATION = {"object_present": False}

DEFAULT_RUN = {"duration_s": 120.0, "output_path": None}

# each section's defaults, in the order the sections are checked
_SECTIONS = {
    "geometry": DEFAULT_GEOMETRY, "material": DEFAULT_MATERIAL, "station": DEFAULT_STATION,
    "object": DEFAULT_OBJECT, "plant": DEFAULT_PLANT, "detection": DEFAULT_DETECTION,
    "control": DEFAULT_CONTROL, "calibration": DEFAULT_CALIBRATION, "run": DEFAULT_RUN,
}


@dataclass
class RunConfig:
    geometry: RingGeometry
    material: Optional[SurrogateMaterial]
    layout: Optional[StationLayout]
    object_spec: Optional[ObjectSpec]
    initial_z: float
    params: Optional[PlantParams]
    detection: Optional[DetectionConfig]
    control: Optional[ControlConfig]
    calibration_with_object: bool
    duration_s: float
    output_path: Optional[str]
    problems: list


def _mapping(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(raw).__name__}")
    return raw


def _merge(section: str, raw: dict, defaults: dict, require_all: bool = False) -> dict:
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"{section}: unknown field(s): {', '.join(unknown)}")
    if require_all and raw:
        missing = sorted(set(defaults) - set(raw))
        if missing:
            raise ConfigError(f"{section}: missing required field {missing[0]}")
    out = dict(defaults)
    out.update(raw)
    return out


def _num(section: str, key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key}: expected a number, got {v!r}")
    return float(v)


def _int(section: str, key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{section}.{key}: expected an integer, got {v!r}")
    return v


def _bool(section: str, key: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{section}.{key}: expected true/false, got {v!r}")
    return v


def _typed(section: str, raw: dict) -> dict:
    """A merged numeric section of raw, each value checked against its default's type."""
    return {
        key: (_int if isinstance(default, int) else _num)(section, key, raw[section][key])
        for key, default in _SECTIONS[section].items()
    }


def _build_params(section: str, cls, raw: dict, problems: list):
    """Type-check a merged section of raw and build cls from it.

    A rule the values break goes to problems as "<section>: ...", and the
    result is then None.
    """
    kwargs = _typed(section, raw)
    try:
        return cls(**kwargs)
    except ValueError as e:
        problems.append(f"{section}: {e}")
        return None


def duration_problems(duration_s: float, dt: Optional[float]) -> list[str]:
    """The rule a run duration breaks, as a "run: ..." problem (empty = valid).

    A run of duration_s takes round(duration_s / dt) ticks, which must not
    be 0.  dt is None where the plant section is invalid (a problem of its
    own), and then the tick count is not checked.
    """
    if not math.isfinite(duration_s):
        return [f"run: duration_s must be finite, got {duration_s}"]
    if duration_s <= 0:
        return [f"run: duration_s must be > 0, got {duration_s}"]
    if dt is not None and not duration_s / dt > 0.5:  # round(0.5) is 0
        return [f"run: duration_s must be over half a tick (dt = {dt} s), got {duration_s}"]
    return []


def _build_modules(station: dict, geometry: RingGeometry) -> list[ModuleSpec]:
    raw_list = station["modules"]
    if raw_list is not None:
        if not isinstance(raw_list, list):
            raise ConfigError("station.modules: expected a list")
        kinds_and_heights = []
        for i, item in enumerate(raw_list, start=1):
            item = _mapping(item, f"station.modules[{i}]")
            extra = sorted(set(item) - {"kind", "height"})
            if extra:
                raise ConfigError(f"station.modules[{i}]: unknown field(s): {', '.join(extra)}")
            kind = item.get("kind")
            if kind not in MODULE_KINDS:
                raise ConfigError(
                    f"station.modules[{i}].kind: expected one of {MODULE_KINDS}, got {kind!r}"
                )
            h = _num(f"station.modules[{i}]", "height", item.get("height", 20.0))
            kinds_and_heights.append((kind, h))
        return stack_modules(geometry, kinds_and_heights)
    count = _int("station", "module_count", station["module_count"])
    hc = _num("station", "compression_height", station["compression_height"])
    hl = _num("station", "longitudinal_height", station["longitudinal_height"])
    return alternating_modules(geometry, max(count, 0), hc, hl)


def load_config(path: Optional[str] = None) -> RunConfig:
    """Read a YAML config file (or None for all defaults) into a RunConfig.

    Raises:
        ConfigError: unreadable YAML, unknown sections/keys, wrong types,
            or an incomplete geometry section.
    """
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = yaml.safe_load(f)
            except yaml.YAMLError as e:
                raise ConfigError(f"not valid YAML: {e}") from None
            except UnicodeDecodeError as e:
                raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
        if data is None:
            data = {}
    data = _mapping(data, "config root")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    raw = {name: _merge(name, _mapping(data.get(name), name), defaults,
                        require_all=name == "geometry")
           for name, defaults in _SECTIONS.items()}

    problems: list[str] = []

    geometry = RingGeometry(**_typed("geometry", raw))
    try:
        report = validate_geometry(geometry)
        problems.extend(f"geometry: {v}" for v in report.violations)
    except ValueError as e:
        problems.append(f"geometry: {e}")

    params = _build_params("plant", PlantParams, raw, problems)

    material = None
    E = _num("material", "youngs_modulus_E", raw["material"]["youngs_modulus_E"])
    nu = _num("material", "poisson_ratio_nu", raw["material"]["poisson_ratio_nu"])
    target = _num("material", "calibration_target", raw["material"]["calibration_target"])
    geometry_ok = not any(p.startswith("geometry:") for p in problems)
    if geometry_ok and params is not None:
        try:
            kappa = calibrate_kappa(geometry, E, target, params.P_max)
            material = SurrogateMaterial(E, nu, kappa)
        except ValueError as e:
            problems.append(f"material: {e}")

    layout = None
    specs = _build_modules(raw["station"], geometry)
    violations = station_violations(specs)
    if violations:
        problems.extend(f"station: {v}" for v in violations)
    else:
        layout = StationLayout(tuple(specs))

    object_spec = None
    initial_z = _num("object", "initial_z", raw["object"]["initial_z"])
    if _bool("object", "present", raw["object"]["present"]):
        r_o = _num("object", "radius_r_o", raw["object"]["radius_r_o"])
        L_o = _num("object", "length_L_o", raw["object"]["length_L_o"])
        if not 0 < r_o < geometry.inner_radius_r:
            problems.append(
                f"object: radius_r_o must be in (0, inner_radius_r={geometry.inner_radius_r}), "
                f"got {r_o}"
            )
        if not 0 < L_o < math.inf:
            problems.append(f"object: length_L_o must be finite and > 0, got {L_o}")
        if not 0 <= initial_z < math.inf:
            problems.append(f"object: initial_z must be finite and >= 0, got {initial_z}")
        object_spec = ObjectSpec(r_o, L_o)

    detection = _build_params("detection", DetectionConfig, raw, problems)
    control = _build_params("control", ControlConfig, raw, problems)

    duration_s = _num("run", "duration_s", raw["run"]["duration_s"])
    problems.extend(duration_problems(duration_s, params and params.dt))
    output_path = raw["run"]["output_path"]
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"run.output_path: expected a path string, got {output_path!r}")

    return RunConfig(
        geometry=geometry,
        material=material,
        layout=layout,
        object_spec=object_spec,
        initial_z=initial_z,
        params=params,
        detection=detection,
        control=control,
        calibration_with_object=_bool("calibration", "object_present",
                                      raw["calibration"]["object_present"]),
        duration_s=duration_s,
        output_path=output_path,
        problems=problems,
    )


BASELINES_HEADER = "module_id,rate_kPa_per_s"


def load_baselines(path: str) -> dict[int, float]:
    """Read a calibration CSV into {module_id: rate}.

    Raises:
        ConfigError: text that is not UTF-8, wrong header, malformed row, a
            rate that is not finite and > 0, or a module named twice.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            header, *lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    if header.strip() != BASELINES_HEADER:
        raise ConfigError(f"unrecognized baselines header: {header.strip()!r}")
    out: dict[int, float] = {}
    seen: dict[int, int] = {}  # module id -> the line that named it
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"baselines line {lineno}: expected 2 columns")
        try:
            mid, rate = int(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"baselines line {lineno}: malformed row {line!r}") from None
        if not 0 < rate < math.inf:
            raise ConfigError(f"baselines line {lineno}: rate must be finite and > 0, "
                              f"got {rate}")
        if mid in seen:
            raise ConfigError(f"baselines line {lineno}: module {mid} already has a rate "
                              f"(line {seen[mid]})")
        seen[mid] = lineno
        out[mid] = rate
    return out


def write_baselines(path: str, rates: dict[int, float]) -> None:
    with open(path, "w", newline="") as f:
        f.write(BASELINES_HEADER + "\n")
        for mid in sorted(rates):
            f.write(f"{mid},{rates[mid]:.6f}\n")
