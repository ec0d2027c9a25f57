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
import os
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace
from typing import Optional

import yaml
from yaml import CollectionEndEvent, CollectionStartEvent

from .control import (ControlConfig, DetectionConfig, duration_problems, gate_problems,
                      timeout_problems, window_problems)
from .geometry import RingGeometry, SurrogateMaterial, calibrate_kappa, validate_geometry
from .plant import (
    COMPRESSION,
    LONGITUDINAL,
    MAX_MODULES,
    MODULE_KINDS,
    ObjectSpec,
    PlantParams,
    StationLayout,
    alternating_kinds,
    contact_pressure,
    stack_modules,
    station_violations,
)


class ConfigError(ValueError):
    """Configuration failed to parse or type-check."""


# libyaml's loader where PyYAML has it; both share SafeConstructor and the resolver.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The deepest a config may nest; a valid one has 4 levels (root, section,
# station.modules, module).  libyaml composes recursively in C and kills the
# process on deeper text, so _parse first counts levels on the parser's events.
MAX_NESTING = 16


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
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return math.inf if v > 0 else -math.inf


def _typed(section: str, merged: dict) -> dict:
    """A merged section, each value checked against the type of its default.

    A bool default takes true/false, an int default an integer and a float
    default a number.  A key whose default is None (station.modules,
    run.output_path) keeps its value for the check where it is read.
    """
    out = dict(merged)
    for key, default in _SECTIONS[section].items():
        if isinstance(default, float):
            out[key] = _num(section, key, merged[key])
        elif isinstance(default, int) and type(merged[key]) is not type(default):  # a bool is an int
            expected = "true/false" if isinstance(default, bool) else "an integer"
            raise ConfigError(f"{section}.{key}: expected {expected}, got {merged[key]!r}")
    return out


def _build_params(section: str, cls, sections: dict, problems: list):
    """Build cls from a typed section.

    A rule the values break goes to problems as "<section>: ...", and the
    result is then None.
    """
    try:
        return cls(**sections[section])
    except ValueError as e:
        problems.append(f"{section}: {e}")
        return None


def _build_layout(station: dict, geometry: RingGeometry, problems: list
                  ) -> Optional[StationLayout]:
    """The station's layout, or None with the rules it breaks in problems as "station: ...".

    An explicit module list overrides module_count; a module in it without
    a height takes the section's height for its kind.  A module_count over
    MAX_MODULES is refused before a single module is built.
    """
    height = {COMPRESSION: station["compression_height"],
              LONGITUDINAL: station["longitudinal_height"]}
    raw_list, count = station["modules"], station["module_count"]
    if raw_list is None and count > MAX_MODULES:
        problems.append(f"station: module_count must be <= {MAX_MODULES}, got {count}")
        return None
    if raw_list is None:
        kinds_and_heights = [(kind, height[kind]) for kind in alternating_kinds(count)]
    elif not isinstance(raw_list, list):
        raise ConfigError("station.modules: expected a list")
    else:
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
            h = _num(f"station.modules[{i}]", "height", item.get("height", height[kind]))
            kinds_and_heights.append((kind, h))
    specs = stack_modules(geometry, kinds_and_heights)
    violations = station_violations(specs)
    problems.extend(f"station: {v}" for v in violations)
    return None if violations else StationLayout(tuple(specs))


def _parse(path: str):
    """The YAML data in the file at path, refused past MAX_NESTING before it is composed.

    The event parser, a state machine in both loaders, reads only as far as it
    needs, so text that is not YAML (endless NULs) ends the read early.  The
    data is then loaded from the text it read.
    """
    read = []
    with open(path, "r", encoding="utf-8") as f:
        def more(size=-1):
            read.append(f.read(size))
            return read[-1]
        try:
            level = 0
            for ev in yaml.parse(SimpleNamespace(name=path, read=more), Loader=_LOADER):
                level += isinstance(ev, CollectionStartEvent) - isinstance(ev, CollectionEndEvent)
                if level > MAX_NESTING:
                    raise ConfigError(f"{path}: nested deeper than {MAX_NESTING} levels")
            return yaml.load("".join(read), Loader=_LOADER)
        except yaml.YAMLError as e:
            raise ConfigError(f"not valid YAML: {e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None


def load_config(path: Optional[str] = None) -> RunConfig:
    """Read a YAML config file (or None for all defaults) into a RunConfig.

    Raises:
        ConfigError: unreadable YAML, unknown sections/keys, wrong types,
            or an incomplete geometry section.
    """
    data = _mapping(None if path is None else _parse(path), "config root")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    sections = {
        name: _typed(name, _merge(name, _mapping(data.get(name), name), defaults,
                                  require_all=name == "geometry"))
        for name, defaults in _SECTIONS.items()
    }

    problems: list[str] = []

    geometry = RingGeometry(**sections["geometry"])
    try:
        report = validate_geometry(geometry)
        problems.extend(f"geometry: {v}" for v in report.violations)
    except ValueError as e:
        problems.append(f"geometry: {e}")

    params = _build_params("plant", PlantParams, sections, problems)

    material = None
    mat = sections["material"]
    geometry_ok = not any(p.startswith("geometry:") for p in problems)
    if geometry_ok and params is not None:
        try:
            kappa = calibrate_kappa(geometry, mat["youngs_modulus_E"], mat["calibration_target"],
                                    params.P_max)
            material = SurrogateMaterial(mat["youngs_modulus_E"], mat["poisson_ratio_nu"], kappa)
        except ValueError as e:
            problems.append(f"material: {e}")

    layout = _build_layout(sections["station"], geometry, problems)

    obj = sections["object"]
    object_spec = None
    if obj["present"]:
        r_o, L_o, z = obj["radius_r_o"], obj["length_L_o"], obj["initial_z"]
        if not 0 < r_o < geometry.inner_radius_r:
            problems.append(
                f"object: radius_r_o must be in (0, inner_radius_r={geometry.inner_radius_r}), "
                f"got {r_o}"
            )
        if not 0 < L_o < math.inf:
            problems.append(f"object: length_L_o must be finite and > 0, got {L_o}")
        if not 0 <= z < math.inf:
            problems.append(f"object: initial_z must be finite and >= 0, got {z}")
        object_spec = ObjectSpec(r_o, L_o)

    detection = _build_params("detection", DetectionConfig, sections, problems)
    control = _build_params("control", ControlConfig, sections, problems)
    if control is not None and params is not None:
        grip = math.inf  # with a valid object, the pressure at which a ring reaches it
        if object_spec is not None and material is not None and not any(
                p.startswith("object:") for p in problems):
            grip = contact_pressure(geometry, material, params.P_max, object_spec.radius_r_o)
        problems.extend(gate_problems(control, params.P_max, grip))
        problems.extend(timeout_problems(control, params.dt))
        if detection is not None:
            problems.extend(window_problems(detection, control, params.dt))

    run = sections["run"]
    problems.extend(duration_problems(run["duration_s"], params and params.dt))
    out = run["output_path"]
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"run.output_path: expected a path string, got {out!r}")
    try:  # open() names the file by these bytes, which a NUL would end early
        if out is not None and b"\0" in os.fsencode(out):
            raise ValueError("embedded null byte")
    except ValueError as e:  # UnicodeEncodeError too
        raise ConfigError(f"run.output_path: cannot name a file ({e}), got {out!r}") from None

    return RunConfig(
        geometry=geometry,
        material=material,
        layout=layout,
        object_spec=object_spec,
        initial_z=obj["initial_z"],
        params=params,
        detection=detection,
        control=control,
        calibration_with_object=sections["calibration"]["object_present"],
        duration_s=run["duration_s"],
        output_path=run["output_path"],
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
