"""Fixed-step plant model of a stacked pneumatic station.

State advances in constant dt steps.  Pressure rates are piecewise constant
(valve mode and contact state select the rate), so Euler integration is
exact between events and the whole trajectory is deterministic.  Sensor
noise lives in the hardware layer, not here: the plant is the ground truth.

Step order, per tick:
  1. pressures integrate under the commanded valves (contact state from the
     previous tick selects the inflation rate),
  2. membrane inflations follow from the new pressures,
  3. longitudinal strokes lift every module stacked above them,
  4. the object moves rigidly with its supporters (conflicting supporter
     motion emits a "conflict" event; the object follows the lowest),
  5. contacts and supporters are recomputed; losing all supporters while
     held emits a "drop" event and the object falls to the highest module
     still able to carry it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

from .geometry import RingGeometry, SurrogateMaterial, surrogate_inflation

COMPRESSION = "Compression"
LONGITUDINAL = "Longitudinal"
MODULE_KINDS = (COMPRESSION, LONGITUDINAL)

INFLATE = "Inflate"
HOLD = "Hold"
DEFLATE = "Deflate"
VALVE_MODES = (INFLATE, HOLD, DEFLATE)

# A longitudinal module's full stroke as a fraction of its rest height.
LONGITUDINAL_STROKE_FRACTION = 0.3

# Contact-rate law anchor: below this radius ratio the object is too small
# to load the membrane and the inflation rate stays at the free-air value.
CONTACT_RATE_KNEE = 0.4


@dataclass(frozen=True)
class ModuleSpec:
    id: int  # 1-based stack index
    kind: str
    geometry: RingGeometry
    height_h: float  # mm
    z_origin: float  # mm, bottom face at rest


@dataclass
class ChamberState:
    pressure_P: float = 0.0
    valve: str = HOLD
    inflation_d: float = 0.0
    in_contact: bool = False


@dataclass(frozen=True)
class ObjectSpec:
    radius_r_o: float  # mm
    length_L_o: float  # mm


@dataclass
class ObjectState:
    spec: ObjectSpec
    z: float  # mm, bottom face
    supporters: frozenset = frozenset()


@dataclass(frozen=True)
class PlantParams:
    P_max: float = 15.0  # kPa
    k_free: float = 4.33  # kPa/s, inflation with no object load
    k_contact_at_0p7: float = 8.48  # kPa/s, inflation in contact at r_o = 0.7 r
    k_vent: float = 12.0  # kPa/s
    dt: float = 1e-3  # s
    noise_sigma: float = 0.0  # kPa, applied at the sensor, not here
    rng_seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.P_max <= 0 or self.k_free <= 0 or self.k_contact_at_0p7 <= 0 or self.k_vent <= 0:
            raise ValueError("P_max and all rates must be > 0")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def contact_rate_slope(self) -> float:
        """Linear gain of the contact rate per unit r_o/r above the knee.

        Fitted through the two measured anchors: the free rate at the knee
        and k_contact_at_0p7 at r_o/r = 0.7.
        """
        return (self.k_contact_at_0p7 / self.k_free - 1.0) / (0.7 - CONTACT_RATE_KNEE)

    def contact_rate(self, r_o_over_r: float) -> float:
        """Inflation rate (kPa/s) of a compression ring gripping an object.

        Linear in r_o/r above the knee; at or below the knee the loaded rate
        equals the free rate.
        """
        extra = self.contact_rate_slope * max(0.0, r_o_over_r - CONTACT_RATE_KNEE)
        return self.k_free * (1.0 + extra)


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of a dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def full_compression_inflation(
    geometry: RingGeometry, material: SurrogateMaterial, P_max: float
) -> float:
    """Radial membrane displacement (mm) of a compression ring at P_max."""
    return surrogate_inflation(geometry, material, P_max) * geometry.inner_radius_r


def alternating_kinds(count: int) -> list[str]:
    """The kinds of a valid count-module station, bottom up: C, L, C, ..., C."""
    return [COMPRESSION if i % 2 == 0 else LONGITUDINAL for i in range(count)]


def station_violations(modules: Sequence[ModuleSpec]) -> list[str]:
    """Every stacking rule the module list breaks, by name (empty = valid)."""
    violations = []
    if not modules:
        return ["station must contain at least one module"]
    ids = [m.id for m in modules]
    if ids != list(range(1, len(modules) + 1)):
        violations.append("module ids must be contiguous from 1")
    for m in modules:
        if m.kind not in MODULE_KINDS:
            violations.append(f"module {m.id}: unknown kind {m.kind!r}")
        if m.height_h <= 0:
            violations.append(f"module {m.id}: height_h must be > 0")
    z = [m.z_origin for m in modules]
    if any(b <= a for a, b in zip(z, z[1:])):
        violations.append("z_origins must be strictly increasing with id")
    if modules[0].kind != COMPRESSION or modules[-1].kind != COMPRESSION:
        violations.append("first and last modules must be Compression")
    for m, expected in zip(modules, alternating_kinds(len(modules))):
        if m.kind in MODULE_KINDS and m.kind != expected:
            violations.append("module kinds must alternate Compression/Longitudinal")
            break
    return violations


@dataclass(frozen=True)
class StationLayout:
    modules: tuple[ModuleSpec, ...]

    def __post_init__(self):
        bad = station_violations(self.modules)
        if bad:
            raise ValueError("invalid station: " + "; ".join(bad))

    @property
    def station_top(self) -> float:
        m = self.modules[-1]
        return m.z_origin + m.height_h

    def module(self, module_id: int) -> ModuleSpec:
        return self.modules[module_id - 1]


def stack_modules(
    geometry: RingGeometry, kinds_and_heights: Iterable[tuple[str, float]]
) -> list[ModuleSpec]:
    """Modules with ids from 1, stacked contiguously from z = 0, in the given order.

    Unchecked: station_violations names every rule the result breaks.
    """
    mods = []
    z = 0.0
    for i, (kind, h) in enumerate(kinds_and_heights, start=1):
        mods.append(ModuleSpec(i, kind, geometry, h, z))
        z += h
    return mods


def alternating_modules(
    geometry: RingGeometry,
    module_count: int,
    compression_height: float,
    longitudinal_height: float,
) -> list[ModuleSpec]:
    """module_count modules of alternating kinds, stacked from z = 0 (unchecked)."""
    height = {COMPRESSION: compression_height, LONGITUDINAL: longitudinal_height}
    return stack_modules(geometry, ((k, height[k]) for k in alternating_kinds(module_count)))


def build_station(
    geometry: RingGeometry,
    module_count: int,
    compression_height: float,
    longitudinal_height: float,
) -> StationLayout:
    """Stack module_count alternating modules contiguously from z = 0."""
    if module_count < 1 or module_count % 2 == 0:
        raise ValueError(f"module_count must be odd and >= 1, got {module_count}")
    return StationLayout(tuple(alternating_modules(
        geometry, module_count, compression_height, longitudinal_height)))


def time_to_contact(
    r_o_over_r: float, params: PlantParams, geometry: RingGeometry, material: SurrogateMaterial
) -> float:
    """Seconds of free inflation until a compression ring first grips.

    Closed form: the membrane closes the gap (r - r_o) at the free rate,
    (r - r_o)/d_max * P_max/k_free.

    Raises:
        ValueError: if the object is too thin for the membrane to reach.
    """
    d_max = full_compression_inflation(geometry, material, params.P_max)
    gap = geometry.inner_radius_r * (1.0 - r_o_over_r)
    if gap > d_max:
        raise ValueError(
            f"object too thin for contact: gap {gap:.3f} mm exceeds max inflation {d_max:.3f} mm"
        )
    return gap / d_max * params.P_max / params.k_free


class Plant:
    """Owns the mutable station state; step() advances exactly one dt.

    A single logical owner must serialize step() calls.  Snapshots returned
    by chambers() and object_state() are plain values safe to share.
    """

    def __init__(
        self,
        layout: StationLayout,
        obj: Optional[ObjectState],
        params: PlantParams,
        material: SurrogateMaterial,
    ):
        self.layout = layout
        self.params = params
        self.material = material
        self.object = obj
        self.time = 0.0

        self._mods = list(layout.modules)
        n = len(self._mods)
        self._kind = [m.kind for m in self._mods]
        self._P = [0.0] * n
        self._valve = [HOLD] * n
        self._d = [0.0] * n
        self._contact = [False] * n
        self._lift = [0.0] * n  # current rise of each module above rest

        # Full-pressure displacement per module, fixed by geometry/material;
        # displacement is linear in pressure below it.
        self._d_full = [
            full_compression_inflation(m.geometry, material, params.P_max)
            if m.kind == COMPRESSION else LONGITUDINAL_STROKE_FRACTION * m.height_h
            for m in self._mods
        ]

        self._gap = [m.geometry.inner_radius_r - obj.spec.radius_r_o if obj else 0.0 for m in self._mods]
        ror = obj.spec.radius_r_o / self._mods[0].geometry.inner_radius_r if obj else 0.0
        self._k_contact = params.contact_rate(ror)
        self._supporters: list[int] = []
        self._held = False

    # -- queries ------------------------------------------------------------

    def pressure(self, module_id: int) -> float:
        return self._P[module_id - 1]

    def valve(self, module_id: int) -> str:
        return self._valve[module_id - 1]

    def inflation(self, module_id: int) -> float:
        return self._d[module_id - 1]

    def chambers(self) -> dict[int, ChamberState]:
        return {
            m.id: ChamberState(self._P[i], self._valve[i], self._d[i], self._contact[i])
            for i, m in enumerate(self._mods)
        }

    def object_state(self) -> Optional[ObjectState]:
        if self.object is None:
            return None
        return ObjectState(self.object.spec, self.object.z, frozenset(self._supporters))

    def module_span(self, module_id: int) -> tuple[float, float]:
        m = self._mods[module_id - 1]
        lo = m.z_origin + self._lift[module_id - 1]
        return lo, lo + m.height_h

    def set_valve(self, module_id: int, mode: str) -> None:
        if mode not in VALVE_MODES:
            raise ValueError(f"unknown valve mode {mode!r}")
        if not 1 <= module_id <= len(self._mods):
            raise ValueError(f"no such module: {module_id}")
        self._valve[module_id - 1] = mode

    # -- integration --------------------------------------------------------

    def step(self, commands: Optional[dict[int, str]] = None) -> list[tuple[int, str]]:
        """Advance one dt; returns (module_id, text) events (0 = station-level)."""
        if commands:
            for mid, mode in commands.items():
                self.set_valve(mid, mode)

        params = self.params
        dt = params.dt
        events: list[tuple[int, str]] = []

        # 1+2) pressures, then inflations (contact flags are last tick's)
        for i in range(len(self._mods)):
            v = self._valve[i]
            if v == HOLD:
                pass
            elif v == INFLATE:
                rate = self._k_contact if self._contact[i] else params.k_free
                p = self._P[i] + rate * dt
                self._P[i] = params.P_max if p > params.P_max else p
            elif v == DEFLATE:
                p = self._P[i] - params.k_vent * dt
                self._P[i] = 0.0 if p < 0.0 else p
            else:
                raise ValueError(f"unknown valve mode {v!r}")
            self._d[i] = (self._P[i] / params.P_max) * self._d_full[i]

        # 3) longitudinal strokes lift everything stacked above them
        old_lift = self._lift
        lift = 0.0
        new_lift = [0.0] * len(self._mods)
        for i in range(len(self._mods)):
            new_lift[i] = lift
            if self._kind[i] == LONGITUDINAL:
                lift += self._d[i]
        self._lift = new_lift

        # 4) object rides its supporters from the previous tick
        obj = self.object
        if obj is not None and self._supporters:
            deltas = [new_lift[s - 1] - old_lift[s - 1] for s in self._supporters]
            delta = deltas[0]  # supporters are kept sorted; [0] is the lowest
            if max(deltas) - min(deltas) > 1e-12:
                ids = "+".join(str(s) for s in self._supporters)
                events.append((0, f"conflict supporters={ids} following={self._supporters[0]}"))
            if delta != 0.0:
                obj.z += delta

        # 5) recompute contacts and supporters at the new configuration
        if obj is not None:
            oz, otop = obj.z, obj.z + obj.spec.length_L_o
            supporters = []
            for i, m in enumerate(self._mods):
                if self._kind[i] != COMPRESSION:
                    continue
                lo = m.z_origin + new_lift[i]
                hit = (
                    self._d[i] >= self._gap[i]
                    and oz < lo + m.height_h
                    and otop > lo
                )
                self._contact[i] = hit
                if hit:
                    supporters.append(m.id)

            # 6) drop on held -> unsupported
            if self._held and not supporters:
                land = 0.0
                for i, m in enumerate(self._mods):
                    if self._kind[i] != COMPRESSION or self._d[i] < self._gap[i]:
                        continue
                    top = m.z_origin + new_lift[i] + m.height_h
                    if top <= obj.z and top > land:
                        land = top
                events.append((0, f"drop to_z={land:.6f}"))
                obj.z = land
            self._supporters = supporters
            self._held = bool(supporters)
            obj.supporters = frozenset(supporters)

        self.time += dt
        return events

