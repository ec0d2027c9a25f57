"""Fixed-step plant model of a stacked pneumatic station.

State advances in constant dt steps.  Pressure rates are piecewise constant
(valve mode and contact state select the rate), so Euler integration is
exact between events and the whole trajectory is deterministic.  Sensor
noise lives in the hardware layer, not here: the plant is the ground truth.

Step order, per tick:
  1. pressures integrate under the commanded valves (contact state from the
     previous tick selects the inflation rate),
  2. longitudinal strokes (inflations) lift every module stacked above them,
  3. the object moves rigidly with its supporters (conflicting supporter
     motion emits a "conflict" event; the object follows the lowest),
  4. contacts and supporters are recomputed, a ring reaching the object at
     its contact_pressure; losing all supporters while held emits a "drop"
     event and the object falls to the highest module still able to carry it.

Plant.trajectory runs this order over a whole block of ticks at once, one
stretch of constant rates after another, and gives the same bits as
stepping one tick at a time.  It keeps each module's states as one
contiguous row, filled once per call, and spends array operations only on
what moves: the rings that move, the lifts above a moving stroke, the object
when a supporter moves and the contacts whose reach flips or span moves.
Any other contact is one comparison of Python floats per stretch.
Inflation (Plant.inflation) is not stepped: it is computed when read, and so
is time (summed_clock): the plant counts its steps, and sums dt over them
only when its clock is read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import RingGeometry, SurrogateMaterial, require_finite, surrogate_inflation

COMPRESSION = "Compression"
LONGITUDINAL = "Longitudinal"
MODULE_KINDS = (COMPRESSION, LONGITUDINAL)
# The most modules a configured station may have: the largest module id
# that the telemetry reader's fast path decodes, four digits.
MAX_MODULES = 9999

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


@dataclass(frozen=True)
class ObjectSpec:
    radius_r_o: float  # mm
    length_L_o: float  # mm


@dataclass
class ObjectState:
    spec: ObjectSpec
    z: float  # mm, bottom face


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
    if len(modules) < 3:  # the smallest unit that can move an object
        violations.append("station needs at least one (C, L, C) triple")
    if len(modules) > MAX_MODULES:
        violations.append(f"station must have at most {MAX_MODULES} modules, got {len(modules)}")
    ids = [m.id for m in modules]
    if ids != list(range(1, len(modules) + 1)):
        violations.append("module ids must be contiguous from 1")
    for m in modules:
        if m.kind not in MODULE_KINDS:
            violations.append(f"module {m.id}: unknown kind {m.kind!r}")
        if not math.isfinite(m.height_h):
            violations.append(f"module {m.id}: height_h must be finite, got {m.height_h}")
        elif m.height_h <= 0:
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


def build_station(
    geometry: RingGeometry,
    module_count: int,
    compression_height: float,
    longitudinal_height: float,
) -> StationLayout:
    """Stack module_count alternating modules contiguously from z = 0."""
    if module_count < 1 or module_count % 2 == 0:
        raise ValueError(f"module_count must be odd and >= 1, got {module_count}")
    height = {COMPRESSION: compression_height, LONGITUDINAL: longitudinal_height}
    return StationLayout(tuple(stack_modules(
        geometry, ((k, height[k]) for k in alternating_kinds(module_count)))))


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


def contact_pressure(geometry: RingGeometry, material: SurrogateMaterial, P_max: float,
                     radius_r_o: float) -> float:
    """The least kPa at which a compression ring reaches an object of radius_r_o.

    The least double P whose inflation closes the gap, P / P_max * d_full >=
    gap (monotone in P), bisected; inf if P_max falls short.
    """
    full = full_compression_inflation(geometry, material, P_max)
    gap = geometry.inner_radius_r - radius_r_o
    lo, hi = -1.0, P_max if full >= gap else math.inf  # hi reaches, lo does not
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (lo, mid) if mid / P_max * full >= gap else (mid, hi)
    return max(hi, 0.0)


def summed_clock(seconds: float, dt: float, steps: int) -> np.ndarray:
    """A clock's readings from seconds on, after 0 to steps more steps of dt,
    dt added one step at a time: the plant's clock, and calibration's tick times."""
    time = np.empty(steps + 1)
    time.fill(dt)
    time[0] = seconds
    return np.add.accumulate(time, out=time)


@dataclass(frozen=True)
class Trajectory:
    """States a plant would pass through under its current valves, not yet committed.

    Row 0 is the state the trajectory starts from and row i the state after
    i steps; the arrays have one column per module, in layout order.  The
    per-module arrays are transposed views of (modules, rows) storage, so
    each module's column is contiguous.  Plant.trajectory builds one and
    Plant.commit moves the plant to a row.  The storage is the plant's, and
    the plant writes its next trajectory into it once no view of it is alive:
    a held trajectory or view keeps its bits.
    """

    start: int  # the plant's state count when the trajectory was computed
    pressure: np.ndarray  # (rows, modules) kPa
    lift: np.ndarray  # (rows, modules) mm, rise of each module above rest
    contact: np.ndarray  # (rows, modules) bool
    object_z: Optional[np.ndarray]  # (rows,) mm; None without an object
    events: tuple  # (module_id, text) events of the step into the last row

    def __len__(self) -> int:
        return len(self.pressure)


class Plant:
    """Owns the mutable station state; trajectory() is the one physics kernel.

    trajectory(n) integrates up to n steps under the current valves without
    changing the plant, and commit() moves the plant to one of its rows;
    step() is the two with n = 1.  The current state is row 0 of any
    trajectory.  A single logical owner must serialize these calls.
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
        self.object = obj
        self._seconds, self._steps = 0.0, 0  # the clock: its last reading, and steps since

        self._mods = list(layout.modules)
        n = len(self._mods)
        self._kind = [m.kind for m in self._mods]
        self._P = [0.0] * n
        self._valve = [HOLD] * n
        self._contact = [False] * n
        self._lift = [0.0] * n  # current rise of each module above rest
        self._state = 0  # counts commits and valve changes; a trajectory is valid for one
        # trajectory() storage: rows of pressure, lift and object z; of contact
        self._floats = np.empty((2 * n + 1, 0))
        self._bools = np.empty((n, 0), dtype=bool)

        # Full-pressure displacement per module, fixed by geometry/material;
        # displacement is linear in pressure below it.
        self._d_full = np.array([
            full_compression_inflation(m.geometry, material, params.P_max)
            if m.kind == COMPRESSION else LONGITUDINAL_STROKE_FRACTION * m.height_h
            for m in self._mods
        ])
        self._comp = [i for i, k in enumerate(self._kind) if k == COMPRESSION]
        # the least kPa at which each compression ring reaches the object; inf without one
        reach = {g: contact_pressure(g, material, params.P_max, obj.spec.radius_r_o)
                 for g in {self._mods[i].geometry for i in self._comp} if obj}
        self._reach = [reach.get(m.geometry, math.inf) for m in self._mods]
        self.grip = min(reach.values(), default=math.inf)
        ror = obj.spec.radius_r_o / self._mods[0].geometry.inner_radius_r if obj else 0.0
        # pressure change per step of an inflating or venting ring
        dt = params.dt
        self._inc_free = params.k_free * dt
        self._inc_contact = params.contact_rate(ror) * dt
        self._inc_vent = -(params.k_vent * dt)

    @property
    def time(self) -> float:
        """The clock, s: dt summed step by step over every committed step."""
        if self._steps:
            self._seconds = summed_clock(self._seconds, self.params.dt, self._steps)[-1].item()
            self._steps = 0
        return self._seconds

    def set_valve(self, module_id: int, mode: str) -> None:
        if mode not in VALVE_MODES:
            raise ValueError(f"unknown valve mode {mode!r}")
        if not 1 <= module_id <= len(self._mods):
            raise ValueError(f"no such module: {module_id}")
        self._valve[module_id - 1] = mode
        self._state += 1

    def inflation(self, pressure: np.ndarray) -> np.ndarray:
        """Each module's inflation (mm) at the kPa in pressure's columns."""
        return pressure / self.params.P_max * self._d_full

    # -- integration --------------------------------------------------------

    def step(self) -> list[tuple[int, str]]:
        """Advance one dt; returns (module_id, text) events (0 = station-level)."""
        return self.commit(self.trajectory(1), 1)

    def commit(self, traj: Trajectory, row: int) -> list[tuple[int, str]]:
        """Move the plant to row `row` of a trajectory computed from its current state.

        Returns the trajectory's events when row is its last row, else none.
        The clock counts the row's steps.

        Raises:
            ValueError: the plant changed since the trajectory was computed,
                or row is not one of its rows.
        """
        if traj.start != self._state:
            raise ValueError("trajectory is stale: the plant changed since it was computed")
        if not 0 <= row < len(traj):
            raise ValueError(f"row {row} outside a trajectory of {len(traj)} rows")
        if row == 0:
            return []
        self._P = traj.pressure[row].tolist()
        self._lift = traj.lift[row].tolist()
        self._contact = traj.contact[row].tolist()
        self._steps += row
        if self.object is not None:
            self.object.z = traj.object_z[row].item()
        self._state += 1
        return list(traj.events) if row == len(traj) - 1 else []

    def trajectory(self, n: int) -> Trajectory:
        """The states of the next n steps (fewer after an event), plant unchanged.

        Between contact changes every rate is constant, so each stretch is
        integrated by cumulative sums that repeat the per-step float
        operations in the same order, and results are bit-identical to
        stepping one dt at a time.  Each module's states are one contiguous
        row of (modules, rows) storage, filled once per call with row 0.  The
        plant keeps one float block (pressure, lift, object z) and one bool
        block (contact), grown to the most rows asked for, and writes
        into each while no view of the last trajectory's is alive (its
        reference count says so); while one is, the call takes fresh memory.
        A stretch integrates only the rings whose pressure can change
        (INFLATE below P_max, DEFLATE above 0, read as Python floats); a
        step leaves a held ring's pressure as it is and clips a pinned ring
        back to its bound, so their filled rows keep their bits.  A ring
        that stops moving has reached its bound, and the stretch that moved
        it wrote the bound through to the last row: a fill only rises and a
        vent only falls, so a ring is clipped only if its last row passed a
        bound, and only to that bound (np.maximum to 0, np.minimum to P_max).
        A moving stroke goes straight into the lift row above it, and lifts
        and the object are recomputed only when one moves.  A ring's contact
        is an array over the stretch only where its reach (pressure against
        contact_pressure) flips or its span (its lift or the object) moves,
        else one comparison of Python floats at the stretch's first new row,
        never copied from the row before (row 0 may hold contacts from before
        a drop moved the object).  A stretch ends at the first row where a
        ring's contact flips, and a trajectory after the first step that
        emits a "conflict" or "drop" event.
        """
        if n < 0:
            raise ValueError(f"steps must be >= 0, got {n}")
        params = self.params
        P_max = params.P_max
        mods = self._mods
        m = len(mods)
        obj = self.object
        comp = self._comp
        rows = n + 1
        # one contiguous row per module; the Trajectory gets (rows, modules) views.
        # Every row starts as row 0, until a stretch moves it.
        floats = self._storage("_floats", 2 * m + 1, rows, np.float64)
        floats[:2 * m] = np.array(self._P + self._lift)[:, None]
        P, lift = floats[:m], floats[m:2 * m]
        contact = self._storage("_bools", m, rows, bool)
        contact[:] = False
        contact[:, 0] = self._contact
        z = floats[2 * m] if obj is not None else None
        if z is not None:
            z[0] = obj.z
        events: list[tuple[int, str]] = []
        last = 0  # last row computed
        while last < n and not events:
            seg = slice(last + 1, rows)
            hit0 = contact[:, last].tolist()
            P0 = P[:, last].tolist()
            # 1) pressures of the rings that can move under the valves and last
            # tick's contacts
            moving = [i for i, v in enumerate(self._valve) if v == INFLATE and P0[i] < P_max
                      or v == DEFLATE and P0[i] > 0.0]
            for i in moving:
                Pi = P[i, last:]
                Pi[1:] = (self._inc_vent if self._valve[i] == DEFLATE
                          else self._inc_contact if hit0[i] else self._inc_free)
                np.add.accumulate(Pi, out=Pi)
                # a vent only falls and a fill only rises: one bound can bind
                if Pi[-1] < 0.0:
                    np.maximum(Pi, 0.0, out=Pi)
                elif Pi[-1] > P_max:
                    np.minimum(Pi, P_max, out=Pi)
            # 2) longitudinal strokes lift everything stacked above them
            low = min((i for i in moving if self._kind[i] == LONGITUDINAL), default=m)
            for i in range(low + 1, m):
                if self._kind[i - 1] != LONGITUDINAL:
                    lift[i, seg] = lift[i - 1, seg]
                else:  # plus its stroke, P / P_max of the full stroke, straight into the row
                    d = (np.divide(P[i - 1, seg], P_max, out=lift[i, seg]) if i - 1 in moving
                         else P0[i - 1] / P_max)
                    d *= self._d_full[i - 1]
                    np.add(lift[i - 1, seg], d, out=lift[i, seg])
            end = n  # last row this stretch keeps
            conflict = None
            if obj is not None:
                # 3) the object rides its supporters from the previous tick
                sup = [i for i in comp if hit0[i]]
                zs = z[seg]
                rides = bool(sup) and sup[-1] > low  # a supporter rises or sinks
                if rides:
                    deltas = lift[sup, last + 1:] - lift[sup, last:-1]
                    if len(sup) > 1:
                        spread = deltas.max(axis=0) - deltas.min(axis=0) > 1e-12
                        conflicts = np.flatnonzero(spread)
                        if conflicts.size:
                            end = conflict = last + 1 + int(conflicts[0])
                    # -0.0 where the lowest supporter stays put, so z is left bit-exact
                    zs[:] = np.where(deltas[0] == 0.0, -0.0, deltas[0])
                    np.add.accumulate(z[last:], out=z[last:])
                else:
                    zs[:] = z[last]
                # 4) contacts at the new configuration: arrays over the stretch where
                # the reach flips or the span moves, else floats at its first new row
                P1, lift1 = P[:, last + 1].tolist(), lift[:, last + 1].tolist()
                z1 = z[last + 1].item()
                flip = rows  # the first row where a contact flips
                for i in comp:
                    mod = mods[i]
                    # a moving ring's pressure is monotone: its reach flips only
                    # if its first and last rows differ
                    c = P1[i] >= self._reach[i]
                    if i in moving and c != (P[i, -1] >= self._reach[i]):
                        c = P[i, seg] >= self._reach[i]
                    if c is not False:  # within reach somewhere: the span decides
                        spans = rides or i > low
                        lo = mod.z_origin + (lift[i, seg] if spans else lift1[i])
                        zi = z[seg] if spans else z1
                        c = c & (zi < lo + mod.height_h) & (zi + obj.spec.length_L_o > lo)
                    contact[i, seg] = c
                    if isinstance(c, np.ndarray):
                        k = int(c.argmin() if hit0[i] else c.argmax())
                        if c[k] != hit0[i]:
                            flip = min(flip, last + 1 + k)
                    elif c != hit0[i]:
                        flip = last + 1
                end = min(end, flip)
                if end == conflict:
                    events.append(self._conflict_event(sup))
                if end == flip and sup and not contact[:, end].any():
                    events.append((0, self._drop(z, P, lift, end)))  # held -> unsupported
            last = end
        k = last + 1
        return Trajectory(self._state, P[:, :k].T, lift[:, :k].T, contact[:, :k].T,
                          z[:k] if z is not None else None, tuple(events))

    def _storage(self, name: str, height: int, rows: int, dtype) -> np.ndarray:
        """(height, rows) of the plant's storage `name`, grown to rows if short,
        or fresh memory while a view of the storage is alive: while anything
        but the attribute and getrefcount's argument refers to it."""
        if sys.getrefcount(getattr(self, name)) > 2:
            return np.empty((height, rows), dtype)
        if getattr(self, name).shape[1] < rows:
            setattr(self, name, np.empty((height, rows), dtype))
        return getattr(self, name)[:, :rows]

    def _conflict_event(self, sup: list[int]) -> tuple[int, str]:
        ids = [self._mods[i].id for i in sup]
        return (0, f"conflict supporters={'+'.join(map(str, ids))} following={ids[0]}")

    def _drop(self, z: np.ndarray, P: np.ndarray, lift: np.ndarray, row: int) -> str:
        """Land the object of a trajectory row on the highest ring still able to carry it."""
        oz = z[row].item()
        land = 0.0
        for i in self._comp:
            mod = self._mods[i]
            if P[i, row].item() < self._reach[i]:
                continue
            top = mod.z_origin + lift[i, row].item() + mod.height_h
            if top <= oz and top > land:
                land = top
        z[row] = land
        return f"drop to_z={land:.6f}"
