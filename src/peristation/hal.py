"""Hardware abstraction between the controller and any plant.

Two backends implement the same contract: SimulatedBackend drives the
in-process plant model, ReplayBackend plays a recorded telemetry file (the
TelemetryLog that read_telemetry returns) back and verifies the controller
issues the identical commands.  Time advances in blocks: one pair of
operations reads and commits a run of ticks,

  - lookahead(n): the sensed rows of the current tick and of up to n - 1
    following ticks, as they will be if the valves stay as they are
    (fewer at the end of a recording, and none past a tick that plant
    events arrive with; a physical backend may return the current tick
    alone);
  - advance(j): commit j ticks, making tick j of the lookahead current;

and three operations act on the current tick:

  - read_all: every module's sensed pressure, as one {module_id: kPa}
    mapping that the backend never mutates afterwards;
  - read_pressure: one module's sensed pressure and the current time;
  - set_valve: command one module's valve, which voids a lookahead.

read_all and tick (advance by one) are thin forms of the pair.  The
controller owns the backend and serializes all calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .plant import Plant, VALVE_MODES
from .telemetry import TelemetryLog


@dataclass(frozen=True)
class ValveCommand:
    module_id: int
    mode: str
    timestamp: float


@dataclass(frozen=True)
class Rows:
    """Sensed rows of consecutive ticks, the first being the current one.

    pressure has one column per module id in ids.  inflation and object_z
    are plant ground truth (object_z is 0.0 without an object), None when
    the backend has none.
    """

    ids: tuple[int, ...]
    pressure: np.ndarray  # (rows, len(ids)) sensed kPa
    time: np.ndarray  # (rows,) backend clock, s
    inflation: Optional[np.ndarray] = None  # (rows, len(ids)) mm
    object_z: Optional[np.ndarray] = None  # (rows,) mm

    def __len__(self) -> int:
        return len(self.time)

    def head(self, n: int) -> "Rows":
        """The first n rows."""
        truth = self.inflation is not None
        return Rows(self.ids, self.pressure[:n], self.time[:n],
                    self.inflation[:n] if truth else None,
                    self.object_z[:n] if truth else None)


class ReplayMismatchError(ValueError):
    """Controller command diverged from the recorded stream."""


class EndOfRecordingError(ValueError):
    """Replay queried past the last recorded sample."""


class SimulatedBackend:
    """HAL over the in-process plant.

    Sensor readings are the plant pressures plus optional zero-mean Gaussian
    noise, drawn once per module per tick in module order from a seeded
    generator, so a fixed seed reproduces the byte-identical sensed stream
    regardless of who reads what and in what blocks.  A lookahead draws the
    noise of its ticks ahead; what advance does not use stays buffered for
    the ticks it belongs to.
    """

    def __init__(self, plant: Plant):
        self.plant = plant
        self._ids = tuple(m.id for m in plant.layout.modules)
        self._sigma = plant.params.noise_sigma
        self._rng = np.random.default_rng(plant.params.rng_seed)
        self._noise = np.empty((0, len(self._ids)))  # drawn noise; row 0 is the current tick's
        self._traj = None  # the last lookahead's trajectory, while it stays valid
        self._last_cmd_t = {i: -math.inf for i in self._ids}
        self._pending_events: list[tuple[int, str]] = []
        self._sensed = dict(zip(self._ids, self._sense(plant.trajectory(0).pressure)[0].tolist()))

    def _noise_rows(self, n: int) -> np.ndarray:
        """The noise of the current tick and the n - 1 after it, drawn as needed."""
        short = n - len(self._noise)
        if short > 0:
            draw = self._rng.normal(0.0, self._sigma, (short, len(self._ids)))
            self._noise = np.concatenate((self._noise, draw))
        return self._noise[:n]

    def _sense(self, pressure: np.ndarray) -> np.ndarray:
        """Sensed values of plant pressure rows starting at the current tick."""
        if self._sigma == 0.0:
            return pressure
        return pressure + self._noise_rows(len(pressure))

    @property
    def now(self) -> float:
        return self.plant.time

    def read_all(self) -> dict[int, float]:
        return self._sensed

    def read_pressure(self, module_id: int) -> tuple[float, float]:
        if module_id not in self._sensed:
            raise ValueError(f"no such endpoint: module {module_id}")
        return self._sensed[module_id], self.plant.time

    def set_valve(self, cmd: ValveCommand) -> bool:
        if cmd.module_id not in self._sensed:
            raise ValueError(f"no such endpoint: module {cmd.module_id}")
        if cmd.timestamp < self._last_cmd_t[cmd.module_id]:
            raise ValueError(
                f"command timestamps must be non-decreasing per module "
                f"(module {cmd.module_id}: {cmd.timestamp} < {self._last_cmd_t[cmd.module_id]})"
            )
        self._last_cmd_t[cmd.module_id] = cmd.timestamp
        self.plant.set_valve(cmd.module_id, cmd.mode)
        self._traj = None
        return True

    def lookahead(self, n: int) -> Rows:
        if n < 1:
            raise ValueError(f"lookahead needs n >= 1, got {n}")
        traj = self._traj = self.plant.trajectory(n - 1)
        z = traj.object_z if traj.object_z is not None else np.zeros(len(traj))
        return Rows(self._ids, self._sense(traj.pressure), traj.time, traj.inflation, z)

    def advance(self, j: int) -> None:
        if j < 0:
            raise ValueError(f"advance needs j >= 0, got {j}")
        while j > 0:
            traj = self._traj
            if traj is None or len(traj) < 2:
                traj = self.plant.trajectory(j)
            i = min(j, len(traj) - 1)
            self._pending_events.extend(self.plant.commit(traj, i))
            self._traj = None
            sensed = traj.pressure[i]
            if self._sigma > 0.0:
                sensed = sensed + self._noise_rows(i + 1)[i]
                self._noise = self._noise[i:]
            self._sensed = dict(zip(self._ids, sensed.tolist()))
            j -= i

    def tick(self, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if abs(dt - self.plant.params.dt) > 1e-12:
            raise ValueError(
                f"simulated backend steps at fixed dt={self.plant.params.dt}, got {dt}"
            )
        self.advance(1)
        return self.plant.time

    def drain_events(self) -> list[tuple[int, str]]:
        out = self._pending_events
        self._pending_events = []
        return out


class ReplayBackend:
    """HAL over a recorded telemetry stream.

    read_all, read_pressure and lookahead return the recorded sensed
    pressures; set_valve verifies the command matches the recording and
    raises ReplayMismatchError naming both modes if it does not.  advance
    and tick move to later recorded instants and raise EndOfRecordingError
    past the end.

    Ticks are found once, from the time and module_id columns: module rows
    only (module_id 0 rows are station events), and a new tick whenever
    time exceeds every earlier module row's time.  A tick's pressures are
    gathered only when it is read.  A lookahead runs on while the
    following ticks hold exactly one row per module of the current tick,
    in the same order.
    """

    def __init__(self, samples: Sequence, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        self.dt = dt
        self.mismatches = 0
        self._last_cmd_t: dict[int, float] = {}
        log = samples if isinstance(samples, TelemetryLog) else TelemetryLog.from_samples(samples)
        self._log = log
        # _bounds[k]:_bounds[k + 1] is tick k's row range
        self._bounds: list[int] = []
        current_t = None
        for i, (t, mid) in enumerate(zip(log.time_s, log.module_id)):
            if mid == 0:
                continue
            if current_t is None or t > current_t:
                current_t = t
                self._bounds.append(i)
        if not self._bounds:
            raise ValueError("recording contains no module samples")
        self._bounds.append(len(log))
        self._n_ticks = len(self._bounds) - 1
        self._k = 0
        self._sensed_k = -1
        self._sensed: dict[int, float] = {}

    def read_all(self) -> dict[int, float]:
        """The current tick's {module_id: sensed kPa}, built on first use."""
        k = self._k
        if k >= self._n_ticks:
            raise EndOfRecordingError("end of recording")
        if self._sensed_k != k:
            rows = slice(self._bounds[k], self._bounds[k + 1])
            self._sensed = dict(zip(self._log.module_id[rows], self._log.pressure_kPa[rows]))
            self._sensed.pop(0, None)  # station event rows
            self._sensed_k = k
        return self._sensed

    @property
    def now(self) -> float:
        if self._k >= self._n_ticks:
            raise EndOfRecordingError("end of recording")
        return self._log.time_s[self._bounds[self._k]]

    def read_pressure(self, module_id: int) -> tuple[float, float]:
        sensed = self.read_all()
        if module_id not in sensed:
            raise ValueError(f"no such endpoint: module {module_id}")
        return sensed[module_id], self.now

    def set_valve(self, cmd: ValveCommand) -> bool:
        if cmd.module_id not in self.read_all():
            raise ValueError(f"no such endpoint: module {cmd.module_id}")
        if cmd.mode not in VALVE_MODES:
            raise ValueError(f"unknown valve mode {cmd.mode!r}")
        last = self._last_cmd_t.get(cmd.module_id, -math.inf)
        if cmd.timestamp < last:
            raise ValueError(
                f"command timestamps must be non-decreasing per module "
                f"(module {cmd.module_id}: {cmd.timestamp} < {last})"
            )
        self._last_cmd_t[cmd.module_id] = cmd.timestamp
        # the tick's last row for the module, as read_all keeps the last pressure
        mids, rows = self._log.module_id, range(self._bounds[self._k], self._bounds[self._k + 1])
        recorded = next(self._log.valve[i] for i in reversed(rows) if mids[i] == cmd.module_id)
        if recorded != cmd.mode:
            self.mismatches += 1
            raise ReplayMismatchError(
                f"command diverges from recording: module {cmd.module_id} "
                f"sent {cmd.mode}, recorded {recorded}"
            )
        return True

    def lookahead(self, n: int) -> Rows:
        if n < 1:
            raise ValueError(f"lookahead needs n >= 1, got {n}")
        sensed = self.read_all()
        ids = tuple(sensed)
        m = len(ids)
        k = self._k
        # following ticks of exactly m rows whose module ids repeat the current tick's
        after = self._bounds[k + 1:min(k + n, self._n_ticks) + 1]
        uneven = np.flatnonzero(np.diff(after) != m)
        good = int(uneven[0]) if uneven.size else len(after) - 1
        a = after[0]
        if good:
            mids = np.array(self._log.module_id[a:a + good * m]).reshape(good, m)
            differs = np.flatnonzero((mids != ids).any(axis=1))
            if differs.size:
                good = int(differs[0])
        b = a + good * m
        pressure = np.empty((1 + good, m))
        pressure[0] = list(sensed.values())
        pressure[1:] = np.array(self._log.pressure_kPa[a:b]).reshape(good, m)
        return Rows(ids, pressure, np.array([self.now] + self._log.time_s[a:b:m]))

    def advance(self, j: int) -> None:
        if j < 0:
            raise ValueError(f"advance needs j >= 0, got {j}")
        if self._k + j >= self._n_ticks:
            self._k = self._n_ticks
            raise EndOfRecordingError("end of recording")
        self._k += j

    def tick(self, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        self.advance(1)
        return self.now

    def drain_events(self) -> list[tuple[int, str]]:
        return []
