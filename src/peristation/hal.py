"""Hardware abstraction between the controller and any plant.

Two backends implement the same contract: SimulatedBackend drives the
in-process plant model, ReplayBackend plays a recorded telemetry file (the
TelemetryLog that read_telemetry returns) back and verifies the controller
issues the identical commands.  A physical backend would slot in behind the
same four operations:

  - read_all: every module's sensed pressure for the current tick, as one
    {module_id: kPa} mapping that the backend never mutates afterwards;
  - read_pressure: one module's sensed pressure and the current time;
  - set_valve: command one module's valve;
  - tick: advance one time step.

The controller owns the backend and serializes all calls; sampling is
pull-based, once per tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .plant import Plant, VALVE_MODES
from .telemetry import TelemetryLog


@dataclass(frozen=True)
class ValveCommand:
    module_id: int
    mode: str
    timestamp: float


class ReplayMismatchError(ValueError):
    """Controller command diverged from the recorded stream."""


class EndOfRecordingError(ValueError):
    """Replay queried past the last recorded sample."""


class SimulatedBackend:
    """HAL over the in-process plant.

    Sensor readings are the plant pressures plus optional zero-mean Gaussian
    noise, drawn once per module per tick in module order from a seeded
    generator, so a fixed seed reproduces the byte-identical sensed stream
    regardless of who reads what.
    """

    def __init__(self, plant: Plant):
        self.plant = plant
        self._ids = [m.id for m in plant.layout.modules]
        self._sigma = plant.params.noise_sigma
        self._rng = np.random.default_rng(plant.params.rng_seed)
        self._last_cmd_t = {i: -math.inf for i in self._ids}
        self._pending_events: list[tuple[int, str]] = []
        self._sensed = {}
        self._sample()

    def _sample(self) -> None:
        if self._sigma > 0.0:
            noise = self._rng.normal(0.0, self._sigma, len(self._ids)).tolist()
            self._sensed = {
                mid: self.plant.pressure(mid) + noise[k] for k, mid in enumerate(self._ids)
            }
        else:
            self._sensed = {mid: self.plant.pressure(mid) for mid in self._ids}

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
        return True

    def tick(self, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if abs(dt - self.plant.params.dt) > 1e-12:
            raise ValueError(
                f"simulated backend steps at fixed dt={self.plant.params.dt}, got {dt}"
            )
        self._pending_events.extend(self.plant.step())
        self._sample()
        return self.plant.time

    def drain_events(self) -> list[tuple[int, str]]:
        out = self._pending_events
        self._pending_events = []
        return out


class ReplayBackend:
    """HAL over a recorded telemetry stream.

    read_all and read_pressure return the recorded sensed pressures for the
    current tick; set_valve verifies the command matches the recording and
    raises ReplayMismatchError naming both modes if it does not.  tick
    advances to the next recorded instant and raises EndOfRecordingError
    past the end.

    Ticks are found once, from the time and module_id columns: module rows
    only (module_id 0 rows are station events), and a new tick whenever
    time exceeds every earlier module row's time.  A tick's pressures are
    gathered only when it is read.
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

    def tick(self, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if self._k + 1 >= self._n_ticks:
            self._k = self._n_ticks
            raise EndOfRecordingError("end of recording")
        self._k += 1
        return self.now

    def drain_events(self) -> list[tuple[int, str]]:
        return []
