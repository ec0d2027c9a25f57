"""Hardware abstraction between the controller and any plant.

Two backends implement the same contract: SimulatedBackend drives the
in-process plant model, ReplayBackend plays a recorded telemetry file (the
TelemetryLog that read_telemetry returns) back and verifies the controller
issues the identical commands.  A tick's sensed values have one layout, a
row of Rows: one kPa per module, in module id order.  Time advances in
blocks: one pair of operations reads and commits a run of ticks,

  - lookahead(n): the sensed rows of the current tick and of up to n - 1
    following ticks, as they will be if the valves stay as they are
    (fewer at the end of a recording, and none past a tick that plant
    events arrive with; a physical backend may return the current tick
    alone);
  - advance(j): commit j ticks, making tick j of the lookahead current, so
    that row j is what a lookahead now returns as row 0;

and two operations act on the current tick:

  - read_pressure: one module's sensed pressure and the current time;
  - set_valve: command one module's valve, which voids a lookahead.

tick (advance by one) is a thin form of advance, and dt is the fixed time
between ticks.  The controller owns the backend and serializes all calls.
Both backends inherit read_pressure, tick and every argument check from one
base class, so they accept and refuse the same calls: an unknown module or
mode, a command older than its module's last accepted one, a tick at
another dt, lookahead(n < 1) and advance(j < 0).

A recording replays only as a grid of ticks x modules: every tick holds one
row per module, in the first tick's order and at one time, and tick k is at
k * dt within the file's 6-decimal rounding.  ReplayBackend rejects any
other recording when it is built, naming the first bad tick, so a replay
takes its decisions on the ticks the live run took them on.  On the ticks
it commits, each module's recorded valve must be the mode last commanded,
so a command sent on another tick than the live one is a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .plant import HOLD, Plant, VALVE_MODES
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
    the backend has none; inflation is truth, or inflate(truth), when read.
    time is clock, or clock() when read: the simulated backend's rows sum
    the plant's clock only then (the trajectory keeps the sum), and len()
    and span() do not read it.
    """

    ids: tuple[int, ...]
    pressure: np.ndarray  # (rows, len(ids)) sensed kPa
    clock: np.ndarray | Callable[[], np.ndarray]  # (rows,) backend clock, s, or its maker
    truth: Optional[np.ndarray] = None  # (rows, len(ids)) mm, or true kPa with inflate
    object_z: Optional[np.ndarray] = None  # (rows,) mm
    inflate: Optional[Callable[[np.ndarray], np.ndarray]] = None  # kPa to mm

    def __len__(self) -> int:
        return len(self.pressure)

    @property
    def time(self) -> np.ndarray:  # (rows,) backend clock, s
        clock = self.clock
        return clock if isinstance(clock, np.ndarray) else clock()

    @cached_property
    def inflation(self) -> Optional[np.ndarray]:  # (rows, len(ids)) mm
        return self.truth if self.inflate is None else self.inflate(self.truth)

    def span(self, a: int, b: int) -> "Rows":
        """Rows a to b - 1."""
        truth = self.truth is not None
        return Rows(self.ids, self.pressure[a:b], lambda: self.time[a:b],
                    self.truth[a:b] if truth else None,
                    self.object_z[a:b] if truth else None, self.inflate)


def same_dt(a: float, b: float) -> bool:
    """Whether two tick lengths are one: equal to a relative 1e-9, at any scale."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


class ReplayMismatchError(ValueError):
    """Controller command diverged from the recorded stream."""


class EndOfRecordingError(ValueError):
    """Replay queried past the last recorded sample."""


class _Backend:
    """The contract both backends share, with every argument check it makes.

    A backend passes its module ids and dt here and implements now,
    drain_events and three hooks, called only with checked arguments:
    _rows(n) gives a lookahead's rows, _commit(j) commits j ticks and
    _command(cmd, col) acts on a command for the module in column col.
    """

    def __init__(self, ids: tuple[int, ...], dt: float):
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.dt = dt
        self._ids = ids
        self._cols = {mid: i for i, mid in enumerate(ids)}
        self._last_cmd_t: dict[int, float] = {}  # each module's last accepted timestamp

    def _col(self, module_id: int) -> int:
        if module_id not in self._cols:
            raise ValueError(f"no such endpoint: module {module_id}")
        return self._cols[module_id]

    def read_pressure(self, module_id: int) -> tuple[float, float]:
        col = self._col(module_id)
        return self.lookahead(1).pressure[0, col].item(), self.now

    def set_valve(self, cmd: ValveCommand) -> bool:
        col = self._col(cmd.module_id)
        if cmd.mode not in VALVE_MODES:
            raise ValueError(f"unknown valve mode {cmd.mode!r}")
        before = self._last_cmd_t.get(cmd.module_id, -math.inf)
        if cmd.timestamp < before:
            raise ValueError(f"command timestamps must be non-decreasing per module "
                             f"(module {cmd.module_id}: {cmd.timestamp} < {before})")
        self._command(cmd, col)
        self._last_cmd_t[cmd.module_id] = cmd.timestamp
        return True

    def lookahead(self, n: int) -> Rows:
        if n < 1:
            raise ValueError(f"lookahead needs n >= 1, got {n}")
        return self._rows(n)

    def advance(self, j: int) -> None:
        if j < 0:
            raise ValueError(f"advance needs j >= 0, got {j}")
        self._commit(j)

    def tick(self, dt: float) -> float:
        if not same_dt(dt, self.dt):
            raise ValueError(f"backend steps at fixed dt={self.dt}, got {dt}")
        self.advance(1)
        return self.now


class SimulatedBackend(_Backend):
    """HAL over the in-process plant.

    Sensor readings are the plant pressures plus optional zero-mean Gaussian
    noise, drawn once per module per tick in module order from a seeded
    generator, so a fixed seed reproduces the byte-identical sensed stream
    regardless of who reads what and in what blocks.  A lookahead draws the
    noise of its ticks ahead; what advance does not use stays buffered for
    the ticks it belongs to.
    """

    def __init__(self, plant: Plant):
        super().__init__(tuple(m.id for m in plant.layout.modules), plant.params.dt)
        self.plant = plant
        self._sigma = plant.params.noise_sigma
        self._rng = np.random.default_rng(plant.params.rng_seed)
        self._noise = np.empty((0, len(self._ids)))  # drawn noise; row 0 is the current tick's
        self._traj = None  # the last lookahead's trajectory, while it stays valid
        self._pending_events: list[tuple[int, str]] = []

    def _noise_rows(self, n: int) -> np.ndarray:
        """The noise of the current tick and the n - 1 after it, drawn as needed."""
        short = n - len(self._noise)
        if short > 0:
            draw = self._rng.normal(0.0, self._sigma, (short, len(self._ids)))
            self._noise = np.concatenate((self._noise, draw))
        return self._noise[:n]

    @property
    def now(self) -> float:
        return self.plant.time

    def _command(self, cmd: ValveCommand, col: int) -> None:
        self.plant.set_valve(cmd.module_id, cmd.mode)
        self._traj = None

    def _rows(self, n: int) -> Rows:
        self._traj = None  # let go of the stale block, so the plant can reuse it
        traj = self._traj = self.plant.trajectory(n - 1)
        sensed = traj.pressure + self._noise_rows(len(traj)) if self._sigma > 0.0 else traj.pressure
        z = traj.object_z if traj.object_z is not None else np.zeros(len(traj))
        return Rows(self._ids, sensed, lambda: traj.time, traj.pressure, z, self.plant.inflation)

    def _commit(self, j: int) -> None:
        while j > 0:
            traj = self._traj
            if traj is None or len(traj) < 2:
                traj = self.plant.trajectory(j)
            i = min(j, len(traj) - 1)
            self._pending_events.extend(self.plant.commit(traj, i))
            self._traj = None
            if self._sigma > 0.0:
                self._noise_rows(i)  # the committed ticks' noise stays drawn in order
                self._noise = self._noise[i:]
            j -= i

    def drain_events(self) -> list[tuple[int, str]]:
        out = self._pending_events
        self._pending_events = []
        return out


class ReplayBackend(_Backend):
    """HAL over a recorded telemetry stream, held as a (ticks x modules) grid.

    read_pressure and lookahead return the recorded sensed pressures.
    set_valve verifies the command matches the recording, and advance
    verifies that on each tick it commits every module's recorded valve is
    its last commanded mode (HOLD, the plant's initial mode, before any
    command); either raises ReplayMismatchError on a late, early, missing or
    wrong command.  advance and tick move to later recorded instants and
    raise EndOfRecordingError past the end.  The module rows (module_id 0
    rows are station events) become the grid once, here; the first tick
    ends where its first module id comes round again.

    It keeps three copies of the log's module rows: the pressure grid, the
    valve-code grid and each tick's time.  Building them holds one masked
    column at a time beside them: the module ids are checked and dropped
    before the time column is copied.
    """

    def __init__(self, log: TelemetryLog, dt: float):
        rows = log.module_id != 0
        mids = log.module_id[rows]
        if not mids.size:
            raise ValueError("recording contains no module samples")
        again = mids[1:] == mids[0]  # where the first module id comes round again
        m = int(again.argmax()) + 1 if again.any() else len(mids)
        super().__init__(tuple(mids[:m].tolist()), dt)
        _check_tick_ids(mids, m)
        del mids, again  # checked: the grids are built one masked column at a time
        self.mismatches = 0
        self._time = _tick_times(log.time_s[rows], m, dt)
        self._pressure = log.pressure_kPa[rows].reshape(-1, m)
        codes, table = log.codes("valve")
        self._valve = codes[rows].reshape(-1, m)  # recorded valve of each grid cell, as a code
        self._modes = list(table)  # valve modes by code; commanded modes join the recorded ones
        self._mode = np.full(m, self._code(HOLD))  # each module's last commanded mode
        self._pressure.flags.writeable = self._time.flags.writeable = False  # lookahead shares them
        self._k = 0

    def _code(self, mode: str) -> int:
        if mode not in self._modes:
            self._modes.append(mode)
        return self._modes.index(mode)

    def _current(self) -> int:
        if self._k >= len(self._time):
            raise EndOfRecordingError("end of recording")
        return self._k

    @property
    def now(self) -> float:
        return self._time[self._current()].item()

    def _command(self, cmd: ValveCommand, col: int) -> None:
        code, recorded = self._code(cmd.mode), self._valve[self._current(), col]
        if recorded != code:
            self.mismatches += 1
            raise ReplayMismatchError(
                f"command diverges from recording: module {cmd.module_id} "
                f"sent {cmd.mode}, recorded {self._modes[recorded]}"
            )
        self._mode[col] = code

    def _rows(self, n: int) -> Rows:
        k = self._current()
        ticks = slice(k, k + n)
        return Rows(self._ids, self._pressure[ticks], self._time[ticks])

    def _commit(self, j: int) -> None:
        k = self._k
        bad = self._valve[k:k + j] != self._mode
        if bad.any():
            i, col = np.argwhere(bad)[0].tolist()
            tick = k + i
            self.mismatches += 1
            raise ReplayMismatchError(
                f"recording diverges from the commands: tick {tick} module {self._ids[col]} "
                f"recorded {self._modes[self._valve[tick, col]]}, "
                f"last commanded {self._modes[self._mode[col]]}"
            )
        if k + j >= len(self._time):
            self._k = len(self._time)
            raise EndOfRecordingError("end of recording")
        self._k += j

    def drain_events(self) -> list[tuple[int, str]]:
        return []


# The recorded time of tick k is k * dt rounded to the file's 6 decimals; the
# slack covers the rounding of k * dt itself.
_TIME_TOLERANCE = 5e-7 + 1e-9


# Each check here and in _tick_times reduces its whole comparison with one
# .all(), cheaper than a reduction per tick, and looks for the first bad tick
# only when that fails.
def _check_tick_ids(mids: np.ndarray, m: int) -> None:
    """Check that a recording's module rows are ticks of the first tick's m module ids.

    Raises:
        ValueError: naming the first tick whose module ids repeat one or are
            not the first tick's, in order.
    """
    ids = mids[:m].tolist()
    if len(set(ids)) < m:
        raise ValueError(f"recording is not a tick grid: tick 0: module ids {ids} repeat a module")
    n = len(mids) // m
    same = mids[:n * m].reshape(n, m) == mids[:m]
    if n * m < len(mids) or not same.all():  # a bad tick, or a short last one
        bad = np.flatnonzero(~same.all(axis=1))
        k = int(bad[0]) if bad.size else n
        raise ValueError(f"recording is not a tick grid: tick {k}: module ids "
                         f"{mids[k * m:(k + 1) * m].tolist()} are not the first tick's {ids}")


def _tick_times(times: np.ndarray, m: int, dt: float) -> np.ndarray:
    """The time of each tick of a recording's module rows, m rows a tick,
    from rows that _check_tick_ids passed.

    Raises:
        ValueError: naming the first tick whose rows are not at one time, or
            whose time is not k * dt or is before the tick before it.
    """
    n = len(times) // m
    grid = times.reshape(n, m)
    together = grid == grid[:, :1]
    if not together.all():
        k = int(np.flatnonzero(~together.all(axis=1))[0])
        raise ValueError(f"recording is not a tick grid: tick {k}: rows at {grid[k].tolist()} s")
    t = grid[:, 0].copy()
    off = np.arange(n, dtype=np.float64)
    off *= dt
    np.subtract(t, off, out=off)  # each tick's time less k * dt, in one array
    on_time = np.abs(off, out=off) <= _TIME_TOLERANCE
    if not on_time.all():
        k = int(np.flatnonzero(~on_time)[0])
        raise ValueError(f"recording does not tick at dt={dt}: tick {k} is at {t[k]} s, "
                         f"not at {k * dt} s")
    # that slack lets a tick's time fall below the last one's when dt is under 1 us
    # (2 ns on a file's 6-decimal times); the controller needs time that never falls
    falls = t[1:] < t[:-1]
    if falls.any():
        k = int(np.flatnonzero(falls)[0]) + 1
        raise ValueError(f"recording does not tick at dt={dt}: tick {k} is at {t[k]} s, "
                         f"before tick {k - 1} at {t[k - 1]} s")
    return t
