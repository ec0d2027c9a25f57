"""Closed-loop station controller.

Feedback is pressure only, matching the hardware contract: phases gate on
inflated/deflated thresholds, contact is inferred from the pressure-rate
ratio against a per-module baseline, and object position is dead reckoned
from completed strokes.  Nothing here reads plant ground truth, so the same
controller runs identically against the simulated and replay backends.

The transport cycle's stages, their commands and their gates are one
table, CYCLE.  StationController steps through it a block of ticks at a
time, with probe scheduling, multi-level promotion and termination
handling, and run_station drives it against a backend.  The one blocking
helper, calibrate_baseline, measures a single ring's free-inflation rate
before a run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .geometry import require_finite
from .hal import ValveCommand, same_dt
from .plant import (
    COMPRESSION,
    DEFLATE,
    HOLD,
    INFLATE,
    LONGITUDINAL_STROKE_FRACTION,
    PlantParams,
    StationLayout,
    ObjectSpec,
    summed_clock,
)
from .telemetry import as_recorded, recorded_threshold

GRASP = "Grasp"
ADVANCE_RELEASE = "AdvanceRelease"
REGRASP_BOTTOM = "RegraspBottom"
RESET_TOP = "ResetTop"

# The transport cycle, stage by stage in order.  Entering (phase, stage)
# sends its commands, (triple position, mode) pairs, and the stage's gate
# opens once every (triple position, rises) pair holds; the cycle then moves
# to the next stage.  Triple positions 0, 1, 2 are the working unit's bottom,
# middle and top ring, and a rising ring must read at least the inflated
# gate and a falling one at most the deflated gate.  On a timeout, the first
# pair that does not hold names the stalled module (the last pair when all
# hold).
CYCLE = {
    (GRASP, 0): (((0, INFLATE), (2, INFLATE)), ((0, True), (2, True))),
    (ADVANCE_RELEASE, 0): (((0, DEFLATE),), ((0, False),)),
    (ADVANCE_RELEASE, 1): (((1, INFLATE),), ((1, True),)),
    (REGRASP_BOTTOM, 0): (((0, INFLATE),), ((0, True),)),
    (REGRASP_BOTTOM, 1): (((2, DEFLATE),), ((2, False),)),
    (RESET_TOP, 0): (((1, DEFLATE),), ((1, False),)),
    (RESET_TOP, 1): (((2, INFLATE),), ((2, True),)),
}
_NEXT = dict(zip(CYCLE, tuple(CYCLE)[1:]))  # the last stage completes the cycle

# Most ticks calibrate_baseline advances in one block, and run_station in
# one lookahead while its stage has no record (four times as many with one).
# It bounds the arrays, and the telemetry text that one record() call holds
# in memory.
BLOCK_TICKS = 1024


class ControlFaultError(RuntimeError):
    """calibrate_baseline timed out waiting for a pressure gate or its detection window."""


class CalibrationError(ValueError):
    """Baseline measurement rejected (residual object contact)."""


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of pressure-rate contact detection.

    The slope is regressed strictly after the uninformative before-contact
    interval, and samples at or beyond saturation_fraction * P_max are cut
    so a saturating chamber cannot flatten the measured rate.
    """

    window_start: float = 1.5  # s after inflation onset
    window_len: float = 1.0  # s
    threshold_ratio_theta: float = 1.5
    consecutive_required: int = 2
    min_window_samples: int = 8
    saturation_fraction: float = 0.98
    baseline_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        require_finite(self)
        if self.window_start < 0:
            raise ValueError(f"window_start must be >= 0, got {self.window_start}")
        if self.window_len <= 0:
            raise ValueError(f"window_len must be > 0, got {self.window_len}")
        if self.threshold_ratio_theta <= 1:
            raise ValueError(f"threshold_ratio_theta must be > 1, got {self.threshold_ratio_theta}")
        if self.consecutive_required < 1:
            raise ValueError("consecutive_required must be >= 1")
        if self.min_window_samples < 2:
            raise ValueError(f"min_window_samples must be >= 2, got {self.min_window_samples}")
        if not 0 < self.saturation_fraction <= 1:
            raise ValueError(
                f"saturation_fraction must be in (0, 1], got {self.saturation_fraction}"
            )


@dataclass(frozen=True)
class DetectionResult:
    module_id: int
    measured_rate: float
    baseline: float
    ratio: float
    contact: bool


@dataclass(frozen=True)
class ControlConfig:
    phase_timeout_s: float = 10.0
    inflated_fraction: float = 0.95
    deflated_threshold_kPa: float = 0.5
    max_cycles: int = 0  # 0 = no overall cycle budget
    max_cycles_per_level: int = 20  # promotion patience while a probe exists

    def __post_init__(self):
        require_finite(self)
        if self.phase_timeout_s <= 0:
            raise ValueError("phase_timeout_s must be > 0")
        if not 0 < self.inflated_fraction <= 1:
            raise ValueError("inflated_fraction must be in (0, 1]")
        if self.deflated_threshold_kPa < 0:
            raise ValueError("deflated_threshold_kPa must be >= 0")
        if self.max_cycles < 0:
            raise ValueError(f"max_cycles must be >= 0 (0 = no budget), got {self.max_cycles}")
        if self.max_cycles_per_level < 1:
            raise ValueError(
                f"max_cycles_per_level must be >= 1, got {self.max_cycles_per_level}"
            )


@dataclass(frozen=True)
class RunResult:
    outcome: str
    cycles: int
    detections: tuple
    faults: tuple
    final_z: float
    sim_time_s: float
    events: tuple  # (time_s, module_id, text), totally ordered

    @property
    def positive_detections(self) -> int:
        return sum(1 for d in self.detections if d.contact)


def _window_slope(trace: np.ndarray, config: DetectionConfig, p_max: float) -> float:
    """Least-squares pressure slope over the detection window, by _fit_slope.

    trace is a (samples, 2) array of (s since onset, kPa) rows in time
    order.  Deterministic for a given trace, on every machine.  Raises
    ValueError when the trace does not cover the window, saturation leaves
    too few samples, or _fit_slope refuses the samples left.
    """
    w0 = config.window_start
    w1 = w0 + config.window_len
    if not trace.size:
        raise ValueError("insufficient trace: empty")
    if trace[-1, 0] < w1:
        raise ValueError(f"insufficient trace: window [{w0}, {w1}] s not covered "
                         f"(trace ends at {trace[-1, 0]:.3f} s)")
    cutoff = config.saturation_fraction * p_max
    times = trace[:, 0]
    window = trace[times.searchsorted(w0):times.searchsorted(w1, "right")]
    saturated = np.flatnonzero(window[:, 1] >= cutoff)  # the first saturated sample ends it
    n = int(saturated[0]) if saturated.size else len(window)
    if n < config.min_window_samples:
        raise ValueError(
            f"insufficient trace: only {n} usable samples in the window "
            f"(saturation cutoff {cutoff:.3f} kPa)"
        )
    return _fit_slope(window[:n])


def _fit_slope(samples: np.ndarray) -> float:
    """The least-squares slope of (s, kPa) rows in closed form:
    sum((t - t_mean) * (p - p_mean)) / sum((t - t_mean)**2).

    Element-wise products and numpy's pairwise sums only, with no BLAS or
    LAPACK call (np.polyfit, np.dot, @), whose kernel the CPU selects: the
    slope's bits depend on the samples alone.  Raises ValueError on a
    non-finite sample or samples that share one time.
    """
    if not np.isfinite(samples).all():
        raise ValueError("insufficient trace: a sample in the window is not finite")
    t, p = samples.T
    tc = t - t.mean()
    spread = np.sum(tc * tc)
    if not spread > 0:
        raise ValueError(f"insufficient trace: the window's {len(t)} samples share one time")
    return float(np.sum(tc * (p - p.mean())) / spread)


def detect_contact(module_id: int, trace: Sequence[tuple[float, float]] | np.ndarray,
                   config: DetectionConfig, p_max: float) -> DetectionResult:
    """Classify one probe inflation trace against the module's baseline.

    trace is (seconds since inflation onset, sensed kPa) pairs in time
    order, as a sequence or a (samples, 2) array: the window's ends are
    found by bisection.  Deterministic for a given trace, on every machine:
    the slope is a closed-form fit (_fit_slope) with no BLAS or LAPACK call.

    Raises:
        ValueError: no baseline for the module, a trace of another shape,
            or a window that is not covered or gives no slope.
    """
    baseline = config.baseline_rates.get(module_id)
    if baseline is None:
        raise ValueError(f"no baseline for module {module_id}")
    trace = np.asarray(trace, np.float64)
    if trace.size and (trace.ndim != 2 or trace.shape[1] != 2):
        raise ValueError(f"trace must be (samples, 2) pairs of (s, kPa), got shape {trace.shape}")
    rate = _window_slope(trace, config, p_max)
    ratio = rate / baseline
    return DetectionResult(module_id, rate, baseline, ratio, ratio >= config.threshold_ratio_theta)


# -- blocking calibration -----------------------------------------------------


def calibrate_baseline(backend, module_id: int, params: PlantParams,
                       detection: DetectionConfig,
                       control: Optional[ControlConfig] = None) -> float:
    """Measure one ring's free-inflation pressure slope (kPa/s).

    Vents the ring, inflates it through the detection window, regresses the
    slope, and vents back.  The caller must ensure no object sits in the
    ring's span; a slope above theta times the free rate is rejected as
    contaminated.  Ticks advance in blocks.  Time is the backend's clock,
    read once, with dt summed over each block's rows (summed_clock); a block
    of one row that advances a tick reads it again.  Each of the three waits
    raises ControlFaultError once the control's phase_timeout_s has passed.
    Only the inflation keeps its samples, the row that ends it left out.

    Raises:
        ValueError: a timeout or a window that breaks timeout_problems or window_problems.
    """
    ctl = control or ControlConfig()
    problems = timeout_problems(ctl, params.dt) + window_problems(detection, ctl, params.dt)
    if problems:
        raise ValueError(problems[0])
    lo = ctl.deflated_threshold_kPa
    w_end = detection.window_start + detection.window_len + params.dt
    waits = [(INFLATE, "inflating through the detection window"),
             (DEFLATE, "venting after calibration")]
    p, now = backend.read_pressure(module_id)
    if p > lo:
        waits.insert(0, (DEFLATE, "venting before calibration"))
    for mode, what in waits:
        backend.set_valve(ValveCommand(module_id, mode, now))
        t0 = now
        trace = []
        while True:
            rows = backend.lookahead(BLOCK_TICKS)
            p = rows.pressure[:, rows.ids.index(module_id)]
            t = summed_clock(now, backend.dt, len(rows) - 1)
            done = t - t0 > w_end if mode == INFLATE else p <= lo
            hits = np.flatnonzero(done | (t >= t0 + ctl.phase_timeout_s))
            j = int(hits[0]) if hits.size else max(len(rows) - 1, 1)
            if mode == INFLATE:
                trace.append(np.column_stack((t[:j] - t0, p[:j])))
            backend.advance(j)
            now = t[j].item() if j < len(t) else backend.now
            del rows, p  # free the block before the next lookahead
            if hits.size:
                break
        if not done[j]:
            raise ControlFaultError(f"timeout: module {module_id} stalled {what}")
        if mode == INFLATE:
            slope = _window_slope(np.concatenate(trace), detection, params.P_max)
    backend.set_valve(ValveCommand(module_id, HOLD, now))

    if slope > detection.threshold_ratio_theta * params.k_free:
        raise CalibrationError(
            f"calibration contaminated: module {module_id} slope {slope:.3f} kPa/s "
            f"exceeds {detection.threshold_ratio_theta} x free rate {params.k_free} kPa/s"
        )
    return slope


# -- tick-driven phase machine ------------------------------------------------


class StationController:
    """Phase machine for one station: scan() finds the tick to act on, update() acts.

    Design rules:
      - update() owns all transitions; at most one gate fires per tick.
      - Valve commands persist across phases; update() returns only the
        entries that changed this tick.
      - Decisions use sensed pressures and dead-reckoned object position
        only, so simulated and replayed runs take identical paths.

    The working unit at level k is modules (2k+1, 2k+2, 2k+3).  While a
    probe ring (2k+5) exists, it co-inflates during the initial grasp and
    during every top re-grasp; after consecutive_required positive
    detections the next (L, C) pair is promoted into the working unit at
    the end of the cycle.
    """

    def __init__(self, layout: StationLayout, object_spec: Optional[ObjectSpec],
                 initial_z: float, params: PlantParams, detection: DetectionConfig,
                 control: ControlConfig):
        problems = gate_problems(control, params.P_max)
        if problems:
            raise ValueError(problems[0])
        self.layout = layout
        self.params = params
        self.ctl = control
        self.obj = object_spec
        self.z_est = initial_z
        self.gate_hi = control.inflated_fraction * params.P_max
        self.gate_lo = control.deflated_threshold_kPa
        self._pass_hi = recorded_threshold(self.gate_hi, rises=True)
        self._pass_lo = recorded_threshold(self.gate_lo, rises=False)

        baselines = dict(detection.baseline_rates)
        for mod in layout.modules:
            if mod.kind == COMPRESSION:
                baselines.setdefault(mod.id, params.k_free)
        self.det = replace(detection, baseline_rates=baselines)

        self.valves = {mod.id: HOLD for mod in layout.modules}
        self._changed: dict[int, str] = {}
        self.level = 0
        self.phase = GRASP
        self.stage = 0
        self.phase_start = 0.0
        self.now = 0.0
        self.cycles = 0
        self.cycles_at_level = 0
        self.consec = 0
        self._promote = False
        self._initial = True
        self._entered = False
        self.detections: list[DetectionResult] = []
        self.faults: list[str] = []
        self._events: list[tuple[int, str]] = []
        self.done = False
        self.outcome: Optional[str] = None
        self._probe_id: Optional[int] = None
        self._probe_t0 = 0.0
        self._probe_trace: Optional[list] = None
        self._probe_done = True
        # the row of a block that scan() starts at, and what fires on the tick to act on
        self._first, self._rules = 0, None

    # -- small helpers -------------------------------------------------------

    def _triple(self) -> tuple[int, int, int]:
        b = 2 * self.level + 1
        return b, b + 1, b + 2

    def _probe_for_level(self) -> Optional[int]:
        pid = 2 * self.level + 5
        return pid if pid <= len(self.layout.modules) else None

    def _stroke(self) -> float:
        mid = 2 * self.level + 2
        return LONGITUDINAL_STROKE_FRACTION * self.layout.module(mid).height_h

    def _set(self, module_id: int, mode: str) -> None:
        if self.valves[module_id] != mode:
            self.valves[module_id] = mode
            self._changed[module_id] = mode

    def _emit(self, module_id: int, text: str) -> None:
        self._events.append((module_id, text))

    def phase_label(self) -> str:
        return f"L{self.level}:{self.phase}"

    def take_events(self) -> list[tuple[int, str]]:
        out = self._events
        self._events = []
        return out

    # -- lifecycle -----------------------------------------------------------

    def update(self, now: float, sensed: Optional[Sequence[float]] = None,
               plant_events: Sequence[tuple[int, str]] = (), final: bool = False) -> dict[int, str]:
        """Act on the tick at time now, returning the valves changed: on its
        plant events (a drop faults the run), then on its rules, as scan()
        found them or as they fire on sensed (kPa in layout order, module mid
        at sensed[mid - 1], as recorded); with neither, the next scan() starts
        on it.  A final tick with rules ends the run at the duration limit."""
        self._changed = {}
        if self.done:
            return {}
        self.now = now
        for mid, text in plant_events:
            self._emit(mid, text)
            if text.startswith("drop"):
                self._fault(f"object lost at phase {self.phase_label()}")
                return self._changed
        if not self._entered:
            self._entered = True
            for mid, rate in sorted(self.det.baseline_rates.items()):
                self._emit(mid, f"baseline module={mid} rate={rate:.6f}")
            self._enter(GRASP, 0)
        if sensed is not None:  # the tick is row 0 of a block of its own
            self._first = 0
            self._scan(np.array([sensed], np.float64), lambda r: now,
                       lambda a, b: np.full(b - a, now))
        rules, self._rules = self._rules, None
        self._first = int(rules is not None)
        if rules is not None:
            stalled, window_over, gate_open = rules
            if window_over:
                self._classify_probe()
            if stalled is not None:
                self._fault(f"timeout in phase {self.phase_label()} stage {self.stage}: "
                            f"module {stalled} stalled")
            elif gate_open:
                self._pass_gate()
            if final:
                self.finish("duration limit reached")
        return self._changed

    def finish(self, outcome: str) -> None:
        if not self.done:
            self.done = True
            self.outcome = outcome
            self._emit(0, f"outcome={outcome}")

    def _fault(self, text: str) -> None:
        self.faults.append(text)
        self._emit(0, f"fault {text}")
        self.done = True
        self.outcome = "fault"

    # -- probe ----------------------------------------------------------------

    def _probe_begin(self) -> None:
        pid = self._probe_for_level()
        if pid is None:
            return
        self._probe_id = pid
        self._probe_t0 = self.now
        self._probe_trace = []
        self._probe_done = False
        self._set(pid, INFLATE)

    def _classify_probe(self) -> None:
        """The probe window is over: classify the trace and vent the probe."""
        self._probe_done = True
        pid = self._probe_id
        try:
            trace = np.concatenate(self._probe_trace)
            trace[:, 1] = as_recorded(trace[:, 1])  # one call a probe, not one a block
            res = detect_contact(pid, trace, self.det, self.params.P_max)
        except ValueError:
            self._emit(pid, f"detection aborted module={pid} reason=insufficient-trace")
            self.consec = 0
            self._set(pid, DEFLATE)
            return
        self.detections.append(res)
        self._emit(pid, (
            f"detection module={pid} rate={res.measured_rate:.6f} "
            f"baseline={res.baseline:.6f} ratio={res.ratio:.6f} "
            f"contact={1 if res.contact else 0}"
        ))
        if res.contact:
            self.consec += 1
            if self.consec >= self.det.consecutive_required:
                self._promote = True
        else:
            self.consec = 0
        # measurement over; the promoted unit re-establishes grip in Grasp
        self._set(pid, DEFLATE)

    # -- phase machine --------------------------------------------------------

    def _enter(self, phase: str, stage: int) -> None:
        """Make (phase, stage) current and send its commands."""
        self.phase, self.stage = phase, stage
        if stage == 0:
            self.phase_start = self.now
        triple = self._triple()
        for pos, mode in CYCLE[phase, stage][0]:
            self._set(triple[pos], mode)
        if (phase, stage) == (RESET_TOP, 1) or (phase == GRASP and self._initial):
            self._probe_begin()

    def _gate(self) -> list[tuple[int, bool]]:
        """The current gate as (module_id, rises) pairs, read off CYCLE."""
        triple = self._triple()
        return [(triple[pos], rises) for pos, rises in CYCLE[self.phase, self.stage][1]]

    def _holds(self, pressure, rises: bool):
        """Whether a kPa, or each of an array, read as recorded passes a gate."""
        return pressure >= self._pass_hi if rises else pressure <= self._pass_lo

    def _pass_gate(self) -> None:
        """The gate is open: act on it and move to the next stage."""
        key = (self.phase, self.stage)
        if key == (GRASP, 0):
            self._emit(0, f"grasped level={self.level}")
            self._initial = False
            if self.obj is not None and not self._regrasp_feasible(self._triple()[0]):
                outcome = (
                    "undetectable object" if self._probe_for_level() is not None
                    else "transport limit reached"
                )
                self.finish(outcome)
                return
        elif key == (ADVANCE_RELEASE, 1):
            self.z_est += self._stroke()
        if key in _NEXT:
            self._enter(*_NEXT[key])
        else:
            self._cycle_complete()

    def _timed_out(self, t):
        """Whether the stage has timed out at a time s, or at each of an array."""
        return t - self.phase_start > self.ctl.phase_timeout_s

    def _window_over(self, t):
        """Whether the probe window is over at a time s, or at each of an array."""
        end = self.det.window_start + self.det.window_len
        return not self._probe_done and t - self._probe_t0 >= end

    def scan(self, k0: int, sensed: np.ndarray) -> int:
        """The row j of a block that update() acts on next: the first on which
        the stage times out, the probe window ends or the gate opens, else
        the last.  Row 0 is the current tick, tick k0, and sensed holds each
        row's kPa in layout order, as recorded, under unchanged valves.  Row
        r is at (k0 + r) * dt: an int below 2**53 converts exactly, so a
        Python float has the bits of np.arange(k0, k0 + n) * dt.  Time never
        falls, so a time rule fires in the block only if it fires on the last
        row; only then, or when the probe samples (its window has started by
        the last row), are the block's times computed.  The scan starts at
        row 1 once update() has acted on row 0's rules, else at row 0 (none
        left: returns 1), and samples the probe to j."""
        dt = self.params.dt
        return self._scan(sensed, lambda r: (k0 + r) * dt,
                          lambda a, b: np.arange(k0 + a, k0 + b) * dt)

    def _scan(self, sensed: np.ndarray, at, times) -> int:
        """scan() with row r at at(r), and rows a to b - 1 at times(a, b)."""
        first, n = self._first, len(sensed)
        if first == n:
            return 1
        kpa = sensed[first:]
        gate = self._gate()
        opens = reduce(operator.and_, (self._holds(kpa[:, mid - 1], rises) for mid, rises in gate))
        # time never falls, so a time rule that the last row fails fires on no row
        last = at(n - 1)
        rules = [rule for rule in (self._timed_out, self._window_over) if rule(last)]
        # the probe keeps only samples from window_start on, the first fitted
        samples = not self._probe_done and last - self._probe_t0 >= self.det.window_start
        t = times(first, n) if rules or samples else None
        fires = reduce(operator.or_, [rule(t) for rule in rules], opens)
        i = int(fires.argmax())
        if not fires[i]:
            i = n - 1 - first
        if samples:
            tau = t[:i + 1] - self._probe_t0
            k = int(tau.searchsorted(self.det.window_start))
            self._probe_trace.append(np.column_stack((tau[k:], kpa[k:i + 1, self._probe_id - 1])))
        ti = at(first + i)
        stalled = next((mid for mid, rises in gate if not self._holds(kpa[i, mid - 1], rises)),
                       gate[-1][0]) if self._timed_out(ti) else None
        self._rules = stalled, bool(self._window_over(ti)), bool(opens[i])
        return first + i

    def _regrasp_feasible(self, bottom_id: int) -> bool:
        """After one more stroke, can the bottom ring still reach the object?"""
        mod = self.layout.module(bottom_id)
        nz = self.z_est + self._stroke()
        return nz < mod.z_origin + mod.height_h and nz + self.obj.length_L_o > mod.z_origin

    def _cycle_complete(self) -> None:
        self.cycles += 1
        self.cycles_at_level += 1
        self._emit(0, f"cycle={self.cycles} complete level={self.level} z_est={self.z_est:.6f}")
        if self._promote:
            self._promote = False
            old_b, old_m, _ = self._triple()
            self._set(old_b, DEFLATE)
            self._set(old_m, DEFLATE)
            # the probe ring is the incoming top grasp; abandon any
            # in-flight measurement on it rather than venting it later
            self._probe_done = True
            self.level += 1
            self.cycles_at_level = 0
            self.consec = 0
            self._emit(0, f"promoted level={self.level}")
        if self.obj is not None and self.z_est + self.obj.length_L_o > self.layout.station_top:
            self.finish("object exited")
            return
        if self.ctl.max_cycles and self.cycles >= self.ctl.max_cycles:
            self.finish("cycle budget reached")
            return
        if (self._probe_for_level() is not None
                and self.cycles_at_level >= self.ctl.max_cycles_per_level):
            self._fault(
                f"object never detected at level {self.level} "
                f"after {self.cycles_at_level} cycles"
            )
            return
        self._enter(GRASP, 0)


def gate_problems(control: ControlConfig, P_max: float, grip: float = math.inf) -> list[str]:
    """The rule the pressure gates break, as a "control: ..." problem (empty = valid).

    The deflated gate must be below the inflated gate: otherwise a ring that
    reads the inflated gate passes the deflated one too, and a vent stage
    can end with the ring still full.  It must also be below grip, the
    pressure at which a ring reaches the object (plant.contact_pressure):
    a ring vented only to the gate would still hold the object.
    """
    gate = control.inflated_fraction * P_max
    low = control.deflated_threshold_kPa
    if low >= gate:
        return [f"control: deflated_threshold_kPa must be below the inflated gate "
                f"inflated_fraction * P_max = {gate} kPa, got {low}"]
    if low >= grip:
        return [f"control: deflated_threshold_kPa must be below the contact pressure "
                f"{grip} kPa at which a ring reaches the object, got {low}"]
    return []


def window_problems(detection: DetectionConfig, control: ControlConfig, dt: float) -> list[str]:
    """The rules the detection window breaks, as "detection: ..." problems (empty = valid).

    calibrate_baseline inflates a ring until window_start + window_len + dt
    has passed and gives up at phase_timeout_s, so the window must end
    before the timeout.  It and a probe hold the window's (s, kPa) samples,
    16 bytes a tick, so the window spans at most 2**22 ticks (64 MiB).  The
    window holds at most floor(window_len / dt) + 1 samples, so
    min_window_samples can ask no more.
    """
    end = detection.window_start + detection.window_len + dt
    problems = _ticks_problems("detection: window_start + window_len + dt", end, dt, 22)
    if end >= control.phase_timeout_s:
        problems.insert(0, f"detection: window_start + window_len + dt must be below "
                           f"phase_timeout_s = {control.phase_timeout_s} s, got {end}")
    ticks = detection.window_len / dt
    if detection.min_window_samples - 1 > ticks:  # an int and a float compare exactly
        problems.append(f"detection: min_window_samples must be at most floor(window_len / dt)"
                        f" + 1 = {math.floor(ticks) + 1}, got {detection.min_window_samples}")
    return problems


def timeout_problems(control: ControlConfig, dt: float) -> list[str]:
    """The rule phase_timeout_s breaks, as a "control: ..." problem (empty = valid):
    each wait of calibrate_baseline ends by it, so it has a run's tick bound."""
    return _ticks_problems("control: phase_timeout_s", control.phase_timeout_s, dt)


def _ticks_problems(name: str, seconds: float, dt: float, log2_max: int = 53) -> list[str]:
    """The problem of a span of seconds over 2**log2_max ticks of dt (empty = valid)."""
    # tick k is at k * dt: every k up to 2**53 is an exact double, so each
    # tick's time is rounded once
    ticks = seconds / dt
    if ticks <= 2**log2_max:
        return []
    count = "a finite number of" if ticks == math.inf else f"at most 2**{log2_max}"
    return [f"{name} must be {count} ticks (dt = {dt} s), got {seconds}"]


def duration_problems(duration_s: float, dt: Optional[float]) -> list[str]:
    """The rule a run duration breaks, as a "run: ..." problem (empty = valid).

    A run of duration_s takes round(duration_s / dt) ticks, at least 1 and
    at most 2**53.  dt is None where the plant section is invalid (a
    problem of its own), and then the tick count is not checked.
    """
    if not math.isfinite(duration_s):
        return [f"run: duration_s must be finite, got {duration_s}"]
    if duration_s <= 0:
        return [f"run: duration_s must be > 0, got {duration_s}"]
    if dt is None:
        return []
    if not duration_s / dt > 0.5:  # round(0.5) is 0
        return [f"run: duration_s must be over half a tick (dt = {dt} s), got {duration_s}"]
    return _ticks_problems("run: duration_s", duration_s, dt)


def run_station(backend, layout: StationLayout, object_spec: Optional[ObjectSpec],
                initial_z: float, params: PlantParams, detection: DetectionConfig,
                control: ControlConfig, duration_s: float, recorder=None) -> RunResult:
    """Drive the phase machine against a backend for at most duration_s.

    Terminates early when the object's top clears the station, transport
    can no longer re-grasp, a cycle budget runs out, or a fault occurs.
    Returns the totally ordered event log and final object position (plant
    ground truth when the backend exposes it, dead reckoning otherwise).

    Tick k is at k * dt.  After each update() the backend looks ahead, never
    past the duration limit: by the ticks the current (phase, stage) took
    when it last ran, less those it has run, plus 32, at most
    4 * BLOCK_TICKS; BLOCK_TICKS while the stage has no record or has run
    past it.  scan(k, ...) finds row j, the first that the controller acts
    on, the recorder gets the rows before it, and their times, in calls of
    at most BLOCK_TICKS ticks, and the backend advances j rows; update()
    then acts on the new tick, plant events first.  No time is computed
    beyond those: not the backend's clock, nor the times of its rows.  The
    backend must step at dt = params.dt (to a relative 1e-9), and its rows
    must hold the layout's modules in order.

    The controller decides on each sensed kPa as recorded, the double its
    6-decimal text reads back as: gates through recorded_threshold, the
    probe trace through as_recorded when it is classified.  A replay reads
    those doubles from the file, so it takes the live run's decisions by
    construction.

    Raises:
        ValueError: a duration that breaks the rule of duration_problems,
            gates that break the rule of gate_problems (with the plant's
            grip, when the backend has a plant), a backend at another dt, or
            backend rows that are not the layout's.
    """
    plant = getattr(backend, "plant", None)
    problems = duration_problems(duration_s, params.dt)
    if plant is not None:
        problems += gate_problems(control, params.P_max, plant.grip)
    if problems:
        raise ValueError(problems[0])
    controller = StationController(layout, object_spec, initial_z, params, detection, control)
    dt = params.dt
    n_steps = int(round(duration_s / dt))
    if not same_dt(backend.dt, dt):
        raise ValueError(f"backend steps at fixed dt={backend.dt}, got {dt}")
    ids = tuple(mod.id for mod in layout.modules)
    if (got := backend.lookahead(1).ids) != ids:
        missing = sorted(set(ids) - set(got))
        raise ValueError(f"no such endpoint: module {missing[0]}" if missing else
                         f"backend modules {got} are not the layout's {ids}")
    events_log: list[tuple[float, int, str]] = []
    plant_events: list[tuple[int, str]] = []
    took: dict[tuple[str, int], int] = {}  # ticks each (phase, stage) took when it last ran
    stage, start = (controller.phase, controller.stage), 0
    k = 0
    while True:
        now = k * dt
        changed = controller.update(now, plant_events=plant_events, final=k == n_steps)
        if (controller.phase, controller.stage) != stage:
            took[stage], stage, start = k - start, (controller.phase, controller.stage), k
        for mid in sorted(changed):
            backend.set_valve(ValveCommand(mid, changed[mid], now))
        left = took.get(stage, 0) - (k - start)
        n = min(left + 32, 4 * BLOCK_TICKS) if left > 0 else BLOCK_TICKS
        rows = backend.lookahead(1 if controller.done else min(n, n_steps - k + 1))
        j = 1 if controller.done else controller.scan(k, rows.pressure)
        tick_events = controller.take_events() if j else []  # on j = 0, kept for its row
        events_log += [(now, mid, text) for mid, text in tick_events]
        if recorder is not None:
            times = np.arange(k, k + j) * dt
            for a in range(0, j, BLOCK_TICKS):
                b = min(a + BLOCK_TICKS, j)
                recorder.record(times[a:b], rows.span(a, b), controller.valves,
                                controller.phase_label(), layout, [] if a else tick_events)
        del rows  # done with the block: free it before the next lookahead
        if controller.done:
            break
        backend.advance(j)
        plant_events = backend.drain_events()
        k += j

    if plant is not None and plant.object is not None:
        final_z = plant.object.z
    else:
        final_z = controller.z_est
    return RunResult(
        outcome=controller.outcome or "duration limit reached",
        cycles=controller.cycles,
        detections=tuple(controller.detections),
        faults=tuple(controller.faults),
        final_z=final_z,
        sim_time_s=now,
        events=tuple(events_log),
    )
