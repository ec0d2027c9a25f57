"""Controller: contact detection, gated phases, probe lifecycle, full runs."""

import copy
import math
from dataclasses import replace
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peristation import (
    DEFLATE,
    HOLD,
    INFLATE,
    CalibrationError,
    ControlConfig,
    ControlFaultError,
    DetectionConfig,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    ReplayBackend,
    ReplayMismatchError,
    RingGeometry,
    SimulatedBackend,
    StationController,
    SurrogateMaterial,
    TelemetryWriter,
    ValveCommand,
    build_station,
    calibrate_baseline,
    calibrate_kappa,
    detect_contact,
    read_telemetry,
    run_station,
)
from peristation import control as control_module, plant as plant_module
from peristation.config import load_config
from peristation.control import ADVANCE_RELEASE, BLOCK_TICKS, CYCLE, REGRASP_BOTTOM
from peristation.plant import summed_clock
from peristation.telemetry import as_recorded
from tests.conftest import NOMINAL, Row, log_of, read_rows

DT = 1e-3


def linear_trace(rate, intercept=0.0, until=2.6, clamp=None):
    out = []
    k = 0
    while k * DT <= until:
        p = intercept + rate * k * DT
        if clamp is not None and p > clamp:
            p = clamp
        out.append((k * DT, p))
        k += 1
    return out


def probe_trace(controller):
    """A controller's probe trace as one (samples, 2) array, empty for none."""
    return np.concatenate([np.empty((0, 2)), *controller._probe_trace])


def decision(controller, now=None, sensed=None):
    """A controller's state, after it updates at now when now is given,
    with the valves it changed and the events it emitted."""
    changed = {} if now is None else controller.update(now, sensed)
    return (changed, controller.take_events(), controller.phase, controller.stage,
            controller.level, controller.done, dict(controller.valves))


def sim_backend(layout, material, params, ror=0.7, length=75.0, z=0.0, with_object=True):
    obj = ObjectState(ObjectSpec(ror * 25.0, length), z) if with_object else None
    return SimulatedBackend(Plant(layout, obj, params, material))


class SensedTrace(SimulatedBackend):
    """A simulated backend that keeps each tick's sensed kPa, unrounded, in
    pressure (ticks x modules): the last lookahead over a tick, made after
    every command that acts on it, holds its sensed values."""

    def __init__(self, plant):
        super().__init__(plant)
        self.pressure = np.empty((0, len(plant.layout.modules)))

    def lookahead(self, n):
        rows = super().lookahead(n)
        first = round(self.now / self.dt)
        if len(self.pressure) < first + n:
            self.pressure = np.resize(self.pressure, (2 * (first + n), self.pressure.shape[1]))
        self.pressure[first:first + n] = rows.pressure
        return rows


class CommandDropper:
    """Backend wrapper that silently discards one module's Inflate commands."""

    def __init__(self, inner, victim):
        self.inner = inner
        self.victim = victim
        self.plant = inner.plant

    @property
    def dt(self):
        return self.inner.dt

    @property
    def now(self):
        return self.inner.now

    def read_pressure(self, module_id):
        return self.inner.read_pressure(module_id)

    def set_valve(self, cmd):
        if cmd.module_id == self.victim and cmd.mode == INFLATE:
            return True
        return self.inner.set_valve(cmd)

    def lookahead(self, n):
        return self.inner.lookahead(n)

    def advance(self, j):
        return self.inner.advance(j)

    def tick(self, dt):
        return self.inner.tick(dt)

    def drain_events(self):
        return self.inner.drain_events()


class TickRecorder:
    """Recorder that keeps each tick's time, sensed pressures, valves and event texts."""

    def __init__(self):
        self.rows = []

    def record(self, now, rows, valves, phase, layout, events):
        texts = [text for _, text in events]
        for i, t in enumerate(now):
            sensed = dict(zip(rows.ids, rows.pressure[i].tolist()))
            self.rows.append((t, sensed, dict(valves), texts if i == 0 else []))


class CountingBackend(SimulatedBackend):
    """A simulated backend that counts its lookaheads, the rows they return
    and the rows it advances."""

    def __init__(self, plant):
        super().__init__(plant)
        self.lookaheads = self.rows = self.advanced = 0

    def lookahead(self, n):
        rows = super().lookahead(n)
        self.lookaheads += 1
        self.rows += len(rows)
        return rows

    def advance(self, j):
        super().advance(j)
        self.advanced += j


class OneRowBackend:
    """Reference backend: a lookahead of the current tick alone, so that
    run_station sends every tick through update() and the recorder."""

    def __init__(self, inner):
        self.inner = inner

    def lookahead(self, n):
        return self.inner.lookahead(1)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window_start=-0.1),
            dict(window_len=0.0),
            dict(threshold_ratio_theta=1.0),
            dict(consecutive_required=0),
            dict(window_len=math.inf),
            dict(window_start=math.inf),
            dict(window_start=math.nan),
            dict(min_window_samples=1),
            dict(saturation_fraction=1.5),
            dict(saturation_fraction=0.0),
        ],
    )
    def test_detection_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DetectionConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(phase_timeout_s=0.0),
            dict(inflated_fraction=0.0),
            dict(inflated_fraction=1.2),
            dict(deflated_threshold_kPa=-1.0),
            dict(phase_timeout_s=math.inf),
            dict(deflated_threshold_kPa=math.inf),
            dict(max_cycles=-3),
            dict(max_cycles_per_level=0),
        ],
    )
    def test_control_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControlConfig(**kwargs)


class TestDetectContact:
    def config(self, baseline=4.33):
        return DetectionConfig(baseline_rates={5: baseline})

    def test_free_rate_trace_is_negative(self):
        res = detect_contact(5, linear_trace(4.33), self.config(), 15.0)
        assert res.measured_rate == pytest.approx(4.33, rel=1e-9)
        assert res.ratio == pytest.approx(1.0, rel=1e-9)
        assert not res.contact

    def test_loaded_rate_trace_is_positive(self):
        res = detect_contact(5, linear_trace(8.48, intercept=1.0), self.config(), 15.0)
        assert res.ratio == pytest.approx(8.48 / 4.33, rel=1e-9)
        assert res.contact

    @settings(max_examples=40)
    @given(
        rate=st.floats(0.5, 5.0),
        intercept=st.floats(0.0, 3.0),
        baseline=st.floats(1.0, 6.0),
    )
    def test_slope_recovery_on_linear_traces(self, rate, intercept, baseline):
        config = DetectionConfig(baseline_rates={1: baseline})
        res = detect_contact(1, linear_trace(rate, intercept), config, 15.0)
        assert res.measured_rate == pytest.approx(rate, rel=1e-6)
        assert res.contact == (res.ratio >= config.threshold_ratio_theta)

    def test_missing_baseline_named(self):
        with pytest.raises(ValueError, match="no baseline for module 9"):
            detect_contact(9, linear_trace(4.33), self.config(), 15.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="insufficient trace"):
            detect_contact(5, [], self.config(), 15.0)

    def test_trace_of_another_shape_rejected(self):
        """(t, kPa, x) triples, or their flattened values, are not read as pairs."""
        triples = [(k * DT, 4.33 * k * DT, 99.0) for k in range(2700)]
        with pytest.raises(ValueError, match=r"^trace must be \(samples, 2\) .* got shape "
                                             r"\(2700, 3\)$"):
            detect_contact(5, triples, self.config(), 15.0)
        with pytest.raises(ValueError, match=r"got shape \(8100,\)$"):
            detect_contact(5, np.ravel(triples), self.config(), 15.0)

    def test_uncovered_window_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            detect_contact(5, linear_trace(4.33, until=2.0), self.config(), 15.0)

    def test_saturation_cut_preserves_the_slope(self):
        # clamp bites mid-window; the trailing plateau must not flatten the fit
        trace = linear_trace(4.33, intercept=8.0, clamp=15.0)
        res = detect_contact(5, trace, self.config(), 15.0)
        assert res.measured_rate == pytest.approx(4.33, rel=1e-6)

    def test_fully_saturated_window_rejected(self):
        trace = [(k * DT, 15.0) for k in range(2700)]
        with pytest.raises(ValueError, match="usable samples"):
            detect_contact(5, trace, self.config(), 15.0)

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(st.sampled_from([0.013, 0.25, 0.5]), min_size=2, max_size=120),
        pressures=st.lists(st.one_of(st.floats(0.0, 15.0), st.just(0.98 * 15.0)),
                           min_size=120, max_size=120),
        edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        on_samples=st.booleans(),
    )
    def test_window_takes_the_samples_of_a_full_scan(self, steps, pressures, edges, on_samples):
        """Bisection picks the samples that scanning the whole time-ordered
        trace picks, so the slope keeps its bits, given the pairs as a list
        or as an array."""
        tau, trace = 0.0, []
        for step, p in zip(steps, pressures):
            tau += step
            trace.append((tau, p))
        w0 = edges[0] * tau
        w1 = w0 + edges[1] * (tau - w0)
        if on_samples:  # edges on sample times: 0.25 s steps sum exactly
            w0, w1 = (trace[int(e * (len(trace) - 1))][0] for e in sorted(edges))
        config = DetectionConfig(window_start=w0, window_len=max(w1 - w0, 1e-9),
                                 min_window_samples=2, baseline_rates={1: 4.33})
        w0, w1 = config.window_start, config.window_start + config.window_len
        samples = []  # the samples a scan of the whole trace keeps
        for t, p in trace:
            if t < w0:
                continue
            if t > w1 or p >= config.saturation_fraction * 15.0:
                break
            samples.append((t, p))

        def slope(given):
            try:
                return detect_contact(1, given, config, 15.0).measured_rate.hex()
            except ValueError:
                return None

        got = slope(trace)
        assert slope(np.array(trace)) == got
        if got is None:
            assert trace[-1][0] < w1 or len(samples) < 2
            return
        ts, ps = np.array([t for t, _ in samples]), np.array([p for _, p in samples])
        assert got == float(np.polyfit(ts, ps, 1)[0]).hex()


class TestBlockingSchedules:
    """The grasp and transport-cycle schedules, run by the phase machine."""

    def one_cycle(self, backend, layout, params, recorder=None):
        return run_station(backend, layout, backend.plant.object.spec, 0.0, params,
                           DetectionConfig(), ControlConfig(max_cycles=1), 40.0,
                           recorder=recorder)

    def test_grasp_inflates_both_rings(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params)
        rec = TickRecorder()
        self.one_cycle(backend, three_module_layout, params, rec)
        k = next(k for k, row in enumerate(rec.rows) if "grasped level=0" in row[3])
        gate = 0.95 * params.P_max
        sensed, valves = rec.rows[k][1], rec.rows[k][2]
        assert sensed[1] >= gate and sensed[3] >= gate
        assert min(rec.rows[k - 1][1][1], rec.rows[k - 1][1][3]) < gate  # first tick past it
        assert valves[2] == HOLD

    def test_grasp_timeout_names_the_stalled_module(self, three_module_layout, material, params):
        backend = CommandDropper(sim_backend(three_module_layout, material, params), 1)
        res = self.one_cycle(backend, three_module_layout, params)
        assert res.outcome == "fault"
        assert res.faults == ("timeout in phase L0:Grasp stage 0: module 1 stalled",)

    def test_transport_cycle_moves_one_stroke(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params)
        res = self.one_cycle(backend, three_module_layout, params)
        assert [text for _, mid, text in res.events if mid == 0] == [
            "grasped level=0",
            "cycle=1 complete level=0 z_est=6.000000",
            "outcome=object exited",  # 75 mm long, it already overhangs the 60 mm stack
        ]
        assert backend.plant.object.z == res.final_z == 6.0
        assert res.faults == ()


class TestCalibrateBaseline:
    def test_measures_the_free_rate(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params, with_object=False)
        rate = calibrate_baseline(backend, 1, params, DetectionConfig())
        assert rate == pytest.approx(4.33, rel=1e-9)

    def test_vents_back_and_holds(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params, with_object=False)
        calibrate_baseline(backend, 1, params, DetectionConfig())
        traj = backend.plant.trajectory(1)
        assert 0.0 < traj.pressure[0, 0] <= 0.5
        assert traj.pressure[1, 0] == traj.pressure[0, 0]  # held

    def test_pre_inflated_ring_vents_first(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params, with_object=False)
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        for _ in range(2000):
            backend.tick(DT)
        rate = calibrate_baseline(backend, 1, params, DetectionConfig())
        assert rate == pytest.approx(4.33, rel=1e-9)

    def test_object_in_span_contaminates(self, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params)  # object fills ring 1
        with pytest.raises(CalibrationError, match="contaminated"):
            calibrate_baseline(backend, 1, params, DetectionConfig())

    def test_slow_vent_times_out(self, three_module_layout, material):
        """At 1 kPa/s the ring cannot vent from about 10.8 kPa within 5 s."""
        slow = PlantParams(k_vent=1.0)
        backend = sim_backend(three_module_layout, material, slow, with_object=False)
        with pytest.raises(ControlFaultError,
                           match="^timeout: module 1 stalled venting after calibration$"):
            calibrate_baseline(backend, 1, slow, DetectionConfig(),
                               ControlConfig(phase_timeout_s=5.0))
        assert backend.now == pytest.approx(2.501 + 5.0, abs=2e-3)

    def test_vents_hold_no_samples(self, three_module_layout, material):
        """Only the window's samples are kept: a 0.5 s window at dt = 1e-5 is
        50,000 of them (0.8 MB), and the vent after it waits 1e6 ticks (16 MB
        as (time, kPa) pairs) before it times out."""
        slow = PlantParams(k_vent=0.01, dt=1e-5)
        backend = sim_backend(three_module_layout, material, slow, with_object=False)
        tracemalloc.start()
        try:
            with pytest.raises(ControlFaultError, match="venting after calibration$"):
                calibrate_baseline(backend, 1, slow, DetectionConfig(window_start=0.0,
                                                                     window_len=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backend.now == pytest.approx(0.5 + 10.0, abs=1e-4)
        assert peak < 8e6  # half the vent's pairs

    def test_window_past_the_timeout_is_refused(self, three_module_layout, material, params):
        """The window would end at 21.5 s, after the 10 s phase timeout: refused
        before the ring moves, with the rule's text."""
        backend = sim_backend(three_module_layout, material, params, with_object=False)
        with pytest.raises(ValueError, match=r"^detection: window_start \+ window_len \+ dt "
                                             r"must be below phase_timeout_s = 10.0 s, "
                                             r"got 21.501$"):
            calibrate_baseline(backend, 1, params, DetectionConfig(window_len=20.0))
        assert backend.now == 0.0


class TestCalibrationTimeline:
    """Calibration's commands, slopes and clock, pinned bit for bit on the
    nominal config without an object: each command's (module, mode, tick),
    each slope's float.hex() and the final backend clock."""

    def calibrate(self, sigma, rings, pre_inflate=0):
        cfg = load_config()
        params = replace(cfg.params, noise_sigma=sigma, rng_seed=0)
        backend = SimulatedBackend(Plant(cfg.layout, None, params, cfg.material))
        if pre_inflate:
            backend.set_valve(ValveCommand(rings[0], INFLATE, 0.0))
            backend.advance(pre_inflate)
        sent = []
        send = backend.set_valve

        def spy(cmd):
            sent.append((cmd.module_id, cmd.mode, round(cmd.timestamp / params.dt)))
            return send(cmd)

        backend.set_valve = spy
        slopes = [calibrate_baseline(backend, m, params, cfg.detection, cfg.control).hex()
                  for m in rings]
        return sent, slopes, backend.now.hex()

    @staticmethod
    def commands(ticks):
        return [(m, mode, k) for m, ring_ticks in zip((1, 3, 5), ticks)
                for mode, k in zip((INFLATE, DEFLATE, HOLD), ring_ticks)]

    def test_noisy_rings(self):
        assert self.calibrate(0.05, (1, 3, 5)) == (
            self.commands(((0, 2502, 3361), (3361, 5862, 6725), (6725, 9227, 10087))),
            ["0x1.1569fd1647daep+2", "0x1.15aae9e77626bp+2", "0x1.14c488ccffa27p+2"],
            "0x1.42c8b439580b1p+3",
        )

    def test_noiseless_rings(self):
        assert self.calibrate(0.0, (1, 3, 5)) == (
            self.commands(((0, 2502, 3364), (3364, 5865, 6726), (6726, 9228, 10090))),
            ["0x1.151eb851eb94ep+2", "0x1.151eb851eb0ddp+2", "0x1.151eb851ec1c5p+2"],
            "0x1.42e147ae14758p+3",
        )

    def test_inflated_ring_vents_first(self):
        """Ring 1 inflated for 2,000 ticks reads about 8.7 kPa, above the 0.5 kPa gate."""
        assert self.calibrate(0.05, (1,), pre_inflate=2000) == (
            [(1, DEFLATE, 2000), (1, INFLATE, 2665), (1, DEFLATE, 5166), (1, HOLD, 6079)],
            ["0x1.15728d447477cp+2"],
            "0x1.850e560418ad2p+2",
        )


class TestOneRowCalibration:
    """The HAL lets a backend return the current tick alone: calibration on
    one sends the same commands at the same times, fits the same slopes and
    leaves the same clock as on whole blocks, bit for bit."""

    @staticmethod
    def calibrate(sigma, wrap):
        cfg = load_config()
        params = replace(cfg.params, noise_sigma=sigma, rng_seed=0)
        inner = SimulatedBackend(Plant(cfg.layout, None, params, cfg.material))
        sent = []
        send = inner.set_valve

        def spy(cmd):
            sent.append((cmd.module_id, cmd.mode, cmd.timestamp.hex()))
            return send(cmd)

        inner.set_valve = spy
        backend = wrap(inner)
        slopes = [calibrate_baseline(backend, m, params, cfg.detection, cfg.control).hex()
                  for m in (1, 3, 5)]
        return sent, slopes, backend.now.hex()

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_one_row_blocks_match_whole_blocks(self, sigma):
        blocks = self.calibrate(sigma, lambda b: b)
        assert len(blocks[0]) == 9
        assert self.calibrate(sigma, OneRowBackend) == blocks


class TestStationController:
    def controller(self, layout, detection=None, control=None, obj=ObjectSpec(17.5, 75.0)):
        return StationController(
            layout, obj, 0.0, PlantParams(), detection or DetectionConfig(),
            control or ControlConfig(),
        )

    def zeros(self, layout):
        return [0.0] * len(layout.modules)

    def test_baselines_default_to_free_rate(self, five_module_layout):
        c = self.controller(five_module_layout)
        assert c.det.baseline_rates == {1: 4.33, 3: 4.33, 5: 4.33}

    def test_explicit_baselines_survive(self, five_module_layout):
        det = DetectionConfig(baseline_rates={5: 4.21})
        c = self.controller(five_module_layout, detection=det)
        assert c.det.baseline_rates == {1: 4.33, 3: 4.33, 5: 4.21}

    def test_first_update_grasps_and_probes(self, five_module_layout):
        c = self.controller(five_module_layout)
        changed = c.update(0.0, self.zeros(five_module_layout))
        assert changed == {1: INFLATE, 3: INFLATE, 5: INFLATE}
        texts = [text for _, text in c.take_events()]
        assert texts == [
            "baseline module=1 rate=4.330000",
            "baseline module=3 rate=4.330000",
            "baseline module=5 rate=4.330000",
        ]
        assert c.phase_label() == "L0:Grasp"
        assert c.take_events() == []  # drained

    def test_unchanged_valves_not_reemitted(self, five_module_layout):
        c = self.controller(five_module_layout)
        c.update(0.0, self.zeros(five_module_layout))
        assert c.update(DT, self.zeros(five_module_layout)) == {}

    def test_drop_event_faults_the_run(self, five_module_layout):
        c = self.controller(five_module_layout)
        c.update(0.0, self.zeros(five_module_layout))
        c.take_events()
        changed = c.update(DT, self.zeros(five_module_layout), [(0, "drop to_z=0.000000")])
        assert changed == {}
        assert c.done and c.outcome == "fault"
        assert c.faults == ["object lost at phase L0:Grasp"]
        texts = [text for _, text in c.take_events()]
        assert "fault object lost at phase L0:Grasp" in texts

    def test_done_controller_is_inert(self, five_module_layout):
        c = self.controller(five_module_layout)
        c.update(0.0, self.zeros(five_module_layout))
        c.finish("cycle budget reached")
        assert c.update(DT, self.zeros(five_module_layout)) == {}
        assert c.outcome == "cycle budget reached"

    def test_saturated_probe_trace_aborts_detection(self, five_module_layout):
        c = self.controller(five_module_layout)
        texts = []
        sensed = [15.0] * len(five_module_layout.modules)
        for k in range(2502):
            if c.done:
                break
            c.update(k * DT, sensed)
            texts += [text for _, text in c.take_events()]
        assert "detection aborted module=5 reason=insufficient-trace" in texts

    @settings(max_examples=100, deadline=None)
    # with k0 = 20000 and 30 rows, the timeout fires from row 10 (9990), on the
    # last row only (9972) or just after the block (9971); the probe window likewise
    @given(gate=st.sampled_from(sorted(CYCLE)),
           timeout_back=st.sampled_from([0, 9971, 9972, 9990, 10000]),
           probe_back=st.sampled_from([None, 0, 2470, 2471, 2490, 2500]),
           spikes=st.lists(st.tuples(st.integers(1, 29), st.integers(1, 5), st.integers(0, 10)),
                           max_size=4))
    # a gate reading exactly its threshold, rising and falling, then its recorded edge
    @example(gate=(REGRASP_BOTTOM, 0), timeout_back=0, probe_back=None, spikes=[(7, 1, 5)])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=0, probe_back=None, spikes=[(9, 1, 1)])
    @example(gate=(REGRASP_BOTTOM, 0), timeout_back=0, probe_back=None, spikes=[(7, 1, 10)])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=0, probe_back=None, spikes=[(9, 1, 7)])
    # each time rule firing inside the block, on its last row only, and just after it
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=9990, probe_back=2490, spikes=[])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=9972, probe_back=None, spikes=[])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=9971, probe_back=None, spikes=[])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=0, probe_back=2471, spikes=[])
    @example(gate=(ADVANCE_RELEASE, 0), timeout_back=0, probe_back=2470, spikes=[])
    def test_scan_stops_where_update_acts(self, gate, timeout_back, probe_back, spikes):
        """scan() stops on the first row on which a tick-by-tick update()
        changes more than the probe trace, gates read exactly at their
        thresholds included.  update() on that row, with what scan() found,
        takes the tick-by-tick decisions and leaves the same probe trace
        bytes."""
        layout = build_station(RingGeometry(**NOMINAL), 5, 20.0, 20.0)
        c = self.controller(layout)
        c.update(0.0, self.zeros(layout))
        c.take_events()
        k0 = 20000
        c.phase, c.stage = gate
        c.phase_start = (k0 - timeout_back) * DT
        if probe_back is None:
            c._probe_done = True
        else:
            c._probe_t0 = (k0 - probe_back) * DT
        # the gates, then the raw values at which a recorded value passes them
        levels = [0.0, c.gate_lo, math.nextafter(c.gate_lo, 1.0), 5.0,
                  math.nextafter(c.gate_hi, 0.0), c.gate_hi, 15.0,
                  c._pass_lo, math.nextafter(c._pass_lo, 1.0),
                  math.nextafter(c._pass_hi, 0.0), c._pass_hi]
        sensed = np.full((30, 5), 5.0)
        for row, mid, level in spikes:
            sensed[row, mid - 1] = levels[level]
        times = np.arange(k0, k0 + 30) * DT
        ref = copy.deepcopy(c)
        quiet = decision(ref)

        j = c.scan(k0, sensed)
        assert 1 <= j <= 29
        assert all(decision(ref, times[i].item(), sensed[i].tolist()) == quiet
                   for i in range(1, j))
        want = decision(ref, times[j].item(), sensed[j].tolist())
        assert decision(c, times[j].item()) == want
        assert probe_trace(c).tobytes() == probe_trace(ref).tobytes()
        if j < 29:
            assert want != quiet

    def test_a_drop_on_the_row_that_ends_the_probe_window_faults(self, five_module_layout):
        """A plant drop that comes with row j, on which the probe window is
        over, faults the run, as tick by tick: the probe is not classified."""
        c = self.controller(five_module_layout)
        c.update(0.0, self.zeros(five_module_layout))  # the grasp, probing ring 5 from 0 s
        ref = copy.deepcopy(c)
        times = np.arange(3000) * DT
        sensed = np.full((3000, 5), 5.0)
        j = c.scan(0, sensed)
        assert times[j - 1] < 2.5 <= times[j]  # window_start + window_len
        drop = [(0, "drop to_z=0.000000")]
        for i in range(1, j):
            ref.update(times[i].item(), sensed[i].tolist())
        ref.update(times[j].item(), sensed[j].tolist(), drop)
        c.update(times[j].item(), None, drop)
        for run in (c, ref):
            assert run.outcome == "fault"
            assert run.faults == ["object lost at phase L0:Grasp"]
            assert run.detections == []
            assert not any("detection" in text for _, text in run.take_events())
            assert run.update(times[j].item() + DT, sensed[j].tolist()) == {}

    def test_scan_of_one_row_acted_on(self, five_module_layout):
        """A one-row lookahead holds no row to scan: the backend advances one
        tick, update() acts on its plant events alone, and the next scan
        starts at that tick's row 0."""
        c = self.controller(five_module_layout)
        c.update(0.0, self.zeros(five_module_layout))
        c.take_events()
        assert c.scan(0, np.zeros((1, 5))) == 1
        assert c.update(DT) == {}
        assert c.take_events() == [] and c.phase_label() == "L0:Grasp"
        assert c.scan(1, np.full((1, 5), 15.0)) == 0  # the grasp gate opens
        assert c.update(DT) == {1: DEFLATE}
        assert c.phase_label() == "L0:AdvanceRelease"

    def test_station_without_triple_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="triple"):
            build_station(geometry, 1, 20.0, 20.0)

    @pytest.mark.parametrize("fraction", [0.5, 0.4])  # gate 7.5 kPa, then 6.0 kPa
    def test_gates_out_of_order_rejected(self, five_module_layout, fraction):
        control = ControlConfig(inflated_fraction=fraction, deflated_threshold_kPa=7.5)
        with pytest.raises(ValueError, match=r"^control: deflated_threshold_kPa must be below "
                                             r"the inflated gate inflated_fraction \* P_max"):
            StationController(five_module_layout, None, 0.0, PlantParams(), DetectionConfig(),
                              control)


class TestRunStation:
    def test_frozen_transport_to_exit(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(), 120.0)
        assert res.outcome == "object exited"
        assert res.cycles == 5
        assert res.final_z == pytest.approx(30.0, abs=1e-6)
        assert res.faults == ()
        assert len(res.detections) == 3
        assert [d.contact for d in res.detections] == [False, True, True]
        assert res.detections[1].measured_rate == pytest.approx(8.479264339775222, rel=1e-9)
        assert res.detections[1].ratio == pytest.approx(1.9582596627656401, rel=1e-9)
        assert res.sim_time_s == pytest.approx(61.067)
        texts = [text for _, _, text in res.events]
        assert "promoted level=1" in texts
        assert texts[-1] == "outcome=object exited"
        assert not any(text.startswith("drop") for text in texts)

    def test_event_log_is_time_ordered(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(), 120.0)
        times = [t for t, _, _ in res.events]
        assert times == sorted(times)
        grasped = next(t for t, _, text in res.events if text == "grasped level=0")
        first_cycle = next(t for t, _, text in res.events if text.startswith("cycle=1 complete"))
        assert grasped < first_cycle

    def test_a_deflated_gate_that_cannot_release_is_refused(self, five_module_layout, material,
                                                            params):
        """With a plant, the deflated gate must be below the plant's grip, as
        validate states the rule.  One ulp under the inflated gate, a vented
        ring still holds the object: the run ended "undetectable object"
        after 3 cycles, with no fault."""
        backend = sim_backend(five_module_layout, material, params)
        with pytest.raises(ValueError) as e:
            run_station(backend, five_module_layout, backend.plant.object.spec, 0.0, params,
                        DetectionConfig(),
                        ControlConfig(deflated_threshold_kPa=math.nextafter(14.25, 0.0)), 120.0)
        assert str(e.value) == ("control: deflated_threshold_kPa must be below the contact "
                                "pressure 6.521739130434782 kPa at which a ring reaches the "
                                "object, got 14.249999999999998")
        assert backend.now == 0.0

    @pytest.mark.parametrize("ror", [0.7, 0.4], ids=["nominal", "thin"])
    def test_gates_below_the_grip_run(self, five_module_layout, material, params, ror):
        """The default gate, and one just below the grip, pass the plant's rule
        on the benchmark's objects (r_o = 17.5 and 10 mm)."""
        grip = sim_backend(five_module_layout, material, params, ror=ror).plant.grip
        for deflated in (ControlConfig().deflated_threshold_kPa, math.nextafter(grip, 0.0)):
            backend = sim_backend(five_module_layout, material, params, ror=ror)
            res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                              params, DetectionConfig(),
                              ControlConfig(deflated_threshold_kPa=deflated), 1.0)
            assert res.sim_time_s == 1.0

    def test_thin_object_never_detected(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params, ror=0.4)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(), 120.0)
        assert res.outcome == "undetectable object"
        assert res.cycles == 3
        assert res.final_z == pytest.approx(18.0, abs=1e-6)
        assert res.positive_detections == 0
        assert len(res.detections) == 4
        for d in res.detections:
            assert d.ratio == pytest.approx(1.0, abs=1e-9)
        assert res.faults == ()

    def test_cycle_budget(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(max_cycles=1), 120.0)
        assert res.outcome == "cycle budget reached"
        assert res.cycles == 1
        assert res.final_z == 6.0

    def test_duration_limit(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(), 5.0)
        assert res.outcome == "duration limit reached"
        assert res.sim_time_s == pytest.approx(5.0)
        assert res.cycles == 0

    def test_stuck_vent_faults_with_location(self, five_module_layout, material):
        slow = PlantParams(k_vent=1e-9)
        backend = sim_backend(five_module_layout, material, slow)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          slow, DetectionConfig(), ControlConfig(), 120.0)
        assert res.outcome == "fault"
        assert res.faults == ("timeout in phase L0:AdvanceRelease stage 0: module 1 stalled",)

    def test_probe_patience_runs_out(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params, ror=0.4)  # r_o = 10 mm
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(max_cycles_per_level=1), 120.0)
        assert res.outcome == "fault"
        assert res.faults == ("object never detected at level 0 after 1 cycles",)
        assert res.cycles == 1

    def test_nonpositive_duration_rejected(self, five_module_layout, material, params):
        backend = sim_backend(five_module_layout, material, params)
        with pytest.raises(ValueError, match="duration"):
            run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                        params, DetectionConfig(), ControlConfig(), 0.0)

    def test_runs_sum_no_clock(self, five_module_layout, material, params, monkeypatch,
                               tmp_path):
        """run_station reads time as k * dt: with or without a recorder it sums
        no plant clock.  Calibration reads the clock, and sums the steps of
        each lookahead once, none twice."""
        summed = []

        def counting(seconds, dt, steps):
            summed.append(steps)
            return summed_clock(seconds, dt, steps)

        def run(recorder=None):
            backend = sim_backend(five_module_layout, material, params)
            return run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                               params, DetectionConfig(), ControlConfig(max_cycles=1), 20.0,
                               recorder=recorder)

        monkeypatch.setattr(plant_module, "summed_clock", counting)
        monkeypatch.setattr(control_module, "summed_clock", counting)
        assert run().cycles == 1
        with TelemetryWriter(tmp_path / "run.csv") as writer:
            assert run(writer).cycles == 1
        assert summed == []
        backend = CountingBackend(Plant(five_module_layout, None, params, material))
        calibrate_baseline(backend, 1, params, DetectionConfig())
        assert summed and sum(summed) <= backend.rows - backend.lookaheads

    def test_plant_stepping_at_another_dt_rejected(self, five_module_layout, material):
        # dts compare relatively: two under 1e-12 s are not one
        for dt, other in [(1e-3, 2e-3), (1e-13, 2e-13)]:
            backend = sim_backend(five_module_layout, material, PlantParams(dt=dt))
            with pytest.raises(ValueError, match=f"fixed dt={dt}, got {other}"):
                run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                            PlantParams(dt=other), DetectionConfig(), ControlConfig(),
                            1000 * dt)
            assert backend.now == 0.0

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_nonfinite_duration_rejected(self, five_module_layout, material, params, duration):
        backend = sim_backend(five_module_layout, material, params)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                        params, DetectionConfig(), ControlConfig(), duration)

    @pytest.mark.parametrize("duration, problem", [
        (4e-4, "run: duration_s must be over half a tick (dt = 0.001 s), got 0.0004"),
        (1e308, "run: duration_s must be a finite number of ticks (dt = 0.001 s), got 1e+308"),
    ], ids=["under half a tick", "too many ticks"])
    def test_tick_count_rejected(self, five_module_layout, material, params, duration, problem):
        backend = sim_backend(five_module_layout, material, params)
        with pytest.raises(ValueError) as e:
            run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                        params, DetectionConfig(), ControlConfig(), duration)
        assert str(e.value) == problem
        assert backend.now == 0.0


class TestBlockStepping:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.0, 0.05, 0.3]),
           radius=st.sampled_from([10.0, 17.5]), modules=st.sampled_from([3, 5, 7]),
           duration=st.floats(2.0, 40.0), timeout=st.sampled_from([10.0, 2.5]))
    @example(seed=0, sigma=0.05, radius=17.5, modules=5, duration=2.0, timeout=10.0)
    @example(seed=1, sigma=0.0, radius=17.5, modules=3, duration=20.0, timeout=2.5)
    @example(seed=0, sigma=0.0, radius=17.5, modules=7, duration=20.0, timeout=10.0)
    @example(seed=2, sigma=0.05, radius=17.5, modules=5, duration=27.0, timeout=10.0)
    def test_blocks_match_the_tick_by_tick_run(self, seed, sigma, radius, modules, duration,
                                               timeout):
        """Whole blocks and one tick at a time give the same result and the
        same telemetry bytes.  dt = 10 ms keeps the tick-by-tick reference
        short.  The examples end a run mid-inflation, time out the first
        grasp (it needs about 3.3 s), and run into a second cycle (from
        about 14.7 s), whose lookaheads are sized from the first cycle's
        stages: in the noisy one, its stages end 2 and 1 ticks before their
        record and 1 and 6 ticks after it."""
        geometry = RingGeometry(**NOMINAL)
        material = SurrogateMaterial(100.0, 0.45, calibrate_kappa(geometry, 100.0, 0.69, 15.0))
        layout = build_station(geometry, modules, 20.0, 20.0)
        params = PlantParams(dt=0.01, noise_sigma=sigma, rng_seed=seed)
        spec = ObjectSpec(radius, 75.0)
        results, files = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for wrap in (lambda b: b, OneRowBackend):
                path = os.path.join(tmp, f"{len(files)}.csv")
                backend = wrap(SimulatedBackend(Plant(layout, ObjectState(spec, 0.0), params,
                                                      material)))
                with TelemetryWriter(path) as writer:
                    results.append(run_station(backend, layout, spec, 0.0, params,
                                               DetectionConfig(),
                                               ControlConfig(phase_timeout_s=timeout),
                                               duration, recorder=writer))
                with open(path, "rb") as f:
                    files.append(f.read())
        assert results[0] == results[1]
        assert files[0] == files[1]


    def test_lookaheads_follow_the_stages(self, five_module_layout, material, params):
        """Each lookahead is sized from the last duration of its stage: the
        nominal run takes at most 60 lookaheads (92 at BLOCK_TICKS each) and
        computes at most 1.3 rows per row it commits (1.51 at BLOCK_TICKS).
        The recorder still gets at most BLOCK_TICKS ticks per call."""
        backend = CountingBackend(sim_backend(five_module_layout, material, params).plant)
        calls = []

        class Sizes:
            def record(self, now, rows, valves, phase, layout, events):
                calls.append(len(now))

        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0, params,
                          DetectionConfig(), ControlConfig(), 120.0, recorder=Sizes())
        assert res.outcome == "object exited"
        assert backend.advanced == 61067
        assert backend.lookaheads <= 60
        assert backend.rows <= 1.3 * backend.advanced
        assert sum(calls) == backend.advanced + 1
        assert max(calls) == BLOCK_TICKS


class TestInflationOnRead:
    """Inflation is computed from the plant's true pressures, by its one law
    (Plant.inflation), only where something reads it."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Each (true kPa, mm) pair that Plant.inflation computes."""
        calls, law = [], Plant.inflation

        def inflation(plant, pressure):
            out = law(plant, pressure)
            calls.append((pressure, out))
            return out

        monkeypatch.setattr(Plant, "inflation", inflation)
        return calls

    def test_a_run_without_a_recorder_computes_none(self, computed, five_module_layout,
                                                     material):
        params = PlantParams(noise_sigma=0.05, rng_seed=3)
        backend = sim_backend(five_module_layout, material, params)
        res = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                          params, DetectionConfig(), ControlConfig(), 120.0)
        assert res.outcome == "object exited"
        assert computed == []

    def test_calibration_computes_none(self, computed, three_module_layout, material, params):
        backend = sim_backend(three_module_layout, material, params, with_object=False)
        calibrate_baseline(backend, 1, params, DetectionConfig())
        assert computed == []

    def test_a_recorder_computes_the_rows_it_records(self, computed, five_module_layout,
                                                     material, tmp_path):
        """One row computed per tick recorded, each from the plant's pressures
        (not the noisy sensed ones) and recorded as computed."""
        params = PlantParams(noise_sigma=0.05, rng_seed=3)
        backend = sim_backend(five_module_layout, material, params)
        path = tmp_path / "t.csv"
        with TelemetryWriter(path) as writer:
            run_station(backend, five_module_layout, backend.plant.object.spec, 0.0, params,
                        DetectionConfig(), ControlConfig(), 20.0, recorder=writer)
        log = read_telemetry(str(path))
        rows = log.module_id != 0
        sensed, recorded = (a[rows].reshape(-1, 5) for a in (log.pressure_kPa, log.inflation_mm))
        true, mm = (np.concatenate(a) for a in zip(*computed))
        assert len(mm) == len(recorded) == 20001
        assert (as_recorded(mm.ravel()) == recorded.ravel()).all()
        assert (as_recorded(true.ravel()) != sensed.ravel()).any()


class TestReplayEquivalence:
    def test_recorded_run_replays_without_mismatch(self, five_module_layout, material,
                                                   params, tmp_path):
        backend = sim_backend(five_module_layout, material, params)
        spec = backend.plant.object.spec
        path = tmp_path / "run.csv"
        with TelemetryWriter(path) as writer:
            live = run_station(backend, five_module_layout, spec, 0.0, params,
                               DetectionConfig(), ControlConfig(), 120.0, recorder=writer)

        replay = ReplayBackend(read_telemetry(path), params.dt)
        again = run_station(replay, five_module_layout, spec, 0.0, params,
                            DetectionConfig(), ControlConfig(), 120.0)
        assert replay.mismatches == 0
        assert again.outcome == live.outcome == "object exited"
        assert again.cycles == live.cycles
        # replay has no plant, so final z is the controller's dead reckoning
        assert again.final_z == 30.0

    def test_replay_needs_every_layout_module(self, three_module_layout, five_module_layout,
                                              material, params, tmp_path):
        backend = sim_backend(three_module_layout, material, params)
        spec = backend.plant.object.spec
        path = tmp_path / "run.csv"
        with TelemetryWriter(path) as writer:
            run_station(backend, three_module_layout, spec, 0.0, params, DetectionConfig(),
                        ControlConfig(max_cycles=1), 20.0, recorder=writer)
        replay = ReplayBackend(read_telemetry(path), params.dt)
        with pytest.raises(ValueError, match="no such endpoint: module 4"):
            run_station(replay, five_module_layout, spec, 0.0, params, DetectionConfig(),
                        ControlConfig(), 20.0)

    def test_replay_at_another_dt_rejected(self, five_module_layout, material, tmp_path):
        """A 1 ms recording replayed at 0.5 ms would take other decisions
        ("undetectable object" after 3 cycles, not "object exited" after 5);
        the backend refuses it instead."""
        params = PlantParams(noise_sigma=0.05, rng_seed=0)
        backend = sim_backend(five_module_layout, material, params)
        path = tmp_path / "run.csv"
        with TelemetryWriter(path) as writer:
            live = run_station(backend, five_module_layout, backend.plant.object.spec, 0.0,
                               params, DetectionConfig(), ControlConfig(), 120.0,
                               recorder=writer)
        assert live.outcome == "object exited"
        log = read_telemetry(path)
        for dt in (5e-4, 2e-3):
            with pytest.raises(ValueError,
                               match=rf"does not tick at dt={dt}: tick 1 is at 0.001 s, not at {dt} s"):
                ReplayBackend(log, dt)
            # nor does a run at another dt than the backend's
            with pytest.raises(ValueError, match=rf"backend steps at fixed dt=0.001, got {dt}"):
                run_station(ReplayBackend(log, params.dt), five_module_layout,
                            backend.plant.object.spec, 0.0, replace(params, dt=dt),
                            DetectionConfig(), ControlConfig(), 120.0)
        # dts compare relatively: a recording at 1e-13 s (every tick at 0.0 in the
        # file) is not one at 2e-13 s
        tiny = ReplayBackend(log_of([Row(0.0, mid, "Compression", 0.0, HOLD, 0.0, 0.0,
                                         "L0:Grasp", "") for _ in range(3) for mid in
                                     range(1, 6)]), 1e-13)
        with pytest.raises(ValueError, match="backend steps at fixed dt=1e-13, got 2e-13"):
            run_station(tiny, five_module_layout, backend.plant.object.spec, 0.0,
                        replace(params, dt=2e-13), DetectionConfig(), ControlConfig(), 1e-10)

    def test_valve_change_a_tick_early_rejected(self, three_module_layout, material, params,
                                                tmp_path):
        """A recording whose valve changes a tick before the command was sent
        diverges from the controller on that tick."""
        backend = sim_backend(three_module_layout, material, params)
        spec = backend.plant.object.spec
        path = tmp_path / "run.csv"
        with TelemetryWriter(path) as writer:
            run_station(backend, three_module_layout, spec, 0.0, params, DetectionConfig(),
                        ControlConfig(max_cycles=1), 20.0, recorder=writer)
        last = {}  # each module's valve on the tick before
        for change in read_rows(path):
            if change.module_id and last.setdefault(change.module_id, change.valve) != change.valve:
                break  # the first valve change after tick 0
            last[change.module_id] = change.valve
        early = round(change.time_s - params.dt, 6)
        lines = path.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines[1:], 1):
            parts = line.split(",")
            if float(parts[0]) == early and int(parts[1]) == change.module_id:
                parts[4] = change.valve
                lines[i] = ",".join(parts)
        path.write_text("".join(lines))
        replay = ReplayBackend(read_telemetry(path), params.dt)
        with pytest.raises(ReplayMismatchError,
                           match=f"tick {round(early / params.dt)} module {change.module_id} "
                                 f"recorded {change.valve}"):
            run_station(replay, three_module_layout, spec, 0.0, params, DetectionConfig(),
                        ControlConfig(max_cycles=1), 20.0)
        assert replay.mismatches == 1

    def test_backend_modules_out_of_layout_order_rejected(self, three_module_layout, params):
        rows = [Row(k * DT, mid, "Compression", 0.0, HOLD, 0.0, 0.0, "L0:Grasp", "")
                for k in range(3) for mid in (3, 2, 1)]
        with pytest.raises(ValueError, match=r"backend modules \(3, 2, 1\) are not the layout's"):
            run_station(ReplayBackend(log_of(rows), DT), three_module_layout, None, 0.0, params,
                        DetectionConfig(), ControlConfig(), 1.0)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 0.1))
    def test_noisy_runs_replay_with_the_same_decisions(self, seed, sigma):
        geometry = RingGeometry(**NOMINAL)
        material = SurrogateMaterial(100.0, 0.45, calibrate_kappa(geometry, 100.0, 0.69, 15.0))
        layout = build_station(geometry, 5, 20.0, 20.0)
        params = PlantParams(noise_sigma=sigma, rng_seed=seed)
        # raised 10 mm, the object reaches the probe ring during the first grasp
        spec, z0 = ObjectSpec(17.5, 75.0), 10.0
        control = ControlConfig(max_cycles=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.csv")
            plant = Plant(layout, ObjectState(spec, z0), params, material)
            with TelemetryWriter(path) as writer:
                live = run_station(SimulatedBackend(plant), layout, spec, z0, params,
                                   DetectionConfig(), control, 30.0, recorder=writer)
            replay = ReplayBackend(read_telemetry(path), params.dt)
            again = run_station(replay, layout, spec, z0, params,
                                DetectionConfig(), control, 30.0)
        assert live.detections
        assert replay.mismatches == 0
        assert (again.outcome, again.cycles, again.sim_time_s) == (
            live.outcome, live.cycles, live.sim_time_s)
        # both decide on the recorded values: the same events, texts and times included
        assert again.events == live.events
        assert again.detections == live.detections

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.01, 0.1), data=st.data())
    def test_gates_between_values_and_their_recorded_text(self, seed, sigma, data):
        """Over noise seeds and sigma, the first grasp gate is placed between
        a sensed value and its lower 6-decimal text, at a tick where the
        sensed min(module 1, module 3) rises to a new maximum: deciding on
        sensed values would open it there.  Live and replay both open it
        later, when the recorded value passes, and take the same decisions."""
        geometry = RingGeometry(**NOMINAL)
        material = SurrogateMaterial(100.0, 0.45, calibrate_kappa(geometry, 100.0, 0.69, 15.0))
        layout = build_station(geometry, 5, 20.0, 20.0)
        params = PlantParams(noise_sigma=sigma, rng_seed=seed)
        spec, duration = ObjectSpec(17.5, 75.0), 4.0
        sensed = SensedTrace(Plant(layout, ObjectState(spec, 0.0), params, material))
        first = run_station(sensed, layout, spec, 0.0, params, DetectionConfig(),
                            ControlConfig(max_cycles=1), duration)
        grasp = round(next(t for t, _, text in first.events if text == "grasped level=0")
                      / params.dt)
        # the grasp gate's modules until the gate opened, as sensed
        low = sensed.pressure[:grasp, [0, 2]].min(axis=1)
        peak = np.maximum.accumulate(low)
        # below 0.85 P_max a grip too soft lets the object slip: plant events
        # that a replay, which has no plant, does not see
        firm = (low[1:] >= 0.85 * params.P_max) & (low[1:] <= params.P_max)
        rises = np.flatnonzero((low[1:] > peak[:-1]) & (as_recorded(low[1:]) < low[1:])
                               & firm) + 1
        assert len(rises)
        k = data.draw(st.sampled_from(rises.tolist()))
        below = max(peak[k - 1], as_recorded(low[k:k + 1])[0])  # what the gate must exceed
        control = ControlConfig(max_cycles=1,
                                inflated_fraction=(below + low[k]) / 2 / params.P_max)
        assert below < control.inflated_fraction * params.P_max <= low[k]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.csv")
            plant = Plant(layout, ObjectState(spec, 0.0), params, material)
            with TelemetryWriter(path) as writer:
                live = run_station(SimulatedBackend(plant), layout, spec, 0.0, params,
                                   DetectionConfig(), control, duration, recorder=writer)
            replay = ReplayBackend(read_telemetry(path), params.dt)
            again = run_station(replay, layout, spec, 0.0, params, DetectionConfig(), control,
                                duration)
        opened = next(t for t, _, text in live.events if text == "grasped level=0")
        assert round(opened / params.dt) > k
        assert replay.mismatches == 0
        assert again.events == live.events
        assert again.detections == live.detections

    def test_gate_between_a_value_and_its_recorded_text(self, tmp_path):
        """The noisy seed-0 nominal run with the inflated gate placed between
        a sensed value and its 6-decimal text.  Deciding on the unrounded
        value, the live run opened the first grasp gate at tick 2280, where
        its recording reads below the gate, and its replay failed there."""
        config = tmp_path / "gate.yaml"
        config.write_text("plant:\n  noise_sigma: 0.05\n"
                          "control:\n  inflated_fraction: 0.8722464077669384\n")
        cfg = load_config(str(config))
        plant = Plant(cfg.layout, ObjectState(cfg.object_spec, cfg.initial_z), cfg.params,
                      cfg.material)
        path = tmp_path / "run.csv"
        with TelemetryWriter(path) as writer:
            live = run_station(SimulatedBackend(plant), cfg.layout, cfg.object_spec,
                               cfg.initial_z, cfg.params, cfg.detection, cfg.control,
                               cfg.duration_s, recorder=writer)
        replay = ReplayBackend(read_telemetry(path), cfg.params.dt)
        again = run_station(replay, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                            cfg.detection, cfg.control, cfg.duration_s)
        assert replay.mismatches == 0
        first_grasp = next(t for t, _, text in live.events if text == "grasped level=0")
        assert first_grasp == 2282 * cfg.params.dt
        assert again.events == live.events
        assert again.detections == live.detections
