"""Span and call accounting for the traced benchmark run.

Everything here wraps peristation's public entry points from the outside;
the package itself is not instrumented.  Two kinds of record are kept in
memory and written out once when the run ends:

- spans: (id, parent id, op id, name, start ns, end ns) for the coarse
  calls that happen a few times per operation (cli.main, load_config,
  calibrate_baseline, run_station, read_telemetry, ...);
- call statistics: count, inclusive ns and self ns per name for every
  wrapped call, including the per-tick ones (Plant.step, the HAL calls,
  StationController.update, TelemetryWriter.record).  Per-tick calls run
  ~10^5 times per operation, so they are aggregated, not kept as spans.

Self time is a call's duration minus the time spent in wrapped calls it
made, so the self times of all names add up to the time spent inside
outermost wrapped calls.  The wrappers' own cost lands in the caller's
self time; trace.overhead_ticks_per_s shows its size.
"""

from __future__ import annotations

import itertools
import time
from contextlib import ExitStack
from unittest import mock

# Layers are the package modules; a call name starts with its layer.
LAYERS = ("geometry", "plant", "hal", "control", "telemetry", "config", "cli")

# Every name a call is recorded under, registered up front so that a call
# a workload never makes reads as zero.
CALL_NAMES = (
    "cli.main",
    "config.load_config", "config.load_baselines", "config.write_baselines",
    "geometry.sweep",
    "plant.init", "plant.step",
    "hal.read_pressure", "hal.set_valve", "hal.tick", "hal.drain_events", "hal.replay_init",
    "control.run_station", "control.update", "control.calibrate_baseline",
    "control.detect_contact", "control.probe.positives",
    "telemetry.open", "telemetry.record", "telemetry.close", "telemetry.read",
)


class Tracer:
    def __init__(self):
        # name -> [count, total ns, self ns]
        self.calls: dict[str, list[int]] = {name: [0, 0, 0] for name in CALL_NAMES}
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open call
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, span: bool = False):
        """Return fn timed under name; span=True also keeps each call as a span."""
        stat = self.calls[name]
        stack = self._stack
        clock = time.perf_counter_ns
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            frame = [next(ids) if span else 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if span:
                    parent = stack[-1][0] if stack else None
                    spans.append((frame[0], parent, self.op_id, name, t0, t1))

        return traced

    def take_calls(self) -> dict[str, tuple[int, int, int]]:
        """Return the call statistics so far and zero them in place."""
        out = {}
        for name, stat in self.calls.items():
            out[name] = tuple(stat)
            stat[:] = [0, 0, 0]
        return out

    def patched(self, peristation) -> ExitStack:
        """Patch the package's entry points for the lifetime of the returned stack.

        Each name is replaced in the package namespace, which the harness
        calls through, and in the module that calls it inside the package:
        cli imports by name, and StationController looks up detect_contact
        as a control global.  So calls made inside cli.main and run_station
        are traced as well as the harness's own calls.
        """
        cli, control = peristation.cli, peristation.control
        wrap = self.wrap
        orig = {name: getattr(peristation, name) for name in (
            "Plant", "SimulatedBackend", "ReplayBackend", "TelemetryWriter", "detect_contact",
        )}
        positives = self.calls["control.probe.positives"]

        def detect_contact(*args, **kwargs):
            res = orig["detect_contact"](*args, **kwargs)
            positives[0] += res.contact
            return res

        new_plant = wrap("plant.init", orig["Plant"])

        def make_plant(*args, **kwargs):
            plant = new_plant(*args, **kwargs)
            # an instance attribute, which SimulatedBackend.tick calls
            plant.step = wrap("plant.step", plant.step)
            return plant

        open_writer = wrap("telemetry.open", orig["TelemetryWriter"])
        replay_init = wrap("hal.replay_init", orig["ReplayBackend"], span=True)
        replace = {
            "main": wrap("cli.main", cli.main, span=True),
            "load_config": wrap("config.load_config", peristation.load_config, span=True),
            "load_baselines": wrap("config.load_baselines", peristation.load_baselines),
            "write_baselines": wrap("config.write_baselines", peristation.write_baselines),
            "sweep": wrap("geometry.sweep", peristation.sweep, span=True),
            "calibrate_baseline": wrap("control.calibrate_baseline",
                                       peristation.calibrate_baseline, span=True),
            "run_station": wrap("control.run_station", peristation.run_station, span=True),
            "detect_contact": wrap("control.detect_contact", detect_contact),
            "read_telemetry": wrap("telemetry.read", peristation.read_telemetry, span=True),
            "Plant": make_plant,
            "SimulatedBackend": lambda plant: TracedBackend(orig["SimulatedBackend"](plant), self),
            "ReplayBackend": lambda *a, **k: TracedBackend(replay_init(*a, **k), self),
            "TelemetryWriter": lambda path: TracedRecorder(open_writer(path), self),
        }
        stack = ExitStack()
        for name, new in replace.items():
            for module in (peristation, cli, control):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, new))
        update = wrap("control.update", control.StationController.update)
        stack.enter_context(mock.patch.object(control.StationController, "update", update))
        return stack

    # -- reduction -----------------------------------------------------------

    @staticmethod
    def layer_self_ns(calls: dict) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, (_, _, self_ns) in calls.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_ns
        return out


class TracedBackend:
    """HAL proxy: times each of the backend's operations, forwards the rest."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.read_pressure = tracer.wrap("hal.read_pressure", inner.read_pressure)
        self.set_valve = tracer.wrap("hal.set_valve", inner.set_valve)
        self.tick = tracer.wrap("hal.tick", inner.tick)
        self.drain_events = tracer.wrap("hal.drain_events", inner.drain_events)

    def __getattr__(self, name):
        # now, plant (run_station reads ground truth through it), mismatches
        return getattr(self.inner, name)


class TracedRecorder:
    """TelemetryWriter proxy: times record() and close()."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.record = tracer.wrap("telemetry.record", inner.record)
        self.close = tracer.wrap("telemetry.close", inner.close)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
