"""The benchmark's tracer still finds every entry point it wraps.

bench/tracing.py patches package names from the outside; renaming or
deleting one of them would otherwise show only when the traced benchmark
runs.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import peristation
from peristation.cli import main
from peristation.config import load_config

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"

SHORT_RUN = "station:\n  module_count: 3\nplant:\n  noise_sigma: 0.05\n"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_calibrate_run_and_replay_count_every_layer(tmp_path):
    config, baselines, telemetry = (tmp_path / n for n in ("c.yaml", "b.csv", "t.csv"))
    config.write_text(SHORT_RUN)
    cfg = load_config(str(config))
    tracer = load_tracer()()
    with tracer.patched(peristation), contextlib.redirect_stdout(io.StringIO()):
        assert peristation.cli.main(["calibrate", "--config", str(config),
                                     "--out", str(baselines)]) == 0
        assert peristation.cli.main(["run", "--config", str(config), "--baselines",
                                     str(baselines), "--duration", "1.0",
                                     "--out", str(telemetry)]) == 0
        replay = peristation.ReplayBackend(peristation.read_telemetry(telemetry), cfg.params.dt)
        peristation.run_station(replay, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                                cfg.detection, cfg.control, 1.0)
    assert peristation.cli.main is main  # unpatched again
    calls = tracer.take_calls()
    for name in ("cli.main", "plant.init", "hal.read_pressure", "hal.set_valve",
                 "control.update", "control.calibrate_baseline", "control.run_station",
                 "telemetry.record", "telemetry.read", "hal.replay_init"):
        assert calls[name][0] > 0, name
