"""Command-line front end.

Exit codes: 0 success, 1 validation failures or run faults, 2 parse and
usage errors and an output file that cannot be written.  Summaries go to
stdout; machine-readable results go to files (baselines CSV, telemetry
CSV, sweep CSV).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .config import ConfigError, load_baselines, load_config, write_baselines
from .control import ControlFaultError, calibrate_baseline, duration_problems, run_station
from .geometry import SWEEP_PARAMETERS, sweep
from .hal import SimulatedBackend
from .plant import COMPRESSION, ObjectState, Plant
from .telemetry import TelemetryWriter


# The most values a range spec may give; a sweep evaluates each one.
MAX_RANGE_VALUES = 10_000


def parse_range(spec: str) -> list[float]:
    """Parse "start:stop:step" (stop inclusive) or a comma list of values.

    Every part must be finite, and the spec may give at most
    MAX_RANGE_VALUES values; the count is known before any is built.
    """
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty range spec")
    parts = spec.split(":") if ":" in spec else spec.split(",")
    if ":" in spec and len(parts) != 3:
        raise ConfigError(f"range spec must be start:stop:step, got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"malformed range spec {spec!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"range spec values must be finite, got {spec!r}")
    if ":" in spec:
        start, stop, step = values
        if step <= 0:
            raise ConfigError(f"range step must be > 0, got {step}")
        if stop < start:
            raise ConfigError(f"range stop must be >= start, got {spec!r}")
        last = (stop + 1e-9 - start) / step  # index of the last value, give or take rounding
        if not last < MAX_RANGE_VALUES:
            raise ConfigError(f"range spec {spec!r} gives more than {MAX_RANGE_VALUES} values")
        values = [v for v in (start + k * step for k in range(int(last) + 2)) if v <= stop + 1e-9]
    if len(values) > MAX_RANGE_VALUES:
        raise ConfigError(f"range spec {spec!r} gives more than {MAX_RANGE_VALUES} values")
    return values


def _prepare(args):
    """Load args.config and apply --duration and --seed where the command has them.

    Prints each problem as a FAIL line.  Returns the RunConfig, or else the
    exit code: 2 for a config that cannot be loaded, 1 for one with problems.
    """
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}")
        return 2
    duration, seed = getattr(args, "duration", None), getattr(args, "seed", None)
    if duration is not None:  # it replaces the config's duration, and so its problem
        dt = cfg.params and cfg.params.dt
        old = duration_problems(cfg.duration_s, dt)
        cfg.problems = [p for p in cfg.problems if p not in old]
        cfg.problems += duration_problems(duration, dt)
        cfg.duration_s = duration
    if seed is not None and cfg.params is not None:  # checked as the config field is
        try:
            cfg.params = replace(cfg.params, rng_seed=seed)
        except ValueError as e:
            cfg.problems.append(f"--seed: {e}")
    for p in cfg.problems:
        print(f"FAIL {p}")
    return 1 if cfg.problems else cfg


def _output_error(path: str, e: OSError) -> int:
    """Report an output file that cannot be written: exit code 2."""
    print(f"output error: {path}: {e.strerror or e}")
    return 2


def cmd_validate(args, cfg) -> int:
    print("geometry: OK")
    print(f"station: OK ({len(cfg.layout.modules)} modules)")
    print("config: OK")
    return 0


def cmd_calibrate(args, cfg) -> int:
    with_object = cfg.calibration_with_object and cfg.object_spec is not None
    obj = ObjectState(cfg.object_spec, cfg.initial_z) if with_object else None
    backend = SimulatedBackend(Plant(cfg.layout, obj, cfg.params, cfg.material))
    rates = {}
    for mod in cfg.layout.modules:
        if mod.kind != COMPRESSION:
            continue
        try:
            rates[mod.id] = calibrate_baseline(backend, mod.id, cfg.params, cfg.detection,
                                               cfg.control)
        except (ValueError, ControlFaultError) as e:  # CalibrationError is a ValueError
            print(f"calibration failed: {e}")
            return 1
        print(f"module {mod.id}: {rates[mod.id]:.6f} kPa/s")
    out = args.out or "baselines.csv"
    try:
        write_baselines(out, rates)
    except OSError as e:
        return _output_error(out, e)
    print(f"baselines written to {out}")
    return 0


def cmd_run(args, cfg) -> int:
    detection = cfg.detection
    if args.baselines:
        try:
            rates = load_baselines(args.baselines)
        except (ConfigError, OSError) as e:
            print(f"config error: {e}")
            return 2
        rings = {mod.id for mod in cfg.layout.modules if mod.kind == COMPRESSION}
        strays = sorted(set(rates) - rings)
        if strays:
            print(f"config error: {args.baselines}: module {strays[0]} is not a "
                  f"Compression ring of the station (rings: {sorted(rings)})")
            return 2
        detection = replace(detection, baseline_rates=rates)
    obj = ObjectState(cfg.object_spec, cfg.initial_z) if cfg.object_spec else None
    backend = SimulatedBackend(Plant(cfg.layout, obj, cfg.params, cfg.material))
    out = args.out or cfg.output_path or "telemetry.csv"
    try:
        recorder = TelemetryWriter(out)
    except OSError as e:
        return _output_error(out, e)
    with recorder:
        result = run_station(backend, cfg.layout, cfg.object_spec, cfg.initial_z,
                             cfg.params, detection, cfg.control, cfg.duration_s,
                             recorder=recorder)
    drops = sum(1 for _, _, text in result.events if text.startswith("drop"))
    print(f"outcome: {result.outcome}")
    print(f"cycles: {result.cycles}")
    print(f"detections: {result.positive_detections}")
    print(f"probes: {len(result.detections)}")
    print(f"drops: {drops}")
    print(f"final z: {result.final_z:.6f} mm")
    print(f"faults: {len(result.faults)}")
    for text in result.faults:
        print(f"  fault: {text}")
    print(f"telemetry: {out}")
    return 1 if result.faults else 0


def cmd_sweep(args, cfg) -> int:
    try:
        values = parse_range(args.range)
        if args.param == "N":
            for v in values:
                if v != int(v):
                    raise ConfigError(f"sweep over N requires integer values, got {v}")
            values = [int(v) for v in values]
        result = sweep(cfg.geometry, cfg.material, cfg.params.P_max, args.param, values)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}")
        return 2

    def fmt(v) -> str:
        return str(v) if args.param == "N" else f"{v:.6f}"

    out = args.out or "sweep.csv"
    try:
        with open(out, "w", newline="") as f:
            f.write(f"{args.param},d_c_over_r\n")
            for v, d in result.samples:
                f.write(f"{fmt(v)},{'infeasible' if d is None else format(d, '.6f')}\n")
    except OSError as e:
        return _output_error(out, e)
    best = result.argmax()
    if best is None:
        print("no feasible samples")
    else:
        print(f"argmax {args.param}={fmt(best[0])} d_c_over_r={best[1]:.6f}")
    print(f"sweep written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peristation",
        description="Simulate and analyze a stacked pneumatic transport station.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config against every design rule")
    p.add_argument("--config", metavar="PATH", help="YAML config (defaults apply if omitted)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("calibrate", help="measure no-object baseline rates")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="baselines CSV (default baselines.csv)")
    p.add_argument("--seed", type=int, metavar="INT", help="override sensor noise seed")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="run the closed-loop transport scenario")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="telemetry CSV (default telemetry.csv)")
    p.add_argument("--baselines", metavar="PATH", help="calibration CSV from `calibrate`")
    p.add_argument("--seed", type=int, metavar="INT", help="override sensor noise seed")
    p.add_argument("--duration", type=float, metavar="SECONDS", help="override run duration")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep one geometry parameter and report d_c/r")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--range", required=True, metavar="SPEC",
                   help="start:stop:step (stop inclusive) or v1,v2,...")
    p.add_argument("--out", metavar="PATH", help="sweep CSV (default sweep.csv)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command; a standard output closed by its reader ends it with exit code 1."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        cfg = _prepare(args)
        code = cfg if isinstance(cfg, int) else args.func(args, cfg)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # send the rest, the interpreter's flush at exit included, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
