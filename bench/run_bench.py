"""peristation benchmark harness.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process and thread, from the checkout this file
sits in (the package is imported from ../src, never from site-packages).
Workloads, chosen so that each layer is the main cost of at least one and
bypassed by another:

- station_record: the quick-start pipeline through cli.main, `calibrate`
  then `run --baselines --out`, on the nominal station with 0.05 kPa
  sensor noise.  Every layer works; the telemetry writer is about half
  the time and the HAL takes its noise path.  This is what users run.
- scenario_batch: in-process run_station, no recorder and no noise, over
  four scenarios that take different controller paths.  Plant and
  controller do nearly all the work; telemetry does none.
- replay: set-up records one noisy nominal run; each operation parses it
  (read_telemetry), builds a ReplayBackend and replays the controller
  against it.  The parser dominates; Plant.step and the writer do nothing.

The seed feeds only the generated inputs: the sensor noise seed of the
recorded runs, and small perturbations of the batch scenarios inside bands
that keep each scenario's outcome.  Seed 0 is the default seed: its inputs
are unperturbed and its results are compared exactly against golden.json,
which holds values recorded from the code this benchmark was written on.
Every other seed gets invariant checks.  A failed check or an exception
fails that operation; `failed`/`attempted` in the result is the error rate.

With --trace 0 the result holds the end-to-end metrics, medians over the
run with times rescaled to a nominal host speed measured in the same run
(see PROBE_NOMINAL_S); with --trace 1 a separate traced run gives the
per-layer metrics (see tracing.py), which are not rescaled.  The last
line of stdout is one JSON object; the full result, stamped with the git
SHA, Python and numpy versions and CPU count, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

sys.path.insert(0, str(BENCH_DIR))
from tracing import LAYERS, Tracer  # noqa: E402

# On a shared 2-vCPU x86_64 host, CPU speed was seen to swing by up to
# ~1.6x over a few seconds, so set-up is timed at SETUP_POINTS points spread evenly over the measured time, not
# once at the start.  At each point a set-up repeats until SETUP_BURST_S
# has passed, so a millisecond set-up gives many samples; setup_s is the
# median of all of them.
SETUP_POINTS = 3
SETUP_BURST_S = 0.1

# The same swings, and drifts of 1.7x within an hour on that host, make raw
# wall times of one commit disagree between sets of runs.  So before every
# operation the run times PROBE_REPEATS calls of host_probe, a fixed
# pure-Python loop that no change to the package can touch, and the time
# metrics are rescaled to a host on which the probe takes PROBE_NOMINAL_S
# (about its time on that host, Python 3.11, when it is quiet):
# wall_s = median operation wall time * PROBE_NOMINAL_S / median probe time.
# The raw medians and the host factor are kept in the result file.
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 0.008
STROKE_FRACTION_TOL = 0.01  # final_z within 1% of cycles x stroke (as AC-5)

# The recorded runs: nominal five-module station, 0.7r object, noisy sensor.
NOISY_CONFIG = {"plant": {"noise_sigma": 0.05}}

# (name, base config, {field: perturbation band}, expected outcome).
# Seed 0 runs the base values; other seeds draw each banded field uniformly
# from its band.  Bands were scanned so that the outcome, the cycle count
# and the number of promotions stay those of the base scenario.
SCENARIOS = (
    ("nominal", {}, {"radius_r_o": (17.5, 18.25), "length_L_o": (74.6, 75.8)},
     "object exited"),
    ("thin", {"object": {"radius_r_o": 10.0}},
     {"radius_r_o": (9.0, 10.5), "length_L_o": (74.6, 75.8)}, "undetectable object"),
    ("rings", {"station": {"longitudinal_height": 10.0}, "object": {"length_L_o": 50.0},
               "control": {"max_cycles": 10}, "run": {"duration_s": 300.0}},
     {"radius_r_o": (17.5, 18.25), "length_L_o": (48.5, 49.8)}, "cycle budget reached"),
    ("nine", {"station": {"module_count": 9}, "object": {"length_L_o": 115.0},
              "run": {"duration_s": 300.0}},
     {"radius_r_o": (17.5, 18.25), "length_L_o": (114.5, 119.5)}, "object exited"),
)

END_TO_END = {"wall_s": "s", "ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import peristation from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import peristation
        import peristation.cli
    except ImportError as e:
        raise SystemExit(f"run_bench: cannot import peristation from {SRC}: {e}")
    if Path(peristation.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"run_bench: peristation imported from {peristation.__file__}, "
                         f"not from {SRC}")
    return peristation


ps = None  # the package, bound in main() so that importing this file has no effects


def file_digest(path: Path) -> tuple[str, int, int]:
    """sha256, row count (lines after the header) and size of a telemetry file."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines - 1, os.path.getsize(path)


def write_yaml(path: Path, config: dict) -> Path:
    # JSON is a subset of YAML, so no YAML emitter is needed
    path.write_text(json.dumps(config))
    return path


def cli(*argv) -> tuple[int, str]:
    """Run `peristation argv...` in-process; return exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ps.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def telemetry_ticks(path: Path, dt: float) -> int:
    """Controller ticks in a telemetry file: one per distinct time stamp."""
    with open(path, "rb") as f:
        f.seek(max(0, os.path.getsize(path) - 4096))
        last = f.read().splitlines()[-1]
    return round(float(last.split(b",", 1)[0]) / dt) + 1


def check_invariants(stats: dict, outcome: str, stroke: float, fails: list):
    """What holds for every seed: the outcome class, no drops or faults, and
    an object that rose one stroke per completed cycle."""
    if stats["outcome"] != outcome:
        fails.append(f"outcome {stats['outcome']!r}, expected {outcome!r}")
    if stats["drops"] or stats["faults"]:
        fails.append(f"{stats['drops']} drops, {stats['faults']} faults")
    final_z, cycles = stats["final_z"], stats["cycles"]
    if cycles < 1 or abs(final_z - cycles * stroke) > STROKE_FRACTION_TOL * cycles * stroke:
        fails.append(f"final_z {final_z} not within 1% of {cycles} cycles x {stroke} mm")


def compare(observed: dict, golden: dict, where: str, fails: list):
    for key, want in golden.items():
        if observed.get(key) != want:
            fails.append(f"{where}: {key} = {observed.get(key)!r}, golden {want!r}")


def load_checked(path: Path):
    """load_config, failing on any rule violation; then the design sweep.

    The sweep over the chamber count is the design stage of the quick
    start; it is set-up work and runs in microseconds.
    """
    cfg = ps.load_config(str(path))
    if cfg.problems:
        raise RuntimeError(f"{path.name}: config problems: {cfg.problems}")
    ps.sweep(cfg.geometry, cfg.material, cfg.params.P_max, "N", list(range(1, 11)))
    return cfg


def stroke_of(cfg) -> float:
    """Object rise per transport cycle: the stroke of a longitudinal ring (mm)."""
    return ps.LONGITUDINAL_STROKE_FRACTION * cfg.layout.module(2).height_h


def record_pipeline(work: Path, config: Path, seed: int, tag: str) -> tuple[Path, Path, dict]:
    """`calibrate` then `run --baselines`, as the quick start does.

    Returns the baselines and telemetry paths and the run's summary stats.
    """
    baselines, telemetry = work / f"{tag}-baselines.csv", work / f"{tag}-telemetry.csv"
    code, _ = cli("calibrate", "--config", config, "--seed", seed, "--out", baselines)
    if code != 0:
        raise RuntimeError(f"calibrate exited {code}")
    code, stdout = cli("run", "--config", config, "--baselines", baselines, "--seed", seed,
                       "--out", telemetry)
    if code != 0:
        raise RuntimeError(f"run exited {code}: {stdout}")
    return baselines, telemetry, run_stats(stdout)


def run_stats(stdout: str) -> dict:
    """The stats in the summary `run` prints ("key: value" lines)."""
    s = dict(line.split(": ", 1) for line in stdout.splitlines()
             if ": " in line and not line.startswith(" "))
    return {
        "outcome": s["outcome"], "cycles": int(s["cycles"]), "probes": int(s["probes"]),
        "positives": int(s["detections"]), "drops": int(s["drops"]),
        "faults": int(s["faults"]), "final_z": float(s["final z"].split()[0]),
    }


def result_stats(res, dt: float) -> dict:
    return {
        "outcome": res.outcome, "cycles": res.cycles, "probes": len(res.detections),
        "positives": res.positive_detections,
        "drops": sum(1 for _, _, text in res.events if text.startswith("drop")),
        "faults": len(res.faults), "sim_time_s": res.sim_time_s, "final_z": res.final_z,
        "ticks": round(res.sim_time_s / dt) + 1,
    }


class Op:
    """One timed operation: its output, then what checking it found."""

    def __init__(self, output, rows_read: int = 0, written=None):
        self.output = output  # dropped after checking
        self.rows_read = rows_read  # telemetry rows parsed
        self.written = written  # telemetry file written, if any
        self.rows_written = 0
        self.bytes_written = 0
        self.ticks = 0  # controller ticks run, filled in by check()
        self.checks: list[tuple[str, list]] = []  # (label, failures) per checked output
        self.wall_s = 0.0


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, golden: dict, work: Path):
        self.seed = seed
        self.golden = golden
        self.work = work
        self.noise_seed = seed % 2**32

    def setup(self):
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op):
        """Fill in op.ticks and op.checks (untimed)."""
        raise NotImplementedError

    def verify(self) -> list:
        """Untimed checked operations run once after measuring: [(label, failures)]."""
        return []


class StationRecord(Workload):
    name = "station_record"
    first_sha = None  # of the first telemetry an operation wrote

    def setup(self):
        self.config = write_yaml(self.work / "station.yaml", NOISY_CONFIG)
        self.cfg = load_checked(self.config)

    def verify(self) -> list:
        """Both golden telemetry files, whatever the seed."""
        checks = []
        sums = self.golden["telemetry_sha256"]
        path = self.work / "golden-noiseless.csv"
        code, _ = cli("run", "--out", path)
        fails = [] if code == 0 else [f"run exited {code}"]
        if file_digest(path)[0] != sums["noiseless"]:
            fails.append("noiseless nominal telemetry differs from its golden sha256")
        checks.append(("golden noiseless telemetry", fails))
        config = write_yaml(self.work / "golden-noisy.yaml", NOISY_CONFIG)
        _, path, _ = record_pipeline(self.work, config, 0, "golden-noisy")
        fails = []
        if file_digest(path)[0] != sums["noisy_seed0"]:
            fails.append("seed-0 noisy telemetry differs from its golden sha256")
        checks.append(("golden noisy telemetry", fails))
        return checks

    def op(self) -> Op:
        _, telemetry, stats = record_pipeline(self.work, self.config, self.noise_seed, "station")
        return Op(stats, written=telemetry)

    def check(self, op: Op):
        telemetry, stats = op.written, op.output
        op.ticks = telemetry_ticks(telemetry, self.cfg.params.dt)
        fails = []
        sha, op.rows_written, op.bytes_written = file_digest(telemetry)
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            fails.append("telemetry differs between identical runs")
        check_invariants(stats, "object exited", stroke_of(self.cfg), fails)
        if self.seed == 0:
            compare(dict(stats, ticks=op.ticks), self.golden[self.name], "seed 0", fails)
            if sha != self.golden["telemetry_sha256"]["noisy_seed0"]:
                fails.append("telemetry differs from its golden sha256")
        op.checks.append(("station_record run", fails))


class ScenarioBatch(Workload):
    name = "scenario_batch"

    def setup(self):
        rng = random.Random(self.seed)
        self.runs = []
        for name, base, bands, outcome in SCENARIOS:
            config = copy.deepcopy(base)
            if self.seed != 0:
                obj = config.setdefault("object", {})
                for key, (lo, hi) in bands.items():
                    obj[key] = rng.uniform(lo, hi)
            path = write_yaml(self.work / f"{name}.yaml", config)
            cfg = load_checked(path)
            baselines = self.work / f"{name}-baselines.csv"
            code, _ = cli("calibrate", "--config", path, "--out", baselines)
            if code != 0:
                raise RuntimeError(f"{name}: calibrate exited {code}")
            detection = replace(cfg.detection,
                                baseline_rates=ps.load_baselines(str(baselines)))
            self.runs.append((name, cfg, detection, outcome))

    def op(self) -> Op:
        results = []
        for _, cfg, detection, _ in self.runs:
            plant = ps.Plant(cfg.layout, ps.ObjectState(cfg.object_spec, cfg.initial_z),
                             cfg.params, cfg.material)
            results.append(ps.run_station(ps.SimulatedBackend(plant), cfg.layout,
                                          cfg.object_spec, cfg.initial_z, cfg.params,
                                          detection, cfg.control, cfg.duration_s))
        return Op(results)

    def check(self, op: Op):
        for (name, cfg, _, outcome), res in zip(self.runs, op.output):
            stats = result_stats(res, cfg.params.dt)
            op.ticks += stats["ticks"]
            fails = []
            check_invariants(stats, outcome, stroke_of(cfg), fails)
            if self.seed == 0:
                compare(stats, self.golden[self.name][name], f"seed 0 {name}", fails)
            op.checks.append((f"scenario {name}", fails))


class Replay(Workload):
    name = "replay"

    def setup(self):
        config = write_yaml(self.work / "station.yaml", NOISY_CONFIG)
        self.cfg = load_checked(config)
        baselines, self.telemetry, self.live = record_pipeline(
            self.work, config, self.noise_seed, "recording")
        self.recording_sha = file_digest(self.telemetry)[0]
        self.detection = replace(self.cfg.detection,
                                 baseline_rates=ps.load_baselines(str(baselines)))

    def op(self) -> Op:
        cfg = self.cfg
        samples = ps.read_telemetry(str(self.telemetry))
        backend = ps.ReplayBackend(samples, cfg.params.dt)
        res = ps.run_station(backend, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                             self.detection, cfg.control, cfg.duration_s)
        return Op((res, backend.mismatches), rows_read=len(samples))

    def check(self, op: Op):
        res, mismatches = op.output
        cfg = self.cfg
        stats = result_stats(res, cfg.params.dt)
        op.ticks = stats["ticks"]
        fails = []
        if mismatches:
            fails.append(f"{mismatches} replay mismatches")
        live = self.live
        for key in ("outcome", "cycles", "probes", "positives"):
            if stats[key] != live[key]:
                fails.append(f"replay {key} {stats[key]!r}, live {live[key]!r}")
        check_invariants(stats, "object exited", stroke_of(cfg), fails)
        if self.seed == 0:
            compare(stats, self.golden[self.name], "seed 0", fails)
            if self.recording_sha != self.golden["telemetry_sha256"]["noisy_seed0"]:
                fails.append("recording differs from its golden sha256")
        op.checks.append(("replay", fails))


WORKLOADS = {w.name: w for w in (StationRecord, ScenarioBatch, Replay)}


# -- measurement -----------------------------------------------------------------


class Ledger:
    """Attempted and failed checked operations, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, fails: list):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(fails)}")


def host_probe() -> float:
    """Seconds that a fixed integer loop takes now: one host-speed sample."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


def timed_setup(workload: Workload, times: list[float]):
    t_end = time.perf_counter() + SETUP_BURST_S
    while True:
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= t_end:
            return


def measure(workload: Workload, seconds: float, ledger: Ledger, setups=None,
            probes=None, tracer=None) -> list[Op]:
    """Run and check operations until they have taken `seconds` in all.

    With a `setups` list, the workload is set up at SETUP_POINTS evenly
    spaced points of that time, the first before any operation, and the
    set-up times are appended to the list; otherwise it must be set up
    already.  With a `probes` list, host_probe times taken before each
    operation and after the last are appended to it.  Returns the operations that completed, less the first, which
    warms caches and lazy state and is checked but not timed.  An exception
    counts as one failed operation; the run goes on, as a user's next run
    would.
    """
    ops = []
    spent = 0.0
    points = 0 if setups is not None else SETUP_POINTS
    attempts = 0
    while attempts == 0 or spent < seconds:
        if points < SETUP_POINTS and spent >= points * seconds / SETUP_POINTS:
            timed_setup(workload, setups)
            points += 1
        attempts += 1
        if probes is not None:
            probes.extend(host_probe() for _ in range(PROBE_REPEATS))
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter_ns()
        try:
            op = workload.op()
            t1 = time.perf_counter_ns()
            workload.check(op)
        except Exception:
            spent += (time.perf_counter_ns() - t0) / 1e9
            ledger.add(f"{workload.name} op", [traceback.format_exc(limit=3).strip()])
            continue
        op.output = None
        op.wall_s = (t1 - t0) / 1e9
        spent += op.wall_s
        for label, fails in op.checks:
            ledger.add(label, fails)
        ops.append(op)
    if probes is not None:
        probes.extend(host_probe() for _ in range(PROBE_REPEATS))
    return ops[1:] if len(ops) > 1 else ops


def ticks_per_s(ops: list[Op]) -> float:
    return statistics.median(op.ticks / op.wall_s for op in ops)


def end_to_end(ops: list[Op], setups: list[float], host_factor: float) -> dict:
    """The end-to-end metrics, times divided by host_factor (1 = nominal host speed)."""
    return {
        "wall_s": statistics.median(op.wall_s for op in ops) / host_factor,
        "ticks_per_s": ticks_per_s(ops) * host_factor,
        "setup_s": statistics.median(setups) / host_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Per-layer metric -> unit.  The comments say which end-to-end metric a
# change to that layer should move, on which workload; a workload not named
# is predicted unchanged.
PER_LAYER_UNITS = {
    # ticks_per_s on scenario_batch, less on station_record; not on replay
    "plant.step.calls": "count",
    "plant.step.us_per_call": "us",
    # sampling and noise cost (tick minus Plant.step): ticks_per_s on
    # station_record (noise path), less on scenario_batch
    "hal.tick.self_us_per_call": "us",
    # ticks_per_s on all three workloads
    "hal.read_pressure.calls_per_tick": "calls/tick",
    "hal.set_valve.calls": "count",
    # ticks_per_s on scenario_batch and replay
    "control.update.calls": "count",
    "control.update.us_per_call": "us",
    "control.detect_contact.calls": "count",
    "control.probe.positive_ratio": "ratio",
    "control.run_station.self_s": "s",
    # wall_s on station_record only
    "telemetry.record.us_per_call": "us",
    "telemetry.rows": "count",
    "telemetry.bytes": "B",
    # wall_s and peak_rss_mb on replay only
    "telemetry.read.s": "s",
    "telemetry.read.rows_per_s": "1/s",
    "hal.replay_init.s": "s",
    # setup_s, and wall_s on station_record (whose operation calibrates);
    # geometry runs in microseconds and is shown only to rule it out
    "config.load_config.ms": "ms",
    "control.calibrate_baseline.ms": "ms",
    "geometry.sweep.us_per_call": "us",
    # self time per operation of each layer (the package modules)
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    # untraced minus traced ticks_per_s of the same run
    "trace.overhead_ticks_per_s": "1/s",
}


def per_layer(op_calls: dict, setup_calls: dict, ops: list[Op], overhead: float) -> dict:
    """Per-layer metrics; counts and times are per operation unless named per call.

    The set-up metrics (load_config, calibrate_baseline, sweep) are per call
    over set-up and operations together; the rest cover operations only.
    """
    n_ops = len(ops)
    all_calls = {name: tuple(a + b for a, b in zip(stat, setup_calls[name]))
                 for name, stat in op_calls.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, unit_ns, calls=op_calls):
        c, total, _ = calls[name]
        return ratio(total / unit_ns, c)

    count = {name: stat[0] for name, stat in op_calls.items()}
    ticks = count["hal.tick"]
    probes = count["control.detect_contact"]
    read_s = op_calls["telemetry.read"][1] / 1e9
    m = {
        "plant.step.calls": count["plant.step"] / n_ops,
        "plant.step.us_per_call": per_call("plant.step", 1e3),
        "hal.tick.self_us_per_call": ratio(op_calls["hal.tick"][2] / 1e3, ticks),
        "hal.read_pressure.calls_per_tick": ratio(count["hal.read_pressure"], ticks),
        "hal.set_valve.calls": count["hal.set_valve"] / n_ops,
        "control.update.calls": count["control.update"] / n_ops,
        "control.update.us_per_call": per_call("control.update", 1e3),
        "control.detect_contact.calls": probes / n_ops,
        "control.probe.positive_ratio": ratio(count["control.probe.positives"], probes),
        "control.run_station.self_s": op_calls["control.run_station"][2] / 1e9 / n_ops,
        "telemetry.record.us_per_call": per_call("telemetry.record", 1e3),
        "telemetry.rows": sum(op.rows_written for op in ops) / n_ops,
        "telemetry.bytes": sum(op.bytes_written for op in ops) / n_ops,
        "telemetry.read.s": read_s / n_ops,
        "telemetry.read.rows_per_s": ratio(sum(op.rows_read for op in ops), read_s),
        "hal.replay_init.s": op_calls["hal.replay_init"][1] / 1e9 / n_ops,
        "config.load_config.ms": per_call("config.load_config", 1e6, all_calls),
        "control.calibrate_baseline.ms": per_call("control.calibrate_baseline", 1e6, all_calls),
        "geometry.sweep.us_per_call": per_call("geometry.sweep", 1e3, all_calls),
        "trace.overhead_ticks_per_s": overhead,
    }
    for layer, self_ns in Tracer.layer_self_ns(op_calls).items():
        m[f"layer.{layer}.self_s"] = self_ns / 1e9 / n_ops
    return m


def stamp() -> dict:
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    import numpy
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, golden: dict,
        work: Path) -> dict:
    """Set up, measure and check one workload; return the full result."""
    ledger = Ledger()
    workload = WORKLOADS[workload_name](seed, golden, work)
    result = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        setups, probes = [], []
        ops = measure(workload, seconds, ledger, setups=setups, probes=probes)
        host_factor = statistics.median(probes) / PROBE_NOMINAL_S
        metrics = end_to_end(ops, setups, host_factor) if ops else {}
        result.update(setup_s=setups, probe_s=probes, host_factor=host_factor,
                      raw=end_to_end(ops, setups, 1.0) if ops else {})
    else:
        tracer = Tracer()
        with tracer.patched(ps):
            timed_setup(workload, [])
        setup_calls = tracer.take_calls()
        # a third of the time untraced, for the tracing overhead
        untraced = measure(workload, seconds / 3, ledger)
        with tracer.patched(ps):
            ops = measure(workload, seconds * 2 / 3, ledger, tracer=tracer)
        op_calls = tracer.take_calls()
        metrics = {}
        if ops and untraced:
            overhead = ticks_per_s(untraced) - ticks_per_s(ops)
            metrics = per_layer(op_calls, setup_calls, ops, overhead)
        result["calls"] = {"setup": setup_calls, "ops": op_calls}
        result["spans"] = tracer.spans
    try:
        for label, fails in workload.verify():
            ledger.add(label, fails)
    except Exception:
        ledger.add(f"{workload.name} verify", [traceback.format_exc(limit=3).strip()])
    result.update(
        stamp=stamp(),
        metrics=metrics,
        wall_s=[op.wall_s for op in ops],
        ticks=[op.ticks for op in ops],
        attempted=ledger.attempted,
        failed=ledger.failed,
        error_rate=ledger.failed / ledger.attempted,
        failures=ledger.failures,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global ps
    ps = import_package()
    golden = json.loads(GOLDEN_PATH.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))

    units = PER_LAYER_UNITS if args.trace else END_TO_END
    n = len(result["wall_s"])
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if "raw" in result:
        raw = ", ".join(f"{name} {value:.6g}" for name, value in result["raw"].items())
        print(f"{args.workload} host factor = {result['host_factor']:.4g}; raw: {raw}")
    print(f"{args.workload} samples = {n} ops; error_rate = {result['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for line in result["failures"]:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": result["failed"] == 0 and bool(result["metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
