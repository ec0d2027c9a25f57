"""End-to-end acceptance checks.

Each test exercises one shipped guarantee at its stated tolerance and prints
a single AC-n PASS/FAIL line (visible with -s, or in captured output).
"""

import math
import time

import pytest

from peristation import (
    HOLD,
    ControlConfig,
    DetectionConfig,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    ReplayBackend,
    RingGeometry,
    SimulatedBackend,
    SurrogateMaterial,
    build_station,
    calibrate_kappa,
    load_baselines,
    load_config,
    read_telemetry,
    run_station,
    sweep,
    time_to_contact,
    validate_geometry,
)
from peristation.cli import main
from tests.conftest import NOMINAL


def check(n, desc, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else ": " + "; ".join(failures)
    print(f"AC-{n} {status}: {desc}{detail}")
    assert not failures, f"AC-{n}: {desc}{detail}"


def nominal_setup():
    g = RingGeometry(**NOMINAL)
    mat = SurrogateMaterial(100.0, 0.45, calibrate_kappa(g, 100.0, 0.69, 15.0))
    return g, mat


def full_run(material, ror, hl=20.0, length=75.0, control=None, duration=120.0,
             recorder=None):
    g = RingGeometry(**NOMINAL)
    params = PlantParams()
    layout = build_station(g, 5, 20.0, hl)
    spec = ObjectSpec(ror * 25.0, length)
    backend = SimulatedBackend(Plant(layout, ObjectState(spec, 0.0), params, material))
    return run_station(backend, layout, spec, 0.0, params, DetectionConfig(),
                       control or ControlConfig(), duration, recorder=recorder)


class MemoryRecorder:
    """Collects ground-truth object motion and command firsts, no file IO."""

    def __init__(self):
        self.z = []
        self.drops = 0
        self.first_positive = None
        self.first_l4_command = None

    def record(self, now, rows, valves, phase, layout, events):
        # one call per run of ticks sharing valves; events belong to its first tick
        self.z.extend(rows.object_z.tolist())
        if self.first_l4_command is None and valves[4] != HOLD:
            self.first_l4_command = now[0]
        for _, text in events:
            if text.startswith("drop"):
                self.drops += 1
            if (self.first_positive is None and text.startswith("detection")
                    and "contact=1" in text):
                self.first_positive = now[0]


def test_ac1_geometry_constraint_accuracy_and_speed():
    g, _ = nominal_setup()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        report = validate_geometry(g)
        best = min(best, time.perf_counter() - t0)
    arc = math.pi * (g.outer_radius_R + g.inner_radius_r)
    rel_err = abs((g.chamber_length_s + g.chamber_spacing_l) * g.chamber_count_N - arc) / arc

    failures = []
    if not report.passed:
        failures.append(f"violations: {report.violations}")
    if not 0.0009 < rel_err < 0.0011:
        failures.append(f"packing error {rel_err:.6f} not ~0.1%")
    if best >= 1e-3:
        failures.append(f"validation took {best * 1e3:.3f} ms")
    check(1, "nominal ring passes validation in < 1 ms with ~0.1% packing slack", failures)


def test_ac2_calibration_recovers_free_rate(tmp_path, capsys):
    out = str(tmp_path / "baselines.csv")
    code = main(["calibrate", "--out", out])
    capsys.readouterr()
    rates = load_baselines(out) if code == 0 else {}

    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if sorted(rates) != [1, 3, 5]:
        failures.append(f"expected rings 1,3,5, got {sorted(rates)}")
    for mid, rate in rates.items():
        if abs(rate - 4.33) / 4.33 > 1e-4:
            failures.append(f"module {mid}: {rate} vs 4.33")
    check(2, "no-object calibration yields 4.33 kPa/s per grasp ring (1e-4 rel)", failures)


def test_ac3_detection_ratio_by_object_size(material):
    t0 = time.perf_counter()
    wide = full_run(material, 0.7)
    thin = full_run(material, 0.4)
    wall = time.perf_counter() - t0

    failures = []
    positives = [d for d in wide.detections if d.contact]
    if not positives:
        failures.append("no positive detection for r_o = 0.7r")
    for d in positives:
        if d.module_id != 5:
            failures.append(f"positive detection on module {d.module_id}")
        if abs(d.ratio - 1.96) > 0.05:
            failures.append(f"0.7r ratio {d.ratio:.4f} not within 1.96 +/- 0.05")
    if not thin.detections:
        failures.append("no probe completed for r_o = 0.4r")
    for d in thin.detections:
        if d.contact:
            failures.append("0.4r probe declared contact")
        if abs(d.ratio - 1.00) > 0.05:
            failures.append(f"0.4r ratio {d.ratio:.4f} not within 1.00 +/- 0.05")
    if wall >= 5.0:
        failures.append(f"scenarios took {wall:.2f} s")
    check(3, "probe ratio ~1.96 at 0.7r, ~1.00 (no contact) at 0.4r, under 5 s", failures)


def test_ac4_contact_stage_timing(geometry, material, params):
    t = time_to_contact(0.7, params, geometry, material)
    failures = []
    if abs(t - 1.50) > 0.02:
        failures.append(f"time_to_contact(0.7r) = {t:.4f} s")
    check(4, "free inflation reaches a 0.7r object in 1.50 +/- 0.02 s", failures)


def test_ac5_transport_soundness(material):
    rec = MemoryRecorder()
    res = full_run(material, 0.7, hl=10.0, length=50.0,
                   control=ControlConfig(max_cycles=10), duration=300.0, recorder=rec)
    advance = 10 * 0.3 * 10.0  # ten strokes of the 10 mm longitudinal rings

    failures = []
    if res.cycles != 10:
        failures.append(f"{res.cycles} cycles")
    if abs(res.final_z - advance) > 0.01 * advance:
        failures.append(f"final z {res.final_z:.4f} vs {advance}")
    if not all(b >= a - 1e-9 for a, b in zip(rec.z, rec.z[1:])):
        failures.append("object z not monotone")
    if rec.drops:
        failures.append(f"{rec.drops} drops")
    if rec.first_positive is None or rec.first_l4_command is None:
        failures.append("missing detection or level-1 stroke command")
    elif not rec.first_positive < rec.first_l4_command:
        failures.append(
            f"detection at {rec.first_positive} not before L-4 command "
            f"at {rec.first_l4_command}"
        )
    check(5, "10 cycles advance 10 strokes (1%), monotone, dropless, detect-then-promote",
          failures)


def test_ac6_undetectable_object_still_transported(material):
    res = full_run(material, 0.4)
    failures = []
    if res.cycles < 1:
        failures.append("no transport cycle completed")
    if res.positive_detections != 0:
        failures.append(f"{res.positive_detections} positive detections")
    if any(text.startswith("drop") for _, _, text in res.events):
        failures.append("object dropped")
    if res.faults:
        failures.append(f"faults: {res.faults}")
    if res.outcome != "undetectable object":
        failures.append(f"outcome {res.outcome!r}")
    check(6, "0.4r object transports through the base unit, zero detections, zero drops",
          failures)


def test_ac7_sweep_trends(geometry, material):
    t0 = time.perf_counter()
    by_n = sweep(geometry, material, 15.0, "N", list(range(1, 11)))
    by_t = sweep(geometry, material, 15.0, "t", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    by_l = sweep(geometry, material, 15.0, "l", [6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0])
    wall = time.perf_counter() - t0

    failures = []
    d = {v: s for v, s in by_n.samples}
    best_n = by_n.argmax()[0]
    if best_n not in (3, 4, 5, 6):
        failures.append(f"argmax N = {best_n}")
    if not (d[1] < d[3] and d[2] < d[3]):
        failures.append("chamber-count trend broken at the low end")
    for result, name in ((by_t, "t"), (by_l, "l")):
        values = [s for _, s in result.samples]
        if any(s is None for s in values) or any(
                b >= a for a, b in zip(values, values[1:])):
            failures.append(f"d_c/r not strictly decreasing over {name}")
    if wall >= 1.0:
        failures.append(f"sweeps took {wall:.2f} s")
    check(7, "inflation peaks at moderate N and falls with wall thickness and spacing",
          failures)


def test_ac8_determinism_and_replay(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code_a = main(["run", "--seed", "0", "--duration", "70", "--out", a])
    code_b = main(["run", "--seed", "0", "--duration", "70", "--out", b])
    capsys.readouterr()

    failures = []
    if code_a != 0 or code_b != 0:
        failures.append(f"exit codes {code_a}, {code_b}")
    bytes_a = open(a, "rb").read()
    if bytes_a != open(b, "rb").read():
        failures.append("telemetry differs between identical runs")
    if len(bytes_a) == 0:
        failures.append("empty telemetry")

    cfg = load_config(None)
    replay = ReplayBackend(read_telemetry(a), cfg.params.dt)
    res = run_station(replay, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                      cfg.detection, cfg.control, 70.0)
    if replay.mismatches != 0:
        failures.append(f"{replay.mismatches} replay mismatches")
    if res.outcome != "object exited":
        failures.append(f"replay outcome {res.outcome!r}")
    check(8, "same seed is byte-identical; replay issues zero mismatched commands",
          failures)


def test_ac9_simulation_throughput(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    t0 = time.perf_counter()
    code = main(["run", "--duration", "60", "--out", out])
    wall = time.perf_counter() - t0
    capsys.readouterr()

    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if wall >= 5.0:
        failures.append(f"60 s simulation took {wall:.2f} s")
    check(9, "60 simulated seconds of the 5-module station complete in < 5 s", failures)
