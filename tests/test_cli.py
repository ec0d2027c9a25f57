"""CLI subcommands: exit codes, printed summaries, emitted files."""

import contextlib
import errno
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peristation
from peristation import TELEMETRY_HEADER, BASELINES_HEADER, ConfigError
from peristation import cli
from peristation.cli import build_parser, main, parse_range
from peristation.config import (
    DEFAULT_CONTROL,
    DEFAULT_DETECTION,
    DEFAULT_GEOMETRY,
    DEFAULT_MATERIAL,
    DEFAULT_OBJECT,
    DEFAULT_PLANT,
    DEFAULT_STATION,
)

SMALL_RUN = (
    "station:\n"
    "  module_count: 3\n"
    "control:\n"
    "  max_cycles: 1\n"
    "run:\n"
    "  duration_s: 40.0\n"
)


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# The CLI, after limiting its process to 1 GiB of address space.
CHILD = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from peristation.cli import main; sys.exit(main(sys.argv[1:]))")


# CHILD, reading configs with the yaml loader that argv names first.
LOADER_CHILD = ("import sys, yaml; from peristation import config; "
                "config._LOADER = getattr(yaml, sys.argv.pop(1)); " + CHILD)


# CHILD, with files held to the size that argv names first; a write past it
# fails with EFBIG instead of ending the process on SIGXFSZ.
FSIZE_CHILD = ("import resource, signal, sys; sys.dont_write_bytecode = True; "
               "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); limit = int(sys.argv.pop(1)); "
               "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)); " + CHILD)


def run_child(argv, timeout=60, code=CHILD):
    """The CLI in a child process, held to 1 GiB and killed after timeout s: an
    input that loops or grows without bound fails the test (TimeoutExpired, or a
    MemoryError traceback) instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(peristation.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestParseRange:
    def test_colon_form_includes_stop(self):
        assert parse_range("2:6:1") == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_fractional_step_reaches_stop(self):
        values = parse_range("1:2:0.1")
        assert len(values) == 11
        assert values[-1] == pytest.approx(2.0)

    def test_comma_list(self):
        assert parse_range("1,2.5,3") == [1.0, 2.5, 3.0]
        assert parse_range("4") == [4.0]

    @pytest.mark.parametrize(
        "spec",
        ["", "1:2", "1:2:3:4", "a:b:c", "1:2:0", "1:2:-1", "5:1:1", "a,b"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_range(spec)

    @pytest.mark.parametrize("spec", ["nan:1:1", "0:inf:1", "0:1:nan", "-inf:0:1", "1,nan"])
    def test_nonfinite_parts_rejected(self, spec):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_range(spec)

    @pytest.mark.parametrize("spec", ["0:1:1e-12", "-1e308:1e308:1", "0:1e300:1e-300"])
    def test_too_many_values_rejected(self, spec):
        with pytest.raises(ConfigError, match="more than 10000 values"):
            parse_range(spec)

    def test_the_cap_itself_is_accepted(self):
        assert len(parse_range("1:10000:1")) == 10000


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_choice_is_a_usage_error(self, capsys):
        assert main(["sweep", "--param", "R", "--range", "1:2:1"]) == 2
        capsys.readouterr()

    def test_python_dash_m(self, tmp_path):
        """python -m peristation is the command line, exit code included."""
        env = {**os.environ, "PYTHONPATH": str(Path(peristation.__file__).parents[1])}
        for argv, code in ([], 0), (["--config", str(tmp_path / "absent.yaml")], 2):
            done = subprocess.run([sys.executable, "-m", "peristation", "validate", *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == code
            assert ("config: OK" in done.stdout) == (code == 0), done.stdout

    @pytest.mark.parametrize("unbuffered", ["", "1"])  # a write fails at once, or at the flush
    @pytest.mark.parametrize("command", ["validate", "calibrate"])
    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path, command, unbuffered):
        """A reader that has gone away (`peristation validate | head -0`) ends
        the command with exit code 1, nothing on stderr, and a baselines file
        that is complete or absent."""
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\n")
        out = tmp_path / "baselines.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(peristation.__file__).parents[1]),
               "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "peristation", command, "--config", cfg,
                                   *(["--out", str(out)] if command == "calibrate" else [])],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")
        if out.exists():
            assert out.read_text() == BASELINES_HEADER + "\n1,4.330000\n3,4.330000\n"


class TestValidate:
    def test_defaults_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "geometry: OK" in out
        assert "station: OK (5 modules)" in out
        assert "config: OK" in out

    def test_broken_yaml_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "geometry: [unclosed")
        assert main(["validate", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().out

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero here")
    def test_endless_text_exits_2_at_its_first_character(self, loader):
        """The loader reads a config as far as it parses, so a stream of NULs
        ends at the first one (in a child, held to 1 GiB, in case it does not)."""
        done = run_child([loader.__name__, "validate", "--config", "/dev/zero"],
                         code=LOADER_CHILD)
        assert (done.returncode, done.stderr) == (2, "")
        assert done.stdout.startswith("config error: not valid YAML: unacceptable character #x0000")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.yaml")]) == 2
        assert "config error:" in capsys.readouterr().out

    def test_incomplete_geometry_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "geometry:\n  inner_radius_r: 25.0\n")
        assert main(["validate", "--config", cfg]) == 2
        assert "missing required field" in capsys.readouterr().out

    def test_nonfinite_plant_value_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "plant:\n  P_max: .nan\n")
        assert main(["validate", "--config", cfg]) == 1
        assert "FAIL plant: P_max must be finite, got nan" in capsys.readouterr().out

    @pytest.mark.parametrize("text, problem", [
        ("detection:\n  window_len: .inf\n", "detection: window_len must be finite, got inf"),
        ("detection:\n  window_start: .inf\n", "detection: window_start must be finite"),
        ("detection:\n  min_window_samples: 1\n", "detection: min_window_samples must be >= 2"),
        ("detection:\n  saturation_fraction: 1.5\n",
         "detection: saturation_fraction must be in (0, 1]"),
        ("control:\n  phase_timeout_s: .inf\n", "control: phase_timeout_s must be finite"),
        ("control:\n  max_cycles: -3\n", "control: max_cycles must be >= 0"),
        ("control:\n  max_cycles_per_level: 0\n", "control: max_cycles_per_level must be >= 1"),
        ("plant:\n  rng_seed: -1\n", "plant: rng_seed must be >= 0"),
        ("object:\n  initial_z: .nan\n", "object: initial_z must be finite and >= 0, got nan"),
        ("run:\n  duration_s: .inf\n", "run: duration_s must be finite, got inf"),
        ("station:\n  modules:\n    - {kind: Compression, height: .nan}\n"
         "    - {kind: Longitudinal}\n    - {kind: Compression}\n",
         "station: module 1: height_h must be finite, got nan"),
        ("station:\n  compression_height: .inf\n",
         "station: module 1: height_h must be finite, got inf"),
        ("material:\n  youngs_modulus_E: 0\n",
         "material: youngs_modulus_E must be > 0, got 0"),
        ("material:\n  youngs_modulus_E: .inf\n",
         "material: youngs_modulus_E must be finite, got inf"),
        ("material:\n  youngs_modulus_E: -.inf\n",
         "material: youngs_modulus_E must be finite, got -inf"),
        ("material:\n  youngs_modulus_E: .nan\n",
         "material: youngs_modulus_E must be finite, got nan"),
        ("material:\n  youngs_modulus_E: -1\n",
         "material: youngs_modulus_E must be > 0, got -1"),
        ("material:\n  poisson_ratio_nu: .nan\n",
         "material: poisson_ratio_nu must be finite, got nan"),
        ("material:\n  poisson_ratio_nu: .inf\n",
         "material: poisson_ratio_nu must be finite, got inf"),
        ("material:\n  poisson_ratio_nu: -.inf\n",
         "material: poisson_ratio_nu must be finite, got -inf"),
        ("material:\n  calibration_target: .nan\n",
         "material: target_ratio must be finite and > 0, got nan"),
        ("material:\n  calibration_target: .inf\n",
         "material: target_ratio must be finite and > 0, got inf"),
        ("run:\n  duration_s: 0.0004\n",
         "run: duration_s must be over half a tick (dt = 0.001 s), got 0.0004"),
        ("run:\n  duration_s: 1.0e+306\n",
         "run: duration_s must be a finite number of ticks (dt = 0.001 s), got 1e+306"),
        ("plant:\n  dt: 1.0e-308\n",
         "run: duration_s must be a finite number of ticks (dt = 1e-308 s), got 120.0"),
        (f"plant:\n  P_max: {10 ** 400}\n", "plant: P_max must be finite, got inf"),
        ("geometry:\n" + "".join(f"  {key}: {value}\n" for key, value in
                                 {**DEFAULT_GEOMETRY, "chamber_count_N": 10 ** 400}.items()),
         "geometry: geometry fields must all be finite"),
    ])
    def test_out_of_range_value_exits_1(self, tmp_path, capsys, text, problem):
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {problem}" in out
        assert "config: OK" not in out

    @pytest.mark.parametrize("deflated, code, last", [
        (14.25, 1, "FAIL control: deflated_threshold_kPa must be below the inflated gate "
                   "inflated_fraction * P_max = 14.25 kPa, got 14.25"),
        (math.nextafter(14.25, 0.0), 0, "config: OK"),
    ], ids=["at", "just below"])
    def test_deflated_gate_below_the_inflated_gate(self, tmp_path, capsys, deflated, code, last):
        """The default inflated gate is inflated_fraction * P_max = 0.95 * 15.0 = 14.25 kPa
        (without an object, whose grip a gate that high could not release)."""
        cfg = write_cfg(tmp_path, f"control:\n  deflated_threshold_kPa: {deflated!r}\n"
                                  "object:\n  present: false\n")
        assert main(["validate", "--config", cfg]) == code
        assert capsys.readouterr().out.splitlines()[-1] == last

    @pytest.mark.parametrize("deflated, code, last", [
        (6.521739130434782, 1, "FAIL control: deflated_threshold_kPa must be below the "
                               "contact pressure 6.521739130434782 kPa at which a ring "
                               "reaches the object, got 6.521739130434782"),
        (math.nextafter(6.521739130434782, 0.0), 0, "config: OK"),
        (math.nextafter(14.25, 0.0), 1, "FAIL control: deflated_threshold_kPa must be below the "
                                        "contact pressure 6.521739130434782 kPa at which a ring "
                                        "reaches the object, got 14.249999999999998"),
    ], ids=["at", "just below", "just below the inflated gate"])
    def test_deflated_gate_below_the_contact_pressure(self, tmp_path, capsys, deflated, code,
                                                      last):
        """A ring vented only to the deflated gate must let the object go: the
        nominal rings reach it from 7.5 / 17.25 * 15 kPa, as the plant compares."""
        cfg = write_cfg(tmp_path, f"control:\n  deflated_threshold_kPa: {deflated!r}\n")
        assert main(["validate", "--config", cfg]) == code
        assert capsys.readouterr().out.splitlines()[-1] == last

    def test_huge_module_count_exits_1(self, tmp_path):
        """The count is refused before a module is built (in a child process:
        building that many modules would exhaust memory)."""
        cfg = write_cfg(tmp_path, "station:\n  module_count: 1000000000000000001\n")
        done = run_child(["validate", "--config", cfg])
        assert done.returncode == 1, done.stderr
        assert done.stdout == ("FAIL station: module_count must be <= 9999, "
                               "got 1000000000000000001\n")

    def test_largest_module_count_accepted(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "station:\n  module_count: 9999\n")
        assert main(["validate", "--config", cfg]) == 0
        assert "station: OK (9999 modules)" in capsys.readouterr().out

    def test_rule_violations_exit_1_and_name_each(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "station:\n  module_count: 4\n")
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL station: first and last modules must be Compression" in out
        assert "config: OK" not in out


class TestCalibrate:
    def test_writes_baselines_for_compression_rings(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\n")
        out = str(tmp_path / "baselines.csv")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "module 1: 4.330000 kPa/s" in printed
        assert "module 3: 4.330000 kPa/s" in printed
        assert f"baselines written to {out}" in printed
        assert Path(out).read_text() == BASELINES_HEADER + "\n1,4.330000\n3,4.330000\n"

    def test_contaminated_calibration_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "station:\n  module_count: 3\ncalibration:\n  object_present: true\n",
        )
        out = str(tmp_path / "baselines.csv")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 1
        assert "calibration failed:" in capsys.readouterr().out
        assert not (tmp_path / "baselines.csv").exists()

    def test_window_too_short_for_the_fit_exits_1(self, tmp_path, capsys):
        """A window that starts at 3.39 s, as the ring nears saturation, keeps
        4 samples below the cutoff, fewer than min_window_samples."""
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\ndetection:\n  window_start: 3.39\n")
        out = str(tmp_path / "baselines.csv")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().out == ("calibration failed: insufficient trace: only 4 usable "
                                           "samples in the window (saturation cutoff 14.700 kPa)\n")
        assert not (tmp_path / "baselines.csv").exists()

    def test_slow_vent_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\nplant:\n  k_vent: 1.0\n"
                                  "control:\n  phase_timeout_s: 5.0\n")
        out = tmp_path / "baselines.csv"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "calibration failed: timeout: module 1 stalled venting after calibration")
        assert not out.exists()

    def test_huge_window_exits_1(self, tmp_path):
        """A window past the phase timeout is refused before any ring inflates
        (in a child process: without that bound the wait never ends)."""
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\ndetection:\n"
                                  "  window_len: 1.0e+308\n")
        out = tmp_path / "baselines.csv"
        done = run_child(["calibrate", "--config", cfg, "--out", str(out)])
        assert done.returncode == 1, done.stderr
        assert done.stdout == ("FAIL detection: window_start + window_len + dt must be below "
                               "phase_timeout_s = 10.0 s, got 1e+308\n"
                               "FAIL detection: window_start + window_len + dt must be a finite "
                               "number of ticks (dt = 0.001 s), got 1e+308\n")
        assert not out.exists()

    @pytest.mark.parametrize("window_len, code", [(8.499, 1), (math.nextafter(8.499, 0.0), 0)],
                             ids=["at", "just below"])
    def test_window_ends_before_the_phase_timeout(self, tmp_path, capsys, window_len, code):
        """1.5 + 8.499 + 0.001 s is the default 10 s phase timeout: at it the
        config is refused, and one double below it calibrates."""
        cfg = write_cfg(tmp_path, f"station:\n  module_count: 3\ndetection:\n"
                                  f"  window_len: {window_len!r}\n")
        out = tmp_path / "baselines.csv"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == code
        printed = capsys.readouterr().out
        if code:
            assert printed == ("FAIL detection: window_start + window_len + dt must be below "
                               "phase_timeout_s = 10.0 s, got 10.0\n")
        assert out.exists() == (code == 0)

    def test_noise_seed_reproducibility(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "station:\n  module_count: 3\nplant:\n  noise_sigma: 0.05\n",
        )
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["calibrate", "--config", cfg, "--seed", "7", "--out", a]) == 0
        assert main(["calibrate", "--config", cfg, "--seed", "7", "--out", b]) == 0
        capsys.readouterr()
        assert Path(a).read_text() == Path(b).read_text()


class TestRun:
    def test_small_scenario_summary_and_telemetry(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = str(tmp_path / "telemetry.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        # the object's top already clears a 3-module stack after one stroke
        assert "outcome: object exited" in printed
        assert "cycles: 1" in printed
        assert "drops: 0" in printed
        assert "final z: 6.000000 mm" in printed
        assert "faults: 0" in printed
        assert f"telemetry: {out}" in printed
        with open(out) as f:
            assert f.readline().rstrip("\n") == TELEMETRY_HEADER

    def test_default_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        assert (tmp_path / "telemetry.csv").exists()

    def test_duration_override_must_be_positive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg, "--duration", "0"]) == 1
        assert "FAIL run: duration_s must be > 0" in capsys.readouterr().out

    def test_duration_override_replaces_a_bad_config_duration(self, tmp_path, capsys):
        telemetry = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("40.0", "0"))
        assert main(["run", "--config", cfg, "--duration", "5", "--out", str(telemetry)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert telemetry.exists()

    def test_bad_duration_override_reports_only_itself(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("40.0", "0"))
        assert main(["run", "--config", cfg, "--duration", "nan"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL run: duration_s must be finite, got nan"]

    def test_infinite_duration_exits_1(self, tmp_path, capsys):
        telemetry = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("40.0", ".inf"))
        assert main(["run", "--config", cfg, "--out", str(telemetry)]) == 1
        assert "FAIL run: duration_s must be finite, got inf" in capsys.readouterr().out
        cfg = write_cfg(tmp_path, SMALL_RUN, name="finite.yaml")
        assert main(["run", "--config", cfg, "--duration", "inf", "--out", str(telemetry)]) == 1
        assert "FAIL run: duration_s must be finite, got inf" in capsys.readouterr().out
        assert not telemetry.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_duration_of_no_tick_exits_1(self, tmp_path, capsys, where):
        telemetry = tmp_path / "t.csv"
        argv = ["run", "--out", str(telemetry)]
        if where == "flag":
            argv += ["--config", write_cfg(tmp_path, SMALL_RUN), "--duration", "1e-300"]
        else:
            argv += ["--config", write_cfg(tmp_path, SMALL_RUN.replace("40.0", "0.0005"))]
        assert main(argv) == 1
        duration = "1e-300" if where == "flag" else "0.0005"
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL run: duration_s must be over half a tick (dt = 0.001 s), "
                         f"got {duration}"]
        assert not telemetry.exists()

    @pytest.mark.parametrize("argv, text, problem", [
        (["--duration", "1e308"], SMALL_RUN, "(dt = 0.001 s), got 1e+308"),
        ([], SMALL_RUN.replace("40.0", "1.0e+306"), "(dt = 0.001 s), got 1e+306"),
        ([], SMALL_RUN + "plant:\n  dt: 1.0e-308\n", "(dt = 1e-308 s), got 40.0"),
    ], ids=["flag", "config", "tick"])
    def test_tick_count_that_overflows_exits_1(self, tmp_path, capsys, argv, text, problem):
        telemetry = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, *argv, "--out", str(telemetry)]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        # a tick that makes the run's tick count infinite makes the phase
        # timeout's and the detection window's so too
        tick = [] if "0.001" in problem else [
            "FAIL control: phase_timeout_s must be a finite number of ticks (dt = 1e-308 s), "
            "got 10.0",
            "FAIL detection: window_start + window_len + dt must be a finite number of ticks "
            "(dt = 1e-308 s), got 2.5"]
        assert fails == [*tick,
                         f"FAIL run: duration_s must be a finite number of ticks {problem}"]
        assert not telemetry.exists()

    def test_tick_count_past_2_to_the_53_exits_1_at_once(self, tmp_path):
        """5e16 ticks is finite, and would run without end (a tick at which the
        phase timeout is at most 2**53 ticks; the detection window is refused
        too)."""
        telemetry = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, SMALL_RUN + "plant:\n  dt: 2.0e-15\n")
        done = run_child(["run", "--config", cfg, "--duration", "100", "--out", str(telemetry)],
                         timeout=30)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ("FAIL detection: window_start + window_len + dt must be at most "
                               "2**22 ticks (dt = 2e-15 s), got 2.500000000000002\n"
                               "FAIL run: duration_s must be at most 2**53 ticks "
                               "(dt = 2e-15 s), got 100.0\n")
        assert not telemetry.exists()

    def test_missing_baselines_file_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        code = main(["run", "--config", cfg, "--baselines", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "config error:" in capsys.readouterr().out

    @pytest.mark.parametrize("rows, error", [
        ("1,4.33\n3,0\n", "baselines line 3: rate must be finite and > 0, got 0.0"),
        ("1,4.33\n3,nan\n", "baselines line 3: rate must be finite and > 0, got nan"),
        ("1,4.33\n3,inf\n", "baselines line 3: rate must be finite and > 0, got inf"),
        ("1,4.33\n3,-4.33\n", "baselines line 3: rate must be finite and > 0, got -4.33"),
        ("1,4.33\n9,4.33\n", "module 9 is not a Compression ring of the station"),
        ("1,4.33\n2,4.33\n", "module 2 is not a Compression ring of the station"),
        ("1,4.33\n1,9.0\n", "baselines line 3: module 1 already has a rate (line 2)"),
    ], ids=["zero", "nan", "inf", "negative", "not in the station", "longitudinal", "duplicate"])
    def test_bad_baselines_exit_2(self, tmp_path, capsys, rows, error):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        baselines = tmp_path / "baselines.csv"
        baselines.write_text(f"{BASELINES_HEADER}\n{rows}")
        code = main(["run", "--config", cfg, "--baselines", str(baselines),
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert error in capsys.readouterr().out
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--seed", "-1", "--out", str(out)]) == 1
        assert "FAIL --seed: rng_seed must be >= 0, got -1" in capsys.readouterr().out
        assert not out.exists()

    def test_calibrated_baselines_feed_the_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        baselines = str(tmp_path / "baselines.csv")
        assert main(["calibrate", "--config", cfg, "--out", baselines]) == 0
        code = main(["run", "--config", cfg, "--baselines", baselines,
                     "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert "outcome: object exited" in capsys.readouterr().out

    def test_fault_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "station:\n  module_count: 3\nplant:\n  k_vent: 1.0e-9\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 1
        printed = capsys.readouterr().out
        assert "outcome: fault" in printed
        assert "fault: timeout in phase L0:AdvanceRelease stage 0: module 1 stalled" in printed


class TestSweep:
    def test_chamber_count_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--param", "N", "--range", "1:5:1", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "argmax N=3 d_c_over_r=0.864965" in printed
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "N,d_c_over_r"
        assert lines[1] == "1,0.000000"
        assert lines[3] == "3,0.864965"
        # N=5 re-solves s to pack exactly, so this is not the calibration point
        assert lines[5] == "5,0.690975"

    def test_infeasible_values_marked(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--param", "l", "--range", "40:42:1", "--out", out]) == 0
        printed = capsys.readouterr().out
        lines = Path(out).read_text().splitlines()
        assert lines[2] == "41.000000,infeasible"
        assert lines[3] == "42.000000,infeasible"
        assert "argmax l=40.000000" in printed

    def test_non_integer_chamber_count_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--param", "N", "--range", "2.5,3",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "integer values" in capsys.readouterr().out

    def test_malformed_range_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--param", "t", "--range", "5:1:1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "config error:" in capsys.readouterr().out

    def test_default_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--param", "t", "--range", "1:3:1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "sweep.csv").exists()


class TestUnwritableOutput:
    """An --out that cannot be written is reported, exit 2, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["run"], ["calibrate"], ["sweep", "--param", "N", "--range", "1:3:1"],
    ], ids=["run", "calibrate", "sweep"])
    @pytest.mark.parametrize("where, reason", [
        ("missing/out.csv", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing directory", "a directory"])
    def test_exits_2(self, tmp_path, capsys, command, where, reason):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / where
        assert main([*command, "--config", cfg, "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.splitlines()[-1] == f"output error: {out}: {reason}"
        assert "outcome:" not in printed  # run opens its output before simulating
        assert not (tmp_path / "missing").exists()


def fresh_run(tmp_path, capsys, duration):
    """The bytes of `run --duration duration` to a new file."""
    fresh = tmp_path / f"fresh-{duration}.csv"
    assert main(["run", "--duration", duration, "--out", str(fresh)]) == 0
    capsys.readouterr()
    return fresh.read_bytes()


def old_file(path, fresh):
    """A file at path longer than the fresh run's, of bytes no recording holds."""
    path.write_bytes(b"#" * (len(fresh) + 4096))


class TestOutputFailsDuringTheRun:
    """A write that fails once the run has started is reported, exit 2, not a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("duration", ["0.05", "5"], ids=["at close", "during the run"])
    def test_full_device_exits_2(self, capsys, duration):
        # 5 s of the nominal run is more than the writer's 1 MiB buffer
        assert main(["run", "--duration", duration, "--out", "/dev/full"]) == 2
        assert capsys.readouterr().out == "output error: /dev/full: No space left on device\n"

    @staticmethod
    def failing_writer(error):
        """A TelemetryWriter whose third record() call raises error, having
        noted how many bytes the first two wrote."""
        class FailingWriter(peristation.TelemetryWriter):
            calls = 0

            def record(self, *args):
                FailingWriter.calls += 1
                if FailingWriter.calls == 3:
                    FailingWriter.written = self._f.tell()
                    raise error
                super().record(*args)

        return FailingWriter

    def test_writer_that_fails_part_way_exits_2(self, tmp_path, capsys, monkeypatch):
        fresh = fresh_run(tmp_path, capsys, "5")
        FailingWriter = self.failing_writer(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        monkeypatch.setattr(cli, "TelemetryWriter", FailingWriter)
        out = tmp_path / "t.csv"
        old_file(out, fresh)
        assert main(["run", "--duration", "5", "--out", str(out)]) == 2
        assert FailingWriter.calls == 3
        assert capsys.readouterr().out == f"output error: {out}: {os.strerror(errno.ENOSPC)}\n"
        assert out.read_bytes() == fresh[:FailingWriter.written]

    def test_interrupt_leaves_the_rows_written(self, tmp_path, capsys, monkeypatch):
        fresh = fresh_run(tmp_path, capsys, "5")
        FailingWriter = self.failing_writer(KeyboardInterrupt())
        monkeypatch.setattr(cli, "TelemetryWriter", FailingWriter)
        out = tmp_path / "t.csv"
        old_file(out, fresh)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--duration", "5", "--out", str(out)])
        assert out.read_bytes() == fresh[:FailingWriter.written]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit here")
    @pytest.mark.parametrize("duration, limit", [("0.05", 1000), ("5", (1 << 20) + 1000)],
                             ids=["at close", "during the run"])
    def test_file_size_limit_cuts_at_the_bytes_written(self, tmp_path, capsys, duration, limit):
        """In a child held to limit bytes per file: a write that the OS takes
        in part and then refuses (EFBIG) over a longer file leaves the bytes
        it took and none of the old file's."""
        fresh = fresh_run(tmp_path, capsys, duration)
        assert len(fresh) > limit
        out = tmp_path / "t.csv"
        old_file(out, fresh)
        done = run_child([str(limit), "run", "--duration", duration, "--out", str(out)],
                         code=FSIZE_CHILD)
        printed = f"output error: {out}: {os.strerror(errno.EFBIG)}\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, printed, "")
        assert out.read_bytes() == fresh[:limit]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null here")
    def test_null_device_exits_0(self, capsys):
        assert main(["run", "--duration", "5", "--out", "/dev/null"]) == 0
        assert capsys.readouterr().out.endswith("telemetry: /dev/null\n")


class TestOutputWrittenInPlace:
    """run writes over an existing --out from byte 0 and cuts it to the run's
    length: the same bytes as a fresh run, in the same file."""

    def test_short_run_over_the_full_run(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["run", "--out", str(out)]) == 0
        full = out.read_bytes()
        fresh = fresh_run(tmp_path, capsys, "5")
        assert len(fresh) < len(full)
        assert main(["run", "--duration", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == fresh

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_link_is_written_through(self, tmp_path, capsys, link):
        fresh = fresh_run(tmp_path, capsys, "5")
        target, out = tmp_path / "target.csv", tmp_path / "out.csv"
        old_file(target, fresh)
        target.chmod(0o640)
        inode = target.stat().st_ino
        if link == "symlink":
            out.symlink_to(target)
        else:
            os.link(target, out)
        assert main(["run", "--duration", "5", "--out", str(out)]) == 0
        assert out.is_symlink() == (link == "symlink")
        assert os.stat(out).st_ino == target.stat().st_ino == inode
        assert target.read_bytes() == out.read_bytes() == fresh
        assert target.stat().st_mode & 0o777 == 0o640


class TestOneParser:
    def test_a_reused_parser_answers_as_a_fresh_one(self, tmp_path, capsys):
        """build_parser runs once per process, and what it built keeps no state
        from one command to the next."""
        calls = [["run", "--seed", "x"], ["validate"],
                 ["run", "--duration", "1", "--out", str(tmp_path / "t.csv")],
                 ["calibrate", "--out", str(tmp_path / "b.csv")], ["--help"]]

        def answers(fresh: bool) -> list:
            build_parser.cache_clear()
            seen = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                seen.append((main(argv), *capsys.readouterr()))
            return seen

        fresh = answers(fresh=True)
        reused = answers(fresh=False)
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0]
        assert reused == fresh


# CHILD, printing as its last line whether numpy.random was imported.
IMPORTS_CHILD = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from peristation.cli import main; code = main(sys.argv[1:]); "
                 "print('numpy.random' in sys.modules); sys.exit(code)")


class TestNoiselessImports:
    """A noiseless command builds no noise generator, so it never imports
    numpy.random (which numpy 1.x imports with numpy itself)."""

    @pytest.fixture(scope="class")
    def numpy_loads_it(self):
        done = subprocess.run([sys.executable, "-c",
                               "import numpy, sys; print('numpy.random' in sys.modules)"],
                              capture_output=True, text=True, timeout=60, check=True)
        return done.stdout.strip() == "True"

    def loaded(self, argv) -> bool:
        done = run_child(argv, code=IMPORTS_CHILD)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize("argv", [["validate"], ["calibrate", "--out", "b.csv"],
                                      ["run", "--duration", "1", "--out", "t.csv"]],
                             ids=lambda argv: argv[0])
    def test_default_config(self, tmp_path, numpy_loads_it, argv):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert self.loaded(argv) is numpy_loads_it

    def test_a_noisy_run_loads_it(self, tmp_path):
        cfg = write_cfg(tmp_path, "plant: {noise_sigma: 0.05}\n")
        assert self.loaded(["run", "--config", cfg, "--duration", "1",
                            "--out", str(tmp_path / "t.csv")])


class TestNestingRule:
    """A config nested past config.MAX_NESTING is refused before it is built."""

    @pytest.mark.parametrize("levels, printed", [
        (16, "config error: config root: expected a mapping, got list\n"),
        (17, "config error: {path}: nested deeper than 16 levels\n"),
    ], ids=["16 levels", "17 levels"])
    def test_validate_refuses_past_16_levels(self, tmp_path, capsys, loader, levels, printed):
        path = write_cfg(tmp_path, "[" * levels + "]" * levels)
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().out == printed.format(path=path)

    @pytest.mark.parametrize("text", ["[" * 3000 + "]" * 3000, "[" * 300_000],
                             ids=["3000 nested", "300000 unbalanced"])
    def test_deep_text_exits_2_without_a_traceback(self, tmp_path, loader, text):
        """In a child, so that a loader that recursed on the text (a
        RecursionError in PyYAML's, the process killed in libyaml's) fails
        this test alone."""
        path = write_cfg(tmp_path, text)
        done = run_child([loader.__name__, "validate", "--config", path], code=LOADER_CHILD)
        printed = f"config error: {path}: nested deeper than 16 levels\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, printed, "")


class TestRefusedByEveryCommand:
    """A config that validate refuses, every command refuses: exit 1, the
    same FAIL line, no traceback and no output file (in a child process: a
    command that accepted 2**53 ticks would not return)."""

    @pytest.mark.parametrize("command", [
        ["validate"], ["calibrate", "--out"], ["run", "--out"],
        ["sweep", "--param", "N", "--range", "3:5:1", "--out"],
    ], ids=["validate", "calibrate", "run", "sweep"])
    @pytest.mark.parametrize("text, problems", [
        ("station:\n  module_count: 1\n", ["station: station needs at least one (C, L, C) triple"]),
        ("station:\n  modules:\n    - {kind: Compression}\n",
         ["station: station needs at least one (C, L, C) triple"]),
        ("control:\n  deflated_threshold_kPa: 20.0\n",
         ["control: deflated_threshold_kPa must be below the inflated gate "
          "inflated_fraction * P_max = 14.25 kPa, got 20.0"]),
        ("plant:\n  dt: 2.0e-15\nrun:\n  duration_s: 100.0\n",
         ["detection: window_start + window_len + dt must be at most 2**22 ticks "
          "(dt = 2e-15 s), got 2.500000000000002",
          "run: duration_s must be at most 2**53 ticks (dt = 2e-15 s), got 100.0"]),
        ("control:\n  deflated_threshold_kPa: 14.249999999999998\n",
         ["control: deflated_threshold_kPa must be below the contact pressure "
          "6.521739130434782 kPa at which a ring reaches the object, got 14.249999999999998"]),
        ("detection:\n  window_len: 20.0\n",
         ["detection: window_start + window_len + dt must be below phase_timeout_s = 10.0 s, "
          "got 21.501"]),
        # 1e10 run ticks, but calibrate would wait up to 1e301 ticks
        ("plant:\n  dt: 1.0e-300\nrun:\n  duration_s: 1.0e-290\n",
         ["control: phase_timeout_s must be at most 2**53 ticks (dt = 1e-300 s), got 10.0",
          "detection: window_start + window_len + dt must be at most 2**22 ticks "
          "(dt = 1e-300 s), got 2.5"]),
        # 2.5e9 window ticks, which calibrate and a probe would hold in memory
        ("plant:\n  dt: 1.0e-9\n",
         ["detection: window_start + window_len + dt must be at most 2**22 ticks "
          "(dt = 1e-09 s), got 2.500000001"]),
        ("station:\n  modules:\n" + "    - {kind: Compression}\n    - {kind: Longitudinal}\n" * 5000
         + "    - {kind: Compression}\n",
         ["station: station must have at most 9999 modules, got 10001"]),
        ("detection:\n  min_window_samples: 1002\n",
         ["detection: min_window_samples must be at most floor(window_len / dt) + 1 = 1001, "
          "got 1002"]),
    ], ids=["one module", "one-ring list", "gates out of order", "2**53 ticks",
            "gate that cannot release", "window past the timeout", "2**53 timeout ticks",
            "2**22 window ticks", "10001-module list", "more samples than a window holds"])
    def test_exits_1(self, tmp_path, command, text, problems):
        out = tmp_path / "out.csv"
        argv = [*command, str(out)] if command[-1] == "--out" else command
        done = run_child([*argv, "--config", write_cfg(tmp_path, text)], timeout=30)
        printed = "".join(f"FAIL {problem}\n" for problem in problems)
        assert (done.returncode, done.stdout, done.stderr) == (1, printed, "")
        assert not out.exists()


class TestOutputPathThatNamesNoFile:
    """A run.output_path that open() cannot take is a config error: exit 2,
    no traceback and no file.  libyaml refuses the surrogate escapes itself;
    the pure-Python loader reads them as two lone surrogates."""

    @pytest.mark.parametrize("command", [["validate"], ["run"]])
    @pytest.mark.parametrize("path", [r"a\0b.csv", r"\ud83d\ude00.csv"],
                             ids=["NUL", "surrogates"])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, loader, command, path):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("run:\n", f'run:\n  output_path: "{path}"\n'))
        assert main([*command, "--config", cfg]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("config error: ")
        if loader is yaml.SafeLoader or path.startswith("a"):
            assert printed.startswith("config error: run.output_path: cannot name a file (")
        assert os.listdir(tmp_path) == ["cfg.yaml"]


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", [
        ["validate"], ["calibrate", "--out"], ["run", "--out"],
        ["sweep", "--param", "N", "--range", "3:5:1", "--out"],
    ], ids=["validate", "calibrate", "run", "sweep"])
    def test_config_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "cfg.yaml"
        config.write_bytes(b"run:\n  duration_s: 1.0  # \xff\n")
        out = tmp_path / "out.csv"
        argv = [*command, str(out)] if command[-1] == "--out" else command
        assert main([*argv, "--config", str(config)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("config error: ") and "utf-8" in printed
        assert not out.exists()

    def test_baselines_exit_2(self, tmp_path, capsys):
        baselines = tmp_path / "baselines.csv"
        baselines.write_bytes(f"{BASELINES_HEADER}\n1,4.33\n".encode() + b"3,4.\xff\n")
        out = tmp_path / "t.csv"
        assert main(["run", "--baselines", str(baselines), "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(f"config error: {baselines}: ") and "utf-8" in printed
        assert not out.exists()


class TestNonUtf8InputSafeLoader(TestNonUtf8Input):
    LOADER = yaml.SafeLoader  # tests/conftest.py, class_loader


def fuzz_values(default):
    """Non-finite, negative, zero, and half or twice the default, of its type."""
    return [math.nan, math.inf, -math.inf, -1, 0, type(default)(default * 0.5),
            type(default)(default * 2)]


# Every numeric field of the sections that feed a run.  The set holds no tiny
# positive dt: with a finite duration that still means unboundedly many ticks.
FUZZ_FIELDS = {
    (section, key): fuzz_values(default)
    for section, defaults in (
        ("geometry", DEFAULT_GEOMETRY),
        ("material", DEFAULT_MATERIAL),
        ("plant", DEFAULT_PLANT),
        ("detection", DEFAULT_DETECTION),
        ("control", DEFAULT_CONTROL),
        ("object", {k: v for k, v in DEFAULT_OBJECT.items() if k != "present"}),
        ("station", {k: v for k, v in DEFAULT_STATION.items() if k != "modules"}),
        ("run", {"duration_s": 120.0}),
    )
    for key, default in defaults.items()
}

# one module: a station without a (C, L, C) triple
FUZZ_FIELDS["station", "module_count"].append(1)

# A section given only as a whole: a fuzzed field replaces one of its defaults.
WHOLE_SECTIONS = {"geometry": DEFAULT_GEOMETRY}


def fuzzed_config(fields):
    """A config of (section, key, value) triples."""
    config = {}
    for section, key, value in fields:
        config.setdefault(section, dict(WHOLE_SECTIONS.get(section, {})))[key] = value
    return config


@st.composite
def fuzzed_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ_FIELDS)), unique=True,
                         min_size=2, max_size=4))
    return fuzzed_config((section, key, draw(st.sampled_from(FUZZ_FIELDS[section, key])))
                         for section, key in keys)


def check_config(config):
    """validate exits 0, 1 or 2; a config it accepts calibrates and runs
    briefly, each exiting 0 or 1."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as f:
            yaml.safe_dump(config, f)
        code = main(["validate", "--config", path])
        assert code in (0, 1, 2), config
        if code == 0:
            out = os.path.join(tmp, "out.csv")
            assert main(["calibrate", "--config", path, "--out", out]) in (0, 1), config
            code = main(["run", "--config", path, "--duration", "0.05", "--out", out])
            assert code in (0, 1), config


def combined_fuzz():
    """The fuzz of combined field values, built anew for each class that runs
    it: hypothesis runs a test function for one class only."""
    @settings(max_examples=200, deadline=None)
    @given(config=fuzzed_configs())
    @example(config={"station": {"modules": [{"kind": "Compression"}]}})
    def test_field_values_combined(self, config):
        check_config(config)
    return test_field_values_combined


class TestConfigFuzz:
    def test_each_field_value_alone(self):
        for (section, key), values in FUZZ_FIELDS.items():
            for value in values:
                check_config(fuzzed_config([(section, key, value)]))

    test_field_values_combined = combined_fuzz()


class TestConfigFuzzSafeLoader(TestConfigFuzz):
    LOADER = yaml.SafeLoader
    test_field_values_combined = combined_fuzz()


# argv parts: each may be malformed text, non-finite, zero, negative or out of range
SEEDS = st.one_of(st.integers(-3, 2**64), st.integers(0, 9),
                  st.sampled_from(["x", "1.5", "", "nan"]))
DURATIONS = st.one_of(st.floats(1e-3, 1.0), st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "1e308", "x", ""]))
RANGE_PARTS = ["0", "1", "2", "5", "12", "-1", "0.5", "1e-12", "nan", "inf", "-inf", "x", ""]


@st.composite
def ranges(draw):
    parts = st.sampled_from(RANGE_PARTS)
    if draw(st.booleans()):  # mostly start:stop:step
        size = draw(st.sampled_from([3, 3, 3, 2, 4]))
        return ":".join(draw(st.lists(parts, min_size=size, max_size=size)))
    return ",".join(draw(st.lists(parts, min_size=1, max_size=4)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["run", "calibrate", "sweep"]))
    argv = [command, "--config", None]
    if command == "sweep":
        argv += ["--param", draw(st.sampled_from(["N", "l", "t", "x"])), "--range", draw(ranges())]
    else:
        if draw(st.booleans()):
            argv += ["--seed", str(draw(SEEDS))]
        if command == "run":  # a run of at most 1 s, or a duration it must refuse
            argv += ["--duration", str(draw(DURATIONS))]
    return argv


def check_argv(argv, baselines: bytes = None):
    """main exits 0, 1 or 2 and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        argv = list(argv)
        if "--config" in argv:
            argv[argv.index("--config") + 1] = write_cfg(Path(tmp), SMALL_RUN)
        if baselines is not None:
            path = os.path.join(tmp, "baselines.csv")
            with open(path, "wb") as f:
                f.write(baselines)
            argv += ["--baselines", path]
        code = main([*argv, "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 1, 2), argv


# the header right three times in four
BASELINE_HEADERS = [BASELINES_HEADER] * 12 + ["module_id,rate", "", "module_id,rate_kPa_per_s,x",
                                             "\ufeff" + BASELINES_HEADER]
BASELINE_IDS = ["0", "1", "3", "5", "9", "-1", "1.5", "x", ""]
BASELINE_RATES = ["4.33", "0", "-4.33", "nan", "inf", "1e-300", "1e300", "x", ""]


@st.composite
def baselines_files(draw):
    """Bytes of a baselines file: a header variant, then rows of drawn ids and
    rates, some with an extra column, blank or not UTF-8."""
    lines = [draw(st.sampled_from(BASELINE_HEADERS)).encode()]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row"] * 6 + ["extra", "blank", "bytes"]))
        row = f"{draw(st.sampled_from(BASELINE_IDS))},{draw(st.sampled_from(BASELINE_RATES))}"
        lines.append({"row": row.encode(), "extra": f"{row},1".encode(), "blank": b"",
                      "bytes": row.encode() + b"\xff\xfe"}[kind])
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(argv=argvs())
    @example(argv=["run", "--config", None, "--seed", "-1", "--duration", "0.1"])
    @example(argv=["run", "--config", None, "--duration", "1e-300"])
    @example(argv=["run", "--config", None, "--duration", "1e308"])
    @example(argv=["calibrate", "--config", None, "--seed", "-1"])
    @example(argv=["sweep", "--config", None, "--param", "l", "--range", "nan:1:1"])
    @example(argv=["sweep", "--config", None, "--param", "t", "--range", "0:1:1e-12"])
    def test_argv(self, argv):
        check_argv(argv)

    @settings(max_examples=60, deadline=None)
    @given(contents=baselines_files(), duration=st.sampled_from(["0.2", "0.5", "1.0", "nan", "0"]))
    @example(contents=f"{BASELINES_HEADER}\n1,4.33\n5,0\n".encode(), duration="0.2")
    @example(contents=f"{BASELINES_HEADER}\n1,4.33\n9,4.33\n".encode(), duration="0.2")
    @example(contents=f"{BASELINES_HEADER}\n1,4.33\n1,9.0\n".encode(), duration="0.2")
    def test_baselines_file(self, contents, duration):
        # the default station: modules 1, 3 and 5 are its rings
        check_argv(["run", "--duration", duration], baselines=contents)
