"""Config loading: defaults, the two failure channels, baseline files."""

import json
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peristation import (
    COMPRESSION,
    LONGITUDINAL,
    BASELINES_HEADER,
    ConfigError,
    ControlConfig,
    DetectionConfig,
    load_baselines,
    load_config,
    write_baselines,
)
from peristation import config
from peristation.cli import main
from peristation.config import MAX_NESTING, duration_problems
from peristation.control import calibrate_baseline, timeout_problems, window_problems


def cfg_file(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_readme_config_block_is_the_defaults(self, tmp_path):
        """README's Configuration section states every default in one YAML
        block: loaded as a config, it is the config of no file."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("\n## Configuration\n"):]
        block = section[section.index("```yaml\n") + 8:section.index("\n```\n")]
        cfg = load_config(cfg_file(tmp_path, block))
        assert cfg.problems == []
        assert cfg == load_config(None)

    def test_no_file_is_the_nominal_scenario(self):
        cfg = load_config(None)
        assert cfg.problems == []
        assert cfg.geometry.inner_radius_r == 25.0
        assert cfg.geometry.chamber_count_N == 5
        assert cfg.material.calibration_kappa == pytest.approx(8.135110864016251, rel=1e-12)
        assert [m.kind for m in cfg.layout.modules] == [
            COMPRESSION, LONGITUDINAL, COMPRESSION, LONGITUDINAL, COMPRESSION,
        ]
        assert cfg.object_spec.radius_r_o == 17.5
        assert cfg.object_spec.length_L_o == 75.0
        assert cfg.initial_z == 0.0
        assert cfg.params.k_free == 4.33
        assert cfg.detection.threshold_ratio_theta == 1.5
        assert cfg.control.phase_timeout_s == 10.0
        assert cfg.calibration_with_object is False
        assert cfg.duration_s == 120.0
        assert cfg.output_path is None

    def test_empty_file_equals_no_file(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, ""))
        assert cfg.problems == []
        assert cfg.duration_s == 120.0

    def test_empty_sections_take_defaults(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "geometry:\nplant:\nrun:\n"))
        assert cfg.problems == []
        assert cfg.geometry.chamber_length_s == 28.8


class TestStructuralErrors:
    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(cfg_file(tmp_path, "geometry: [unclosed"))

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ConfigError, match="config root: expected a mapping"):
            load_config(cfg_file(tmp_path, "- 1\n- 2\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section\(s\): geom"):
            load_config(cfg_file(tmp_path, "geom:\n  inner_radius_r: 25\n"))

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"plant: unknown field\(s\): k_frree"):
            load_config(cfg_file(tmp_path, "plant:\n  k_frree: 4.33\n"))

    def test_partial_geometry_names_a_missing_field(self, tmp_path):
        with pytest.raises(ConfigError, match="geometry: missing required field chamber_count_N"):
            load_config(cfg_file(tmp_path, "geometry:\n  outer_radius_R: 40.0\n"))

    def test_wrong_scalar_types(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="plant.P_max: expected a number"):
            load_config(cfg_file(tmp_path, "plant:\n  P_max: fast\n"))
        with pytest.raises(ConfigError, match="plant.P_max: expected a number"):
            load_config(cfg_file(tmp_path, "plant:\n  P_max: true\n"))
        with pytest.raises(ConfigError, match="station.module_count: expected an integer"):
            load_config(cfg_file(tmp_path, "station:\n  module_count: 2.5\n"))
        with pytest.raises(ConfigError, match="object.present: expected true/false"):
            load_config(cfg_file(tmp_path, "object:\n  present: 1\n"))
        # YAML 1.1 reads an exponent as a number only after a dot and with a sign
        for text in ("1e6", "1.0e6", "1e+6", "-.5E-3"):
            cfg = cfg_file(tmp_path, f"object: {{initial_z: {text}}}\n")
            assert main(["validate", "--config", cfg]) == 2
            assert capsys.readouterr().out == (
                f"config error: object.initial_z: expected a number, got '{text}' "
                "(write a number with an exponent as 1.0e+6)\n")
        assert load_config(cfg_file(tmp_path, "object: {initial_z: 1.0e+6}\n")).initial_z == 1e6
        with pytest.raises(ConfigError, match=r"^object.initial_z: expected a number, "
                                              r"got '1.0e\+6'$"):  # quoted: text, and no hint
            load_config(cfg_file(tmp_path, "object: {initial_z: '1.0e+6'}\n"))

    def test_every_field_typed_where_it_is_not_used(self, tmp_path):
        with pytest.raises(ConfigError, match="station.module_count: expected an integer"):
            load_config(cfg_file(tmp_path, "station:\n  module_count: 2.5\n  modules:\n"
                                           "    - {kind: Compression}\n"))
        with pytest.raises(ConfigError, match="object.radius_r_o: expected a number"):
            load_config(cfg_file(tmp_path, "object:\n  present: false\n  radius_r_o: wide\n"))

    def test_sections_typed_in_order(self, tmp_path):
        with pytest.raises(ConfigError, match="^material.poisson_ratio_nu: expected a number"):
            load_config(cfg_file(tmp_path, "plant:\n  P_max: high\n"
                                           "material:\n  poisson_ratio_nu: x\n"))

    def test_non_string_output_path(self, tmp_path):
        with pytest.raises(ConfigError, match="run.output_path"):
            load_config(cfg_file(tmp_path, "run:\n  output_path: 7\n"))

    def test_module_list_entries_checked(self, tmp_path):
        with pytest.raises(ConfigError, match=r"station.modules\[1\].kind"):
            load_config(cfg_file(tmp_path, "station:\n  modules:\n    - kind: Radial\n"))
        with pytest.raises(ConfigError, match=r"station.modules\[1\]: unknown field\(s\): mass"):
            load_config(cfg_file(
                tmp_path, "station:\n  modules:\n    - {kind: Compression, mass: 3}\n"
            ))


class TestSemanticProblems:
    def test_geometry_violations_collected_not_raised(self, tmp_path):
        text = (
            "geometry:\n"
            "  outer_radius_R: 20.0\n"
            "  inner_radius_r: 25.0\n"
            "  step_height_m: 1.5\n"
            "  chamber_spacing_l: 12.0\n"
            "  wall_thickness_t: 2.0\n"
            "  chamber_length_s: 28.8\n"
            "  chamber_count_N: 5\n"
        )
        cfg = load_config(cfg_file(tmp_path, text))
        assert any(p.startswith("geometry: outer_radius_R > inner_radius_r") for p in cfg.problems)
        assert cfg.material is None  # uncalibratable against a broken geometry

    def test_plant_problem_reported(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "plant:\n  k_vent: 0.0\n"))
        assert any(p.startswith("plant:") for p in cfg.problems)
        assert cfg.params is None

    @pytest.mark.parametrize("field, value", [
        ("P_max", ".nan"), ("k_free", ".inf"), ("dt", ".inf"), ("noise_sigma", ".nan"),
    ])
    def test_nonfinite_plant_value_reported(self, tmp_path, field, value):
        cfg = load_config(cfg_file(tmp_path, f"plant:\n  {field}: {value}\n"))
        assert any(p.startswith(f"plant: {field} must be finite") for p in cfg.problems)
        assert cfg.params is None

    def test_station_problem_reported(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "station:\n  module_count: 4\n"))
        assert "station: first and last modules must be Compression" in cfg.problems
        assert cfg.layout is None

    def test_object_problems_reported(self, tmp_path):
        cfg = load_config(cfg_file(
            tmp_path, "object:\n  radius_r_o: 30.0\n  length_L_o: 0.0\n  initial_z: -1.0\n"
        ))
        assert sum(p.startswith("object:") for p in cfg.problems) == 3

    def test_detection_and_control_problems_reported(self, tmp_path):
        cfg = load_config(cfg_file(
            tmp_path, "detection:\n  threshold_ratio_theta: 1.0\ncontrol:\n  inflated_fraction: 1.5\n"
        ))
        assert any(p.startswith("detection:") for p in cfg.problems)
        assert any(p.startswith("control:") for p in cfg.problems)
        assert cfg.detection is None and cfg.control is None

    def test_nonfinite_and_out_of_range_values_reported(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, (
            "detection:\n  window_len: .inf\n"
            "control:\n  max_cycles: -3\n"
            "object:\n  initial_z: .nan\n"
            "run:\n  duration_s: .inf\n"
        )))
        assert cfg.problems == [
            "object: initial_z must be finite and >= 0, got nan",
            "detection: window_len must be finite, got inf",
            "control: max_cycles must be >= 0 (0 = no budget), got -3",
            "run: duration_s must be finite, got inf",
        ]
        assert cfg.detection is None and cfg.control is None

    def test_nonpositive_duration_reported(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "run:\n  duration_s: 0\n"))
        assert "run: duration_s must be > 0, got 0.0" in cfg.problems

    @pytest.mark.parametrize("duration", ["1.0e-300", "0.0004", "0.0005"])
    def test_duration_of_no_tick_reported(self, tmp_path, duration):
        """round(duration_s / dt) is 0 up to half a tick, which rounds to even."""
        cfg = load_config(cfg_file(tmp_path, f"run:\n  duration_s: {duration}\n"))
        assert cfg.problems == [f"run: duration_s must be over half a tick (dt = 0.001 s), "
                                f"got {float(duration)}"]

    @pytest.mark.parametrize("text, problem", [
        ("run:\n  duration_s: 1.0e+306\n", "(dt = 0.001 s), got 1e+306"),
        ("plant:\n  dt: 1.0e-308\n", "(dt = 1e-308 s), got 120.0"),
    ])
    def test_tick_count_that_overflows_reported(self, tmp_path, text, problem):
        cfg = load_config(cfg_file(tmp_path, text))
        # a tick that makes the run's tick count infinite makes the phase
        # timeout's and the detection window's so too
        tick = [] if "0.001" in problem else [
            "control: phase_timeout_s must be a finite number of ticks (dt = 1e-308 s), got 10.0",
            "detection: window_start + window_len + dt must be a finite number of ticks "
            "(dt = 1e-308 s), got 2.5"]
        assert cfg.problems == [*tick,
                                f"run: duration_s must be a finite number of ticks {problem}"]

    def test_integer_beyond_the_float_range_is_infinite(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, f"plant:\n  k_vent: {10 ** 400}\n"
                                             f"object:\n  initial_z: -{10 ** 400}\n"))
        assert cfg.problems == ["plant: k_vent must be finite, got inf",
                                "object: initial_z must be finite and >= 0, got -inf"]

    def test_duration_of_one_tick_accepted(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "run:\n  duration_s: 0.00050001\n"))
        assert cfg.problems == []
        # the tick is the config's own
        cfg = load_config(cfg_file(tmp_path, "plant:\n  dt: 0.01\nrun:\n  duration_s: 0.004\n"))
        assert cfg.problems == [
            "run: duration_s must be over half a tick (dt = 0.01 s), got 0.004"]

    def test_duration_problems_takes_the_tick(self):
        assert duration_problems(1e-300, 1e-3) != []
        assert duration_problems(6e-4, 1e-3) == []
        assert duration_problems(6e-4, 1e-2) != []
        assert duration_problems(1e-300, None) == []  # no valid plant section: no tick
        assert duration_problems(float("nan"), None) == [
            "run: duration_s must be finite, got nan"]
        assert duration_problems(1e308, 1e-3) == [
            "run: duration_s must be a finite number of ticks (dt = 0.001 s), got 1e+308"]
        assert duration_problems(1e308, None) == []
        # at most 2**53 ticks: the bound itself runs, the next double does not
        assert duration_problems(2.0 ** 53, 1.0) == []
        assert duration_problems(math.nextafter(2.0 ** 53, math.inf), 1.0) == [
            "run: duration_s must be at most 2**53 ticks (dt = 1.0 s), got 9007199254740994.0"]

    def test_window_must_end_before_the_phase_timeout(self, tmp_path):
        """calibrate inflates through window_start + window_len + dt and gives up
        at phase_timeout_s: 1.5 + 8.499 + 0.001 is 10.0, the default timeout."""
        assert window_problems(DetectionConfig(), ControlConfig(), 1e-3) == []
        refused = ["detection: window_start + window_len + dt must be below "
                   "phase_timeout_s = 10.0 s, got 10.0"]
        assert window_problems(DetectionConfig(window_len=8.499), ControlConfig(), 1e-3) == refused
        below = math.nextafter(8.499, 0.0)
        assert window_problems(DetectionConfig(window_len=below), ControlConfig(), 1e-3) == []
        cfg = load_config(cfg_file(tmp_path, "detection:\n  window_len: 8.499\n"))
        assert cfg.problems == refused
        # each term counts: the tick, the start and the timeout of the config
        cfg = load_config(cfg_file(tmp_path, "plant:\n  dt: 0.01\ndetection:\n"
                                             "  window_start: 2.0\n  window_len: 1.0\n"
                                             "control:\n  phase_timeout_s: 3.0\n"))
        assert cfg.problems == ["detection: window_start + window_len + dt must be below "
                                "phase_timeout_s = 3.0 s, got 3.01"]

    def test_window_of_at_most_2_22_ticks(self, tmp_path):
        """A probe and calibrate hold the window's samples: 2**22 ticks is
        accepted, one tick more is not, and calibrate_baseline refuses it too."""
        control = ControlConfig(phase_timeout_s=2.0 ** 23)
        assert window_problems(DetectionConfig(window_start=0.0, window_len=2.0 ** 22 - 1),
                               control, 1.0) == []
        assert window_problems(DetectionConfig(window_start=0.0, window_len=2.0 ** 22),
                               control, 1.0) == [
            "detection: window_start + window_len + dt must be at most 2**22 ticks "
            "(dt = 1.0 s), got 4194305.0"]
        # the default window, 2,501 ticks of 1 ms, at a tick of 1 ns
        cfg = load_config(cfg_file(tmp_path, "plant:\n  dt: 1.0e-9\n"))
        assert cfg.problems == [
            "detection: window_start + window_len + dt must be at most 2**22 ticks "
            "(dt = 1e-09 s), got 2.500000001"]
        with pytest.raises(ValueError) as refused:  # before it touches the backend
            calibrate_baseline(None, 1, cfg.params, cfg.detection, cfg.control)
        assert str(refused.value) == cfg.problems[0]

    def test_min_window_samples_the_window_can_hold(self, tmp_path):
        """The default 1 s window of 1 ms ticks holds at most 1,001 samples:
        1,001 is accepted, 1,002 is not, and calibrate_baseline refuses it too."""
        assert load_config(cfg_file(tmp_path, "detection:\n  min_window_samples: 1001\n")
                           ).problems == []
        cfg = load_config(cfg_file(tmp_path, "detection:\n  min_window_samples: 1002\n"))
        assert cfg.problems == ["detection: min_window_samples must be at most "
                                "floor(window_len / dt) + 1 = 1001, got 1002"]
        with pytest.raises(ValueError) as refused:  # before it touches the backend
            calibrate_baseline(None, 1, cfg.params, cfg.detection, cfg.control)
        assert str(refused.value) == cfg.problems[0]
        # a tick too small for the window to count its samples does not fail the rule
        assert window_problems(DetectionConfig(), ControlConfig(), 5e-324) == [
            "detection: window_start + window_len + dt must be a finite number of ticks "
            "(dt = 5e-324 s), got 2.5"]

    def test_phase_timeout_of_at_most_2_53_ticks(self, tmp_path):
        """Each wait of calibrate ends by phase_timeout_s: the bound itself is
        accepted, the next double is not, and calibrate_baseline refuses it too."""
        assert timeout_problems(ControlConfig(phase_timeout_s=2.0 ** 53), 1.0) == []
        above = ControlConfig(phase_timeout_s=math.nextafter(2.0 ** 53, math.inf))
        assert timeout_problems(above, 1.0) == [
            "control: phase_timeout_s must be at most 2**53 ticks (dt = 1.0 s), "
            "got 9007199254740994.0"]
        assert timeout_problems(ControlConfig(), 5e-324) == [
            "control: phase_timeout_s must be a finite number of ticks (dt = 5e-324 s), got 10.0"]
        cfg = load_config(cfg_file(tmp_path, "plant:\n  dt: 1.0e-300\n"
                                             "run:\n  duration_s: 1.0e-290\n"))
        assert cfg.problems == [
            "control: phase_timeout_s must be at most 2**53 ticks (dt = 1e-300 s), got 10.0",
            "detection: window_start + window_len + dt must be at most 2**22 ticks "
            "(dt = 1e-300 s), got 2.5"]
        with pytest.raises(ValueError) as refused:  # before it touches the backend
            calibrate_baseline(None, 1, cfg.params, cfg.detection, cfg.control)
        assert str(refused.value) == cfg.problems[0]


class TestSectionsApplied:
    def test_absent_object(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "object:\n  present: false\n"))
        assert cfg.object_spec is None
        assert cfg.problems == []

    def test_explicit_module_list(self, tmp_path):
        text = (
            "station:\n"
            "  modules:\n"
            "    - {kind: Compression, height: 10.0}\n"
            "    - {kind: Longitudinal}\n"
            "    - {kind: Compression}\n"
        )
        cfg = load_config(cfg_file(tmp_path, text))
        assert cfg.problems == []
        assert [m.height_h for m in cfg.layout.modules] == [10.0, 20.0, 20.0]
        assert [m.z_origin for m in cfg.layout.modules] == [0.0, 10.0, 30.0]

    def test_explicit_module_takes_the_height_of_its_kind(self, tmp_path):
        text = (
            "station:\n"
            "  compression_height: 12.0\n"
            "  longitudinal_height: 30.0\n"
            "  module_count: 4\n"  # ignored next to a module list
            "  modules:\n"
            "    - {kind: Compression}\n"
            "    - {kind: Longitudinal}\n"
            "    - {kind: Compression, height: 10.0}\n"
        )
        cfg = load_config(cfg_file(tmp_path, text))
        assert cfg.problems == []
        assert [m.height_h for m in cfg.layout.modules] == [12.0, 30.0, 10.0]

    def test_calibration_and_run_sections(self, tmp_path):
        text = "calibration:\n  object_present: true\nrun:\n  duration_s: 7.5\n  output_path: out.csv\n"
        cfg = load_config(cfg_file(tmp_path, text))
        assert cfg.calibration_with_object is True
        assert cfg.duration_s == 7.5
        assert cfg.output_path == "out.csv"

    def test_noise_and_seed_reach_params(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, "plant:\n  noise_sigma: 0.05\n  rng_seed: 7\n"))
        assert cfg.params.noise_sigma == 0.05
        assert cfg.params.rng_seed == 7


class TestBaselineFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baselines.csv")
        write_baselines(path, {3: 4.330000000000224, 1: 4.33})
        content = Path(path).read_text()
        assert content == BASELINES_HEADER + "\n1,4.330000\n3,4.330000\n"
        assert load_baselines(path) == {1: 4.33, 3: 4.33}

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("module,rate\n1,4.33\n")
        with pytest.raises(ConfigError, match="unrecognized baselines header"):
            load_baselines(str(path))

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(BASELINES_HEADER + "\n1,4.33,9\n")
        with pytest.raises(ConfigError, match="line 2: expected 2 columns"):
            load_baselines(str(path))
        path.write_text(BASELINES_HEADER + "\none,4.33\n")
        with pytest.raises(ConfigError, match="line 2: malformed row"):
            load_baselines(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(BASELINES_HEADER + "\n\n1,4.33\n")
        assert load_baselines(str(path)) == {1: 4.33}

    def test_module_named_twice_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(BASELINES_HEADER + "\n1,4.33\n3,4.33\n\n1,9.0\n")
        with pytest.raises(ConfigError,
                           match=r"baselines line 5: module 1 already has a rate \(line 2\)"):
            load_baselines(str(path))


# The pure-Python loader reads every config of the YAML-facing classes again
# (tests/conftest.py, class_loader); the classes above read with the default.
class TestDefaultsSafeLoader(TestDefaults):
    LOADER = yaml.SafeLoader


class TestStructuralErrorsSafeLoader(TestStructuralErrors):
    LOADER = yaml.SafeLoader


class TestSemanticProblemsSafeLoader(TestSemanticProblems):
    LOADER = yaml.SafeLoader


class TestSectionsAppliedSafeLoader(TestSectionsApplied):
    LOADER = yaml.SafeLoader


def nested(levels: int, block: bool) -> str:
    """A document nested levels deep: flow sequences, or block mappings of one key k."""
    if not block:
        return "[" * levels + "]" * levels + "\n"
    return "".join(f"{'  ' * i}k:\n" for i in range(levels - 1)) + "  " * (levels - 1) + "k: 1\n"


class TestNestingRule:
    @pytest.mark.parametrize("block, refusal", [
        (False, "config root: expected a mapping, got list"),
        (True, r"unknown section\(s\): k"),
    ], ids=["flow", "block"])
    def test_16_levels_pass_the_rule_and_17_do_not(self, tmp_path, loader, block, refusal):
        assert MAX_NESTING == 16
        with pytest.raises(ConfigError, match=f"^{refusal}$"):  # a later rule refuses it
            load_config(cfg_file(tmp_path, nested(MAX_NESTING, block)))
        path = cfg_file(tmp_path, nested(MAX_NESTING + 1, block))
        with pytest.raises(ConfigError) as refused:
            load_config(path)
        assert str(refused.value) == f"{path}: nested deeper than 16 levels"

    def test_a_config_has_4_levels(self, tmp_path, loader):
        cfg = load_config(cfg_file(tmp_path, "station:\n  modules:\n    - {kind: Compression}\n"
                                             "    - {kind: Longitudinal}\n"
                                             "    - {kind: Compression, height: 10.0}\n"))
        assert [m.height_h for m in cfg.layout.modules] == [20.0, 20.0, 10.0]


# Spellings of the scalars a config holds, many of which YAML 1.1 reads
# otherwise than JSON or a person would: 1.0e3 is a string but 1.0e+3 a
# float, yes is true, 0o17 a string but 017 an octal, 1:30 an integer.
SCALAR_TEXTS = [
    "1.0e3", "1e3", "1.0e+3", "-1.5E-3", ".inf", "-.inf", "+.inf", ".nan", ".NaN", "1.", ".5",
    "-0.0", "+12", "0x1f", "017", "0o17", "0b101", "1_000", "1:30", "190:20:30.15",
    "true", "false", "True", "yes", "no", "on", "off", "y", "n", "null", "~", "Null", "",
    "2001-12-14", "Compression", "Longitudinal", "'quoted'", '"a\\tb"', "!!float 1", "!!str 1",
]
# plain scalars from this alphabet may be numbers, words, or text that is not YAML
PLAIN = st.text(alphabet="0123456789.eE+-_:xob aZ~#'", min_size=1, max_size=8)
SCALARS = st.one_of(
    st.sampled_from(SCALAR_TEXTS),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:e}".format),
    PLAIN,
    # double-quoted, with astral characters as themselves: libyaml refuses
    # the surrogate escapes ("\\ud83d") that json.dumps would write for them
    st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)),
)


@st.composite
def config_texts(draw):
    """A config-shaped YAML document: known sections and keys, each section
    in block or flow style, with a station.modules list in some of them."""
    lines = []
    names = draw(st.lists(st.sampled_from(sorted(config._SECTIONS)), unique=True, max_size=4))
    for name in names:
        keys = draw(st.lists(st.sampled_from(sorted(config._SECTIONS[name])), unique=True,
                             max_size=4))
        values = {key: draw(SCALARS) for key in keys}
        if name == "station" and "modules" in values and draw(st.booleans()):
            values["modules"] = "[" + ", ".join(
                f"{{kind: {draw(SCALARS)}, height: {draw(SCALARS)}}}"
                for _ in range(draw(st.integers(0, 3)))) + "]"
        if draw(st.booleans()):
            lines.append(f"{name}: {{{', '.join(f'{k}: {v}' for k, v in values.items())}}}")
        else:
            lines.append(f"{name}:")
            lines += [f"  {k}: {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def read_with(loader, text):
    """What a loader makes of text: the repr of its data, or YAMLError."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return "YAMLError"


class TestLoaders:
    def test_libyaml_where_pyyaml_has_it(self):
        assert config._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_refuses_a_surrogate_escape(self, tmp_path):
        """The one difference between the loaders: PyYAML's reads the escape as a
        lone surrogate, which no file name or output can encode."""
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(cfg_file(tmp_path, 'run: {output_path: "\\ud83d\\ude00.csv"}\n'))

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    @example(text="plant:\n  P_max: 1.0e3\n  dt: 1e3\n  k_free: .inf\n")
    def test_both_loaders_read_the_same_data(self, text):
        assert read_with(yaml.CSafeLoader, text) == read_with(yaml.SafeLoader, text), text
