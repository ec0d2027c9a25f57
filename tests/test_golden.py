"""The telemetry of the two reference runs, pinned by sha256.

bench/golden.json holds the hashes the benchmark checks every faster
version of the code against; reading them here makes a change that alters
one byte of either file fail the test suite as well.
"""

import hashlib
import json
from pathlib import Path

from peristation import read_telemetry
from peristation.cli import main
from tests.conftest import assert_reads_as, read_rows

GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_nominal_noiseless_run(tmp_path, capsys):
    telemetry = tmp_path / "t.csv"
    assert main(["run", "--out", str(telemetry)]) == 0
    assert sha256(telemetry) == GOLDEN["telemetry_sha256"]["noiseless"]


def test_noisy_seed0_calibrate_and_run(tmp_path, capsys):
    config = tmp_path / "noisy.yaml"
    config.write_text("plant:\n  noise_sigma: 0.05\n")
    baselines, telemetry = tmp_path / "b.csv", tmp_path / "t.csv"
    assert main(["calibrate", "--config", str(config), "--seed", "0",
                 "--out", str(baselines)]) == 0
    assert main(["run", "--config", str(config), "--baselines", str(baselines), "--seed", "0",
                 "--out", str(telemetry)]) == 0
    assert sha256(telemetry) == GOLDEN["telemetry_sha256"]["noisy_seed0"]


def test_noisy_seed0_recording_decodes_as_the_reference(tmp_path, capsys):
    """The golden noisy recording decodes to the per-line reference's rows,
    float bits included."""
    config = tmp_path / "noisy.yaml"
    config.write_text("plant:\n  noise_sigma: 0.05\n")
    baselines, telemetry = tmp_path / "b.csv", tmp_path / "t.csv"
    assert main(["calibrate", "--config", str(config), "--seed", "0",
                 "--out", str(baselines)]) == 0
    assert main(["run", "--config", str(config), "--baselines", str(baselines), "--seed", "0",
                 "--out", str(telemetry)]) == 0
    assert sha256(telemetry) == GOLDEN["telemetry_sha256"]["noisy_seed0"]
    assert_reads_as(read_telemetry(telemetry), read_rows(telemetry))
