"""The telemetry of the two reference runs, pinned by sha256.

bench/golden.json holds the hashes the benchmark checks every faster
version of the code against; reading them here makes a change that alters
one byte of either file fail the test suite as well.
"""

import hashlib
import json
from pathlib import Path

import pytest

import peristation.telemetry as telemetry

from peristation import read_telemetry
from peristation.cli import main
from tests.conftest import assert_reads_as, assert_same_log, counting_blocks, read_rows

GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_nominal_noiseless_run(tmp_path, capsys):
    telemetry = tmp_path / "t.csv"
    assert main(["run", "--out", str(telemetry)]) == 0
    assert sha256(telemetry) == GOLDEN["telemetry_sha256"]["noiseless"]


@pytest.fixture(scope="module")
def noisy_seed0(tmp_path_factory):
    """The quick start's noisy seed-0 calibrate + run telemetry, recorded once."""
    tmp_path = tmp_path_factory.mktemp("noisy")
    config = tmp_path / "noisy.yaml"
    config.write_text("plant:\n  noise_sigma: 0.05\n")
    baselines, telemetry = tmp_path / "b.csv", tmp_path / "t.csv"
    assert main(["calibrate", "--config", str(config), "--seed", "0",
                 "--out", str(baselines)]) == 0
    assert main(["run", "--config", str(config), "--baselines", str(baselines), "--seed", "0",
                 "--out", str(telemetry)]) == 0
    return telemetry


def test_noisy_seed0_calibrate_and_run(noisy_seed0):
    assert sha256(noisy_seed0) == GOLDEN["telemetry_sha256"]["noisy_seed0"]


def test_noisy_seed0_recording_decodes_as_the_reference(noisy_seed0):
    """The golden noisy recording decodes to the per-line reference's rows,
    float bits included."""
    assert sha256(noisy_seed0) == GOLDEN["telemetry_sha256"]["noisy_seed0"]
    assert_reads_as(read_telemetry(noisy_seed0), read_rows(noisy_seed0))


def test_noisy_seed0_recording_decodes_by_byte_position(noisy_seed0):
    """Every block the writer wrote takes the decoder's fast path: the two
    halves of the codec agree on one fixed-6 form."""
    with counting_blocks() as counts:
        read_telemetry(noisy_seed0)
    assert counts["fast"] > 1 and counts["by line"] == 0


# The noisy recording's string table, in the order that 1 MiB blocks give
# it: each block's new strings in the order of their buckets.
NOISY_SEED0_STRINGS = ["Inflate", "L0:Grasp", "Hold", "L0:AdvanceRelease", "Deflate",
                       "Longitudinal", "-", "Compression", "L0:RegraspBottom", "L0:ResetTop",
                       "L1:Grasp", "L1:AdvanceRelease", "L1:RegraspBottom", "L1:ResetTop"]


def test_noisy_seed0_recording_reads_alike_on_one_worker_and_two(noisy_seed0, monkeypatch):
    """Two decode workers give the one-worker TelemetryLog bit for bit, with
    the string table in the sequential decoder's order."""
    monkeypatch.setattr(telemetry, "_WORKERS", 2)
    two = read_telemetry(noisy_seed0)
    monkeypatch.setattr(telemetry, "_WORKERS", 1)
    assert_same_log(read_telemetry(noisy_seed0), two)
    for name in ("kind", "valve", "phase"):
        assert two.codes(name)[1].tolist() == NOISY_SEED0_STRINGS
