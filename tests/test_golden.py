"""The telemetry of the two reference runs, pinned by sha256.

bench/golden.json holds the hashes the benchmark checks every faster
version of the code against; reading them here makes a change that alters
one byte of either file fail the test suite as well.
"""

import hashlib
import json
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

import peristation.telemetry as telemetry

from peristation import (ReplayBackend, TelemetryLog, load_baselines, load_config, read_telemetry,
                         run_station)
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


# The noisy recording's string table: the strings in the order that they
# first appear, row by row (kind, valve, phase), which no block boundary
# and neither decode path changes.
NOISY_SEED0_STRINGS = ["Compression", "Inflate", "L0:Grasp", "Longitudinal", "Hold", "Deflate",
                       "L0:AdvanceRelease", "-", "L0:RegraspBottom", "L0:ResetTop", "L1:Grasp",
                       "L1:AdvanceRelease", "L1:RegraspBottom", "L1:ResetTop"]


def test_noisy_seed0_recording_reads_alike_on_one_worker_and_two(noisy_seed0, monkeypatch):
    """Two decode workers give the one-worker TelemetryLog bit for bit, with
    the string table in the sequential decoder's order."""
    monkeypatch.setattr(telemetry, "_WORKERS", 2)
    two = read_telemetry(noisy_seed0)
    monkeypatch.setattr(telemetry, "_WORKERS", 1)
    assert_same_log(read_telemetry(noisy_seed0), two)
    for name in ("kind", "valve", "phase"):
        assert two.codes(name)[1].tolist() == NOISY_SEED0_STRINGS


def test_noisy_seed0_recording_reads_alike_at_any_block_size(noisy_seed0, monkeypatch):
    """Blocks of 64 KiB, 512 KiB and 1 MiB, each on one worker and on two,
    give one TelemetryLog: the table's order does not depend on where
    blocks end."""
    logs = []
    for size in (1 << 16, 1 << 19, 1 << 20):
        for workers in (1, 2):
            monkeypatch.setattr(telemetry, "_BATCH_BYTES", size)
            monkeypatch.setattr(telemetry, "_WORKERS", workers)
            logs.append(read_telemetry(noisy_seed0))
    for log in logs[1:]:
        assert_same_log(logs[0], log)
    assert logs[0].codes("phase")[1].tolist() == NOISY_SEED0_STRINGS


def test_noisy_seed0_replay_builds_no_event_column(noisy_seed0):
    """A replay reads no event: after the backend is built and the run
    replayed, the log's dense event column has not been built.  Read, it
    holds the reference rows' events."""
    cfg = load_config(noisy_seed0.with_name("noisy.yaml"))
    detection = replace(cfg.detection, baseline_rates=load_baselines(
        noisy_seed0.with_name("b.csv")))
    log = read_telemetry(noisy_seed0)
    backend = ReplayBackend(log, cfg.params.dt)
    result = run_station(backend, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                         detection, cfg.control, cfg.duration_s)
    assert result.outcome == "object exited" and backend.mismatches == 0
    assert not isinstance(log._event, np.ndarray)
    assert log.event.tolist() == [row.event for row in read_rows(noisy_seed0)]
    assert isinstance(log._event, np.ndarray)
    columns = [log.time_s, log.module_id, log.codes("kind"), log.pressure_kPa,
               log.codes("valve"), log.inflation_mm, log.object_z_mm, log.codes("phase")]
    with pytest.raises(ValueError, match="columns of equal length"):
        TelemetryLog(*columns, log.event[:-1])
