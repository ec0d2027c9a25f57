"""Telemetry round-trip and format guarantees."""

import numpy as np
import pytest

from peristation import (
    HOLD,
    INFLATE,
    TELEMETRY_HEADER,
    ObjectSpec,
    ObjectState,
    Plant,
    Rows,
    TelemetryLog,
    TelemetrySample,
    TelemetryWriter,
    read_telemetry,
)
from tests.conftest import read_rows


@pytest.fixture
def plant(three_module_layout, material, params):
    obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
    return Plant(three_module_layout, obj, params, material)


def record_one(path, plant, events=()):
    ids = (1, 2, 3)
    sensed = [1.25, 0.0, 0.004330999999]
    rows = Rows(ids, np.array([sensed]), np.array([plant.time]),
                np.array([[plant.inflation(mid) for mid in ids]]), np.array([plant.object.z]))
    valves = {1: INFLATE, 2: HOLD, 3: HOLD}
    with TelemetryWriter(path) as writer:
        writer.record([0.001], rows, valves, "L0:Grasp", plant.layout, list(events))
    return path


class TestWriter:
    def test_header_and_row_shape(self, tmp_path, plant):
        path = record_one(tmp_path / "t.csv", plant)
        lines = path.read_text().splitlines()
        assert lines[0] == TELEMETRY_HEADER
        assert lines[1] == "0.001000,1,Compression,1.250000,Inflate,0.000000,0.000000,L0:Grasp,"
        assert lines[2] == "0.001000,2,Longitudinal,0.000000,Hold,0.000000,0.000000,L0:Grasp,"
        # six decimals exactly, even for values carrying more
        assert lines[3].split(",")[3] == "0.004331"
        assert len(lines) == 4

    def test_station_events_get_module_zero_rows(self, tmp_path, plant):
        path = record_one(tmp_path / "t.csv", plant, [(0, "grasped level=0")])
        last = path.read_text().splitlines()[-1]
        assert last == "0.001000,0,-,0.000000,-,0.000000,0.000000,L0:Grasp,grasped level=0"

    def test_module_events_join_with_semicolon(self, tmp_path, plant):
        path = record_one(
            tmp_path / "t.csv", plant,
            [(1, "baseline module=1 rate=4.330000"), (1, "detection module=1 contact=0")],
        )
        row1 = path.read_text().splitlines()[1]
        assert row1.endswith("baseline module=1 rate=4.330000;detection module=1 contact=0")

    def test_object_position_is_ground_truth(self, tmp_path, plant):
        plant.object.z = 12.345678912
        path = record_one(tmp_path / "t.csv", plant)
        assert path.read_text().splitlines()[1].split(",")[6] == "12.345679"

    def test_recording_needs_a_plant(self, tmp_path):
        with TelemetryWriter(tmp_path / "t.csv") as writer:
            with pytest.raises(ValueError, match="ground truth"):
                writer.record([0.0], Rows((), np.empty((1, 0)), np.zeros(1)), {}, "L0:Grasp",
                              None, [])


class TestReader:
    def test_round_trip(self, tmp_path, plant):
        path = record_one(tmp_path / "t.csv", plant, [(0, "grasped level=0")])
        samples = read_telemetry(path)
        assert len(samples) == 4
        first, last = samples[0], samples[-1]
        assert (first.time_s, first.module_id, first.kind) == (0.001, 1, "Compression")
        assert first.pressure_kPa == 1.25
        assert first.valve == INFLATE
        assert last.module_id == 0
        assert last.event == "grasped level=0"

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,but,not,the,right,columns\n")
        with pytest.raises(ValueError, match="unrecognized telemetry header"):
            read_telemetry(bad)

    def test_malformed_row_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(TELEMETRY_HEADER + "\n0.001000,1,Compression\n")
        with pytest.raises(ValueError, match="line 2: expected 9 columns"):
            read_telemetry(bad)

    def test_unparseable_number_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            TELEMETRY_HEADER + "\n"
            "0.001000,1,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n"
            "oops,1,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_telemetry(bad)

    def test_blank_lines_skipped(self, tmp_path):
        ok = tmp_path / "ok.csv"
        ok.write_text(
            TELEMETRY_HEADER + "\n\n0.001000,1,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n"
        )
        assert len(read_telemetry(ok)) == 1


class TestTelemetryLog:
    def test_every_field_round_trips(self, tmp_path, plant):
        plant.object.z = 2.5
        path = record_one(tmp_path / "t.csv", plant,
                          [(1, "baseline module=1 rate=4.330000"), (0, "grasped level=0")])
        expected = [
            TelemetrySample(0.001, 1, "Compression", 1.25, INFLATE, 0.0, 2.5, "L0:Grasp",
                            "baseline module=1 rate=4.330000"),
            TelemetrySample(0.001, 2, "Longitudinal", 0.0, HOLD, 0.0, 2.5, "L0:Grasp", ""),
            TelemetrySample(0.001, 3, "Compression", 0.004331, HOLD, 0.0, 2.5, "L0:Grasp", ""),
            TelemetrySample(0.001, 0, "-", 0.0, "-", 0.0, 2.5, "L0:Grasp", "grasped level=0"),
        ]
        log = read_telemetry(path)
        assert isinstance(log, TelemetryLog)
        assert len(log) == 4
        assert list(log) == expected
        assert [log[i] for i in range(4)] == expected
        assert (log[-1], log[-4]) == (expected[-1], expected[0])
        assert list(log[1:3]) == expected[1:3]
        with pytest.raises(IndexError):
            log[4]
        assert list(TelemetryLog.from_samples(expected)) == expected

    def test_matches_the_per_row_reference(self, recording):
        assert recording.stat().st_size > 2 << 20  # spans several parse batches
        log = read_telemetry(recording)
        assert list(log) == read_rows(recording)
        # repeated strings are one object per distinct value
        assert len({id(v) for v in log.phase}) == len(set(log.phase))

    def test_commas_stay_in_the_event_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TELEMETRY_HEADER + "\n0.001000,0,-,0.0,-,0.0,0.0,L0:Grasp,a,b\n")
        assert read_telemetry(path)[0].event == "a,b"

    def test_bad_number_in_a_later_batch_names_its_line(self, recording):
        lines = recording.read_text().count("\n")
        with open(recording, "a") as f:
            f.write("0.001000,x,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n")
        with pytest.raises(ValueError, match=f"line {lines + 1}: invalid literal for int"):
            read_telemetry(recording)
