"""Telemetry round-trip and format guarantees."""

import errno
import math
import os
import re
import struct
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peristation.telemetry as telemetry

from peristation import (
    HOLD,
    INFLATE,
    TELEMETRY_HEADER,
    ObjectSpec,
    ObjectState,
    Plant,
    Rows,
    SimulatedBackend,
    TelemetryLog,
    TelemetryWriter,
    load_config,
    read_telemetry,
    run_station,
)
from tests.conftest import (Row, assert_reads_as, assert_same_log, column, counting_blocks,
                            log_nbytes, read_rows, traced_peak)


@pytest.fixture
def plant(three_module_layout, material, params):
    obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
    return Plant(three_module_layout, obj, params, material)


VALVES = {1: INFLATE, 2: HOLD, 3: HOLD}


def record_one(path, plant, events=()):
    ids = (1, 2, 3)
    sensed = [1.25, 0.0, 0.004330999999]
    rows = Rows(ids, np.array([sensed]), plant.inflation(plant.trajectory(0).pressure),
                np.array([plant.object.z]))
    with TelemetryWriter(path) as writer:
        writer.record([0.001], rows, VALVES, "L0:Grasp", plant.layout, list(events))
    return path


def three_rows(n):
    """n ticks of rows for three modules."""
    return Rows((1, 2, 3), np.full((n, 3), 1.25), np.zeros((n, 3)), np.zeros(n))


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
                writer.record([0.0], Rows((), np.empty((1, 0))), {}, "L0:Grasp",
                              None, [])

    @pytest.mark.parametrize("times, ticks", [(1, 3), (3, 2)])
    def test_tick_times_and_rows_of_other_lengths_rejected(self, tmp_path, plant, times, ticks):
        """One time for three rows would broadcast to three rows at that time."""
        path = tmp_path / "t.csv"
        with TelemetryWriter(path) as writer:
            with pytest.raises(ValueError, match=f"^{times} tick times for {ticks} rows$"):
                writer.record(np.full(times, 0.5), three_rows(ticks), VALVES, "L0:Grasp",
                              plant.layout, [])
        assert path.read_bytes() == (TELEMETRY_HEADER + "\n").encode()

    def test_no_ticks_write_nothing(self, tmp_path, plant):
        path = tmp_path / "t.csv"
        with TelemetryWriter(path) as writer:
            writer.record(np.empty(0), three_rows(0), VALVES, "L0:Grasp", plant.layout, [])
        assert path.read_bytes() == (TELEMETRY_HEADER + "\n").encode()

    def test_events_with_no_ticks_rejected(self, tmp_path, plant):
        with TelemetryWriter(tmp_path / "t.csv") as writer:
            with pytest.raises(ValueError, match="no tick"):
                writer.record(np.empty(0), three_rows(0), VALVES, "L0:Grasp", plant.layout,
                              [(0, "grasped level=0")])


def nominal_run(path, duration_s=None):
    """The nominal scenario recorded to path, for its configured duration or duration_s."""
    cfg = load_config()
    backend = SimulatedBackend(Plant(cfg.layout, ObjectState(cfg.object_spec, cfg.initial_z),
                                     cfg.params, cfg.material))
    with TelemetryWriter(path) as writer:
        run_station(backend, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                    cfg.detection, cfg.control, duration_s or cfg.duration_s, recorder=writer)
    return path.read_bytes()


class TestWriteInPlace:
    """The writer writes over an existing file from byte 0 and cuts a regular
    file at close to the bytes it wrote."""

    def test_short_run_over_a_long_one_is_a_fresh_run(self, tmp_path):
        over = tmp_path / "over.csv"
        full = nominal_run(over)
        inode = over.stat().st_ino
        fresh = nominal_run(tmp_path / "fresh.csv", 5.0)
        assert len(fresh) < len(full)
        assert nominal_run(over, 5.0) == fresh
        assert over.stat().st_ino == inode

    def test_close_twice(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"#" * 4096)
        writer = TelemetryWriter(path)
        writer.close()
        writer.close()
        assert path.read_text() == TELEMETRY_HEADER + "\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_close_that_fails_closes_once(self):
        writer = TelemetryWriter("/dev/full")
        with pytest.raises(OSError) as raised:
            writer.close()
        assert raised.value.errno == errno.ENOSPC
        assert writer._f.closed
        writer.close()  # does nothing

    @pytest.mark.parametrize("fails", ["fstat", "header"])
    def test_open_that_fails_closes_the_file(self, tmp_path, monkeypatch, fails):
        opened = []

        def keep(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(telemetry, "open", keep, raising=False)
        if fails == "fstat":
            def fstat(fd):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            monkeypatch.setattr(telemetry.os, "fstat", fstat)
        else:  # a header that cannot be encoded
            monkeypatch.setattr(telemetry, "TELEMETRY_HEADER", "\ud800")
        with pytest.raises((OSError, UnicodeEncodeError)):
            TelemetryWriter(tmp_path / "t.csv")
        assert [f.closed for f in opened] == [True]


class TestReader:
    def test_round_trip(self, tmp_path, plant):
        path = record_one(tmp_path / "t.csv", plant, [(0, "grasped level=0")])
        log = read_telemetry(path)
        assert len(log) == 4
        assert log.time_s.tolist() == [0.001] * 4
        assert log.module_id.tolist() == [1, 2, 3, 0]
        assert column(log, "kind")[0] == "Compression"
        assert log.pressure_kPa[0] == 1.25
        assert column(log, "valve")[0] == INFLATE
        assert log.event[-1] == "grasped level=0"

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
            Row(0.001, 1, "Compression", 1.25, INFLATE, 0.0, 2.5, "L0:Grasp",
                "baseline module=1 rate=4.330000"),
            Row(0.001, 2, "Longitudinal", 0.0, HOLD, 0.0, 2.5, "L0:Grasp", ""),
            Row(0.001, 3, "Compression", 0.004331, HOLD, 0.0, 2.5, "L0:Grasp", ""),
            Row(0.001, 0, "-", 0.0, "-", 0.0, 2.5, "L0:Grasp", "grasped level=0"),
        ]
        log = read_telemetry(path)
        assert isinstance(log, TelemetryLog)
        assert_reads_as(log, expected)

    def test_matches_the_per_row_reference(self, recording):
        assert recording.stat().st_size > 2 << 20  # spans several parse batches
        log = read_telemetry(recording)
        assert_reads_as(log, read_rows(recording))
        # repeated strings are codes into one table of distinct values
        codes, table = log.codes("phase")
        assert len(set(table.tolist())) == len(table) < len(codes)

    def test_commas_stay_in_the_event_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TELEMETRY_HEADER + "\n0.001000,0,-,0.0,-,0.0,0.0,L0:Grasp,a,b\n")
        assert read_telemetry(path).event.tolist() == ["a,b"]

    def test_bad_number_in_a_later_batch_names_its_line(self, recording):
        lines = recording.read_text().count("\n")
        with open(recording, "a") as f:
            f.write("0.001000,x,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n")
        with pytest.raises(ValueError, match=f"line {lines + 1}: invalid literal for int"):
            read_telemetry(recording)


@pytest.fixture
def fast_blocks():
    with counting_blocks() as counts:
        yield counts


def near_tie(k: int, side: int) -> float:
    """A double next to the midpoint between two 6-decimal values."""
    x = (k + 0.5) / 1e6
    return x if side == 0 else math.nextafter(x, side * math.inf)


doubles = st.one_of(
    st.floats(-1e9, 1e9),
    st.builds(near_tie, st.integers(-10**13, 10**13), st.sampled_from([-1, 0, 1])),
    st.floats(-5e-7, 5e-7),  # rounds to 0.000000 or -0.000000
    st.sampled_from([0.0, -0.0, 1e8, -1e8, 99999999.9999995, 123456789.0, 5e-7, -5e-7]),
)


class TestDecoder:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(doubles, min_size=1, max_size=40))
    def test_numbers_have_the_bits_of_float(self, values):
        """Each %.6f text decodes to float()'s double; a block takes the fast
        path exactly when every number has at most 8 integer digits."""
        texts = ["%.6f" % v for v in values]
        n = len(texts)
        lines = [f"{texts[i]},{i},Compression,{texts[(i + 1) % n]},Hold,{texts[(i + 2) % n]},"
                 f"{texts[(i + 3) % n]},L0:Grasp,\n" for i in range(n)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w", newline="") as f:
                f.write(TELEMETRY_HEADER + "\n" + "".join(lines))
            with counting_blocks() as counts:
                log = read_telemetry(path)
            assert_reads_as(log, read_rows(path))
        assert [struct.pack("<d", v) for v in log.time_s] == [
            struct.pack("<d", float(t)) for t in texts]
        fast = all(re.fullmatch(r"-?\d{1,8}\.\d{6}", t) for t in texts)
        assert counts == ({"fast": 1, "by line": 0} if fast else {"fast": 0, "by line": 1})

    @pytest.mark.parametrize("line, by_line", [
        ("\n", True),
        ("0.001000,0,-,0.000000,-,0.000000,0.000000,L0:Grasp,a,b\n", True),
        ("0.001000,1,Compression,1e3,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,+1.0,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,1_0.5,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,+1.000000,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,1_0.500000,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,+1,Compression,1.000000,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("123456789.000000,1,Compression,1.000000,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,12345678,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,1.0000001,Hold,0.000000,0.000000,L0:Grasp,\n", True),
        ("0.001000,1,Compression,1.000000,Hold,0.000000,0.000000,L0:Grasp,crlf\r\n", True),
        ("0.001000,1,Compression,1.000000,Hold,0.000000,0.000000," + "L0:" + "x" * 30 + ",\n",
         True),
        ("0.001000,0,-,0.000000,-,0.000000,0.000000,L0:Grasp,d\u00e9tection \u2713\n", False),
        ("0.001000,1,Compression,1.000000,Hold,0.000000,0.000000,L0: Grasp and more,\n", False),
    ], ids=["blank", "comma in event", "1e3", "+1.0", "1_0.5", "+1.000000", "1_0.500000",
            "+1 module", "9 digits",
            "no point", "7 decimals", "CRLF", "long phase", "non-ASCII event", "new phase"])
    def test_odd_line_in_a_later_block_reads_as_the_reference(self, recording, fast_blocks,
                                                               line, by_line):
        insert_line(recording, line)
        log = read_telemetry(recording)
        assert_reads_as(log, read_rows(recording))
        assert fast_blocks["fast"] > 0 and fast_blocks["by line"] == by_line

    def test_strings_that_share_a_bucket_keep_their_own_codes(self, tmp_path, fast_blocks):
        """600 distinct phases in one block fill the 256 buckets twice over,
        so rows whose bucket another string named are coded on their own."""
        path = tmp_path / "t.csv"
        path.write_text(TELEMETRY_HEADER + "\n" + "".join(
            f"0.001000,1,Compression,1.000000,Hold,0.000000,0.000000,L0:phase{i},\n"
            for i in range(600)))
        log = read_telemetry(path)
        assert_reads_as(log, read_rows(path))
        assert fast_blocks == {"fast": 1, "by line": 0}
        codes, table = log.codes("phase")
        assert len(set(codes.tolist())) == 600

    @pytest.mark.parametrize("line, error", [
        ("0.001000,1,Compression,0x10,Hold,0.000000,0.000000,L0:Grasp,\n",
         "could not convert string to float: '0x10'"),
        ("0.001000,1.5,Compression,1.000000,Hold,0.000000,0.000000,L0:Grasp,\n",
         "invalid literal for int"),
        ("0.001000,1,Compression,1.000000\n", "expected 9 columns, got 4"),
    ], ids=["hex float", "fractional module", "short row"])
    def test_bad_line_in_a_later_block_names_its_line(self, recording, line, error):
        lineno = insert_line(recording, line)
        with pytest.raises(ValueError, match=f"line {lineno}: {re.escape(error)}"):
            read_telemetry(recording)

    def test_columns_have_their_dtypes(self, recording):
        log = read_telemetry(recording)
        for name in ("time_s", "pressure_kPa", "inflation_mm", "object_z_mm"):
            assert getattr(log, name).dtype == np.float64
        assert log.module_id.dtype == np.int64
        for name in ("kind", "valve", "phase"):
            codes, table = log.codes(name)
            assert codes.dtype == np.uint8 and table.dtype == object
            assert {type(v) for v in table.tolist()} == {str}
        assert log.event.dtype == object

    @pytest.mark.parametrize("by_line", [False, True], ids=["fast", "by line"])
    def test_codes_widen_when_a_later_block_passes_256_strings(self, recording, by_line):
        """The first block's few strings are coded in uint8; a later block
        (decoded by position, or by line) brings 300 more phases, and the
        codes already read are widened to uint16 with their values: the
        three columns share one table, so all three widen."""
        small = read_telemetry(recording)
        with open(recording, "a") as f:
            f.write("\n" * by_line + "".join(
                f"99.000000,1,Compression,1.000000,Hold,0.000000,0.000000,L9:phase{i},\n"
                for i in range(300)))
        with counting_blocks() as counts:
            log = read_telemetry(recording)
        assert_reads_as(log, read_rows(recording))
        assert counts["by line"] == by_line and counts["fast"] > 1
        for name in ("kind", "valve", "phase"):
            (codes, table), (before, table_before) = log.codes(name), small.codes(name)
            assert before.dtype == np.uint8 and codes.dtype == np.uint16
            assert np.array_equal(codes[:len(before)], before)
            assert table[:len(table_before)].tolist() == table_before.tolist()
        assert len(log.codes("phase")[1]) > 256


class TestReadMemory:
    def test_a_read_holds_a_bound_beyond_the_log(self, recording, small_blocks):
        """Beyond the log, a read holds the blocks in flight and the workers'
        temporaries: a bound set by the block size (64 KiB here, so that
        it is small beside the log), not by the rows.  The recording and
        one four times as long stay under the same bound."""
        head, body = recording.read_bytes().split(b"\n", 1)
        longer = recording.with_name("longer.csv")
        longer.write_bytes(head + b"\n" + body * 4)
        read_telemetry(recording)  # a first read imports the thread pool
        extra = {}
        for path in (recording, longer):
            log, peak = traced_peak(read_telemetry, path)
            extra[path.name] = peak - log_nbytes(log)
        assert len(log) == 4 * len(read_rows(recording)) > 100_000
        assert max(extra.values()) < 32 * telemetry._BATCH_BYTES, extra


def insert_line(path, line, past: int = 3 << 19) -> int:
    """Insert a line (text or bytes) at the first line start past byte past
    (by default 1.5 MiB, a later parse block); returns its line number."""
    data = path.read_bytes()
    at = data.index(b"\n", past) + 1
    path.write_bytes(data[:at] + (line.encode() if isinstance(line, str) else line) + data[at:])
    return data.count(b"\n", 0, at) + 1


@pytest.fixture
def small_blocks(monkeypatch):
    """64 KiB blocks, so that a recording of a few megabytes makes dozens."""
    monkeypatch.setattr(telemetry, "_BATCH_BYTES", 1 << 16)


def read_on(workers: int, path, monkeypatch):
    """read_telemetry with its blocks decoded on this many worker threads."""
    monkeypatch.setattr(telemetry, "_WORKERS", workers)
    return read_telemetry(path)


class TestWorkers:
    """A read whose blocks are decoded on two workers equals a read on one,
    bit for bit, whatever order the workers finish in."""

    def test_block_by_line_between_decoded_blocks(self, recording, small_blocks, monkeypatch):
        insert_line(recording, "\n", recording.stat().st_size // 2)
        with counting_blocks() as counts:
            two = read_on(2, recording, monkeypatch)
        assert counts["by line"] == 1 and counts["fast"] > 20
        assert_same_log(read_on(1, recording, monkeypatch), two)
        assert_reads_as(two, read_rows(recording))

    def test_strings_that_share_a_bucket_over_several_blocks(self, tmp_path, monkeypatch):
        """600 distinct phases over 8 KiB blocks: each block codes about a
        hundred into its own table, with shared buckets."""
        monkeypatch.setattr(telemetry, "_BATCH_BYTES", 8192)
        path = tmp_path / "t.csv"
        path.write_text(TELEMETRY_HEADER + "\n" + "".join(
            f"0.001000,1,Compression,1.000000,Hold,0.000000,0.000000,L0:phase{i},\n"
            for i in range(600)))
        with counting_blocks() as counts:
            two = read_on(2, path, monkeypatch)
        assert counts["fast"] > 4 and counts["by line"] == 0
        assert_same_log(read_on(1, path, monkeypatch), two)
        assert_reads_as(two, read_rows(path))
        codes, table = two.codes("phase")
        assert len(set(codes.tolist())) == 600

    def test_more_workers_than_cores_switching_often(self, recording, small_blocks,
                                                     monkeypatch):
        """Eight workers and a 1 us switch interval: the log is still the
        one-worker log, and the thread-safe count sees every block."""
        one = read_on(1, recording, monkeypatch)
        data = recording.read_bytes()
        blocks = -(-(len(data) - data.index(b"\n") - 1) // telemetry._BATCH_BYTES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counting_blocks() as counts:
                many = read_on(8, recording, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert counts == {"fast": blocks, "by line": 0}
        assert_same_log(one, many)

    def test_lines_shorter_than_the_row_guess(self, tmp_path, small_blocks, monkeypatch):
        """Rows of 43 bytes, fewer than telemetry._LINE_BYTES, outnumber the
        first guess at the row count, so the columns grow as blocks come."""
        path = tmp_path / "t.csv"
        path.write_text(TELEMETRY_HEADER + "\n" + "".join(
            f"{k % 10}.000000,{k % 7},,-0.000000,,0.00000{k % 10},0.000000,,\n"
            for k in range(20000)))
        with counting_blocks() as counts:
            log = read_on(2, path, monkeypatch)
        assert counts["fast"] > 10 and counts["by line"] == 0
        assert path.stat().st_size // telemetry._LINE_BYTES < len(log) == 20000
        assert_reads_as(log, read_rows(path))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_of_two_bad_lines_is_reported(self, recording, small_blocks, monkeypatch,
                                                workers):
        size = recording.stat().st_size
        insert_line(recording, "0.001000,1,Compression,oops,Hold,0.0,0.0,L0:Grasp,\n",
                    3 * size // 4)
        first = insert_line(recording, "0.001000,x,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\n",
                            size // 4)
        with pytest.raises(ValueError, match=f"line {first}: invalid literal for int"):
            read_on(workers, recording, monkeypatch)


class TestNonUtf8:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("line", [
        b"0.001000,0,-,0.000000,-,0.000000,0.000000,L0:Grasp,d\xe9tection\n",
        b"0.001000,1,Compression,1.000000,Hold,0.000000,0.000000,L0:Gr\xffsp,\n",
        b"0.001000,1,Compression,1.0,Hold,0.0,0.0,L0:Grasp,\xff\xfe\n",
    ], ids=["event", "phase", "block by line"])
    def test_bad_bytes_name_their_line(self, recording, monkeypatch, workers, line):
        lineno = insert_line(recording, line)
        with pytest.raises(ValueError, match=f"line {lineno}: not UTF-8 text"):
            read_on(workers, recording, monkeypatch)

    def test_bad_bytes_in_the_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(TELEMETRY_HEADER.encode().replace(b"_s,", b"_\xff,") + b"\n")
        with pytest.raises(ValueError, match="unrecognized telemetry header: 'time_\ufffd,"):
            read_telemetry(bad)


def ulps_from(x: float, steps: int) -> float:
    """The double steps ulps above x (below for negative steps)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# integer parts at the edges of the encoder's tables and of the decoder's form
EDGES = [999.0, 999.999999, 999.9999995, 1000.0, 1e6, 1e8 - 1e-6, 1e8, 1e9, 1e15, 2.0**53,
         1e300, 5e-324]

encoder_doubles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2000.0, 2000.0),
    st.builds(lambda k, steps: ulps_from((k + 0.5) / 1e6, steps),
              st.integers(-10**10, 10**10), st.integers(-3, 3)),
    st.floats(-5e-7, 5e-7),  # rounds to 0.000000 or -0.000000
    st.builds(lambda x, sign, steps: sign * ulps_from(x, steps),
              st.sampled_from(EDGES), st.sampled_from([1.0, -1.0]), st.integers(-3, 3)),
    st.sampled_from([0.0, -0.0, -1e-9, math.nan, math.inf, -math.inf]),
)


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(encoder_doubles, min_size=1, max_size=60))
    def test_matches_percent_format(self, values):
        """Each row is '%.6f' % v and ',' right-aligned, NUL-padded, in a
        16-byte slot unless some text is longer, and each length is the text's."""
        encoded, lengths = telemetry._encode6(np.array(values))
        texts = [("%.6f," % v).encode() for v in values]
        width = max(16, *map(len, texts))
        assert encoded.shape == (len(values), width)
        assert [bytes(row) for row in encoded] == [t.rjust(width, b"\0") for t in texts]
        assert lengths.tolist() == [len("%.6f," % v) for v in values]


class TestAsRecorded:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(encoder_doubles, min_size=1, max_size=60))
    def test_reads_back_as_the_text(self, values):
        """Each value becomes float('%.6f' % v), sign of zero included, and
        stays there."""
        once = telemetry.as_recorded(values)
        expected = [float("%.6f" % v) for v in values]
        assert [struct.pack("<d", v) for v in once.tolist()] == [
            struct.pack("<d", v) for v in expected]
        assert np.array_equal(telemetry.as_recorded(once), once, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(g=st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, 0.5, 13.5, 15.0]),
                       st.builds(lambda k, steps: ulps_from((k + 0.5) / 1e6, steps),
                                 st.integers(-2 * 10**7, 2 * 10**7), st.integers(-3, 3))),
           rises=st.booleans(), offsets=st.lists(st.floats(-3e-6, 3e-6), max_size=20))
    def test_threshold_decides_as_the_recorded_value(self, g, rises, offsets):
        """A raw value passes the threshold exactly when its recorded value
        passes g: at the threshold, at its neighbours and around g."""
        edge = telemetry.recorded_threshold(g, rises)
        xs = [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
              *(g + d for d in offsets)]
        recorded = telemetry.as_recorded(xs).tolist()
        for x, r in zip(xs, recorded):
            if rises:
                assert (x >= edge) == (r >= g), (x, r)
            else:
                assert (x <= edge) == (r <= g), (x, r)


def reference_text(calls, layout) -> bytes:
    """Reference writer: each record() call's rows, one f-string per row."""
    lines = [TELEMETRY_HEADER + "\n"]
    for now, rows, valves, phase, events in calls:
        for k, t in enumerate(now):
            texts = {}
            for mid, text in events if k == 0 else ():
                texts.setdefault(mid, []).append(text)
            z = rows.object_z[k]
            for i, mod in enumerate(layout.modules):
                lines.append(f"{t:.6f},{mod.id},{mod.kind},{rows.pressure[k, i]:.6f},"
                             f"{valves[mod.id]},{rows.inflation[k, i]:.6f},{z:.6f},{phase},"
                             f"{';'.join(texts.get(mod.id, ()))}\n")
            for text in texts.get(0, ()):
                lines.append(f"{t:.6f},0,-,0.000000,-,0.000000,{z:.6f},{phase},{text}\n")
    return "".join(lines).encode()


def random_values(rng, shape) -> np.ndarray:
    """Floats of every kind the encoder tells apart: plain, near-ties, values
    printing -0.000000, beyond the tables, and nan and inf."""
    kinds = [
        rng.normal(0.0, 20.0, shape),
        (rng.integers(-10**9, 10**9, shape) + 0.5) / 1e6,
        rng.uniform(-5e-7, 0.0, shape),
        rng.uniform(-1e10, 1e10, shape),
        rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], shape),
    ]
    pick = rng.choice(len(kinds), shape, p=[0.8, 0.08, 0.05, 0.05, 0.02])
    return np.choose(pick, kinds)


@st.composite
def record_calls(draw):
    """A layout and a run of record() calls: (now, rows, valves, phase, events)."""
    m = draw(st.integers(1, 9))
    layout = SimpleNamespace(modules=[
        SimpleNamespace(id=i, kind="Compression" if i % 2 else "Longitudinal")
        for i in range(1, m + 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    calls, start = [], 0
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.one_of(st.just(1), st.integers(2, 600)))
        now = (start + np.arange(n)) * 1e-3
        pressure, inflation = random_values(rng, (n, m)), random_values(rng, (n, m))
        # columns that hold one value, keep one width, or ramp over 0 and 10
        for make in (lambda: random_values(rng, 1), lambda: rng.uniform(1, 9, n),
                     lambda: np.linspace(rng.uniform(-2, 0), rng.uniform(10, 12), n)):
            for column in draw(st.sets(st.integers(0, 2 * m - 1))):
                (pressure if column < m else inflation)[:, column % m] = make()
        for column in draw(st.sets(st.integers(0, 2 * m - 1))):  # held, then varying
            values = (pressure if column < m else inflation)[:, column % m]
            values[:draw(st.integers(0, n - 1))] = values[0]
        z = draw(st.sampled_from(["varies", "one value", "-0.0"]))
        object_z = {"varies": random_values(rng, n), "one value": np.full(n, 12.5),
                    "-0.0": np.full(n, -0.0)}[z]
        events = draw(st.lists(st.tuples(
            st.integers(0, m),
            st.sampled_from(["grasped level=0", "drop 5% over", "probe %s %d %%", "détection ✓"]),
        ), max_size=4))
        valves = {i: draw(st.sampled_from([HOLD, INFLATE])) for i in range(1, m + 1)}
        calls.append((now, Rows(tuple(range(1, m + 1)), pressure, inflation, object_z),
                      valves, draw(st.sampled_from(["L0:Grasp", "L1:Advance%"])), events))
        start += n
    return layout, calls


def assert_writes_the_reference(layout, calls):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with TelemetryWriter(path) as writer:
            for now, rows, valves, phase, events in calls:
                writer.record(now, rows, valves, phase, layout, events)
        with open(path, "rb") as f:
            assert f.read() == reference_text(calls, layout)


def one_call(pressure, inflation, events=(), now=None, object_z=None):
    """A layout of one module per column, and one record() call over the rows:
    by default tick k at k ms and object z rising from 1 to 2."""
    n, m = pressure.shape
    layout = SimpleNamespace(modules=[SimpleNamespace(id=i, kind="Compression")
                                      for i in range(1, m + 1)])
    now = np.arange(n) * 1e-3 if now is None else now
    object_z = np.linspace(1.0, 2.0, n) if object_z is None else object_z
    rows = Rows(tuple(range(1, m + 1)), pressure, inflation, object_z)
    return layout, [(now, rows, {i: HOLD for i in range(1, m + 1)}, "L0:Grasp", list(events))]


def in_sequence(*drawn):
    """one_call results of one layout as one run of calls."""
    return drawn[0][0], [call for _, calls in drawn for call in calls]


class TestWriterReference:
    @settings(max_examples=60, deadline=None)
    @given(drawn=record_calls())
    # every column holds one value over three chunks, the time too: no slot to fill
    @example(drawn=one_call(np.full((600, 2), 3.5), np.full((600, 2), -0.0),
                            now=np.full(600, 0.25), object_z=np.full(600, 12.5)))
    # a tick with events alone (no slot), no ticks, then a call over two chunks
    @example(drawn=in_sequence(
        one_call(np.ones((1, 9)), np.zeros((1, 9)), [(0, "grasped level=0"), (9, "probe")]),
        one_call(np.ones((0, 9)), np.zeros((0, 9))),
        one_call(np.linspace(-1.0, 11.0, 300)[:, None].repeat(9, 1),
                 np.full((300, 9), 50.0), [(9, "drop 5% over")])))
    # two calls of one slot layout whose texts step by different lengths
    @example(drawn=in_sequence(*[one_call(np.linspace(1, 2, 2 * n).reshape(n, 2),
                                          np.linspace(50, 60, 2 * n).reshape(n, 2))
                                 for n in (300, 40)]))
    # a fallback text at the first tick of a chunk widens every row of the call
    # (ticks 1 to 299 go in chunks from 1 and 257: the first tick has a template of its own)
    @example(drawn=one_call(np.r_[np.full(257, 1.5), 1e10, np.full(42, 2.5)][:, None],
                            np.full((300, 1), 7.0), [(1, "baseline")]))
    def test_matches_the_reference_writer(self, drawn):
        assert_writes_the_reference(*drawn)

    def test_all_fast_call_over_three_chunks(self):
        """A call whose every value the tables encode, over three chunks, with
        first-tick events for module 0 and the last module."""
        rng = np.random.default_rng(3)
        pressure, inflation = rng.uniform(-20, 20, (700, 4)), rng.uniform(0, 999, (700, 4))
        layout, calls = one_call(pressure, inflation, [(0, "grasped level=0"), (4, "probe")])
        now, rows = calls[0][:2]
        values = np.concatenate([now, rows.object_z, pressure.ravel(), inflation.ravel()])
        assert telemetry._digits6(values)[1].all()
        assert_writes_the_reference(layout, calls)

    def test_columns_that_keep_their_width(self):
        """Over 600 ticks (three write chunks) every column keeps one width,
        so no slot holds a NUL."""
        rng = np.random.default_rng(1)
        pressure = np.column_stack([rng.uniform(1, 9, 600), rng.uniform(-9, -1, 600)])
        inflation = np.column_stack([rng.uniform(10, 99, 600), rng.uniform(100, 999, 600)])
        for column in (*pressure.T, *inflation.T):
            assert len({len("%.6f" % v) for v in column.tolist()}) == 1
        assert_writes_the_reference(*one_call(pressure, inflation, [(1, "baseline")]))

    @pytest.mark.parametrize("fallback", [1e10, math.nan, -math.inf])
    def test_one_fallback_value_in_a_narrow_column(self, fallback):
        """A '%.6f' text longer (1e10) or shorter (nan) than the rest of its
        column's, at the first tick, in the middle and at the last."""
        rng = np.random.default_rng(2)
        pressure = rng.uniform(1, 9, (600, 3))
        pressure[[0, 300, 599], [0, 1, 2]] = fallback
        assert_writes_the_reference(*one_call(pressure, rng.uniform(1, 9, (600, 3))))

    def test_nul_in_the_text_rejected(self, tmp_path, plant):
        with pytest.raises(ValueError, match="NUL"):
            record_one(tmp_path / "t.csv", plant, [(0, "a\0b")])
