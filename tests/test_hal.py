"""Backend contract: simulated sensing/actuation and recorded-stream replay."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peristation import (
    DEFLATE,
    HOLD,
    INFLATE,
    ControlConfig,
    DetectionConfig,
    EndOfRecordingError,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    ReplayBackend,
    ReplayMismatchError,
    RingGeometry,
    SimulatedBackend,
    SurrogateMaterial,
    TelemetryWriter,
    ValveCommand,
    build_station,
    calibrate_kappa,
    load_config,
    read_telemetry,
    run_station,
)
from peristation.plant import VALVE_MODES
from tests.conftest import NOMINAL, Row, data_address, log_of, read_rows, traced_peak


@pytest.fixture
def backend(three_module_layout, material, params):
    plant = Plant(three_module_layout, None, params, material)
    return SimulatedBackend(plant)


def noisy_backend(layout, material, sigma=0.05, seed=0):
    params = PlantParams(noise_sigma=sigma, rng_seed=seed)
    return SimulatedBackend(Plant(layout, None, params, material))


def sample(t, mid, pressure, valve, module_id_kind="Compression"):
    return Row(t, mid, module_id_kind, pressure, valve, 0.0, 0.0, "L0:Grasp", "")


def replay_fixture():
    """Three ticks of two modules, module 1 inflating from tick 0, replayed
    by a controller that has sent that command."""
    rows = []
    for k, t in enumerate([0.0, 0.001, 0.002]):
        rows.append(sample(t, 1, 1.0 + k, INFLATE))
        rows.append(sample(t, 2, 2.0 + k, HOLD, "Longitudinal"))
    backend = ReplayBackend(log_of(rows), 1e-3)
    backend.set_valve(ValveCommand(1, INFLATE, 0.0))
    return backend


def recorded_valves(path) -> list[dict]:
    """Each tick's recorded valve mode per module id, by the reference parser."""
    ticks = {}
    for row in read_rows(path):
        if row.module_id:
            ticks.setdefault(row.time_s, {})[row.module_id] = row.valve
    return list(ticks.values())


def command_recorded(backend, valves, k):
    """Send the valve changes recorded at tick k (from HOLD at tick 0), as
    the live controller sent them."""
    before = valves[k - 1] if k else dict.fromkeys(valves[k], HOLD)
    for mid, mode in valves[k].items():
        if mode != before[mid]:
            backend.set_valve(ValveCommand(mid, mode, backend.now))


def advance_recorded(backend, valves, k, j):
    """advance(j) from tick k, in steps that stop on each tick with recorded
    valve changes to send them."""
    end = k + j
    while k < end:
        step = next((c for c in range(k + 1, end) if valves[c] != valves[c - 1]), end) - k
        backend.advance(step)
        k += step
        if k < len(valves):
            command_recorded(backend, valves, k)


class BackendContract:
    """What every backend accepts and refuses, run on each backend's class.

    A subclass's backend fixture gives a fresh backend at time 0 that
    accepts module 1 inflating and module 2 holding.
    """

    def test_unknown_endpoint_rejected(self, backend):
        with pytest.raises(ValueError, match="endpoint"):
            backend.read_pressure(9)
        with pytest.raises(ValueError, match="endpoint"):
            backend.set_valve(ValveCommand(9, HOLD, 0.0))

    def test_unknown_mode_rejected(self, backend):
        with pytest.raises(ValueError, match="unknown valve mode 'Open'"):
            backend.set_valve(ValveCommand(1, "Open", 0.0))

    def test_command_timestamps_monotonic_per_module(self, backend):
        backend.set_valve(ValveCommand(1, INFLATE, 1.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            backend.set_valve(ValveCommand(1, INFLATE, 0.5))
        # other modules keep their own clocks
        backend.set_valve(ValveCommand(2, HOLD, 0.5))
        backend.set_valve(ValveCommand(1, INFLATE, 1.0))  # equal is allowed

    def test_refused_command_keeps_no_timestamp(self, backend):
        with pytest.raises(ValueError, match="valve mode"):
            backend.set_valve(ValveCommand(1, "Open", 5.0))
        assert backend.set_valve(ValveCommand(1, INFLATE, 1.0))

    def test_tick_rejects_foreign_dt(self, backend):
        for dt in (0.0, 2e-3, 0.5):
            with pytest.raises(ValueError, match="fixed dt"):
                backend.tick(dt)
        assert backend.now == 0.0  # no tick was taken
        assert backend.tick(1e-3) == backend.now == 0.001

    def test_tiny_dts_compare_relatively(self, backend_at):
        """dts under 1e-12 s are not all one: at 1e-13 s a tick of 2e-13 s is refused."""
        backend = backend_at(1e-13)
        with pytest.raises(ValueError, match=re.escape("backend steps at fixed dt=1e-13, got 2e-13")):
            backend.tick(2e-13)
        assert backend.now == 0.0  # no tick was taken
        backend.tick(1e-13)

    def test_lookahead_and_advance_reject_bad_counts(self, backend):
        with pytest.raises(ValueError, match="n >= 1"):
            backend.lookahead(0)
        with pytest.raises(ValueError, match="j >= 0"):
            backend.advance(-1)
        assert backend.now == 0.0


class TestSimulatedBackend(BackendContract):
    @pytest.fixture
    def backend_at(self, three_module_layout, material):
        return lambda dt: SimulatedBackend(Plant(three_module_layout, None, PlantParams(dt=dt),
                                                 material))

    def test_noise_free_read_is_plant_truth(self, backend):
        backend.plant.set_valve(1, INFLATE)
        backend.tick(1e-3)
        value, t = backend.read_pressure(1)
        assert value == backend.plant.trajectory(0).pressure[0, 0]
        assert t == backend.now == 1e-3

    def test_endpoints_expose_both_capabilities(self, backend):
        assert backend.lookahead(1).ids == (1, 2, 3)
        for mid in (1, 2, 3):
            assert backend.read_pressure(mid) == (0.0, 0.0)
            assert backend.set_valve(ValveCommand(mid, INFLATE, 0.0))

    def test_set_valve_reaches_plant(self, backend):
        assert backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        # module 1 inflates at the free rate from the next step on; the others hold
        assert backend.plant.trajectory(1).pressure[1].tolist() == [4.33 * 1e-3, 0.0, 0.0]

    def test_sensed_value_frozen_within_tick(self, backend):
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        backend.tick(1e-3)
        first, _ = backend.read_pressure(1)
        backend.set_valve(ValveCommand(1, DEFLATE, 1e-3))
        again, _ = backend.read_pressure(1)
        assert again == first

    def test_same_seed_reproduces_sensed_stream(self, three_module_layout, material):
        a = noisy_backend(three_module_layout, material, seed=7)
        b = noisy_backend(three_module_layout, material, seed=7)
        for _ in range(50):
            for backend in (a, b):
                backend.set_valve(ValveCommand(1, INFLATE, backend.now))
                backend.tick(1e-3)
            for mid in (1, 2, 3):
                assert a.read_pressure(mid) == b.read_pressure(mid)

    def test_different_seeds_diverge(self, three_module_layout, material):
        a = noisy_backend(three_module_layout, material, seed=7)
        b = noisy_backend(three_module_layout, material, seed=8)
        a.tick(1e-3)
        b.tick(1e-3)
        assert a.read_pressure(1) != b.read_pressure(1)

    def test_noise_never_enters_the_plant(self, three_module_layout, material):
        noisy = noisy_backend(three_module_layout, material, seed=3)
        clean = noisy_backend(three_module_layout, material, sigma=0.0)
        for backend in (noisy, clean):
            backend.set_valve(ValveCommand(1, INFLATE, 0.0))
            for _ in range(100):
                backend.tick(1e-3)
        assert noisy.plant.trajectory(0).pressure[0, 0] == clean.plant.trajectory(0).pressure[0, 0]
        assert noisy.read_pressure(1) != clean.read_pressure(1)

    def test_read_pressure_is_the_current_row(self, three_module_layout, material):
        backend = noisy_backend(three_module_layout, material, seed=4)
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        backend.tick(1e-3)
        reads = [backend.read_pressure(mid)[0] for mid in (1, 2, 3)]
        assert reads == backend.lookahead(1).pressure[0].tolist()
        assert all(type(v) is float for v in reads)
        backend.tick(1e-3)
        assert [backend.read_pressure(mid)[0] for mid in (1, 2, 3)] != reads

    def test_noise_draws_do_not_depend_on_read_pattern(self, three_module_layout, material):
        reads_all = noisy_backend(three_module_layout, material, seed=11)
        reads_one = noisy_backend(three_module_layout, material, seed=11)
        for _ in range(20):
            got_all = [reads_all.read_pressure(mid)[0] for mid in (1, 2, 3)]
            got_one = reads_one.read_pressure(2)[0]
            assert got_one == got_all[1]
            reads_all.tick(1e-3)
            reads_one.tick(1e-3)

    def test_lookahead_and_advance_repeat_the_tick_reads(self, three_module_layout, material):
        """Rows, partial commits, a valve change and an advance past the
        lookahead all give the reads of a backend ticked one step at a time."""
        ticked, blocks = (noisy_backend(three_module_layout, material, seed=9) for _ in range(2))
        for backend in (ticked, blocks):
            backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        reads = []
        for k in range(101):
            reads.append((ticked.now, [ticked.read_pressure(mid)[0] for mid in (1, 2, 3)]))
            if k == 40:
                ticked.set_valve(ValveCommand(2, INFLATE, ticked.now))
            ticked.tick(1e-3)

        def rows_match(look, k):
            return (blocks.now, look.pressure.tolist()) == (
                reads[k][0], [sensed for _, sensed in reads[k:k + len(look)]])

        assert rows_match(blocks.lookahead(30), 0)
        blocks.advance(20)  # the noise of ticks 20 to 29 stays drawn
        assert rows_match(blocks.lookahead(20), 20)
        blocks.advance(20)
        blocks.set_valve(ValveCommand(2, INFLATE, blocks.now))
        assert rows_match(blocks.lookahead(10), 40)
        blocks.advance(60)  # past the lookahead
        assert (blocks.now, [blocks.read_pressure(mid)[0] for mid in (1, 2, 3)]) == reads[100]

    @pytest.mark.parametrize("sigma", [0.05, 0.0])
    def test_sensed_rows_are_the_seeded_stream_tick_by_tick(self, three_module_layout, material,
                                                             sigma):
        """The noise of tick k is row k of one default_rng(seed) draw of
        (ticks, modules) normals: tick-major, in module order, whatever
        lookaheads and advances read it.  Without noise the sensed rows are
        the plant's rows, the same bits."""
        seed = 13
        backend = noisy_backend(three_module_layout, material, sigma, seed)
        stream = np.random.default_rng(seed).normal(0.0, 0.05, (200, 3))
        k = 0  # the current tick

        def check(n):
            rows = backend.lookahead(n)
            want = rows.truth + stream[k:k + n] if sigma else rows.truth
            assert len(rows) == n
            assert rows.pressure.tobytes() == want.tobytes()

        def advance(j):
            nonlocal k
            backend.advance(j)
            k += j

        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        check(30)
        advance(20)  # partly into the lookahead
        check(20)
        advance(5)
        check(1)
        backend.set_valve(ValveCommand(2, INFLATE, backend.now))  # voids the lookahead
        check(10)
        advance(60)  # past the lookahead
        check(50)
        advance(50)
        check(60)

    def test_noiseless_rows_held_across_lookaheads_keep_their_bits(self, backend):
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        rows = backend.lookahead(100)
        bits = [a.tobytes() for a in (rows.pressure, rows.inflation, rows.object_z)]
        backend.advance(40)
        backend.set_valve(ValveCommand(2, INFLATE, backend.now))
        later = backend.lookahead(100)
        assert not np.shares_memory(later.pressure, rows.pressure)
        assert [a.tobytes() for a in (rows.pressure, rows.inflation, rows.object_z)] == bits

    def test_inflation_read_late_keeps_its_bits(self, three_module_layout, material, params):
        """Held rows and trajectories compute inflation from the pressures
        they hold: read after the plant has moved on and computed other
        trajectories, it has the bits of one read at once."""
        early, late = (SimulatedBackend(Plant(three_module_layout, None, params, material))
                       for _ in range(2))
        for backend in (early, late):
            backend.set_valve(ValveCommand(1, INFLATE, 0.0))
            backend.set_valve(ValveCommand(2, INFLATE, 0.0))
        want = early.lookahead(100).inflation.tobytes()
        traj_want = early.plant.inflation(early.plant.trajectory(50).pressure).tobytes()
        rows, traj = late.lookahead(100), late.plant.trajectory(50)
        late.advance(40)
        late.set_valve(ValveCommand(2, DEFLATE, late.now))
        late.lookahead(100)
        late.advance(30)
        assert rows.inflation.tobytes() == want
        assert late.plant.inflation(traj.pressure).tobytes() == traj_want

    def test_released_rows_leave_their_memory_to_the_next_lookahead(self, backend):
        """The backend lets go of its last trajectory too, with or without an advance."""
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        rows = backend.lookahead(100)
        address = data_address(rows.pressure)
        del rows
        rows = backend.lookahead(100)
        assert data_address(rows.pressure) == address
        backend.advance(40)
        del rows
        taker = np.empty((10, 100))  # takes the storage's memory, had the plant freed it
        assert data_address(backend.lookahead(100).pressure) == address != data_address(taker)

    def test_drain_events_collects_then_clears(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 30.0), 45.0)
        backend = SimulatedBackend(Plant(three_module_layout, obj, params, material))
        backend.set_valve(ValveCommand(3, INFLATE, 0.0))
        for _ in range(1700):
            backend.tick(1e-3)
        backend.drain_events()
        backend.set_valve(ValveCommand(3, DEFLATE, backend.now))
        for _ in range(2000):
            backend.tick(1e-3)
        events = backend.drain_events()
        assert (0, "drop to_z=0.000000") in events
        assert backend.drain_events() == []


class TestReplayBackend(BackendContract):
    @pytest.fixture
    def backend(self):
        return replay_fixture()

    @pytest.fixture
    def backend_at(self):
        """A recording of three ticks at dt, its times rounded as a file's."""
        return lambda dt: ReplayBackend(log_of([sample(round(k * dt, 6), mid, 1.0, HOLD)
                                                for k in range(3) for mid in (1, 2)]), dt)

    def test_reads_return_the_recording(self):
        backend = replay_fixture()
        assert backend.read_pressure(1) == (1.0, 0.0)
        assert backend.read_pressure(2) == (2.0, 0.0)
        backend.tick(1e-3)
        assert backend.now == 0.001
        assert backend.read_pressure(1) == (2.0, 0.001)

    def test_read_pressure_follows_the_ticks(self):
        backend = replay_fixture()
        assert [backend.read_pressure(mid) for mid in (1, 2)] == [(1.0, 0.0), (2.0, 0.0)]
        backend.tick(1e-3)
        reads = [backend.read_pressure(mid) for mid in (1, 2)]
        assert reads == [(2.0, 0.001), (3.0, 0.001)]
        assert all(type(v) is float for read in reads for v in read)
        backend.tick(1e-3)
        with pytest.raises(EndOfRecordingError):
            backend.tick(1e-3)
        with pytest.raises(EndOfRecordingError):
            backend.lookahead(1)

    @pytest.mark.parametrize("ticks, bad", [
        ([(0, (1, 2)), (1, (1, 2)), (2, (2, 1))],
         "not a tick grid: tick 2: module ids [2, 1] are not the first tick's [1, 2]"),
        ([(0, (1, 2)), (1, (1,)), (2, (1, 2))], "not a tick grid: tick 1: module ids [1, 1]"),
        ([(0, (1, 2)), (1, (1, 2)), (2, (1,))], "not a tick grid: tick 2: module ids [1]"),
        ([(0, (1, 2)), (1, (1, 2, 3)), (2, (1, 2))], "not a tick grid: tick 2: module ids [3, 1]"),
        ([(0, (1, 2, 2)), (1, (1, 2, 2))], "not a tick grid: tick 0: module ids [1, 2, 2] repeat"),
        ([(0, (1, 2)), (1, (1, 2)), (1, (1, 2))],
         "does not tick at dt=0.001: tick 2 is at 0.001 s, not at 0.002 s"),
        ([(0, (1, 2)), (2, (1, 2)), (1, (1, 2))],
         "does not tick at dt=0.001: tick 1 is at 0.002 s, not at 0.001 s"),
        ([(0, (1, 2)), (1, (1,)), (1.5, (2,))],
         "not a tick grid: tick 1: rows at [0.001, 0.0015] s"),
    ], ids=["swapped order", "missing module", "short last tick", "extra module",
            "repeated module", "repeated time", "decreasing time", "rows at two times"])
    def test_recording_that_is_not_a_grid_rejected(self, ticks, bad):
        rows = [sample(k * 1e-3, mid, 1.0, HOLD) for k, ids in ticks for mid in ids]
        with pytest.raises(ValueError, match=re.escape(bad)):
            ReplayBackend(log_of(rows), 1e-3)

    def test_grids_hold_one_column_copy_at_a_time(self, recording):
        """Beyond the log, building the backend holds at most its grids
        (pressure and valve codes) and one more copy of a column's module
        rows."""
        log = read_telemetry(recording)
        backend, peak = traced_peak(ReplayBackend, log, PlantParams().dt)
        column = backend._pressure.nbytes
        assert peak <= column + backend._valve.nbytes + column

    @pytest.mark.parametrize("dt, bad", [(5e-4, "tick 1 is at 0.001 s, not at 0.0005 s"),
                                         (2e-3, "tick 1 is at 0.001 s, not at 0.002 s")])
    def test_recording_at_another_dt_rejected(self, dt, bad):
        rows = [sample(k * 1e-3, mid, 1.0, HOLD) for k in range(3) for mid in (1, 2)]
        with pytest.raises(ValueError, match=f"does not tick at dt={dt}: {re.escape(bad)}"):
            ReplayBackend(log_of(rows), dt)

    def test_recording_whose_time_falls_rejected(self):
        """Inside the slack of k * dt a tick can be recorded before the tick
        before it when dt is under 1 us; scan() needs time that never falls."""
        rows = [sample(t, mid, 1.0, HOLD) for t in (0.0, 3e-7, 1e-7) for mid in (1, 2)]
        with pytest.raises(ValueError, match=re.escape(
                "does not tick at dt=1e-09: tick 2 is at 1e-07 s, before tick 1 at 3e-07 s")):
            ReplayBackend(log_of(rows), 1e-9)

    def test_lookahead_repeats_the_tick_reads(self, recording):
        """On a recording, a lookahead's rows are the reads of the ticks it
        covers, up to the end of the recording."""
        valves = recorded_valves(recording)
        backend = ReplayBackend(read_telemetry(recording), 1e-3)
        ticked = ReplayBackend(read_telemetry(recording), 1e-3)
        command_recorded(backend, valves, 0)
        command_recorded(ticked, valves, 0)
        looked = 0
        while True:
            look = backend.lookahead(700)
            assert not look.pressure.flags.writeable  # a view of the grid
            assert backend.now == ticked.now
            for i in range(len(look)):
                assert look.pressure[i].tolist() == [ticked.read_pressure(mid)[0]
                                                     for mid in look.ids]
                try:
                    ticked.tick(1e-3)
                except EndOfRecordingError:
                    assert i == len(look) - 1 < 699
                    break
                command_recorded(ticked, valves, looked + i + 1)
            try:
                advance_recorded(backend, valves, looked, len(look))
            except EndOfRecordingError:
                break
            looked += len(look)
        assert looked > 1000
        with pytest.raises(EndOfRecordingError):
            backend.lookahead(1)

    def test_now_is_the_tick_index_times_dt(self, five_module_layout, material, params,
                                            tmp_path):
        """A replay's clock is the live controller's, k * dt at tick k, and
        not the recorded text: tick 9 is recorded as 0.009000, which reads
        back as 0.009, where 9 * 1e-3 is 0.009000000000000001."""
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        live = SimulatedBackend(Plant(five_module_layout, obj, params, material))
        path = tmp_path / "nominal.csv"
        with TelemetryWriter(path) as writer:
            run_station(live, five_module_layout, obj.spec, 0.0, params, DetectionConfig(),
                        ControlConfig(), 0.05, recorder=writer)
        log = read_telemetry(path)
        assert log.time_s[log.module_id != 0][9 * 5] == 0.009 != 9 * 1e-3
        backend = ReplayBackend(log, params.dt)
        command_recorded(backend, recorded_valves(path), 0)
        backend.advance(9)
        assert backend.now.hex() == (9 * 1e-3).hex()
        assert backend.tick(1e-3) == 10 * 1e-3

    def test_matching_command_accepted(self):
        backend = replay_fixture()
        assert backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        assert backend.mismatches == 0

    def test_diverging_command_raises_and_counts(self):
        backend = replay_fixture()
        with pytest.raises(ReplayMismatchError, match="sent Deflate, recorded Inflate"):
            backend.set_valve(ValveCommand(1, DEFLATE, 0.0))
        assert backend.mismatches == 1

    def test_mismatched_command_keeps_no_timestamp(self):
        backend = replay_fixture()
        with pytest.raises(ReplayMismatchError):
            backend.set_valve(ValveCommand(1, DEFLATE, 5.0))
        assert backend.set_valve(ValveCommand(1, INFLATE, 1.0))

    def test_unknown_mode_is_an_error_not_a_mismatch(self):
        backend = replay_fixture()
        with pytest.raises(ValueError, match="valve mode"):
            backend.set_valve(ValveCommand(1, "Open", 0.0))
        assert backend.mismatches == 0

    def test_command_timestamps_monotonic(self):
        """An out-of-order command is refused before it is compared with the
        recording, so it is no mismatch."""
        backend = replay_fixture()
        backend.set_valve(ValveCommand(1, INFLATE, 1.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            backend.set_valve(ValveCommand(1, DEFLATE, 0.5))
        assert backend.mismatches == 0

    def test_end_of_recording(self):
        backend = replay_fixture()
        backend.tick(1e-3)
        backend.tick(1e-3)
        with pytest.raises(EndOfRecordingError):
            backend.tick(1e-3)
        with pytest.raises(EndOfRecordingError):
            backend.read_pressure(1)
        with pytest.raises(EndOfRecordingError):
            backend.now

    def test_event_rows_are_skipped(self):
        rows = [
            sample(0.0, 1, 1.0, INFLATE),
            Row(0.0, 0, "-", 0.0, "-", 0.0, 0.0, "L0:Grasp", "grasped level=0"),
            sample(0.001, 1, 1.1, INFLATE),
        ]
        backend = ReplayBackend(log_of(rows), 1e-3)
        backend.set_valve(ValveCommand(1, INFLATE, 0.0))
        backend.tick(1e-3)
        assert backend.read_pressure(1) == (1.1, 0.001)

    def test_recording_without_module_rows_rejected(self):
        only_events = [Row(0.0, 0, "-", 0.0, "-", 0.0, 0.0, "L0:Grasp", "x")]
        with pytest.raises(ValueError, match="no module samples"):
            ReplayBackend(log_of(only_events), 1e-3)
        with pytest.raises(ValueError, match="no module samples"):
            ReplayBackend(log_of([]), 1e-3)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            ReplayBackend(log_of([sample(0.0, 1, 1.0, HOLD)]), 0.0)

    def test_endpoints_from_first_tick(self):
        backend = replay_fixture()
        assert backend.lookahead(1).ids == (1, 2)

    def test_replay_of_recorded_simulation(self, three_module_layout, material, tmp_path):
        from peristation import TelemetryWriter, read_telemetry

        params = PlantParams(noise_sigma=0.02, rng_seed=5)
        live = SimulatedBackend(Plant(three_module_layout, None, params, material))
        path = tmp_path / "short.csv"
        seen = []
        with TelemetryWriter(path) as writer:
            for k in range(5):
                now = k * 1e-3
                sensed = {mid: live.read_pressure(mid)[0] for mid in (1, 2, 3)}
                seen.append(sensed[1])
                live.set_valve(ValveCommand(1, INFLATE, now))
                writer.record([now], live.lookahead(1), {1: INFLATE, 2: HOLD, 3: HOLD}, "L0:Grasp",
                              live.plant.layout, [])
                live.tick(1e-3)

        replay = ReplayBackend(read_telemetry(path), 1e-3)
        for k in range(5):
            value, t = replay.read_pressure(1)
            assert t == pytest.approx(k * 1e-3)
            assert value == round(seen[k], 6)  # file carries fixed 6-decimal precision
            replay.set_valve(ValveCommand(1, INFLATE, t))
            if k < 4:
                replay.tick(1e-3)
        assert replay.mismatches == 0


@pytest.fixture(scope="module")
def nominal_recording(tmp_path_factory):
    """The default config, noiseless with the nominal object, run for 2 s and
    recorded: (config, path)."""
    cfg = load_config()
    backend = SimulatedBackend(Plant(cfg.layout, ObjectState(cfg.object_spec, cfg.initial_z),
                                     cfg.params, cfg.material))
    path = tmp_path_factory.mktemp("nominal") / "run.csv"
    with TelemetryWriter(path) as writer:
        run_station(backend, cfg.layout, cfg.object_spec, cfg.initial_z, cfg.params,
                    cfg.detection, cfg.control, 2.0, recorder=writer)
    return cfg, path


class TestOneClock:
    """Every backend's now is the current tick k times dt, k * dt, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(steps=st.lists(st.integers(0, 700), max_size=8))
    @example(steps=[1] * 12)  # the plant's summed clock left k * dt at tick 10
    @example(steps=[700, 700, 700])  # the last one cut at the last recorded tick
    def test_live_and_replay_read_k_dt(self, nominal_recording, steps):
        """A live backend of the recorded config and the replay of its
        recording, advanced by the same steps with the recorded valves sent."""
        cfg, path = nominal_recording
        valves = recorded_valves(path)
        live = SimulatedBackend(Plant(cfg.layout, ObjectState(cfg.object_spec, cfg.initial_z),
                                      cfg.params, cfg.material))
        replay = ReplayBackend(read_telemetry(path), cfg.params.dt)
        k = 0
        for backend in (live, replay):
            command_recorded(backend, valves, 0)
        for j in steps:
            j = min(j, len(valves) - 1 - k)
            for backend in (live, replay):
                advance_recorded(backend, valves, k, j)
            k += j
            for backend in (live, replay):
                assert backend.now.hex() == (k * cfg.params.dt).hex()
        assert replay.mismatches == 0

    # (operation, steps, row or ticks)
    OPS = st.lists(st.tuples(st.sampled_from(["valve", "look"]), st.integers(0, 400),
                             st.integers(0, 400)), max_size=25)
    DTS = st.sampled_from([1e-3, 0.01, 0.7, 1e-13])

    @settings(max_examples=60, deadline=None)
    @given(dt=DTS, sigma=st.sampled_from([0.0, 0.05]), ops=OPS)
    # unread rows, a lookahead that a valve voids, and advances within and past a lookahead
    @example(dt=1e-3, sigma=0.05, ops=[("look", 300, 300), ("look", 300, 200), ("valve", 0, 0),
                                       ("look", 300, 900), ("look", 10, 5)])
    def test_simulated_now_is_k_dt(self, dt, sigma, ops):
        """After any lookaheads, advances and valve changes."""
        g = RingGeometry(**NOMINAL)
        mat = SurrogateMaterial(100.0, 0.45, calibrate_kappa(g, 100.0, 0.69, 15.0))
        backend = SimulatedBackend(Plant(build_station(g, 5, 20.0, 20.0),
                                         ObjectState(ObjectSpec(17.5, 30.0), 22.0),
                                         PlantParams(dt=dt, noise_sigma=sigma), mat))
        k = 0
        for op, a, b in ops:
            if op == "valve":
                backend.set_valve(ValveCommand(a % 5 + 1, VALVE_MODES[b % 3], backend.now))
            else:
                backend.lookahead(a + 1)
                assert backend.now.hex() == (k * dt).hex()
                backend.advance(b)  # within the lookahead or past it
                k += b
            assert backend.now.hex() == (k * dt).hex()
