import contextlib
import threading
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
import yaml

import peristation.config as config_module
import peristation.telemetry as telemetry_module

from peristation import (
    ControlConfig,
    DetectionConfig,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    RingGeometry,
    SimulatedBackend,
    SurrogateMaterial,
    TelemetryLog,
    TelemetryWriter,
    build_station,
    calibrate_kappa,
    run_station,
)

# The two YAML loaders load_config can read with: libyaml's, which it takes
# where PyYAML has it, and the pure-Python fallback.
LOADERS = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                          reason="PyYAML built without libyaml")),
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
]


@pytest.fixture(params=LOADERS)
def loader(request, monkeypatch):
    """Each YAML loader in turn, as the one load_config reads with."""
    monkeypatch.setattr(config_module, "_LOADER", request.param)
    return request.param


@pytest.fixture(autouse=True, scope="class")
def class_loader(request):
    """A test class with a LOADER attribute reads every config with that loader.

    A subclass that names the fallback runs its base class's tests again
    under it, and the base class's tests keep their names.
    """
    loader = getattr(request.cls, "LOADER", None)
    with pytest.MonkeyPatch.context() as mp:
        if loader is not None:
            mp.setattr(config_module, "_LOADER", loader)
        yield


# nominal ring: R=40, r=25, five 28.8 mm chambers spaced 12 mm, 2 mm walls
NOMINAL = dict(
    outer_radius_R=40.0,
    inner_radius_r=25.0,
    step_height_m=1.5,
    chamber_spacing_l=12.0,
    wall_thickness_t=2.0,
    chamber_length_s=28.8,
    chamber_count_N=5,
)


@pytest.fixture
def geometry():
    return RingGeometry(**NOMINAL)


@pytest.fixture
def material(geometry):
    kappa = calibrate_kappa(geometry, 100.0, 0.69, 15.0)
    return SurrogateMaterial(100.0, 0.45, kappa)


@pytest.fixture
def params():
    return PlantParams()


@pytest.fixture
def five_module_layout(geometry):
    return build_station(geometry, 5, 20.0, 20.0)


@pytest.fixture
def three_module_layout(geometry):
    return build_station(geometry, 3, 20.0, 20.0)


@pytest.fixture(scope="session")
def recorded_run(tmp_path_factory) -> bytes:
    """Telemetry of a noisy one-cycle run on three modules: module rows, station
    event rows and valve changes, several megabytes of text.  Recorded once."""
    geometry = RingGeometry(**NOMINAL)
    material = SurrogateMaterial(100.0, 0.45, calibrate_kappa(geometry, 100.0, 0.69, 15.0))
    layout = build_station(geometry, 3, 20.0, 20.0)
    params = PlantParams(noise_sigma=0.05, rng_seed=1)
    obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
    backend = SimulatedBackend(Plant(layout, obj, params, material))
    path = tmp_path_factory.mktemp("recording") / "run.csv"
    with TelemetryWriter(path) as writer:
        run_station(backend, layout, obj.spec, 0.0, params, DetectionConfig(),
                    ControlConfig(max_cycles=1), 40.0, recorder=writer)
    return path.read_bytes()


@pytest.fixture
def recording(tmp_path, recorded_run):
    """A copy of recorded_run that the test may change."""
    path = tmp_path / "run.csv"
    path.write_bytes(recorded_run)
    return path


# one telemetry row, in CSV column order
Row = namedtuple("Row", "time_s module_id kind pressure_kPa valve inflation_mm object_z_mm "
                        "phase event")
CODED = ("kind", "valve", "phase")


def data_address(a: np.ndarray) -> int:
    """Where an array's first element lies in memory."""
    return a.__array_interface__["data"][0]


def read_rows(path) -> list:
    """Reference telemetry parser: one Row per non-blank line."""
    rows = []
    with open(path, newline="") as f:
        next(f)
        for line in f:
            parts = line.rstrip("\n").split(",", 8)
            if parts != [""]:
                t, mid, kind, p, valve, d, z, phase, event = parts
                rows.append(Row(float(t), int(mid), kind, float(p), valve,
                                float(d), float(z), phase, event))
    return rows


def log_of(rows) -> TelemetryLog:
    """A TelemetryLog holding rows (Row-like tuples in CSV column order)."""
    columns = dict(zip(Row._fields, zip(*rows))) if rows else dict.fromkeys(Row._fields, ())
    for name in CODED:
        table = list(dict.fromkeys(columns[name]))
        columns[name] = (np.array([table.index(v) for v in columns[name]], np.uint32),
                         np.array(table, object))
    return TelemetryLog(**columns)


def column(log, name) -> list:
    """One column of a TelemetryLog as a list; a coded one as its strings."""
    if name in CODED:
        codes, table = log.codes(name)
        return table[codes].tolist()
    return getattr(log, name).tolist()


def assert_reads_as(log, rows):
    """A TelemetryLog holds the reference rows, column by column, each
    float's bits included (so -0.0 is not 0.0)."""
    assert len(log) == len(rows)
    for j, name in enumerate(Row._fields):
        expected = [r[j] for r in rows]
        if name in ("time_s", "pressure_kPa", "inflation_mm", "object_z_mm"):
            bits = np.array(expected, np.float64).view(np.int64)
            assert np.array_equal(getattr(log, name).view(np.int64), bits), name
        else:
            assert column(log, name) == expected, name


def assert_same_log(a, b):
    """Two TelemetryLogs are equal bit for bit: every column, dtypes, codes
    and the order of each string table."""
    assert len(a) == len(b)
    for name in Row._fields:
        if name in CODED:
            (codes_a, table_a), (codes_b, table_b) = a.codes(name), b.codes(name)
            assert codes_a.dtype == codes_b.dtype and np.array_equal(codes_a, codes_b), name
            assert table_a.tolist() == table_b.tolist(), name
        else:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            if x.dtype == object:
                assert x.tolist() == y.tolist(), name
            else:
                assert x.tobytes() == y.tobytes(), name


def log_nbytes(log) -> int:
    """The bytes of a TelemetryLog's typed columns, each coded column's codes
    included: not the event column, which is built when first read."""
    return sum(log.codes(name)[0].nbytes if name in CODED else getattr(log, name).nbytes
               for name in Row._fields if name != "event")


def traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def counting_blocks():
    """Counts the blocks that read_telemetry decodes by byte position and by line."""
    counts = {"fast": 0, "by line": 0}
    decode = telemetry_module._decode_block
    lock = threading.Lock()  # blocks are decoded on worker threads

    def counted(*block):
        decoded = decode(*block)
        with lock:
            counts["fast" if decoded is not None else "by line"] += 1
        return decoded

    telemetry_module._decode_block = counted
    try:
        yield counts
    finally:
        telemetry_module._decode_block = decode
