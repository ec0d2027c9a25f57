"""Telemetry serialization.

One CSV row per module per controller tick, plus module_id=0 rows for
station-scoped events, all at fixed 6-decimal precision so identical runs
produce byte-identical files on any platform.  Event text never contains
commas; multiple events for one module in one tick join with ';'.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter

import numpy as np

TELEMETRY_HEADER = "time_s,module_id,kind,pressure_kPa,valve,inflation_mm,object_z_mm,phase,event"


@dataclass(frozen=True)
class TelemetrySample:
    time_s: float
    module_id: int
    kind: str
    pressure_kPa: float
    valve: str
    inflation_mm: float
    object_z_mm: float
    phase: str
    event: str


# TelemetrySample field names, in CSV column order
_COLUMNS = tuple(f.name for f in fields(TelemetrySample))
_get_columns = attrgetter(*_COLUMNS)


class TelemetryLog(Sequence):
    """A telemetry recording held by column: one list per CSV column.

    Columns are attributes named like the TelemetrySample fields, so replay
    reads time_s, module_id, pressure_kPa and valve without building rows.
    As a Sequence, len(), indexing (negative too) and iteration yield
    TelemetrySample rows built on demand.
    """

    __slots__ = _COLUMNS

    def __init__(self, *columns: list):
        if len(columns) != len(_COLUMNS) or len({len(c) for c in columns}) > 1:
            raise ValueError(f"expected {len(_COLUMNS)} columns of equal length")
        for name, column in zip(_COLUMNS, columns):
            setattr(self, name, column)

    @classmethod
    def from_samples(cls, samples: Iterable[TelemetrySample]) -> "TelemetryLog":
        columns = [list(c) for c in zip(*map(_get_columns, samples))]
        return cls(*(columns or [[] for _ in _COLUMNS]))

    def __len__(self) -> int:
        return len(self.time_s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TelemetryLog(*(c[i] for c in _get_columns(self)))
        return TelemetrySample(*(c[i] for c in _get_columns(self)))

    def __iter__(self):
        return map(TelemetrySample, *_get_columns(self))


# Ticks formatted per write: bounds the text held in memory at once.
_WRITE_TICKS = 256


def _one_value(values: np.ndarray) -> bool:
    """Whether every float has the bits of the first (so 0.0 and -0.0 differ)."""
    bits = values.view(np.int64)
    return len(bits) < 2 or bool((bits == bits[0]).all())


class TelemetryWriter:
    """Streams rows to a CSV file in timestamp order.

    Pressure is the sensed value the controller acted on; inflation and
    object z are plant ground truth, which is why recording requires the
    simulated backend.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "w", buffering=1 << 20, newline="")
        self._f.write(TELEMETRY_HEADER + "\n")

    def record(self, now, rows, valves, phase, layout, events):
        """Write a run of ticks that share valves and phase.

        now holds each tick's time and rows (hal.Rows) its sensed pressures
        and plant truth, one column per layout module in layout order;
        events are the first tick's (module_id, text) events.  Module rows
        come in layout order, then one module_id 0 row per station event.
        """
        if rows.inflation is None:
            raise ValueError("recording requires plant ground truth")
        texts = {}
        for mid, text in events:
            texts.setdefault(mid, []).append(text)
        self._write(now, rows, 0, 1, valves, phase, layout, texts)
        self._write(now, rows, 1, len(now), valves, phase, layout, {})

    def _write(self, now, rows, a, b, valves, phase, layout, texts):
        """Write ticks a to b - 1 of a record() call, each with the events in texts.

        Each tick is one %-template: time and object z are formatted once
        per tick, and a column that holds one value over the ticks (a held
        valve, a saturated ring, an object at rest) once per call.
        """
        if a >= b:
            return
        tick = []
        fields = []  # per template field: "time", "z", or a float column

        def floats(column) -> str:
            """A column's template text: its value when it holds one, else a field."""
            if _one_value(column[a:b]):
                return "%.6f" % column[a].item()
            fields.append(column)
            return "%.6f"

        def begin(head):
            """A row's time and its text up to the first float column."""
            fields.append("time")
            tick.append("%s," + head.replace("%", "%%"))

        def end(event):
            """A row's object z, phase and event text."""
            if z_varies:
                fields.append("z")
            tick.append("," + z_text + f",{phase},{event}\n".replace("%", "%%"))

        z_varies = not _one_value(rows.object_z[a:b])
        z_text = "%s" if z_varies else "%.6f" % rows.object_z[a].item()
        for i, mod in enumerate(layout.modules):
            begin(f"{mod.id},{mod.kind},")
            tick.append(floats(rows.pressure[:, i]))
            tick.append(f",{valves[mod.id]},".replace("%", "%%"))
            tick.append(floats(rows.inflation[:, i]))
            end(";".join(texts.get(mod.id, ())))
        for text in texts.get(0, ()):
            begin("0,-,0.000000,-,0.000000")
            end(text)
        template = "".join(tick)
        width = len(fields)
        for c in range(a, b, _WRITE_TICKS):
            d = min(c + _WRITE_TICKS, b)
            text = {"time": ["%.6f" % t for t in now[c:d]]}
            if z_varies:
                text["z"] = ["%.6f" % z for z in rows.object_z[c:d].tolist()]
            args = [None] * (width * (d - c))
            for k, field in enumerate(fields):
                args[k::width] = text[field] if isinstance(field, str) else field[c:d].tolist()
            self._f.write(template * (d - c) % tuple(args))

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# Text parsed per batch, in bytes: bounds the per-field strings alive at
# once while keeping the per-batch overhead negligible.
_BATCH_BYTES = 1 << 20


def _checked_rows(lines: list[str], lineno: int) -> list[list[str]]:
    """Split a batch of lines into rows one by one, skipping blank lines.

    Raises:
        ValueError: naming the first line (numbered from lineno) with the
            wrong column count or an unparseable number.
    """
    rows = []
    for lineno, line in enumerate(lines, lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",", 8)
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        try:
            float(parts[0]), int(parts[1]), float(parts[3]), float(parts[5]), float(parts[6])
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        rows.append(parts)
    return rows


def read_telemetry(path) -> TelemetryLog:
    """Parse a telemetry CSV into a TelemetryLog.

    Lines are parsed in batches.  When every line of a batch holds exactly
    the 8 column separators, the batch is split into one flat list of
    fields and each column is sliced out and converted in one pass.  Any
    other batch (a blank line, a short row, commas inside the event text)
    is split line by line, which skips blank lines and names the first
    malformed line.  The kind, valve and phase columns share one string
    object per distinct value.

    Raises:
        ValueError: wrong header or malformed row.
    """
    columns = [[] for _ in _COLUMNS]
    time_s, module_id, kind, pressure, valve, inflation, object_z, phase, event = columns
    share = {}.setdefault
    width = len(_COLUMNS)
    with open(path, "r", newline="") as f:
        header = f.readline().rstrip("\n")
        if header != TELEMETRY_HEADER:
            raise ValueError(f"unrecognized telemetry header: {header!r}")
        lineno = 2
        while lines := f.readlines(_BATCH_BYTES):
            if set(map(str.count, lines, repeat(","))) == {width - 1}:
                flat = ",".join(lines).split(",")
                cols = [flat[j::width] for j in range(width)]
            else:
                cols = list(zip(*_checked_rows(lines, lineno))) or [()] * width
            t, m, k, p, v, d, z, ph, ev = cols
            try:
                time_s.extend(map(float, t))
                module_id.extend(map(int, m))
                pressure.extend(map(float, p))
                inflation.extend(map(float, d))
                object_z.extend(map(float, z))
            except ValueError:
                _checked_rows(lines, lineno)  # raises, naming the line
                raise
            kind.extend(map(share, k, k))
            valve.extend(map(share, v, v))
            phase.extend(map(share, ph, ph))
            event.extend(map(str.rstrip, ev, repeat("\n")))
            lineno += len(lines)
    return TelemetryLog(*columns)
