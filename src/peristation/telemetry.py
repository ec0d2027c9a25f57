"""Telemetry serialization.

One CSV row per module per controller tick, plus module_id=0 rows for
station-scoped events, all at fixed 6-decimal precision so identical runs
produce byte-identical UTF-8 files on any platform.  Event text never contains
commas; multiple events for one module in one tick join with ';'.  A value's
text reads back as its recorded value (as_recorded), which the controller
decides on.
"""

from __future__ import annotations

import functools
import io
import math

import numpy as np

TELEMETRY_HEADER = "time_s,module_id,kind,pressure_kPa,valve,inflation_mm,object_z_mm,phase,event"

# column names, in CSV order
_COLUMNS = tuple(TELEMETRY_HEADER.split(","))
# the string columns held as codes into a table of their distinct values
_CODED = ("kind", "valve", "phase")
# each column's dtype as read, in CSV order; a coded column holds its codes
_DTYPES = (np.float64, np.int64, np.uint32, np.float64, np.uint32, np.float64, np.float64,
           np.uint32, object)


class TelemetryLog:
    """A telemetry recording held by column.

    time_s, pressure_kPa, inflation_mm and object_z_mm are float64 arrays and
    module_id is an int64 array.  kind, valve and phase are codes into a
    small table of shared strings, which codes(name) gives.  event is an
    object array.  len() is the number of rows.
    """

    __slots__ = ("time_s", "module_id", "pressure_kPa", "inflation_mm", "object_z_mm",
                 "event", "_coded")

    def __init__(self, time_s, module_id, kind, pressure_kPa, valve, inflation_mm,
                 object_z_mm, phase, event):
        """Columns in CSV order; kind, valve and phase as (codes, table) pairs."""
        self.time_s = np.asarray(time_s, np.float64)
        self.module_id = np.asarray(module_id, np.int64)
        self.pressure_kPa = np.asarray(pressure_kPa, np.float64)
        self.inflation_mm = np.asarray(inflation_mm, np.float64)
        self.object_z_mm = np.asarray(object_z_mm, np.float64)
        self.event = np.asarray(event, object)
        self._coded = dict(zip(_CODED, (kind, valve, phase)))
        lengths = {len(c) for c in (self.time_s, self.module_id, self.pressure_kPa,
                                    self.inflation_mm, self.object_z_mm, self.event)}
        if len(lengths | {len(codes) for codes, _ in self._coded.values()}) > 1:
            raise ValueError(f"expected {len(_COLUMNS)} columns of equal length")

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A string column ("kind", "valve" or "phase") as (codes, table)."""
        return self._coded[name]

    def __len__(self) -> int:
        return len(self.time_s)


_NL, _CR, _COMMA, _MINUS, _DOT = b"\n\r,-."

# Ticks filled per write: bounds the text held in memory at once.
_WRITE_TICKS = 256

# The fixed-6 encoder's tables.  A value's text and its ',' take two
# little-endian words: the sign and integer digits right-aligned in the
# first, NUL-padded, then '.', six decimals and ','.  _HEAD[2 * i] is i's
# first word and _HEAD[2 * i + 1] is -i's; _DEC[i] holds i's three digits
# in bytes 1 to 3.
_INT_LIMIT = 1000
_HEAD = np.array([int.from_bytes(f"{sign}{i}".encode().rjust(8, b"\0"), "little")
                  for i in range(_INT_LIMIT) for sign in ("", "-")], np.uint64)
_DEC = np.array([int.from_bytes(f"\0{i:03d}".encode(), "little") for i in range(1000)],
                np.uint64)
_POINT_COMMA = np.uint64(_DOT | _COMMA << 56)


def _digits6(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float's '%.6f' digits where they follow without text: (n, fast).

    n is rint(p) as int32 for p = |x| * 1e6 as rounded, and fast marks where
    n is the digits: p is no half-integer (rounding is monotone and below
    2**52 every half-integer is a double, so p lies on the same side of each
    as the exact product) and n / 1e6 is below _INT_LIMIT.  The rest need '%.6f'.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # nan and inf are not fast
        p = np.abs(x) * 1e6
        n = np.rint(p)
        p -= n
        fast = (np.abs(p, out=p) < 0.5) & (n < _INT_LIMIT * 1e6)
        return n.astype(np.int32), fast


def as_recorded(x) -> np.ndarray:
    """Each float of a sequence as the double its '%.6f' text reads back as
    (idempotent, so a replay, which reads these doubles, gets them again)."""
    x = np.asarray(x, np.float64)
    n, fast = _digits6(x)
    out = np.copysign(n / 1e6, x)  # n and 1e6 are exact: the quotient rounds as float() does
    slow = np.flatnonzero(~fast)
    out[slow] = [float("%.6f" % v) for v in x[slow].tolist()]
    return out


@functools.lru_cache(maxsize=64)
def recorded_threshold(g: float, rises: bool) -> float:
    """The raw threshold that decides as g does on recorded values.

    as_recorded is monotone, so as_recorded(x) >= g exactly when x >= the
    result (rises), and as_recorded(x) <= g exactly when x <= it (falls).
    """
    if not math.isfinite(g):
        return g  # as_recorded keeps each non-finite value, and each finite one finite
    # it moves a value by at most 5e-7 plus rounding: bisect down to two neighbours
    lo, hi = g - 1e-6 - 4 * math.ulp(g), g + 1e-6 + 4 * math.ulp(g)
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        r = as_recorded([mid])[0]
        if r >= g if rises else r > g:
            hi = mid
        else:
            lo = mid
    return hi if rises else lo


def _encode6(x: np.ndarray) -> np.ndarray:
    """Each float's '%.6f' text and a ',' as one row of bytes, right-aligned
    and NUL-padded: a (len(x), w) uint8 array, w 16 unless a text is longer.

    The fast values of _digits6 come from the tables, the sign from
    signbit (so -1e-9 gives -0.000000); the rest go through '%.6f'.
    """
    digits, fast = _digits6(x)
    digits *= fast
    slow = np.flatnonzero(~fast)
    texts = [("%.6f," % v).encode() for v in x[slow].tolist()]
    w = max([16, *map(len, texts)])
    out = np.zeros((len(x), w), np.uint8)
    words = out[:, w - 16:].view("<u8")
    head = digits // 1_000_000
    digits -= head * 1_000_000  # the six decimals
    hi = digits // 1000
    digits -= hi * 1000  # the last three
    # every index is in its table, and "clip" takes them without a check
    np.take(_HEAD, 2 * head + np.signbit(x), out=words[:, 0], mode="clip")
    np.take(_DEC, hi, out=words[:, 1], mode="clip")
    words[:, 1] |= np.take(_DEC, digits, mode="clip") << np.uint64(24) | _POINT_COMMA
    out[slow] = np.frombuffer(b"".join(t.rjust(w, b"\0") for t in texts),
                              np.uint8).reshape(len(slow), w)
    return out


def _one_value(values: np.ndarray) -> bool:
    """Whether every float has the bits of the first (so 0.0 and -0.0 differ)."""
    bits = values.view(np.int64)
    return len(bits) < 2 or bool((bits == bits[0]).all())


class TelemetryWriter:
    """Streams rows to a CSV file in timestamp order, encoded as UTF-8.

    Pressure is the sensed value the controller acted on; inflation and
    object z are plant ground truth, which is why recording requires the
    simulated backend.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "wb", buffering=1 << 20)
        self._f.write(TELEMETRY_HEADER.encode() + b"\n")
        self._buf = np.empty(0, np.uint8)  # reused by _write

    def record(self, now, rows, valves, phase, layout, events):
        """Write a run of ticks that share valves and phase.

        now holds each tick's time and rows (hal.Rows) its sensed pressures
        and plant truth, one column per layout module in layout order;
        events are the first tick's (module_id, text) events.  Module rows
        come in layout order, then one module_id 0 row per station event.
        A float column that holds one value over the ticks (a held valve, a
        saturated ring, an object at rest) is written as text once; the
        others are encoded in one _encode6 call.
        """
        if rows.inflation is None:
            raise ValueError("recording requires plant ground truth")
        texts = {}
        for mid, text in events:
            texts.setdefault(mid, []).append(text)
        columns = [np.asarray(now, np.float64), rows.object_z]
        for i in range(len(layout.modules)):
            columns += [rows.pressure[:, i], rows.inflation[:, i]]
        fields, varying = [], []  # per column: its text, or its index in varying
        for column in columns:
            if _one_value(column):
                fields.append("%.6f," % column[0].item())
            else:
                fields.append(len(varying))
                varying.append(column)
        n = len(columns[0])
        encoded = _encode6(np.array(varying, np.float64).ravel())
        encoded = encoded.reshape(len(varying), n, encoded.shape[1])
        self._write(fields, encoded, 0, 1, valves, phase, layout, texts)
        self._write(fields, encoded, 1, n, valves, phase, layout, {})

    def _write(self, fields, encoded, a, b, valves, phase, layout, texts):
        """Write ticks a to b - 1 of a record() call, each with the events in texts.

        fields holds the text of the time, object z and each module's
        pressure and inflation, or the index of its encoded column.  A
        tick's rows become one template with a NUL slot per encoded column,
        put into each row of a reused buffer once; each chunk of ticks then
        fills the slots and is written without the NULs.  A NUL in the text
        would be dropped with them, so it raises ValueError.
        """
        if a >= b:
            return
        w = encoded.shape[2]
        time, z, *floats = fields
        pieces = []
        for mod, pressure, inflation in zip(layout.modules, floats[::2], floats[1::2]):
            pieces += [time, f"{mod.id},{mod.kind},", pressure, f"{valves[mod.id]},", inflation,
                       z, f"{phase},{';'.join(texts.get(mod.id, ()))}\n"]
        for text in texts.get(0, ()):
            pieces += [time, "0,-,0.000000,-,0.000000,", z, f"{phase},{text}\n"]
        template, slots = bytearray(), []  # slots: (byte offset, encoded column)
        for piece in pieces:
            if isinstance(piece, int):
                slots.append((len(template), piece))
                piece = "\0" * w
            elif "\0" in piece:
                raise ValueError(f"telemetry text holds a NUL byte: {piece!r}")
            template += piece.encode()
        size = min(b - a, _WRITE_TICKS) * len(template)
        if len(self._buf) < size:
            self._buf = np.empty(size, np.uint8)
        buf = self._buf[:size].reshape(-1, len(template))
        buf[:] = np.frombuffer(template, np.uint8)
        for c in range(a, b, _WRITE_TICKS):
            d = min(c + _WRITE_TICKS, b)
            for at, j in slots:
                buf[:d - c, at:at + w] = encoded[j, c:d]
            text = buf[:d - c].ravel()
            self._f.write(text[text != 0])

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# Bytes read per block: a block of whole lines is decoded at once, so this
# bounds the temporaries alive at a time while keeping the per-block
# overhead negligible.
_BATCH_BYTES = 1 << 20

# Around each block, so that every field's byte windows lie inside it: a
# number reads the 16 bytes before its end, a string the 24 from its
# start.  '0' is no separator.
_PAD = b"0" * 24
_ZEROS = 0x3030303030303030  # eight ASCII '0', one per byte of a word
# _TOP[k] keeps the last k characters (the top k bytes) of a word
_TOP = np.array([((1 << 8 * k) - 1) << 8 * (8 - k) for k in range(9)], np.uint64)
# A string field's key is its length and its first 24 bytes, as three
# words; _KEY_BYTES[i][n] keeps the bytes of word i that lie in n bytes.
_KEY_BYTES = [np.array([(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(25)], np.uint64)
              for i in range(3)]
_KEY_MIX = [np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)]
# every line's separators: 8 commas, then the newline
_SEPARATORS = np.array([_COMMA] * 8 + [_NL], np.uint8)


def _checked_rows(lines: list[str], lineno: int) -> list[tuple]:
    """Parse a block's lines one by one, skipping blank lines.

    Returns:
        One tuple of column values per row, numbers converted by float()
        and int().

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
        t, mid, kind, p, valve, d, z, phase, event = parts
        try:
            rows.append((float(t), int(mid), kind, float(p), valve, float(d), float(z),
                         phase, event))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return rows


def _digits(words: np.ndarray) -> np.ndarray:
    """Whether each word's eight bytes are all ASCII digits."""
    # a byte below '0' sets its top bit in the difference, one above '9' in the sum
    return ((words + 0x4646464646464646) | (words - _ZEROS)) & 0x8080808080808080 == 0


def _number(words: np.ndarray) -> np.ndarray:
    """The value of each word's eight ASCII digits, the first in the low byte."""
    v = words - _ZEROS
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF  # pairs of digits
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF  # fours
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF


def _windows(buf: bytes, width: int) -> np.ndarray:
    """The width-byte window at each byte offset of buf, as a void array."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))


def _fixed6(a: np.ndarray, buf: bytes, s: np.ndarray, e: np.ndarray):
    r"""Decode the fields at bytes [s, e), or None unless all match -?\d{1,8}\.\d{6}.

    A field is read as two words: the 8 bytes up to its '.', and the 8 from
    it, which hold '.', the six decimals and ','.  Its value is its digits
    as an integer over 1e6 (here ten times both), negated after the
    division so that -0.000000 is -0.0.  That integer is below 2**53 and
    the division is correctly rounded, as float() is, so the bits are
    float()'s.
    """
    neg = a[s] == _MINUS
    k = e - s - 7 - neg  # integer digits
    if not ((k >= 1) & (k <= 8)).all():
        return None
    whole, point = _windows(buf, 16)[e - 15].view("<u8").reshape(-1, 2).T.copy()
    if not ((point & 0xFF) == _DOT).all():
        return None
    keep = _TOP[k]
    whole = (whole & keep) | (_ZEROS & ~keep)  # '0' before the integer digits
    point = (point & 0x00FFFFFFFFFFFF00) | 0x3000000000000030  # '0', the decimals, '0'
    if not (_digits(whole) & _digits(point)).all():
        return None
    x = (_number(whole) * 10_000_000 + _number(point)).astype(np.float64) / 1e7
    return np.negative(x, out=x, where=neg)


def _int4(buf: bytes, s: np.ndarray, e: np.ndarray):
    r"""Decode the fields at bytes [s, e), or None unless all match \d{1,4}."""
    n = e - s
    if not ((n >= 1) & (n <= 4)).all():
        return None
    keep = _TOP[n]
    digits = (_windows(buf, 8)[e - 8].view("<u8") & keep) | (_ZEROS & ~keep)
    if not _digits(digits).all():
        return None
    return _number(digits).astype(np.int64)


def _code_fields(buf: bytes, s: np.ndarray, e: np.ndarray, table: dict):
    """Code the string fields at bytes [s, e) into table, or None if one is too long.

    Keys (see _KEY_BYTES) are spread over 256 buckets, and one row of each
    bucket names its string, which table (string -> code) codes.  Every
    row's key is then compared with that row's, and a row whose bucket
    holds another string is coded on its own, so a shared bucket costs
    time, not correctness.
    """
    n = e - s
    if n.max() >= len(_KEY_BYTES[0]):
        return None
    keys = _windows(buf, 24)[s].view("<u8").reshape(-1, 3).T.copy()
    bucket = n.astype(np.uint64)
    for key, kept, mix in zip(keys, _KEY_BYTES, _KEY_MIX):
        key &= kept[n]
        bucket += key * mix
    bucket = bucket * _KEY_MIX[0] >> 56
    first = np.full(256, -1)  # a row of each bucket
    first[bucket] = np.arange(len(s))
    lut = np.zeros(256, np.uint32)
    for b in np.flatnonzero(first >= 0).tolist():
        r = first[b]
        lut[b] = table.setdefault(buf[s[r]:e[r]].decode(), len(table))
    codes = lut[bucket]
    named = first[bucket]  # the row that named each row's code
    ok = n == n[named]
    for key in keys:
        ok &= key == key[named]
    for r in np.flatnonzero(~ok).tolist():
        codes[r] = table.setdefault(buf[s[r]:e[r]].decode(), len(table))
    return codes


_FLOATS = [_COLUMNS.index(name) for name in
           ("time_s", "pressure_kPa", "inflation_mm", "object_z_mm")]
_STRINGS = [_COLUMNS.index(name) for name in _CODED]


def _decode_block(lines: bytes, table: dict):
    r"""Decode a block of whole lines by byte position, or None to parse it by line.

    The fast path takes a block whose every line holds exactly 8 commas,
    no carriage return, and numbers of the form the writer writes
    (time_s, pressure_kPa, inflation_mm and object_z_mm -?\d{1,8}\.\d{6},
    module_id \d{1,4}).

    Returns:
        The block's nine columns, the string columns coded into table.
    """
    if b"\r" in lines:
        return None
    buf = b"".join((_PAD, lines, b"" if lines.endswith(b"\n") else b"\n", _PAD))
    a = np.frombuffer(buf, np.uint8)
    low = np.flatnonzero((a == _COMMA) | (a == _NL))
    n = len(low) // 9
    if len(low) != 9 * n or not (a[low].reshape(n, 9) == _SEPARATORS).all():
        return None
    ends = low.reshape(n, 9).T.copy()  # the separator after each field
    starts = np.empty_like(ends)
    starts[1:] = ends[:8] + 1
    starts[0, 0] = len(_PAD)
    starts[0, 1:] = ends[8, :-1] + 1
    floats = _fixed6(a, buf, starts[_FLOATS].ravel(), ends[_FLOATS].ravel())
    module_id = _int4(buf, starts[1], ends[1])
    strings = _code_fields(buf, starts[_STRINGS].ravel(), ends[_STRINGS].ravel(), table)
    if floats is None or module_id is None or strings is None:
        return None
    event = np.full(n, "", object)
    for r in np.flatnonzero(ends[8] > starts[8]).tolist():
        event[r] = buf[starts[8, r]:ends[8, r]].decode()
    columns = [None] * len(_COLUMNS)
    columns[1], columns[8] = module_id, event
    for j, column in zip(_FLOATS, floats.reshape(len(_FLOATS), n)):
        columns[j] = column
    for j, column in zip(_STRINGS, strings.reshape(len(_STRINGS), n)):
        columns[j] = column
    return columns


def read_telemetry(path) -> TelemetryLog:
    """Parse a telemetry CSV into a TelemetryLog.

    The file is read in blocks of whole lines.  A block of lines as the
    writer writes them is decoded by byte position into typed columns
    (_decode_block); the numbers get the bits float() and int() would
    give.  Any other block (a blank line, commas inside the event text, a
    number such as 1e3, +1.0 or 1_0.5) is parsed line by line, which skips
    blank lines and names the first malformed line.  The kind, valve and
    phase columns are codes into one table of shared strings.

    Raises:
        ValueError: wrong header or malformed row.
    """
    table = {}  # the distinct kind, valve and phase strings -> their codes
    blocks = []
    with open(path, "rb") as f:
        header = f.readline().decode().rstrip("\n")
        if header != TELEMETRY_HEADER:
            raise ValueError(f"unrecognized telemetry header: {header!r}")
        lineno = 2
        rest = b""
        while True:
            chunk = f.read(_BATCH_BYTES)
            lines = rest + chunk
            cut = lines.rfind(b"\n") + 1 if chunk else len(lines)
            lines, rest = lines[:cut], lines[cut:]
            if lines:
                columns = _decode_block(lines, table)
                if columns is not None:
                    lineno += len(columns[0])
                else:
                    text = io.StringIO(lines.decode(), newline="").readlines()
                    columns = list(zip(*_checked_rows(text, lineno))) or [()] * len(_COLUMNS)
                    for j in _STRINGS:
                        columns[j] = [table.setdefault(v, len(table)) for v in columns[j]]
                    lineno += len(text)
                blocks.append(columns)
            if not chunk:
                break
    columns = [np.concatenate([np.asarray(b[j], dtype) for b in blocks] or [np.empty(0, dtype)])
               for j, dtype in enumerate(_DTYPES)]
    strings = np.array(list(table), object)
    small = np.min_scalar_type(max(len(strings) - 1, 0))  # the least dtype to hold every code
    for j in _STRINGS:
        columns[j] = (columns[j].astype(small, copy=False), strings)
    return TelemetryLog(*columns)
