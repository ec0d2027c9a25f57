"""Telemetry serialization.

One CSV row per module per controller tick, plus module_id=0 rows for
station-scoped events, all at fixed 6-decimal precision so identical runs
produce byte-identical UTF-8 files on any platform.  Event text never contains
commas; multiple events for one module in one tick join with ';'.  A value's
text reads back as its recorded value (as_recorded), which the controller
decides on.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import stat

import numpy as np

TELEMETRY_HEADER = "time_s,module_id,kind,pressure_kPa,valve,inflation_mm,object_z_mm,phase,event"

# column names, in CSV order
_COLUMNS = tuple(TELEMETRY_HEADER.split(","))
# the string columns held as codes into a table of their distinct values
_CODED = ("kind", "valve", "phase")
# each column's dtype as read, in CSV order; a coded column holds its codes in
# the least unsigned dtype that holds every code, widened as its table grows
_DTYPES = (np.float64, np.int64, np.uint8, np.float64, np.uint8, np.float64, np.float64,
           np.uint8, object)


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
# first word and _HEAD[2 * i + 1] is -i's, and _HEAD_LEN holds the length
# of the text that each starts; _DEC[i] holds i's three digits in bytes 1 to 3.
_INT_LIMIT = 1000
_HEAD = np.array([int.from_bytes(f"{sign}{i}".encode().rjust(8, b"\0"), "little")
                  for i in range(_INT_LIMIT) for sign in ("", "-")], np.uint64)
_HEAD_LEN = np.array([len(f"{sign}{i}.000000,") for i in range(_INT_LIMIT) for sign in ("", "-")],
                     np.uint16)
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


def _encode6(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float's '%.6f' text and a ',': (out, lengths).

    out holds each text as one row of bytes, right-aligned and NUL-padded:
    a (len(x), w) uint8 array, w 16 unless a text is longer.  lengths holds
    each text's byte length.  The fast values of _digits6 come from the
    tables, the sign from signbit (so -1e-9 gives -0.000000), and so does a
    fast text's length; the rest go through '%.6f'.
    """
    digits, fast = _digits6(x)
    texts = []
    if not fast.all():
        digits *= fast
        slow = np.flatnonzero(~fast)
        texts = [("%.6f," % v).encode() for v in x[slow].tolist()]
    w = max([16, *map(len, texts)])
    # the two words fill a row of 16 bytes: only a wider one needs its NULs
    out = (np.zeros if w > 16 else np.empty)((len(x), w), np.uint8)
    words = out[:, w - 16:].view("<u8")
    head = digits // 1_000_000
    digits -= head * 1_000_000  # the six decimals
    hi = digits // 1000
    digits -= hi * 1000  # the last three
    head *= 2
    head += np.signbit(x)  # the sign and integer digits' entry in _HEAD
    # every index is in its table, and "clip" takes them without a check
    np.take(_HEAD, head, out=words[:, 0], mode="clip")
    lengths = np.take(_HEAD_LEN, head, mode="clip")
    np.take(_DEC, hi, out=words[:, 1], mode="clip")
    words[:, 1] |= np.take(_DEC, digits, mode="clip") << np.uint64(24) | _POINT_COMMA
    if texts:
        out[slow] = np.frombuffer(b"".join(t.rjust(w, b"\0") for t in texts),
                                  np.uint8).reshape(len(slow), w)
        lengths[slow] = list(map(len, texts))
    return out, lengths


def _slot_dtype(offsets: tuple, widths: tuple, itemsize: int) -> np.dtype:
    """A structured dtype of itemsize bytes with a void field of each width
    at each offset, in that order."""
    return np.dtype({"names": [f"f{i}" for i in range(len(widths))],
                     "formats": [f"V{width}" for width in widths],
                     "offsets": offsets, "itemsize": itemsize})


def _without_truncation(path, flags):
    """open()'s opener: its flags and mode, less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class TelemetryWriter:
    """Streams rows to a CSV file in timestamp order, encoded as UTF-8.

    Pressure is the sensed value the controller acted on; inflation and
    object z are plant ground truth, which is why recording requires the
    simulated backend.

    An existing file is written over in place (its cached pages reused, not
    freed and allocated again) and cut at close() to the bytes written, even
    when the last flush fails, so a run ending on an exception or a full
    disk leaves only its own rows; a device or a FIFO is never cut.  A
    process killed outright can leave the old file's tail after its last
    flushed block; read_telemetry or ReplayBackend refuses it where the seam
    breaks a line or the tick grid.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "wb", buffering=1 << 20, opener=_without_truncation)
        self._cut = False
        try:
            self._cut = stat.S_ISREG(os.fstat(self._f.fileno()).st_mode)
            self._f.write(TELEMETRY_HEADER.encode() + b"\n")
        except BaseException:
            self.close()
            raise
        self._buf = np.empty(0, np.uint8)  # reused by _write

    def record(self, now, rows, valves, phase, layout, events):
        """Write a run of ticks that share valves and phase.

        now holds each tick's time and rows (hal.Rows) its sensed pressures
        and plant truth, one column per layout module in layout order;
        events are the first tick's (module_id, text) events.  Module rows
        come in layout order, then one module_id 0 row per station event.
        A float column that holds one value over the ticks (the same bits:
        a held valve, a saturated ring, an object at rest) is written as
        text once; the others are encoded in one _encode6 call, and each
        gets a slot as wide as its widest text in the call.  A call of no
        ticks writes nothing.

        Raises:
            ValueError: rows without plant truth, now and rows of other
                lengths, or events with no tick.
        """
        if rows.inflation is None:
            raise ValueError("recording requires plant ground truth")
        n = len(rows)
        if len(now) != n:
            raise ValueError(f"{len(now)} tick times for {n} rows")
        if not n:
            if events:
                raise ValueError(f"events with no tick to write them at: {list(events)!r}")
            return
        texts = {}
        for mid, text in events:
            texts.setdefault(mid, []).append(text)
        columns = np.empty((2 + 2 * len(layout.modules), n))
        columns[0], columns[1] = now, rows.object_z
        columns[2::2], columns[3::2] = rows.pressure.T, rows.inflation.T
        bits = columns.view(np.int64)
        varies = (bits != bits[:, :1]).any(axis=1)  # so 0.0 and -0.0 differ
        encoded, lengths = _encode6(columns[varies].ravel())
        w = encoded.shape[1]
        widths = lengths.reshape(-1, n).max(axis=1).tolist()
        # row k of items: the encoded bytes from tick k's text in the first
        # column on, so its text in column j lies j * n * w bytes further
        items = np.ndarray((n, max(encoded.nbytes - (n - 1) * w, 0)), np.uint8, encoded,
                           strides=(w, 1))
        # column j's slot in a row of items: where its widest text starts, and its width
        slots = iter([((j * n + 1) * w - width, width) for j, width in enumerate(widths)])
        fields = [next(slots) if v else "%.6f," % x
                  for v, x in zip(varies.tolist(), columns[:, 0].tolist())]
        first = 1 if texts else 0  # a first tick with events gets a template of its own
        self._write(fields, items, 0, first, valves, phase, layout, texts)
        self._write(fields, items, first, n, valves, phase, layout, {})

    def _write(self, fields, items, a, b, valves, phase, layout, texts):
        """Write ticks a to b - 1 of a record() call, each with the events in texts.

        fields holds the time, object z and each module's pressure and
        inflation: a text, or an encoded column's slot in a row of items
        (row k holds tick k's texts) as (byte offset, width).  A tick's rows
        become one template with a NUL slot per encoded field, put into
        each row of a reused buffer once.  The template and a row of items
        are each seen as a structured dtype with one field per slot
        (_slot_dtype), so one assignment fills every slot of a chunk of
        ticks.  A chunk whose slots all hold texts of their full width
        holds no NUL and is written as it is; from any other the NULs are
        dropped (bytes.replace, which jumps between them).  A NUL in the
        text would be dropped with them, so it raises ValueError.
        """
        if a >= b:
            return
        time, z, *floats = fields
        pieces = []
        for mod, pressure, inflation in zip(layout.modules, floats[::2], floats[1::2]):
            pieces += [time, f"{mod.id},{mod.kind},", pressure, f"{valves[mod.id]},", inflation,
                       z, f"{phase},{';'.join(texts.get(mod.id, ()))}\n"]
        for text in texts.get(0, ()):
            pieces += [time, "0,-,0.000000,-,0.000000,", z, f"{phase},{text}\n"]
        template, slots = bytearray(), []  # slots: (row offset, item offset, width)
        for piece in pieces:
            if not isinstance(piece, str):
                slots.append((len(template), *piece))
                piece = "\0" * piece[1]
            elif "\0" in piece:
                raise ValueError(f"telemetry text holds a NUL byte: {piece!r}")
            template += piece.encode()
        size = min(b - a, _WRITE_TICKS) * len(template)
        if len(self._buf) < size:
            self._buf = np.empty(size, np.uint8)
        buf = self._buf[:size].reshape(-1, len(template))
        buf[:] = np.frombuffer(template, np.uint8)
        if slots:
            at, offsets, widths = zip(*slots)
            dst = buf.view(_slot_dtype(at, widths, len(template)))[:, 0]
            src = items.view(_slot_dtype(offsets, widths, items.shape[1]))[:, 0]
        for c in range(a, b, _WRITE_TICKS):
            d = min(c + _WRITE_TICKS, b)
            if slots:
                dst[:d - c] = src[c:d]
            # replace gives back the chunk itself when it holds no NUL
            self._f.write(buf[:d - c].tobytes().replace(b"\0", b""))

    def close(self):
        """Flush, cut a regular file at the bytes the OS took, and close; once."""
        if self._f.closed:
            return
        with self._f:  # closes the file on every path
            try:
                self._f.flush()
            finally:
                if self._cut:
                    os.ftruncate(self._f.fileno(), self._f.raw.tell())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# Bytes read per block: a block of whole lines is decoded at once, so this
# bounds the temporaries alive at a time while keeping the per-block
# overhead negligible.  A block's new strings join the shared table in
# the order of their buckets (_code_fields), so it also fixes that order.
_BATCH_BYTES = 1 << 20

# About the fewest bytes in a line the writer writes: a recording's size
# over it is the first guess at its row count (a low guess costs a resize).
_LINE_BYTES = 64

# The threads that decode blocks: two, or one where one CPU is usable.
try:
    _WORKERS = min(2, len(os.sched_getaffinity(0)))
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = min(2, os.cpu_count() or 1)

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


def _checked_rows(lines: list[bytes], lineno: int) -> list[tuple]:
    """Parse a block's lines one by one, skipping blank lines.

    Returns:
        One tuple of column values per row, numbers converted by float()
        and int().

    Raises:
        ValueError: naming the first line (numbered from lineno) that is
            not UTF-8, has the wrong column count or an unparseable number.
    """
    rows = []
    for lineno, line in enumerate(lines, lineno):
        try:
            line = line.decode().rstrip("\n")
        except UnicodeDecodeError as e:
            raise ValueError(f"line {lineno}: not UTF-8 text: {e}") from None
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


def _digit_bytes(words: np.ndarray):
    """Each word less eight ASCII '0', or None unless every byte is a digit."""
    # a byte below '0' sets its top bit in the difference, one above '9' in the sum
    v = words - _ZEROS
    t = words + 0x4646464646464646
    t |= v
    t &= 0x8080808080808080
    return None if t.any() else v


def _number(v: np.ndarray) -> np.ndarray:
    """The value of each word's eight digits, from _digit_bytes, the first
    in the low byte; computed in v, which it overwrites."""
    t = v >> 8
    v *= 10
    v += t
    v &= 0x00FF00FF00FF00FF  # pairs of digits
    np.right_shift(v, 16, out=t)
    v *= 100
    v += t
    v &= 0x0000FFFF0000FFFF  # fours
    np.right_shift(v, 32, out=t)
    v *= 10000
    v += t
    v &= 0xFFFFFFFF
    return v


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
    k = e - s
    k -= neg
    k -= 7  # integer digits
    if not ((k >= 1) & (k <= 8)).all():
        return None
    words = _windows(buf, 16)[e - 15].view("<u8").reshape(-1, 2)
    whole, point = words.T
    if not ((point & 0xFF) == _DOT).all():
        return None
    keep = _TOP[k]
    whole &= keep
    whole |= np.invert(keep, out=keep) & _ZEROS  # '0' before the integer digits
    del keep
    point &= 0x00FFFFFFFFFFFF00
    point |= 0x3000000000000030  # '0', the decimals, '0'
    words = _digit_bytes(words)
    if words is None:
        return None
    whole, point = _number(words).T
    whole *= 10_000_000
    whole += point
    x = whole.astype(np.float64)
    x /= 1e7
    return np.negative(x, out=x, where=neg)


def _int4(buf: bytes, s: np.ndarray, e: np.ndarray):
    r"""Decode the fields at bytes [s, e), or None unless all match \d{1,4}."""
    n = e - s
    if not ((n >= 1) & (n <= 4)).all():
        return None
    keep = _TOP[n]
    digits = _digit_bytes((_windows(buf, 8)[e - 8].view("<u8") & keep) | (_ZEROS & ~keep))
    if digits is None:
        return None
    return _number(digits).astype(np.int64)


def _code_fields(buf: bytes, s: np.ndarray, e: np.ndarray, table: dict):
    """Code the string fields at bytes [s, e) into table, or None if one is too long.

    Keys (see _KEY_BYTES) are spread over 256 buckets, and one row of each
    bucket names its string, which table (string -> code) codes.  Every
    row's key is then compared with that row's, and a row whose bucket
    holds another string is coded on its own, so a shared bucket costs
    time, not correctness.

    Raises:
        UnicodeDecodeError: a field is not UTF-8.
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


def _decode_block(buf: bytes):
    r"""Decode a block of whole lines by byte position, or None to parse it by line.

    buf is the block as _blocks gives it, between two _PADs.  The fast
    path takes a block whose every line holds exactly 8 commas, no
    carriage return, UTF-8 strings, and numbers of the form the writer
    writes (time_s, pressure_kPa, inflation_mm and object_z_mm
    -?\d{1,8}\.\d{6}, module_id \d{1,4}).  It runs on worker threads, so
    it reads and writes nothing shared.

    Returns:
        The block's nine columns and its own table's strings in code
        order.  The string columns are codes into that table; the event
        column is (rows, texts), the rows that hold an event and their texts.
    """
    if b"\r" in buf:
        return None
    a = np.frombuffer(buf, np.uint8)
    at = a == _NL
    n = np.count_nonzero(at)  # lines
    at |= a == _COMMA
    at = np.flatnonzero(at)
    # every separator, after one before the first field: field j of line r
    # lies between sep[9 * r + j] and sep[9 * r + j + 1]
    sep = np.empty(len(at) + 1, np.int32 if len(buf) < 1 << 31 else np.intp)
    sep[0] = len(_PAD) - 1
    sep[1:] = at
    del at
    # 9 separators a line, every 9th a newline: so the other 8 are commas
    if len(sep) != 9 * n + 1 or not (a[sep[9::9]] == _NL).all():
        return None
    before, after = sep[:-1].reshape(n, 9), sep[1:].reshape(n, 9)
    x = _fixed6(a, buf, before[:, _FLOATS].ravel() + 1, after[:, _FLOATS].ravel())
    module_id = _int4(buf, before[:, 1] + 1, after[:, 1])
    if x is None or module_id is None:
        return None
    table = {}
    try:
        strings = _code_fields(buf, before[:, _STRINGS].T.ravel() + 1,
                               after[:, _STRINGS].T.ravel(), table)
        events = np.flatnonzero(after[:, 8] - before[:, 8] > 1)
        texts = [buf[before[r, 8] + 1:after[r, 8]].decode() for r in events.tolist()]
    except UnicodeDecodeError:
        return None  # the by-line parse names the line
    if strings is None:
        return None
    columns = [None] * len(_COLUMNS)
    columns[1], columns[8] = module_id, (events, texts)
    for j, column in zip(_FLOATS, x.reshape(n, len(_FLOATS)).T):
        columns[j] = column
    for j, column in zip(_STRINGS, strings.reshape(len(_STRINGS), n)):
        columns[j] = column
    return columns, list(table)


def _blocks(f):
    """The rest of a binary file in blocks of whole lines, each ending in a
    newline and put between two _PADs, so that every field's byte windows
    lie inside it.  Each is copied once from the bytes read."""
    rest = b""
    while chunk := f.read(_BATCH_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join((_PAD, rest, memoryview(chunk)[:cut], _PAD))
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield b"".join((_PAD, rest, b"\n", _PAD))


class _Reading:
    """A recording as read so far: its columns, filled block by block in
    file order, the table of shared strings and the next line's number.

    Each column but event is one array, grown in place (ndarray.resize)
    when a block does not fit and cut to length at the end, so each value
    is copied into it once and no array a worker made outlives its block.
    The codes are held in the least dtype that holds every code: widened,
    once the table passes 256 or 65,536 strings, before the block that
    passed it is copied in.  Events are kept as the rows that hold one and
    their texts, and become a column once, at the end.
    """

    def __init__(self, rows: int):
        self.arrays = [np.empty(rows, dtype) for dtype in _DTYPES[:-1]]
        self.events = []  # (rows, texts) per block with an event
        self.rows = 0
        self.table = {}  # the distinct kind, valve and phase strings -> their codes
        self.lineno = 2

    def take(self, block: bytes, decoded):
        """Add the next block: its _decode_block result, or its lines parsed
        one by one where that is None."""
        table = self.table
        if decoded is None:
            text = block[len(_PAD):-len(_PAD)].splitlines(keepends=True)
            columns = list(zip(*_checked_rows(text, self.lineno))) or [()] * len(_COLUMNS)
            for j in _STRINGS:
                columns[j] = [table.setdefault(v, len(table)) for v in columns[j]]
            rows = [r for r, v in enumerate(columns[-1]) if v]
            columns[-1] = rows, [columns[-1][r] for r in rows]
            self.lineno += len(text)
        else:
            columns, strings = decoded
            lut = [table.setdefault(v, len(table)) for v in strings]
            self.lineno += len(columns[0])
        small = np.min_scalar_type(max(len(table) - 1, 0))  # the least dtype to hold every code
        if small != self.arrays[_STRINGS[0]].dtype:
            for j in _STRINGS:
                self.arrays[j] = self.arrays[j].astype(small)
        if decoded is not None:
            lut = np.array(lut, small)
            for j in _STRINGS:
                columns[j] = lut[columns[j]]
        a, b = self.rows, self.rows + len(columns[0])
        for array, column in zip(self.arrays, columns):
            if b > len(array):  # nothing else refers to the array, so it may move
                array.resize(max(b, 2 * len(array)), refcheck=False)
            array[a:b] = column
        rows, texts = columns[-1]
        if texts:
            self.events.append((np.add(rows, a), texts))
        self.rows = b

    def log(self) -> TelemetryLog:
        """The recording read."""
        for array in self.arrays:
            array.resize(self.rows, refcheck=False)
        event = np.full(self.rows, "", object)
        for rows, texts in self.events:
            event[rows] = texts
        columns = [*self.arrays, event]
        strings = np.array(list(self.table), object)
        for j in _STRINGS:
            columns[j] = (columns[j], strings)
        return TelemetryLog(*columns)


def read_telemetry(path) -> TelemetryLog:
    """Parse a telemetry CSV into a TelemetryLog.

    The file is read in blocks of whole lines.  A block of lines as the
    writer writes them is decoded by byte position into typed columns
    (_decode_block); the numbers get the bits float() and int() would
    give.  Any other block (a blank line, commas inside the event text, a
    number such as 1e3, +1.0 or 1_0.5, bytes that are not UTF-8) is
    parsed line by line, which skips blank lines and names the first
    malformed line.  The kind, valve and phase columns are codes into one
    table of shared strings.

    Blocks are decoded on min(2, usable CPUs) worker threads, with at most
    one block more than workers in flight.  This thread takes the results
    in file order (_Reading.take): it maps each block's string codes into
    the shared table in that order, so the table and the codes are those
    of a sequential read; it parses a by-line block itself, so line
    numbers, and which of two bad lines is reported, are too; and it
    copies the values into the result's columns.  Beyond the result, a
    read holds the blocks in flight and each worker's temporaries, which
    do not grow with the rows.

    Raises:
        ValueError: wrong header or malformed row.
    """
    # imported on the first read: it loads logging, which runs that read no
    # telemetry need not
    from concurrent.futures import ThreadPoolExecutor

    with open(path, "rb") as f, ThreadPoolExecutor(_WORKERS) as pool:
        header = f.readline().decode(errors="replace").rstrip("\n")
        if header != TELEMETRY_HEADER:
            raise ValueError(f"unrecognized telemetry header: {header!r}")
        reading = _Reading(os.fstat(f.fileno()).st_size // _LINE_BYTES)
        window = collections.deque()  # (block, future) per block in flight, in file order
        for block in _blocks(f):
            window.append((block, pool.submit(_decode_block, block)))
            if len(window) > _WORKERS:
                block, decoded = window.popleft()
                reading.take(block, decoded.result())
        for block, decoded in window:
            reading.take(block, decoded.result())
    return reading.log()
