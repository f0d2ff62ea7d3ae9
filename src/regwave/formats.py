"""On-disk formats: register CSVs, series CSVs, reduced-register files,
model files.

Register series travel as CSV with header ``tick,timestamp_s,value``, and
plot-ready series as ``index,<label>``.  CSV text is built in numpy without
a Python call per value: integers from a table of four-digit groups, floats
as the text ``repr`` gives, from shortest round-trip digits computed in
uint64 lanes.  Reduced registers and fitted models are JSON documents
carrying a format tag; ``json`` writes their floats with ``repr``, so
coefficient round trips are exact.  A reduced file stores each window's
``index`` and ``start``; they are written and checked here only, so that
everywhere else window r is simply row r of a register.  The file spells
each window's kept branches as a path of ``L`` and ``H`` letters, which only
this module reads and writes.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import warnings

import numpy as np

from .errors import InputError, ParseError
from .reducer import ReducedRegister
from .gaussian import GaussianModel
from .wavelets import FAMILIES

REDUCED_FORMAT = "regwave.reduced/1"
MODEL_FORMAT = "regwave.model/1"

CSV_HEADER = "tick,timestamp_s,value"
# Rows per write of write_series_csv.
SERIES_CHUNK_ROWS = 8192


def write_register_csv(path, ticks, timestamps, values) -> None:
    _write_rows(path, _row_prefixes(ticks, timestamps), values)


@functools.cache
def _digit_table() -> np.ndarray:
    """Four ASCII digits per uint32 entry, built on first use.

    Entry r (r < 10000) is r as "0000".."9999"; entry 10000 + r is r as the
    leading group of a number: right-aligned, NUL-padded, and 0 all NUL.
    """
    r = np.arange(10000, dtype=np.uint32)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint32)
    digits = r // place % 10 + ord("0")
    leading = np.where(r >= place, digits, 0)
    table = np.concatenate([digits, leading]).astype(np.uint8).view(np.uint32).ravel()
    table.setflags(write=False)
    return table


# 10**1 .. 10**19: searchsorted counts the digits of a uint64 magnitude.
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_NL = np.array([[ord("\n")]], dtype=np.uint8)
_COMMA = np.array([[ord(",")]], dtype=np.uint8)
_POINT_ZERO = np.array([[ord("."), ord("0")]], dtype=np.uint8)


def _int_text(values) -> np.ndarray:
    """Decimal text of an int64 array as an (n, w) uint8 matrix.

    Row i is ``str(values[i])`` right-aligned and NUL-padded on the left; w is
    the width of the widest value.  Digits are taken four at a time from a
    table, on the magnitude as uint64 so that INT64_MIN is exact.
    """
    values = np.asarray(values, dtype=np.int64)
    rows = np.flatnonzero(values < 0)
    mag = values.view(np.uint64).copy()
    mag[rows] = -mag[rows]
    neg_digits = np.searchsorted(_POW10, mag[rows], side="right") + 1
    width = max(len(str(int(mag.max(initial=0)))), int(neg_digits.max(initial=0)) + 1)
    groups = -(-width // 4)
    table = _digit_table()
    words = np.empty((values.shape[0], groups), dtype=np.uint32)
    for g in range(groups - 1, -1, -1):
        rest = mag // np.uint64(10000)
        # With nothing left above it, a group is the number's leading group.
        lead = (rest == 0) * np.uint64(10000)
        words[:, g] = table.take(mag - rest * np.uint64(10000) + lead)
        mag = rest
    text = words.view(np.uint8)
    cols = 4 * groups
    # The leading-group entry of 0 is all NUL; a zero value keeps one digit.
    text[values == 0, cols - 1] = ord("0")
    text[rows, cols - 1 - neg_digits] = ord("-")
    return text[:, cols - width:]


def _float_text(values) -> np.ndarray:
    """``repr`` of a float64 array as a NUL-padded uint8 matrix.

    An array of whole numbers below 2**53 (-0.0 aside) prints each as its
    integer plus ``.0`` through the integer kernel.  Any other array goes
    through the shortest round-trip kernel, _LANES values per pass.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # np.trunc of a signalling nan
        integral = (np.abs(values) < 2.0**53) & (values == np.trunc(values))
    if integral.all() and not np.signbit(values[values == 0]).any():
        return _columns(_int_text(values.astype(np.int64)), _POINT_ZERO)
    passes = range(0, values.shape[0], _LANES)
    return np.concatenate([_shortest_text(values[lo:lo + _LANES]) for lo in passes])


@functools.cache
def _shortest_table() -> np.ndarray:
    """Schubfach's constants for every binary exponent, built exactly from
    Python ints on first use.

    A double is c * 2**q with q = max(E, 1) - 1075 for its biased exponent E.
    Column E holds, in rows 0..5, the decimal exponent k = floor(log10(2**q)),
    the shift h = q + floor(log2(10**-k)) + 2, and the 126-bit
    g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1 as four 32-bit
    limbs, low first.  Column 2048 + E holds the same for a power of two,
    whose lower neighbour is half as far: there k = floor(log10(3/4 * 2**q)).
    """
    def floor_log10(num: int, den: int) -> int:
        k = len(str(num)) - len(str(den))
        return k - (num * 10 ** max(-k, 0) < den * 10 ** max(k, 0))

    columns = []
    for quarters in (4, 3):
        for biased in range(2048):
            q = max(biased, 1) - 1075
            k = floor_log10(quarters << max(q, 0), 4 << max(-q, 0))
            ten = 10 ** abs(k)
            log2 = ten.bit_length() - 1 if k <= 0 else -(ten - 1).bit_length()
            shift = 125 - log2
            num, den = (ten, 1) if k <= 0 else (1, ten)
            g = (num << max(shift, 0)) // (den << max(-shift, 0)) + 1
            limbs = [(g >> 32 * j) & 0xFFFFFFFF for j in range(4)]
            columns.append([k, q + log2 + 2, *limbs])
    table = np.array(columns, dtype=np.int64).T.copy()
    table.setflags(write=False)
    return table


_M32 = np.uint64(0xFFFFFFFF)
# Lanes per pass of the shortest kernel: its few dozen temporaries stay small
# enough for the allocator to reuse instead of returning them to the system.
_LANES = 4096


def _round_to_odd(columns, top) -> np.ndarray:
    """floor(x) | (x has a fraction), for x = X / 2**127 truncated to 63
    fraction bits; X is the sum of 32-bit-spaced int64 columns 0..3 plus the
    bits of X / 2**127 above them already shifted into top.

    g is rounded up, so X exceeds the exact product by less than 2**60.
    The truncation drops that excess: a product that is exactly an integer,
    a tie between two decimals, still reads as one.
    """
    c0, c1, c2, c3 = columns
    c2 = c2 + ((c1 + (c0 >> 32)) >> 32)
    c3 = c3 + (c2 >> 32)
    fraction = (c2 & 0xFFFFFFFF) | (c3 & 0x7FFFFFFF)
    return (top + (c3 >> 31)) | (fraction != 0)


def _shortest_digits(bits) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach (R. Giulietti, 2020) in uint64 lanes: for each finite,
    nonzero double, the decimal m * 10**k with the fewest digits that rounds
    back to it, the nearest such one, and of two equally near the even one.

    m (int64) has 16 or 17 digits, trailing zeros included, except for
    subnormals.  The 64 x 126-bit products are summed from 32-bit halves.
    """
    biased = (bits >> np.uint64(52)).view(np.int64) & 0x7FF
    fraction = bits & np.uint64((1 << 52) - 1)
    c = np.where(biased > 0, fraction | np.uint64(1 << 52), fraction)
    irregular = (fraction == np.uint64(0)) & (biased > 1)
    k, h, *g = _shortest_table().take(biased + 2048 * irregular, axis=1)
    g = [limb.view(np.uint64) for limb in g]
    # 4c scaled by 2**h, split in halves; X = cp * g is summed by 32-bit column.
    cp = c << (h.view(np.uint64) + np.uint64(2))
    p0, p1 = cp & _M32, cp >> np.uint64(32)
    lo0, lo1 = [[p * limb & _M32 for limb in g] for p in (p0, p1)]
    hi0, hi1 = [[p * limb >> np.uint64(32) for limb in g] for p in (p0, p1)]
    columns = [
        lo0[0],
        hi0[0] + lo0[1] + lo1[0],
        hi0[1] + hi1[0] + lo0[2] + lo1[1],
        hi0[2] + hi1[1] + lo0[3] + lo1[2],
    ]
    columns = [col.view(np.int64) for col in columns]
    top = ((hi0[3] + hi1[2] + lo1[3]) << np.uint64(1)) + (hi1[3] << np.uint64(33))
    top = top.view(np.int64)
    # The interval's bounds: 4c + 2 above, 4c - 2 below (4c - 1 if irregular).
    limbs = [limb.view(np.int64) for limb in g]
    above = [limb << h + 1 for limb in limbs]
    below = [limb << h + 1 - irregular for limb in limbs]
    vb = _round_to_odd(columns, top)
    vbr = _round_to_odd([col + d for col, d in zip(columns, above)], top)
    vbl = _round_to_odd([col - d for col, d in zip(columns, below)], top)
    # An odd c excludes the interval's bounds: they round to its even neighbours.
    odd = (c & np.uint64(1)).view(np.int64)
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    # Of sp10 and tp10 at most one rounds back; if exactly one does, it is
    # shorter than s.  Otherwise pick from s and s + 1 the one that rounds
    # back, or if both do the nearer, s on a tie if it is even.
    upin = vbl + odd <= sp10 << 2
    wpin = (tp10 << 2) + odd <= vbr
    uin = vbl + odd <= s << 2
    win = (s << 2) + 4 + odd <= vbr
    mid = (s << 2) + 2
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    m = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(lower, s, s + 1))
    return m, k


@functools.cache
def _shortest_tables() -> tuple[np.ndarray, ...]:
    """Words of text for _shortest_text, built on first use.

    - digit words: entry r (r < 10000) is r as "0000".."9999" in the low 4
      bytes of a little-endian uint64;
    - zeros: entry r is the number of trailing zeros of those four digits;
    - heads: entry 5 * negative + j is the sign, then for j >= 1 "0." and
      j - 1 zeros;
    - tails: "e-324" .. "e+308" in entries 0 .. 632, nothing in entry 633;
    - low: row i, column j masks the first j bytes of a 3-word text for word
      i, and point row i, column j puts "." at byte j (none at 24);
    - specials: "nan", "inf", "-inf", "0.0", "-0.0".
    """
    def words(texts, width=8):
        packed = b"".join(t.ljust(width, b"\0") for t in texts)
        return np.frombuffer(packed, dtype="<u8").astype(np.uint64)

    digits = _digit_table()[:10000].view(np.uint8).reshape(-1, 4)
    digit_words = words([row.tobytes() for row in digits])
    zero = digits == ord("0")
    zeros = np.argmax(~zero[:, ::-1], axis=1) + 4 * zero.all(axis=1)
    heads = words([sign + lead for sign in (b"", b"-")
                   for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")])
    tails = words([f"e{e:+03d}".encode() for e in range(-324, 309)] + [b""])
    low = words([b"\xff" * j for j in range(25)], 24)
    point = words([b"\0" * j + b"." for j in range(24)] + [b""], 24)
    low, point = (table.reshape(25, 3).T.copy() for table in (low, point))
    specials = words([b"nan", b"inf", b"-inf", b"0.0", b"-0.0"])
    tables = (digit_words, zeros.astype(np.int64), heads, tails, low, point, specials)
    for table in tables:
        table.setflags(write=False)
    return tables


def _shortest_text(values) -> np.ndarray:
    """``repr`` of every float64 lane as an (n, 40) NUL-padded uint8 matrix.

    The digits of _shortest_digits, scaled to 17, are laid out as ``repr``
    does: positional for decimal exponents in [-4, 16), with ``.0`` after an
    integral value, otherwise ``d.ddde±XX``.  A row is five little-endian
    words: sign and leading ``0.``, three words of digits and point, and the
    exponent.  nan, inf, -inf and zeros are written from a table.
    """
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    m, k = _shortest_digits(bits)
    digit_words, zeros, heads, tails, low, point, specials = _shortest_tables()
    length = (m >= 10**16) + 16
    subnormal = np.flatnonzero(m < 10**15)
    magnitude = m[subnormal].view(np.uint64)
    length[subnormal] = np.searchsorted(_POW10, magnitude, side="right") + 1
    m = m * 10 ** (17 - length)
    # The 17 digits: a lead digit and four groups of four.
    lead = m // 10**16
    rest = m - lead * 10**16
    high = rest // 10**8
    low8 = rest - high * 10**8
    g1 = high // 10**4
    g3 = low8 // 10**4
    g2 = high - g1 * 10**4
    g4 = low8 - g3 * 10**4
    z = zeros.take(g4) + (g4 == 0) * zeros.take(g3)
    z += (low8 == 0) * (zeros.take(g2) + (g2 == 0) * zeros.take(g1))
    shown = 17 - z  # digits up to the last nonzero one
    e = length + k - 1  # the exponent of d.ddd
    positional = (e >= -4) & (e < 16)
    whole = positional & (e >= 0)
    # p digits before the point, cut digits in all; no point in d and 0.0ddd.
    p = np.where(whole, e + 1, 1)
    cut = np.where(whole, np.maximum(shown, p + 1), shown)
    dotted = whole | ~positional & (shown > 1)
    split = np.where(dotted, p, cut) + 3
    # Three NUL bytes, then the digits: the groups sit on 4-byte boundaries.
    text = [
        (lead + ord("0")).view(np.uint64) << np.uint64(24)
        | digit_words.take(g1) << np.uint64(32),
        digit_words.take(g2) | digit_words.take(g3) << np.uint64(32),
        digit_words.take(g4),
    ]
    dot = np.where(dotted, p + 3, 24)
    kept = [word & mask.take(cut + 3) for word, mask in zip(text, low)]
    before = [word & mask.take(split) for word, mask in zip(kept, low)]
    after = [word ^ b for word, b in zip(kept, before)]
    # Bytes after the point move up one byte, and the point fills the gap.
    body = [
        before[0] | after[0] << np.uint64(8),
        before[1] | after[1] << np.uint64(8) | after[0] >> np.uint64(56),
        before[2] | after[2] << np.uint64(8) | after[1] >> np.uint64(56),
    ]
    body = [word | dots.take(dot) for word, dots in zip(body, point)]
    head = heads.take(np.where(positional & (e < 0), -e, 0) + 5 * np.signbit(values))
    tail = tails.take(np.where(positional, 633, e + 324))
    words = np.stack([head, *body, tail], axis=1)
    special = np.flatnonzero(~np.isfinite(values) | (values == 0))
    if special.size:
        v = values[special]
        code = np.where(np.isnan(v), 0, np.where(np.isinf(v), 1, 3) + np.signbit(v))
        words[special] = 0
        words[special, 0] = specials.take(code)
    return words.astype("<u8", copy=False).view(np.uint8)


def _columns(*parts) -> np.ndarray:
    """uint8 matrices side by side; the first sets the number of rows, and
    1-row parts after it repeat on every row."""
    n = parts[0].shape[0]
    return np.concatenate([np.broadcast_to(p, (n, p.shape[1])) for p in parts], axis=1)


def _text(matrix) -> bytes:
    """The bytes of a NUL-padded text matrix, row by row, padding dropped.

    CSV text holds no NUL, so dropping every NUL drops only padding."""
    return matrix.tobytes().translate(None, b"\0")


def _row_prefixes(ticks, timestamps) -> np.ndarray:
    """The ``tick,timestamp_s,`` start of every register row, as text rows."""
    return _columns(_int_text(ticks), _COMMA, _float_text(timestamps), _COMMA)


def _write_rows(path, prefixes: np.ndarray, values) -> None:
    body = _text(_columns(prefixes, _int_text(values), _NL))
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n" + body)


_REGISTER_ROW = np.dtype(
    [("tick", np.int64), ("timestamp_s", np.float64), ("value", np.int64)]
)
# Bytes that mean the same to numpy's reader and to the per-line reader:
# digits, signs, decimal point, exponent, the letters of nan/inf/infinity,
# the comma, space, tab and line ends.  A body with any other byte goes to the
# per-line reader, because numpy strips \x0b, \x0c, \x1c-\x1f, \x85 and
# U+2028 around a number, where str.splitlines breaks the line instead, and
# would accept rows such as "1\x0c,10.0,5" that the per-line reader refuses.
_PLAIN_BYTES = b"0123456789+-.eEnNaAiIfFtTyY, \t\r\n"
_INT64_RANGE = range(-(2**63), 2**63)


def read_register_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one exported counter series.

    A file of plain rows is parsed in one pass by numpy's reader.  Anything
    else, and any row numpy refuses or warns about, goes to the per-line
    reader, which decides what is accepted and reports the offending line.

    Returns:
        (ticks, timestamps, values) arrays; values as int64.

    Raises:
        ParseError: unreadable or non-UTF-8 file, wrong header, or a row that
            is not ``int,float,int`` with both integers in the int64 range.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read register: {exc}", str(path)) from None
    if header.rstrip(b"\r\n") == CSV_HEADER.encode() and not body.translate(
        None, _PLAIN_BYTES
    ):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    io.BytesIO(body),
                    delimiter=",",
                    dtype=_REGISTER_ROW,
                    comments=None,
                    ndmin=1,
                )
        except (ValueError, OverflowError, Warning):
            pass
        else:
            return tuple(np.ascontiguousarray(table[name]) for name in table.dtype.names)
    return _read_register_rows(path, header + body)


def _read_register_rows(path, data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-line reader: every row of the file's bytes through int() and
    float()."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError.not_utf8(exc, path) from None
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError(
            f"expected header {CSV_HEADER!r}", str(path), 1 if lines else 0
        )
    ticks, timestamps, values = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected 3 comma-separated fields", str(path), lineno)
        try:
            tick, timestamp, value = int(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"malformed row {line!r}", str(path), lineno) from None
        if tick not in _INT64_RANGE or value not in _INT64_RANGE:
            raise ParseError(
                f"row {line!r} holds an integer outside the int64 range",
                str(path),
                lineno,
            )
        ticks.append(tick)
        timestamps.append(timestamp)
        values.append(value)
    return (
        np.array(ticks, dtype=np.int64),
        np.array(timestamps, dtype=np.float64),
        np.array(values, dtype=np.int64),
    )


def export_store(store, out_dir) -> list[str]:
    """Write one CSV per (switch, port, counter field); returns the paths."""
    from .telemetry import COUNTER_FIELDS

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for switch_id, port in store.keys():
        prefixes = _row_prefixes(
            store.ticks(switch_id, port), store.timestamps(switch_id, port)
        )
        for field_name in COUNTER_FIELDS:
            path = os.path.join(out_dir, f"{switch_id}_p{port}_{field_name}.csv")
            series = store.counter_series(switch_id, port, field_name)
            _write_rows(path, prefixes, series)
            written.append(path)
    return written


def write_series_csv(paths, values, label: str = "value") -> None:
    """Two-column plot-ready exports: sample index 0, 1, ... and value.

    One path takes a 1-D series.  k paths take a (k, n) block, and row r goes
    to paths[r] with its index starting at 0.  Values print as ``repr`` of
    their float64, computed in numpy lanes by _float_text; a boolean prints
    as ``0.0``/``1.0``.  The block's lanes are formatted SERIES_CHUNK_ROWS at
    a time, so memory stays bounded by one chunk's text however long the
    series is.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths, values = [paths], [values]
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != len(paths):
        raise ValueError(f"{len(paths)} path(s) for values of shape {values.shape}")
    n = values.shape[1]
    lanes = values.reshape(-1)
    header = f"index,{label}\n".encode()
    lo, rows = 0, np.empty((0, 0), dtype=np.uint8)  # the text of lanes lo, lo + 1, ...
    for r, path in enumerate(paths):
        with open(path, "wb") as fh:
            fh.write(header)
            start, end = r * n, (r + 1) * n
            while start < end:
                if start == lo + len(rows):
                    chunk = lanes[start:start + SERIES_CHUNK_ROWS]
                    lo, rows = start, _series_rows(chunk, n, start)
                stop = min(end, lo + len(rows))
                fh.write(_text(rows[start - lo:stop - lo]))
                start = stop


def _series_rows(lanes, n: int, first: int) -> np.ndarray:
    """``index,value`` text rows of lanes first, first + 1, ... of a block
    whose rows hold n lanes each."""
    index = np.arange(first, first + len(lanes)) % n
    return _columns(_int_text(index), _COMMA, _float_text(lanes), _NL)


def write_reduced_file(
    path, reduced: ReducedRegister, *, source: str, total_samples: int
) -> None:
    """Write a register's windows, reduced from total_samples deltas, with
    its family, window size and depth.

    Every window descends to the file's depth, so min_energy_ratio, the
    early-stop floor of older versions, is always 0.0; it is kept so that
    files stay regwave.reduced/1."""
    n = reduced.original_length
    paths = ["".join(row) for row in np.where(reduced.high, "H", "L").tolist()]
    rows = zip(paths, reduced.coeffs.tolist(), reduced.sibling_energies.tolist())
    doc = {
        "format": REDUCED_FORMAT,
        "family": reduced.family,
        "window_size": n,
        "depth": reduced.depth,
        "min_energy_ratio": 0.0,
        "source": source,
        "total_samples": total_samples,
        "dropped_samples": total_samples - len(paths) * n,
        "windows": [
            {
                "index": i,
                "start": i * n,
                "original_length": n,
                "path": letters,
                "coefficients": coeffs,
                "sibling_energies": ledger,
            }
            for i, (letters, coeffs, ledger) in enumerate(rows)
        ],
    }
    write_json(path, doc)


def read_reduced_file(path) -> tuple[ReducedRegister, int]:
    """Read a reduced-register file; returns what write_reduced_file took:
    the register, window r in row r, and total_samples.

    Entry i must have index i, so windows are listed in order without gaps
    or repeats.  Each entry must hold fields of the JSON types README gives
    and agree with the envelope: a path of depth L and H letters, one ledger
    pair per letter, original_length the file's window_size, start ``index
    * window_size``, and ``window_size >> depth`` coefficients.  Together
    the windows must make a valid ReducedRegister.

    Raises:
        ParseError: unreadable file, unknown family, an envelope without
            integer window_size, depth, total_samples and dropped_samples, a
            string source, a depth of at least 1, a min_energy_ratio in
            [0, 1] and a non-empty array of windows, a
            dropped_samples that is not ``total_samples - len(windows) *
            window_size`` in ``[0, window_size)``, or an entry that breaks
            the above, naming its window.
    """
    doc, path = _read_json(path, REDUCED_FORMAT), str(path)
    family = doc.get("family")
    if family not in FAMILIES:
        raise ParseError(f"unsupported family {family!r}", path)
    window_size, depth, total, dropped, floor, source = (doc.get(key) for key in (
        "window_size", "depth", "total_samples", "dropped_samples", "min_energy_ratio",
        "source"))
    if not (all(map(_is_int, (window_size, depth, total, dropped)))
            and _is_number(floor) and type(source) is str):
        raise ParseError(
            "envelope needs integer window_size and depth, integer total_samples and "
            "dropped_samples, a numeric min_energy_ratio and a string source, got "
            f"{window_size!r}, {depth!r}, {total!r}, {dropped!r}, {floor!r}, {source!r}",
            path,
        )
    if depth < 1:
        raise ParseError(f"depth must be at least 1, got {depth}", path)
    if not 0.0 <= floor <= 1.0:
        raise ParseError(f"min_energy_ratio must lie in [0, 1], got {floor}", path)
    if type(doc.get("windows")) is not list:
        raise ParseError("windows must be an array", path)
    if not doc["windows"]:
        raise ParseError("windows is empty, and reduce writes at least one", path)
    paths, coefficients, ledgers = [], [], []
    for i, entry in enumerate(doc["windows"]):
        try:
            index, start, length, letters, coeffs, ledger = (entry[key] for key in (
                "index", "start", "original_length", "path", "coefficients",
                "sibling_energies"))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"window {i}: malformed entry: {exc}", path) from None
        if not (_is_int(index) and _is_int(start) and _is_int(length)
                and type(letters) is str and _is_numbers(coeffs)
                and type(ledger) is list and all(map(_is_numbers, ledger))):
            raise ParseError(
                f"window {i}: needs integer index, start and original_length, a "
                "string path, and arrays of numbers for coefficients and for each "
                "sibling_energies pair",
                path,
            )
        # Depth first: a window an old energy floor stopped early is named so.
        if not letters or not set(letters) <= {"L", "H"}:
            problem = f"path must be L and H letters, got {letters!r}"
        elif len(letters) != depth:
            problem = f"depth {len(letters)} is not the file's depth {depth}"
        elif len(ledger) != depth:
            problem = f"{len(ledger)} sibling_energies pairs for path {letters!r}"
        elif length < 2 or length & (length - 1):
            problem = f"original_length {length} is not a power of two >= 2"
        elif length != window_size:
            problem = f"original_length {length} is not the file's window_size {window_size}"
        elif index != i:
            problem = f"index {index} is not its position {i} in windows"
        elif start != index * window_size:
            problem = f"start {start} is not index {i} * window_size {window_size}"
        elif not length >> depth or len(coeffs) != length >> depth:
            problem = (f"coefficients of shape ({len(coeffs)},) do not rebuild {length} "
                       f"samples at depth {depth}")
        else:
            try:
                coefficients.append(np.array(coeffs, dtype=np.float64))
                ledgers.append([(float(k), float(d)) for k, d in ledger])
                paths.append(letters)
                continue
            except (ValueError, OverflowError) as exc:
                problem = str(exc)
        raise ParseError(f"window {i}: {problem}", path)
    if dropped != total - len(paths) * window_size or not 0 <= dropped < window_size:
        raise ParseError(f"dropped_samples {dropped} must equal total_samples {total} - "
                         f"{len(paths)} windows * {window_size} and lie in "
                         f"[0, {window_size})", path)
    high = np.frombuffer("".join(paths).encode(), np.uint8).reshape(-1, depth) == ord("H")
    try:
        reduced = ReducedRegister(
            family, window_size, high, np.array(coefficients), np.array(ledgers)
        )
    except InputError as exc:
        raise ParseError(str(exc), path) from None
    return reduced, total


def write_model_file(path, model: GaussianModel, *, training_window: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "mu": [model.mu],
        "sigma2": [model.sigma2],
        "epsilon": model.epsilon,
        "quantile": model.quantile,
        "training_window": training_window,
    }
    write_json(path, doc)


def read_model_file(path) -> GaussianModel:
    """Read a model file; returns the calibrated model that write_model_file
    took, or raises ParseError if the file breaks README's model contract."""
    doc, path = _read_json(path, MODEL_FORMAT), str(path)
    try:
        mu, sigma2, epsilon, quantile = (
            doc[key] for key in ("mu", "sigma2", "epsilon", "quantile")
        )
    except KeyError as exc:
        raise ParseError(f"malformed model: missing {exc}", path) from None
    if not (_is_numbers(mu) and _is_numbers(sigma2)
            and _is_number(epsilon) and _is_number(quantile)):
        raise ParseError("model needs arrays of numbers mu and sigma2 and numbers "
                         "epsilon and quantile", path)
    if len(mu) != 1 or len(sigma2) != 1:
        raise ParseError("mu and sigma2 must each hold one number", path)
    try:
        numbers = [float(v) for v in (mu[0], sigma2[0], epsilon, quantile)]
    except OverflowError as exc:
        raise ParseError(f"malformed model: {exc}", path) from None
    if not all(map(math.isfinite, numbers)):
        raise ParseError("mu, sigma2, epsilon and quantile must be finite", path)
    if numbers[1] <= 0:
        raise ParseError("sigma2 must be positive", path)
    return GaussianModel(*numbers)


def write_json(path, doc) -> None:
    """Write a JSON document indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false load as bools


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_numbers(value) -> bool:
    return type(value) is list and all(type(v) in (int, float) for v in value)


def _read_json(path, expected_format: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise ParseError.not_utf8(exc, path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", str(path), exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ParseError(f"not a {expected_format} document", str(path), 1)
    return doc
