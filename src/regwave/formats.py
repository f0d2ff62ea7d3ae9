"""On-disk formats: register CSVs, reduced-register files, model files.

Register series travel as CSV with header ``tick,timestamp_s,value``.
Reduced registers and fitted models are JSON documents carrying a format tag;
floats are written with ``repr`` precision, so coefficient round trips are
exact.  A reduced file stores each window's ``index`` and ``start``; they
are written and checked here only, so that everywhere else window r is
simply entry r of a list.
"""

from __future__ import annotations

import functools
import io
import json
import os
import warnings

import numpy as np

from .errors import InputError, ParseError
from .reducer import ReducedRegister, ReductionPolicy, family_and_length
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

    Integral values below 2**53 (other than -0.0) print as their integer plus
    ``.0`` and take the integer kernel; any other value sends the whole array
    through ``repr`` one value at a time.
    """
    values = np.asarray(values, dtype=np.float64)
    integral = (np.abs(values) < 2.0**53) & (values == np.trunc(values))
    if integral.all() and not np.signbit(values[values == 0]).any():
        return _columns(_int_text(values.astype(np.int64)), _POINT_ZERO)
    text = np.array([repr(v) for v in values.tolist()], dtype=np.bytes_)
    return text.view(np.uint8).reshape(values.shape[0], -1)


def _columns(*parts) -> np.ndarray:
    """uint8 matrices side by side; the first sets the number of rows, and
    1-row parts after it repeat on every row."""
    n = parts[0].shape[0]
    return np.concatenate([np.broadcast_to(p, (n, p.shape[1])) for p in parts], axis=1)


def _text(matrix) -> bytes:
    """The bytes of a NUL-padded text matrix, row by row, padding dropped.

    CSV text holds no NUL, so dropping every NUL drops only padding."""
    return matrix.tobytes().replace(b"\0", b"")


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
        raise ParseError(f"cannot read register: {exc}", str(path), 0) from None
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
    return _read_register_rows(path)


def _read_register_rows(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-line reader: every row through int() and float()."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read register: {exc}", str(path), 0) from None
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


def write_series_csv(path, values, label: str = "value") -> None:
    """Two-column plot-ready export: sample index 0, 1, ... and value.

    Floats print with ``repr``; a boolean series prints the same text,
    ``0.0``/``1.0``, through the integer kernel.  Rows are formatted
    SERIES_CHUNK_ROWS at a time, so memory stays bounded by one chunk's text
    however long the series is.
    """
    values = np.asarray(values)
    if values.dtype != np.bool_:
        values = np.asarray(values, dtype=np.float64)
    n = len(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"index,{label}\n")
        for lo in range(0, n, SERIES_CHUNK_ROWS):
            hi = min(lo + SERIES_CHUNK_ROWS, n)
            fh.write(_series_rows(np.arange(lo, hi), values[lo:hi]))


def _series_rows(idx, values) -> str:
    if values.dtype == np.bool_:
        digit = values.view(np.uint8)[:, None] + np.uint8(ord("0"))
        return _text(_columns(_int_text(idx), _COMMA, digit, _POINT_ZERO, _NL)).decode()
    rows = zip(idx.tolist(), values.tolist())
    return "".join([f"{i},{v!r}\n" for i, v in rows])


def write_reduced_file(
    path,
    registers: list[ReducedRegister],
    policy: ReductionPolicy,
    *,
    source: str,
    total_samples: int,
) -> None:
    """Write the registers that policy made from total_samples deltas, with
    the family and window size that they share (see family_and_length)."""
    family, window_size = family_and_length(registers)
    doc = {
        "format": REDUCED_FORMAT,
        "family": family,
        "window_size": window_size,
        "depth": policy.max_depth,
        "min_energy_ratio": policy.min_energy_ratio,
        "source": source,
        "total_samples": total_samples,
        "dropped_samples": total_samples - len(registers) * window_size,
        "windows": [
            {
                "index": i,
                "start": i * window_size,
                "original_length": r.original_length,
                "path": r.path,
                "coefficients": [float(c) for c in r.coeffs],
                "sibling_energies": [list(pair) for pair in r.sibling_energies],
            }
            for i, r in enumerate(registers)
        ],
    }
    write_json(path, doc)


def read_reduced_file(path) -> tuple[dict, list[ReducedRegister]]:
    """Read a reduced-register file; returns its envelope and one register
    per window, window r at entry r.

    Entry i must have index i, so windows are listed in order without gaps
    or repeats.  Each entry must hold fields of the JSON types README gives,
    make a valid ReducedRegister and agree with the envelope: its
    original_length is the file's window_size, its stored start is
    ``index * window_size``, and its depth is the file's depth, or less when
    a positive min_energy_ratio may have stopped its descent early.

    Raises:
        ParseError: unreadable file, unknown family, an envelope without
            integer window_size, depth and total_samples, a numeric
            min_energy_ratio and an array of windows, or an entry that breaks
            the above, naming its window.
    """
    doc, path = _read_json(path, REDUCED_FORMAT), str(path)
    family = doc.get("family")
    if family not in FAMILIES:
        raise ParseError(f"unsupported family {family!r}", path)
    window_size, depth, total, floor = (
        doc.get(key)
        for key in ("window_size", "depth", "total_samples", "min_energy_ratio")
    )
    if not (_is_int(window_size) and _is_int(depth) and _is_int(total)
            and _is_number(floor)):
        raise ParseError(
            "envelope needs integer window_size and depth, an integer total_samples "
            f"and a numeric min_energy_ratio, got {window_size!r}, {depth!r}, "
            f"{total!r}, {floor!r}",
            path,
        )
    if type(doc.get("windows")) is not list:
        raise ParseError("windows must be an array", path)
    registers = []
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
        try:
            register = ReducedRegister(
                original_length=length,
                family=family,
                path=letters,
                coeffs=np.array(coeffs, dtype=np.float64),
                sibling_energies=tuple((float(k), float(d)) for k, d in ledger),
            )
        except (InputError, ValueError, OverflowError) as exc:
            raise ParseError(f"window {i}: {exc}", path) from None
        if index != i:
            raise ParseError(f"window {i}: index {index} is not its position {i} in windows",
                             path)
        if register.original_length != window_size:
            raise ParseError(f"window {i}: original_length {length} is not the file's "
                             f"window_size {window_size}", path)
        if start != index * window_size:
            raise ParseError(f"window {i}: start {start} is not index {i} * "
                             f"window_size {window_size}", path)
        if register.depth > depth or (register.depth < depth and not floor > 0):
            raise ParseError(
                f"window {i}: depth {register.depth} is not the file's depth {depth}", path
            )
        registers.append(register)
    return doc, registers


def write_model_file(path, model: GaussianModel, *, training_window: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "mu": [float(v) for v in model.mu],
        "sigma2": [float(v) for v in model.sigma2],
        "epsilon": model.epsilon,
        "quantile": model.quantile,
        "training_window": training_window,
    }
    write_json(path, doc)


def read_model_file(path) -> tuple[GaussianModel, dict]:
    doc, path = _read_json(path, MODEL_FORMAT), str(path)
    try:
        mu, sigma2, epsilon, quantile = (
            doc[key] for key in ("mu", "sigma2", "epsilon", "quantile")
        )
    except KeyError as exc:
        raise ParseError(f"malformed model: missing {exc}", path) from None
    if not (_is_numbers(mu) and _is_numbers(sigma2)
            and all(v is None or _is_number(v) for v in (epsilon, quantile))):
        raise ParseError("model needs arrays of numbers mu and sigma2 and a number or "
                         "null epsilon and quantile", path)
    if len(mu) != len(sigma2):
        raise ParseError("mu and sigma2 must be equal-length lists", path)
    try:
        model = GaussianModel(
            mu=np.array(mu, dtype=np.float64),
            sigma2=np.array(sigma2, dtype=np.float64),
            epsilon=None if epsilon is None else float(epsilon),
            quantile=None if quantile is None else float(quantile),
        )
    except OverflowError as exc:
        raise ParseError(f"malformed model: {exc}", path) from None
    scalars = [v for v in (model.epsilon, model.quantile) if v is not None]
    if not np.isfinite(np.concatenate([model.mu, model.sigma2, scalars])).all():
        raise ParseError("mu, sigma2, epsilon and quantile must be finite", path)
    if np.any(model.sigma2 <= 0):
        raise ParseError("sigma2 entries must be positive", path)
    return model, doc


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
        raise ParseError(f"cannot read file: {exc}", str(path), 0) from None
    except UnicodeDecodeError as exc:
        raise ParseError.not_utf8(exc, path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", str(path), exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ParseError(f"not a {expected_format} document", str(path), 1)
    return doc
