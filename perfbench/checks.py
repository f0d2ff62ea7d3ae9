"""Output checks of the benchmark's verification pass.

The parsers here are independent of regwave's own readers, so a defect in a
reader cannot hide a defect in the matching writer.  Every check raises
CheckFailed with the file and the reason.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

REGISTER_HEADER = "tick,timestamp_s,value"
LEDGER_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def require_ok(calls) -> None:
    failed = [f"{c.verb} ({c.error})" for c in calls if not c.ok]
    if failed:
        raise CheckFailed("calls failed: " + "; ".join(failed))


def _rows(path: Path, header: str) -> list[list[str]]:
    """Split the data rows of a CSV whose header starts with ``header``."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path}: cannot read: {exc}") from None
    if not lines or not lines[0].startswith(header):
        raise CheckFailed(f"{path}: header does not start with {header!r}")
    return [line.split(",") for line in lines[1:]]


def _column(path: Path, rows, col: int, dtype) -> np.ndarray:
    try:
        return np.array([r[col] for r in rows], dtype=dtype)
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"{path}: malformed column {col}: {exc}") from None


def register_csv(path: Path, n_rows: int) -> None:
    """Ticks 1..n, increasing timestamps, non-decreasing counter values."""
    rows = _rows(path, REGISTER_HEADER)
    if len(rows) != n_rows or any(len(r) != 3 for r in rows):
        raise CheckFailed(f"{path}: expected {n_rows} rows of 3 fields")
    ticks = _column(path, rows, 0, np.int64)
    stamps = _column(path, rows, 1, np.float64)
    values = _column(path, rows, 2, np.int64)
    if not np.array_equal(ticks, np.arange(1, n_rows + 1)):
        raise CheckFailed(f"{path}: ticks are not 1..{n_rows}")
    if np.any(np.diff(stamps) <= 0):
        raise CheckFailed(f"{path}: timestamps do not increase")
    if np.any(np.diff(values) < 0):
        where = int(np.flatnonzero(np.diff(values) < 0)[0]) + 2
        raise CheckFailed(f"{path}: counter decreases at row {where}")


def series_csv(path: Path, n_rows: int) -> np.ndarray:
    """An ``index,<label>`` CSV of n finite values indexed 0..n-1."""
    rows = _rows(path, "index,")
    if len(rows) != n_rows:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {n_rows}")
    if not np.array_equal(_column(path, rows, 0, np.int64), np.arange(n_rows)):
        raise CheckFailed(f"{path}: indices are not 0..{n_rows - 1}")
    values = _column(path, rows, 1, np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path}: non-finite values")
    return values


def _json(path: Path, fmt: str) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: cannot load: {exc}") from None
    if fmt and doc.get("format") != fmt:
        raise CheckFailed(f"{path}: format is not {fmt!r}")
    return doc


def reduced_file(path: Path, n_windows: int, window: int, depth: int) -> dict:
    """Window count, alignment and coefficient count of a reduced file."""
    doc = _json(path, "regwave.reduced/1")
    entries = doc.get("windows", [])
    if len(entries) != n_windows:
        raise CheckFailed(f"{path}: {len(entries)} windows, expected {n_windows}")
    for i, w in enumerate(entries):
        coeffs = np.asarray(w["coefficients"], dtype=np.float64)
        if (w["index"], w["start"], w["original_length"]) != (i, i * window, window):
            raise CheckFailed(f"{path}: window {i} is misplaced")
        if len(w["path"]) != depth or len(w["sibling_energies"]) != depth:
            raise CheckFailed(f"{path}: window {i} is not {depth} levels deep")
        if coeffs.shape != (window >> depth,) or not np.all(np.isfinite(coeffs)):
            raise CheckFailed(f"{path}: window {i} has bad coefficients")
    return doc


def detection_dir(out: Path, n: int) -> None:
    _json(out / "model.json", "regwave.model/1")
    series_csv(out / "probabilities.csv", n)
    flags = series_csv(out / "flags.csv", n)
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise CheckFailed(f"{out / 'flags.csv'}: flags are not 0 or 1")


def ledger_prd(entry: dict) -> float | None:
    """PRD the energy ledger predicts: 100 sqrt(discarded / window energy)."""
    energies = entry["sibling_energies"]
    total = sum(energies[0])
    if total == 0.0:
        return None
    return 100.0 * math.sqrt(sum(d for _, d in energies) / total)


def comparison(out: Path, reduced_path: Path, n_windows: int) -> list[tuple[float, float]]:
    """Check a compare directory; returns (jaccard, prd) per window.

    The measured PRD must match the ledger's prediction within LEDGER_RTOL,
    which holds by orthonormality of the filter bank.
    """
    report = _json(out / "report.json", "")
    reduced = _json(reduced_path, "regwave.reduced/1")
    windows = report.get("windows", [])
    if len(windows) != n_windows:
        raise CheckFailed(f"{out}: report has {len(windows)} windows, expected {n_windows}")
    window = reduced["window_size"]
    quality = []
    for w, entry in zip(windows, reduced["windows"]):
        predicted, measured = ledger_prd(entry), w["prd"]
        if (predicted is None) != (measured is None) or (
            predicted is not None
            and abs(measured - predicted) > LEDGER_RTOL * max(predicted, 1e-300)
        ):
            raise CheckFailed(
                f"{out}: window {w['index']} PRD {measured!r} differs from the "
                f"ledger's {predicted!r}"
            )
        if not 0.0 <= w["jaccard"] <= 1.0:
            raise CheckFailed(f"{out}: window {w['index']} jaccard {w['jaccard']!r}")
        tag = f"window{w['index']:03d}"
        for part in ("original", "synthesized", "prob_original", "prob_synthesized"):
            series_csv(out / f"{tag}_{part}.csv", window)
        if measured is not None:
            quality.append((w["jaccard"], measured))
    return quality


def suite_results(results, spikes_must_hold: bool) -> list[tuple[float, float]]:
    """(jaccard, prd) per case and direction; at seed 0 spikes must survive."""
    quality = []
    for res in results:
        for field, rep in sorted(res.reports.items()):
            if not 0.0 <= rep.jaccard <= 1.0 or not math.isfinite(rep.prd):
                raise CheckFailed(f"case {res.case.name} {field}: bad report {rep}")
            quality.append((rep.jaccard, rep.prd))
        if spikes_must_hold and not res.spikes_preserved():
            raise CheckFailed(f"case {res.case.name}: an injected spike sample is unflagged")
    return quality


def suite_text(results) -> str:
    """Canonical text of suite results, for byte-for-byte digests."""
    return "\n".join(
        f"{res.case.name} {res.case.seed} {field} {dataclasses.asdict(rep)!r}"
        for res in results
        for field, rep in sorted(res.reports.items())
    )
