"""On-disk formats: register CSVs, reduced-register files, model files.

Register series travel as CSV with header ``tick,timestamp_s,value``.
Reduced registers and fitted models are JSON documents carrying a format tag;
floats are written with ``repr`` precision, so coefficient round trips are
exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .reducer import ReducedRegister
from .gaussian import GaussianModel
from .wavelets import FAMILIES

REDUCED_FORMAT = "regwave.reduced/1"
MODEL_FORMAT = "regwave.model/1"

CSV_HEADER = "tick,timestamp_s,value"


def write_register_csv(path, ticks, timestamps, values) -> None:
    _write_rows(path, _row_prefixes(ticks, timestamps), values)


def _row_prefixes(ticks, timestamps) -> list[str]:
    """The ``tick,timestamp_s,`` start of every register row."""
    stamps = np.asarray(timestamps, dtype=np.float64).tolist()
    ticks = np.asarray(ticks, dtype=np.int64).tolist()
    return [f"{tick},{ts!r}," for tick, ts in zip(ticks, stamps)]


def _write_rows(path, prefixes: list[str], values) -> None:
    values = np.asarray(values, dtype=np.int64).tolist()
    rows = [f"{p}{v}\n" for p, v in zip(prefixes, values)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + "".join(rows))


def read_register_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one exported counter series.

    Returns:
        (ticks, timestamps, values) arrays; values as int64.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read register: {exc}", str(path), 0) from None
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
            ticks.append(int(parts[0]))
            timestamps.append(float(parts[1]))
            values.append(int(parts[2]))
        except ValueError:
            raise ParseError(f"malformed row {line!r}", str(path), lineno) from None
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


def write_series_csv(path, values, label: str = "value", indices=None) -> None:
    """Two-column plot-ready export: sample index and value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"index,{label}\n")
        idx = range(len(values)) if indices is None else indices
        for i, v in zip(idx, values):
            fh.write(f"{int(i)},{repr(float(v))}\n")


@dataclass(frozen=True)
class ReducedWindow:
    """One reduced window plus where it came from in the source series."""

    index: int
    start: int
    register: ReducedRegister


def write_reduced_file(
    path,
    windows: list[ReducedWindow],
    *,
    family: str,
    window_size: int,
    depth: int,
    min_energy_ratio: float,
    source: str,
    total_samples: int,
    dropped_samples: int,
) -> None:
    doc = {
        "format": REDUCED_FORMAT,
        "family": family,
        "window_size": window_size,
        "depth": depth,
        "min_energy_ratio": min_energy_ratio,
        "source": source,
        "total_samples": total_samples,
        "dropped_samples": dropped_samples,
        "windows": [
            {
                "index": w.index,
                "start": w.start,
                "original_length": w.register.original_length,
                "path": w.register.path,
                "coefficients": [float(c) for c in w.register.coeffs],
                "sibling_energies": [
                    [kept, discarded] for kept, discarded in w.register.sibling_energies
                ],
            }
            for w in windows
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_reduced_file(path) -> tuple[dict, list[ReducedWindow]]:
    doc = _read_json(path, REDUCED_FORMAT)
    family = doc.get("family")
    if family not in FAMILIES:
        raise ParseError(f"unsupported family {family!r}", str(path), 0)
    windows = []
    for entry in doc.get("windows", []):
        try:
            register = ReducedRegister(
                original_length=int(entry["original_length"]),
                family=family,
                path=str(entry["path"]),
                coeffs=np.array(entry["coefficients"], dtype=np.float64),
                sibling_energies=tuple(
                    (float(k), float(d)) for k, d in entry["sibling_energies"]
                ),
            )
            window = ReducedWindow(
                index=int(entry["index"]), start=int(entry["start"]), register=register
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed window entry: {exc}", str(path), 0) from None
        if any(branch not in "LH" for branch in register.path) or not register.path:
            raise ParseError(f"bad path {register.path!r}", str(path), 0)
        expected = register.original_length >> len(register.path)
        if register.coeffs.shape[0] != expected:
            raise ParseError(
                f"window {window.index}: {register.coeffs.shape[0]} coefficients "
                f"do not match length {register.original_length} at depth "
                f"{len(register.path)}",
                str(path),
                0,
            )
        windows.append(window)
    return doc, windows


def write_model_file(path, model: GaussianModel, *, training_window: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "mu": [float(v) for v in model.mu],
        "sigma2": [float(v) for v in model.sigma2],
        "epsilon": model.epsilon,
        "quantile": model.quantile,
        "training_window": training_window,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_model_file(path) -> tuple[GaussianModel, dict]:
    doc = _read_json(path, MODEL_FORMAT)
    try:
        mu = np.array(doc["mu"], dtype=np.float64)
        sigma2 = np.array(doc["sigma2"], dtype=np.float64)
        epsilon = doc["epsilon"]
        quantile = doc["quantile"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model: {exc}", str(path), 0) from None
    if mu.shape != sigma2.shape or mu.ndim != 1:
        raise ParseError("mu and sigma2 must be equal-length lists", str(path), 0)
    if np.any(sigma2 <= 0):
        raise ParseError("sigma2 entries must be positive", str(path), 0)
    model = GaussianModel(
        mu=mu,
        sigma2=sigma2,
        epsilon=None if epsilon is None else float(epsilon),
        quantile=None if quantile is None else float(quantile),
    )
    return model, doc


def _read_json(path, expected_format: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", str(path), 0) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", str(path), exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ParseError(f"not a {expected_format} document", str(path), 1)
    return doc
