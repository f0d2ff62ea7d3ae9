"""Seeded anomaly-preservation scenarios.

Each case simulates a single polled port with a long clean prefix, injects
one anomaly inside a later evaluation window, reduces that window at depth 1,
and checks how well detection on the rebuilt register agrees with detection
on the original.  The prefix trains the detector, so the evaluation window is
scored by a model that never saw the anomaly.  Only the evaluation window is
reduced, and both byte directions go through as the two rows of one batch.

Anomalies are placed a few samples away from window edges and span dozens of
polling intervals: depth-1 synthesis smears sharp edges over at most a
filter-length of neighbors, and agreement is judged per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ComparisonReport
from .pipeline import fit_row_models, judge_windows
from .reducer import compression_ratio, decompose_windows, synthesize_windows
from .telemetry import (
    AnomalyScenario,
    SwitchSim,
    TrafficProfile,
    deltas,
    poll,
)
from .wavelets import make_filter_pair

TRAIN_SAMPLES = 1024
WINDOW = 256
INTERVAL = 10.0
QUANTILE = 0.002
FAMILY = "db2"
DEPTH = 1

_DIRECTIONS = ("rx_bytes", "tx_bytes")


@dataclass(frozen=True)
class PreservationCase:
    """One seeded scenario: a clean training run plus one injected anomaly.

    start and length position the anomaly in evaluation-window samples; for
    drifts, length is the ramp and the elevated level holds to the window
    end.
    """

    name: str
    seed: int
    base_rate: float
    jitter: float
    kind: str
    magnitude: float
    start: int
    length: int

    def anomaly(self) -> AnomalyScenario:
        return AnomalyScenario(
            kind=self.kind,
            port=1,
            t0=INTERVAL * (TRAIN_SAMPLES + self.start + 1),
            duration=INTERVAL * self.length,
            magnitude=self.magnitude,
        )

    def spike_indices(self) -> tuple[int, ...]:
        if self.kind != "spike":
            return ()
        return tuple(range(self.start, self.start + self.length))


def _spike(name, seed, base_rate, jitter, sigmas, start, length) -> PreservationCase:
    # A spike of magnitude 1 + sigmas * jitter sits sigmas standard
    # deviations above the clean per-interval volume.
    return PreservationCase(
        name, seed, base_rate, jitter, "spike", 1.0 + sigmas * jitter, start, length
    )


def preservation_suite() -> list[PreservationCase]:
    """The bundled evaluation scenarios: spikes, dropouts, drifts."""
    cases = [
        _spike("spike-15sig", 101, 40_000.0, 0.05, 15, 40, 80),
        _spike("spike-20sig", 102, 60_000.0, 0.04, 20, 90, 70),
        _spike("spike-25sig", 103, 30_000.0, 0.05, 25, 20, 100),
        _spike("spike-30sig", 104, 80_000.0, 0.03, 30, 120, 90),
        _spike("spike-40sig", 105, 50_000.0, 0.05, 40, 60, 80),
        _spike("spike-60sig", 106, 20_000.0, 0.05, 60, 20, 90),
        _spike("spike-80sig", 107, 45_000.0, 0.06, 80, 100, 100),
        _spike("spike-120sig", 108, 35_000.0, 0.05, 120, 30, 110),
        _spike("spike-160sig", 109, 70_000.0, 0.04, 160, 80, 90),
        _spike("spike-200sig", 110, 55_000.0, 0.05, 200, 50, 100),
        PreservationCase("dropout-full-a", 201, 40_000.0, 0.05, "dropout", 0.0, 40, 100),
        PreservationCase("dropout-full-b", 202, 60_000.0, 0.04, "dropout", 0.0, 100, 80),
        PreservationCase("dropout-20pct", 203, 30_000.0, 0.05, "dropout", 0.2, 20, 100),
        PreservationCase("dropout-30pct", 204, 50_000.0, 0.05, "dropout", 0.3, 70, 90),
        PreservationCase("dropout-40pct", 205, 80_000.0, 0.04, "dropout", 0.4, 120, 100),
        PreservationCase("dropout-50pct", 206, 45_000.0, 0.05, "dropout", 0.5, 60, 100),
        PreservationCase("drift-x8", 301, 40_000.0, 0.05, "drift", 8.0, 140, 20),
        PreservationCase("drift-x12", 302, 60_000.0, 0.04, "drift", 12.0, 150, 15),
        PreservationCase("drift-x15", 303, 30_000.0, 0.05, "drift", 15.0, 130, 25),
        PreservationCase("drift-x10", 304, 50_000.0, 0.05, "drift", 10.0, 160, 20),
        PreservationCase("drift-x9", 305, 70_000.0, 0.03, "drift", 9.0, 145, 15),
        PreservationCase("drift-x14", 306, 55_000.0, 0.04, "drift", 14.0, 135, 20),
    ]
    return cases


@dataclass(frozen=True)
class CaseResult:
    case: PreservationCase
    reports: dict[str, ComparisonReport]

    @property
    def worst_jaccard(self) -> float:
        return min(r.jaccard for r in self.reports.values())

    def spikes_preserved(self) -> bool:
        """True when every injected spike sample is flagged in both series."""
        expected = set(self.case.spike_indices())
        if not expected:
            return True
        return all(
            expected <= set(r.flags_original) and expected <= set(r.flags_synthesized)
            for r in self.reports.values()
        )


def run_case(case: PreservationCase) -> CaseResult:
    """Simulate, reduce, and compare one case on both byte directions.

    Each direction's model is fitted on its own clean prefix; the two
    evaluation windows are reduced, scored and reported as one two-row batch.
    """
    switch = SwitchSim(
        "s1",
        {1: TrafficProfile(base_rate=case.base_rate, jitter=case.jitter)},
        scenarios=[case.anomaly()],
        seed=case.seed,
    )
    n_snapshots = TRAIN_SAMPLES + WINDOW + 1
    store = poll([switch], interval=INTERVAL, duration=INTERVAL * n_snapshots)
    series = np.array(
        [deltas(store.counter_series("s1", 1, field)) for field in _DIRECTIONS],
        dtype=np.float64,
    )
    start = TRAIN_SAMPLES // WINDOW * WINDOW
    originals = np.ascontiguousarray(series[:, start : start + WINDOW])
    filters = make_filter_pair(FAMILY)
    reduced = decompose_windows(originals, filters, DEPTH)
    mu, sigma2, epsilon = fit_row_models(series[:, :TRAIN_SAMPLES], QUANTILE)
    reports, _, _ = judge_windows(
        originals,
        synthesize_windows(reduced),
        [compression_ratio(reduced)] * len(_DIRECTIONS),
        mu,
        sigma2,
        epsilon,
    )
    return CaseResult(case=case, reports=dict(zip(_DIRECTIONS, reports)))


def run_suite(cases=None) -> list[CaseResult]:
    return [run_case(case) for case in (preservation_suite() if cases is None else cases)]
