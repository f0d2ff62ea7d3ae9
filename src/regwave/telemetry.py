"""Simulated switch data plane and polling.

Switches hold per-port traffic profiles and injected anomalies, and no state:
polling a switch for n ticks simulates from t = 0 in one columnar kernel.
Every tick's volume, jitter draw and counter value is computed at once with
numpy, and the register store receives one int64 column per counter field
plus the poll timestamps.  Everything is deterministic under a fixed seed, so
a 42-minute experiment replays in milliseconds.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    InsufficientDataError,
    InputError,
    MonotonicityError,
    UnknownPortError,
)

# Nominal frame size tying packet counters to byte counters.
FRAME_BYTES = 1000

# Most ticks one poll simulates.  A tick costs about 110 B per port at peak,
# so the limit is about 0.1 GB per port: 116 days at 10 s polling.
MAX_TICKS = 1_000_000

COUNTER_FIELDS = (
    "rx_packets",
    "tx_packets",
    "rx_bytes",
    "tx_bytes",
    "rx_drops",
    "tx_drops",
    "rx_errors",
    "tx_errors",
)


@dataclass(frozen=True)
class Burst:
    t_start: float
    duration: float
    multiplier: float

    def __post_init__(self):
        if self.duration <= 0 or self.multiplier <= 0:
            raise DataError(f"burst needs positive duration and multiplier: {self}")

    def factor_at(self, t: np.ndarray) -> np.ndarray:
        inside = (self.t_start <= t) & (t < self.t_start + self.duration)
        return np.where(inside, self.multiplier, 1.0)


@dataclass(frozen=True)
class TrafficProfile:
    """Traffic intensity of one port: a base rate per direction, optional
    relative jitter on each polling interval's volume, and scheduled bursts."""

    base_rate: float
    jitter: float = 0.0
    bursts: tuple = ()

    def __post_init__(self):
        if self.base_rate <= 0:
            raise DataError(f"base_rate must be positive, got {self.base_rate}")
        if self.jitter < 0:
            raise DataError(f"jitter must be nonnegative, got {self.jitter}")


ANOMALY_KINDS = ("spike", "dropout", "drift")


@dataclass(frozen=True)
class AnomalyScenario:
    """Injected atypical behavior on one port.

    spike multiplies traffic by magnitude (> 1) during [t0, t0+duration);
    dropout scales it by magnitude in [0, 1); drift ramps the multiplier
    linearly from 1 to magnitude over the duration and then holds it.
    """

    kind: str
    port: int
    t0: float
    duration: float
    magnitude: float

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise DataError(f"unknown anomaly kind {self.kind!r}")
        if self.duration <= 0:
            raise DataError(f"anomaly duration must be positive, got {self.duration}")
        if self.kind in ("spike", "drift") and self.magnitude <= 1:
            raise DataError(f"{self.kind} magnitude must exceed 1, got {self.magnitude}")
        if self.kind == "dropout" and not 0.0 <= self.magnitude < 1.0:
            raise DataError(f"dropout magnitude must lie in [0, 1), got {self.magnitude}")

    def factor_at(self, t: np.ndarray) -> np.ndarray:
        """Traffic multiplier at each time in t."""
        t = np.asarray(t, dtype=np.float64)
        end = self.t0 + self.duration
        if self.kind == "drift":
            ramp = 1.0 + (self.magnitude - 1.0) * (t - self.t0) / self.duration
            return np.where(t < self.t0, 1.0, np.where(t >= end, self.magnitude, ramp))
        return np.where((self.t0 <= t) & (t < end), self.magnitude, 1.0)


def _rng_for(seed: int, switch_id: str) -> np.random.Generator:
    # Independent substream per switch so multi-switch runs equal the
    # concatenation of single-switch runs.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(switch_id.encode())]))
    )


def _accrue(volume: np.ndarray, counter: str) -> np.ndarray:
    """Running total of volume in whole units; refuses a tick volume of 2**63
    or more (inf and nan too) and a total past int64."""
    if not np.all(volume < 2.0**63):
        raise DataError(f"{counter}: a tick volume reaches 2**63")
    total = np.cumsum(np.rint(volume).astype(np.int64))
    if np.any(total < np.concatenate([[0], total[:-1]])):
        raise DataError(f"{counter} passes the int64 range")
    return total


class SwitchSim:
    """One simulated switch.  It holds no state: every run starts afresh."""

    def __init__(self, switch_id: str, profiles: dict, scenarios=(), seed: int = 0):
        if not profiles:
            raise InputError(f"switch {switch_id!r} has no ports")
        self.switch_id = switch_id
        self.profiles = dict(profiles)
        self.scenarios = tuple(scenarios)
        for sc in self.scenarios:
            if sc.port not in self.profiles:
                raise UnknownPortError(
                    f"anomaly targets unknown port {sc.port} on switch {switch_id!r}"
                )
        self.seed = seed

    def _volumes(self, port: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact bytes offered to a port over each tick [edges[k], edges[k+1])
        before jitter, and the bytes dropouts suppress in each tick."""
        profile = self.profiles[port]
        rate = profile.base_rate
        scenarios = [s for s in self.scenarios if s.port == port]
        cuts = np.array(
            [t for b in profile.bursts for t in (b.t_start, b.t_start + b.duration)]
            + [t for s in scenarios for t in (s.t0, s.t0 + s.duration)],
            dtype=np.float64,
        )
        inner = cuts[(cuts > edges[0]) & (cuts < edges[-1])]
        grid = np.unique(np.concatenate([edges, inner]))
        a, b = grid[:-1], grid[1:]
        tick = np.searchsorted(edges, a, side="right") - 1

        # Inside a cut-free span every burst/spike/dropout factor is constant,
        # so sampling them at the midpoint is exact.  Drift ramps vary
        # linearly and are continuous, so Simpson integrates their product
        # exactly for up to two overlapping ramps.
        mid = 0.5 * (a + b)
        const = np.ones_like(mid)
        for burst in profile.bursts:
            const = const * burst.factor_at(mid)
        undropped = const
        for s in scenarios:
            if s.kind != "drift":
                factor = s.factor_at(mid)
                const = const * factor
                if s.kind == "spike":
                    undropped = undropped * factor

        def ramps(t: np.ndarray) -> np.ndarray:
            f = np.ones_like(t)
            for s in scenarios:
                if s.kind == "drift":
                    f = f * s.factor_at(t)
            return f

        simpson = ramps(a) + 4.0 * ramps(mid) + ramps(b)
        n_ticks = edges.shape[0] - 1
        # bincount adds a tick's pieces left to right; np.add.reduceat would not.
        offered = np.bincount(tick, rate * const * (b - a) * simpson / 6.0, n_ticks)
        if not any(s.kind == "dropout" for s in scenarios):
            return offered, np.zeros(n_ticks)
        total = np.bincount(tick, rate * undropped * (b - a) * simpson / 6.0, n_ticks)
        return offered, np.maximum(0.0, total - offered)

    # A volume that overflows to inf or nan is refused by _accrue with its
    # port and counter; numpy's warning would only print ahead of that.
    @np.errstate(over="ignore", invalid="ignore")
    def run(self, n_ticks: int, dt: float) -> tuple[np.ndarray, dict]:
        """Simulate n_ticks ticks of dt seconds from t = 0 and zero counters.

        Per tick and direction the interval volume is scaled by
        max(0, 1 + jitter * g) with one standard normal g drawn from a fresh
        switch stream (tick-major, then port, then rx before tx), then
        rounded half-to-even to whole bytes.  Dropout-suppressed volume lands
        in the drop counters.  A counter that would pass int64 is a DataError.

        Returns:
            (timestamps, columns): the time at the end of each tick, and per
            port a dict of int64 counter columns keyed by COUNTER_FIELDS.

        Raises:
            InputError: n_ticks not an integer in [0, MAX_TICKS], or dt not
                positive and finite.
        """
        if (isinstance(n_ticks, bool) or not isinstance(n_ticks, (int, np.integer))
                or not 0 <= n_ticks <= MAX_TICKS):
            raise InputError(
                f"n_ticks must be an integer in [0, {MAX_TICKS}], got {n_ticks!r}"
            )
        if not 0 < dt < math.inf:
            raise InputError(f"dt must be positive and finite, got {dt}")
        ports = sorted(self.profiles)
        # Sequential cumsum: tick k ends at dt added k times, left to right.
        edges = np.cumsum(np.concatenate([[0.0], np.full(n_ticks, float(dt))]))
        rng = _rng_for(self.seed, self.switch_id)
        draws = rng.standard_normal((n_ticks, len(ports), 2))
        columns = {}
        for i, port in enumerate(ports):
            offered, suppressed = self._volumes(port, edges)
            jitter = self.profiles[port].jitter
            col = {}
            for d, side in enumerate(("rx", "tx")):
                scale = np.maximum(0.0, 1.0 + jitter * draws[:, i, d])
                for name, volume in ((f"{side}_bytes", offered * scale),
                                     (f"{side}_drops", suppressed)):
                    col[name] = _accrue(volume,
                                        f"{name} of port {port} on {self.switch_id!r}")
                col[f"{side}_packets"] = col[f"{side}_bytes"] // FRAME_BYTES
                col[f"{side}_errors"] = np.zeros(n_ticks, dtype=np.int64)
            columns[port] = col
        return edges[1:], columns


@dataclass(frozen=True)
class Snapshot:
    tick: int
    timestamp_s: float
    counters: dict  # int per COUNTER_FIELDS name


def _read_only(values, dtype) -> np.ndarray:
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


class RegisterStore:
    """Polled counter columns per (switch, port).

    Each series is one timestamp array plus one int64 column per counter
    field; row i is the snapshot of tick i + 1 counted from t = 0, whichever
    poll filled it.  Accessors hand out the store's own arrays, read-only.
    """

    def __init__(self):
        self._series: dict[tuple[str, int], tuple[np.ndarray, dict]] = {}

    def add(self, switch_id: str, port: int, timestamps, columns: dict) -> None:
        """File one series; the store keeps read-only views of the arrays."""
        key = (switch_id, port)
        if key in self._series:
            raise InputError(f"series for {switch_id}:{port} filed twice")
        stamps = _read_only(timestamps, np.float64)
        cols = {name: _read_only(columns[name], np.int64) for name in COUNTER_FIELDS}
        if any(col.shape != stamps.shape for col in cols.values()):
            raise InputError(f"counter columns of {switch_id}:{port} differ in length")
        self._series[key] = (stamps, cols)

    def keys(self) -> list[tuple[str, int]]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def _get(self, switch_id: str, port: int) -> tuple[np.ndarray, dict]:
        try:
            return self._series[(switch_id, port)]
        except KeyError:
            raise UnknownPortError(f"no series for {switch_id!r} port {port}") from None

    def ticks(self, switch_id: str, port: int) -> np.ndarray:
        return np.arange(1, self.timestamps(switch_id, port).shape[0] + 1)

    def timestamps(self, switch_id: str, port: int) -> np.ndarray:
        return self._get(switch_id, port)[0]

    def counter_series(self, switch_id: str, port: int, field_name: str) -> np.ndarray:
        if field_name not in COUNTER_FIELDS:
            raise UnknownPortError(f"unknown counter field {field_name!r}")
        return self._get(switch_id, port)[1][field_name]

    def snapshots(self, switch_id: str, port: int) -> list[Snapshot]:
        """Row view of one series, built on demand."""
        stamps, cols = self._get(switch_id, port)
        rows = zip(*(cols[name].tolist() for name in COUNTER_FIELDS))
        return [
            Snapshot(tick=i, timestamp_s=ts, counters=dict(zip(COUNTER_FIELDS, row)))
            for i, (ts, row) in enumerate(zip(stamps.tolist(), rows), start=1)
        ]


def poll(switches, *, interval: float, duration: float) -> RegisterStore:
    """Drive every switch through duration seconds of polled simulation.

    Every switch is snapshotted once per interval, after each tick.

    Args:
        interval: polling cadence in simulated seconds.
        duration: total simulated time; must be a whole number of intervals,
            and at most MAX_TICKS (10**6) of them.

    Returns:
        The filled RegisterStore; duration 0 yields an empty one.
    """
    if not 0 < interval < math.inf:
        raise InputError(f"interval must be positive and finite, got {interval}")
    if not 0 <= duration < math.inf:
        raise InputError(f"duration must be nonnegative and finite, got {duration}")
    if duration / interval == math.inf:
        raise InputError(f"duration / interval overflows: {duration} / {interval}")
    n_ticks = round(duration / interval)
    if n_ticks > MAX_TICKS:
        raise InputError(
            f"duration / interval is {duration / interval:.6g} ticks, more than "
            f"the {MAX_TICKS} a poll may simulate"
        )
    if abs(n_ticks * interval - duration) > 1e-9 * max(1.0, interval):
        raise InputError(
            f"duration {duration} is not a multiple of the interval {interval}"
        )
    store = RegisterStore()
    if n_ticks:
        for sw in switches:
            stamps, columns = sw.run(n_ticks, interval)
            for port, cols in columns.items():
                store.add(sw.switch_id, port, stamps, cols)
    return store


def deltas(snapshots) -> np.ndarray:
    """Per-interval differences of a cumulative counter series.

    Raises:
        InsufficientDataError: fewer than 2 snapshots.
        MonotonicityError: any decreasing step (counter wrap is out of scope
            and treated as a contract violation).
        DataError: a rise of 2**63 or more, which no int64 delta holds.
    """
    values = np.asarray(snapshots, dtype=np.int64)
    if values.ndim != 1 or values.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 snapshots to difference, got {values.shape}"
        )
    decreases = np.flatnonzero(values[1:] < values[:-1])
    if decreases.size:
        where = int(decreases[0])
        raise MonotonicityError(
            f"counter decreases at snapshot {where + 1}: "
            f"{values[where]} -> {values[where + 1]}"
        )
    diff = np.diff(values)
    # Without a decrease, a negative difference is a rise that wrapped.
    wraps = np.flatnonzero(diff < 0)
    if wraps.size:
        where = int(wraps[0])
        raise DataError(
            f"counter rises by {int(values[where + 1]) - int(values[where])} at "
            f"snapshot {where + 1}, beyond the int64 range of a delta: "
            f"{values[where]} -> {values[where + 1]}"
        )
    return diff


def select_server_ports(store: RegisterStore, server_port_ids) -> RegisterStore:
    """Restrict a store to the named (switch_id, port) keys."""
    wanted = [(str(sw), int(port)) for sw, port in server_port_ids]
    known = set(store.keys())
    for key in wanted:
        if key not in known:
            raise UnknownPortError(f"no series for {key[0]!r} port {key[1]}")
    out = RegisterStore()
    for key in store.keys():
        if key in wanted:
            stamps, cols = store._get(*key)
            out.add(key[0], key[1], stamps, cols)
    return out
