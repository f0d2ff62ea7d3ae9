import numpy as np
import pytest

from regwave import telemetry
from regwave.errors import (
    DataError,
    InputError,
    InsufficientDataError,
    MonotonicityError,
    UnknownPortError,
)
from regwave.telemetry import (
    COUNTER_FIELDS,
    AnomalyScenario,
    Burst,
    SwitchSim,
    TrafficProfile,
    _accrue,
    _rng_for,
    deltas,
    poll,
    select_server_ports,
)


def steady(rate=1000.0, jitter=0.0, bursts=()):
    return TrafficProfile(base_rate=rate, jitter=jitter, bursts=tuple(bursts))


def test_deterministic_rate_accrual():
    sw = SwitchSim("s1", {1: steady()}, seed=0)
    sw.run(1, 10.0)
    assert sw.counters[1].tx_bytes == 10_000
    assert sw.counters[1].rx_bytes == 10_000
    assert sw.counters[1].tx_packets == 10


def test_full_dropout_suppresses_all_bytes():
    sw = SwitchSim(
        "s1", {1: steady()}, [AnomalyScenario("dropout", 1, 0.0, 10.0, 0.0)], seed=0
    )
    sw.run(1, 10.0)
    assert sw.counters[1].tx_bytes == 0
    assert sw.counters[1].tx_drops == 10_000


def test_spike_multiplies_one_interval():
    sw = SwitchSim(
        "s1", {1: steady()}, [AnomalyScenario("spike", 1, 10.0, 10.0, 10.0)], seed=0
    )
    seen = []
    for _ in range(3):
        before = sw.counters[1].tx_bytes
        sw.run(1, 10.0)
        seen.append(sw.counters[1].tx_bytes - before)
    assert seen == [10_000, 100_000, 10_000]


def test_drift_ramps_linearly_then_holds():
    sw = SwitchSim(
        "s1", {1: steady()}, [AnomalyScenario("drift", 1, 0.0, 20.0, 3.0)], seed=0
    )
    seen = []
    for _ in range(3):
        before = sw.counters[1].tx_bytes
        sw.run(1, 10.0)
        seen.append(sw.counters[1].tx_bytes - before)
    # Ramp averages 1.5x then 2.5x over its two intervals, then holds at 3x.
    assert seen == [15_000, 25_000, 30_000]


def test_burst_multiplies_its_span():
    sw = SwitchSim("s1", {1: steady(bursts=[Burst(10.0, 10.0, 2.0)])}, seed=0)
    seen = []
    for _ in range(3):
        before = sw.counters[1].tx_bytes
        sw.run(1, 10.0)
        seen.append(sw.counters[1].tx_bytes - before)
    assert seen == [10_000, 20_000, 10_000]


def test_partial_interval_overlap_integrates_exactly():
    sw = SwitchSim(
        "s1", {1: steady()}, [AnomalyScenario("spike", 1, 5.0, 10.0, 3.0)], seed=0
    )
    sw.run(1, 10.0)
    # Half the interval at 1x, half at 3x.
    assert sw.counters[1].tx_bytes == 5_000 + 15_000


def test_counters_stay_monotone_under_everything():
    sw = SwitchSim(
        "s1",
        {
            1: TrafficProfile(
                base_rate=5000.0, jitter=0.4, bursts=(Burst(30.0, 40.0, 3.0),)
            )
        },
        [
            AnomalyScenario("dropout", 1, 100.0, 50.0, 0.0),
            AnomalyScenario("drift", 1, 200.0, 80.0, 4.0),
        ],
        seed=5,
    )
    previous = sw.counters[1].copy()
    for _ in range(40):
        sw.run(1, 10.0)
        current = sw.counters[1]
        for name in COUNTER_FIELDS:
            assert getattr(current, name) >= getattr(previous, name)
        previous = current.copy()


def test_poll_counts_and_cadence():
    sw = SwitchSim("s1", {1: steady(), 2: steady(rate=2000.0)}, seed=1)
    store = poll([sw], interval=10.0, duration=2560.0)
    assert store.keys() == [("s1", 1), ("s1", 2)]
    for key in store.keys():
        snaps = store.snapshots(*key)
        assert len(snaps) == 256
        stamps = store.timestamps(*key)
        assert np.allclose(np.diff(stamps), 10.0)
        assert [s.tick for s in snaps] == list(range(1, 257))


def test_zero_duration_gives_empty_store():
    sw = SwitchSim("s1", {1: steady()}, seed=0)
    store = poll([sw], interval=10.0, duration=0.0)
    assert store.keys() == []


def test_duration_must_be_a_multiple_of_interval():
    sw = SwitchSim("s1", {1: steady()}, seed=0)
    with pytest.raises(InputError):
        poll([sw], interval=10.0, duration=25.0)


def _series_dump(store):
    return {
        key: tuple(
            tuple(getattr(s.counters, f) for f in COUNTER_FIELDS)
            for s in store.snapshots(*key)
        )
        for key in store.keys()
    }


def make_switch(switch_id, seed=9):
    return SwitchSim(
        switch_id,
        {1: TrafficProfile(base_rate=3000.0, jitter=0.1)},
        [AnomalyScenario("spike", 1, 50.0, 20.0, 5.0)],
        seed=seed,
    )


def test_same_seed_reproduces_the_store_exactly():
    a = poll([make_switch("sw")], interval=10.0, duration=500.0)
    b = poll([make_switch("sw")], interval=10.0, duration=500.0)
    assert _series_dump(a) == _series_dump(b)


def test_parallel_run_equals_sequential_runs():
    together = poll(
        [make_switch("a"), make_switch("b"), make_switch("c")],
        interval=10.0,
        duration=400.0,
    )
    alone = {}
    for name in ("a", "b", "c"):
        alone.update(
            _series_dump(poll([make_switch(name)], interval=10.0, duration=400.0))
        )
    assert _series_dump(together) == alone


def test_delta_arithmetic():
    assert list(deltas([100, 250, 400])) == [150, 150]
    assert list(deltas([5, 5, 5])) == [0, 0]


def test_full_run_is_window_ready():
    sw = SwitchSim("s1", {1: steady(jitter=0.05)}, seed=3)
    store = poll([sw], interval=10.0, duration=2570.0)
    series = store.counter_series("s1", 1, "tx_bytes")
    assert series.shape[0] == 257
    assert deltas(series).shape[0] == 256


def test_decreasing_counter_is_a_contract_violation():
    with pytest.raises(MonotonicityError):
        deltas([10, 5, 20])
    with pytest.raises(InsufficientDataError):
        deltas([10])


def test_select_server_ports_filters_and_validates():
    sw = SwitchSim("s1", {1: steady(), 2: steady(), 3: steady()}, seed=0)
    store = poll([sw], interval=10.0, duration=30.0)
    only2 = select_server_ports(store, [("s1", 2)])
    assert only2.keys() == [("s1", 2)]
    assert len(only2.snapshots("s1", 2)) == 3
    everything = select_server_ports(store, store.keys())
    assert _series_dump(everything) == _series_dump(store)
    assert select_server_ports(store, []).keys() == []
    with pytest.raises(UnknownPortError):
        select_server_ports(store, [("s1", 9)])


def test_counter_series_validates_the_field_name():
    sw = SwitchSim("s1", {1: steady()}, seed=0)
    store = poll([sw], interval=10.0, duration=30.0)
    with pytest.raises(UnknownPortError):
        store.counter_series("s1", 1, "bogus_field")


def _reference_volume(profile, scenarios, t0, t1, with_dropouts):
    """Scalar restatement of one tick's offered bytes: cut [t0, t1) at every
    burst and anomaly edge inside it, integrate each piece with midpoint
    factors and Simpson's rule for drift ramps, add the pieces left to right."""

    def ramps(t):
        f = 1.0
        for s in scenarios:
            if s.kind == "drift":
                if t >= s.t0 + s.duration:
                    f *= s.magnitude
                elif t >= s.t0:
                    f *= 1.0 + (s.magnitude - 1.0) * (t - s.t0) / s.duration
        return f

    cuts = {t0, t1}
    cuts.update(t for b in profile.bursts for t in (b.t_start, b.t_start + b.duration))
    cuts.update(t for s in scenarios for t in (s.t0, s.t0 + s.duration))
    edges = sorted(t for t in cuts if t0 <= t <= t1)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        const = 1.0
        for burst in profile.bursts:
            if burst.t_start <= mid < burst.t_start + burst.duration:
                const *= burst.multiplier
        for s in scenarios:
            if s.kind == "spike" or (s.kind == "dropout" and with_dropouts):
                if s.t0 <= mid < s.t0 + s.duration:
                    const *= s.magnitude
        total += profile.base_rate * const * (b - a) * (
            ramps(a) + 4.0 * ramps(mid) + ramps(b)
        ) / 6.0
    return total


def _reference_columns(switch_id, profiles, scenarios, seed, interval, n_ticks):
    """Counter columns of a fresh switch, computed one tick and port at a time."""
    rng = _rng_for(seed, switch_id)
    state = {port: dict.fromkeys(COUNTER_FIELDS, 0) for port in profiles}
    out = {port: {f: [] for f in COUNTER_FIELDS} for port in profiles}
    clock = 0.0
    for _ in range(n_ticks):
        t0, t1 = clock, clock + interval
        for port in sorted(profiles):
            own = [s for s in scenarios if s.port == port]
            offered = _reference_volume(profiles[port], own, t0, t1, True)
            suppressed = 0.0
            if any(s.kind == "dropout" for s in own):
                total = _reference_volume(profiles[port], own, t0, t1, False)
                suppressed = max(0.0, total - offered)
            ctr = state[port]
            for direction in ("rx", "tx"):
                g = rng.standard_normal()
                scale = max(0.0, 1.0 + profiles[port].jitter * g)
                ctr[f"{direction}_bytes"] += int(round(offered * scale))
                ctr[f"{direction}_packets"] = ctr[f"{direction}_bytes"] // 1000
                ctr[f"{direction}_drops"] += int(round(suppressed))
            for f in COUNTER_FIELDS:
                out[port][f].append(ctr[f])
        clock = t1
    return out


@pytest.mark.parametrize("interval", (10.0, 0.1))
def test_columnar_kernel_matches_the_scalar_definition(interval):
    # Several edges per tick, overlapping bursts, anomalies and ramps.
    u = interval
    profiles = {
        1: TrafficProfile(
            base_rate=70_000.0,
            jitter=0.3,
            bursts=(Burst(3.3 * u, 0.2 * u, 2.0), Burst(3.45 * u, 7.1 * u, 1.7)),
        ),
        2: TrafficProfile(base_rate=900.0, jitter=0.0),
    }
    scenarios = [
        AnomalyScenario("dropout", 1, 5.25 * u, 9.5 * u, 0.3),
        AnomalyScenario("spike", 1, 5.5 * u, 0.25 * u, 4.0),
        AnomalyScenario("drift", 1, 8.1 * u, 6.3 * u, 2.5),
        AnomalyScenario("drift", 2, 0.5 * u, 12.0 * u, 1.5),
        AnomalyScenario("dropout", 2, 11.7 * u, 0.1 * u, 0.0),
    ]
    n_ticks = 24
    store = poll(
        [SwitchSim("k", profiles, scenarios, seed=4)],
        interval=interval,
        duration=interval * n_ticks,
    )
    expected = _reference_columns("k", profiles, scenarios, 4, interval, n_ticks)
    for port in profiles:
        for f in COUNTER_FIELDS:
            assert store.counter_series("k", port, f).tolist() == expected[port][f]


def test_tick_pieces_are_added_left_to_right():
    # One tick in three pieces of 2**53, 1 and 1 bytes.  Adding them left to
    # right rounds each 1 away (ties to even at a spacing of 2); a pairwise
    # sum of the last two would add 2.
    profile = TrafficProfile(
        base_rate=4.0, bursts=(Burst(0.0, 9.5, 2**53 / 38), Burst(9.75, 5.0, 1.0))
    )
    sw = SwitchSim("s1", {1: profile}, seed=0)
    sw.run(1, 10.0)
    assert sw.counters[1].tx_bytes == 2**53
    assert _reference_volume(profile, [], 0.0, 10.0, True) == 2**53


def test_a_tick_of_three_pieces_sums_left_to_right_not_pairwise():
    # Pieces of 1e16, 1 and 1 bytes.  Left to right each 1 rounds away (ties
    # to even at a spacing of 2); np.add.reduceat adds 1e16 to 1 + 1 and
    # reads 10**16 + 2.
    profile = TrafficProfile(
        base_rate=1.0, bursts=(Burst(0.0, 8.0, 1.25e15), Burst(9.0, 1.0, 1.0))
    )
    sw = SwitchSim("s1", {1: profile}, seed=0)
    sw.run(1, 10.0)
    assert sw.counters[1].tx_bytes == sw.counters[1].rx_bytes == 10**16


@pytest.mark.parametrize("counter, scenarios", [
    ("rx_bytes", []), ("rx_drops", [AnomalyScenario("dropout", 1, 0.0, 1e3, 0.0)]),
])
def test_a_counter_past_int64_is_refused_not_wrapped(counter, scenarios):
    # 2**63 - 1024 is the largest float below 2**63: one tick fits, two wrap.
    sw = SwitchSim("s1", {1: steady(rate=2.0**63 - 1024)}, scenarios, seed=0)
    sw.run(1, 1.0)
    assert getattr(sw.counters[1], counter) == 2**63 - 1024
    with pytest.raises(DataError, match=f"{counter} of port 1 on 's1' passes the int64 range"):
        sw.run(1, 1.0)


@pytest.mark.parametrize("volume", (2.0**63, 1e300, np.inf, np.nan))
def test_a_tick_volume_of_2_to_the_63_or_more_is_refused(volume):
    with pytest.raises(DataError, match=r"tx_bytes: a tick volume reaches 2\*\*63"):
        _accrue(0, np.array([1.0, volume]), "tx_bytes")
    if np.isfinite(volume):
        with pytest.raises(DataError, match="rx_bytes of port 1 on 's1': a tick volume"):
            SwitchSim("s1", {1: steady(rate=volume)}, seed=0).run(1, 1.0)


@pytest.mark.parametrize("interval, duration", [
    (float("nan"), 100.0), (float("inf"), 100.0), (-float("inf"), 100.0),
    (10.0, float("nan")), (10.0, float("inf")), (1e-320, 100.0),
])
def test_poll_refuses_non_finite_time(interval, duration):
    with pytest.raises(InputError, match="finite|overflows"):
        poll([make_switch("a")], interval=interval, duration=duration)


@pytest.mark.parametrize("dt", (float("nan"), float("inf")))
def test_run_refuses_a_non_finite_dt(dt):
    with pytest.raises(InputError, match=f"dt must be positive and finite, got {dt}"):
        SwitchSim("s1", {1: steady()}, seed=0).run(3, dt)


def test_poll_refuses_more_than_max_ticks_before_running(monkeypatch):
    monkeypatch.setattr(telemetry, "MAX_TICKS", 5)
    sw = SwitchSim("s1", {1: steady()}, seed=0)
    assert poll([sw], interval=10.0, duration=50.0).timestamps("s1", 1).shape == (5,)
    monkeypatch.setattr(SwitchSim, "run", lambda *args: pytest.fail("run was called"))
    with pytest.raises(InputError, match="is 6 ticks, more than the 5 a poll may simulate"):
        poll([sw], interval=10.0, duration=60.0)


@pytest.mark.parametrize("interval", (10.0, 0.1))
def test_one_tick_run_k_times_equals_poll_over_k_ticks(interval):
    def build():
        # Burst and spike edges fall inside ticks 3 and 5.
        burst = Burst(2.5 * interval, 3.0 * interval, 3.0)
        profile = steady(jitter=0.2, bursts=[burst])
        spike = AnomalyScenario("spike", 1, 4.25 * interval, 0.5 * interval, 6.0)
        return SwitchSim("s1", {1: profile, 2: steady(rate=40.0)}, [spike], seed=8)

    k = 37
    polled_switch = build()
    store = poll([polled_switch], interval=interval, duration=interval * k)
    stepped = build()
    clock = 0.0
    for tick in range(k):
        stepped.run(1, interval)
        clock += interval
        assert stepped.clock == clock
        assert store.timestamps("s1", 1)[tick] == clock
        for port in (1, 2):
            for f in COUNTER_FIELDS:
                assert store.counter_series("s1", port, f)[tick] == getattr(
                    stepped.counters[port], f
                )
    assert stepped.counters == polled_switch.counters
    assert stepped.clock == polled_switch.clock


def test_store_hands_out_read_only_arrays():
    store = poll([SwitchSim("s1", {1: steady()}, seed=0)], interval=10.0, duration=30.0)
    series = store.counter_series("s1", 1, "tx_bytes")
    assert series is store.counter_series("s1", 1, "tx_bytes")
    with pytest.raises(ValueError):
        series[0] = 0
    with pytest.raises(ValueError):
        store.timestamps("s1", 1)[0] = 0.0
    assert series.tolist() == [10_000, 20_000, 30_000]


def test_snapshot_rows_match_the_columns():
    store = poll([make_switch("sw")], interval=10.0, duration=100.0)
    rows = store.snapshots("sw", 1)
    assert [s.tick for s in rows] == store.ticks("sw", 1).tolist()
    assert [s.timestamp_s for s in rows] == store.timestamps("sw", 1).tolist()
    for f in COUNTER_FIELDS:
        column = store.counter_series("sw", 1, f).tolist()
        assert [getattr(s.counters, f) for s in rows] == column


def test_select_server_ports_refuses_unknown_keys():
    sw = SwitchSim("s1", {1: steady(), 2: steady()}, seed=0)
    store = poll([sw], interval=10.0, duration=30.0)
    for key in (("s1", 3), ("s2", 1)):
        with pytest.raises(UnknownPortError):
            select_server_ports(store, [("s1", 1), key])


def test_duplicate_switch_ids_are_refused():
    with pytest.raises(InputError):
        poll([make_switch("a"), make_switch("a")], interval=10.0, duration=30.0)
