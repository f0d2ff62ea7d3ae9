import json

import numpy as np
import pytest

from regwave.errors import ParseError
from regwave.formats import (
    ReducedWindow,
    export_store,
    read_model_file,
    read_reduced_file,
    read_register_csv,
    write_model_file,
    write_reduced_file,
    write_register_csv,
)
from regwave.gaussian import GaussianModel
from regwave.reducer import ReductionPolicy, decompose
from regwave.telemetry import Collector, SwitchSim, TrafficProfile, poll
from regwave.wavelets import make_filter_pair


def test_register_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    ticks = [1, 2, 3]
    stamps = [10.0, 20.0, 30.0]
    values = [100, 220, 370]
    write_register_csv(path, ticks, stamps, values)
    t, s, v = read_register_csv(path)
    assert list(t) == ticks
    assert list(s) == stamps
    assert list(v) == values


def test_register_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tick,value\n1,2\n")
    with pytest.raises(ParseError) as err:
        read_register_csv(path)
    assert err.value.line == 1


def test_register_csv_row_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tick,timestamp_s,value\n1,10.0,5\n2,twenty,6\n")
    with pytest.raises(ParseError) as err:
        read_register_csv(path)
    assert err.value.line == 3


def _sample_windows():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(2)
    out = []
    for i in range(3):
        reg = decompose(rng.normal(size=64), fp, ReductionPolicy(max_depth=2))
        out.append(ReducedWindow(index=i, start=i * 64, register=reg))
    return out


def test_reduced_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "red.json"
    windows = _sample_windows()
    write_reduced_file(
        path,
        windows,
        family="db2",
        window_size=64,
        depth=2,
        min_energy_ratio=0.0,
        source="series.csv",
        total_samples=200,
        dropped_samples=8,
    )
    meta, loaded = read_reduced_file(path)
    assert meta["window_size"] == 64
    assert meta["dropped_samples"] == 8
    assert len(loaded) == len(windows)
    for original, round_tripped in zip(windows, loaded):
        assert round_tripped.start == original.start
        assert round_tripped.register.path == original.register.path
        assert np.array_equal(round_tripped.register.coeffs, original.register.coeffs)
        assert round_tripped.register.sibling_energies == original.register.sibling_energies


def test_reduced_file_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "red.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ParseError, match="regwave.reduced"):
        read_reduced_file(path)


def test_reduced_file_rejects_inconsistent_entries(tmp_path):
    path = tmp_path / "red.json"
    windows = _sample_windows()
    write_reduced_file(
        path,
        windows,
        family="db2",
        window_size=64,
        depth=2,
        min_energy_ratio=0.0,
        source="series.csv",
        total_samples=192,
        dropped_samples=0,
    )
    doc = json.loads(path.read_text())
    doc["windows"][0]["coefficients"] = doc["windows"][0]["coefficients"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="coefficients"):
        read_reduced_file(path)
    doc["windows"][0]["coefficients"].append(0.0)
    doc["windows"][0]["path"] = "LX"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="path"):
        read_reduced_file(path)


def test_model_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    model = GaussianModel(
        mu=np.array([3.5, -1.25]),
        sigma2=np.array([2.0, 0.5]),
        epsilon=1.25e-9,
        quantile=0.01,
    )
    write_model_file(path, model, training_window="series.csv[0:512)")
    loaded, doc = read_model_file(path)
    assert np.array_equal(loaded.mu, model.mu)
    assert np.array_equal(loaded.sigma2, model.sigma2)
    assert loaded.epsilon == model.epsilon
    assert loaded.quantile == model.quantile
    assert doc["training_window"] == "series.csv[0:512)"


def test_model_file_validates_shapes(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "format": "regwave.model/1",
                "mu": [1.0],
                "sigma2": [1.0, 2.0],
                "epsilon": 0.1,
                "quantile": 0.01,
            }
        )
    )
    with pytest.raises(ParseError, match="equal-length"):
        read_model_file(path)


def test_export_store_writes_one_file_per_counter(tmp_path):
    sw = SwitchSim("s1", {1: TrafficProfile(base_rate=1000.0)}, seed=0)
    store = poll(Collector(), [sw], interval=10.0, duration=30.0)
    written = export_store(store, tmp_path)
    assert len(written) == 8
    t, s, v = read_register_csv(tmp_path / "s1_p1_tx_bytes.csv")
    assert list(v) == [10_000, 20_000, 30_000]
    assert list(t) == [1, 2, 3]


def test_zero_duration_store_exports_nothing(tmp_path):
    sw = SwitchSim("s1", {1: TrafficProfile(base_rate=1000.0)}, seed=0)
    store = poll(Collector(), [sw], interval=10.0, duration=0.0)
    out = tmp_path / "out"
    assert export_store(store, out) == []
    assert list(out.iterdir()) == []
