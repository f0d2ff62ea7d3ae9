import json

import numpy as np
import pytest

from regwave import formats
from regwave.errors import FamilyMismatchError, LengthError, ParseError
from regwave.formats import (
    SERIES_CHUNK_ROWS,
    export_store,
    read_model_file,
    read_reduced_file,
    read_register_csv,
    write_model_file,
    write_reduced_file,
    write_register_csv,
    write_series_csv,
)
from regwave.gaussian import GaussianModel
from regwave.reducer import ReductionPolicy, decompose, decompose_windows
from regwave.telemetry import (
    COUNTER_FIELDS,
    RegisterStore,
    SwitchSim,
    TrafficProfile,
    poll,
)
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


SAMPLE_POLICY = ReductionPolicy(max_depth=2)


def _sample_registers():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(2)
    return [decompose(rng.normal(size=64), fp, SAMPLE_POLICY) for _ in range(3)]


def test_reduced_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "red.json"
    registers = _sample_registers()
    write_reduced_file(
        path, registers, SAMPLE_POLICY, source="series.csv", total_samples=200
    )
    meta, loaded = read_reduced_file(path)
    assert meta["window_size"] == 64
    assert meta["dropped_samples"] == 8
    assert len(loaded) == len(registers)
    for original, round_tripped in zip(registers, loaded):
        assert round_tripped.path == original.path
        assert np.array_equal(round_tripped.coeffs, original.coeffs)
        assert round_tripped.sibling_energies == original.sibling_energies


def test_reduced_file_envelope_comes_from_the_registers_and_the_policy(tmp_path):
    path = tmp_path / "red.json"
    policy = ReductionPolicy(max_depth=3, min_energy_ratio=0.75)
    x = np.random.default_rng(5).normal(size=(5, 32))
    registers = decompose_windows(x, make_filter_pair("db3"), policy)
    write_reduced_file(path, registers, policy, source="series.csv", total_samples=171)
    meta, loaded = read_reduced_file(path)
    assert (meta["family"], meta["window_size"]) == ("db3", 32)
    assert (meta["depth"], meta["min_energy_ratio"]) == (3, 0.75)
    assert (meta["total_samples"], meta["dropped_samples"]) == (171, 11)
    assert [r.path for r in loaded] == [r.path for r in registers]
    with pytest.raises(LengthError, match="no registers"):
        write_reduced_file(path, [], policy, source="series.csv", total_samples=0)
    mixed = [*registers, decompose(x[0], make_filter_pair("haar"), policy)]
    with pytest.raises(FamilyMismatchError):
        write_reduced_file(path, mixed, policy, source="series.csv", total_samples=192)


def test_window_start_follows_from_its_index(tmp_path):
    path = tmp_path / "red.json"
    register = decompose(np.ones(4), make_filter_pair("haar"), ReductionPolicy())
    write_reduced_file(
        path, [register] * 3, ReductionPolicy(), source="series.csv", total_samples=12
    )
    doc = json.loads(path.read_text())
    assert [(w["index"], w["start"]) for w in doc["windows"]] == [(0, 0), (1, 4), (2, 8)]
    doc["windows"][0].update(index=-1, start=-4)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="window 0: index -1 is not its position 0"):
        read_reduced_file(path)


def test_reduced_file_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "red.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ParseError, match="regwave.reduced"):
        read_reduced_file(path)


def test_reduced_file_rejects_inconsistent_entries(tmp_path):
    path = tmp_path / "red.json"
    registers = _sample_registers()
    write_reduced_file(
        path, registers, SAMPLE_POLICY, source="series.csv", total_samples=192
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
    doc["windows"][0]["path"] = "LL"
    for key, value in (("window_size", None), ("window_size", "64"), ("depth", 2.0),
                       ("depth", True), ("total_samples", None),
                       ("total_samples", "192"), ("min_energy_ratio", None),
                       ("min_energy_ratio", "0"), ("min_energy_ratio", False)):
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ParseError, match="envelope needs integer window_size"):
            read_reduced_file(path)


@pytest.mark.parametrize(
    "key,position,value",
    [
        ("coefficients", 3, float("nan")),
        ("coefficients", 0, float("inf")),
        ("sibling_energies", (1, 0), float("nan")),
        ("sibling_energies", (0, 1), float("-inf")),
    ],
)
def test_reduced_file_rejects_non_finite_numbers(tmp_path, key, position, value):
    path = tmp_path / "red.json"
    write_reduced_file(
        path, _sample_registers(), SAMPLE_POLICY, source="series.csv", total_samples=192
    )
    doc = json.loads(path.read_text())
    entry = doc["windows"][1][key]
    if isinstance(position, tuple):
        entry[position[0]][position[1]] = value
    else:
        entry[position] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"window 1: non-finite {key}"):
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
    store = poll([sw], interval=10.0, duration=30.0)
    written = export_store(store, tmp_path)
    assert len(written) == 8
    t, s, v = read_register_csv(tmp_path / "s1_p1_tx_bytes.csv")
    assert list(v) == [10_000, 20_000, 30_000]
    assert list(t) == [1, 2, 3]


def test_zero_duration_store_exports_nothing(tmp_path):
    sw = SwitchSim("s1", {1: TrafficProfile(base_rate=1000.0)}, seed=0)
    store = poll([sw], interval=10.0, duration=0.0)
    out = tmp_path / "out"
    assert export_store(store, out) == []
    assert list(out.iterdir()) == []


HEADER = "tick,timestamp_s,value\n"

# Bodies under the header: odd but valid rows, rows the per-line reader
# refuses, and separators numpy's reader treats differently from it.
READER_CASES = {
    "plain": "1,10.0,5\n2,20.0,7\n",
    "no final newline": "1,10.0,5\n2,20.0,7",
    "empty body": "",
    "blank lines": "\n1,10.0,5\n\n\n2,20.0,7\n\n",
    "whitespace-only line": "1,10.0,5\n   \n2,20.0,7\n",
    "tab-only line": "1,10.0,5\n\t\n",
    "whitespace-only body": "  \n\t\n",
    "crlf": "1,10.0,5\r\n2,20.0,7\r\n",
    "cr only": "1,10.0,5\r2,20.0,7\r",
    "signs": "+5,-10.5,+5\n",
    "padded fields": " 5 ,\t10.0 , 5\t\n",
    "underscore in int": "1_0,10.0,5\n",
    "underscore in float": "1,1_0.5,5\n",
    "float in int column": "1,10.0,1.0\n",
    "exponent in int column": "1,10.0,1e3\n",
    "trailing comma": "1,10.0,5,\n",
    "two fields": "1,10.0\n",
    "empty field": "1,,5\n",
    "form feed separator": "1,10.0,5\x0c2,20.0,7\n",
    "form feed inside row": "1\x0c,10.0,5\n",
    "vertical tab inside row": "1\x0b,10.0,5\n",
    "file separator inside row": "1\x1c,10.0,5\n",
    "unit separator after value": "1,10.0,5\x1f\n",
    "NEL inside row": "1\x85,10.0,5\n",
    "U+2028 separator": "1,10.0,5\u20282,20.0,7\n",
    "U+2028 inside row": "1\u2028,10.0,5\n",
    "no-break space": "1,10.0,\xa05\n",
    "non-ASCII digit": "1,10.0,\u0665\n",
    "fullwidth digit": "1,10.0,\uff15\n",
    "NUL after value": "1,10.0,5\x00\n",
    "nan timestamp": "1,nan,5\n",
    "inf timestamps": "1,-inf,5\n2,Infinity,6\n",
    "nan value": "1,10.0,nan\n",
    "quoted field": '"1",10.0,5\n',
    "comment marker": "1,10.0,5#x\n",
    "int64 bounds": "-9223372036854775808,10.0,9223372036854775807\n",
    "value beyond int64": "1,10.0,9223372036854775808\n",
    "tick beyond int64": "99999999999999999999,10.0,5\n",
    "leading zeros": "007,10.0,007\n",
    "negative zeros": "-0,-0.0,-0\n",
}


def _outcome(read, path):
    try:
        ticks, stamps, values = read(path)
    except ParseError as exc:
        return ("refused", exc.line, str(exc))
    arrays = (ticks, stamps, values)
    return ("read", [a.dtype.str for a in arrays], [a.tobytes() for a in arrays])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("header", [HEADER, HEADER.replace("\n", "\r\n")])
@pytest.mark.parametrize("body", READER_CASES.values(), ids=READER_CASES.keys())
def test_register_reader_matches_the_per_line_reader(tmp_path, header, body):
    path = tmp_path / "series.csv"
    path.write_bytes((header + body).encode("utf-8"))
    assert _outcome(read_register_csv, path) == _outcome(formats._read_register_rows, path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n", "tick,value\n1,2,3\n", " " + HEADER + "1,10.0,5\n"])
def test_register_reader_matches_the_per_line_reader_on_headers(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    assert _outcome(read_register_csv, path) == _outcome(formats._read_register_rows, path)


def test_plain_register_is_read_without_the_per_line_reader(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("plain rows reached the per-line reader")

    path = tmp_path / "series.csv"
    write_register_csv(path, [1, 2, 3], [10.0, 20.0, 30.0], [0, 2**62, 2**63 - 1])
    monkeypatch.setattr(formats, "_read_register_rows", refuse)
    ticks, stamps, values = read_register_csv(path)
    assert ticks.tolist() == [1, 2, 3] and stamps.tolist() == [10.0, 20.0, 30.0]
    assert values.tolist() == [0, 2**62, 2**63 - 1]
    assert all(a.flags.c_contiguous for a in (ticks, stamps, values))


def test_register_value_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(HEADER + "1,10.0,5\n2,20.0,99999999999999999999\n")
    with pytest.raises(ParseError, match="int64") as err:
        read_register_csv(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "read", [read_register_csv, read_reduced_file, read_model_file]
)
def test_non_utf8_file_is_a_parse_error(tmp_path, read):
    path = tmp_path / "bad"
    path.write_bytes(b'{"format": "regwave.model/1",\n"x": "\xff"}\n')
    with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff") as err:
        read(path)
    assert err.value.line == 2


def _per_row_series_csv(path, values, label="value"):
    # The row-at-a-time writer the chunked one replaced.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"index,{label}\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{repr(float(v))}\n")


@pytest.mark.parametrize("rows", [0, 1, SERIES_CHUNK_ROWS - 1, SERIES_CHUNK_ROWS, SERIES_CHUNK_ROWS + 1])
def test_series_csv_matches_the_per_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-320, 0.1][:rows]
    values[: len(special)] = special
    write_series_csv(tmp_path / "new.csv", values, label="synthesized")
    _per_row_series_csv(tmp_path / "old.csv", values, label="synthesized")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, SERIES_CHUNK_ROWS - 1, SERIES_CHUNK_ROWS, SERIES_CHUNK_ROWS + 1])
def test_boolean_series_csv_matches_the_per_row_writer(tmp_path, rows):
    flags = np.random.default_rng(rows).random(rows) < 0.3
    write_series_csv(tmp_path / "new.csv", flags, label="flag")
    _per_row_series_csv(tmp_path / "old.csv", flags.astype(float), label="flag")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _decoded(text):
    """The rows of an _int_text matrix as str, checking the NUL padding."""
    rows = []
    for row in text:
        raw = row.tobytes()
        digits = raw.lstrip(b"\0")
        assert b"\0" not in digits
        rows.append(digits.decode())
    return rows


def test_int_text_equals_str_at_the_edges():
    values = [0, 1, -1, INT64_MIN, INT64_MAX]
    for k in range(1, 19):
        values += [10**k, -(10**k), 10**k - 1, -(10**k - 1)]
    for value in values:
        text = formats._int_text(np.array([value], dtype=np.int64))
        assert text.dtype == np.uint8
        assert text.shape == (1, len(str(value)))
        assert _decoded(text) == [str(value)]
    text = formats._int_text(np.array(values, dtype=np.int64))
    assert text.shape == (len(values), max(len(str(v)) for v in values))
    assert _decoded(text) == [str(v) for v in values]


def test_int_text_equals_str_on_random_int64():
    rng = np.random.default_rng(0)
    values = rng.integers(INT64_MIN, INT64_MAX, size=200_000, dtype=np.int64, endpoint=True)
    values[:1000] //= 10 ** rng.integers(0, 19, size=1000)
    text = formats._int_text(values)
    assert text.shape[1] == max(len(str(v)) for v in values.tolist())
    assert _decoded(text) == [str(v) for v in values.tolist()]


def test_int_text_of_an_empty_array():
    text = formats._int_text(np.zeros(0, dtype=np.int64))
    assert text.dtype == np.uint8 and text.shape[0] == 0


def _per_row_register_csv(path, ticks, timestamps, values):
    # The row-at-a-time writer the text kernel replaced.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,timestamp_s,value\n")
        for tick, ts, value in zip(ticks, timestamps, values):
            fh.write(f"{int(tick)},{float(ts)!r},{int(value)}\n")


def _per_row_export(store, out_dir):
    out_dir.mkdir()
    for switch_id, port in store.keys():
        for field_name in COUNTER_FIELDS:
            _per_row_register_csv(
                out_dir / f"{switch_id}_p{port}_{field_name}.csv",
                store.ticks(switch_id, port),
                store.timestamps(switch_id, port),
                store.counter_series(switch_id, port, field_name),
            )


def _same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("interval,duration", [(10.0, 600.0), (0.1, 30.0), (0.3, 30.0), (10.0, 0.0)])
def test_export_store_matches_the_per_row_writer(tmp_path, interval, duration):
    switches = [
        SwitchSim("s1", {1: TrafficProfile(base_rate=1e5, jitter=0.2), 2: TrafficProfile(base_rate=40.0)}, seed=3),
        SwitchSim("s2", {7: TrafficProfile(base_rate=3e9, jitter=0.5)}, seed=4),
    ]
    store = poll(switches, interval=interval, duration=duration)
    written = export_store(store, tmp_path / "new")
    _per_row_export(store, tmp_path / "old")
    assert len(written) == 8 * len(store)
    _same_tree(tmp_path / "new", tmp_path / "old")


def _store_of(timestamps, rng):
    store = RegisterStore()
    n = len(timestamps)
    columns = {
        name: rng.integers(-(10**k), 10**k, size=n, dtype=np.int64)
        for k, name in enumerate(COUNTER_FIELDS, start=1)
    }
    columns[COUNTER_FIELDS[0]][:2] = [INT64_MIN, INT64_MAX][:n]
    store.add("sw", 1, np.array(timestamps, dtype=np.float64), columns)
    return store


TIMESTAMP_CASES = {
    "empty": [],
    "integral": [0.0, 10.0, -30.0, 2.0**53 - 2, -(2.0**53) + 2],
    "negative zero": [-0.0, 10.0],
    "beyond 2**53": [10.0, 2.0**53 + 2],
    "exponent form": [10.0, 1e16, -1e16],
    "nan": [10.0, float("nan")],
    "inf": [float("inf"), float("-inf"), 10.0],
    "fractions": [0.1, 0.30000000000000004, 5e-324, 1e-5, 123456.789],
}


@pytest.mark.parametrize("case", sorted(TIMESTAMP_CASES))
def test_register_csv_matches_the_per_row_writer(tmp_path, case):
    rng = np.random.default_rng(len(case))
    store = _store_of(TIMESTAMP_CASES[case], rng)
    export_store(store, tmp_path / "new")
    _per_row_export(store, tmp_path / "old")
    _same_tree(tmp_path / "new", tmp_path / "old")
    ticks, stamps = store.ticks("sw", 1), store.timestamps("sw", 1)
    values = store.counter_series("sw", 1, COUNTER_FIELDS[0])
    write_register_csv(tmp_path / "one.csv", ticks, stamps, values)
    _per_row_register_csv(tmp_path / "ref.csv", ticks, stamps, values)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
