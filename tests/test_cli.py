import argparse
import importlib.resources
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regwave
from regwave.cli import build_parser, main
from regwave.formats import read_register_csv
from regwave.gaussian import calibrate, fit
from regwave.telemetry import SwitchSim

README = Path(__file__).resolve().parents[1] / "README.md"


def bundled(name):
    return importlib.resources.files("regwave") / "scenarios" / name


@pytest.fixture()
def video_sim(tmp_path):
    out = tmp_path / "sim"
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        rc = main(["simulate", str(scn), "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_exports_every_counter(video_sim):
    files = sorted(p.name for p in video_sim.iterdir())
    assert len(files) == 16
    assert "s1_p1_tx_bytes.csv" in files
    assert "s1_p2_rx_errors.csv" in files
    ticks, stamps, values = read_register_csv(video_sim / "s1_p1_tx_bytes.csv")
    assert ticks.shape[0] == 252
    assert stamps[0] == 10.0 and stamps[-1] == 2520.0
    assert np.all(np.diff(values) >= 0)


def test_simulate_is_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
            assert main(["simulate", str(scn), "--seed", "5", "--out", str(out)]) == 0
        outs.append(out)
    for path in sorted(outs[0].iterdir()):
        assert path.read_bytes() == (outs[1] / path.name).read_bytes()


def test_server_ports_only_narrows_the_export(tmp_path):
    out = tmp_path / "sim"
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        rc = main(
            ["simulate", str(scn), "--out", str(out), "--server-ports-only"]
        )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert len(names) == 8
    assert all("_p1_" in n for n in names)


def test_zero_duration_scenario_warns(tmp_path, capsys):
    scn = tmp_path / "empty.scn"
    scn.write_text(
        "[scenario]\nname = idle\nduration = 0\ninterval = 10\n"
        "[switch]\nid = s1\nports = 1\n"
        "[profile]\nswitch = s1\nport = 1\nbase_rate = 100\n"
    )
    rc = main(["simulate", str(scn), "--out", str(tmp_path / "out")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "duration is 0" in captured.err


def test_reduce_writes_expected_record(video_sim, tmp_path):
    red = tmp_path / "red.json"
    rc = main(
        [
            "reduce",
            str(video_sim / "s1_p1_tx_bytes.csv"),
            "--window",
            "128",
            "--out",
            str(red),
        ]
    )
    assert rc == 0
    doc = json.loads(red.read_text())
    assert doc["format"] == "regwave.reduced/1"
    assert doc["family"] == "db2"
    assert doc["window_size"] == 128
    assert doc["total_samples"] == 251
    assert doc["dropped_samples"] == 123
    [window] = doc["windows"]
    assert len(window["coefficients"]) == 64
    assert window["path"] in ("L", "H")


def test_reduce_warns_about_the_dropped_tail(video_sim, tmp_path, capsys):
    rc = main(
        [
            "reduce",
            str(video_sim / "s1_p1_tx_bytes.csv"),
            "--window",
            "128",
            "--out",
            str(tmp_path / "red.json"),
        ]
    )
    assert rc == 0
    assert "123 trailing samples" in capsys.readouterr().err


def test_synthesize_rebuilds_all_windows(video_sim, tmp_path):
    red = tmp_path / "red.json"
    out = tmp_path / "synth.csv"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--out", str(red)]
    ) == 0
    assert main(["synthesize", str(red), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "index,synthesized"
    assert len(rows) == 1 + 192


@pytest.mark.parametrize(
    "flags",
    [["--depth", "5"], ["--window", "128"], ["--family", "db4"]],
    ids=["depth", "window", "family"],
)
def test_synthesize_refuses_flags_that_contradict_the_reduced_file(
    video_sim, tmp_path, capsys, flags
):
    red = tmp_path / "red.json"
    out = tmp_path / "synth.csv"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--out", str(red)]
    ) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", str(red), *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_coefficient_exits_two(video_sim, tmp_path, capsys):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--out", str(red)]
    ) == 0
    doc = json.loads(red.read_text())
    doc["windows"][2]["coefficients"][5] = float("nan")
    red.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["synthesize", str(red), "--out", str(tmp_path / "s.csv")]) == 2
    assert "window 2: non-finite coefficients" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def _longer_ledger(doc):
    doc["windows"][0]["sibling_energies"].append([1.0, 1.0])


def _length_192(doc):
    entry = doc["windows"][0]
    entry["original_length"] = 192
    entry["coefficients"] = entry["coefficients"] * 3


def _start_shifted(doc):
    doc["windows"][1]["start"] += 7


def _envelope_window_32(doc):
    doc["window_size"] = 32


def _one_window_of_32(doc):
    entry = doc["windows"][0]
    entry["original_length"] = 32
    entry["coefficients"] = entry["coefficients"][:16]


def _envelope_depth_5(doc):
    doc["depth"] = 5


# Entries listed out of order; each keeps its own consistent index and start.
def _windows_0_2(doc):
    doc["windows"] = [doc["windows"][0], doc["windows"][2]]


def _windows_1_0(doc):
    doc["windows"] = [doc["windows"][1], doc["windows"][0]]


def _windows_0_0(doc):
    doc["windows"] = [doc["windows"][0], doc["windows"][0]]


# Values of the wrong JSON type, which the reader refuses rather than converts.
def _index_float(doc):
    doc["windows"][1]["index"] = 1.9


def _index_bool(doc):
    doc["windows"][1]["index"] = True


def _start_string(doc):
    doc["windows"][1]["start"] = "64"


def _length_float(doc):
    doc["windows"][1]["original_length"] = 64.5


def _coefficient_string(doc):
    doc["windows"][1]["coefficients"][0] = "1.5"


def _energy_string(doc):
    doc["windows"][1]["sibling_energies"][0][1] = "2.0"


def _start_missing(doc):
    del doc["windows"][1]["start"]


def _entry_array(doc):
    doc["windows"][1] = []


def _energy_triple(doc):
    doc["windows"][1]["sibling_energies"][0].append(0.0)


def _coefficient_beyond_float(doc):
    doc["windows"][1]["coefficients"][0] = 10**400


def _envelope_depth_bool(doc):
    doc["depth"] = True


def _windows_number(doc):
    doc["windows"] = 5


def _windows_null(doc):
    doc["windows"] = None


def _windows_missing(doc):
    del doc["windows"]


WINDOW_TYPES = "window 1: needs integer index, start and original_length, a string path"


@pytest.mark.parametrize("verb", ["synthesize", "compare"])
@pytest.mark.parametrize("edit, message", [
    (_longer_ledger, "window 0: 2 sibling_energies pairs for path 'L'"),
    (_length_192, "window 0: original_length 192 is not a power of two"),
    (_start_shifted, "window 1: start 71 is not index 1 * window_size 64"),
    (_envelope_window_32, "window 0: original_length 64 is not the file's window_size 32"),
    (_one_window_of_32, "window 0: original_length 32 is not the file's window_size 64"),
    (_envelope_depth_5, "window 0: depth 1 is not the file's depth 5"),
    (_windows_0_2, "window 1: index 2 is not its position 1 in windows"),
    (_windows_1_0, "window 0: index 1 is not its position 0 in windows"),
    (_windows_0_0, "window 1: index 0 is not its position 1 in windows"),
    (_index_float, WINDOW_TYPES),
    (_index_bool, WINDOW_TYPES),
    (_start_string, WINDOW_TYPES),
    (_length_float, WINDOW_TYPES),
    (_coefficient_string, WINDOW_TYPES),
    (_energy_string, WINDOW_TYPES),
    (_start_missing, "window 1: malformed entry: 'start'"),
    (_entry_array, "window 1: malformed entry: list indices"),
    (_energy_triple, "window 1: too many values to unpack"),
    (_coefficient_beyond_float, "window 1: int too large to convert to float"),
    (_envelope_depth_bool, "envelope needs integer window_size and depth"),
    (_windows_number, "windows must be an array"),
    (_windows_null, "windows must be an array"),
    (_windows_missing, "windows must be an array"),
])
def test_inconsistent_reduced_window_exits_two(video_sim, tmp_path, capsys, verb, edit,
                                               message):
    register = str(video_sim / "s1_p1_tx_bytes.csv")
    red = tmp_path / "red.json"
    assert main(["reduce", register, "--window", "64", "--out", str(red)]) == 0
    doc = json.loads(red.read_text())
    edit(doc)
    red.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [verb, str(red)] if verb == "synthesize" else [verb, register, str(red)]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_only_an_energy_floor_lets_a_window_stop_above_the_file_depth(video_sim, tmp_path,
                                                                      capsys):
    register = str(video_sim / "s1_p1_tx_bytes.csv")
    red = tmp_path / "red.json"
    assert main(["reduce", register, "--window", "64", "--depth", "4",
                 "--min-energy-ratio", "0.9", "--out", str(red)]) == 0
    doc = json.loads(red.read_text())
    assert [w["path"] for w in doc["windows"]] == ["LLLL", "LL", "LLLL"]
    assert main(["synthesize", str(red), "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["compare", register, str(red), "--out", str(tmp_path / "c")]) == 0
    doc["min_energy_ratio"] = 0.0
    red.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["synthesize", str(red), "--out", str(tmp_path / "s0.csv")]) == 2
    assert "window 1: depth 2 is not the file's depth 4" in capsys.readouterr().err


def test_reduced_file_without_windows_synthesizes_and_compares_nothing(video_sim, tmp_path):
    register = str(video_sim / "s1_p1_tx_bytes.csv")
    red = tmp_path / "red.json"
    assert main(["reduce", register, "--window", "64", "--out", str(red)]) == 0
    doc = json.loads(red.read_text())
    doc["windows"] = []
    red.write_text(json.dumps(doc))
    assert main(["synthesize", str(red), "--out", str(tmp_path / "s.csv")]) == 0
    assert (tmp_path / "s.csv").read_text() == "index,synthesized\n"
    assert main(["compare", register, str(red), "--out", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c" / "report.json").read_text())["windows"] == []


def test_detect_writes_model_and_flags(video_sim, tmp_path):
    out = tmp_path / "det"
    rc = main(
        [
            "detect",
            str(video_sim / "s1_p2_tx_bytes.csv"),
            "--train",
            "128",
            "--quantile",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    model = json.loads((out / "model.json").read_text())
    assert model["format"] == "regwave.model/1"
    assert model["quantile"] == 0.01
    assert "[0:128)" in model["training_window"]
    probs = (out / "probabilities.csv").read_text().splitlines()
    assert len(probs) == 1 + 251

    # Reusing the saved model reproduces the same flags.
    again = tmp_path / "det2"
    rc = main(
        [
            "detect",
            str(video_sim / "s1_p2_tx_bytes.csv"),
            "--model",
            str(out / "model.json"),
            "--out",
            str(again),
        ]
    )
    assert rc == 0
    assert (again / "flags.csv").read_text() == (out / "flags.csv").read_text()


def test_compare_flags_survive_reduction_on_the_spike_demo(tmp_path):
    sim = tmp_path / "sim"
    with importlib.resources.as_file(bundled("spike-demo.scn")) as scn:
        assert main(["simulate", str(scn), "--seed", "2", "--out", str(sim)]) == 0
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(sim / "s1_p1_tx_bytes.csv"), "--out", str(red)]
    ) == 0
    cmp_dir = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            str(sim / "s1_p1_tx_bytes.csv"),
            str(red),
            "--train",
            "512",
            "--quantile",
            "0.001",
            "--out",
            str(cmp_dir),
        ]
    )
    assert rc == 0
    doc = json.loads((cmp_dir / "report.json").read_text())
    for window in doc["windows"]:
        assert window["flags_original"] == window["flags_synthesized"]
    spike_window = doc["windows"][2]
    assert len(spike_window["flags_original"]) == 60
    assert spike_window["jaccard"] == 1.0
    assert spike_window["compression_ratio"] == 0.5
    for tag in ("original", "synthesized", "prob_original", "prob_synthesized"):
        assert (cmp_dir / f"window002_{tag}.csv").exists()


def test_compare_report_flags_recompute_from_exports(tmp_path):
    sim = tmp_path / "sim"
    with importlib.resources.as_file(bundled("spike-demo.scn")) as scn:
        assert main(["simulate", str(scn), "--seed", "2", "--out", str(sim)]) == 0
    red = tmp_path / "red.json"
    assert main(["reduce", str(sim / "s1_p1_tx_bytes.csv"), "--out", str(red)]) == 0
    cmp_dir = tmp_path / "cmp"
    assert main(
        ["compare", str(sim / "s1_p1_tx_bytes.csv"), str(red), "--train", "512",
         "--quantile", "0.001", "--out", str(cmp_dir)]
    ) == 0
    doc = json.loads((cmp_dir / "report.json").read_text())
    for window in doc["windows"]:
        tag = f"window{window['index']:03d}"
        for which in ("original", "synthesized"):
            rows = (cmp_dir / f"{tag}_prob_{which}.csv").read_text().splitlines()[1:]
            probs = np.array([float(r.split(",")[1]) for r in rows])
            flags = sorted(int(i) for i in np.flatnonzero(probs < window["epsilon"]))
            assert flags == window[f"flags_{which}"]


@pytest.mark.parametrize("interval, message", [
    ("nan", "interval must be positive and finite, got nan"),
    ("inf", "interval must be positive and finite, got inf"),
    ("1e-320", "duration / interval overflows: 2520.0 / 1e-320"),
])
def test_simulate_refuses_a_non_finite_tick_count(tmp_path, capsys, interval, message):
    out = tmp_path / "out"
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        assert main(["simulate", str(scn), "--interval", interval, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_counter_past_int64(tmp_path, capsys):
    # 1e18 bytes a tick: tick 10 passes 2**63 - 1.
    scn = tmp_path / "big.scn"
    scn.write_text(
        "[scenario]\nname = big\nduration = 100\ninterval = 10\n"
        "[switch]\nid = s1\nports = 1\n"
        "[profile]\nswitch = s1\nport = 1\nbase_rate = 1e17\njitter = 0\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 2
    assert "rx_bytes of port 1 on 's1' passes the int64 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_overflow_prints_only_the_error_line(tmp_path, capsys):
    # rate times burst overflows to inf in the volume kernel.
    scn = tmp_path / "huge.scn"
    scn.write_text(
        "[scenario]\nname = huge\nduration = 100\ninterval = 10\n"
        "[switch]\nid = s1\nports = 1\n"
        "[profile]\nswitch = s1\nport = 1\nbase_rate = 1e300\nburst = 0, 50, 1e300\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: rx_bytes of port 1 on 's1': a tick volume reaches 2**63\n"
    )
    assert not out.exists()


def test_bad_scenario_exits_two(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("[scenario]\nname = x\n")
    assert main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert "duration" in capsys.readouterr().err


def test_unknown_family_exits_two(video_sim, tmp_path, capsys):
    rc = main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--family", "db99",
         "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    assert "db99" in capsys.readouterr().err


def test_depth_out_of_range_exits_two(video_sim, tmp_path):
    rc = main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--depth", "9",
         "--window", "128", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2


def test_decreasing_counters_exit_three(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("tick,timestamp_s,value\n1,10.0,100\n2,20.0,40\n")
    assert main(["reduce", str(csv), "--out", str(tmp_path / "r.json")]) == 3


def test_misaligned_compare_exits_three(video_sim, tmp_path):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "128",
         "--out", str(red)]
    ) == 0
    short = tmp_path / "short.csv"
    lines = (video_sim / "s1_p1_tx_bytes.csv").read_text().splitlines()[:100]
    short.write_text("\n".join(lines) + "\n")
    rc = main(["compare", str(short), str(red), "--out", str(tmp_path / "c")])
    assert rc == 3


@pytest.mark.parametrize("register", ("s1_p2_tx_bytes.csv", "s1_p1_rx_bytes.csv"))
def test_compare_refuses_a_register_the_file_was_not_reduced_from(video_sim, tmp_path,
                                                                  capsys, register):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--out", str(red)]
    ) == 0
    capsys.readouterr()
    out = tmp_path / "c"
    assert main(["compare", str(video_sim / register), str(red), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: window 0 holds energy ")
    assert err.endswith(": it was not reduced from this series\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_compare_refuses_a_register_longer_than_the_one_reduced(video_sim, tmp_path,
                                                                capsys):
    # The appended rows leave every reduced window as it was.
    register = video_sim / "s1_p1_tx_bytes.csv"
    red = tmp_path / "red.json"
    assert main(["reduce", str(register), "--window", "64", "--out", str(red)]) == 0
    longer = tmp_path / "longer.csv"
    value = int(register.read_text().splitlines()[-1].split(",")[2])
    longer.write_text(register.read_text() + "".join(
        f"{tick},{tick * 10}.0,{value + tick}\n" for tick in range(253, 258)
    ))
    capsys.readouterr()
    out = tmp_path / "c"
    assert main(["compare", str(longer), str(red), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {longer} holds 256 deltas, but {red} was reduced from 251\n"
    )
    assert not out.exists()


def test_simulate_refuses_more_ticks_than_a_poll_may_simulate(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(SwitchSim, "run", lambda *args: pytest.fail("run was called"))
    out = tmp_path / "out"
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        assert main(["simulate", str(scn), "--interval", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: duration / interval is 2.52e+303 ticks, more than the 1000000 a poll "
        "may simulate\n"
    )
    assert not out.exists()


def test_conflicting_window_flag_exits_two(video_sim, tmp_path, capsys):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "128",
         "--out", str(red)]
    ) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(
            ["compare", str(video_sim / "s1_p1_tx_bytes.csv"), str(red),
             "--window", "256", "--out", str(tmp_path / "c")]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 256" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_counter_beyond_int64_exits_two(tmp_path, capsys):
    csv = tmp_path / "big.csv"
    csv.write_text("tick,timestamp_s,value\n1,10.0,5\n2,20.0,99999999999999999999\n")
    assert main(["reduce", str(csv), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"{csv}:3:" in err and "int64" in err


def _register(path):
    path.write_text("tick,timestamp_s,value\n1,10.0,0\n2,20.0,5\n3,30.0,9\n")
    return str(path)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("reg.csv", lambda bad, tmp: ["reduce", bad, "--out", str(tmp / "r.json")]),
        ("red.json", lambda bad, tmp: ["synthesize", bad, "--out", str(tmp / "s.csv")]),
        ("model.json", lambda bad, tmp: [
            "detect", _register(tmp / "ok.csv"), "--model", bad, "--out", str(tmp / "d")]),
        ("net.scn", lambda bad, tmp: ["simulate", bad, "--out", str(tmp / "sim")]),
    ],
)
def test_non_utf8_input_exits_two(tmp_path, capsys, name, argv):
    bad = tmp_path / name
    bad.write_bytes(b"tick,timestamp_s,value\n1,10.0,5\n2,20.0,\xff\n")
    assert main(argv(str(bad), tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3: not UTF-8 text: byte 0xff" in err


VERB_FLAGS = {
    "simulate": {"--seed", "--out", "--interval", "--server-ports-only"},
    "reduce": {"--out", "--family", "--depth", "--window", "--min-energy-ratio"},
    "synthesize": {"--out"},
    "detect": {"--out", "--train", "--model", "--quantile"},
    "compare": {"--out", "--train", "--model", "--quantile"},
}

# The flags besides --out that every verb used to accept, each with a value.
OLD_SHARED_FLAGS = {
    "--seed": "3", "--family": "db2", "--depth": "1", "--window": "64",
    "--interval": "10", "--quantile": "0.01",
}

DROPPED = [
    (verb, flag)
    for verb, kept in VERB_FLAGS.items()
    for flag in OLD_SHARED_FLAGS
    if flag not in kept
]


def _options(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def _verb_parsers():
    parser = build_parser()
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, subs.choices


def test_each_verb_takes_exactly_its_flags():
    parser, verbs = _verb_parsers()
    assert _options(parser) == {"--version"}
    assert {verb: _options(p) for verb, p in verbs.items()} == VERB_FLAGS
    assert sum(map(len, VERB_FLAGS.values())) == 18
    assert len(DROPPED) == 23


@pytest.fixture(scope="module")
def round_trip_inputs(tmp_path_factory):
    """A register, its reduced file and a saved model, each made by the CLI."""
    root = tmp_path_factory.mktemp("inputs")
    register = str(root / "sim" / "s1_p1_tx_bytes.csv")
    red = str(root / "red.json")
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        assert main(["simulate", str(scn), "--out", str(root / "sim")]) == 0
        assert main(["reduce", register, "--window", "64", "--out", red]) == 0
        assert main(["detect", register, "--quantile", "0.05", "--out", str(root / "det")]) == 0
        yield {
            "simulate": [str(scn)],
            "reduce": [register, "--window", "64"],
            "synthesize": [red],
            "detect": [register],
            "compare": [register, red],
            "model": str(root / "det" / "model.json"),
        }


@pytest.mark.parametrize("verb, flag", DROPPED, ids=[f"{v}{f}" for v, f in DROPPED])
def test_dropped_flag_exits_two_and_writes_nothing(round_trip_inputs, tmp_path, capsys,
                                                   verb, flag):
    out = tmp_path / "out"
    argv = [verb, *round_trip_inputs[verb], "--out", str(out)]
    assert main(argv) == 0  # the same call without the dropped flag succeeds
    assert out.exists()
    out = tmp_path / "refused"
    argv = [verb, *round_trip_inputs[verb], flag, OLD_SHARED_FLAGS[flag], "--out", str(out)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["detect", "compare"])
@pytest.mark.parametrize("flag", [["--train", "128"], ["--quantile", "0.01"]],
                         ids=["train", "quantile"])
def test_model_excludes_train_and_quantile(round_trip_inputs, tmp_path, capsys, verb,
                                           flag):
    out = tmp_path / "out"
    argv = [verb, *round_trip_inputs[verb], "--model", round_trip_inputs["model"]]
    capsys.readouterr()
    assert main([*argv, *flag, "--out", str(out)]) == 2
    assert f"{flag[0]} cannot be combined with --model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["detect", "compare"])
@pytest.mark.parametrize("train", ["0", "1", "-3", "252"])
def test_training_prefix_outside_two_to_length_exits_two(round_trip_inputs, tmp_path,
                                                         capsys, verb, train):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([verb, *round_trip_inputs[verb], "--train", train, "--out", str(out)]) == 2
    assert f"--train must lie in [2, 251], got {train}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["detect", "compare"])
@pytest.mark.parametrize("train", ["2", "251"])
def test_training_prefix_bounds_are_accepted(round_trip_inputs, tmp_path, verb, train):
    assert main([verb, *round_trip_inputs[verb], "--train", train,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("verb", ["detect", "compare"])
def test_model_without_epsilon_exits_two(round_trip_inputs, tmp_path, capsys, verb):
    model = json.loads(Path(round_trip_inputs["model"]).read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model, "epsilon": None}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([verb, *round_trip_inputs[verb], "--model", str(path), "--out", str(out)]) == 2
    assert f"model {path} carries no epsilon" in capsys.readouterr().err
    assert not out.exists()


MODEL_TYPES = "model needs arrays of numbers mu and sigma2"
MODEL_FINITE = "mu, sigma2, epsilon and quantile must be finite"


@pytest.mark.parametrize("verb", ["detect", "compare"])
@pytest.mark.parametrize("key, value, message", [
    ("epsilon", "abc", MODEL_TYPES), ("epsilon", [1], MODEL_TYPES),
    ("epsilon", "0.5", MODEL_TYPES), ("epsilon", True, MODEL_TYPES),
    ("quantile", {}, MODEL_TYPES), ("mu", ["1.0"], MODEL_TYPES),
    ("mu", [10**400], "malformed model: int too large to convert to float"),
    ("mu", [float("nan")], MODEL_FINITE), ("sigma2", [float("nan")], MODEL_FINITE),
    ("sigma2", [float("inf")], MODEL_FINITE), ("epsilon", float("nan"), MODEL_FINITE),
    ("epsilon", float("inf"), MODEL_FINITE), ("quantile", float("nan"), MODEL_FINITE),
    ("quantile", float("-inf"), MODEL_FINITE),
], ids=["epsilon_abc", "epsilon_array", "epsilon_string", "epsilon_bool", "quantile_object",
        "mu_string", "mu_beyond_float", "mu_nan", "sigma2_nan", "sigma2_inf", "epsilon_nan",
        "epsilon_inf", "quantile_nan", "quantile_minus_inf"])
def test_malformed_model_value_exits_two(round_trip_inputs, tmp_path, capsys,
                                        verb, key, value, message):
    model = json.loads(Path(round_trip_inputs["model"]).read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model, key: value}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([verb, *round_trip_inputs[verb], "--model", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["detect", "compare"])
@pytest.mark.parametrize("key, text", [
    ("mu", "[1e400]"), ("sigma2", "[1e400]"), ("epsilon", "1e400"), ("quantile", "-1e400"),
])
def test_model_number_beyond_float_exits_two(round_trip_inputs, tmp_path, capsys,
                                             verb, key, text):
    # Python's json reads the literal 1e400 as inf.
    model = json.loads(Path(round_trip_inputs["model"]).read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model, key: "LITERAL"}).replace('"LITERAL"', text))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([verb, *round_trip_inputs[verb], "--model", str(path), "--out", str(out)]) == 2
    assert MODEL_FINITE in capsys.readouterr().err
    assert not out.exists()


# --out per fault, for a verb that writes one file and for one that writes a
# directory.  os.makedirs creates a directory verb's missing parents, so there
# a file stands where its parent should be.
OUT_FAULTS = {
    "missing_parent": ("nodir/out", "afile/out"),
    "file_for_directory": ("afile/out", "afile"),
    "directory_for_file": ("adir", "adir"),
}
# The output a directory verb finds taken by a directory in adir.
TAKEN_OUTPUT = {"simulate": "s1_p1_tx_bytes.csv", "detect": "model.json",
                "compare": "report.json"}


@pytest.mark.parametrize("fault", OUT_FAULTS)
@pytest.mark.parametrize("verb", ["simulate", "reduce", "synthesize", "detect", "compare"])
def test_unwritable_out_exits_two_naming_the_path(round_trip_inputs, tmp_path, monkeypatch,
                                                  capsys, verb, fault):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    Path("adir").mkdir()
    out = OUT_FAULTS[fault][verb in TAKEN_OUTPUT]
    if verb in TAKEN_OUTPUT:
        (Path("adir") / TAKEN_OUTPUT[verb]).mkdir()
    capsys.readouterr()
    assert main([verb, *round_trip_inputs[verb], "--out", out]) == 2
    *_, last = capsys.readouterr().err.splitlines()
    assert last.startswith("error: [Errno ") and f": '{out}" in last


def test_reduce_summary_states_the_depths_and_coefficients_of_every_window(
    round_trip_inputs, tmp_path, capsys
):
    register = round_trip_inputs["detect"][0]
    capsys.readouterr()
    assert main(["reduce", register, "--family", "haar", "--depth", "4",
                 "--min-energy-ratio", "0.99", "--window", "64", "--out",
                 str(tmp_path / "mixed.json")]) == 0
    paths = [w["path"] for w in json.loads((tmp_path / "mixed.json").read_text())["windows"]]
    assert sorted(map(len, paths)) == [1, 2, 4]
    assert "3 window(s) of 64 samples at depth 1-4 to 4-32 coefficients each" in (
        capsys.readouterr().out
    )
    assert main(["reduce", register, "--depth", "2", "--window", "64", "--out",
                 str(tmp_path / "even.json")]) == 0
    assert "3 window(s) of 64 samples at depth 2 to 16 coefficients each" in (
        capsys.readouterr().out
    )


def test_compare_report_records_the_models_quantile(round_trip_inputs, tmp_path):
    register, red = round_trip_inputs["compare"]
    out = tmp_path / "cmp"
    assert main(["compare", register, red, "--model", round_trip_inputs["model"],
                 "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["quantile"] == 0.05


@pytest.mark.parametrize("flags, fitted_on", [
    ([], "window"), (["--train", "128"], "prefix"), (["--model", "MODEL"], "model"),
])
def test_compare_scores_with_the_model_its_flags_pick(round_trip_inputs, tmp_path, flags,
                                                      fitted_on):
    register, red = round_trip_inputs["compare"]
    flags = [round_trip_inputs["model"] if f == "MODEL" else f for f in flags]
    out = tmp_path / "cmp"
    assert main(["compare", register, red, *flags, "--out", str(out)]) == 0
    _, _, counters = read_register_csv(register)
    series = np.diff(counters).astype(np.float64)
    saved = json.loads(Path(round_trip_inputs["model"]).read_text())["epsilon"]
    for r, window in enumerate(json.loads((out / "report.json").read_text())["windows"]):
        train = {"window": series[64 * r : 64 * (r + 1)], "prefix": series[:128]}.get(fitted_on)
        expected = saved if train is None else calibrate(fit(train), train, 0.01).epsilon
        assert window["epsilon"] == expected


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = str(Path(regwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "regwave.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _readme_round_trip():
    text = README.read_text()
    start = text.index("```sh\n", text.index("A full round trip")) + 6
    block = text[start:text.index("\n```", start)]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("regwave ")]


def test_readme_round_trip_exits_zero_and_a_dropped_flag_exits_two(tmp_path):
    commands = _readme_round_trip()
    assert [c[0] for c in commands] == list(VERB_FLAGS)
    with importlib.resources.as_file(bundled("video-42min.scn")) as scn:
        for args in commands:
            args = [str(scn) if a == "$SCN" else a for a in args]
            run = _run_cli(args, tmp_path)
            assert run.returncode == 0, run.stderr
    assert (tmp_path / "comparison" / "report.json").exists()
    run = _run_cli(["detect", "sim/s1_p1_tx_bytes.csv", "--window", "64",
                    "--out", "refused/"], tmp_path)
    assert run.returncode == 2
    assert "unrecognized arguments: --window 64" in run.stderr
    assert not (tmp_path / "refused").exists()


def test_readme_synopses_name_each_verbs_flags():
    _, verbs = _verb_parsers()
    synopses = re.findall(r"^`regwave (\w+) (.*)`$", README.read_text(), re.MULTILINE)
    assert sorted(verb for verb, _ in synopses) == sorted(VERB_FLAGS)
    for verb, line in synopses:
        assert set(re.findall(r"--[a-z][a-z-]*", line)) == _options(verbs[verb]), verb
