import importlib.resources
import json

import numpy as np
import pytest

from regwave.cli import main
from regwave.formats import read_register_csv


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
    "flags, message",
    [
        (["--depth", "5"], "--depth 5 conflicts with the reduced file's depth 1"),
        (["--window", "128"], "--window 128 conflicts with the reduced file's window_size 64"),
        (["--family", "db4"], "--family 'db4' conflicts with the reduced file's family 'db2'"),
    ],
    ids=["depth", "window", "family"],
)
def test_synthesize_refuses_flags_that_contradict_the_reduced_file(
    video_sim, tmp_path, capsys, flags, message
):
    red = tmp_path / "red.json"
    out = tmp_path / "synth.csv"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--out", str(red)]
    ) == 0
    capsys.readouterr()
    assert main(["synthesize", str(red), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synthesize_accepts_flags_that_agree_with_the_reduced_file(video_sim, tmp_path):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "64",
         "--depth", "2", "--out", str(red)]
    ) == 0
    assert main(
        ["synthesize", str(red), "--family", "db2", "--depth", "2", "--window", "64",
         "--out", str(tmp_path / "synth.csv")]
    ) == 0


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


def _longer_ledger(entry):
    entry["sibling_energies"].append([1.0, 1.0])


def _length_192(entry):
    entry["original_length"] = 192
    entry["coefficients"] = entry["coefficients"] * 3


@pytest.mark.parametrize("verb", ["synthesize", "compare"])
@pytest.mark.parametrize("edit, message", [
    (_longer_ledger, "window 0: 2 sibling_energies pairs for path 'L'"),
    (_length_192, "window 0: original_length 192 is not a power of two"),
])
def test_inconsistent_reduced_window_exits_two(video_sim, tmp_path, capsys, verb, edit,
                                               message):
    register = str(video_sim / "s1_p1_tx_bytes.csv")
    red = tmp_path / "red.json"
    assert main(["reduce", register, "--window", "64", "--out", str(red)]) == 0
    doc = json.loads(red.read_text())
    edit(doc["windows"][0])
    red.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [verb, str(red)] if verb == "synthesize" else [verb, register, str(red)]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_windows_of_different_lengths_synthesize_and_compare(video_sim, tmp_path):
    register = str(video_sim / "s1_p1_tx_bytes.csv")
    red = tmp_path / "red.json"
    assert main(["reduce", register, "--window", "64", "--out", str(red)]) == 0
    assert main(["synthesize", str(red), "--out", str(tmp_path / "all.csv")]) == 0
    doc = json.loads(red.read_text())
    first = doc["windows"][0]
    first["original_length"] = 32
    first["coefficients"] = first["coefficients"][:16]
    first["sibling_energies"] = first["sibling_energies"][:1]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    assert main(["synthesize", str(mixed), "--out", str(tmp_path / "mixed.csv")]) == 0
    rows = (tmp_path / "mixed.csv").read_text().splitlines()
    full = (tmp_path / "all.csv").read_text().splitlines()
    assert len(rows) == 1 + 32 + 128
    assert [r.split(",")[0] for r in rows[1:33]] == [str(i) for i in range(32)]
    assert rows[33:] == full[65:]
    assert main(["compare", register, str(mixed), "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert [w["index"] for w in report["windows"]] == [0, 1, 2]


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


def test_conflicting_window_flag_exits_two(video_sim, tmp_path):
    red = tmp_path / "red.json"
    assert main(
        ["reduce", str(video_sim / "s1_p1_tx_bytes.csv"), "--window", "128",
         "--out", str(red)]
    ) == 0
    rc = main(
        ["compare", str(video_sim / "s1_p1_tx_bytes.csv"), str(red),
         "--window", "256", "--out", str(tmp_path / "c")]
    )
    assert rc == 2


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
