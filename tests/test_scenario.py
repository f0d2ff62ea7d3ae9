import importlib.resources

import pytest

from regwave.errors import ParseError
from regwave.scenario import load_scenario, parse_scenario

GOOD = """
# demo network
[scenario]
name = demo
duration = 100
interval = 10

[switch]
id = s1
ports = 1, 2
server_ports = 2

[profile]
switch = s1
port = 1
base_rate = 1000
jitter = 0.1
burst = 20, 30, 2.5

[profile]
switch = s1
port = 2
base_rate = 500

[anomaly]
kind = spike
switch = s1
port = 2
t0 = 40
duration = 20
magnitude = 5
"""


def test_parse_full_scenario():
    cfg = parse_scenario(GOOD)
    assert cfg.name == "demo"
    assert cfg.duration == 100.0
    assert cfg.interval == 10.0
    assert cfg.switches["s1"].ports == (1, 2)
    assert cfg.switches["s1"].server_ports == (2,)
    assert cfg.profiles[("s1", 1)].bursts[0].multiplier == 2.5
    assert cfg.profiles[("s1", 2)].jitter == 0.0
    [(owner, anomaly)] = cfg.anomalies
    assert owner == "s1" and anomaly.kind == "spike" and anomaly.port == 2
    assert cfg.server_port_keys() == [("s1", 2)]
    switches = cfg.build_switches(seed=4)
    assert [sw.switch_id for sw in switches] == ["s1"]
    assert set(switches[0].profiles) == {1, 2}


@pytest.mark.parametrize("name", ("video-42min.scn", "spike-demo.scn"))
def test_bundled_scenarios_parse(name):
    ref = importlib.resources.files("regwave") / "scenarios" / name
    with importlib.resources.as_file(ref) as path:
        cfg = load_scenario(path)
    assert cfg.interval == 10.0
    assert cfg.duration % cfg.interval == 0
    assert cfg.server_port_keys()


def line_of(error: ParseError) -> int:
    return error.line


def test_unknown_section_reports_its_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("[scenario]\nname = x\nduration = 0\n[nope]\n")
    assert err.value.line == 4


def test_unknown_key_reports_its_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("[scenario]\nname = x\nduration = 0\ncolor = red\n")
    assert err.value.line == 4


def test_missing_equals_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_scenario("[scenario]\nname\n")
    assert err.value.line == 2


def test_missing_required_key():
    with pytest.raises(ParseError, match="duration"):
        parse_scenario("[scenario]\nname = x\n")


def test_bad_number_reports_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("[scenario]\nname = x\nduration = soon\n")
    assert err.value.line == 3


def test_server_ports_must_be_ports():
    text = GOOD.replace("server_ports = 2", "server_ports = 7")
    with pytest.raises(ParseError, match="server_ports"):
        parse_scenario(text)


def test_every_port_needs_a_profile():
    text = GOOD.replace("[profile]\nswitch = s1\nport = 2\nbase_rate = 500\n", "")
    with pytest.raises(ParseError, match="without a profile"):
        parse_scenario(text)


def test_duplicate_switch_rejected():
    text = GOOD + "\n[switch]\nid = s1\nports = 1\n"
    with pytest.raises(ParseError, match="declared twice"):
        parse_scenario(text)


def test_burst_arity_checked():
    text = GOOD.replace("burst = 20, 30, 2.5", "burst = 20, 30")
    with pytest.raises(ParseError, match="burst"):
        parse_scenario(text)


def test_anomaly_must_target_a_known_port():
    text = GOOD.replace("port = 2\nt0 = 40", "port = 9\nt0 = 40")
    with pytest.raises(ParseError, match="unknown port"):
        parse_scenario(text)


def test_anomaly_magnitude_rules_surface_as_parse_errors():
    bad_spike = GOOD.replace("magnitude = 5", "magnitude = 0.5")
    with pytest.raises(ParseError, match="magnitude"):
        parse_scenario(bad_spike)
    bad_dropout = GOOD.replace("kind = spike", "kind = dropout")
    with pytest.raises(ParseError, match="magnitude"):
        parse_scenario(bad_dropout)


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario(
        "# top\n\n[scenario]  # trailing\nname = x  # inline\nduration = 0\n"
        "[switch]\nid = a\nports = 1\n[profile]\nswitch = a\nport = 1\nbase_rate = 1\n"
    )
    assert cfg.name == "x"
    assert cfg.duration == 0.0


# One fault per input: (text in GOOD, its replacement, line, message).
REFUSALS = {
    "duplicate key": ("interval = 10\n", "interval = 10\ninterval = 20\n", 7,
                      "duplicate 'interval' in [scenario]"),
    "missing key": ("name = demo\n", "", 3, "[scenario] is missing 'name'"),
    "two scenarios": ("[switch]\n", "[scenario]\nname = b\nduration = 0\n[switch]\n", 8,
                      "expected exactly one [scenario] section, found 2"),
    "no scenario": ("[scenario]\nname = demo\nduration = 100\ninterval = 10\n", "", 1,
                    "expected exactly one [scenario] section, found 0"),
    "key outside a section": ("# demo network\n", "name = early\n", 2,
                              "key outside of any [section]"),
    "malformed header": ("[switch]\n", "[switch\n", 8, "malformed section header '[switch'"),
    "unknown section": ("[anomaly]", "[anomalies]", 25, "unknown section [anomalies]"),
    "unknown key": ("jitter = 0.1", "jiter = 0.1", 17, "unknown key 'jiter' in [profile]"),
    "no equals sign": ("base_rate = 500", "base_rate 500", 23,
                       "expected key = value, got 'base_rate 500'"),
    "negative duration": ("duration = 100", "duration = -1", 5, "duration must be nonnegative"),
    "zero interval": ("interval = 10", "interval = 0", 6, "interval must be positive"),
    "duration not a number": ("duration = 100", "duration = soon", 5,
                              "duration must be a finite number, got 'soon'"),
    "switch declared twice": ("\n[profile]\nswitch = s1\nport = 1",
                              "\n[switch]\nid = s1\nports = 3\n[profile]\nswitch = s1\nport = 1",
                              13, "switch 's1' declared twice"),
    "empty ports": ("ports = 1, 2", "ports = ,", 10, "ports list is empty"),
    "ports not integers": ("ports = 1, 2", "ports = 1, b", 10,
                           "ports must be an integer, got 'b'"),
    "server port not a port": ("server_ports = 2", "server_ports = 7", 11,
                               "server_ports [7] are not in ports"),
    "profile for unknown switch": ("switch = s1\nport = 1\n", "switch = s2\nport = 1\n", 14,
                                   "profile for unknown switch 's2'"),
    "profile for unknown port": ("port = 1\nbase_rate", "port = 3\nbase_rate", 15,
                                 "profile for unknown port 3 on 's1'"),
    "profile port not an integer": ("port = 1\nbase_rate", "port = one\nbase_rate", 15,
                                    "port must be an integer, got 'one'"),
    "two profiles": ("port = 2\nbase_rate = 500", "port = 1\nbase_rate = 500", 20,
                     "port 1 on 's1' has two profiles"),
    "zero base_rate": ("base_rate = 1000", "base_rate = 0", 13,
                       "base_rate must be positive, got 0.0"),
    "negative jitter": ("jitter = 0.1", "jitter = -0.1", 13,
                        "jitter must be nonnegative, got -0.1"),
    "burst arity": ("burst = 20, 30, 2.5", "burst = 20, 30", 18,
                    "burst takes start, duration, multiplier"),
    "burst start not a number": ("burst = 20, 30, 2.5", "burst = x, 30, 2.5", 18,
                                 "burst start must be a finite number, got 'x'"),
    "zero burst multiplier": ("burst = 20, 30, 2.5", "burst = 20, 30, 0", 18,
                              "burst needs positive duration and multiplier: "
                              "Burst(t_start=20.0, duration=30.0, multiplier=0.0)"),
    "anomaly on unknown switch": ("switch = s1\nport = 2\nt0", "switch = s3\nport = 2\nt0", 27,
                                  "anomaly on unknown switch 's3'"),
    "anomaly on unknown port": ("port = 2\nt0", "port = 9\nt0", 28,
                                "anomaly on unknown port 9 of 's1'"),
    "unknown anomaly kind": ("kind = spike", "kind = surge", 25, "unknown anomaly kind 'surge'"),
    "anomaly without magnitude": ("magnitude = 5\n", "", 25, "[anomaly] is missing 'magnitude'"),
    "spike below 1": ("magnitude = 5", "magnitude = 0.5", 25,
                      "spike magnitude must exceed 1, got 0.5"),
    "ports without a profile": ("[profile]\nswitch = s1\nport = 2\nbase_rate = 500\n", "", 1,
                                "ports without a profile: [('s1', 2)]"),
}
# Every number in a scenario must be finite; 1e400 reads as inf.
for key, old, line in [
    ("duration", "duration = 100", 5), ("interval", "interval = 10", 6),
    ("base_rate", "base_rate = 1000", 16), ("jitter", "jitter = 0.1", 17),
    ("t0", "t0 = 40", 29), ("magnitude", "magnitude = 5", 31),
]:
    for value in ("nan", "inf", "1e400"):
        REFUSALS[f"{key} {value}"] = (old, f"{key} = {value}", line,
                                      f"{key} must be a finite number, got {value!r}")
for value in ("nan", "-inf", "1e400"):
    REFUSALS[f"burst start {value}"] = (
        "burst = 20, 30, 2.5", f"burst = {value}, 30, 2.5", 18,
        f"burst start must be a finite number, got {value!r}",
    )


@pytest.mark.parametrize("old, new, line, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_names_its_message_and_line(old, new, line, message):
    assert GOOD.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_scenario(GOOD.replace(old, new))
    assert (err.value.line, str(err.value)) == (line, f"<scenario>:{line}: {message}")
