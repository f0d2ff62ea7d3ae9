"""Declarative scenario files: switches, traffic profiles, injected anomalies.

The format is line oriented.  ``#`` starts a comment, blank lines are
ignored, ``[section]`` opens a block, and each block holds ``key = value``
items.  Sections:

    [scenario]   name, duration (s), interval (s)
    [switch]     id, ports (comma separated), server_ports (subset of ports)
    [profile]    switch, port, base_rate (bytes/s), jitter, and any number of
                 repeated ``burst = start, duration, multiplier`` lines
    [anomaly]    kind (spike|dropout|drift), switch, port, t0 (s),
                 duration (s), magnitude

Every declared port needs exactly one profile, and every number must be
finite.  [switch], [profile], and [anomaly] may repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataError, ParseError
from .telemetry import AnomalyScenario, Burst, SwitchSim, TrafficProfile


@dataclass
class SwitchSpec:
    switch_id: str
    ports: tuple[int, ...]
    server_ports: tuple[int, ...]


@dataclass
class ScenarioConfig:
    name: str
    duration: float
    interval: float
    switches: dict[str, SwitchSpec] = field(default_factory=dict)
    profiles: dict[tuple[str, int], TrafficProfile] = field(default_factory=dict)
    anomalies: list[tuple[str, AnomalyScenario]] = field(default_factory=list)

    def build_switches(self, seed: int = 0) -> list[SwitchSim]:
        out = []
        for sw_id, spec in self.switches.items():
            out.append(
                SwitchSim(
                    sw_id,
                    {port: self.profiles[(sw_id, port)] for port in spec.ports},
                    scenarios=[a for owner, a in self.anomalies if owner == sw_id],
                    seed=seed,
                )
            )
        return out

    def server_port_keys(self) -> list[tuple[str, int]]:
        return [
            (sw_id, port)
            for sw_id, spec in self.switches.items()
            for port in spec.server_ports
        ]


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _integers(raw: str) -> tuple[int, ...]:
    return tuple(_integer(tok.strip()) for tok in raw.split(",") if tok.strip())


def _convert(convert, raw: str, key: str, path: str, line: int):
    try:
        return convert(raw)
    except ValueError as exc:
        raise ParseError(f"{key} {exc}", path, line) from None


def _build(cls, path: str, line: int, *args):
    """cls(*args), refusing its DataError as a ParseError at line."""
    try:
        return cls(*args)
    except DataError as exc:
        raise ParseError(str(exc), path, line) from None


def _burst(raw: str, path: str, line: int) -> Burst:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ParseError("burst takes start, duration, multiplier", path, line)
    return _build(Burst, path, line, *(
        _convert(_number, part, f"burst {what}", path, line)
        for part, what in zip(parts, ("start", "duration", "multiplier"))
    ))


class _Section:
    def __init__(self, kind: str, line: int):
        self.kind = kind
        self.line = line
        self.items: list[tuple[str, str, int]] = []

    def get(self, key: str, path: str, convert=None, default=None):
        """The converted value of key and its line; a key without a default is required."""
        found = [(v, ln) for k, v, ln in self.items if k == key]
        if len(found) > 1:
            raise ParseError(f"duplicate {key!r} in [{self.kind}]", path, found[1][1])
        if not found and default is None:
            raise ParseError(f"[{self.kind}] is missing {key!r}", path, self.line)
        raw, line = found[0] if found else (default, self.line)
        return (raw if convert is None else _convert(convert, raw, key, path, line)), line

    def port(self, switches: dict, path: str) -> tuple[str, int]:
        """The declared (switch, port) that a [profile] or [anomaly] names."""
        what, of = ("profile for", "on") if self.kind == "profile" else ("anomaly on", "of")
        sw_id, line = self.get("switch", path)
        if sw_id not in switches:
            raise ParseError(f"{what} unknown switch {sw_id!r}", path, line)
        port, line = self.get("port", path, _integer)
        if port not in switches[sw_id].ports:
            raise ParseError(f"{what} unknown port {port} {of} {sw_id!r}", path, line)
        return sw_id, port


_SECTION_KEYS = {
    "scenario": {"name", "duration", "interval"},
    "switch": {"id", "ports", "server_ports"},
    "profile": {"switch", "port", "base_rate", "jitter", "burst"},
    "anomaly": {"kind", "switch", "port", "t0", "duration", "magnitude"},
}


def _tokenize(text: str, path: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(f"malformed section header {raw.strip()!r}", path, lineno)
            kind = stripped[1:-1].strip()
            if kind not in _SECTION_KEYS:
                raise ParseError(f"unknown section [{kind}]", path, lineno)
            sections.append(_Section(kind, lineno))
            continue
        if "=" not in stripped:
            raise ParseError(f"expected key = value, got {raw.strip()!r}", path, lineno)
        if not sections:
            raise ParseError("key outside of any [section]", path, lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SECTION_KEYS[sections[-1].kind]:
            raise ParseError(
                f"unknown key {key!r} in [{sections[-1].kind}]", path, lineno
            )
        sections[-1].items.append((key, value, lineno))
    return sections


def parse_scenario(text: str, path: str = "<scenario>") -> ScenarioConfig:
    """Parse scenario text into a validated ScenarioConfig.

    Raises:
        ParseError: on any structural or semantic problem, carrying the
            offending line number.
    """
    sections = _tokenize(text, path)
    heads = [s for s in sections if s.kind == "scenario"]
    if len(heads) != 1:
        raise ParseError(f"expected exactly one [scenario] section, found {len(heads)}",
                         path, heads[1].line if heads else 1)
    head = heads[0]
    name, _ = head.get("name", path)
    duration, line = head.get("duration", path, _number)
    if duration < 0:
        raise ParseError("duration must be nonnegative", path, line)
    interval, line = head.get("interval", path, _number, "10")
    if interval <= 0:
        raise ParseError("interval must be positive", path, line)
    config = ScenarioConfig(name=name, duration=duration, interval=interval)

    for sec in (s for s in sections if s.kind == "switch"):
        sw_id, _ = sec.get("id", path)
        if sw_id in config.switches:
            raise ParseError(f"switch {sw_id!r} declared twice", path, sec.line)
        ports, line = sec.get("ports", path, _integers)
        if not ports:
            raise ParseError("ports list is empty", path, line)
        server, line = sec.get("server_ports", path, _integers, "")
        bad = [p for p in server if p not in ports]
        if bad:
            raise ParseError(f"server_ports {bad} are not in ports", path, line)
        config.switches[sw_id] = SwitchSpec(sw_id, ports, server)

    for sec in (s for s in sections if s.kind == "profile"):
        sw_id, port = key = sec.port(config.switches, path)
        if key in config.profiles:
            raise ParseError(f"port {port} on {sw_id!r} has two profiles", path, sec.line)
        rate, _ = sec.get("base_rate", path, _number)
        jitter, _ = sec.get("jitter", path, _number, "0")
        bursts = tuple(_burst(v, path, ln) for k, v, ln in sec.items if k == "burst")
        config.profiles[key] = _build(TrafficProfile, path, sec.line, rate, jitter, bursts)

    for sec in (s for s in sections if s.kind == "anomaly"):
        sw_id, port = sec.port(config.switches, path)
        kind, _ = sec.get("kind", path)
        numbers = (sec.get(k, path, _number)[0] for k in ("t0", "duration", "magnitude"))
        anomaly = _build(AnomalyScenario, path, sec.line, kind, port, *numbers)
        config.anomalies.append((sw_id, anomaly))

    missing = [
        (sw_id, port)
        for sw_id, spec in config.switches.items()
        for port in spec.ports
        if (sw_id, port) not in config.profiles
    ]
    if missing:
        raise ParseError(f"ports without a profile: {missing}", path, 1)
    return config


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}", str(path), 0) from None
    except UnicodeDecodeError as exc:
        raise ParseError.not_utf8(exc, path) from None
    return parse_scenario(text, str(path))
