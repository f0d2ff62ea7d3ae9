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

Every declared port needs exactly one profile.  [switch], [profile], and
[anomaly] may repeat.
"""

from __future__ import annotations

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


def _to_float(raw: str, key: str, path: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{key} must be a number, got {raw!r}", path, line) from None


def _to_int(raw: str, key: str, path: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {raw!r}", path, line) from None


class _Section:
    def __init__(self, kind: str, line: int):
        self.kind = kind
        self.line = line
        self.items: list[tuple[str, str, int]] = []

    def get(self, key: str, path: str, default=None, required=True) -> tuple[str, int]:
        found = [(v, ln) for k, v, ln in self.items if k == key]
        if not found:
            if required:
                raise ParseError(f"[{self.kind}] is missing {key!r}", path, self.line)
            return default, self.line
        if len(found) > 1:
            raise ParseError(f"duplicate {key!r} in [{self.kind}]", path, found[1][1])
        return found[0]

    def get_all(self, key: str) -> list[tuple[str, int]]:
        return [(v, ln) for k, v, ln in self.items if k == key]


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
        raise ParseError(
            f"expected exactly one [scenario] section, found {len(heads)}", path,
            heads[1].line if len(heads) > 1 else 1,
        )
    head = heads[0]
    name, _ = head.get("name", path)
    duration_raw, dln = head.get("duration", path)
    interval_raw, iln = head.get("interval", path, default="10", required=False)
    duration = _to_float(duration_raw, "duration", path, dln)
    interval = _to_float(interval_raw, "interval", path, iln)
    if duration < 0:
        raise ParseError("duration must be nonnegative", path, dln)
    if interval <= 0:
        raise ParseError("interval must be positive", path, iln)
    config = ScenarioConfig(name=name, duration=duration, interval=interval)

    for sec in (s for s in sections if s.kind == "switch"):
        sw_id, _ = sec.get("id", path)
        if sw_id in config.switches:
            raise ParseError(f"switch {sw_id!r} declared twice", path, sec.line)
        ports_raw, pln = sec.get("ports", path)
        ports = tuple(
            _to_int(tok.strip(), "ports", path, pln)
            for tok in ports_raw.split(",")
            if tok.strip()
        )
        if not ports:
            raise ParseError("ports list is empty", path, pln)
        server_raw, sln = sec.get("server_ports", path, default="", required=False)
        server = tuple(
            _to_int(tok.strip(), "server_ports", path, sln)
            for tok in server_raw.split(",")
            if tok.strip()
        )
        bad = [p for p in server if p not in ports]
        if bad:
            raise ParseError(f"server_ports {bad} are not in ports", path, sln)
        config.switches[sw_id] = SwitchSpec(sw_id, ports, server)

    for sec in (s for s in sections if s.kind == "profile"):
        sw_id, swln = sec.get("switch", path)
        if sw_id not in config.switches:
            raise ParseError(f"profile for unknown switch {sw_id!r}", path, swln)
        port_raw, pln = sec.get("port", path)
        port = _to_int(port_raw, "port", path, pln)
        if port not in config.switches[sw_id].ports:
            raise ParseError(f"profile for unknown port {port} on {sw_id!r}", path, pln)
        if (sw_id, port) in config.profiles:
            raise ParseError(f"port {port} on {sw_id!r} has two profiles", path, sec.line)
        rate_raw, rln = sec.get("base_rate", path)
        jitter_raw, jln = sec.get("jitter", path, default="0", required=False)
        bursts = []
        for burst_raw, bln in sec.get_all("burst"):
            parts = [p.strip() for p in burst_raw.split(",")]
            if len(parts) != 3:
                raise ParseError(
                    "burst takes start, duration, multiplier", path, bln
                )
            try:
                bursts.append(
                    Burst(
                        _to_float(parts[0], "burst start", path, bln),
                        _to_float(parts[1], "burst duration", path, bln),
                        _to_float(parts[2], "burst multiplier", path, bln),
                    )
                )
            except DataError as exc:
                raise ParseError(str(exc), path, bln) from None
        try:
            config.profiles[(sw_id, port)] = TrafficProfile(
                base_rate=_to_float(rate_raw, "base_rate", path, rln),
                jitter=_to_float(jitter_raw, "jitter", path, jln),
                bursts=tuple(bursts),
            )
        except DataError as exc:
            raise ParseError(str(exc), path, sec.line) from None

    for sec in (s for s in sections if s.kind == "anomaly"):
        sw_id, swln = sec.get("switch", path)
        if sw_id not in config.switches:
            raise ParseError(f"anomaly on unknown switch {sw_id!r}", path, swln)
        port_raw, pln = sec.get("port", path)
        port = _to_int(port_raw, "port", path, pln)
        if port not in config.switches[sw_id].ports:
            raise ParseError(f"anomaly on unknown port {port} of {sw_id!r}", path, pln)
        kind, _ = sec.get("kind", path)
        t0_raw, tln = sec.get("t0", path)
        dur_raw, dln2 = sec.get("duration", path)
        mag_raw, mln = sec.get("magnitude", path)
        try:
            anomaly = AnomalyScenario(
                kind=kind,
                port=port,
                t0=_to_float(t0_raw, "t0", path, tln),
                duration=_to_float(dur_raw, "duration", path, dln2),
                magnitude=_to_float(mag_raw, "magnitude", path, mln),
            )
        except DataError as exc:
            raise ParseError(str(exc), path, sec.line) from None
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
