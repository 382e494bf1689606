"""ScenarioSpec: the declarative description a scenario run compiles.

A spec is plain data — a dict (or a YAML/JSON file that parses to one)
with five sections:

``topology``
    What the World looks like: load servers, certificate-target
    servers, kernel clients with agents, a CA-served namespace with
    untrusted mirrors, the control plane, armed crash points.
``links``
    Per-host link profiles applied before anything dials (latency,
    bandwidth, framing overhead) — the WAN in "WAN churn".
``workload``
    The closed-loop phased workload every load server carries, plus
    the kernel clients' namespace-resolution loop.
``events``
    The virtual-clock timeline: crashes, restarts, adversary windows,
    link re-profiling, key rollovers, revocation storms, lease storms,
    control ticks.  Times are seconds after the run starts.
``assertions``
    The post-run invariant set, from the vocabulary in
    :mod:`repro.scenario.assertions`.

Everything unknown is an error: a typo in a spec must fail loudly at
compile time, not silently weaken the scenario.  See PROTOCOLS.md §15
for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..load.workload import DEFAULT_MIX, OpMix


class ScenarioSpecError(Exception):
    """The spec does not describe a runnable scenario."""


def _take(data: dict, context: str, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioSpecError(
            f"{context}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _number(data: dict, key: str, context: str, default=None,
            minimum=None):
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSpecError(f"{context}.{key} must be a number")
    if minimum is not None and value < minimum:
        raise ScenarioSpecError(f"{context}.{key} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class CrashPointSpec:
    """Arm a named crash point on a load server's injector."""

    server: str
    point: str
    nth: int
    recover_after: float    # restart this long after the crash fires


@dataclass(frozen=True)
class TopologySpec:
    servers: int = 1            # load servers s0..sN-1 ("primary" = s0)
    extra_servers: int = 0      # revocation targets x0..xM-1
    kernel_clients: int = 0     # full client machines kc0.. with agents
    names: int = 0              # names provisioned on the fleet CA
    mirrors: int = 0            # untrusted namespace mirrors
    login_users: int = 0        # auth accounts auth0.. on the primary
    control: bool = False
    control_period: float = 0.010
    control_start: bool = True  # False: control_tick events drive it
    lease_duration: float = 30.0
    crash_points: tuple[CrashPointSpec, ...] = ()


@dataclass(frozen=True)
class PhaseSpec:
    name: str
    ops_per_client: int
    think_time: float | None = None
    io_size: int | None = None
    mix: OpMix | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    clients: int = 4            # sessions per load server
    think_time: float = 0.004
    io_size: int = 2048
    file_count: int = 4
    mix: OpMix = DEFAULT_MIX
    max_depth: int = 32
    workers: int = 2
    service_time: float = 0.0005
    rpc_timeout: float = 1.0
    failover: bool = True
    encrypt: bool = True
    phases: tuple[PhaseSpec, ...] = (PhaseSpec("main", 25),)
    #: Kernel clients resolve every provisioned name this many times.
    resolve_rounds: int = 0
    resolve_think: float = 0.005


@dataclass(frozen=True)
class EventSpec:
    at: float
    type: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AssertionSpec:
    check: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str = ""
    seed: int = 2026
    topology: TopologySpec = TopologySpec()
    links: tuple[tuple[str, dict], ...] = ()
    workload: WorkloadSpec = WorkloadSpec()
    events: tuple[EventSpec, ...] = ()
    assertions: tuple[AssertionSpec, ...] = ()


def _parse_mix(data, context: str) -> OpMix:
    if isinstance(data, OpMix):
        return data
    if not isinstance(data, dict):
        raise ScenarioSpecError(f"{context} must be a mapping of weights")
    _take(data, context, {"getattr", "read", "write"})
    try:
        return OpMix(
            getattr_weight=float(data.get("getattr", 0.0)),
            read_weight=float(data.get("read", 0.0)),
            write_weight=float(data.get("write", 0.0)),
        )
    except ValueError as exc:
        raise ScenarioSpecError(f"{context}: {exc}") from None


def _parse_topology(data: dict) -> TopologySpec:
    _take(data, "topology", {
        "servers", "extra_servers", "kernel_clients", "names", "mirrors",
        "login_users", "control", "control_period",
        "control_start", "lease_duration", "crash_points",
    })
    points = []
    for index, raw in enumerate(data.get("crash_points", [])):
        context = f"topology.crash_points[{index}]"
        if not isinstance(raw, dict):
            raise ScenarioSpecError(f"{context} must be a mapping")
        _take(raw, context, {"server", "point", "nth", "recover_after"})
        if "point" not in raw:
            raise ScenarioSpecError(f"{context} needs a 'point'")
        points.append(CrashPointSpec(
            server=str(raw.get("server", "primary")),
            point=str(raw["point"]),
            nth=int(_number(raw, "nth", context, default=1, minimum=1)),
            recover_after=float(_number(raw, "recover_after", context,
                                        default=0.05, minimum=0.0)),
        ))
    spec = TopologySpec(
        servers=int(_number(data, "servers", "topology", 1, minimum=1)),
        extra_servers=int(_number(data, "extra_servers", "topology", 0,
                                  minimum=0)),
        kernel_clients=int(_number(data, "kernel_clients", "topology", 0,
                                   minimum=0)),
        names=int(_number(data, "names", "topology", 0, minimum=0)),
        mirrors=int(_number(data, "mirrors", "topology", 0, minimum=0)),
        login_users=int(_number(data, "login_users", "topology", 0,
                                minimum=0)),
        control=bool(data.get("control", False)),
        control_period=float(_number(data, "control_period", "topology",
                                     0.010, minimum=1e-6)),
        control_start=bool(data.get("control_start", True)),
        lease_duration=float(_number(data, "lease_duration", "topology",
                                     30.0, minimum=0.0)),
        crash_points=tuple(points),
    )
    if spec.mirrors and not spec.names:
        raise ScenarioSpecError("topology.mirrors without topology.names: "
                                "there is no namespace to mirror")
    if (spec.names or spec.mirrors) and not spec.kernel_clients:
        raise ScenarioSpecError("a namespace needs kernel_clients to "
                                "resolve it")
    return spec


def _parse_workload(data: dict) -> WorkloadSpec:
    _take(data, "workload", {
        "clients", "think_time", "io_size", "file_count", "mix",
        "max_depth", "workers", "service_time", "rpc_timeout", "failover",
        "encrypt", "phases", "resolve_rounds", "resolve_think",
    })
    phases = []
    for index, raw in enumerate(data.get("phases", [])):
        context = f"workload.phases[{index}]"
        if not isinstance(raw, dict):
            raise ScenarioSpecError(f"{context} must be a mapping")
        _take(raw, context,
              {"name", "ops_per_client", "think_time", "io_size", "mix"})
        if "name" not in raw or "ops_per_client" not in raw:
            raise ScenarioSpecError(
                f"{context} needs 'name' and 'ops_per_client'"
            )
        phases.append(PhaseSpec(
            name=str(raw["name"]),
            ops_per_client=int(_number(raw, "ops_per_client", context,
                                       minimum=1)),
            think_time=_number(raw, "think_time", context, minimum=0.0),
            io_size=(int(_number(raw, "io_size", context, minimum=1))
                     if "io_size" in raw else None),
            mix=(_parse_mix(raw["mix"], f"{context}.mix")
                 if "mix" in raw else None),
        ))
    if len({phase.name for phase in phases}) != len(phases):
        raise ScenarioSpecError("workload.phases names must be unique")
    defaults = WorkloadSpec()
    return WorkloadSpec(
        clients=int(_number(data, "clients", "workload",
                            defaults.clients, minimum=1)),
        think_time=float(_number(data, "think_time", "workload",
                                 defaults.think_time, minimum=0.0)),
        io_size=int(_number(data, "io_size", "workload",
                            defaults.io_size, minimum=1)),
        file_count=int(_number(data, "file_count", "workload",
                               defaults.file_count, minimum=1)),
        mix=(_parse_mix(data["mix"], "workload.mix")
             if "mix" in data else DEFAULT_MIX),
        max_depth=int(_number(data, "max_depth", "workload",
                              defaults.max_depth, minimum=1)),
        workers=int(_number(data, "workers", "workload",
                            defaults.workers, minimum=1)),
        service_time=float(_number(data, "service_time", "workload",
                                   defaults.service_time, minimum=0.0)),
        rpc_timeout=float(_number(data, "rpc_timeout", "workload",
                                  defaults.rpc_timeout, minimum=1e-6)),
        failover=bool(data.get("failover", defaults.failover)),
        encrypt=bool(data.get("encrypt", defaults.encrypt)),
        phases=tuple(phases) if phases else defaults.phases,
        resolve_rounds=int(_number(data, "resolve_rounds", "workload", 0,
                                   minimum=0)),
        resolve_think=float(_number(data, "resolve_think", "workload",
                                    0.005, minimum=0.0)),
    )


def _parse_events(data: list) -> tuple[EventSpec, ...]:
    from .events import EVENT_TYPES  # late: events imports nothing of ours

    events = []
    for index, raw in enumerate(data):
        context = f"events[{index}]"
        if not isinstance(raw, dict):
            raise ScenarioSpecError(f"{context} must be a mapping")
        if "type" not in raw:
            raise ScenarioSpecError(f"{context} needs a 'type'")
        kind = str(raw["type"])
        handler = EVENT_TYPES.get(kind)
        if handler is None:
            raise ScenarioSpecError(
                f"{context}: unknown event type {kind!r}; known: "
                f"{sorted(EVENT_TYPES)}"
            )
        at = _number(raw, "at", context, default=None, minimum=0.0)
        if at is None:
            raise ScenarioSpecError(f"{context} needs an 'at' time")
        params = {key: value for key, value in raw.items()
                  if key not in ("at", "type")}
        _take(params, context, set(handler.allowed_params))
        events.append(EventSpec(at=float(at), type=kind, params=params))
    return tuple(sorted(events, key=lambda event: event.at))


def _parse_assertions(data: list) -> tuple[AssertionSpec, ...]:
    from .assertions import CHECKS  # late, same reason as events

    assertions = []
    for index, raw in enumerate(data):
        context = f"assertions[{index}]"
        if not isinstance(raw, dict):
            raise ScenarioSpecError(f"{context} must be a mapping")
        if "check" not in raw:
            raise ScenarioSpecError(f"{context} needs a 'check'")
        name = str(raw["check"])
        check = CHECKS.get(name)
        if check is None:
            raise ScenarioSpecError(
                f"{context}: unknown check {name!r}; known: "
                f"{sorted(CHECKS)}"
            )
        params = {key: value for key, value in raw.items()
                  if key != "check"}
        _take(params, context, set(check.allowed_params))
        assertions.append(AssertionSpec(check=name, params=params))
    return tuple(assertions)


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Compile a plain dict into a validated :class:`ScenarioSpec`."""
    if not isinstance(data, dict):
        raise ScenarioSpecError("a scenario spec must be a mapping")
    _take(data, "scenario", {
        "name", "description", "seed", "topology", "links", "workload",
        "events", "assertions",
    })
    if "name" not in data:
        raise ScenarioSpecError("a scenario needs a name")
    links = []
    raw_links = data.get("links", {})
    if not isinstance(raw_links, dict):
        raise ScenarioSpecError("links must map host aliases to profiles")
    for alias, profile in raw_links.items():
        context = f"links[{alias!r}]"
        if not isinstance(profile, dict):
            raise ScenarioSpecError(f"{context} must be a mapping")
        _take(profile, context, {"latency", "bandwidth", "overhead"})
        links.append((str(alias), dict(profile)))
    spec = ScenarioSpec(
        name=str(data["name"]),
        description=str(data.get("description", "")),
        seed=int(_number(data, "seed", "scenario", 2026)),
        topology=_parse_topology(data.get("topology", {})),
        links=tuple(links),
        workload=_parse_workload(data.get("workload", {})),
        events=_parse_events(data.get("events", [])),
        assertions=_parse_assertions(data.get("assertions", [])),
    )
    _check_references(spec)
    return spec


def _known_aliases(topology: TopologySpec) -> set[str]:
    aliases = {"primary"}
    aliases.update(f"s{index}" for index in range(topology.servers))
    aliases.update(f"x{index}" for index in range(topology.extra_servers))
    aliases.update(f"mirror{index}" for index in range(topology.mirrors))
    if topology.names:
        aliases.add("ca")
    return aliases


def _check_references(spec: ScenarioSpec) -> None:
    """Cross-section validation: events may only name machines that the
    topology actually builds, and control events need a control plane."""
    aliases = _known_aliases(spec.topology)
    for event in spec.events:
        server = event.params.get("server")
        if server is not None and server not in aliases:
            raise ScenarioSpecError(
                f"event {event.type!r} at {event.at} names unknown server "
                f"{server!r}; topology provides {sorted(aliases)}"
            )
        if event.type == "control_tick" and not spec.topology.control:
            raise ScenarioSpecError(
                "control_tick event without topology.control"
            )
        if event.type == "revoke" and not spec.topology.extra_servers:
            raise ScenarioSpecError(
                "revoke event without topology.extra_servers targets"
            )
        if (event.type in ("login_storm", "user_key_change")
                and not spec.topology.login_users):
            raise ScenarioSpecError(
                f"{event.type} event without topology.login_users accounts"
            )
        if event.type == "user_key_change" and "user" not in event.params:
            raise ScenarioSpecError(
                f"user_key_change event at {event.at} needs a 'user'"
            )
    for point in spec.topology.crash_points:
        if point.server not in aliases:
            raise ScenarioSpecError(
                f"crash point on unknown server {point.server!r}"
            )
    for alias, _profile in spec.links:
        if alias not in aliases:
            raise ScenarioSpecError(f"link profile for unknown host "
                                    f"{alias!r}")


def load_spec(path: str) -> ScenarioSpec:
    """Load a spec from a ``.json`` / ``.yaml`` / ``.yml`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML ships in the image
            raise ScenarioSpecError(
                f"{path}: YAML spec but PyYAML is unavailable; use JSON"
            ) from None
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioSpecError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioSpecError(f"{path}: spec must be a mapping")
    return spec_from_dict(data)
