"""The scenario engine: compile a spec, run it, judge the wreckage.

``run_scenario`` takes a :class:`~repro.scenario.spec.ScenarioSpec`
(or a dict, or a file path) and turns it into one seeded World run in
three stages:

1. **build** — construct the world in deterministic order: control
   plane first (so machines get teed registries), then load servers
   with armed crash points, link profiles *before* anything dials,
   certificate-target servers, the fleet namespace with its untrusted
   mirrors, kernel clients whose HostID caches are pre-populated (a
   revocation storm against an empty cache proves nothing), and
   finally the load harnesses and the pre-storm integrity marker.
2. **run** — spawn the phased workload clients, the kernel clients'
   namespace-resolution loops, and the timeline driver (a non-daemon
   task that sleeps to each event's virtual time and applies it), then
   run the scheduler to completion.  Restart timers are clock timers
   scheduled relative to the crash they heal, so they fire whoever is
   advancing the clock at the time.
3. **evaluate** — total the reports, run every assertion in the spec,
   and fold the deterministic facts of the run (fired events, per-phase
   op counts and simulated latency sums, virtual duration) into a
   SHA-256 digest: two runs of the same spec and seed must produce the
   same digest, which is what the CI matrix holds us to.

The artifact written per run carries the world registry snapshot, the
scenario accounting, the assertion outcomes, and (when enabled) the
control plane's own artifact — one JSON file per (scenario, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from ..fs.memfs import Cred
from ..kernel.world import ClientMachine, ServerMachine, World
from ..load.harness import LoadConfig, LoadHarness, LoadReport, WorkloadPhase
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..obs.export import registry_snapshot
from ..sim.network import NetworkParameters
from ..sim.sched import Sleep
from .events import EVENT_TYPES
from .spec import ScenarioSpec, load_spec, spec_from_dict

#: Name of the pre-run data-integrity marker on every load server.
MARKER_NAME = "integrity-marker"
MARKER_SIZE = 2048


def _marker_content(seed: int) -> bytes:
    return bytes((seed + index) % 256 for index in range(MARKER_SIZE))


@dataclass
class AssertionOutcome:
    check: str
    params: dict
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class ScenarioResult:
    """One finished scenario run, everything the caller needs."""

    name: str
    seed: int
    passed: bool
    duration: float                 # simulated seconds
    digest: str                     # deterministic run fingerprint
    totals: dict
    assertions: list[AssertionOutcome]
    artifact: dict = field(repr=False)
    artifact_path: str | None = None

    @property
    def failures(self) -> list[str]:
        return [f"{outcome.check}: {failure}"
                for outcome in self.assertions
                for failure in outcome.failures]


class _Runtime:
    """The live state of one scenario run; event handlers and assertion
    checks both operate on this."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.world = World(seed=spec.seed)
        self.clock = self.world.clock
        self.scheduler = self.world.enable_concurrency(seed=spec.seed)
        self.aliases: dict[str, ServerMachine] = {}
        self.load_servers: list[ServerMachine] = []
        self.extra_servers: list[ServerMachine] = []
        self.kernel_clients: list[ClientMachine] = []
        self.kernel_procs: list = []
        self.harnesses: list[LoadHarness] = []
        self.fleet = None
        #: (session, agent) pairs for the auth accounts auth0..authN-1,
        #: dialed to the primary — login_storm events draw from these.
        self.login_sessions: list[tuple] = []
        self.login_accounts: list[str] = []
        self.name_targets: dict[str, str] = {}
        self.reports: dict[str, LoadReport] = {}
        self.storm_report = LoadReport(clients=0)
        self.rollovers: list = []
        self.revocations: list = []
        self.fired: list[dict] = []
        self.blocked: list = []
        self.offered_ops = 0
        self.expected_resolves = 0
        self.marker_content = _marker_content(spec.seed)
        self.duration = 0.0
        self._adversary_index = 0
        self._storm_index = 0

    # -- services for event handlers and checks ----------------------------

    @property
    def daemons(self) -> list:
        return [machine.sfscd for machine in self.kernel_clients]

    @property
    def authservers(self) -> list:
        """Every live authserver in the world, deduplicated — the
        decision-cache epoch-bump targets for revocation fan-out (a
        retired server key may have influenced who authenticated on any
        of them, so none may keep serving pre-sweep cached decisions)."""
        servers: list = []
        for machine in self.world.servers.values():
            for export in machine.exports.values():
                authserver = export[2]
                if authserver is not None and authserver not in servers:
                    servers.append(authserver)
        return servers

    def machine(self, alias: str) -> ServerMachine:
        try:
            return self.aliases[alias]
        except KeyError:
            raise KeyError(f"scenario has no machine aliased {alias!r}") \
                from None

    def harness_for(self, alias: str) -> LoadHarness:
        machine = self.machine(alias)
        for harness in self.harnesses:
            if harness.server is machine:
                return harness
        raise KeyError(f"no load harness drives {alias!r}")

    def count(self, name: str, amount: int = 1) -> None:
        self.world.metrics.counter(name).inc(amount)

    def next_adversary(self) -> int:
        self._adversary_index += 1
        return self._adversary_index

    def next_storm(self) -> int:
        self._storm_index += 1
        return self._storm_index

    # -- build -------------------------------------------------------------

    def build(self) -> None:
        spec = self.spec
        topology = spec.topology
        if topology.control:
            self.world.enable_control(period=topology.control_period,
                                      start=topology.control_start)
        if topology.contention:
            self.world.enable_contention()
        for index in range(topology.servers):
            machine = self.world.add_server(f"s{index}.load.test")
            machine.export_fs(lease_duration=topology.lease_duration)
            self.aliases[f"s{index}"] = machine
            self.load_servers.append(machine)
        self.aliases["primary"] = self.load_servers[0]
        self._arm_crash_points()
        # Link profiles before anything dials: the WAN is in place when
        # the first session handshake crosses it.
        for alias, profile in spec.links:
            machine = self.machine(alias) if alias in self.aliases else None
            location = machine.location if machine else alias
            self.world.set_link_params(location, NetworkParameters(
                latency=float(profile.get("latency", 0.020)),
                bandwidth=float(profile.get("bandwidth", 5_000_000.0)),
                per_message_overhead=int(profile.get("overhead", 100)),
            ))
        for index in range(topology.extra_servers):
            machine = self.world.add_server(f"x{index}.cert.test")
            machine.export_fs()
            self._seed_world_readable(machine, "victim", b"certified data")
            self.aliases[f"x{index}"] = machine
            self.extra_servers.append(machine)
        self._build_fleet()
        self._build_kernel_clients()
        # Login accounts connect before the harnesses enable queueing:
        # the session handshakes run synchronously, and the established
        # connections then share the admission queue with the workload.
        self._build_login_accounts()
        self._build_harnesses()

    def _arm_crash_points(self) -> None:
        by_server: dict[str, list] = {}
        for point in self.spec.topology.crash_points:
            by_server.setdefault(point.server, []).append(point)
        for alias, points in by_server.items():
            machine = self.machine(alias)
            injector = machine.install_crash_injector(
                [(point.point, point.nth) for point in points]
            )
            recover = {point.point: point.recover_after for point in points}
            crash = injector.on_crash      # the master's own power-fail

            def on_crash(point, _machine=machine, _recover=recover,
                         _crash=crash):
                _crash(point)
                # Reboot on a clock timer relative to this crash: it
                # fires from inside Clock.advance while the victims'
                # reconnect backoff waits the outage out.
                _machine.schedule_restart(
                    self.clock.now + _recover.get(point, 0.05)
                )
                self.count("scenario.crashes")

            injector.on_crash = on_crash

    def _seed_world_readable(self, machine: ServerMachine, name: str,
                             content: bytes) -> None:
        fs = machine.fs
        owner = Cred(uid=0, gid=0)
        inode = fs.create(fs.root_ino, name, owner, mode=0o666)
        fs.write(inode.ino, 0, content, owner)
        fs.commit(inode.ino)

    def _build_fleet(self) -> None:
        topology = self.spec.topology
        if not topology.names:
            return
        self.fleet = self.world.add_fleet(1, name="fleet")
        for index in range(topology.names):
            name = f"name{index}"
            self.name_targets[name] = self.fleet.provision(name)
        self.fleet.publish(mirrors=topology.mirrors)
        for index in range(topology.mirrors):
            self.aliases[f"mirror{index}"] = \
                self.world.servers[f"mirror{index}.fleet"]
        self.aliases["ca"] = self.fleet.ca_server

    def _build_kernel_clients(self) -> None:
        topology = self.spec.topology
        for index in range(topology.kernel_clients):
            machine = self.world.add_client(f"kc{index}.client")
            proc = machine.login_user(f"user{index}", None, uid=1000 + index)
            if self.fleet is not None:
                self.fleet.attach(machine)
            # Populate the HostID cache: mount every certificate-target
            # server now, so a later revocation storm hits warm state.
            for extra in self.extra_servers:
                path = extra.path
                assert proc.read_file(f"/sfs/{path.mount_name}/victim") \
                    == b"certified data"
            self.kernel_clients.append(machine)
            self.kernel_procs.append(proc)

    def _build_login_accounts(self) -> None:
        """Provision ``topology.login_users`` accounts on the primary's
        authserver and pre-dial one session + agent per account — the
        steady-state population a login_storm event then drives."""
        count = self.spec.topology.login_users
        if not count:
            return
        from ..core import proto
        from ..core.agent import Agent
        from ..core.client import ServerSession
        from ..core.keyneg import EphemeralKeyCache
        from ..crypto.rabin import generate_key
        from ..rpc.peer import RetryPolicy

        primary = self.load_servers[0]
        authserver = primary.exports["default"][2]
        shared_keys = EphemeralKeyCache(self.world.rng)
        for index in range(count):
            name = f"auth{index}"
            key = generate_key(768, self.world.rng)
            authserver.add_account(name, 2000 + index, 100,
                                   public_key_bytes=key.public_key.to_bytes())
            link = self.world.connector(primary.location,
                                        proto.SERVICE_FILESERVER)
            session = ServerSession.connect(
                link, primary.path, shared_keys, self.world.rng,
                encrypt=self.spec.workload.encrypt,
            )
            # Storm-queue waits dwarf the default retransmit timer, and a
            # spurious retransmit escalates to a channel rekey that would
            # invalidate in-flight signed AuthIDs (see repro.auth.bench).
            session.peer.retry_policy = RetryPolicy(base_delay=0.25)
            agent = Agent(name, self.world.rng)
            agent.add_key(key)
            self.login_accounts.append(name)
            self.login_sessions.append((session, agent))

    def _build_harnesses(self) -> None:
        spec = self.spec
        workload = spec.workload
        config = LoadConfig(
            clients=workload.clients,
            ops_per_client=max(phase.ops_per_client
                               for phase in workload.phases),
            seed=spec.seed,
            think_time=workload.think_time,
            io_size=workload.io_size,
            mix=workload.mix,
            file_count=workload.file_count,
            encrypt=workload.encrypt,
            max_depth=workload.max_depth,
            workers=workload.workers,
            service_time=workload.service_time,
            contention=spec.topology.contention,
            rpc_timeout=workload.rpc_timeout,
            failover=workload.failover,
        )
        for machine in self.load_servers:
            self._seed_world_readable(machine, MARKER_NAME,
                                      self.marker_content)
            harness = LoadHarness(config, world=self.world, server=machine)
            self._wire_handle_refresh(harness)
            self.harnesses.append(harness)

    def _wire_handle_refresh(self, harness: LoadHarness) -> None:
        """After a session retargets (key rollover → new HostID → new
        handle map), re-resolve the workload handles through the fresh
        session.  OpStreams hold a live reference to ``harness.handles``,
        so the in-place mutation reaches every client immediately; the
        one op already built with a stale handle is the scenario's
        bounded casualty."""
        for session in harness.sessions:
            session.on_retarget = (
                lambda old, new, _h=harness, _s=session:
                self._refresh_handles(_h, _s)
            )

    def _refresh_handles(self, harness: LoadHarness, session):
        """The sessions' ``on_retarget`` generator: it runs inside the
        load task that is reconnecting, so it yields while it looks up."""
        root = yield from self._lookup_task(session, bytes(24), ".")
        fresh = []
        for index in range(harness.config.file_count):
            fresh.append((yield from self._lookup_task(
                session, root, f"load{index}")))
        harness.handles[:] = fresh
        self.count("scenario.handle_refreshes")

    def _lookup(self, session, dir_handle: bytes, name: str) -> bytes:
        return session.peer.drive(self._lookup_task(session, dir_handle, name))

    def _lookup_task(self, session, dir_handle: bytes, name: str):
        status, body = yield from session.call_nfs_task(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=dir_handle, name=name)
            ),
            authno=0,
        )
        if status != nfs_const.NFS3_OK:
            raise RuntimeError(f"lookup({name}) failed: status {status}")
        return body.object

    def read_marker(self, harness: LoadHarness) -> bytes:
        """Re-read the integrity marker through the protocol."""
        session = harness.sessions[0]
        root = self._lookup(session, bytes(24), ".")
        handle = self._lookup(session, root, MARKER_NAME)
        status, body = session.call_nfs(
            nfs_const.NFSPROC3_READ,
            nfs_types.ReadArgs.make(file=handle, offset=0,
                                    count=MARKER_SIZE),
            authno=0,
        )
        if status != nfs_const.NFS3_OK:
            raise RuntimeError(f"marker read failed: status {status}")
        return body.data

    # -- run ---------------------------------------------------------------

    def run(self) -> None:
        workload = self.spec.workload
        phases = [WorkloadPhase(name=phase.name,
                                ops_per_client=phase.ops_per_client,
                                think_time=phase.think_time,
                                io_size=phase.io_size, mix=phase.mix)
                  for phase in workload.phases]
        for harness in self.harnesses:
            harness.spawn_phased_clients(phases, self.reports)
        self.offered_ops = (len(self.harnesses) * workload.clients
                            * sum(phase.ops_per_client for phase in phases))
        self._spawn_resolvers()
        self.scheduler.spawn(self._timeline(), name="scenario-timeline")
        start = self.clock.now
        self.blocked = self.scheduler.run()
        self.duration = self.clock.now - start
        self.offered_ops += int(self.world.metrics.counter(
            "scenario.lease_storm_writes").value)

    def _spawn_resolvers(self) -> None:
        workload = self.spec.workload
        if not (workload.resolve_rounds and self.fleet
                and self.kernel_clients):
            return
        ca_mount = self.fleet.namespace_path.mount_name
        expected = sorted(self.name_targets.items())
        self.expected_resolves = (len(self.kernel_clients)
                                  * workload.resolve_rounds * len(expected))

        def resolver(proc, hostname):
            for _round in range(workload.resolve_rounds):
                for name, target in expected:
                    yield Sleep(workload.resolve_think)
                    try:
                        got = proc.readlink(f"/sfs/{ca_mount}/{name}")
                    except Exception:  # noqa: BLE001 - a miss is a wrong link
                        got = None
                    self.count("scenario.resolves")
                    if got != target:
                        self.count("scenario.wrong_links")

        for machine, proc in zip(self.kernel_clients, self.kernel_procs):
            self.scheduler.spawn(resolver(proc, machine.hostname),
                                 name=f"resolver-{machine.hostname}")

    def _timeline(self):
        """The driver: sleep to each event's virtual time, apply it."""
        start = self.clock.now
        for event in self.spec.events:
            target = start + event.at
            if target > self.clock.now:
                yield Sleep(target - self.clock.now)
            EVENT_TYPES[event.type].fn(self, event.params)
            self.fired.append({
                "at": round(self.clock.now - start, 9),
                "type": event.type,
            })
            self.count("scenario.events_fired")
        settle = self._settle_time()
        target = start + settle
        if target > self.clock.now:
            yield Sleep(target - self.clock.now)

    def _settle_time(self) -> float:
        """Keep the timeline task alive past every scheduled after-effect
        (restart timers, adversary window closings) so the clock provably
        reaches them before the scheduler drains."""
        settle = 0.0
        for event in self.spec.events:
            tail = event.at
            tail += float(event.params.get("restart_after") or 0.0)
            tail += float(event.params.get("duration") or 0.0)
            settle = max(settle, tail)
        return settle + 0.005

    # -- evaluate ----------------------------------------------------------

    @property
    def total_completed(self) -> int:
        return (sum(report.ops_completed for report in self.reports.values())
                + self.storm_report.ops_completed)

    @property
    def total_errors(self) -> int:
        return (sum(report.op_errors for report in self.reports.values())
                + self.storm_report.op_errors)

    def evaluate(self) -> ScenarioResult:
        from .assertions import CHECKS

        for report in self.reports.values():
            report.finish(self.duration)
        self.storm_report.finish(self.duration)
        outcomes = [
            AssertionOutcome(
                check=entry.check, params=dict(entry.params),
                failures=CHECKS[entry.check].fn(self, entry.params),
            )
            for entry in self.spec.assertions
        ]
        totals = {
            "offered": self.offered_ops,
            "completed": self.total_completed,
            "errors": self.total_errors,
            "events_fired": len(self.fired),
            "duration": round(self.duration, 9),
        }
        digest = self._digest(totals)
        artifact = self._artifact(totals, outcomes, digest)
        return ScenarioResult(
            name=self.spec.name,
            seed=self.spec.seed,
            passed=all(outcome.passed for outcome in outcomes),
            duration=self.duration,
            digest=digest,
            totals=totals,
            assertions=outcomes,
            artifact=artifact,
        )

    def _phase_facts(self) -> dict:
        facts = {
            name: {
                "completed": report.ops_completed,
                "errors": report.op_errors,
                "latency_sum": round(sum(report.latencies), 9),
            }
            for name, report in sorted(self.reports.items())
        }
        if self.storm_report.ops_completed or self.storm_report.op_errors:
            facts["__storm__"] = {
                "completed": self.storm_report.ops_completed,
                "errors": self.storm_report.op_errors,
                "latency_sum": round(sum(self.storm_report.latencies), 9),
            }
        return facts

    def _digest(self, totals: dict) -> str:
        """A fingerprint over *simulated* facts only — never CPU time —
        so the same (spec, seed) digests identically on any machine."""
        facts = {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "events": self.fired,
            "phases": self._phase_facts(),
            "totals": totals,
        }
        encoded = json.dumps(facts, sort_keys=True).encode()
        return hashlib.sha256(encoded).hexdigest()

    def _artifact(self, totals: dict, outcomes, digest: str) -> dict:
        artifact = {
            "meta": {
                "scenario": self.spec.name,
                "description": self.spec.description,
                "seed": self.spec.seed,
            },
            "scenario": {
                "events": self.fired,
                "phases": self._phase_facts(),
                "totals": totals,
                "assertions": [
                    {"check": outcome.check, "params": outcome.params,
                     "passed": outcome.passed,
                     "failures": outcome.failures}
                    for outcome in outcomes
                ],
                "digest": digest,
            },
            "metrics": registry_snapshot(
                self.world.metrics,
                meta={"source": f"scenario:{self.spec.name}"},
            ),
        }
        if self.world.control is not None:
            artifact["control"] = self.world.control.artifact()
        return artifact


def run_scenario(source, seed: int | None = None,
                 out_dir: str | None = None) -> ScenarioResult:
    """Compile and run one scenario; optionally write its artifact.

    *source* is a :class:`ScenarioSpec`, a plain dict, or a path to a
    spec file.  *seed* overrides the spec's seed (the CI matrix runs
    every scenario under several).  With *out_dir*, the run's artifact
    lands at ``<out_dir>/<name>-seed<seed>.json``.
    """
    if isinstance(source, str):
        spec = load_spec(source)
    elif isinstance(source, dict):
        spec = spec_from_dict(source)
    else:
        spec = source
    if seed is not None:
        spec = dataclasses.replace(spec, seed=int(seed))
    runtime = _Runtime(spec)
    runtime.build()
    runtime.run()
    result = runtime.evaluate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{spec.name}-seed{spec.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result.artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        result.artifact_path = path
    return result
