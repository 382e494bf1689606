"""The ``bench control`` figure: a hot shard, with and without the loop.

Topology: 16 closed-loop clients against a 4-shard fleet where one
shard is deliberately **hot** — its per-request service time is several
times its siblings' and most of the client population is pinned to
names it owns.  Unmanaged, the hot shard's bounded queue saturates:
admission control sheds arrivals as SERVER_BUSY, clients burn backoff
retries, and the fleet p99 is the hot shard's misery.

The managed run builds the identical world (same seed, same topology,
same client scripts) and closes the loop: the control plane's
collector pulls every shard's per-source registry each period, the SLO
engine watches windowed wait-time p99 and busy-reject rate per shard,
and two actuators respond —

* :class:`~repro.control.policy.LoadShedder` raises the clients'
  think-time multiplier while the fleet latency SLO breaches (and
  eases it back when it recovers);
* :class:`~repro.control.policy.AimdAdmission` retunes each shard's
  queue depth, shrinking it while that shard's latency breaches and
  re-growing it while the shard rejects with healthy latency.

The clients are the client engine (:class:`~repro.load.LoadHarness`),
one target per client; its report's per-location slices are the shard
rows.  Acceptance is comparative and deterministic per seed: the
managed run must beat the unmanaged one on *both* fleet p99 and
busy-rejects.  The figure also emits the fleet-level artifact —
per-source and merged snapshots, SLO breach events, and the policy
action log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..control.policy import AimdAdmission, LoadShedder
from ..control.slo import SloSpec
from ..kernel.world import World
from ..load.harness import LoadConfig, LoadHarness, LoadReport
from .fleet import data_target, provision_data

#: The figure's clients and the (cold) shards' queues.
CONTROL_LOAD = LoadConfig(clients=16, ops_per_client=30, think_time=0.002,
                          service_time=0.004, max_depth=6)


@dataclass
class ControlConfig:
    """One hot-shard run; the managed/unmanaged pair shares one config."""

    load: LoadConfig = field(default_factory=lambda: replace(CONTROL_LOAD))
    servers: int = 4
    names: int = 24
    #: The hot shard serves this many times slower than its siblings.
    hot_factor: float = 4.0
    #: Clients pinned to hot-shard names (the rest spread elsewhere).
    hot_clients: int = 10
    # -- the control loop --
    period: float = 0.020
    #: Per-shard windowed wait-seconds p99 objective.
    wait_p99_slo: float = 0.025
    #: Per-shard busy-reject rate objective (rejects per second).
    reject_rate_slo: float = 0.5
    slo_window: int = 5
    shed_step: float = 2.0
    shed_max: float = 64.0
    aimd_increase: int = 2
    aimd_decrease: float = 0.5
    aimd_floor: int = 2


class ControlBench:
    """One hot-shard world; ``controlled`` decides if the loop closes."""

    def __init__(self, config: ControlConfig, controlled: bool) -> None:
        load = config.load
        self.config = config
        self.controlled = controlled
        self.world = World(seed=load.seed)
        # Control first: machines built afterwards get per-source tee
        # registries, which is what makes scope="sources" SLOs real.
        self.plane = self.world.enable_control(
            period=config.period,
            ring_size=max(64, 4 * config.slo_window),
        )
        self.fleet = self.world.add_fleet(config.servers)
        self.names = [f"proj{index:02d}" for index in range(config.names)]
        provision_data(self.fleet, self.names)
        self.hot_shard = self._pick_hot_shard()
        self.queues = {shard.location: shard.server.master.request_queue
                       for shard in self.fleet.shards}
        for location, queue in self.queues.items():
            queue.configure(
                max_depth=load.max_depth, workers=load.workers,
                service_time=(load.service_time * config.hot_factor
                              if location == self.hot_shard
                              else load.service_time),
            )
        self._declare_slos()
        self.harness = LoadHarness(load, world=self.world, targets=[
            data_target(self.fleet, name) for name in self._client_names()
        ])
        if controlled:
            self._attach_actuators()

    def _pick_hot_shard(self) -> str:
        """The shard owning the most names heats up (ties: first by
        location sort) — determinism needs no coin flips here."""
        counts = self.fleet.placement()
        return max(sorted(counts), key=lambda loc: counts[loc])

    def _declare_slos(self) -> None:
        config = self.config
        self.plane.add_slo(SloSpec(
            "shard-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="sources",
            window=config.slo_window,
            description="windowed queue-wait p99, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "shard-busy-rate", metric="server.queue.rejected",
            reduce="rate", threshold=config.reject_rate_slo,
            scope="sources", window=config.slo_window,
            description="busy-reject rate, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "fleet-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="merged",
            window=config.slo_window,
            description="windowed queue-wait p99, fleet-merged",
        ))

    def _attach_actuators(self) -> None:
        config = self.config
        self.plane.add_actuator(LoadShedder(
            [self.harness], slo="fleet-wait-p99", step=config.shed_step,
            max_scale=config.shed_max,
        ))
        self.plane.add_actuator(AimdAdmission(
            self.queues, latency_slo="shard-wait-p99",
            reject_slo="shard-busy-rate", increase=config.aimd_increase,
            decrease=config.aimd_decrease, floor=config.aimd_floor,
        ))

    def _client_names(self) -> list[str]:
        """Per-client name assignment: ``hot_clients`` of them pinned
        to hot-shard names, the rest round-robin over the cold ones."""
        hot_names = [name for name in self.names
                     if self.fleet.assignments[name] == self.hot_shard]
        cold_names = [name for name in self.names
                      if self.fleet.assignments[name] != self.hot_shard]
        if not cold_names:          # degenerate placement: all hot
            cold_names = hot_names
        clients = self.config.load.clients
        hot_clients = min(self.config.hot_clients, clients)
        return [hot_names[index % len(hot_names)] if index < hot_clients
                else cold_names[index % len(cold_names)]
                for index in range(clients)]

    def run(self) -> "ControlRun":
        report = self.harness.run_closed_loop()
        placement = self.fleet.placement()
        shards = []
        for shard in self.fleet.shards:
            where = report.locations.get(shard.location,
                                         LoadReport(clients=0))
            shards.append({
                "location": shard.location,
                "hot": shard.location == self.hot_shard,
                "names": placement[shard.location],
                "clients": where.clients, "ops": where.ops_completed,
                "p99_ms": where.p99 * 1000,
                "busy_rejects": where.admission_rejects,
                "peak_queue_depth": where.max_queue_depth,
                "final_max_depth": self.queues[shard.location].max_depth,
            })
        return ControlRun(
            controlled=self.controlled, hot_shard=self.hot_shard,
            report=report, shards=shards,
            final_think_scale=self.harness.think_scale,
            policy_actions=len(self.plane.policy.actions),
            slo_events=len(self.plane.slos.events),
        )


@dataclass
class ControlRun:
    """One run's outcome: the engine's report plus the loop's state."""

    controlled: bool
    hot_shard: str
    report: LoadReport
    shards: list[dict]
    final_think_scale: float
    policy_actions: int
    slo_events: int

    def summary(self) -> dict:
        report = self.report
        return {
            "controlled": self.controlled,
            "hot_shard": self.hot_shard,
            "ops_completed": report.ops_completed,
            "op_errors": report.op_errors,
            "busy_rejects": report.admission_rejects,
            "busy_retries": report.busy_retries,
            "p50_ms": report.p50 * 1000,
            "p95_ms": report.p95 * 1000,
            "p99_ms": report.p99 * 1000,
            "throughput": report.throughput,
            "final_think_scale": self.final_think_scale,
            "policy_actions": self.policy_actions,
            "slo_events": self.slo_events,
            "shards": self.shards,
        }


def run_control_comparison(config: ControlConfig
                           ) -> tuple[ControlRun, ControlRun, dict]:
    """(unmanaged, managed, artifact): the same world twice, the second
    time with the actuators attached.  Both runs carry the collector
    and SLO engine so the artifact can show the baseline breaching."""
    baseline = ControlBench(config, controlled=False).run()
    managed_bench = ControlBench(config, controlled=True)
    managed = managed_bench.run()
    artifact = managed_bench.plane.artifact()
    load = config.load
    artifact["summary"] = {
        "config": {
            "servers": config.servers, "clients": load.clients,
            "ops_per_client": load.ops_per_client, "seed": load.seed,
            "hot_factor": config.hot_factor,
            "hot_clients": config.hot_clients,
            "max_depth": load.max_depth, "period": config.period,
        },
        "baseline": baseline.summary(),
        "managed": managed.summary(),
    }
    return baseline, managed, artifact
