"""The ControlPlane: one daemon task running see → judge → steer.

``World.enable_control()`` creates one of these per World.  From then
on every machine the world builds gets a **per-source registry**: its
instruments write through a :class:`~repro.obs.registry.TeeRegistry`
to both the world-wide registry (so every existing consumer — benches,
tests, exporters — sees exactly what it always saw) and a private
per-machine registry the collector snapshots over the heartbeat.

The plane's daemon task wakes every ``period`` virtual seconds and runs
one tick:

1. **collect** — pull every source's heartbeat into its ring
   (:class:`~repro.control.collector.Collector`);
2. **judge** — evaluate the declared SLOs against the fresh state
   (:class:`~repro.control.slo.SloEngine`);
3. **steer** — let the actuators adjust admission depths, replica
   biases, and offered load (:class:`~repro.control.policy.PolicyEngine`).

Order matters within a World's setup: call ``enable_control()``
*before* building the machines whose metrics should be teed — adoption
of a pre-existing machine still gives it a heartbeat (liveness
tracking works), but its instruments were already bound to the world
registry and cannot be re-homed.

A note on liveness semantics: a server's heartbeat reporter returns
``None`` while ``master.down`` — exactly the window between
:meth:`crash` and :meth:`restart` — so the collector's stale/dead
marking is driven by the same crash machinery every other subsystem
reacts to, not by a separate failure model.
"""

from __future__ import annotations

from ..obs.export import registry_snapshot
from ..obs.registry import MetricsRegistry
from ..sim.sched import Sleep
from .collector import Collector
from .policy import PolicyAction, PolicyEngine
from .slo import SloEngine, SloSpec


class ControlPlane:
    """Collector + SLO engine + policy engine on one virtual-clock loop."""

    def __init__(self, world, period: float = 0.010, ring_size: int = 64,
                 stale_after: int = 2, dead_after: int = 5) -> None:
        if period <= 0:
            raise ValueError("control period must be positive")
        self.world = world
        self.period = period
        self.collector = Collector(
            world.clock, metrics=world.metrics, ring_size=ring_size,
            stale_after=stale_after, dead_after=dead_after,
        )
        self.slos = SloEngine(metrics=world.metrics)
        self.policy = PolicyEngine(metrics=world.metrics)
        self._started = False

    # -- source adoption ---------------------------------------------------

    def new_registry(self) -> MetricsRegistry:
        """A fresh per-source registry."""
        return MetricsRegistry()

    def adopt_server(self, machine) -> None:
        """Heartbeat a ServerMachine; down masters miss their beats."""
        if machine.location in self.collector.sources:
            return      # route() aliases can list one machine twice
        registry = getattr(machine, "registry", None)
        if registry is None:
            registry = machine.registry = self.new_registry()
        meta = {"source": machine.location, "kind": "server"}

        def report() -> dict | None:
            if machine.master.down:
                return None
            return registry_snapshot(registry, meta=meta)

        self.collector.register(machine.location, report, kind="server")
        # The boot beacon: a restart between (or straddling) heartbeat
        # pulls clears missed-beat debt instead of marching the source
        # toward dead — a flapping machine is alive-with-reset.
        name = machine.location
        machine.master.restart_hooks.append(
            lambda: self.collector.notify_boot(name)
        )

    def adopt_client(self, machine) -> None:
        """Heartbeat a ClientMachine (no crash model: always live)."""
        if machine.hostname in self.collector.sources:
            return
        registry = getattr(machine, "registry", None)
        if registry is None:
            registry = machine.registry = self.new_registry()
        meta = {"source": machine.hostname, "kind": "client"}

        def report() -> dict:
            return registry_snapshot(registry, meta=meta)

        self.collector.register(machine.hostname, report, kind="client")

    # -- configuration -----------------------------------------------------

    def add_slo(self, spec: SloSpec) -> SloSpec:
        return self.slos.add(spec)

    def add_actuator(self, actuator):
        return self.policy.add(actuator)

    # -- the loop ----------------------------------------------------------

    def tick(self) -> list[PolicyAction]:
        """One full control iteration; also callable directly in tests."""
        t = self.world.clock.now
        self.collector.tick()
        statuses = self.slos.evaluate(self.collector, t)
        return self.policy.actuate(t, statuses, self.collector)

    def start(self) -> None:
        """Spawn the control loop as a daemon task (idempotent)."""
        if self._started:
            return

        def loop():
            while True:
                yield Sleep(self.period)
                self.tick()

        self.world.scheduler.spawn(loop(), name="control-plane",
                                   daemon=True)
        self._started = True

    # -- reporting ---------------------------------------------------------

    def artifact(self) -> dict:
        """The fleet-level JSON artifact: per-source + merged snapshots,
        SLO statuses/events, and the policy action log."""
        return {
            "period": self.period,
            "collector": self.collector.artifact(),
            "slo": self.slos.artifact(),
            "actions": self.policy.artifact(),
        }
