"""Control-plane unit tests: collector, SLO engine, policy actuators.

All sources here are scripted dicts — no Worlds, no RPC — so these
tests pin the *control* behaviour: heartbeat liveness transitions,
windowed SLO arithmetic, and which breach turns into which actuation.
"""

import pytest

from repro.control.collector import Collector
from repro.control.policy import (
    AimdAdmission,
    LoadShedder,
    PolicyEngine,
    ReplicaSteerer,
)
from repro.control.slo import SloEngine, SloSpec
from repro.obs.registry import Histogram, MetricsRegistry
from repro.sim.clock import Clock


def snapshot_of(**metrics):
    """A minimal registry-snapshot dict from keyword instruments."""
    return {"metrics": dict(metrics)}


def hist_snapshot(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram.snapshot()


class ScriptedSource:
    """A reporter whose snapshots (or Nones) are played back in order;
    the last entry repeats forever."""

    def __init__(self, *snapshots):
        self.snapshots = list(snapshots)
        self.pulls = 0

    def __call__(self):
        index = min(self.pulls, len(self.snapshots) - 1)
        self.pulls += 1
        return self.snapshots[index]


# -- collector --------------------------------------------------------------


def test_collector_pulls_sources_into_rings():
    clock = Clock()
    collector = Collector(clock, ring_size=4)
    source = ScriptedSource(snapshot_of(ops=1), snapshot_of(ops=3))
    collector.register("s1", source)
    for _ in range(6):
        clock.advance(0.01)
        collector.tick()
    record = collector.sources["s1"]
    assert len(record.ring) == 4          # bounded, old entries fell off
    assert record.latest["metrics"]["ops"] == 3
    assert record.state == "live"
    assert source.pulls == 6


def test_collector_merges_counters_across_sources():
    clock = Clock()
    collector = Collector(clock)
    collector.register("a", ScriptedSource(snapshot_of(ops=2)))
    collector.register("b", ScriptedSource(snapshot_of(ops=5)))
    clock.advance(0.01)
    merged = collector.tick()
    assert merged["metrics"]["ops"] == 7
    assert merged["meta"]["merged_from"] == 2


def test_missed_heartbeats_mark_stale_then_dead():
    clock = Clock()
    collector = Collector(clock, stale_after=2, dead_after=4)
    source = ScriptedSource(snapshot_of(ops=1), None)
    collector.register("s1", source)
    states = []
    for _ in range(5):
        clock.advance(0.01)
        collector.tick()
        states.append(collector.sources["s1"].state)
    assert states == ["live", "live", "stale", "stale", "dead"]
    # While stale the source still contributed its last snapshot; once
    # it is dead (and it is the only source) nothing contributes.
    assert collector.merged is not None      # the stale-era fleet view
    clock.advance(0.01)
    assert collector.tick() is None


def test_dead_source_excluded_until_it_reports_again():
    clock = Clock()
    collector = Collector(clock, stale_after=1, dead_after=2)
    live = ScriptedSource(snapshot_of(live_ops=1))
    flaky = ScriptedSource(snapshot_of(flaky_ops=9), None, None, None,
                           snapshot_of(flaky_ops=10))
    collector.register("live", live)
    collector.register("flaky", flaky)
    merged_history = []
    for _ in range(5):
        clock.advance(0.01)
        merged_history.append(collector.tick())
    # Ticks 3-4 (indices 2,3): flaky is dead, merged view drops it.
    assert "flaky_ops" in merged_history[1]["metrics"]
    assert "flaky_ops" not in merged_history[3]["metrics"]
    # Tick 5: it reported again — live immediately, back in the view.
    assert collector.sources["flaky"].state == "live"
    assert merged_history[4]["metrics"]["flaky_ops"] == 10


def test_crashing_reporter_counts_as_missed_heartbeat():
    clock = Clock()
    registry = MetricsRegistry()
    collector = Collector(clock, metrics=registry, stale_after=2,
                          dead_after=9)

    def exploding():
        raise RuntimeError("reporter bug")

    collector.register("bad", exploding)
    clock.advance(0.01)
    assert collector.tick() is None       # nothing contributed
    assert collector.sources["bad"].state == "live"   # one miss, not stale
    clock.advance(0.01)
    collector.tick()
    assert collector.sources["bad"].state == "stale"
    assert registry.counter("control.collector.missed_beats").value == 2


def test_duplicate_registration_rejected():
    collector = Collector(Clock())
    collector.register("s1", ScriptedSource(snapshot_of()))
    with pytest.raises(ValueError):
        collector.register("s1", ScriptedSource(snapshot_of()))


def test_boot_during_outage_is_a_flap_not_a_death():
    """A crash+restart between heartbeat pulls is alive-with-reset:
    the boot beacon forgives the missed debt and counts a flap, and the
    collector never marches the source toward dead."""
    clock = Clock()
    collector = Collector(clock, stale_after=2, dead_after=4)
    source = ScriptedSource(snapshot_of(ops=1), None)
    collector.register("s1", source)
    clock.advance(0.01)
    collector.tick()                      # one good pull
    for _ in range(2):                    # down at two pull instants
        clock.advance(0.01)
        collector.tick()
    record = collector.sources["s1"]
    assert record.state == "stale"
    assert record.missed == 2
    collector.notify_boot("s1")           # the machine came back
    assert record.state == "live"
    assert record.missed == 0
    assert record.boots == 1
    assert record.flaps == 1
    # The next good pull keeps it live; no further flap is invented.
    source.snapshots[-1] = snapshot_of(ops=2)
    clock.advance(0.01)
    collector.tick()
    assert record.state == "live"
    assert record.flaps == 1


def test_boot_revives_a_source_already_declared_dead():
    clock = Clock()
    collector = Collector(clock, stale_after=1, dead_after=2)
    source = ScriptedSource(snapshot_of(ops=1), None)
    collector.register("s1", source)
    clock.advance(0.01)
    collector.tick()
    for _ in range(3):
        clock.advance(0.01)
        collector.tick()
    record = collector.sources["s1"]
    assert record.state == "dead"
    collector.notify_boot("s1")
    assert record.state == "live"
    assert record.flaps == 1


def test_boot_with_no_missed_debt_is_not_a_flap():
    """A restart the pull schedule never even noticed — boot arrives
    while the source is live with zero misses — counts as a boot but
    not a flap: there was no outage episode to report."""
    clock = Clock()
    collector = Collector(clock)
    collector.register("s1", ScriptedSource(snapshot_of(ops=1)))
    clock.advance(0.01)
    collector.tick()
    collector.notify_boot("s1")
    record = collector.sources["s1"]
    assert record.boots == 1
    assert record.flaps == 0
    assert record.state == "live"


def test_repeated_flaps_accumulate():
    clock = Clock()
    registry = MetricsRegistry()
    collector = Collector(clock, metrics=registry,
                          stale_after=2, dead_after=4)
    source = ScriptedSource(snapshot_of(ops=1), None)
    collector.register("s1", source)
    clock.advance(0.01)
    collector.tick()
    for _ in range(3):                    # flap / flap / flap
        clock.advance(0.01)
        collector.tick()                  # a missed pull each episode
        collector.notify_boot("s1")
    record = collector.sources["s1"]
    assert record.boots == 3
    assert record.flaps == 3
    assert record.state == "live"
    assert registry.counter("control.collector.boots").value == 3
    assert registry.counter("control.collector.flaps").value == 3


def test_boot_for_unknown_source_is_ignored():
    collector = Collector(Clock())
    collector.notify_boot("never-registered")   # must not raise
    assert "never-registered" not in collector.sources


def test_window_spans_multiple_ticks():
    clock = Clock()
    collector = Collector(clock)
    source = ScriptedSource(*[snapshot_of(ops=n) for n in (10, 20, 40, 80)])
    collector.register("s1", source)
    for _ in range(4):
        clock.advance(1.0)
        collector.tick()
    dt, diff = collector.sources["s1"].window()
    assert dt == pytest.approx(1.0)
    assert diff["metrics"]["ops"] == 40          # 80 - 40
    dt, diff = collector.sources["s1"].window(span=3)
    assert dt == pytest.approx(3.0)
    assert diff["metrics"]["ops"] == 70          # 80 - 10
    # Asking for a longer span than the ring holds uses what exists.
    dt, _diff = collector.sources["s1"].window(span=99)
    assert dt == pytest.approx(3.0)


# -- SLO engine -------------------------------------------------------------


def make_collector(clock, **sources):
    collector = Collector(clock)
    for name, source in sources.items():
        collector.register(name, source)
    return collector


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec("bad", metric="x", reduce="p42")
    with pytest.raises(ValueError):
        SloSpec("bad", metric="x", op="<")
    with pytest.raises(ValueError):
        SloSpec("bad", metric="x", scope="galaxy")
    with pytest.raises(ValueError):
        SloSpec("bad", metric="x", window=0)


def test_windowed_p99_tracks_current_not_cumulative_behaviour():
    clock = Clock()
    slow_then_fast = ScriptedSource(
        snapshot_of(wait=hist_snapshot([0.5] * 100)),
        snapshot_of(wait=hist_snapshot([0.5] * 100 + [0.001] * 100)),
    )
    collector = make_collector(clock, shard=slow_then_fast)
    engine = SloEngine([SloSpec("wait-p99", metric="wait", reduce="p99",
                                threshold=0.1, scope="sources")])
    clock.advance(1.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["wait-p99"]
    assert status.breached                 # only slow ops so far
    clock.advance(1.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["wait-p99"]
    # The window holds only the 100 fast ops; cumulative p99 would
    # still be ~0.5 (half the observations are the old slow ones).
    assert status.observed < 0.1
    assert not status.breached


def test_sources_scope_reports_worst_and_per_source():
    clock = Clock()
    collector = make_collector(
        clock,
        a=ScriptedSource(snapshot_of(depth=2.0)),
        b=ScriptedSource(snapshot_of(depth=9.0)),
    )
    engine = SloEngine([SloSpec("depth", metric="depth", reduce="value",
                                threshold=5.0, scope="sources")])
    clock.advance(1.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["depth"]
    assert status.observed == 9.0
    assert status.worst_source == "b"
    assert status.per_source == {"a": 2.0, "b": 9.0}
    assert status.breached


def test_rate_reduction_divides_by_window():
    clock = Clock()
    collector = make_collector(
        clock, s=ScriptedSource(snapshot_of(rejected=0),
                                snapshot_of(rejected=50)))
    engine = SloEngine([SloSpec("reject-rate", metric="rejected",
                                reduce="rate", threshold=10.0,
                                scope="merged")])
    clock.advance(2.0)
    collector.tick()
    clock.advance(2.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["reject-rate"]
    assert status.observed == pytest.approx(25.0)   # 50 rejects / 2 s
    assert status.breached


def test_gauge_peak_reduction_and_glob_matching():
    clock = Clock()
    collector = make_collector(clock, s=ScriptedSource(snapshot_of(**{
        "q.a.depth": {"type": "gauge", "value": 1.0, "peak": 7.0},
        "q.b.depth": {"type": "gauge", "value": 2.0, "peak": 3.0},
    })))
    engine = SloEngine([SloSpec("peak-depth", metric="q.*.depth",
                                reduce="peak", threshold=5.0,
                                scope="merged")])
    clock.advance(1.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["peak-depth"]
    assert status.observed == 7.0          # worst across the glob
    assert status.breached


def test_events_record_transitions_not_every_tick():
    clock = Clock()
    source = ScriptedSource(
        snapshot_of(depth=9.0), snapshot_of(depth=9.0),
        snapshot_of(depth=1.0), snapshot_of(depth=1.0),
    )
    collector = make_collector(clock, s=source)
    registry = MetricsRegistry()
    engine = SloEngine([SloSpec("depth", metric="depth", reduce="value",
                                threshold=5.0)], metrics=registry)
    for _ in range(4):
        clock.advance(1.0)
        collector.tick()
        engine.evaluate(collector, clock.now)
    events = [(event["event"], event["slo"]) for event in engine.events]
    assert events == [("breach", "depth"), ("recovered", "depth")]
    assert registry.family(
        "control.slo.breach_ticks").labels("depth").value == 2
    assert registry.gauge("control.slo.depth.healthy").value == 1.0


def test_no_data_is_vacuously_healthy():
    clock = Clock()
    collector = make_collector(clock, s=ScriptedSource(snapshot_of()))
    engine = SloEngine([SloSpec("missing", metric="nope", reduce="value",
                                threshold=1.0)])
    clock.advance(1.0)
    collector.tick()
    status = engine.evaluate(collector, clock.now)["missing"]
    assert status.observed is None
    assert status.healthy and not status.breached


def test_duplicate_slo_name_rejected():
    engine = SloEngine([SloSpec("x", metric="m")])
    with pytest.raises(ValueError):
        engine.add(SloSpec("x", metric="other"))


# -- policy actuators -------------------------------------------------------


class FakeQueue:
    def __init__(self, max_depth):
        self.max_depth = max_depth

    def set_max_depth(self, depth):
        self.max_depth = max(1, int(depth))
        return self.max_depth


def evaluate(specs, collector, clock):
    return SloEngine(specs).evaluate(collector, clock.now)


def breach_statuses(clock, latency_by_source, rejects_by_source):
    """Statuses for one tick from scripted per-source values."""
    sources = {
        name: ScriptedSource(snapshot_of(
            lat=latency_by_source.get(name, 0.0),
            rej={"type": "gauge", "value": rejects_by_source.get(name, 0.0),
                 "peak": rejects_by_source.get(name, 0.0)},
        ))
        for name in set(latency_by_source) | set(rejects_by_source)
    }
    collector = make_collector(clock, **sources)
    clock.advance(1.0)
    collector.tick()
    specs = [
        SloSpec("lat", metric="lat", reduce="value", threshold=0.05,
                scope="sources"),
        SloSpec("rej", metric="rej", reduce="value", threshold=0.5,
                scope="sources"),
    ]
    return evaluate(specs, collector, clock), collector


def test_aimd_additive_increase_on_rejects():
    clock = Clock()
    statuses, collector = breach_statuses(
        clock, latency_by_source={"s1": 0.2}, rejects_by_source={"s1": 5.0})
    queue = FakeQueue(max_depth=4)
    aimd = AimdAdmission({"s1": queue}, latency_slo="lat", reject_slo="rej",
                         increase=2)
    actions = aimd.actuate(clock.now, statuses, collector)
    # Rejecting outranks the latency breach: grow, don't shrink.
    assert queue.max_depth == 6
    assert actions[0].action == "max_depth" and actions[0].value == 6
    # Ceiling (4x initial) caps the growth.
    for _ in range(20):
        aimd.actuate(clock.now, statuses, collector)
    assert queue.max_depth == 16


def test_aimd_multiplicative_decrease_on_latency_only():
    clock = Clock()
    statuses, collector = breach_statuses(
        clock, latency_by_source={"s1": 0.2}, rejects_by_source={"s1": 0.0})
    queue = FakeQueue(max_depth=16)
    aimd = AimdAdmission({"s1": queue}, latency_slo="lat", reject_slo="rej",
                         decrease=0.5, floor=3)
    aimd.actuate(clock.now, statuses, collector)
    assert queue.max_depth == 8
    for _ in range(5):
        aimd.actuate(clock.now, statuses, collector)
    assert queue.max_depth == 3            # floored, not zero


def test_aimd_healthy_shard_untouched():
    clock = Clock()
    statuses, collector = breach_statuses(
        clock, latency_by_source={"s1": 0.01}, rejects_by_source={"s1": 0.0})
    queue = FakeQueue(max_depth=8)
    aimd = AimdAdmission({"s1": queue}, latency_slo="lat", reject_slo="rej")
    assert aimd.actuate(clock.now, statuses, collector) == []
    assert queue.max_depth == 8


def test_load_shedder_fast_attack_slow_release():
    clock = Clock()
    breach, collector = breach_statuses(
        clock, latency_by_source={"s1": 0.2}, rejects_by_source={})
    healthy, _ = breach_statuses(
        Clock(), latency_by_source={"s1": 0.01}, rejects_by_source={})

    class Target:
        scale = 1.0

        def set_think_scale(self, scale):
            self.scale = scale

    target = Target()
    shedder = LoadShedder([target], slo="lat", step=2.0, max_scale=8.0)
    for _ in range(5):
        shedder.actuate(clock.now, breach, collector)
    assert target.scale == 8.0             # clamped at max
    shedder.actuate(clock.now, healthy, collector)
    assert 1.0 < target.scale < 8.0        # eased, but gently
    assert shedder.ease < shedder.step
    # Fully healthy for long enough returns to exactly 1.0.
    for _ in range(50):
        shedder.actuate(clock.now, healthy, collector)
    assert target.scale == 1.0


def test_load_shedder_no_signal_no_action():
    shedder = LoadShedder([], slo="lat")
    assert shedder.actuate(0.0, {}, None) == []


def test_replica_steerer_biases_and_clears():
    clock = Clock()

    class FakeSet:
        def __init__(self, members):
            self.members = members
            self.biases = {}

        def set_steering_bias(self, name, bias):
            if name not in self.members:
                raise KeyError(name)
            self.biases[name] = bias

    replica_set = FakeSet({"m0", "m1"})
    steerer = ReplicaSteerer([replica_set], slo="lat", bias=0.1)
    breach, collector = breach_statuses(
        clock, latency_by_source={"m0": 0.2, "m1": 0.01},
        rejects_by_source={})
    actions = steerer.actuate(clock.now, breach, collector)
    assert replica_set.biases == {"m0": 0.1}
    assert [a.target for a in actions] == ["m0"]
    # Same state next tick: no repeat actions (edge-triggered).
    assert steerer.actuate(clock.now, breach, collector) == []
    healthy, _ = breach_statuses(
        Clock(), latency_by_source={"m0": 0.01, "m1": 0.01},
        rejects_by_source={})
    steerer.actuate(clock.now, healthy, collector)
    assert replica_set.biases == {"m0": 0.0}
    # A source that is not a member of any set is ignored.
    stranger, _ = breach_statuses(
        Clock(), latency_by_source={"elsewhere": 0.9}, rejects_by_source={})
    assert steerer.actuate(clock.now, stranger, collector) == []


def test_policy_engine_logs_actions_and_counts_by_actuator():
    clock = Clock()
    statuses, collector = breach_statuses(
        clock, latency_by_source={"s1": 0.2}, rejects_by_source={"s1": 5.0})
    registry = MetricsRegistry()
    queue = FakeQueue(max_depth=4)
    engine = PolicyEngine(
        [AimdAdmission({"s1": queue}, latency_slo="lat", reject_slo="rej")],
        metrics=registry,
    )
    actions = engine.actuate(clock.now, statuses, collector)
    assert len(actions) == 1 and len(engine.actions) == 1
    assert registry.family("control.policy.actions").labels(
        "aimd-admission").value == 1
    assert engine.artifact()[0]["actuator"] == "aimd-admission"
