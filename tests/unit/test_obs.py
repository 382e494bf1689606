"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Tracer,
)
from repro.obs.export import (
    SnapshotCollector,
    format_metrics,
    format_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.obs.trace import LAYERS, Attribution
from repro.sim.clock import Clock
from repro.sim.disk import Disk


# --- registry instruments ----------------------------------------------------

def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("rpc.calls")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = registry.gauge("queue.depth")
    gauge.set(3)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 2


def test_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.family("f") is registry.family("f")


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_histogram_buckets_are_deterministic():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    assert histogram.bounds == DEFAULT_BUCKETS
    histogram.observe(0.5e-6)   # below first bound -> bucket 0
    histogram.observe(1e-6)     # == first bound (inclusive) -> bucket 0
    histogram.observe(3e-6)     # -> bucket 1 (bound 4e-6)
    histogram.observe(1e9)      # beyond every bound -> overflow
    assert histogram.count == 4
    assert histogram.bucket_counts[0] == 2
    assert histogram.bucket_counts[1] == 1
    assert histogram.bucket_counts[-1] == 1
    assert histogram.mean == pytest.approx(
        (0.5e-6 + 1e-6 + 3e-6 + 1e9) / 4
    )
    snap = histogram.snapshot()
    assert snap["type"] == "histogram"
    assert snap["buckets"][-1] == [None, 1]


def test_counter_family_keeps_raw_label_keys():
    registry = MetricsRegistry()
    family = registry.family("rpc.peer.x.calls")
    family.labels((100003, 4)).inc()
    family.labels((100003, 4)).inc()
    family.labels((100003, 7)).inc()
    assert dict(family.items()) != {}
    assert {key: c.value for key, c in family.items()} == {
        (100003, 4): 2, (100003, 7): 1,
    }
    assert family.total() == 3
    assert family.snapshot() == {
        "type": "family",
        "values": {"(100003, 4)": 2, "(100003, 7)": 1},
    }


def test_scope_uniquifies_prefixes():
    registry = MetricsRegistry()
    first = registry.scope("rpc.peer.redialed")
    second = registry.scope("rpc.peer.redialed")
    assert first.prefix == "rpc.peer.redialed"
    assert second.prefix == "rpc.peer.redialed#2"
    first.counter("calls").inc()
    second.counter("calls").inc(2)
    metrics = registry.snapshot()["metrics"]
    assert metrics["rpc.peer.redialed.calls"] == 1
    assert metrics["rpc.peer.redialed#2.calls"] == 2


def test_scopes_nest():
    registry = MetricsRegistry()
    inner = registry.scope("a").scope("b")
    inner.counter("c").inc()
    assert registry.snapshot()["metrics"] == {"a.b.c": 1}


def test_snapshot_is_json_serializable_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z").inc()
    registry.counter("a").inc()
    registry.histogram("h").observe(0.001)
    registry.family("f").labels("k").inc()
    snapshot = registry.snapshot()
    json.dumps(snapshot)  # must not raise
    assert list(snapshot["metrics"]) == sorted(snapshot["metrics"])


# --- the disabled configuration ----------------------------------------------

def test_null_registry_is_inert():
    assert NULL_REGISTRY.enabled is False
    counter = NULL_REGISTRY.counter("anything")
    counter.inc()
    counter.inc(100)
    assert counter.value == 0
    NULL_REGISTRY.histogram("h").observe(1.0)
    NULL_REGISTRY.family("f").labels("x").inc()
    assert NULL_REGISTRY.scope("p") is NULL_REGISTRY
    assert NULL_REGISTRY.snapshot() == {"metrics": {}}
    assert isinstance(NullRegistry(), NullRegistry)


# --- attribution windows -----------------------------------------------------

class _Ticks:
    """A host clock that moves only when told to."""

    def __init__(self, monkeypatch) -> None:
        self.now = 0.0
        monkeypatch.setattr("time.perf_counter", lambda: self.now)

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _Stack:
    """Stand-ins for a stack's layers: each spends host time on ticks."""

    def rpc(self, ticks, inner=True):
        ticks.advance(2.0)
        if inner:
            self.crypto(ticks)
        ticks.advance(4.0)

    def crypto(self, ticks):
        ticks.advance(3.0)
        self.crypto_again(ticks)

    def crypto_again(self, ticks):
        ticks.advance(1.0)

    def network(self, ticks):
        ticks.advance(1.0)
        got = yield "waiting"
        ticks.advance(2.0)
        return got


_BOUNDARIES = tuple((layer, f"{__name__}._Stack.{name}") for layer, name in (
    ("rpc", "rpc"), ("crypto", "crypto"), ("crypto", "crypto_again"),
    ("network", "network")))


def _host(**seconds):
    return {layer: seconds.get(layer, 0.0) for layer in LAYERS}


def test_attribution_charges_nested_time_exclusively(monkeypatch):
    ticks = _Ticks(monkeypatch)
    with Attribution(_BOUNDARIES, Clock()) as window:
        ticks.advance(1.0)            # no boundary open: other
        _Stack().rpc(ticks)           # rpc 2 + 4; crypto 3, and 1 folded
        ticks.advance(0.5)            # other again
    assert window.host == _host(rpc=6.0, crypto=4.0, other=1.5)
    # Exclusive components sum to the elapsed window.
    assert sum(window.host.values()) == 11.5


def test_attribution_charges_a_generator_per_resumption(monkeypatch):
    ticks = _Ticks(monkeypatch)
    with Attribution(_BOUNDARIES, Clock()) as window:
        task = _Stack().network(ticks)
        assert next(task) == "waiting"        # network 1
        ticks.advance(5.0)                    # suspended: not network's
        with pytest.raises(StopIteration) as done:
            task.send("reply")                # network 2
    assert done.value.value == "reply"
    assert window.host == _host(network=3.0, other=5.0)


def test_attribution_forwards_what_is_thrown_into_a_generator(monkeypatch):
    ticks = _Ticks(monkeypatch)
    with Attribution(_BOUNDARIES, Clock()) as window:
        task = _Stack().network(ticks)
        next(task)
        with pytest.raises(KeyError):
            task.throw(KeyError("lost"))
    assert window.host == _host(network=1.0)


class _Busy:
    """Spends real host time where _Ticks would advance."""

    def advance(self, seconds: float) -> None:
        sum(range(20000))


def test_attribution_host_split_sums_to_elapsed_cpu():
    import time
    cpu_start = time.perf_counter()
    with Attribution(_BOUNDARIES, Clock()) as window:
        _Stack().rpc(_Busy())
        sum(range(20000))
    elapsed = time.perf_counter() - cpu_start
    assert sum(window.host.values()) == pytest.approx(elapsed, rel=0.25,
                                                      abs=5e-3)
    assert window.host["crypto"] > 0
    assert window.host["rpc"] > 0
    assert window.host["other"] > 0


def test_attribution_unwraps_every_boundary_even_when_the_workload_raises():
    originals = {name: vars(_Stack)[name]
                 for name in ("rpc", "crypto", "crypto_again", "network")}
    with pytest.raises(RuntimeError):
        with Attribution(_BOUNDARIES, Clock()):
            assert all(vars(_Stack)[name] is not fn
                       for name, fn in originals.items())
            raise RuntimeError("workload failed")
    assert all(vars(_Stack)[name] is fn for name, fn in originals.items())


def test_attribution_with_a_stale_boundary_wraps_nothing():
    original = vars(_Stack)["rpc"]
    stale = _BOUNDARIES + (("rpc", f"{__name__}._Stack.renamed"),)
    with pytest.raises(AttributeError):
        with Attribution(stale, Clock()):
            pass
    assert vars(_Stack)["rpc"] is original


def test_attribution_windows_in_a_row_do_not_leak(monkeypatch):
    ticks = _Ticks(monkeypatch)
    stack = _Stack()
    with Attribution(_BOUNDARIES, Clock()) as first:
        task = stack.network(ticks)
        next(task)                            # first window: network 1
    assert first.host == _host(network=1.0)
    with Attribution(_BOUNDARIES, Clock()) as second:
        stack.rpc(ticks, inner=False)         # rpc 6
        with pytest.raises(StopIteration):
            task.send(None)                   # first's wrapper: other 2
    assert first.host == _host(network=1.0)
    assert second.host == _host(rpc=6.0, other=2.0)


def test_attribution_virtual_split_is_disk_bookings_and_the_rest():
    clock = Clock()
    disk = Disk(clock)
    disk.start_call()
    disk.read(0, 8192)                        # booked before the window
    clock.advance(disk.finish_call())
    with Attribution((), clock, [disk]) as window:
        disk.start_call()
        disk.read(100, 8192)
        disk.sync()
        done = disk.finish_call()
        clock.advance(done + 0.25)            # the reply on the wire
    params = disk.params
    booked = 2 * (params.average_seek + params.rotational_latency) \
        + 8192 / params.transfer_rate
    assert done == pytest.approx(booked)
    assert window.virtual == pytest.approx({"disk": booked, "network": 0.25})
    assert window.host["crypto"] == 0.0


def test_registry_snapshot_has_no_layers():
    registry = MetricsRegistry()
    registry.counter("rpc.calls").inc()
    assert registry.snapshot() == {"metrics": {"rpc.calls": 1}}


def test_attribution_table_renders_one_row_per_clock():
    from repro.bench.__main__ import _attribution_table

    text = _attribution_table("Figure 5", {"SFS": {
        "host": {"headline_seconds": 2.0,
                 "layers": _host(crypto=0.5, rpc=1.5)},
        "virtual": {"headline_seconds": 3.0,
                    "layers": {"network": 2.25, "disk": 0.75}},
    }})
    header = text.splitlines()[1].split()
    assert header == ["File", "system", "clock", *LAYERS, "sum", "headline"]
    host, virtual = text.splitlines()[3:]
    assert host.split()[1:] == ["host", "0.500", "1.500", "0.000", "0.000",
                                "0.000", "0.000", "2.000", "2.000"]
    assert virtual.split()[1:] == ["virtual", "-", "-", "-", "2.250",
                                   "0.750", "-", "3.000", "3.000"]


# --- tracer ------------------------------------------------------------------

def test_tracer_nests_spans():
    clock = Clock()
    tracer = Tracer(clock)
    with tracer.span("outer", kind="test"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(2.0)
    (outer,) = tracer.roots
    assert outer.name == "outer"
    assert outer.tags == {"kind": "test"}
    (inner,) = outer.children
    # Inclusive times: the parent covers the child.
    assert outer.sim_seconds == pytest.approx(3.0)
    assert inner.sim_seconds == pytest.approx(2.0)
    dicts = tracer.to_dicts()
    assert dicts[0]["name"] == "outer"
    assert dicts[0]["children"][0]["name"] == "inner"
    json.dumps(dicts)


def test_tracer_measure_returns_finished_span():
    tracer = Tracer()
    span = tracer.measure("work", lambda: sum(range(1000)))
    assert span.cpu_seconds >= 0
    assert span.total == span.cpu_seconds + span.sim_seconds
    assert tracer.roots == [span]


# --- exporter ----------------------------------------------------------------

def test_snapshot_round_trips_through_json(tmp_path):
    registry = MetricsRegistry()
    registry.counter("rpc.calls").inc(3)
    path = tmp_path / "snap.json"
    written = write_snapshot(str(path), registry, meta={"figure": "fig5"})
    loaded = load_snapshot(str(path))
    assert loaded == written
    assert loaded["meta"] == {"figure": "fig5"}
    assert loaded["metrics"]["rpc.calls"] == 3


def test_snapshot_collector_gathers_named_runs(tmp_path):
    collector = SnapshotCollector()
    for name in ("fig5/SFS", "fig5/NFS 3 (UDP)"):
        registry = MetricsRegistry()
        registry.counter("rpc.calls").inc()
        collector.add(name, registry, meta={"config": name})
    path = tmp_path / "collection.json"
    collector.write(str(path))
    loaded = load_snapshot(str(path))
    assert set(loaded["snapshots"]) == {"fig5/SFS", "fig5/NFS 3 (UDP)"}
    assert loaded["snapshots"]["fig5/SFS"]["metrics"]["rpc.calls"] == 1


def test_format_snapshot_renders_every_instrument_kind():
    registry = MetricsRegistry()
    registry.counter("rpc.calls").inc(7)
    registry.histogram("rpc.call_seconds").observe(0.001)
    registry.family("rpc.peer.x.calls").labels((100003, 4)).inc()
    text = format_snapshot(
        registry.snapshot() | {"meta": {"figure": "fig5"}},
        heading="fig5/SFS",
    )
    assert "=== fig5/SFS ===" in text
    assert "meta: figure = fig5" in text
    assert "rpc.calls" in text
    assert "count=1" in text                       # histogram summary
    assert "rpc.peer.x.calls{(100003, 4)}" in text  # family row


def test_obs_cli_renders_both_shapes(tmp_path, capsys):
    from repro.obs.__main__ import main

    registry = MetricsRegistry()
    registry.counter("rpc.calls").inc()
    single = tmp_path / "single.json"
    write_snapshot(str(single), registry)
    assert main([str(single)]) == 0
    assert "rpc.calls" in capsys.readouterr().out

    collector = SnapshotCollector()
    collector.add("run-a", registry)
    collector.add("run-b", registry)
    collection = tmp_path / "collection.json"
    collector.write(str(collection))
    assert main([str(collection)]) == 0
    out = capsys.readouterr().out
    assert "=== run-a ===" in out and "=== run-b ===" in out


# --- histogram quantiles -------------------------------------------------

from bisect import bisect_left  # noqa: E402

from repro.obs.registry import Histogram  # noqa: E402


def test_quantile_empty_histogram_is_zero():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    assert histogram.quantile(0.5) == 0.0


def test_quantile_rejects_out_of_range():
    histogram = Histogram("h", bounds=(1.0,))
    for q in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            histogram.quantile(q)


def test_quantile_interpolates_within_bucket():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    # 4 observations, all landing in the (1, 2] bucket.
    for value in (1.2, 1.4, 1.6, 1.8):
        histogram.observe(value)
    # Median rank 2 of 4 → halfway through the bucket's span.
    assert histogram.quantile(0.5) == pytest.approx(1.5)
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_quantile_first_bucket_interpolates_from_zero():
    histogram = Histogram("h", bounds=(1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(0.6)
    assert histogram.quantile(0.5) == pytest.approx(0.5)


def test_quantile_walks_cumulative_counts():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for _ in range(90):
        histogram.observe(0.5)      # bucket (0, 1]
    for _ in range(10):
        histogram.observe(3.0)      # bucket (2, 4]
    # p50 falls well inside the first bucket...
    assert histogram.quantile(0.50) <= 1.0
    # ...while p95 lands in the (2, 4] tail bucket.
    assert 2.0 < histogram.quantile(0.95) <= 4.0


def test_quantile_overflow_reports_last_finite_bound():
    histogram = Histogram("h", bounds=(1.0, 2.0))
    histogram.observe(100.0)
    assert histogram.quantile(0.99) == pytest.approx(2.0)


def test_quantile_tracks_exact_percentiles_within_bucket_width():
    """The estimator against ground truth: for a spread of samples the
    interpolated p95 must land within one bucket's span of the exact
    nearest-rank value."""
    import random

    rng = random.Random(11)
    histogram = Histogram("h")  # default exponential buckets
    samples = [rng.uniform(0.0001, 0.05) for _ in range(500)]
    for sample in samples:
        histogram.observe(sample)
    exact = sorted(samples)[int(0.95 * len(samples)) - 1]
    estimate = histogram.quantile(0.95)
    index = bisect_left(histogram.bounds, exact)
    lo = histogram.bounds[index - 1] if index else 0.0
    hi = histogram.bounds[index]
    assert lo <= estimate <= hi


def test_snapshot_includes_percentiles():
    registry = MetricsRegistry()
    histogram = registry.histogram("load.op_seconds")
    for value in (0.001, 0.002, 0.004, 0.100):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["p50"] == histogram.quantile(0.50)
    assert snapshot["p95"] == histogram.quantile(0.95)
    assert snapshot["p99"] == histogram.quantile(0.99)
    assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"]


def test_format_metrics_renders_percentiles():
    from repro.obs.export import format_metrics

    registry = MetricsRegistry()
    histogram = registry.histogram("rpc.call_seconds")
    histogram.observe(0.010)
    text = format_metrics(registry.snapshot())
    line = next(l for l in text.splitlines() if "rpc.call_seconds" in l)
    assert "p50=" in line and "p95=" in line and "p99=" in line


def test_format_metrics_tolerates_pre_percentile_snapshots():
    from repro.obs.export import format_metrics

    registry = MetricsRegistry()
    registry.histogram("old.hist").observe(1.0)
    snapshot = registry.snapshot()
    for value in snapshot.values():
        if isinstance(value, dict):
            for key in ("p50", "p95", "p99"):
                value.pop(key, None)
    assert "old.hist" in format_metrics(snapshot)


# --- gauge high-watermarks -----------------------------------------------

from repro.obs.registry import Gauge, TeeRegistry  # noqa: E402


def test_plain_gauge_snapshots_as_float():
    gauge = Gauge("g")
    gauge.set(3.5)
    assert gauge.snapshot() == 3.5


def test_peaked_gauge_tracks_high_watermark():
    gauge = Gauge("g", track_peak=True)
    gauge.set(2.0)
    gauge.set(9.0)
    gauge.set(4.0)
    assert gauge.value == 4.0
    assert gauge.peak == 9.0
    assert gauge.snapshot() == {"type": "gauge", "value": 4.0, "peak": 9.0}
    gauge.reset_peak()
    # The peak restarts from the *current* value, not zero: the level
    # that exists right now was certainly reached.
    assert gauge.peak == 4.0
    gauge.set(0.0)
    gauge.reset_peak()
    assert gauge.snapshot() == {"type": "gauge", "value": 0.0, "peak": 0.0}


def test_enable_peak_upgrades_in_place():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(5.0)
    assert registry.gauge("depth", track_peak=True) is gauge
    assert gauge.track_peak
    gauge.set(7.0)
    gauge.set(1.0)
    assert gauge.snapshot()["peak"] == 7.0


def test_inc_dec_respect_the_peak():
    gauge = Gauge("g", track_peak=True)
    gauge.inc(3.0)
    gauge.dec(2.0)
    assert gauge.value == 1.0 and gauge.peak == 3.0


# --- snapshot merge / diff -----------------------------------------------

from repro.obs.merge import (  # noqa: E402
    diff_snapshots,
    merge_metric,
    merge_snapshots,
)


def registry_with(counter=0, wait=(), depth=None):
    registry = MetricsRegistry()
    if counter:
        registry.counter("ops").inc(counter)
    for value in wait:
        registry.histogram("wait").observe(value)
    if depth is not None:
        registry.gauge("depth", track_peak=True).set(depth)
    return registry


def test_merge_sums_counters_and_maxes_gauge_peaks():
    a = registry_with(counter=3, depth=2.0).snapshot()
    b = registry_with(counter=4, depth=7.0).snapshot()
    merged = merge_snapshots([a, b])
    assert merged["metrics"]["ops"] == 7
    assert merged["metrics"]["depth"] == {
        "type": "gauge", "value": 7.0, "peak": 7.0}
    assert merged["meta"]["merged_from"] == 2


def test_merge_combines_histograms_bucket_wise():
    a = registry_with(wait=[0.001] * 50).snapshot()
    b = registry_with(wait=[0.5] * 50).snapshot()
    merged = merge_snapshots([a, b])
    hist = merged["metrics"]["wait"]
    assert hist["count"] == 100
    assert hist["sum"] == pytest.approx(0.001 * 50 + 0.5 * 50)
    # The merged p99 sees both populations: it lands in the slow half.
    assert hist["p99"] > 0.1
    assert hist["p50"] <= 0.5


def test_merge_rejects_mismatched_histogram_bounds():
    a = MetricsRegistry()
    a.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
    b = MetricsRegistry()
    b.histogram("h", bounds=(1.0, 4.0)).observe(1.5)
    with pytest.raises(ValueError):
        merge_snapshots([a.snapshot(), b.snapshot()])


def test_merge_sums_families_per_label():
    a = MetricsRegistry()
    a.family("errs").labels("busy").inc(2)
    b = MetricsRegistry()
    b.family("errs").labels("busy").inc(3)
    b.family("errs").labels("gone").inc(1)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["metrics"]["errs"]["values"] == {"busy": 5, "gone": 1}


def test_merge_named_snapshots_records_sources():
    merged = merge_snapshots({
        "alpha": registry_with(counter=1).snapshot(),
        "beta": registry_with(counter=1).snapshot(),
    })
    assert merged["meta"]["sources"] == ["alpha", "beta"]


def test_merge_metric_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        merge_metric(3, {"type": "family", "values": {}}, "x")


def test_diff_subtracts_monotonic_instruments():
    registry = MetricsRegistry()
    registry.counter("ops").inc(10)
    registry.histogram("wait").observe(0.001)
    before = registry.snapshot()
    registry.counter("ops").inc(5)
    registry.histogram("wait").observe(0.5)
    registry.gauge("depth").set(3.0)
    after = registry.snapshot()
    delta = diff_snapshots(before, after)
    assert delta["metrics"]["ops"] == 5
    assert delta["metrics"]["wait"]["count"] == 1
    # The windowed histogram's quantiles describe only the new sample.
    assert delta["metrics"]["wait"]["p99"] > 0.1
    # Metrics that appeared between snapshots pass through unchanged.
    assert delta["metrics"]["depth"] == 3.0


# --- tee registries ------------------------------------------------------


def test_tee_registry_writes_both_reads_primary():
    primary = MetricsRegistry()
    secondary = MetricsRegistry()
    tee = TeeRegistry(primary, secondary)
    tee.counter("ops").inc(3)
    tee.histogram("wait").observe(0.1)
    tee.gauge("depth", track_peak=True).set(4.0)
    tee.family("errs").labels("busy").inc()
    for registry in (primary, secondary):
        assert registry.counter("ops").value == 3
        assert registry.histogram("wait").count == 1
        assert registry.gauge("depth").peak == 4.0
        assert registry.family("errs").labels("busy").value == 1
    # Reads delegate to the primary.
    assert tee.counter("ops").value == 3
    primary.counter("solo").inc()             # write around the tee
    assert tee.counter("solo").value == 1


def test_tee_reset_peak_clears_both_watermarks():
    primary = MetricsRegistry()
    secondary = MetricsRegistry()
    tee = TeeRegistry(primary, secondary)
    gauge = tee.gauge("depth", track_peak=True)
    gauge.set(9.0)
    gauge.set(1.0)
    gauge.reset_peak()
    assert primary.gauge("depth").peak == 1.0
    assert secondary.gauge("depth").peak == 1.0


# --- obs CLI merge / diff ------------------------------------------------


def test_obs_cli_merge_writes_fleet_snapshot(tmp_path, capsys):
    from repro.obs.__main__ import main

    paths = []
    for index in (1, 2):
        registry = MetricsRegistry()
        registry.counter("ops").inc(index)
        path = tmp_path / f"s{index}.json"
        write_snapshot(str(path), registry)
        paths.append(str(path))
    out = tmp_path / "merged.json"
    assert main(["merge", *paths, "-o", str(out)]) == 0
    merged = load_snapshot(str(out))
    assert merged["metrics"]["ops"] == 3
    assert merged["meta"]["merged_from"] == 2
    # Without -o it prints the table instead.
    assert main(["merge", *paths]) == 0
    assert "ops" in capsys.readouterr().out


def test_obs_cli_merge_expands_collections(tmp_path):
    from repro.obs.__main__ import main

    collector = SnapshotCollector()
    for name in ("run-a", "run-b"):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        collector.add(name, registry)
    collection = tmp_path / "collection.json"
    collector.write(str(collection))
    out = tmp_path / "merged.json"
    assert main(["merge", str(collection), "-o", str(out)]) == 0
    assert load_snapshot(str(out))["metrics"]["ops"] == 2


def test_obs_cli_diff_subtracts_snapshots(tmp_path, capsys):
    from repro.obs.__main__ import main

    registry = MetricsRegistry()
    registry.counter("ops").inc(2)
    before = tmp_path / "before.json"
    write_snapshot(str(before), registry)
    registry.counter("ops").inc(5)
    after = tmp_path / "after.json"
    write_snapshot(str(after), registry)
    out = tmp_path / "delta.json"
    assert main(["diff", str(before), str(after), "-o", str(out)]) == 0
    assert load_snapshot(str(out))["metrics"]["ops"] == 5
    assert main(["diff", str(before), str(after)]) == 0
    assert "ops" in capsys.readouterr().out


def test_obs_cli_diff_refuses_collections(tmp_path):
    from repro.obs.__main__ import main

    collector = SnapshotCollector()
    collector.add("run", MetricsRegistry())
    collection = tmp_path / "collection.json"
    collector.write(str(collection))
    single = tmp_path / "single.json"
    write_snapshot(str(single), MetricsRegistry())
    with pytest.raises(SystemExit):
        main(["diff", str(collection), str(single)])


def test_format_metrics_renders_gauge_peaks():
    from repro.obs.export import format_metrics

    registry = MetricsRegistry()
    registry.gauge("depth", track_peak=True).set(3.0)
    text = format_metrics(registry.snapshot())
    assert "depth" in text and "peak" in text
