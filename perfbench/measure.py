"""Passes over a workload, and the metrics derived from them.

A *pass* builds one world, runs one warm-up batch, then timed batches.
The first ``pinned`` timed batches are the same for a given seed on any
host, so everything exact (virtual-clock metrics, counts, the digest)
is taken from them alone; batches beyond them only add samples to the
host-time medians until the time budget is spent.

An untraced run is three set-ups (the last one measured) and yields the
end-to-end metrics.  A traced run replays the first quarter of the
pinned batches three times (untraced, traced, and on plain NFS where
that reference exists) and yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
from array import array
from time import perf_counter, process_time

from . import adapter, trace
from .workloads import WORKLOADS, Sample, Workload

#: World builds per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Every phase any workload has, in first-seen order.
_PHASES = tuple(dict.fromkeys(
    phase for workload in WORKLOADS.values() for phase in workload.phases))


class Pass:
    """One world, one warm-up batch, then timed batches."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 variant: str = "sfs") -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        started = process_time()
        self.stack = workload.build(seed, smoke, variant)
        self.warmup = workload.run_batch(self.stack, seed, 0, smoke)
        #: CPU seconds from world build to the end of the warm-up batch.
        self.setup_cpu_s = process_time() - started
        self.samples: list[Sample] = []
        self.pinned = 0
        self.counts: dict = {}
        self.collections = 0

    def run(self, pinned: int, seconds: float = 0.0):
        """Time *pinned* batches, then more until *seconds* have passed."""
        stack = self.stack
        world0, proc0 = stack.counters(), adapter.process_counters()
        collections0 = _collections()
        explicit = 0
        deadline = perf_counter() + seconds
        index = 0
        while index < pinned or perf_counter() < deadline:
            index += 1
            gc.collect()
            explicit += 1
            self.samples.append(self.workload.run_batch(
                stack, self.seed, index, self.smoke))
            if index == pinned:
                self.counts = _delta(world0, stack.counters())
                self.counts.update(_delta(proc0, adapter.process_counters()))
        self.pinned = pinned
        self.collections = _collections() - collections0 - explicit
        return self

    # -- what the samples say ----------------------------------------------

    @property
    def pinned_samples(self) -> list[Sample]:
        return self.samples[:self.pinned]

    def attempted(self) -> int:
        return self.warmup.ops + sum(s.ops for s in self.samples)

    def failed(self) -> int:
        return self.warmup.failed + sum(s.failed for s in self.samples)

    def first_error(self) -> str | None:
        for sample in [self.warmup] + self.samples:
            if sample.error:
                return sample.error
        return None

    def cpu_us_per_op(self) -> list[float]:
        return [s.cpu_s / s.ops * 1e6 for s in self.samples]

    def virt_us_per_op(self) -> float:
        pinned = self.pinned_samples
        return sum(s.virt_s for s in pinned) / sum(s.ops for s in pinned) * 1e6

    def latencies(self) -> list[float]:
        return [lat for s in self.pinned_samples for lat in s.lat]

    def virt_percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of per-op virtual latency."""
        ordered = sorted(self.latencies())
        return ordered[max(1, math.ceil(q * len(ordered))) - 1] * 1e6

    def digest(self) -> str:
        """SHA-256 over what the simulated testbed did in the pinned
        batches: every op's virtual latency and every exact count."""
        exact = {name: value for name, value in self.counts.items()
                 if not name.startswith(("xdr.", "arc4."))
                 and (isinstance(value, int) or _is_family(value))}
        sha = hashlib.sha256(array("d", self.latencies()).tobytes())
        sha.update(json.dumps(exact, sort_keys=True).encode())
        return sha.hexdigest()


def _collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def _is_family(value) -> bool:
    return isinstance(value, dict) and value.get("type") == "family"


def _delta(before: dict, after: dict) -> dict:
    """What moved between two counter snapshots.

    Counters and families subtract; histograms subtract per bucket;
    gauges (floats, or dicts carrying a peak) keep their latest reading.
    """
    out = {}
    for name, now in after.items():
        was = before.get(name)
        if isinstance(now, int) and not isinstance(now, bool):
            out[name] = now - (was or 0)
        elif _is_family(now):
            old = was["values"] if was else {}
            out[name] = {"type": "family", "values": {
                key: value - old.get(key, 0)
                for key, value in now["values"].items()}}
        elif isinstance(now, dict) and now.get("type") == "histogram":
            old = was["buckets"] if was else [[None, 0]] * len(now["buckets"])
            out[name] = {
                "type": "histogram",
                "count": now["count"] - (was["count"] if was else 0),
                "sum": now["sum"] - (was["sum"] if was else 0.0),
                "buckets": [[bound, n - m] for (bound, n), (_, m)
                            in zip(now["buckets"], old)],
            }
        else:
            out[name] = now
    return out


def _hist_quantile(hist: dict | None, q: float) -> float:
    """Interpolated quantile of a histogram delta (0 when empty); the
    estimator ``repro``'s own snapshots use, applied to a region."""
    if not hist or hist["count"] <= 0:
        return 0.0
    rank = q * hist["count"]
    seen = 0
    low = 0.0
    for bound, n in hist["buckets"]:
        if bound is None:
            return low  # overflow bucket: floor at the last finite bound
        if n > 0 and seen + n >= rank:
            return low + (bound - low) * ((rank - seen) / n)
        seen += n
        low = bound
    return low


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sum(counts: dict, prefix: str, suffix: str = "") -> int:
    return sum(value for name, value in counts.items()
               if name.startswith(prefix) and name.endswith(suffix)
               and isinstance(value, int))


# -- the two kinds of run -----------------------------------------------------


def untraced_run(workload: Workload, seed: int, seconds: float,
                 smoke: bool, import_cpu_s: float) -> dict:
    """Three set-ups, then the timed region: the end-to-end metrics."""
    setups = []
    for _ in range(SETUPS):
        # A world is one big reference cycle: drop the previous one and
        # collect it, or peak RSS would count every build.
        main = None
        gc.collect()
        main = Pass(workload, seed, smoke)
        setups.append(main.setup_cpu_s)
    main.run(workload.pinned[smoke], seconds)
    metrics = _end_to_end(main, import_cpu_s + statistics.median(setups))
    metrics.update(_phase_metrics(main))
    metrics.update(_host_metrics(main))
    return _result([main], metrics, main, {"setup_cpu_s": setups})


def traced_run(workload: Workload, seed: int, smoke: bool,
               import_cpu_s: float, out_dir=None) -> dict:
    """Untraced, plain-NFS and traced replays of the first quarter of
    the pinned batches: the per-layer metrics."""
    batches = max(2, workload.pinned[smoke] // 4)
    plain = Pass(workload, seed, smoke).run(batches)
    passes = [plain]
    metrics = {"virt_p50_us": plain.virt_percentile_us(0.50)}
    metrics.update(_phase_metrics(plain))
    metrics.update(_host_metrics(plain))
    metrics.update(_count_metrics(plain))
    reference = None
    if workload.has_reference:
        reference = Pass(workload, seed, smoke, "nfs-udp").run(batches)
        passes.append(reference)
    metrics.update(_reference_metrics(plain, reference))
    for finished in passes:
        finished.stack = None
    gc.collect()

    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = Pass(workload, seed, smoke)
        setup_totals = tracer.layer_totals()
        tracer.reset()
        traced.run(batches)
    finally:
        tracer.uninstall()
    passes.append(traced)
    metrics.update(_trace_metrics(tracer, setup_totals, traced, plain))
    if tracer.unresolved:
        print("perfbench: warning: unresolved boundary paths "
              f"{tracer.unresolved}; metrics of layers "
              f"{sorted(tracer.broken_layers)} are null", flush=True)
    if out_dir is not None:
        tracer.write_spans(out_dir / f"{workload.name}.spans.jsonl")
    result = _result(passes, metrics, plain, {
        "unresolved": tracer.unresolved, "traced_digest": traced.digest()})
    detail = result["detail"]
    # Watching must not change what is watched: same virtual latencies,
    # same counts, with the wrappers in as with them out.
    if detail["traced_digest"] != detail["virt_digest"]:
        result["correct"] = False
        detail["error"] = detail["error"] or (
            "traced and untraced passes disagree on virt_digest")
    return result


def _result(passes, metrics, main: Pass, extra: dict) -> dict:
    attempted = sum(p.attempted() for p in passes)
    failed = sum(p.failed() for p in passes)
    error = next(filter(None, (p.first_error() for p in passes)), None)
    detail = {
        "metrics": metrics,
        "virt_digest": main.digest(),
        "virt_samples": len(main.latencies()),
        "batches": len(main.samples),
        "pinned_batches": main.pinned,
        "error": error,
    }
    detail.update(extra)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "detail": detail}


# -- metric families ----------------------------------------------------------


def _end_to_end(main: Pass, setup_s: float) -> dict:
    cpu = statistics.median(main.cpu_us_per_op())
    virt = main.virt_us_per_op()
    return {
        "setup_s": setup_s,
        "cpu_us_per_op": cpu,
        "virt_us_per_op": virt,
        "virt_p50_us": main.virt_percentile_us(0.50),
        "virt_p99_us": main.virt_percentile_us(0.99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ops_share": main.failed() / main.attempted(),
        "ref.model_us_per_op": cpu + virt,
    }


def _phase_metrics(main: Pass) -> dict:
    """Per-phase cost over the pinned batches; null for phases this
    workload does not have."""
    out = {}
    for phase in _PHASES:
        ops = cpu = virt = 0
        for sample in main.pinned_samples:
            if phase in sample.phases:
                n, c, v = sample.phases[phase]
                ops, cpu, virt = ops + n, cpu + c, virt + v
        out[f"phase.{phase}.cpu_us_per_op"] = cpu / ops * 1e6 if ops else None
        out[f"phase.{phase}.virt_us_per_op"] = \
            virt / ops * 1e6 if ops else None
    return out


def _host_metrics(main: Pass) -> dict:
    cpu = main.cpu_us_per_op()
    wall = [s.wall_s / s.ops * 1e6 for s in main.samples]
    cpu_total = sum(s.cpu_s for s in main.samples)
    wall_total = sum(s.wall_s for s in main.samples)
    ops = sum(s.ops for s in main.samples)
    q1, _, q3 = (statistics.quantiles(cpu, n=4) if len(cpu) > 1
                 else (cpu[0],) * 3)
    return {
        "host.wall_us_per_op": statistics.median(wall),
        "host.preempted_share": max(0.0, 1.0 - cpu_total / wall_total),
        "host.cpu_q1_us_per_op": q1,
        "host.cpu_q3_us_per_op": q3,
        "host.gc_collections_per_kop": main.collections / ops * 1000.0,
        "host.batches": len(main.samples),
    }


def _count_metrics(main: Pass) -> dict:
    """Exact counts over the pinned batches, per op where that reads."""
    c = main.counts

    def get(name: str):
        return c.get(name, 0)  # a counter this world never made is 0

    ops = sum(s.ops for s in main.pinned_samples)
    kernel_rpcs = sum(sum(family["values"].values())
                      for name, family in c.items()
                      if name.startswith("rpc.peer.kernel:")
                      and _is_family(family))
    packs = {k: get(f"xdr.{k}_packs") + get(f"xdr.{k}_unpacks")
             for k in ("fast", "slow")}
    nfs = {op: get(f"nfs3.ops.{op}")
           for op in ("read", "write", "readv", "writev")}
    queue_wait = c.get("server.queue.wait_seconds")
    depth = c.get("server.queue.depth")
    return {
        "kernel.rpcs_per_op": kernel_rpcs / ops,
        "core.client.relayed_per_op": get("client.rpcs_relayed") / ops,
        "core.client.busy_retries": get("client.busy_retries"),
        "core.client.readahead_hit_share": _share(
            get("client.readahead.hits"),
            get("client.readahead.hits") + get("client.readahead.misses")),
        "core.client.gather_writes_per_flush": _share(
            get("client.gather.writes"), get("client.gather.flushes")),
        **{f"core.cache.{short}_hit_share": _share(
            get(f"cache.{name}.hits"),
            get(f"cache.{name}.hits") + get(f"cache.{name}.misses"))
           for short, name in (("attr", "attrs"), ("lookup", "lookups"),
                               ("access", "access"))},
        "core.cache.invalidations_per_op":
            _sum(c, "cache.", ".invalidations") / ops,
        "core.channel.records_per_op": get("channel.records_sent") / ops,
        "core.channel.mac_rejects": get("channel.mac_reject"),
        "crypto.stream_bytes_per_op": _sum(c, "arc4.", "_bytes") / ops,
        "crypto.reference_bytes": get("arc4.reference_bytes"),
        "rpc.calls_per_op": get("rpc.calls") / ops,
        "rpc.marshal_slow_share": _share(
            packs["slow"], packs["slow"] + packs["fast"]),
        "rpc.pool_misses": get("xdr.pool_misses"),
        "rpc.retransmissions": get("rpc.retransmissions"),
        "rpc.duplicates_served": get("rpc.duplicates_served"),
        "rpc.window_waits_per_op": get("rpc.window.waits") / ops,
        "nfs3.ops_per_op": _sum(c, "nfs3.ops.") / ops,
        "nfs3.vectored_share": _share(
            nfs["readv"] + nfs["writev"], sum(nfs.values())),
        "nfs3.errors_per_op": _sum(c, "nfs3.errors.") / ops,
        "core.admission.wait_virt_p50_us":
            _hist_quantile(queue_wait, 0.50) * 1e6,
        "core.admission.wait_virt_p95_us":
            _hist_quantile(queue_wait, 0.95) * 1e6,
        "core.admission.peak_depth": depth["peak"] if depth else 0,
        "core.admission.rejected": get("server.queue.rejected"),
        "core.admission.retransmits_absorbed":
            get("server.queue.retransmits_absorbed"),
        "sim.network.bytes_per_op": get("net.bytes") / ops,
        "sim.network.messages_per_op": get("net.messages") / ops,
        "sim.network.medium_wait_virt_us_per_op":
            c.get("net.medium_wait_seconds", {}).get("sum", 0.0) / ops * 1e6,
        "sim.network.inflight_virt_us_per_op":
            get("net.pipelined.wire_seconds") / ops * 1e6,
        "sim.disk.syncs_per_op": get("disk.syncs") / ops,
        "sim.sched.steps_per_op": get("sched.steps") / ops,
        "sim.sched.legacy_pumps_per_op": get("sched.legacy_pumps") / ops,
        "sim.sched.tasks_failed": get("sched.tasks_failed"),
    }


def _reference_metrics(main: Pass, reference: Pass | None) -> dict:
    """The paper's hybrid headline (host CPU + virtual time per op) and
    its ratio to plain NFS 3 over UDP on the same op stream."""
    model = statistics.median(main.cpu_us_per_op()) + main.virt_us_per_op()
    out = {"ref.model_us_per_op": model, "ref.nfs_udp.cpu_us_per_op": None,
           "ref.nfs_udp.virt_us_per_op": None, "ref.model_ratio_vs_nfs": None}
    if reference is not None:
        cpu = statistics.median(reference.cpu_us_per_op())
        virt = reference.virt_us_per_op()
        out.update({"ref.nfs_udp.cpu_us_per_op": cpu,
                    "ref.nfs_udp.virt_us_per_op": virt,
                    "ref.model_ratio_vs_nfs": model / (cpu + virt)})
    return out


#: Layers whose self time is reported, and the metric each one fills.
_SELF_TIME = {
    "kernel": "kernel.self_us_per_op",
    "core.client": "core.client.self_us_per_op",
    "core.channel": "core.channel.self_us_per_op",
    "crypto.stream": "crypto.stream_us_per_op",
    "crypto.mac": "crypto.mac_us_per_op",
    "crypto.handle": "crypto.handle_us_per_op",
    "rpc.marshal": "rpc.marshal_us_per_op",
    "rpc.peer": "rpc.peer_self_us_per_op",
    "nfs3.server": "nfs3.server_self_us_per_op",
    "core.server": "core.server.self_us_per_op",
    "fs": "fs.self_us_per_op",
    "sim.network": "sim.network.self_us_per_op",
    "sim.disk": "sim.disk.self_us_per_op",
    "sim.sched": "sim.sched.self_us_per_op",
    "sim.clock": "sim.clock.self_us_per_op",
}
_VIRTUAL = {
    "sim.network": "sim.network.virt_us_per_op",
    "sim.disk": "sim.disk.virt_us_per_op",
    "sim.sched": "sim.sched.idle_virt_us_per_op",
}


def _trace_metrics(tracer: "trace.Tracer", setup_totals: dict,
                   traced: Pass, plain: Pass) -> dict:
    totals = tracer.layer_totals()
    ops = sum(s.ops for s in traced.samples)
    wall_s = sum(s.wall_s for s in traced.samples)
    broken = tracer.broken_layers

    def per_op(layer: str, key: str, scale: float = 1e6):
        return None if layer in broken else totals[layer][key] / ops * scale

    out = {name: per_op(layer, "self_s")
           for layer, name in _SELF_TIME.items()}
    out.update({name: per_op(layer, "virt_s")
                for layer, name in _VIRTUAL.items()})
    out["crypto.pubkey_ms_setup"] = (
        None if "crypto.pubkey" in broken
        else setup_totals["crypto.pubkey"]["self_s"] * 1e3)
    out["fs.calls_per_op"] = per_op("fs", "spans", 1.0)
    out["sim.clock.timers_per_op"] = (
        None if "sim.clock" in broken
        else tracer.site_count("repro.sim.clock.Clock.call_at") / ops)
    virt_named = sum(entry["virt_s"] for entry in totals.values())
    out.update({
        "trace.overhead_ratio": (sum(s.cpu_s for s in traced.samples)
                                 / sum(s.cpu_s for s in plain.samples)),
        "trace.wall_us_per_op": wall_s / ops * 1e6,
        "trace.coverage_share":
            sum(entry["self_s"] for entry in totals.values()) / wall_s,
        "trace.virt_coverage_share": _share(
            virt_named, virt_named + tracer.virt_outside_s),
        "trace.unresolved": len(tracer.unresolved),
        "trace.spans_per_op":
            sum(entry["spans"] for entry in totals.values()) / ops,
    })
    return out
