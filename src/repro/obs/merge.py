"""Registry-snapshot merging and diffing.

The fleet control plane collects one snapshot per simulated machine;
benches collect one per World.  Computing anything *fleet-wide* (the
p99 across every shard's latency histogram, total busy-rejects) needs
those snapshots combined — and because histograms use the registry's
fixed exponential buckets, they can be merged bucket-wise and quantiles
re-estimated from the sum, no raw samples required.

Merge rules, keyed by the snapshot JSON shape:

========================  ====================================
counter (int)             sum
gauge (float)             last write wins
gauge dict (with peak)    value: last write; peak: max
histogram dict            bucket-wise sum; count/sum added;
                          mean/p50/p95/p99 recomputed
family dict               per-label sum
========================  ====================================

"Last write" follows the order snapshots are passed in, so callers
control precedence (the collector passes sources in registration
order).  :func:`diff_snapshots` is the companion for *same-source*
comparisons over time: monotonic shapes (counters, histograms,
families) subtract, gauges report the newer value.
"""

from __future__ import annotations

from .registry import Histogram


def _is_typed(value, kind: str) -> bool:
    return isinstance(value, dict) and value.get("type") == kind


def _histogram_from_snapshot(snap: dict) -> Histogram:
    """Rebuild a Histogram instrument from its snapshot dict."""
    bounds = tuple(bound for bound, _n in snap["buckets"]
                   if bound is not None)
    histogram = Histogram("merged", bounds)
    histogram.bucket_counts = [n for _bound, n in snap["buckets"]]
    histogram.count = snap["count"]
    histogram.sum = snap["sum"]
    return histogram


def _both_typed(merged, incoming, kind: str, name: str) -> bool:
    """True if both values are *kind*; ValueError if only one is (a
    source changed an instrument's shape — merging would corrupt)."""
    a, b = _is_typed(merged, kind), _is_typed(incoming, kind)
    if a != b:
        raise ValueError(
            f"metric {name!r}: cannot merge a {kind} with a "
            f"{type(incoming if a else merged).__name__}"
        )
    return a


def merge_metric(merged, incoming, name: str = "?"):
    """Merge one instrument's snapshot value into an accumulated one."""
    if _both_typed(merged, incoming, "histogram", name):
        a = _histogram_from_snapshot(merged)
        b = _histogram_from_snapshot(incoming)
        if a.bounds != b.bounds:
            raise ValueError(
                f"metric {name!r}: histogram bucket bounds differ; "
                "only same-bounds histograms merge"
            )
        a.bucket_counts = [x + y for x, y in
                           zip(a.bucket_counts, b.bucket_counts)]
        a.count += b.count
        a.sum += b.sum
        return a.snapshot()
    if _both_typed(merged, incoming, "family", name):
        values = dict(merged["values"])
        for label, count in incoming["values"].items():
            values[label] = values.get(label, 0) + count
        return {"type": "family", "values": dict(sorted(values.items()))}
    if _both_typed(merged, incoming, "gauge", name):
        return {"type": "gauge", "value": incoming["value"],
                "peak": max(merged["peak"], incoming["peak"])}
    if isinstance(merged, bool) or isinstance(incoming, bool):
        raise ValueError(f"metric {name!r}: cannot merge booleans")
    if isinstance(merged, int) and isinstance(incoming, int):
        return merged + incoming                      # counters
    if isinstance(merged, (int, float)) and isinstance(incoming, (int, float)):
        return incoming                               # gauges: last write
    raise ValueError(
        f"metric {name!r}: incompatible snapshot shapes "
        f"{type(merged).__name__} vs {type(incoming).__name__}"
    )


def merge_metrics(metric_dicts) -> dict:
    """Merge any number of ``snapshot["metrics"]`` dicts into one."""
    merged: dict = {}
    for metrics in metric_dicts:
        for name, value in metrics.items():
            if name in merged:
                merged[name] = merge_metric(merged[name], value, name)
            else:
                merged[name] = value
    return dict(sorted(merged.items()))


def merge_snapshots(snapshots, meta: dict | None = None) -> dict:
    """Merge full registry snapshots into one fleet-level snapshot.

    *snapshots* is an iterable of snapshot dicts, or a ``{name: dict}``
    mapping (names land in ``meta.sources``).  Ordering matters only
    for plain gauges (last write wins).
    """
    if isinstance(snapshots, dict):
        names = list(snapshots)
        ordered = [snapshots[name] for name in names]
    else:
        ordered = list(snapshots)
        names = [snap.get("meta", {}).get("source", f"#{index}")
                 for index, snap in enumerate(ordered)]
    merged = {
        "metrics": merge_metrics(s.get("metrics", {}) for s in ordered),
        "meta": {"merged_from": len(ordered), "sources": names},
    }
    if meta:
        merged["meta"].update(meta)
    return merged


def diff_metric(before, after, name: str = "?"):
    """The change from *before* to *after* for one instrument."""
    if _is_typed(before, "histogram") and _is_typed(after, "histogram"):
        a = _histogram_from_snapshot(before)
        b = _histogram_from_snapshot(after)
        if a.bounds != b.bounds:
            raise ValueError(
                f"metric {name!r}: histogram bucket bounds differ"
            )
        b.bucket_counts = [y - x for x, y in
                           zip(a.bucket_counts, b.bucket_counts)]
        b.count -= a.count
        b.sum -= a.sum
        return b.snapshot()
    if _is_typed(before, "family") and _is_typed(after, "family"):
        values = {}
        for label in sorted(set(before["values"]) | set(after["values"])):
            delta = (after["values"].get(label, 0)
                     - before["values"].get(label, 0))
            if delta:
                values[label] = delta
        return {"type": "family", "values": values}
    if _is_typed(before, "gauge") and _is_typed(after, "gauge"):
        return {"type": "gauge", "value": after["value"],
                "peak": after["peak"]}
    if isinstance(before, int) and isinstance(after, int):
        return after - before
    if isinstance(before, (int, float)) and isinstance(after, (int, float)):
        return after                                  # gauge: newer value
    raise ValueError(
        f"metric {name!r}: incompatible snapshot shapes "
        f"{type(before).__name__} vs {type(after).__name__}"
    )


def diff_snapshots(before: dict, after: dict) -> dict:
    """Per-metric change between two snapshots of the *same* source.

    Metrics present only in *after* pass through unchanged; metrics
    that disappeared are dropped (a restart built a fresh registry).
    """
    before_metrics = before.get("metrics", {})
    metrics = {}
    for name, value in after.get("metrics", {}).items():
        if name in before_metrics:
            metrics[name] = diff_metric(before_metrics[name], value, name)
        else:
            metrics[name] = value
    return {"metrics": dict(sorted(metrics.items())),
            "meta": {"diff": True}}
