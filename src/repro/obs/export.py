"""Snapshot exporter: JSON files and paper-style text tables.

Two output shapes:

* a **single snapshot** — ``{"meta": ..., "metrics": ...}``
  from one registry (:func:`registry_snapshot` / :func:`write_snapshot`);
* a **collection** — ``{"snapshots": {name: snapshot, ...}}`` gathered
  across benchmark runs by :class:`SnapshotCollector` (what
  ``python -m repro.bench --metrics-out`` writes and CI uploads).

``python -m repro.obs <file.json>`` pretty-prints either shape using the
same ``format_table`` renderer the benchmark figures use.
"""

from __future__ import annotations

import json


def _format_table(title: str, columns: list[str], rows: list[tuple]) -> str:
    # Imported lazily: repro.bench imports repro.obs (via the world
    # builder), so a module-level import here would be circular.
    from ..bench.timing import format_table

    return format_table(title, columns, rows)


def registry_snapshot(registry, meta: dict | None = None) -> dict:
    """One registry's metrics as a JSON-ready dict."""
    snapshot = registry.snapshot()
    if meta:
        snapshot["meta"] = dict(meta)
    return snapshot


def write_snapshot(path: str, registry=None, snapshot: dict | None = None,
                   meta: dict | None = None) -> dict:
    """Write a snapshot JSON file; returns the snapshot dict."""
    if snapshot is None:
        if registry is None:
            raise ValueError("pass either a registry or a snapshot")
        snapshot = registry_snapshot(registry, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot


def load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class SnapshotCollector:
    """Accumulates named registry snapshots across benchmark runs."""

    def __init__(self) -> None:
        self.snapshots: dict[str, dict] = {}

    def add(self, name: str, registry, meta: dict | None = None) -> None:
        self.snapshots[name] = registry_snapshot(registry, meta)

    def to_dict(self) -> dict:
        return {"snapshots": self.snapshots}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def format_metrics(snapshot: dict, title: str = "Metrics") -> str:
    """Render a snapshot's instruments as a text table."""
    rows: list[tuple] = []
    for name, value in snapshot.get("metrics", {}).items():
        if isinstance(value, dict) and value.get("type") == "histogram":
            cell = (f"count={value['count']} sum={value['sum']:.6f}s "
                    f"mean={value['mean'] * 1e6:.1f}us")
            if "p50" in value:  # absent in pre-quantile snapshot files
                cell += (f" p50={value['p50'] * 1e6:.1f}us"
                         f" p95={value['p95'] * 1e6:.1f}us"
                         f" p99={value['p99'] * 1e6:.1f}us")
            rows.append((name, cell))
        elif isinstance(value, dict) and value.get("type") == "family":
            for label, count in value["values"].items():
                rows.append((f"{name}{{{label}}}", count))
        elif isinstance(value, dict) and value.get("type") == "gauge":
            rows.append((name, f"{value['value']:g} (peak {value['peak']:g})"))
        else:
            rows.append((name, value))
    return _format_table(title, ["metric", "value"], rows)


def format_snapshot(snapshot: dict, heading: str | None = None) -> str:
    """Pretty-print one snapshot: meta, then metrics."""
    parts: list[str] = []
    if heading:
        parts.append(f"=== {heading} ===")
    meta = snapshot.get("meta")
    if meta:
        parts.append("\n".join(f"meta: {key} = {meta[key]}"
                               for key in sorted(meta)))
    parts.append(format_metrics(snapshot))
    return "\n\n".join(parts)
