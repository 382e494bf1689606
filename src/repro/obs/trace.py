"""Structured tracing: nested spans and per-layer time attribution.

Two instruments share the hybrid time model of :mod:`repro.bench.timing`
(real CPU seconds from ``time.perf_counter`` plus simulated device
seconds from the virtual clock):

* :class:`Tracer` records *inclusive* spans that nest — the
  generalization of the bench Timer, with per-span tags and children.
* :class:`LayerTracker` is a stack profiler charging *exclusive* time to
  the innermost active layer.  A synchronous caller waits for its reply
  by advancing the clock (under the ``network`` layer), and the handlers
  that run from the arrival timers nest on that same Python stack — so
  on the kernel path exactly one layer (or the root ``"other"`` bucket)
  is active at every instant, and the per-layer totals sum to the
  tracked wall total by construction.  This is what lets a Fig. 5 run
  split its headline number into crypto / RPC / NFS server / network /
  disk components that actually add up.  (Across *tasks* there is no
  one stack; see ROADMAP item 3.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    """One traced section: inclusive cpu + simulated time, tags, children."""

    name: str
    tags: dict[str, Any] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    sim_seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.cpu_seconds + self.sim_seconds

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "cpu_seconds": self.cpu_seconds,
            "sim_seconds": self.sim_seconds,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanHandle:
    """Context manager driving one span's lifetime."""

    __slots__ = ("_tracer", "_span", "_cpu0", "_sim0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._cpu0 = 0.0
        self._sim0 = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        if tracer._stack:
            tracer._stack[-1].children.append(self._span)
        else:
            tracer.roots.append(self._span)
        tracer._stack.append(self._span)
        self._sim0 = tracer._now_sim()
        self._cpu0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        self._span.cpu_seconds += time.perf_counter() - self._cpu0
        self._span.sim_seconds += tracer._now_sim() - self._sim0
        tracer._stack.pop()
        return False


class Tracer:
    """Records a forest of nested spans against cpu + simulated time.

    Span times are *inclusive* (a parent's time covers its children);
    use :class:`LayerTracker` for exclusive attribution.
    """

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def _now_sim(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def span(self, name: str, **tags: Any) -> _SpanHandle:
        """``with tracer.span("negotiate", rounds=3) as s: ...``"""
        return _SpanHandle(self, Span(name, tags))

    def measure(self, name: str, fn, **tags: Any) -> Span:
        """Run *fn* inside a span and return the finished span."""
        handle = self.span(name, **tags)
        with handle as span:
            fn()
        return span

    def to_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self.roots]


class _LayerContext:
    __slots__ = ("_tracker", "_name")

    def __init__(self, tracker: "LayerTracker", name: str) -> None:
        self._tracker = tracker
        self._name = name

    def __enter__(self) -> "LayerTracker":
        self._tracker.push(self._name)
        return self._tracker

    def __exit__(self, *exc) -> bool:
        self._tracker.pop()
        return False


class LayerTracker:
    """Charges exclusive cpu + simulated time to the innermost layer.

    Instrumented sections bracket themselves with :meth:`push` /
    :meth:`pop` (or ``with layers.layer("crypto")``).  Time between a
    push and the next push/pop is charged to the pushed layer; time with
    an empty stack goes to the root bucket :data:`ROOT` (``"other"``).
    Nested pushes suspend the outer layer, so totals are exclusive and
    :meth:`breakdown` sums to exactly the time elapsed since
    :meth:`reset`.
    """

    ROOT = "other"
    enabled = True

    __slots__ = ("_clock", "_stack", "_totals", "_cpu_mark", "_sim_mark")

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._stack: list[str] = []
        self._totals: dict[str, list[float]] = {}
        self._cpu_mark = time.perf_counter()
        self._sim_mark = self._now_sim()

    def _now_sim(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _flush(self) -> None:
        cpu = time.perf_counter()
        sim = self._now_sim()
        name = self._stack[-1] if self._stack else self.ROOT
        bucket = self._totals.get(name)
        if bucket is None:
            bucket = self._totals[name] = [0.0, 0.0]
        bucket[0] += cpu - self._cpu_mark
        bucket[1] += sim - self._sim_mark
        self._cpu_mark = cpu
        self._sim_mark = sim

    def push(self, name: str) -> None:
        self._flush()
        self._stack.append(name)

    def pop(self) -> None:
        self._flush()
        if self._stack:
            self._stack.pop()

    def layer(self, name: str) -> _LayerContext:
        return _LayerContext(self, name)

    def reset(self) -> None:
        """Zero the totals and restart the accounting window now.

        The layer stack survives — reset may run while instrumented
        code is active further up the call stack.
        """
        self._totals.clear()
        self._cpu_mark = time.perf_counter()
        self._sim_mark = self._now_sim()

    def breakdown(self) -> dict[str, tuple[float, float]]:
        """Per-layer ``(cpu_seconds, sim_seconds)`` since the last reset."""
        self._flush()
        return {name: (cpu, sim) for name, (cpu, sim) in self._totals.items()}

    def total(self) -> float:
        """Total tracked seconds (cpu + sim) since the last reset."""
        return sum(cpu + sim for cpu, sim in self.breakdown().values())


class _NullLayerContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_LAYER_CONTEXT = _NullLayerContext()


class NullLayerTracker:
    """Do-nothing LayerTracker for disabled metrics."""

    ROOT = LayerTracker.ROOT
    enabled = False

    __slots__ = ()

    def push(self, name: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def layer(self, name: str) -> _NullLayerContext:
        return _NULL_LAYER_CONTEXT

    def reset(self) -> None:
        pass

    def breakdown(self) -> dict[str, tuple[float, float]]:
        return {}

    def total(self) -> float:
        return 0.0
