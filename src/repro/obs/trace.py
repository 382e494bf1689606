"""Structured tracing: nested spans, and a window's time split by layer.

* :class:`Tracer` records *inclusive* spans that nest, against host CPU
  (``time.perf_counter``) and the virtual clock — the generalization of
  the bench Timer, with per-span tags and children.
* :class:`Attribution` splits one measured window by layer, one clock at
  a time, and the two are never added together.  Host CPU comes from
  :data:`BOUNDARIES`, a table of named callables the window wraps on
  entry and puts back on exit: nothing outside a window pays for it.
  Virtual time comes from what the devices booked: the disks' booked
  seconds are ``disk``, and the rest of the elapsed virtual time is
  ``network`` (the model books virtual time nowhere else).
"""

from __future__ import annotations

import functools
import importlib
import inspect
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
    use :class:`Attribution` for exclusive attribution.
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


#: The layers a figure's time splits into, in display order.  ``other``
#: is host time inside a window that no boundary claims.
LAYERS = ("crypto", "rpc", "nfs3", "network", "disk", "other")

#: (layer, dotted path of a callable).  Every one is looked up where it
#: is called, at each call, so a window opened after the world is built
#: still sees it: what a pipe or a dispatch table bound at construction
#: reaches through one of these.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    # The channel's cipher and MAC: they run only with encryption on.
    ("crypto", "repro.crypto.arc4.ARC4.encrypt"),
    ("crypto", "repro.crypto.arc4.ARC4.decrypt"),
    ("crypto", "repro.crypto.mac.SessionMAC.compute"),
    ("crypto", "repro.crypto.mac.SessionMAC.verify"),
    # A record's parse and dispatch, a served call (unmarshal, handler,
    # reply) and a synchronous call.
    ("rpc", "repro.rpc.peer.RpcPeer._receive"),
    ("rpc", "repro.rpc.peer.RpcPeer.serve_queued"),
    ("rpc", "repro.rpc.peer.RpcPeer.call"),
    ("nfs3", "repro.nfs3.server.Nfs3Server._serve"),
    # A synchronous caller pumping the clock until its reply is in:
    # the scheduler, its timers and the links they deliver on.
    ("network", "repro.rpc.peer.Runner.wait_for"),
    ("disk", "repro.sim.disk.Disk.read"),
    ("disk", "repro.sim.disk.Disk.write"),
    ("disk", "repro.sim.disk.Disk.sync"),
)


def resolve(dotted: str) -> tuple[Any, str, Any]:
    """``(owner, name, value)`` for *dotted*: its longest importable
    prefix is the module, the rest a chain of attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"{dotted}: no importable module prefix")


class Attribution:
    """One measured window's time split by layer, one clock at a time.

    ``with Attribution(BOUNDARIES, clock, disks) as window:`` wraps each
    boundary on entry and puts every original back on exit, whatever
    the body raised.  Then:

    * :attr:`host` holds host CPU seconds for each of :data:`LAYERS`.
      They are exclusive: a call into another layer's boundary is
      charged there, one into its own layer folds in, and a generator
      boundary is charged per resumption, so the time it spends
      suspended goes to whatever runs meanwhile.  Host execution is one
      Python stack, so the stack of open boundaries is exact on the
      pipelined core too.
    * :attr:`virtual` holds ``disk``, the seconds *disks* booked inside
      the window, and ``network``, the rest of the virtual time that
      passed.

    A wrapper that outlives its window (a generator still suspended, a
    method bound meanwhile) calls straight through.
    """

    def __init__(self, boundaries, clock, disks=()) -> None:
        self._boundaries = boundaries
        self._clock = clock
        self._disks = tuple(disks)
        self._patched: list[tuple[Any, str, Any]] = []
        #: Open boundaries, innermost last: [layer, start, child seconds].
        self._stack: list[list] = []
        self._open = False
        #: When host time last started going to ``other``.
        self._mark = 0.0
        self._sim0 = self._booked0 = 0.0
        self.host = dict.fromkeys(LAYERS, 0.0)
        self.virtual: dict[str, float] = {}

    def _booked(self) -> float:
        return sum(disk.booked for disk in self._disks)

    def __enter__(self) -> "Attribution":
        # Every name resolves before any is wrapped: a stale one
        # raises here with nothing left patched.
        targets = [(layer, *resolve(dotted))
                   for layer, dotted in self._boundaries]
        for layer, owner, name, fn in targets:
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                    else self._wrap_call)
            setattr(owner, name, wrap(layer, fn))
            self._patched.append((owner, name, fn))
        self._sim0 = self._clock.now
        self._booked0 = self._booked()
        self._open = True
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.host["other"] += time.perf_counter() - self._mark
        self._open = False
        self._restore()
        disk = self._booked() - self._booked0
        self.virtual = {"network": self._clock.now - self._sim0 - disk,
                        "disk": disk}
        return False

    def _restore(self) -> None:
        while self._patched:
            owner, name, fn = self._patched.pop()
            setattr(owner, name, fn)

    def _enter(self, layer: str) -> list:
        now = time.perf_counter()
        if not self._stack:
            self.host["other"] += now - self._mark
        span = [layer, now, 0.0]
        self._stack.append(span)
        return span

    def _leave(self, span: list) -> None:
        now = time.perf_counter()
        stack = self._stack
        stack.pop()
        spent = now - span[1]
        self.host[span[0]] += spent - span[2]
        if stack:
            stack[-1][2] += spent
        else:
            self._mark = now

    def _charges(self, layer: str) -> bool:
        return self._open and not (self._stack
                                   and self._stack[-1][0] == layer)

    def _wrap_call(self, layer: str, fn):
        @functools.wraps(fn)
        def attributed(*args, **kwargs):
            if not self._charges(layer):
                return fn(*args, **kwargs)
            span = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(span)
        return attributed

    def _wrap_generator(self, layer: str, fn):
        @functools.wraps(fn)
        def attributed(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value = error = None
            while True:
                span = self._enter(layer) if self._charges(layer) else None
                try:
                    if error is not None:
                        waited = gen.throw(error)
                    else:
                        waited = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if span is not None:
                        self._leave(span)
                try:
                    value = yield waited
                    error = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - thrown in
                    error = exc  # forwarded to the generator, as yield from
        return attributed
