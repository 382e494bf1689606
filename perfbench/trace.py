"""Per-layer tracing from outside the program.

One declarative table names, for each layer, the public callables that
are its boundary.  :class:`Tracer` replaces each with a wrapper that
records an in-memory span (site, start, end, parent, root id) and bumps
a count; nothing under ``src/`` knows it is being watched.  Host
execution is one thread, so "the open span on the Python stack" is the
parent and self time (duration minus child spans) is exact, on the
pipelined core too.  A span with nothing above it is a root: a syscall
on the synchronous workloads, a scheduler run or timer drain otherwise;
every span carries its root's sequence number as its op id.

The wrappers must be installed before the world is built, because
handlers are bound into dispatch tables at construction.

Nothing here imports ``repro``: dotted paths go through
:func:`adapter.resolve`.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter_ns

from . import adapter

#: (layer, dotted path of a public callable).  Calls that nest inside a
#: span of the same layer fold into it, so listing both a convenience
#: call and what it calls is harmless.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    # The kernel: system calls and the path walk.
    *(("kernel", f"repro.kernel.vfs.Process.{call}") for call in (
        "open", "read", "write", "fsync", "close", "read_file",
        "write_file", "stat", "chown", "mkdir", "unlink")),
    ("kernel", "repro.kernel.vfs.Kernel.resolve"),
    # sfscd's relay towards the server (its loopback handlers are
    # caught where they are registered, see REGISTRARS).
    ("core.client", "repro.core.client.ServerSession.call_nfs"),
    ("core.client", "repro.core.client.ServerSession.call_nfs_task"),
    ("core.channel", "repro.core.channel.SecureChannel.send"),
    ("crypto.stream", "repro.crypto.arc4.ARC4.encrypt"),
    ("crypto.stream", "repro.crypto.arc4.ARC4.decrypt"),
    ("crypto.mac", "repro.crypto.mac.SessionMAC.compute"),
    ("crypto.mac", "repro.crypto.mac.SessionMAC.verify"),
    ("crypto.handle", "repro.nfs3.handles.EncryptedHandles.encode"),
    ("crypto.handle", "repro.nfs3.handles.EncryptedHandles.decode"),
    # Public-key work; only set-up does any.  generate_key is imported
    # by name, so it is wrapped where its callers look it up.
    ("crypto.pubkey", "repro.kernel.world.generate_key"),
    ("crypto.pubkey", "repro.core.keyneg.generate_key"),
    ("crypto.pubkey", "repro.crypto.rabin.PublicKey.encrypt"),
    ("crypto.pubkey", "repro.crypto.rabin.PublicKey.verify"),
    ("crypto.pubkey", "repro.crypto.rabin.PrivateKey.decrypt"),
    ("crypto.pubkey", "repro.crypto.rabin.PrivateKey.sign"),
    ("crypto.pubkey", "repro.crypto.srp.SRPClient.process_challenge"),
    ("crypto.pubkey", "repro.crypto.srp.SRPServer.challenge"),
    ("crypto.pubkey", "repro.crypto.eksblowfish.eksblowfish_setup"),
    # Marshalling: every codec's one-shot entry points (the nfs3.types
    # codecs and their nfs3.fastpath lanes sit behind Codec.pack/unpack)
    # and the RPC envelope.
    ("rpc.marshal", "repro.rpc.xdr.Codec.pack"),
    ("rpc.marshal", "repro.rpc.xdr.Codec.unpack"),
    ("rpc.marshal", "repro.rpc.rpcmsg.pack_call"),
    ("rpc.marshal", "repro.rpc.rpcmsg.pack_reply"),
    ("rpc.marshal", "repro.rpc.rpcmsg.peek_message"),
    ("rpc.marshal", "repro.rpc.peer.parse_message"),
    ("rpc.peer", "repro.rpc.peer.RpcPeer.call"),
    ("rpc.peer", "repro.rpc.peer.RpcPeer.call_task"),
    ("rpc.peer", "repro.rpc.peer.RpcPeer.call_oneway"),
    ("rpc.peer", "repro.rpc.peer.RpcPeer.serve_queued"),
    *(("fs", f"repro.fs.memfs.MemFs.{call}") for call in (
        "get_inode", "lookup", "access", "setattr", "create", "mkdir",
        "read", "write", "commit", "remove", "readdir", "statfs")),
    ("sim.network", "repro.sim.network.Link.send_a"),
    ("sim.network", "repro.sim.network.Link.send_b"),
    ("sim.network", "repro.sim.network.LinkSide.send"),
    ("sim.disk", "repro.sim.disk.Disk.read"),
    ("sim.disk", "repro.sim.disk.Disk.write"),
    ("sim.disk", "repro.sim.disk.Disk.sync"),
    ("sim.sched", "repro.sim.sched.Scheduler.run"),
    ("sim.sched", "repro.sim.sched.Scheduler.pump_once"),
    ("sim.sched", "repro.sim.sched.Scheduler.legacy_pump"),
    ("sim.clock", "repro.sim.clock.Clock.call_at"),
)

#: Clock.advance is a boundary of sim.clock like any other, and also the
#: only place virtual time passes: its wrapper charges each advance to
#: the layer of the innermost open span.
CLOCK_ADVANCE = ("sim.clock", "repro.sim.clock.Clock.advance")

#: (dotted path of a public registration call, position of the handler
#: among its arguments).  Dispatch-table and receive handlers are private
#: closures and bound methods; the registration call is the public place
#: they pass through, so that is where they get their span.
REGISTRARS: tuple[tuple[str, int], ...] = (
    ("repro.rpc.peer.Program.add_proc", 5),
    ("repro.sim.network.Link.on_receive_a", 1),
    ("repro.sim.network.Link.on_receive_b", 1),
    ("repro.core.channel.SecureChannel.on_receive", 1),
    ("repro.core.server.SwitchablePipe.on_receive", 1),
)

#: Layer of a registered handler, by "<module>.<class>" first, then by
#: the module that defines it.  A handler from anywhere else is left
#: unwrapped: its time stays with whichever span is open.
HANDLER_LAYERS = {
    "repro.core.server.SwitchablePipe": "core.channel",
    "repro.core.client": "core.client",
    "repro.core.server": "core.server",
    "repro.core.channel": "core.channel",
    "repro.nfs3.server": "nfs3.server",
    "repro.rpc.peer": "rpc.peer",
}

LAYERS = tuple(dict.fromkeys(
    [layer for layer, _ in BOUNDARIES] + [CLOCK_ADVANCE[0]]
    + list(HANDLER_LAYERS.values())))


_EMPTY_SPAN = array("q", (0, 0, 0, 0, 0))


def _handler_layer(handler) -> str | None:
    module = getattr(handler, "__module__", None)
    owner = getattr(handler, "__qualname__", "").split(".")[0]
    return (HANDLER_LAYERS.get(f"{module}.{owner}")
            or HANDLER_LAYERS.get(module))


class Tracer:
    """Installs the boundary wrappers and accumulates what they see."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        #: Dotted paths that no longer resolve, and the layers whose
        #: numbers are therefore incomplete.
        self.unresolved: list[str] = []
        self.broken_layers: set[str] = set()
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.sites: list[str] = []
        self._site_layer: list[int] = []
        self._site_index: dict[str, int] = {}
        # Open spans, innermost last:
        # [layer index, start ns, child ns, span index, root id]
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far.  Call with no span open."""
        #: Five integers per span: site, start ns, end ns, parent span
        #: index (-1 for a root), root id.  A flat array, because a
        #: million tuples would have the collector trace them again and
        #: again and the run would measure that.
        self.spans = array("q")
        self.self_ns = [0] * len(self.sites)
        self.counts = [0] * len(self.sites)
        self.virt_s = [0.0] * len(LAYERS)
        self.virt_outside_s = 0.0
        self.roots = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, dotted in BOUNDARIES + (CLOCK_ADVANCE,):
            target = self._lookup(dotted, layer)
            if target is None:
                continue
            owner, name, fn = target
            site = self._site(dotted, layer)
            if (layer, dotted) == CLOCK_ADVANCE:
                wrapper = self._wrap_advance(site, fn)
            elif inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(site, fn)
            else:
                wrapper = self._wrap_call(site, fn)
            self._patch(owner, name, fn, wrapper)
        for dotted, position in REGISTRARS:
            target = self._lookup(dotted, None)
            if target is None:
                # Any handler layer may have lost spans with it.
                self.broken_layers.update(HANDLER_LAYERS.values())
                continue
            owner, name, fn = target
            self._patch(owner, name, fn,
                        self._wrap_registrar(dotted, fn, position))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _lookup(self, dotted: str, layer: str | None):
        try:
            return adapter.resolve(dotted)
        except adapter.MissingEntryPoint:
            self.unresolved.append(dotted)
            if layer is not None:
                self.broken_layers.add(layer)
            return None

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def _site(self, name: str, layer: str) -> int:
        site = self._site_index.get(name)
        if site is None:
            site = self._site_index[name] = len(self.sites)
            self.sites.append(name)
            self._site_layer.append(self._layer_index[layer])
            self.self_ns.append(0)
            self.counts.append(0)
        return site

    # -- the wrappers ------------------------------------------------------

    def _enter(self, site: int) -> list:
        stack = self._stack
        spans = self.spans
        if stack:
            root = stack[-1][4]
        else:
            root = self.roots
            self.roots += 1
        # The slot is reserved now so a parent's index is always lower
        # than its children's.
        frame = [self._site_layer[site], 0, 0, len(spans) // 5, root]
        spans.extend(_EMPTY_SPAN)
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _exit(self, site: int, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        parent = -1
        if stack:
            above = stack[-1]
            above[2] += duration
            parent = above[3]
        self.self_ns[site] += duration - frame[2]
        self.counts[site] += 1
        spans = self.spans
        at = frame[3] * 5
        spans[at] = site
        spans[at + 1] = frame[1]
        spans[at + 2] = end
        spans[at + 3] = parent
        spans[at + 4] = frame[4]

    def _wrap_call(self, site: int, fn):
        stack = self._stack
        layer = self._site_layer[site]
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = enter(site)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(site, frame)
        return traced

    def _wrap_generator(self, site: int, fn):
        """Each resumption of the generator is one span."""
        stack = self._stack
        layer = self._site_layer[site]
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value = error = None
            while True:
                frame = (None if stack and stack[-1][0] == layer
                         else enter(site))
                try:
                    if error is not None:
                        waited = gen.throw(error)
                    else:
                        waited = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if frame is not None:
                        leave(site, frame)
                try:
                    value = yield waited
                    error = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    error = exc
        return traced

    def _wrap_advance(self, site: int, fn):
        stack = self._stack
        traced = self._wrap_call(site, fn)

        @functools.wraps(fn)
        def advance(clock, seconds):
            if stack:
                self.virt_s[stack[-1][0]] += seconds
            else:
                self.virt_outside_s += seconds
            return traced(clock, seconds)
        return advance

    def _wrap_registrar(self, dotted: str, fn, position: int):
        @functools.wraps(fn)
        def register(*args, **kwargs):
            if len(args) > position:
                handler = args[position]
                layer = _handler_layer(handler)
                if layer is not None:
                    site = self._site(f"{dotted}->{layer}", layer)
                    args = (args[:position]
                            + (self._wrap_call(site, handler),)
                            + args[position + 1:])
            return fn(*args, **kwargs)
        return register

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: self seconds, span count, virtual seconds charged."""
        totals = {layer: {"self_s": 0.0, "spans": 0, "virt_s": virt}
                  for layer, virt in zip(LAYERS, self.virt_s)}
        for site, layer in enumerate(self._site_layer):
            entry = totals[LAYERS[layer]]
            entry["self_s"] += self.self_ns[site] / 1e9
            entry["spans"] += self.counts[site]
        return totals

    def site_count(self, dotted: str) -> int:
        site = self._site_index.get(dotted)
        return self.counts[site] if site is not None else 0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for at in range(0, len(self.spans), 5):
                site, start, end, parent, root = self.spans[at:at + 5]
                out.write(json.dumps({
                    "site": self.sites[site],
                    "layer": LAYERS[self._site_layer[site]],
                    "start_ns": start, "end_ns": end,
                    "parent": parent, "op": root,
                }) + "\n")
