"""A symmetric RPC peer: issues calls and serves programs over one pipe.

SFS connections are genuinely bidirectional — the server calls back to
the client to invalidate cache leases (paper section 3.3) — so instead of
separate client/server classes a single :class:`RpcPeer` owns each end of
a connection.  Programs register procedure tables; calls marshal through
the codecs in :mod:`repro.rpc.xdr`.

The underlying "pipe" is anything with ``send(bytes)`` and
``on_receive(handler)`` — a :class:`repro.sim.network.LinkSide`, a secure
channel wrapper, or a real TCP transport.  No transport delivers inside
``send``: a reply arrives later, from a clock timer (the virtual
network) or a socket read (TCP).  There is therefore one call path,
:meth:`RpcPeer.call_task`, a generator that *yields* while its reply is
in flight, and two ways to run such a generator from outside any task:
:meth:`RpcPeer.drive` runs it to completion for a synchronous caller,
:meth:`RpcPeer.start` runs it in the background and hands back a Future.

Set ``trace`` to a callable to pretty-print RPC traffic, mirroring the
debugging aid the paper credits for SFS's reliability ("Our RPC library
can pretty-print RPC traffic for debugging").
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..obs.registry import CounterFamily, NULL_REGISTRY
from ..sim.sched import Future, SchedulerStalled, Sleep
from . import rpcmsg
from .rpcmsg import (
    AUTH_NONE,
    CallHeader,
    NULL_AUTH,
    OpaqueAuth,
    ReplyHeader,
    parse_message,
)
from .xdr import Codec, VOID, XdrError


class Pipe(Protocol):
    """Minimal transport interface RpcPeer relies on."""

    def send(self, data: bytes) -> None: ...

    def on_receive(self, handler: Callable[[bytes], None]) -> None: ...


def _request_digest(record: bytes) -> bytes:
    """Identity of a call's bytes, for duplicate detection."""
    return hashlib.sha1(record).digest()


class RpcError(Exception):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """No reply arrived for an outstanding call (e.g. record dropped)."""


class RpcTransportDown(RpcTimeout):
    """The transport itself failed mid-call (connection closed).

    Raised immediately — retransmitting into a dead link cannot help,
    and the caller's reconnect machinery should run instead.  Subclasses
    :class:`RpcTimeout` because every handler that tolerates a lost
    reply (mount redial, session reconnect) must tolerate a lost
    connection the same way; this also puts a deadline on handshake
    RPCs, which previously hung when a server crashed mid-CONNECT."""


class RpcNoWaiter(RpcError):
    """No reply *could* arrive: a synchronous caller is waiting on a
    transport that has neither a ``reply_waiter`` nor a clock to
    advance.  A transport-wiring problem, not a lost record —
    deliberately *not* an :class:`RpcTimeout`, so retry and redial logic
    that treats timeouts as packet loss (or an attack) can never mask
    the misconfiguration; it fails fast instead."""


#: Minimum first-retransmission timeout.  Generous on purpose — it must
#: outlast not just propagation but reply serialization (a 16-segment
#: READV is ~130 KB on the wire) *and* server-side device time (a
#: COMMIT can charge tens of milliseconds of disk).  Real NFS clients
#: start around a second for the same reason.  Retries exist to
#: recover *lost* records; on a clean link the reply resolves the call
#: future first and the timer never matters.
_ASYNC_RTO_FLOOR = 0.4


@dataclass
class RetryPolicy:
    """At-most-once retransmission with exponential backoff.

    A peer with a policy retransmits an unanswered call up to
    ``max_attempts`` times total, waiting ``base_delay`` before the
    first retry and multiplying by ``multiplier`` (capped at
    ``max_delay``) thereafter.  From the second retry on, the peer first
    invokes its ``recovery_hook`` (if any) so the session layer can
    repair a desynchronized secure channel before the record is resent.
    The receiving peer's duplicate-reply cache keeps the semantics
    at-most-once: a retransmitted call is answered from the cache, never
    re-executed.
    """

    max_attempts: int = 5
    base_delay: float = 0.002
    multiplier: float = 4.0
    max_delay: float = 0.5


class RpcRejected(RpcError):
    """The peer rejected or failed to accept the call."""

    def __init__(self, header: ReplyHeader) -> None:
        super().__init__(
            f"rpc rejected: reply_stat={header.reply_stat} "
            f"accept_stat={header.accept_stat} reject_stat={header.reject_stat}"
        )
        self.header = header


class RpcBusy(RpcRejected):
    """The server's request queue was full; the call never executed.

    The admission-control backpressure signal (``SERVER_BUSY``).  Unlike
    other rejections this one is *retryable by design*: the client backs
    off (``BackoffPolicy``) and resends as a fresh call — no duplicate
    hazard, because the server never started the procedure."""


@dataclass
class Procedure:
    """One registered procedure: codecs plus the handler."""

    name: str
    arg_codec: Codec
    res_codec: Codec
    handler: Callable[[Any, "CallContext"], Any]


@dataclass
class CallContext:
    """Passed to every handler: who called, with what credentials."""

    peer: "RpcPeer"
    header: CallHeader

    @property
    def cred(self) -> OpaqueAuth:
        return self.header.cred


class Program:
    """A (program number, version) with its procedure table."""

    def __init__(self, name: str, prog: int, vers: int) -> None:
        self.name = name
        self.prog = prog
        self.vers = vers
        self.procedures: dict[int, Procedure] = {}
        # Procedure 0 is the conventional NULL ping.
        self.add_proc(0, "NULL", VOID, VOID, lambda args, ctx: None)

    def add_proc(
        self,
        number: int,
        name: str,
        arg_codec: Codec,
        res_codec: Codec,
        handler: Callable[[Any, CallContext], Any],
    ) -> None:
        self.procedures[number] = Procedure(name, arg_codec, res_codec, handler)

    def proc(self, number: int, name: str, arg_codec: Codec, res_codec: Codec):
        """Decorator form of :meth:`add_proc`."""

        def register(handler: Callable[[Any, CallContext], Any]):
            self.add_proc(number, name, arg_codec, res_codec, handler)
            return handler

        return register


TraceFn = Callable[[str], None]


class RpcPeer:
    """One end of an RPC connection; both caller and dispatcher."""

    def __init__(self, pipe: Pipe, name: str = "peer",
                 trace: TraceFn | None = None) -> None:
        self._pipe = pipe
        self.name = name
        self.trace = trace
        #: How :meth:`drive` makes progress while a reply is in flight:
        #: called repeatedly until the awaited future completes (a TCP
        #: socket pump, the World scheduler's ``legacy_pump``).  Must
        #: make progress or raise.  Pipes volunteer one via a
        #: `suggested_reply_waiter` attribute, which wrapper pipes
        #: (secure channel, switchable pipe) pass through; without one
        #: :meth:`drive` advances :attr:`backoff_clock` itself.
        self.reply_waiter: Callable[[], None] | None = getattr(
            pipe, "suggested_reply_waiter", None
        )
        #: Virtual clock retransmission timers and backoff run on; None
        #: = wall clock.
        self.backoff_clock = getattr(pipe, "suggested_clock", None)
        #: Metrics registry volunteered by the pipe (see :mod:`repro.obs`);
        #: wrapper pipes pass it through like `suggested_clock`.  The
        #: shared ``rpc.*`` counters aggregate across peers; the scoped
        #: call family backs :attr:`proc_counts` per peer.
        self.metrics = getattr(pipe, "suggested_metrics", None) or NULL_REGISTRY
        if self.metrics.enabled:
            self._calls_by_proc = self.metrics.scope(
                f"rpc.peer.{name}"
            ).family("calls")
        else:
            # proc_counts must keep working even with metrics disabled
            # (per-session RPC-mix assertions rely on it), so fall back
            # to an unregistered family.
            self._calls_by_proc = CounterFamily(f"rpc.peer.{name}.calls")
        self._m_calls = self.metrics.counter("rpc.calls")
        self._m_served = self.metrics.counter("rpc.served")
        self._m_retransmissions = self.metrics.counter("rpc.retransmissions")
        self._m_recoveries = self.metrics.counter("rpc.recoveries")
        self._m_timeouts = self.metrics.counter("rpc.timeouts")
        self._m_duplicates = self.metrics.counter("rpc.duplicates_served")
        self._m_evictions = self.metrics.counter("rpc.reply_cache_evictions")
        self._m_call_seconds = self.metrics.histogram("rpc.call_seconds")
        self._m_busy = self.metrics.counter("rpc.busy_replies")
        #: None (default) = classic single-shot calls.  Assign a
        #: :class:`RetryPolicy` to get retransmission + backoff.
        self.retry_policy: RetryPolicy | None = None
        #: Send-window depth for pipelined calls: at most this many
        #: xids in flight per channel.  ``None`` (default) = unlimited,
        #: the pre-window behavior.  When the window is full a new
        #: :meth:`call_task` *yields* on a slot future (backpressure by
        #: parking, never busy-spinning); completions hand their slot
        #: to the oldest waiter FIFO, so out-of-order replies still
        #: admit senders in arrival order.
        self.window_depth: int | None = getattr(
            pipe, "suggested_window_depth", None
        )
        #: Round-trip estimate volunteered by the transport (links
        #: surface their propagation delay).  Floors the first
        #: retransmission timeout at 2x RTT: a 2ms base delay would
        #: expire long before any WAN reply could arrive and every call
        #: would retransmit itself into a channel rekey storm.
        self.rtt_estimate: float = getattr(pipe, "suggested_rtt", 0.0) or 0.0
        #: The transport's bandwidth in bytes per second, where it knows
        #: one (0.0 = unknown).  With :attr:`rtt_estimate` it gives the
        #: bytes that fill the path, which is how far sfscd reads ahead.
        self.bandwidth_estimate: float = getattr(
            pipe, "suggested_bandwidth", 0.0) or 0.0
        self._window_in_flight = 0
        self._window_waiters: deque[Future] = deque()
        self.window_waits = 0
        self._m_window_waits = self.metrics.counter("rpc.window.waits")
        self._m_window_acquired = self.metrics.counter("rpc.window.acquired")
        self._m_window_in_flight = self.metrics.gauge("rpc.window.in_flight")
        #: When set, inbound CALLs are handed to this callable as
        #: ``dispatcher(header, body, request)`` instead of executing
        #: inline — the server's request queue hangs here.  The queue
        #: later runs the call via :meth:`serve_queued` or rejects it
        #: with :meth:`send_busy`.  Duplicate retransmissions are still
        #: answered from the reply cache *before* dispatch.
        self.dispatcher: Callable[[CallHeader, bytes, bytes], None] | None = None
        #: xid -> the Future the call's current attempt waits on; a
        #: reply resolves it with ``(header, body)``.
        self._call_futures: dict[int, Future] = {}
        #: xids of speculative calls in flight (see :meth:`call_task`):
        #: what :meth:`abandon_speculative` fails.
        self._speculative: set[int] = set()
        self._closed = False
        #: A generator function :meth:`call_task` delegates to
        #: (``yield from``) before the second and later retransmissions;
        #: the session layer hangs channel resynchronization here.
        #: Returns truthy when it believes the path is repaired.
        self.recovery_hook: Callable[[], Any] | None = None
        self._xid = 0
        self._programs: dict[tuple[int, int], Program] = {}
        #: xid -> (request digest, packed reply), for at-most-once
        #: semantics: a retransmitted call is answered from here, not
        #: re-executed.  The digest guards against xid collisions — only
        #: a byte-identical request counts as a retransmission; a new
        #: call that reuses an old xid executes normally.
        self._reply_cache: OrderedDict[int, tuple[bytes, bytes]] = OrderedDict()
        self.reply_cache_size = 128
        self.calls_sent = 0
        self.calls_served = 0
        self.retransmissions = 0
        self.recoveries = 0
        self.duplicates_served = 0
        self.reply_cache_evictions = 0
        pipe.on_receive(self._on_record)
        # Transports that can die under us (the virtual link on server
        # crash) volunteer an on_close hook; waiting tasks are failed
        # immediately instead of hanging until their timeout timers.
        on_close = getattr(pipe, "on_close", None)
        if callable(on_close):
            on_close(self._transport_closed)

    def _transport_closed(self) -> None:
        self._closed = True
        futures, self._call_futures = self._call_futures, {}
        for xid, future in futures.items():
            future.fail(RpcTransportDown(
                f"transport closed with xid {xid} in flight"
            ))

    @property
    def rto_floor(self) -> float:
        """The soonest a lost record can be told from a slow one here."""
        return max(2.0 * self.rtt_estimate, _ASYNC_RTO_FLOOR)

    @property
    def proc_counts(self) -> dict[tuple[int, int], int]:
        """(prog, proc) -> count of calls issued; the per-procedure RPC
        mix behind the paper's caching analysis (section 4.2).  Backed
        by this peer's metrics counter family."""
        return {key: counter.value
                for key, counter in self._calls_by_proc.items()}

    # --- serving ----------------------------------------------------------

    def register(self, program: Program) -> Program:
        self._programs[(program.prog, program.vers)] = program
        return program

    def unregister(self, prog: int, vers: int) -> None:
        self._programs.pop((prog, vers), None)

    def _on_record(self, data: bytes) -> None:
        # The "rpc" layer claims parsing, dispatch, unmarshaling and
        # handler glue; instrumented work the handler triggers (nfs3
        # dispatch, crypto, network) is charged to its own layer by
        # nesting.
        layers = self.metrics.layers
        layers.push("rpc")
        try:
            self._receive(data)
        finally:
            layers.pop()

    def _receive(self, data: bytes) -> None:
        peeked = rpcmsg.peek_message(data)
        if peeked is not None and peeked[0] == rpcmsg.CALL:
            cached = self._reply_cache.get(peeked[1])
            if cached is not None and cached[0] == _request_digest(data):
                # A retransmitted call we already executed: replay the
                # recorded reply so non-idempotent procedures keep
                # at-most-once semantics.
                self.duplicates_served += 1
                self._m_duplicates.inc()
                self._pipe.send(cached[1])
                return
        try:
            message = parse_message(data)
        except XdrError:
            # Garbage on the wire (e.g. adversarial injection below the
            # secure channel): drop it, exactly as a real stack would drop
            # an unparseable TCP record.
            if self.trace:
                self.trace(f"{self.name}: dropping unparseable record")
            return
        if message.mtype == rpcmsg.CALL:
            assert message.call is not None
            if self.dispatcher is not None:
                self.dispatcher(message.call, message.body, data)
            else:
                self._serve_inner(message.call, message.body, data)
        else:
            assert message.reply is not None
            future = self._call_futures.pop(message.reply.xid, None)
            if future is not None:
                future.resolve((message.reply, message.body))
            elif self.trace:
                self.trace(f"{self.name}: reply for unknown xid "
                           f"{message.reply.xid}")

    def serve_queued(self, header: CallHeader, body: bytes,
                     request: bytes) -> None:
        """Execute a previously queued call (the request-queue workers'
        entry point — bypasses :attr:`dispatcher` so the queue cannot
        re-enqueue its own work)."""
        layers = self.metrics.layers
        layers.push("rpc")
        try:
            self._serve_inner(header, body, request)
        finally:
            layers.pop()

    def send_busy(self, xid: int) -> None:
        """Reject a call with ``SERVER_BUSY`` — admission control's
        backpressure reply.  Deliberately *not* inserted into the reply
        cache: a busy rejection is not an execution, and the client's
        backed-off resend must run for real next time."""
        self._m_busy.inc()
        record = rpcmsg.pack_reply(
            ReplyHeader(xid, accept_stat=rpcmsg.SERVER_BUSY)
        )
        try:
            self._pipe.send(record)
        except ConnectionError:
            pass  # client already gone; its retry logic owns recovery

    def _serve_inner(self, header: CallHeader, body: bytes,
                     request: bytes) -> None:
        program = self._programs.get((header.prog, header.vers))
        if program is None:
            versions = [v for (p, v) in self._programs if p == header.prog]
            if versions:
                reply = ReplyHeader(
                    header.xid,
                    accept_stat=rpcmsg.PROG_MISMATCH,
                    mismatch_low=min(versions),
                    mismatch_high=max(versions),
                )
            else:
                reply = ReplyHeader(header.xid, accept_stat=rpcmsg.PROG_UNAVAIL)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        procedure = program.procedures.get(header.proc)
        if procedure is None:
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.PROC_UNAVAIL)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        try:
            args = procedure.arg_codec.unpack(body)
        except XdrError:
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.GARBAGE_ARGS)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        if self.trace:
            self.trace(
                f"{self.name}: serve {program.name}.{procedure.name}({args!r})"
            )
        self.calls_served += 1
        self._m_served.inc()
        try:
            result = procedure.handler(args, CallContext(self, header))
            payload = procedure.res_codec.pack(result)
        except Exception as exc:  # noqa: BLE001 - surfaces as SYSTEM_ERR
            if self.trace:
                self.trace(
                    f"{self.name}: {program.name}.{procedure.name} failed: {exc!r}"
                )
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.SYSTEM_ERR)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        self._send_reply(
            header.xid, request,
            rpcmsg.pack_reply(ReplyHeader(header.xid), payload),
        )

    def _send_reply(self, xid: int, request: bytes, record: bytes) -> None:
        """Send a reply and remember it for the duplicate-call cache.

        A transport that closed while the handler ran (the server
        crashed mid-procedure) swallows the reply here: this runs inside
        the *caller's* arrival timer, and a handler's failure to reply
        must never propagate into the other endpoint — the caller
        learns of the death from its own close hook.
        """
        self._reply_cache[xid] = (_request_digest(request), record)
        self._reply_cache.move_to_end(xid)
        while len(self._reply_cache) > self.reply_cache_size:
            # Past this point at-most-once degrades to at-least-once
            # for the evicted xid: a late retransmission re-executes.
            # The counter is the observable signal that the window has
            # been exceeded (see docs/OBSERVABILITY.md).
            self._reply_cache.popitem(last=False)
            self.reply_cache_evictions += 1
            self._m_evictions.inc()
        try:
            self._pipe.send(record)
        except ConnectionError:
            pass

    # --- calling ----------------------------------------------------------

    def call_oneway(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        cred: OpaqueAuth = NULL_AUTH,
    ) -> None:
        """Send a call without waiting for (or tracking) its reply.

        For genuinely fire-and-forget notifications such as lease
        invalidations: the reply, when it eventually arrives, is
        dropped as an unknown xid.  Never retransmits, never waits on the
        transport — a peer that cannot answer (crashed, mid-resync)
        costs the caller nothing but the send.  Raises
        :class:`RpcTransportDown` if the link is already closed.
        """
        self._xid += 1
        xid = self._xid
        header = CallHeader(xid, prog, vers, proc, cred=cred)
        record = rpcmsg.pack_call(header, arg_codec.pack(args))
        self.calls_sent += 1
        self._m_calls.inc()
        self._calls_by_proc.labels((prog, proc)).inc()
        if self.trace:
            self.trace(
                f"{self.name}: oneway prog={prog} proc={proc} args={args!r}"
            )
        try:
            self._pipe.send(record)
        except ConnectionError as exc:
            raise RpcTransportDown(
                f"transport down for xid {xid} "
                f"(prog={prog} proc={proc}): {exc}"
            ) from exc

    def call(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth = NULL_AUTH,
    ) -> Any:
        """Issue a call and return the decoded result: a synchronous
        :meth:`call_task` (same arguments, same exceptions), plus
        :class:`RpcNoWaiter` when the transport gives :meth:`drive` no
        way to wait.
        """
        layers = self.metrics.layers
        layers.push("rpc")
        try:
            return self.drive(self.call_task(
                prog, vers, proc, arg_codec, args, res_codec, cred))
        finally:
            layers.pop()

    def drive(self, gen) -> Any:
        """Run a task generator to completion, synchronously.

        The one edge between synchronous callers (tests, examples, the
        kernel's VFS facade) and the task-native engine.  Mirrors the
        scheduler's step protocol — wait out whatever the generator
        yields, send the outcome back in — so every ``x()`` beside an
        ``x_task()`` is this applied to it, and nothing else.
        """
        try:
            waited = next(gen)
            while True:
                if isinstance(waited, Future):
                    self.wait_for(waited)
                    if waited.exception is not None:
                        waited = gen.throw(waited.exception)
                    else:
                        waited = gen.send(waited.value)
                else:
                    self._sleep_sync(waited.seconds
                                     if isinstance(waited, Sleep)
                                     else float(waited))
                    waited = gen.send(None)
        except StopIteration as stop:
            return stop.value
        except BaseException:
            # An error surfaced outside the generator (e.g. a TCP pump
            # raising mid-wait): run its finally blocks so the pending
            # tables and window slot are reclaimed.
            gen.close()
            raise

    def start(self, gen) -> Future:
        """Run a task generator in the background; the Future returned
        completes with its result or its exception.

        The non-blocking counterpart of :meth:`drive`.  The generator is
        stepped from the done-callbacks of the futures it yields (from a
        :attr:`backoff_clock` timer for a sleep), so it moves whenever
        the clock does and needs no scheduler: a synchronous caller
        inside a task step, who may run the clock but not pump, sees it
        progress exactly as one at top level does.
        """
        outcome = Future(name=f"{self.name}:background")
        self._step(gen, outcome)
        return outcome

    def _step(self, gen, outcome: Future,
              waited: Future | None = None) -> None:
        """Resume a :meth:`start`-ed generator with what it waited for
        (None: its first step, or a sleep that is over)."""
        try:
            if waited is None:
                waited = gen.send(None)
            elif waited.exception is not None:
                waited = gen.throw(waited.exception)
            else:
                waited = gen.send(waited.value)
        except StopIteration as stop:
            outcome.resolve(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - carried by the future
            outcome.fail(exc)
            return
        # (A partial, not a closure over itself: nothing here is left
        # for the cycle collector once the generator is done.)
        resume = functools.partial(self._step, gen, outcome)
        if isinstance(waited, Future):
            waited.add_done_callback(resume)
        else:
            clock = self.backoff_clock
            clock.call_at(clock.now + (
                waited.seconds if isinstance(waited, Sleep)
                else float(waited)), resume)

    def wait_for(self, future: Future) -> None:
        """Block (in simulation terms) until *future* completes.

        Two ways forward: the transport's :attr:`reply_waiter`, else
        advance :attr:`backoff_clock` to its next timer (the record's
        arrival, or the attempt's retransmission deadline).  Either way
        the time spent is time on the wire, charged to the ``network``
        layer; whatever runs from the timers charges its own.  With no
        timer left the record was lost; with no clock either nothing
        could ever arrive.
        """
        waiter = self.reply_waiter
        clock = self.backoff_clock
        layers = self.metrics.layers
        layers.push("network")
        try:
            while not future.done:
                if waiter is not None:
                    try:
                        waiter()
                    except SchedulerStalled:
                        # Nothing runnable and no timer: the record (or
                        # its reply) was lost.  Same as an elapsed
                        # retransmission timeout — the task path retries.
                        future.fail(RpcTimeout(
                            f"scheduler stalled waiting on {future.name}"
                        ))
                elif clock is None:
                    future.fail(RpcNoWaiter(
                        f"no reply possible for {future.name}: the "
                        "transport has no reply_waiter and no clock — "
                        "wire one up (e.g. TcpPipe.pump) before calling"
                    ))
                elif (deadline := clock.next_deadline()) is None:
                    future.fail(RpcTimeout(
                        f"nothing in flight for {future.name}"
                    ))
                else:
                    clock.advance(max(0.0, deadline - clock.now))
        finally:
            layers.pop()

    def _sleep_sync(self, seconds: float) -> None:
        """A yielded sleep, spent on whichever clock applies.  A zero
        sleep still advances: it fires whatever is already due."""
        if self.backoff_clock is not None:
            self.backoff_clock.advance(seconds)
        elif seconds > 0:
            time.sleep(seconds)

    # --- the send window --------------------------------------------------

    def _window_acquire(self):
        """Take (or wait for) an in-flight slot; ``yield from`` it."""
        if (self._window_in_flight < self.window_depth
                and not self._window_waiters):
            self._window_in_flight += 1
        else:
            slot = Future(name=f"{self.name}:window-slot")
            self._window_waiters.append(slot)
            self.window_waits += 1
            self._m_window_waits.inc()
            # Backpressure: park until a completion hands this slot
            # over (the releaser does NOT decrement — ownership moves).
            yield slot
        self._m_window_acquired.inc()
        self._m_window_in_flight.set(self._window_in_flight)

    def _window_release(self) -> None:
        if self.window_depth is None:
            return
        if self._window_waiters:
            # Hand the slot to the oldest waiter instead of freeing it:
            # FIFO admission even when replies complete out of order.
            self._window_waiters.popleft().resolve(None)
        else:
            self._window_in_flight = max(0, self._window_in_flight - 1)
        self._m_window_in_flight.set(self._window_in_flight)

    def _rejection(self, reply: ReplyHeader) -> RpcRejected:
        if (reply.reply_stat == rpcmsg.MSG_ACCEPTED
                and reply.accept_stat == rpcmsg.SERVER_BUSY):
            return RpcBusy(reply)
        return RpcRejected(reply)

    def call_task(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth = NULL_AUTH,
        speculative: bool = False,
    ):
        """The one task-native call path (``yield from`` it).

        The generator yields a :class:`~repro.sim.sched.Future` per
        attempt and suspends, so many in-flight calls share one
        transport.  Raises :class:`RpcTimeout` if no reply arrives
        (dropped record), :class:`RpcTransportDown` if the transport
        closed, :class:`RpcRejected` on a non-SUCCESS reply and
        :class:`RpcBusy` when the server's admission control rejects
        the call.

        With a :attr:`retry_policy` set, the policy's backoff schedule
        doubles as the per-attempt timeout: a timer fails the future
        after the attempt's delay, the task wakes, and the record is
        retransmitted verbatim (same xid, same bytes — at-most-once via
        the remote reply cache).  From the second retry on,
        :attr:`recovery_hook` runs first (``yield from``) so a
        desynchronized secure channel can be re-keyed before the record
        goes out again.

        With :attr:`window_depth` set, the call first acquires an
        in-flight slot (yielding on a slot future when the window is
        full — backpressure without busy-spinning) and releases it on
        completion, handing it FIFO to the oldest waiter.

        A *speculative* call is one whose caller can do without the
        answer (a prefetch): it gets one attempt under the same timer,
        is never retransmitted and never runs :attr:`recovery_hook`, and
        :meth:`abandon_speculative` may fail it at any moment.  Either
        way it ends in :class:`RpcTimeout`.
        """
        if self.window_depth is not None:
            yield from self._window_acquire()
        try:
            return (yield from self._call_task_inner(
                prog, vers, proc, arg_codec, args, res_codec, cred,
                speculative,
            ))
        finally:
            self._window_release()

    def abandon_speculative(self) -> int:
        """Fail every speculative call in flight; returns how many.

        Their xids leave the pending table at once, so no record that
        arrives afterwards can resolve them — what the session does
        before it lets plaintext records through (PROTOCOLS.md §10).
        """
        abandoned = 0
        for xid in sorted(self._speculative):
            future = self._call_futures.pop(xid, None)
            if future is not None and future.fail(
                    RpcTimeout(f"speculative xid {xid} abandoned")):
                abandoned += 1
        return abandoned

    def _call_task_inner(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth,
        speculative: bool,
    ):
        self._xid += 1
        xid = self._xid
        header = CallHeader(xid, prog, vers, proc, cred=cred)
        record = rpcmsg.pack_call(header, arg_codec.pack(args))
        self.calls_sent += 1
        self._m_calls.inc()
        self._calls_by_proc.labels((prog, proc)).inc()
        if self.trace:
            self.trace(f"{self.name}: call prog={prog} proc={proc} args={args!r}")
        clock = self.backoff_clock
        sim0 = clock.now if clock is not None else 0.0
        policy = self.retry_policy
        attempts = (1 if policy is None or speculative
                    else policy.max_attempts)
        # Floored, so that only genuine loss — not a reply still on the
        # wire — triggers a resend (and, worse, the second-retry rekey).
        timeout = (max(policy.base_delay, self.rto_floor)
                   if policy is not None else 0.0)
        try:
            for attempt in range(attempts):
                if attempt:
                    self.retransmissions += 1
                    self._m_retransmissions.inc()
                    if self.trace:
                        self.trace(
                            f"{self.name}: retransmit xid={xid} "
                            f"(attempt {attempt + 1}/{attempts})"
                        )
                    if attempt >= 2 and self.recovery_hook is not None:
                        try:
                            repaired = yield from self.recovery_hook()
                        except (RpcError, ConnectionError):
                            repaired = False  # keep retrying regardless
                        if repaired:
                            self.recoveries += 1
                            self._m_recoveries.inc()
                if self._closed:
                    self._m_timeouts.inc()
                    raise RpcTransportDown(
                        f"transport down for xid {xid} "
                        f"(prog={prog} proc={proc})"
                    )
                future = Future(name=f"{self.name}:xid{xid}")
                self._call_futures[xid] = future
                if speculative:
                    self._speculative.add(xid)
                try:
                    self._pipe.send(record)
                except ConnectionError as exc:
                    self._m_timeouts.inc()
                    raise RpcTransportDown(
                        f"transport down for xid {xid} "
                        f"(prog={prog} proc={proc}): {exc}"
                    ) from exc
                if clock is not None and policy is not None:
                    def expire(xid=xid) -> None:
                        # Looked up, not captured: the timer outlives
                        # the call by up to its whole timeout and must
                        # not pin the reply body the future then holds.
                        # (A reply already landed: nothing to find.)
                        pending = self._call_futures.get(xid)
                        if pending is not None:
                            pending.fail(RpcTimeout(f"no reply for xid {xid}"))
                    clock.call_at(clock.now + timeout, expire)
                    timeout = min(timeout * policy.multiplier,
                                  policy.max_delay)
                try:
                    reply, body = yield future
                except RpcTransportDown:
                    raise
                except RpcTimeout:
                    continue  # this attempt timed out: retransmit
                if not reply.successful:
                    raise self._rejection(reply)
                return res_codec.unpack(body)
            self._m_timeouts.inc()
            raise RpcTimeout(
                f"no reply for xid {xid} (prog={prog} proc={proc})"
            )
        finally:
            self._call_futures.pop(xid, None)
            self._speculative.discard(xid)
            if clock is not None:
                self._m_call_seconds.observe(clock.now - sim0)
