"""Tests for the symmetric RPC peer (repro.rpc.peer)."""

import pytest

from repro.rpc.peer import Program, RpcPeer, RpcRejected, RpcTimeout
from repro.rpc.xdr import String, Struct, UInt32, VOID
from repro.sim.clock import Clock
from repro.sim.network import DropAdversary, NetworkParameters, link_pair
from tests.helpers import settle

ADD_ARGS = Struct("AddArgs", [("x", UInt32), ("y", UInt32)])


def make_pair(adversary=None):
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    return RpcPeer(a, "client"), RpcPeer(b, "server"), clock


def demo_program():
    program = Program("demo", 400000, 2)

    @program.proc(1, "ADD", ADD_ARGS, UInt32)
    def add(args, ctx):
        return (args.x + args.y) & 0xFFFFFFFF

    @program.proc(2, "FAIL", VOID, VOID)
    def fail(args, ctx):
        raise RuntimeError("handler exploded")

    return program


def test_basic_call():
    client, server, _clock = make_pair()
    server.register(demo_program())
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 2, "y": 3}, UInt32) == 5
    assert client.calls_sent == 1
    assert server.calls_served == 1


def test_null_procedure_automatic():
    client, server, _clock = make_pair()
    server.register(demo_program())
    assert client.call(400000, 2, 0, VOID, None, VOID) is None


def test_unknown_program_rejected():
    client, server, _clock = make_pair()
    with pytest.raises(RpcRejected) as excinfo:
        client.call(999999, 1, 1, VOID, None, VOID)
    assert excinfo.value.header.accept_stat == 1  # PROG_UNAVAIL


def test_version_mismatch_reports_range():
    client, server, _clock = make_pair()
    server.register(demo_program())
    with pytest.raises(RpcRejected) as excinfo:
        client.call(400000, 9, 1, ADD_ARGS, {"x": 1, "y": 1}, UInt32)
    assert excinfo.value.header.accept_stat == 2  # PROG_MISMATCH
    assert excinfo.value.header.mismatch_low == 2
    assert excinfo.value.header.mismatch_high == 2


def test_unknown_procedure_rejected():
    client, server, _clock = make_pair()
    server.register(demo_program())
    with pytest.raises(RpcRejected) as excinfo:
        client.call(400000, 2, 77, VOID, None, VOID)
    assert excinfo.value.header.accept_stat == 3  # PROC_UNAVAIL


def test_garbage_args_rejected():
    client, server, _clock = make_pair()
    server.register(demo_program())
    # Send a string where a struct of two uint32s is expected.
    with pytest.raises(RpcRejected) as excinfo:
        client.call(400000, 2, 1, String(), "not numbers", UInt32)
    assert excinfo.value.header.accept_stat == 4  # GARBAGE_ARGS


def test_handler_exception_becomes_system_err():
    client, server, _clock = make_pair()
    server.register(demo_program())
    with pytest.raises(RpcRejected) as excinfo:
        client.call(400000, 2, 2, VOID, None, VOID)
    assert excinfo.value.header.accept_stat == 5  # SYSTEM_ERR


def test_dropped_record_times_out():
    client, server, _clock = make_pair(DropAdversary(target_index=0))
    server.register(demo_program())
    with pytest.raises(RpcTimeout):
        client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 2}, UInt32)
    # The connection still works for the next call.
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 2}, UInt32) == 3


def test_bidirectional_calls():
    client, server, _clock = make_pair()
    server.register(demo_program())
    notifications = []
    callback = Program("cb", 500000, 1)

    @callback.proc(1, "NOTIFY", String(), VOID)
    def notify(args, ctx):
        notifications.append(args)

    client.register(callback)
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1}, UInt32) == 2
    server.call(500000, 1, 1, String(), "cache invalid", VOID)
    assert notifications == ["cache invalid"]


def test_callback_during_handler():
    """A server handler can call back into the client mid-request."""
    client, server, _clock = make_pair()
    program = Program("nested", 600000, 1)
    callback = Program("cb", 600001, 1)
    events = []

    @callback.proc(1, "PING", VOID, VOID)
    def ping(args, ctx):
        events.append("ping")

    client.register(callback)

    @program.proc(1, "TRIGGER", VOID, VOID)
    def trigger(args, ctx):
        ctx.peer.call(600001, 1, 1, VOID, None, VOID)
        events.append("handled")

    server.register(program)
    client.call(600000, 1, 1, VOID, None, VOID)
    assert events == ["ping", "handled"]


def test_unparseable_record_dropped():
    client, server, _clock = make_pair()
    server.register(demo_program())
    traces = []
    server.trace = traces.append
    # Inject raw garbage directly at the server's receive handler.
    server._on_record(b"\x00garbage")
    assert any("unparseable" in t for t in traces)
    # Still serves normal calls.
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 4, "y": 4}, UInt32) == 8


def test_trace_pretty_prints_traffic():
    client, server, _clock = make_pair()
    server.register(demo_program())
    log = []
    client.trace = log.append
    server.trace = log.append
    client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 2}, UInt32)
    assert any("ADD" in line for line in log)
    assert any("call" in line for line in log)


def test_unregister():
    client, server, _clock = make_pair()
    server.register(demo_program())
    server.unregister(400000, 2)
    with pytest.raises(RpcRejected):
        client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1}, UInt32)


# --- retransmission and at-most-once semantics --------------------------------

def test_retry_policy_recovers_dropped_call():
    from repro.rpc.peer import RetryPolicy

    client, server, clock = make_pair(DropAdversary(target_index=0))
    server.register(demo_program())
    client.retry_policy = RetryPolicy()
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 2}, UInt32) == 3
    assert client.retransmissions == 1
    assert clock.now > 0  # backoff charged to the virtual clock


def test_retry_policy_recovers_dropped_reply_without_reexecution():
    from repro.rpc.peer import RetryPolicy

    # Drop the server's first reply: the retransmitted call must be
    # answered from the duplicate cache, not executed twice.
    executions = []
    client, server, _clock = make_pair(
        DropAdversary(target_index=0, direction="b->a")
    )
    program = Program("count", 410000, 1)

    @program.proc(1, "BUMP", UInt32, UInt32)
    def bump(args, ctx):
        executions.append(args)
        return len(executions)

    server.register(program)
    client.retry_policy = RetryPolicy()
    assert client.call(410000, 1, 1, UInt32, 7, UInt32) == 1
    assert executions == [7]  # exactly once
    assert server.duplicates_served == 1


def test_duplicate_cache_is_keyed_by_request_bytes():
    # An xid collision with *different* request bytes is a new call, not
    # a retransmission: it must execute, not replay a stale reply.
    client, server, _clock = make_pair()
    server.register(demo_program())
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1}, UInt32) == 2
    client._xid = 0  # force the next call to reuse xid 1
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 5, "y": 5}, UInt32) == 10
    assert server.duplicates_served == 0


def test_reply_cache_evicts_oldest():
    client, server, _clock = make_pair()
    server.register(demo_program())
    server.reply_cache_size = 4
    for value in range(8):
        client.call(400000, 2, 1, ADD_ARGS, {"x": value, "y": 0}, UInt32)
    assert len(server._reply_cache) == 4


def test_eviction_degrades_at_most_once_to_at_least_once():
    """Once a reply-cache entry is evicted, a replayed request is
    indistinguishable from a new call and re-executes — the documented
    degradation of NFS-style duplicate caches.  The eviction counter is
    what makes the silent part of that trade-off observable."""
    from repro.obs.registry import MetricsRegistry

    class RecordingAdversary:
        def __init__(self):
            self.sent = []

        def process(self, data, direction):
            if direction == "a->b":
                self.sent.append(data)
            return [data]

    clock = Clock()
    registry = MetricsRegistry(clock)
    recorder = RecordingAdversary()
    a, b = link_pair(clock, NetworkParameters.instant(), recorder,
                     metrics=registry)
    client, server = RpcPeer(a, "client"), RpcPeer(b, "server")
    executions = []
    program = Program("count", 410000, 1)

    @program.proc(1, "BUMP", UInt32, UInt32)
    def bump(args, ctx):
        executions.append(args)
        return len(executions)

    server.register(program)
    server.reply_cache_size = 2
    assert client.call(410000, 1, 1, UInt32, 7, UInt32) == 1
    first_request = recorder.sent[-1]
    # Replay while the entry is still cached: served without execution.
    server._on_record(first_request)
    assert executions == [7]
    assert server.duplicates_served == 1
    # Two newer calls push the first entry out of the size-2 cache.
    for value in range(2):
        client.call(410000, 1, 1, UInt32, value, UInt32)
    assert server.reply_cache_evictions >= 1
    snapshot = registry.snapshot()["metrics"]
    assert (snapshot["rpc.reply_cache_evictions"]
            == server.reply_cache_evictions)
    # Replay after eviction: the server has forgotten it and runs the
    # handler again (the reply goes to an unknown xid and is dropped).
    before = len(executions)
    server._on_record(first_request)
    assert len(executions) == before + 1
    assert server.duplicates_served == 1  # not a cache hit this time


def test_recovery_hook_runs_from_second_retry():
    from repro.rpc.peer import RetryPolicy

    hook_calls = []

    class DropFirstThree(DropAdversary):
        def __init__(self):
            super().__init__(target_index=-1)
            self._count = 0

        def process(self, data, direction):
            if direction == "a->b":
                self._count += 1
                if self._count <= 3:
                    return []
            return [data]

    client, server, _clock = make_pair(DropFirstThree())
    server.register(demo_program())
    client.retry_policy = RetryPolicy()

    def hook():  # a generator function: call_task delegates to it
        hook_calls.append(True)
        return True
        yield

    client.recovery_hook = hook
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 2, "y": 2}, UInt32) == 4
    # attempt 0 dropped, attempt 1 (plain retransmit) dropped, attempts
    # 2 and 3 run the hook first:
    assert len(hook_calls) >= 1
    assert client.recoveries >= 1


def test_no_waiter_distinguished_from_timeout():
    from repro.rpc.peer import RpcNoWaiter

    class DeafPipe:
        """A transport that never delivers anything."""

        def send(self, data): ...

        def on_receive(self, handler): ...

    client = RpcPeer(DeafPipe(), "client")
    with pytest.raises(RpcNoWaiter):
        client.call(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1}, UInt32)
    # Deliberately NOT an RpcTimeout: retry/redial logic that treats
    # timeouts as packet loss must never mask a wiring bug by retrying
    # on a transport that can never deliver a reply.
    assert not issubclass(RpcNoWaiter, RpcTimeout)
    from repro.rpc.peer import RpcError
    assert issubclass(RpcNoWaiter, RpcError)


# -- one-way calls ----------------------------------------------------------


def test_call_oneway_executes_and_drops_the_reply():
    """Fire-and-forget: the handler runs, the reply comes back to an
    xid nobody is waiting for, and the peer drops it silently."""
    client, server, clock = make_pair()
    server.register(demo_program())
    client.call_oneway(400000, 2, 1, ADD_ARGS, {"x": 2, "y": 3})
    settle(clock)
    assert client.calls_sent == 1
    assert server.calls_served == 1
    # The stray reply poisoned nothing: a real call still works.
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 4, "y": 4},
                       UInt32) == 8


def test_zero_latency_link_still_delivers_from_the_clock():
    """A loopback is timed like any link: nothing runs inside ``send``,
    a waiting caller advances the clock to the arrival, and at zero
    latency that arrival is *now* — the clock does not move."""
    client, server, clock = make_pair()
    server.register(demo_program())
    clock.advance(1.0)
    client.call_oneway(400000, 2, 1, ADD_ARGS, {"x": 2, "y": 3})
    assert server.calls_served == 0
    assert client.call(400000, 2, 1, ADD_ARGS, {"x": 4, "y": 4},
                       UInt32) == 8
    assert server.calls_served == 2
    assert clock.now == 1.0


def test_call_oneway_never_blocks_on_an_unresponsive_peer():
    """The lease-fanout regression: a peer that swallows the call (an
    adversary drops it) must cost the sender nothing — no pumping, no
    retransmission, no timeout to sit through."""
    client, server, _clock = make_pair(DropAdversary(target_index=0))
    server.register(demo_program())
    client.call_oneway(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1})
    assert client.calls_sent == 1
    assert server.calls_served == 0      # dropped on the wire, so be it
    assert client.retransmissions == 0


def test_call_oneway_dead_link_raises_transport_down():
    from repro.rpc.peer import RpcTransportDown

    client, _server, _clock = make_pair()
    client._pipe.close()
    with pytest.raises(RpcTransportDown):
        client.call_oneway(400000, 2, 1, ADD_ARGS, {"x": 1, "y": 1})
