"""Tests for the task-native async core (PROTOCOLS.md section 17).

Windowed RPC pipelining, timer link delivery, NFS3 READV/WRITEV
batching, client-side readahead / write-gathering, and the pump
discipline that proves code inside a task never falls back to scheduler
re-entrancy.
"""

import random

import pytest

from repro.bench.setups import SFS, make_setup
from repro.core.client import _RA_BUDGET, _RA_STREAMS
from repro.fs.memfs import MemFs
from repro.nfs3 import const as nfs_const
from repro.nfs3.server import Nfs3Server
from repro.rpc.peer import (
    Program,
    RetryPolicy,
    RpcPeer,
    RpcRejected,
    RpcTimeout,
)
from repro.rpc.rpcmsg import AuthSys
from repro.rpc.xdr import Struct, UInt32
from repro.sim.clock import Clock
from repro.sim.network import (
    BurstLossAdversary,
    DropAdversary,
    NetworkParameters,
    link_pair,
)
from repro.sim.sched import Future, Scheduler, SchedulerStalled, Sleep
from tests.helpers import SyncNfs3Client, settle

ADD_ARGS = Struct("AddArgs", [("x", UInt32), ("y", UInt32)])
WAN = NetworkParameters(latency=0.02, bandwidth=5_000_000.0,
                        per_message_overhead=100)


def make_pipelined_pair(params=WAN, adversary=None, depth=None, clock=None):
    clock = clock or Clock()
    a, b = link_pair(clock, params, adversary)
    if depth is not None:
        a.link.window_depth = depth
    client = RpcPeer(a, "client")
    server = RpcPeer(b, "server")
    return client, server, clock


def counting_program():
    program = Program("demo", 400000, 2)
    calls = []

    @program.proc(1, "ADD", ADD_ARGS, UInt32)
    def add(args, ctx):
        calls.append(args.x)
        return (args.x + args.y) & 0xFFFFFFFF

    return program, calls


# --- pipelined link delivery ---------------------------------------------

def test_pipelined_link_overlaps_wire_time():
    """Back-to-back sends schedule arrivals one serialization apart;
    the sender is never charged a round trip inline."""
    clock = Clock()
    a, b = link_pair(clock, WAN)
    arrivals = []
    b.on_receive(lambda record: arrivals.append(clock.now))
    payload = b"x" * 5000  # ~1 ms serialization at 5 MB/s
    t0 = clock.now
    for _ in range(4):
        a.send(payload)
    assert clock.now == t0  # nothing charged inline
    settle(clock)
    assert len(arrivals) == 4
    # First record: serialization + propagation.  Each subsequent one
    # queues behind the previous transmission, not behind a full RTT.
    tx = (5000 + WAN.per_message_overhead) / WAN.bandwidth
    assert arrivals[0] == pytest.approx(tx + WAN.latency)
    for earlier, later in zip(arrivals, arrivals[1:]):
        assert later - earlier == pytest.approx(tx)
    assert arrivals[-1] < 4 * (tx + WAN.latency)  # overlapped, not serial


def test_windowed_calls_overlap_round_trips():
    """Four concurrent windowed calls cost ~one RTT, not four."""
    client, server, clock = make_pipelined_pair(depth=8)
    program, calls = counting_program()
    server.register(program)
    scheduler = Scheduler(clock, seed=0)
    results = {}

    def caller(i):
        results[i] = yield from client.call_task(
            400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

    for i in range(4):
        scheduler.spawn(caller(i), name=f"caller-{i}")
    scheduler.drain()
    assert results == {i: i + 1 for i in range(4)}
    assert sorted(calls) == [0, 1, 2, 3]
    # Serial would cost 4 round trips (>= 160 ms at 20 ms latency).
    assert clock.now < 2.5 * (2 * WAN.latency)


# --- the send window ------------------------------------------------------

def test_window_full_backpressure_parks_not_spins():
    """Callers beyond the window park on a slot future; the scheduler
    never busy-steps them while they wait."""
    client, server, clock = make_pipelined_pair(depth=2)
    program, calls = counting_program()
    server.register(program)
    scheduler = Scheduler(clock, seed=0)
    results = {}

    def caller(i):
        results[i] = yield from client.call_task(
            400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

    for i in range(6):
        scheduler.spawn(caller(i), name=f"caller-{i}")
    scheduler.drain()
    assert results == {i: i + 1 for i in range(6)}
    assert client.window_waits == 4  # callers 2..5 parked for a slot
    # Parked means yielded on a Future — a handful of steps per task,
    # not a spin loop.  6 tasks x (spawn + slot + reply) stays tiny.
    assert scheduler.steps < 40


def test_window_slot_handoff_is_fifo():
    """Completions hand their slot to the *oldest* waiter: whatever
    order the (seeded-random) scheduler lets tasks reach the window,
    admission and execution follow that same order with depth 1."""
    client, server, clock = make_pipelined_pair(depth=1)
    program, calls = counting_program()
    server.register(program)
    scheduler = Scheduler(clock, seed=0)
    attempts = []

    def caller(i):
        attempts.append(i)
        yield from client.call_task(
            400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

    for i in range(5):
        scheduler.spawn(caller(i), name=f"caller-{i}")
    scheduler.drain()
    assert client.window_waits == 4
    assert calls == attempts  # FIFO: arrival at the window == admission


# --- loss recovery inside the window --------------------------------------

@pytest.mark.parametrize("seed", [2026, 31337])
def test_in_window_retransmit_recovers_burst_loss(seed):
    """Windowed calls retransmit through a correlated-loss burst and
    the duplicate-reply cache keeps execution at-most-once."""
    adversary = BurstLossAdversary(
        enter_rate=0.15, exit_rate=0.4, rng=random.Random(seed))
    client, server, clock = make_pipelined_pair(
        adversary=adversary, depth=4)
    client.retry_policy = RetryPolicy(max_attempts=8)
    program, calls = counting_program()
    server.register(program)
    scheduler = Scheduler(clock, seed=seed)
    results = {}

    def caller(i):
        results[i] = yield from client.call_task(
            400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

    for i in range(12):
        scheduler.spawn(caller(i), name=f"caller-{i}")
    scheduler.drain()
    assert results == {i: i + 1 for i in range(12)}
    assert adversary.dropped > 0
    assert client.retransmissions > 0
    # At-most-once: every procedure ran exactly once no matter how many
    # times its record crossed the (lossy) wire.
    assert sorted(calls) == list(range(12))


def test_burst_loss_run_is_deterministic():
    """Same seed, same world: identical clock, identical retransmit
    count.  The async core must not introduce nondeterminism."""
    def run(seed):
        adversary = BurstLossAdversary(
            enter_rate=0.15, exit_rate=0.4, rng=random.Random(seed))
        client, server, clock = make_pipelined_pair(
            adversary=adversary, depth=4)
        client.retry_policy = RetryPolicy(max_attempts=8)
        program, _calls = counting_program()
        server.register(program)
        scheduler = Scheduler(clock, seed=seed)

        def caller(i):
            yield from client.call_task(
                400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

        for i in range(12):
            scheduler.spawn(caller(i), name=f"caller-{i}")
        scheduler.drain()
        return clock.now, client.retransmissions, scheduler.steps

    assert run(2026) == run(2026)
    assert run(31337) == run(31337)


# --- out-of-order completion x duplicate-reply cache ----------------------

def test_out_of_order_completion_with_duplicate_replay():
    """Replies served in reverse order resolve the right futures, and a
    replayed request is answered from the reply cache, not re-executed."""
    client, server, clock = make_pipelined_pair(depth=4)
    program, calls = counting_program()
    server.register(program)
    captured = []
    server.dispatcher = lambda header, body, request: captured.append(
        (header, body, request))
    scheduler = Scheduler(clock, seed=0)
    results = {}

    def caller(i):
        results[i] = yield from client.call_task(
            400000, 2, 1, ADD_ARGS, {"x": i, "y": 1}, UInt32)

    for i in range(3):
        scheduler.spawn(caller(i), name=f"caller-{i}")
    while len(captured) < 3:
        scheduler.pump_once()
    arrival_xs = [ADD_ARGS.unpack(body).x for _h, body, _r in captured]
    # Serve newest-first: completions come back out of send order.
    for header, body, request in reversed(captured):
        server.serve(header, body, request)
    assert calls == list(reversed(arrival_xs))
    # A retransmission of the first request arrives late: the cache
    # answers it and the handler does not run again.
    server._on_record(captured[0][2])
    assert server.duplicates_served == 1
    assert calls == list(reversed(arrival_xs))
    scheduler.drain()
    assert results == {0: 1, 1: 2, 2: 3}


# --- pump discipline --------------------------------------------------------

def test_strict_pump_asserts_from_inside_a_task():
    scheduler = Scheduler(Clock(), seed=0)
    errors = []

    def bad():
        try:
            scheduler.legacy_pump()
        except AssertionError as exc:
            errors.append(str(exc))
        yield 0.0

    scheduler.spawn(bad(), name="hot-path-task")
    scheduler.drain()
    assert len(errors) == 1
    assert "hot-path-task" in errors[0]
    assert "task-native" in errors[0]


def test_stall_message_names_blocked_task_and_waited_future():
    scheduler = Scheduler(Clock(), seed=0)
    never = Future(name="reply-that-never-comes")

    def stuck():
        yield never

    scheduler.spawn(stuck(), name="stuck-client")
    with pytest.raises(SchedulerStalled) as excinfo:
        while True:
            scheduler.pump_once()
    message = str(excinfo.value)
    assert "stuck-client" in message
    assert "reply-that-never-comes" in message
    assert "oldest pending timer" in message


# --- background calls and speculative calls --------------------------------

def _add(client, x, **kwargs):
    return client.call_task(400000, 2, 1, ADD_ARGS, {"x": x, "y": 1},
                            UInt32, **kwargs)


def test_start_runs_calls_from_timers_alone():
    """``start`` needs no scheduler: three calls overlap on the wire and
    complete as the clock reaches their replies."""
    client, server, clock = make_pipelined_pair(depth=4)
    program, _calls = counting_program()
    server.register(program)
    outcomes = [client.start(_add(client, i)) for i in range(3)]
    assert client._window_in_flight == 3
    assert not any(outcome.done for outcome in outcomes)
    settle(clock)
    assert [outcome.value for outcome in outcomes] == [1, 2, 3]
    assert clock.now < 2 * (2 * WAN.latency)    # overlapped, not serial
    assert client._window_in_flight == 0


def test_start_delivers_a_failure_through_the_future():
    client, _server, clock = make_pipelined_pair()
    outcome = client.start(_add(client, 1))     # nobody serves program 400000
    settle(clock)
    assert isinstance(outcome.exception, RpcRejected)


def test_speculative_call_gets_one_attempt():
    client, server, clock = make_pipelined_pair(
        adversary=DropAdversary(target_index=0, direction="a->b"), depth=4)
    client.retry_policy = RetryPolicy()
    recoveries = []
    client.recovery_hook = lambda: recoveries.append(1) or (yield)
    program, calls = counting_program()
    server.register(program)
    outcome = client.start(_add(client, 7, speculative=True))
    settle(clock)
    assert isinstance(outcome.exception, RpcTimeout)
    assert calls == [] and client.retransmissions == 0 and not recoveries
    assert clock.now == pytest.approx(client.rto_floor)
    assert not client._call_futures
    assert client._window_in_flight == 0


# --- NFS3 vectored procedures ---------------------------------------------

@pytest.fixture
def nfs_stack():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    fs = MemFs(fsid=9)
    server = Nfs3Server(fs)
    server_peer = RpcPeer(b, "nfsd")
    server_peer.register(server.program)
    client = SyncNfs3Client(RpcPeer(a, "kernel"), AuthSys(uid=0, gid=0))
    return server, client


def test_readv_batches_multiple_segments(nfs_stack):
    server, client = nfs_stack
    root = server.root_handle()
    fh = client.create(root, "file", mode=0o644).obj
    client.write(fh, 0, bytes(range(256)) * 64, stable=nfs_const.FILE_SYNC)
    res = client.readv(fh, [(0, 100), (1000, 100), (16000, 1000)])
    assert [seg.count for seg in res.segments] == [100, 100, 384]
    assert res.segments[0].data == (bytes(range(256)) * 64)[:100]
    assert res.segments[2].eof
    assert res.file_attributes.size == 16384


def test_writev_gathers_multiple_segments(nfs_stack):
    server, client = nfs_stack
    root = server.root_handle()
    fh = client.create(root, "file", mode=0o644).obj
    res = client.writev(
        fh, [(0, b"aaaa"), (4096, b"bbbb"), (8192, b"cc")],
        stable=nfs_const.UNSTABLE)
    assert res.count == 10
    assert res.committed == nfs_const.UNSTABLE
    client.commit(fh)
    assert client.read(fh, 4096, 4).data == b"bbbb"
    assert client.read(fh, 8192, 4).data == b"cc"
    assert client.getattr(fh).size == 8194


# --- end-to-end: readahead + write-gathering under the kernel -------------

def _large_file_pass(depth, seed=7):
    setup = make_setup(SFS, seed=seed, pipeline_depth=depth)
    proc, clock = setup.process, setup.clock
    path = setup.workdir + "/big"
    chunk = bytes(range(256)) * 32  # 8 KB, patterned
    fd = proc.open(path, "w")
    for _ in range(32):
        proc.write(fd, chunk)
    proc.fsync(fd)
    proc.close(fd)
    fd = proc.open(path, "r")
    data = bytearray()
    while True:
        piece = proc.read(fd, 8192)
        if not piece:
            break
        data.extend(piece)
    proc.close(fd)
    return bytes(data), clock.now, setup.metrics.snapshot()["metrics"]


def _count(snapshot, name):
    value = snapshot.get(name, 0)
    return value if not isinstance(value, dict) else value.get("count", 0)


def test_readahead_and_gather_preserve_file_contents():
    """Depth 1 reads ahead nothing and gathers nothing — each write
    would flush on arrival, so it is relayed as itself — and depth 8
    does both; the bytes are the same."""
    single_data, _t, single_metrics = _large_file_pass(depth=1)
    piped_data, _t, piped_metrics = _large_file_pass(depth=8)
    assert piped_data == single_data == bytes(range(256)) * 32 * 32
    assert _count(single_metrics, "client.readahead.hits") == 0
    assert _count(single_metrics, "client.readahead.batches") == 0
    assert _count(single_metrics, "client.gather.writes") == 0
    assert _count(piped_metrics, "client.readahead.hits") > 0
    assert _count(piped_metrics, "client.gather.writes") == 32
    assert _count(piped_metrics, "client.gather.flushes") >= 1
    assert _count(piped_metrics, "channel.mac_reject") == 0


def test_pipelined_kernel_run_is_deterministic():
    first = _large_file_pass(depth=8, seed=11)
    second = _large_file_pass(depth=8, seed=11)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_truncating_create_is_a_write_behind_barrier():
    """``open(f, "w")`` truncates by name inside CREATE, which carries
    no handle of *f*: gathered writes to it must reach the server before
    the truncation (else a later flush resurrects them), and readahead
    chunks of the old file must not outlive it."""
    setup = make_setup(SFS, seed=7, pipeline_depth=8)
    proc = setup.process
    path = setup.workdir + "/f"
    chunk = bytes(range(256)) * 32  # 8 KB

    def counter(name):
        return _count(setup.metrics.snapshot()["metrics"], name)

    writer = proc.open(path, "w")
    proc.write(writer, chunk)       # gathered at sfscd, not yet sent
    flushes = counter("client.gather.flushes")
    proc.close(proc.open(path, "w"))
    assert counter("client.gather.flushes") == flushes + 1
    proc.close(writer)              # nothing left to flush after the barrier
    assert proc.stat(path).size == 0
    assert proc.read_file(path) == b""

    proc.write_file(path, chunk * 8)
    reader = proc.open(path)
    assert proc.read(reader, 3 * 8192) == chunk * 3  # READV prefetched the rest
    hits = counter("client.readahead.hits")
    assert hits > 0
    proc.close(proc.open(path, "w"))
    assert proc.read(reader, 8192) == b""
    assert counter("client.readahead.hits") == hits
    proc.close(reader)


# --- the readahead window: READVs kept in flight ahead of the reader ------

CHUNK = 8192


def _wan_file(depth, chunks, seed=7):
    """A *chunks* x 8 KB file of seeded bytes behind a WAN link."""
    setup = make_setup(SFS, seed=seed, pipeline_depth=depth,
                       params=NetworkParameters.wan())
    data = random.Random(seed).randbytes(chunks * CHUNK)
    path = setup.workdir + "/big"
    setup.process.write_file(path, data)
    return setup, path, data


def _mount(setup):
    (mount,) = setup.world.clients["bench-client"].sfscd._mounts.values()
    return mount


def _read_all(proc, fd):
    pieces = []
    while True:
        piece = proc.read(fd, CHUNK)
        if not piece:
            return b"".join(pieces)
        pieces.append(piece)


def test_wan_sequential_read_runs_near_line_rate():
    """1 MB over a 5 MB/s, 40 ms-RTT link at depth 8: the transfer time
    plus the round trips that find the run, not a round trip per batch
    (stop-and-wait took 1.01 s for this)."""
    setup, path, data = _wan_file(depth=8, chunks=128)
    proc, clock = setup.process, setup.clock
    wan = NetworkParameters.wan()
    fd = proc.open(path)
    start = clock.now
    assert _read_all(proc, fd) == data
    elapsed = clock.now - start
    assert elapsed <= 1.5 * len(data) / wan.bandwidth + 3 * 2 * wan.latency
    counts = setup.metrics.snapshot()["metrics"]
    assert _count(counts, "rpc.retransmissions") == 0
    assert _count(counts, "channel.mac_reject") == 0


def test_several_readvs_are_in_flight_while_a_read_blocks():
    setup, path, data = _wan_file(depth=8, chunks=64)
    proc = setup.process
    mount = _mount(setup)
    in_flight = setup.metrics.gauge("rpc.window.in_flight")
    seen = []
    count = mount._ra_count

    def watching(event):
        if event == "waits":  # a READ parks on a prefetch still in flight
            seen.append(in_flight.value)
        count(event)

    mount._ra_count = watching
    fd = proc.open(path)
    assert _read_all(proc, fd) == data
    assert max(seen) >= 2
    assert max(seen) <= 8 - 2  # the prefetch cap: depth - 2


def test_depth_4_never_parks_a_call_behind_its_own_prefetches():
    setup, path, data = _wan_file(depth=4, chunks=64)
    proc = setup.process
    fd = proc.open(path)
    assert _read_all(proc, fd) == data
    counts = setup.metrics.snapshot()["metrics"]
    assert _count(counts, "client.readahead.hits") > 32
    assert _count(counts, "rpc.window.waits") == 0


def test_local_write_drops_the_prefetches_still_on_the_wire():
    """A write discards the handle's stream; READV replies that were in
    flight land afterwards and must change nothing — above all, no
    pre-write byte may come out of the buffer after the write."""
    setup, path, data = _wan_file(depth=8, chunks=64)
    proc = setup.process
    mount = _mount(setup)
    reader = proc.open(path)
    assert proc.read(reader, 2 * CHUNK) == data[:2 * CHUNK]  # window opens
    assert len(mount._background) >= 2
    fresh = bytes(CHUNK)
    writer = proc.open(path)
    proc.lseek(writer, 5 * CHUNK)
    proc.write(writer, fresh, sync=True)   # FILE_SYNC: relayed, not gathered
    counts = setup.metrics.snapshot()["metrics"]
    assert _count(counts, "client.readahead.stale_replies") >= 2
    assert not mount._background
    assert not mount._ra_streams           # nothing they carried was kept
    expected = data[:5 * CHUNK] + fresh + data[6 * CHUNK:]
    assert proc.read(reader, len(data)) == expected[2 * CHUNK:]
    proc.close(writer)
    proc.close(reader)


def test_kernel_client_inside_a_task_reads_ahead_without_stalling():
    """A kernel client inside a task (the scenario engine's resolvers)
    yields from the system calls' generator forms: the read waits on
    prefetches like a synchronous one, and other tasks step meanwhile —
    a ticker sleeping 1 ms at a time runs through the transfer."""
    setup, path, data = _wan_file(depth=8, chunks=64)
    proc, scheduler = setup.process, setup.world.scheduler
    ticks = []
    reading = [True]

    def reader():
        fd = yield from proc.task.open(path)
        pieces = []
        while piece := (yield from proc.task.read(fd, CHUNK)):
            pieces.append(piece)
        yield from proc.task.close(fd)
        reading[0] = False
        return b"".join(pieces)

    def ticker():
        while reading[0]:
            ticks.append(setup.clock.now)
            yield Sleep(0.001)

    task = scheduler.spawn(reader(), name="in-task-reader")
    scheduler.spawn(ticker(), name="ticker")
    assert scheduler.run() == []
    assert not task.failed, task.exception
    assert task.result == data
    assert len(ticks) > 100  # the transfer takes some 180 ms
    counts = setup.metrics.snapshot()["metrics"]
    assert _count(counts, "client.readahead.waits") > 0
    assert _count(counts, "client.readahead.hits") > 32


@pytest.mark.parametrize("seed", [2026, 31337])
def test_wan_depth_sweep_and_a_reread_from_the_cache(seed):
    """The depth sweep over a 512 KB WAN file: sequential read at depth
    8 and up at least 7x its own depth-1 baseline (a window of 1 on the
    same engine; readahead that waits for each batch stopped at 4.8x),
    depth 4 at least 1.5x (two READVs in flight), no retransmission and
    no MAC reject anywhere.  At depth 8 the file then reads back in
    reverse order without one session call."""
    chunk = b"\xa5" * CHUNK

    def seq_read_seconds(depth, reread=False):
        setup = make_setup(SFS, seed=seed, pipeline_depth=depth,
                           params=NetworkParameters.wan())
        proc, clock = setup.process, setup.clock
        path = setup.workdir + "/large"
        fd = proc.open(path, "w")
        for _ in range(64):
            proc.write(fd, chunk)
        proc.fsync(fd)
        proc.close(fd)
        start = clock.now
        fd = proc.open(path, "r")
        while proc.read(fd, CHUNK):
            pass
        elapsed = clock.now - start
        if reread:
            peer = _mount(setup).session.peer
            calls = peer.calls_sent
            for at in reversed(range(64)):
                proc.lseek(fd, at * CHUNK)
                assert proc.read(fd, CHUNK) == chunk
            assert peer.calls_sent == calls
        proc.close(fd)
        counts = setup.metrics.snapshot()["metrics"]
        assert _count(counts, "rpc.retransmissions") == 0
        assert _count(counts, "channel.mac_reject") == 0
        return elapsed

    base = seq_read_seconds(1)
    for depth, floor in ((4, 1.5), (8, 7.0), (16, 7.0)):
        speedup = base / seq_read_seconds(depth, reread=depth == 8)
        assert speedup >= floor, f"depth {depth}: {speedup:.2f}x < {floor}x"


# --- the block cache: what was read stays, under the lease ------------------

#: The cache is one at every depth: at depth 1 only plain READs fill
#: it, at depth 8 READV prefetches too.  Each cache test runs at both.
CACHE_DEPTHS = (1, 8)


def test_reread_in_random_order_sends_no_session_call():
    """1 MB read through over the WAN, then read back in random order:
    every chunk — the plain READ that started the run included — is
    still kept, so no call crosses the 40 ms round trip."""
    for depth in CACHE_DEPTHS:
        setup, path, data = _wan_file(depth=depth, chunks=128)
        proc, clock = setup.process, setup.clock
        peer = _mount(setup).session.peer
        fd = proc.open(path)
        assert _read_all(proc, fd) == data
        calls, start = peer.calls_sent, clock.now
        order = list(range(128))
        random.Random(7).shuffle(order)
        for at in order:
            proc.lseek(fd, at * CHUNK)
            assert proc.read(fd, CHUNK) == data[at * CHUNK:(at + 1) * CHUNK]
        assert peer.calls_sent == calls, depth
        assert clock.now - start < 0.01     # a WAN round trip is 0.04 s
        proc.close(fd)


def test_local_write_and_truncation_drop_kept_chunks():
    for depth in CACHE_DEPTHS:
        setup, path, data = _wan_file(depth=depth, chunks=32)
        proc = setup.process
        mount = _mount(setup)
        peer = mount.session.peer
        reader = proc.open(path)
        assert _read_all(proc, reader) == data
        calls = peer.calls_sent
        proc.lseek(reader, 0)
        assert _read_all(proc, reader) == data
        assert peer.calls_sent == calls, depth  # served from what was kept
        fresh = bytes(CHUNK)
        writer = proc.open(path)
        proc.lseek(writer, 5 * CHUNK)
        proc.write(writer, fresh, sync=True)
        proc.close(writer)
        assert not mount._ra_streams
        expected = data[:5 * CHUNK] + fresh + data[6 * CHUNK:]
        proc.lseek(reader, 0)
        assert _read_all(proc, reader) == expected
        assert mount._ra_streams
        proc.close(proc.open(path, "w"))    # truncates by name
        assert not mount._ra_streams
        proc.lseek(reader, 0)
        assert proc.read(reader, CHUNK) == b""
        proc.close(reader)


def test_kept_bytes_stay_within_the_mount_budget():
    """Two 1.25 MB files, read through one after the other: the mount
    never holds more than its budget — the worst case PROTOCOLS.md §17
    states, 2 MiB of file data — and what goes first is the least
    recently read file's oldest chunks."""
    assert _RA_BUDGET == 2 * 1024 * 1024
    for depth in CACHE_DEPTHS:
        setup = make_setup(SFS, seed=7, pipeline_depth=depth)
        proc = setup.process
        files = {}
        for name in ("a", "b"):
            files[name] = random.Random(name).randbytes(160 * CHUNK)
            proc.write_file(f"{setup.workdir}/{name}", files[name])
        mount = _mount(setup)
        for name, data in files.items():
            fd = proc.open(f"{setup.workdir}/{name}")
            got = []
            while piece := proc.read(fd, CHUNK):
                got.append(piece)
                held = [sum(len(kept[0]) for kept in stream.chunks.values())
                        for stream in mount._ra_streams.values()]
                assert held == [s.held for s in mount._ra_streams.values()]
                assert sum(held) <= _RA_BUDGET
            proc.close(fd)
            assert b"".join(got) == data
        first, second = mount._ra_streams.values()
        assert second.held == len(files["b"])   # the last file, whole
        assert 0 < first.held <= _RA_BUDGET - second.held
        assert min(first.chunks) > 0            # its oldest chunks went


def test_readahead_state_is_kept_for_a_few_handles_only():
    """Files read and kept: state for the four most recently read
    handles only.  Files read and unlinked: none at all — REMOVE names
    a directory and a leaf, never the handle, which sfscd finds in its
    lookup cache."""
    for depth in CACHE_DEPTHS:
        setup = make_setup(SFS, seed=7, pipeline_depth=depth)
        proc = setup.process
        for unlink in (False, True):
            for i in range(12):
                path = f"{setup.workdir}/f{i}"
                proc.write_file(path, bytes(6 * CHUNK))
                fd = proc.open(path)
                assert len(proc.read(fd, 3 * CHUNK)) == 3 * CHUNK
                proc.close(fd)
                if unlink:
                    proc.unlink(path)
            mount = _mount(setup)
            assert len(mount._ra_streams) == (0 if unlink else _RA_STREAMS)
            assert not mount._background
