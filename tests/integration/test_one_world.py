"""One World, one server model.

Every SFS server master serves its client calls through its own request
queue from construction on: with no slot limit until someone configures
it, each call starts in the record delivery that brought it.  The
world's scheduler is seeded by ``World(seed=)`` and nothing else.
"""

import math

import pytest

from repro.core.admission import FAIR_SHARE, FIFO
from repro.core.keyneg import EphemeralKeyCache
from repro.kernel.world import World
from repro.load import LoadConfig, LoadHarness
from repro.load.harness import Target, dial, resolve_task, seed_file
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.peer import RpcPeer
from repro.sim.clock import Clock
from repro.sim.network import NetworkParameters
from repro.sim.sched import Future, Scheduler


# -- the scheduler's seed ---------------------------------------------------


def _pick_order(scheduler) -> list[int]:
    """The order *scheduler* runs eight tasks made ready together."""
    order = []

    def mark(index):
        order.append(index)
        yield from ()

    for index in range(8):
        scheduler.spawn(mark(index), name=f"t{index}")
    scheduler.run()
    return order


def test_a_control_plane_started_first_keeps_the_worlds_seed():
    """``enable_control`` spawns its daemon on the world's scheduler
    without reseeding it: the world picks simultaneously ready tasks as
    its own seed says, whatever was enabled first."""
    controlled = World(seed=7)
    controlled.enable_control()
    controlled.scheduler.pump_once()    # the daemon parks on its period
    plain = World(seed=7)
    expected = _pick_order(Scheduler(Clock(), seed=7))
    assert expected != _pick_order(Scheduler(Clock(), seed=0))
    assert _pick_order(plain.scheduler) == expected
    assert _pick_order(controlled.scheduler) == expected


def test_enable_pipelining_accepts_only_the_worlds_seed():
    world = World(seed=7)
    assert world.enable_pipelining(depth=4, seed=7) is world.scheduler
    assert world.enable_pipelining(depth=2) is world.scheduler
    with pytest.raises(ValueError):
        world.enable_pipelining(depth=8, seed=8)
    assert world.pipeline_depth == 2


# -- a server that nobody configured ----------------------------------------


def _export(world):
    """A server with one seeded file, never configured."""
    server = world.add_server("files.example.com")
    path = server.export_fs()
    seed_file(server.fs, "f", b"data" * 64)
    return server, path


def _getattr(session, handle):
    return session.call_nfs_task(
        nfs_const.NFSPROC3_GETATTR,
        nfs_types.GetAttrArgs.make(object=handle), authno=0)


def _watch_starts(monkeypatch, world, queue) -> list[tuple[float, int]]:
    """(instant, slots busy) as each server call starts its handler."""
    starts = []
    serve_queued = RpcPeer.serve_queued

    def watched(peer, header, body, request):
        if peer.name.startswith("sfssd@"):
            starts.append((world.clock.now, queue.busy))
        return (yield from serve_queued(peer, header, body, request))

    monkeypatch.setattr(RpcPeer, "serve_queued", watched)
    return starts


def test_an_unconfigured_server_serves_every_call_as_it_arrives(monkeypatch):
    """Calls of N sessions that reach the server in one instant all
    start in that instant, each in a slot of its own while the others'
    relays wait on the local NFS server: nothing waits, nothing is
    turned away, and each is counted admitted."""
    world = World(seed=3)
    world.lan_params = NetworkParameters(bandwidth=math.inf)
    server, path = _export(world)
    queue = server.master.request_queue
    assert (queue.workers, queue.service_time) == (math.inf, 0.0)
    keys = EphemeralKeyCache(world.rng)
    sessions = [dial(world, path, keys) for _ in range(4)]
    handle, = sessions[0].peer.drive(resolve_task(sessions[0], ["f"]))
    admitted = world.metrics.counter("server.queue.admitted")
    before = admitted.value
    starts = _watch_starts(monkeypatch, world, queue)
    calls = [session.peer.start(_getattr(session, handle))
             for session in sessions]
    for call in calls:
        sessions[0].peer.wait_for(call)
        assert call.value[0] == nfs_const.NFS3_OK
    instant = starts[0][0]
    assert starts == [(instant, busy) for busy in (1, 2, 3, 4)]
    assert admitted.value - before == 4
    assert queue.peak_depth == 0 and queue.rejected == 0
    assert queue.busy == 0
    waits = world.metrics.histogram("server.queue.wait_seconds")
    assert waits.sum == 0.0


def test_an_unconfigured_server_crashing_mid_relay_frees_its_slot(
        monkeypatch):
    """A crash while a relayed call is in service frees the slot; the
    call unwinding afterwards gives back nothing, and the first call
    after the restart starts the instant it arrives."""
    world = World(seed=4)
    server, path = _export(world)
    queue = server.master.request_queue
    keys = EphemeralKeyCache(world.rng)
    session = dial(world, path, keys)
    handle, = session.peer.drive(resolve_task(session, ["f"]))
    in_service = []
    serve_queued = RpcPeer.serve_queued

    def crash_mid_relay(peer, header, body, request):
        def crash():
            in_service.append(queue.busy)
            server.crash()
        if peer.name.startswith("sfssd@"):
            # Due now, so it fires before the relay's loopback reply.
            world.clock.call_at(world.clock.now, crash)
        return (yield from serve_queued(peer, header, body, request))

    monkeypatch.setattr(RpcPeer, "serve_queued", crash_mid_relay)
    call = session.peer.start(_getattr(session, handle))
    session.peer.wait_for(call)
    assert call.exception is not None
    assert in_service == [1] and queue.busy == 0
    monkeypatch.undo()
    server.restart()
    starts = _watch_starts(monkeypatch, world, queue)
    session = dial(world, path, keys)
    assert starts[0][1] == 1            # only itself in service
    status, _ = session.peer.drive(_getattr(session, handle))
    assert status == nfs_const.NFS3_OK
    assert queue.busy == 0 and queue.peak_depth == 0
    assert world.metrics.histogram("server.queue.wait_seconds").sum == 0.0


# -- configuring --------------------------------------------------------------


def test_a_connection_accepted_before_configure_takes_a_slot_after_it():
    world = World(seed=5)
    server, path = _export(world)
    session = dial(world, path, EphemeralKeyCache(world.rng))
    handle, = session.peer.drive(resolve_task(session, ["f"]))
    queue = server.master.request_queue
    queue.configure(max_depth=4, workers=1)
    gate = Future("gate")

    def held():
        yield gate

    assert queue.submit("hog", held)        # the one slot is busy
    call = session.peer.start(_getattr(session, handle))
    while queue.depth == 0:
        world.scheduler.pump_once()         # the call arrives and waits
    assert not call.done
    gate.resolve(None)
    session.peer.wait_for(call)
    assert call.value[0] == nfs_const.NFS3_OK
    assert queue.peak_depth == 1 and queue.busy == 0


def test_a_harness_leaves_its_targets_queues_as_they_were():
    """``LoadHarness`` configures only a server it seeds itself; a
    target's server keeps its queue, configured or not."""
    world = World(seed=6)
    tuned = world.add_server("tuned.example.com")
    untouched = world.add_server("untouched.example.com")
    targets = []
    for server in (tuned, untouched):
        path = server.export_fs()
        seed_file(server.fs, "f", b"data")
        targets.append(Target(path, ("f",)))
    tuned.master.request_queue.configure(
        max_depth=5, workers=3, policy=FAIR_SHARE, service_time=0.002)

    def parameters(server):
        queue = server.master.request_queue
        return (queue.max_depth, queue.workers, queue.policy,
                queue.service_time)

    harness = LoadHarness(
        LoadConfig(clients=2, ops_per_client=1, seed=6, max_depth=1,
                   workers=1, service_time=0.5),
        world=world, targets=targets)
    assert parameters(tuned) == (5, 3, FAIR_SHARE, 0.002)
    assert parameters(untouched) == (32, math.inf, FIFO, 0.0)
    assert harness.queues == {
        "tuned.example.com": tuned.master.request_queue,
        "untouched.example.com": untouched.master.request_queue}
