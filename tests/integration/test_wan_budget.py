"""The WAN round-trip budget: the depth-8 sibling of test_syscall_budget.

On a 40 ms round trip a call nobody needed costs more than the bytes
it carries, and a call that waits for another it does not depend on
leaves the link idle.  For one 1 MB file — CREATE, sequential writes,
``fsync``, ``open("r")``, sequential read — this pins what sfscd sends
over its session and when, from the session peer itself:

* the calls, in order: no LOOKUP after our own CREATE (sfscd keeps the
  name its CREATE made, PROTOCOLS.md §17), and ``open("r")`` costs one
  ACCESS;
* no write() waits for a flush (write-behind);
* the READVs leave in the same virtual instant as the first READ, the
  READ first (the window opens on the first read);
* the CREATE reply to the COMMIT takes the transfer time plus at most
  two round trips.

Each test runs at both pipeline-smoke seeds.
"""

import pytest

from repro.bench.setups import SFS, make_setup
from repro.nfs3 import const as nfs_const
from repro.sim.network import NetworkParameters

SEEDS = [2026, 31337]
CHUNK = 8192
SIZE = 1 << 20
WAN = NetworkParameters.wan()
RTT = 2 * WAN.latency


def _life_of_a_file(seed):
    """Run the file's life; returns (the session's sends and replies as
    ``(virtual time, "send"|"reply", procedure name)``, each write()'s
    virtual seconds, the setup)."""
    setup = make_setup(SFS, seed=seed, pipeline_depth=8, params=WAN)
    proc, clock = setup.process, setup.clock
    proc.stat(setup.workdir)                                  # mounted
    (mount,) = setup.world.clients["bench-client"].sfscd._mounts.values()
    peer = mount.session.peer
    events = []
    call = peer._call_task_inner

    def watched(prog, vers, procnum, *args):
        name = nfs_const.PROC_NAMES[procnum]
        events.append((clock.now, "send", name))
        result = yield from call(prog, vers, procnum, *args)
        events.append((clock.now, "reply", name))
        return result

    peer._call_task_inner = watched
    path = setup.workdir + "/life"
    data = bytes(range(256)) * (SIZE // 256)
    fd = proc.open(path, "w")
    writes = []
    for at in range(0, SIZE, CHUNK):
        start = clock.now
        proc.write(fd, data[at:at + CHUNK])
        writes.append(clock.now - start)
    proc.fsync(fd)
    proc.close(fd)
    fd = proc.open(path, "r")
    got = bytearray()
    while piece := proc.read(fd, CHUNK):
        got += piece
    proc.close(fd)
    assert bytes(got) == data
    return events, writes, setup


@pytest.mark.parametrize("seed", SEEDS)
def test_the_calls_a_1_mb_file_costs(seed):
    events, _writes, _setup = _life_of_a_file(seed)
    sent = [name for _t, kind, name in events if kind == "send"]
    first_read = sent.index("READ")
    assert sent[:first_read] == ["CREATE", "WRITEV", "WRITEV", "COMMIT",
                                 "ACCESS"]
    assert sent.count("READ") == 1
    assert set(sent[first_read + 1:]) == {"READV"}


@pytest.mark.parametrize("seed", SEEDS)
def test_no_write_waits_for_a_flush(seed):
    events, writes, _setup = _life_of_a_file(seed)
    assert max(writes) < 0.001                   # a round trip is 40 ms
    # ... though a WRITEV was on the wire as the writes went on.
    first_flush = next(t for t, kind, name in events
                       if kind == "send" and name == "WRITEV")
    flush_reply = next(t for t, kind, name in events
                       if kind == "reply" and name == "WRITEV")
    assert flush_reply - first_flush > RTT


@pytest.mark.parametrize("seed", SEEDS)
def test_readvs_leave_with_the_first_read(seed):
    events, _writes, _setup = _life_of_a_file(seed)
    sends = [(t, name) for t, kind, name in events if kind == "send"]
    at = [name for _t, name in sends].index("READ")
    read_time = sends[at][0]
    assert sends[at + 1][1] == "READV"
    assert sends[at + 1][0] == read_time          # the same instant


@pytest.mark.parametrize("seed", SEEDS)
def test_create_reply_to_commit_is_the_transfer_plus_two_round_trips(seed):
    events, _writes, _setup = _life_of_a_file(seed)
    created = next(t for t, kind, name in events
                   if kind == "reply" and name == "CREATE")
    committed = next(t for t, kind, name in events
                     if kind == "send" and name == "COMMIT")
    assert committed - created <= SIZE / WAN.bandwidth + 2 * RTT + 0.001
