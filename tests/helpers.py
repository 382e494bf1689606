"""Helpers shared across the test suite."""

import contextlib
import signal
import sys

from repro.nfs3.client import Nfs3Client
from repro.rpc.peer import Runner
from repro.rpc.rpcmsg import NULL_AUTH


def settle(clock) -> None:
    """Advance *clock* to each pending timer in turn until none is left.

    A link hands a record to its receiver from a clock timer, never from
    inside ``send``.  A test that sends on a bare link and then looks at
    the receiver calls this in between, the way a caller waiting for a
    reply would advance the clock.
    """
    while (deadline := clock.next_deadline()) is not None:
        clock.advance(max(0.0, deadline - clock.now))


@contextlib.contextmanager
def wall_bound(seconds: float):
    """Fail the block with :class:`TimeoutError` after *seconds* of wall
    time, even while it waits on a socket, instead of letting a wedged
    run hang the suite (Unix, main thread)."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s of wall time")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(fn) -> int:
    """Python-level and built-in calls one warm *fn()* makes, counted
    with ``sys.setprofile``: an exact cost, where host time is too noisy
    to gate."""
    fn()  # warm: memo tables filled, nothing compiled on the way
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1  # setprofile(None) itself


def job(action=None):
    """An ``execute`` for ``RequestQueue.submit``: a worker ``yield
    from``s what it returns, a generator that runs *action* (if any)."""
    def execute():
        if action is not None:
            action()
        yield from ()
    return execute


def run(task, clock):
    """Run a task generator to its result at top level, through the one
    synchronous runner, which waits by pumping ``clock.scheduler``: a
    :class:`~repro.sim.sched.Sleep` it yields is a timer there, and a
    Future waits for *clock*'s timers (and the scheduler's tasks) to
    resolve it.  An agent's methods and a handler called directly run
    this way."""
    return Runner(clock).drive(task)


class SyncNfs3Client:
    """An :class:`~repro.nfs3.client.Nfs3Client` whose stubs each run to
    their result on its peer, for tests that speak NFS directly."""

    def __init__(self, peer, cred=NULL_AUTH):
        self.peer = peer
        self._stubs = Nfs3Client(peer, cred)

    def with_cred(self, cred):
        return SyncNfs3Client(self.peer, cred)

    def __getattr__(self, name):
        stub = getattr(self._stubs, name)
        return lambda *args, **kwargs: self.peer.drive(stub(*args, **kwargs))
