"""Helpers shared across the test suite."""


def settle(clock) -> None:
    """Advance *clock* to each pending timer in turn until none is left.

    A link hands a record to its receiver from a clock timer, never from
    inside ``send``.  A test that sends on a bare link and then looks at
    the receiver calls this in between, the way a caller waiting for a
    reply would advance the clock.
    """
    while (deadline := clock.next_deadline()) is not None:
        clock.advance(max(0.0, deadline - clock.now))


def job(action=None):
    """An ``execute`` for ``RequestQueue.submit``: a worker ``yield
    from``s what it returns, a generator that runs *action* (if any)."""
    def execute():
        if action is not None:
            action()
        yield from ()
    return execute


def run(task, clock):
    """Run a task generator to its result at top level: each
    :class:`~repro.sim.sched.Sleep` it yields advances *clock*."""
    try:
        waited = task.send(None)
        while True:
            clock.advance(waited.seconds)
            waited = task.send(None)
    except StopIteration as stop:
        return stop.value
