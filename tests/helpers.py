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
