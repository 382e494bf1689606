"""Tests for the cooperative task scheduler (repro.sim.sched)."""

import pytest

from repro.sim.clock import Clock
from repro.sim.sched import Future, Scheduler, SchedulerStalled, Sleep


def make() -> Scheduler:
    return Scheduler(Clock(), seed=0)


# --- futures -------------------------------------------------------------

def test_future_first_resolution_wins():
    future = Future()
    assert future.resolve(1) is True
    assert future.resolve(2) is False
    assert future.fail(RuntimeError("late")) is False
    assert future.value == 1
    assert future.exception is None


def test_future_first_failure_wins():
    future = Future()
    error = RuntimeError("boom")
    assert future.fail(error) is True
    assert future.resolve(7) is False
    assert future.exception is error


def test_future_done_callback_fires_immediately_when_done():
    future = Future()
    future.resolve("x")
    seen = []
    future.add_done_callback(lambda f: seen.append(f.value))
    assert seen == ["x"]


# --- basic task lifecycle ------------------------------------------------

def test_task_returns_value():
    sched = make()

    def job():
        yield Sleep(0.5)
        return 42

    task = sched.spawn(job())
    assert sched.run() == []
    assert task.finished and not task.failed
    assert task.result == 42
    assert sched.clock.now == pytest.approx(0.5)


def test_sleep_orders_tasks_by_deadline():
    sched = make()
    order = []

    def sleeper(name, seconds):
        yield Sleep(seconds)
        order.append((name, sched.clock.now))

    sched.spawn(sleeper("late", 2.0))
    sched.spawn(sleeper("early", 1.0))
    sched.run()
    assert [name for name, _ in order] == ["early", "late"]
    assert order[0][1] == pytest.approx(1.0)
    assert order[1][1] == pytest.approx(2.0)


def test_yielding_plain_number_sleeps():
    sched = make()

    def job():
        yield 0.25

    sched.spawn(job())
    sched.run()
    assert sched.clock.now == pytest.approx(0.25)


def test_bad_yield_fails_task_with_type_error():
    sched = make()

    def job():
        yield "nonsense"

    task = sched.spawn(job())
    sched.run()
    assert task.failed
    assert isinstance(task.exception, TypeError)


def test_task_receives_future_value_and_exception():
    sched = make()
    ok, bad = Future(), Future()
    seen = {}

    def job():
        seen["value"] = yield ok
        try:
            yield bad
        except RuntimeError as exc:
            seen["error"] = str(exc)

    def driver():
        yield Sleep(0.1)
        ok.resolve("reply")
        yield Sleep(0.1)
        bad.fail(RuntimeError("down"))

    sched.spawn(job())
    sched.spawn(driver())
    assert sched.run() == []
    assert seen == {"value": "reply", "error": "down"}


# --- determinism ---------------------------------------------------------

def _interleaving(seed):
    sched = Scheduler(Clock(), seed=seed)
    order = []

    def worker(name):
        for _ in range(4):
            order.append(name)
            yield Sleep(0.0)

    for name in ("a", "b", "c"):
        sched.spawn(worker(name))
    sched.run()
    return order


def test_same_seed_same_interleaving():
    assert _interleaving(7) == _interleaving(7)


def test_different_seeds_differ_somewhere():
    runs = {tuple(_interleaving(seed)) for seed in range(8)}
    assert len(runs) > 1


def test_fixed_seed_step_order_is_pinned():
    """The exact interleaving of one seed, so a change to the ready
    queue (e.g. a swap-pop) cannot move every seed's run silently: if
    this fails, every virtual number and scenario digest moved too."""
    sched = Scheduler(Clock(), seed=2026)
    order = []
    gate = Future("gate")

    def worker(index):
        order.append(index)
        yield Sleep((index % 4) * 0.001)
        order.append(index)
        if index == 5:
            gate.resolve("open")
        else:
            yield gate
        order.append(index)
        yield Sleep(0.0)
        order.append(index)

    for index in range(16):
        sched.spawn(worker(index), name=f"w{index}")
    assert sched.run() == []
    assert order == [
        3, 6, 10, 11, 14, 1, 5, 15, 12, 13, 8, 9, 7, 4, 2, 0,
        8, 12, 4, 0, 1, 13, 5, 5, 4, 9, 9, 1, 0, 8, 13, 12,
        0, 9, 1, 13, 5, 12, 8, 4, 6, 2, 6, 14, 10, 10, 14, 2,
        6, 2, 14, 10, 15, 15, 11, 3, 11, 3, 7, 7, 15, 3, 7, 11,
    ]
    assert sched.steps == 63
    assert sched.clock.now == pytest.approx(0.003)


# --- liveness, daemons, drain --------------------------------------------

def test_run_returns_blocked_tasks():
    sched = make()
    never = Future("never")

    def stuck():
        yield never

    task = sched.spawn(stuck(), name="stuck")
    blocked = sched.run()
    assert blocked == [task]


def test_drain_raises_on_hung_task():
    sched = make()

    def stuck():
        yield Future()

    sched.spawn(stuck(), name="hung-one")
    with pytest.raises(AssertionError, match="hung-one"):
        sched.drain()


def test_run_does_not_scan_the_task_list_per_pump(monkeypatch):
    """A pump costs the same however many tasks are parked: the loop
    condition is a count, and the full scan happens once, for the
    return value."""
    sched = make()

    def sleeper(index):
        yield Sleep(1.0 + index * 1e-6)

    for index in range(2000):
        sched.spawn(sleeper(index))
    scans = []
    live = sched._live
    monkeypatch.setattr(sched, "_live", lambda: scans.append(1) or live())
    assert sched.run() == []
    assert sched.steps == 4000
    assert len(scans) <= 1


def test_failed_task_count_skips_daemons_and_survives_pruning():
    sched = make()

    def bad():
        raise RuntimeError("x")
        yield  # pragma: no cover

    sched.spawn(bad())
    sched.spawn(bad(), daemon=True)
    sched.run()
    assert sched.failed_tasks == 1
    # The benchmark drops finished tasks between runs; the count of a
    # later run must still start from here.
    sched.tasks[:] = [t for t in sched.tasks if not t.finished]
    sched.spawn(bad())
    assert sched.run() == []
    assert sched.failed_tasks == 2


def test_daemons_do_not_hold_the_loop_open():
    sched = make()
    served = []
    wakeup = Future()

    def daemon():
        while True:
            yield Sleep(0.1)
            served.append(sched.clock.now)

    def job():
        yield Sleep(0.35)

    sched.spawn(daemon(), daemon=True)
    sched.spawn(job())
    assert sched.run() == []
    # The daemon ran while the real task lived, then was abandoned.
    assert len(served) == 3
    assert not wakeup.done


def test_daemon_blocked_on_future_is_not_hung():
    sched = make()

    def daemon():
        yield Future("arrival")

    sched.spawn(daemon(), daemon=True)
    sched.drain()  # must not raise


# --- pump_once -----------------------------------------------------------

def test_pump_once_stalls_when_nothing_can_move():
    sched = make()
    with pytest.raises(SchedulerStalled):
        sched.pump_once()


def test_pump_once_advances_clock_to_next_deadline():
    sched = make()

    def job():
        yield Sleep(1.5)

    sched.spawn(job())
    sched.pump_once()                      # step: parks on the timer
    assert sched.clock.now == 0.0
    sched.pump_once()                      # no ready task: advance time
    assert sched.clock.now == pytest.approx(1.5)


def test_pumping_inside_a_task_step_never_resteps_self():
    """A task that pumps the scheduler mid-step (the sync handshake
    path) must only ever step *other* tasks — a generator cannot be
    resumed while it is running."""
    sched = make()
    progressed = []

    def other():
        progressed.append("other")
        yield Sleep(0.0)

    def pumper():
        while not progressed:
            sched.pump_once()
        yield Sleep(0.0)

    sched.spawn(pumper())
    sched.spawn(other())
    assert sched.run() == []
    assert progressed == ["other"]


def test_run_all_helper():
    sched = make()

    def job(value):
        yield Sleep(0.0)
        return value

    tasks = sched.run_all([job(1), job(2)], name="batch")
    assert sorted(t.result for t in tasks) == [1, 2]
    assert {t.name for t in tasks} == {"batch-0", "batch-1"}


def test_scheduler_counters():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    sched = Scheduler(Clock(), seed=0, metrics=registry)

    def ok():
        yield Sleep(0.0)

    def bad():
        raise RuntimeError("x")
        yield  # pragma: no cover

    sched.spawn(ok())
    sched.spawn(bad())
    sched.run()
    assert registry.counter("sched.tasks_spawned").value == 2
    assert registry.counter("sched.tasks_failed").value == 1
    assert registry.counter("sched.steps").value == sched.steps > 0
