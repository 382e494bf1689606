"""A deterministic cooperative task engine over the virtual clock.

Every record in the simulator arrives from a clock timer, and whoever
waits for one waits by yielding.  This module is where the yielding
happens, without threads: a :class:`Task` wraps a generator that
``yield``\\ s what it is waiting for — a :class:`Future` (an RPC reply,
a send-window slot) or a :class:`Sleep` (think time, backoff) — and the
:class:`Scheduler` steps whichever tasks are runnable, advancing the
:class:`~repro.sim.clock.Clock` to the next timer deadline whenever
everyone is waiting.

Determinism: when several tasks are runnable the scheduler picks among
them with its own seeded ``random.Random``, so every interleaving is a
pure function of the seed.  Nothing here reads wall-clock time.

The synchronous edge: a clock has exactly one scheduler
(:attr:`Clock.scheduler <repro.sim.clock.Clock.scheduler>`: the one a
World builds, or one made on first use), and a caller outside any task
(a test, an example, a system call made at top level) waits by pumping
it.  :meth:`repro.rpc.peer.Runner.drive` runs a generator to completion
that way: a Future it yields is waited out through
:meth:`Scheduler.legacy_pump` — step one runnable task or advance the
clock — and a :class:`Sleep` becomes a :meth:`Scheduler.timer` waited
out the same way, so :meth:`pump_once` is the only place the clock
advances.  Code running *inside* a task step (or a handler) never
pumps: it yields, system calls too, and a pump from there is an
:class:`AssertionError` naming the task.  With nothing runnable and no
timer pending, :meth:`pump_once` waits on its sockets (if any; they are
served before each clock advance) or raises :class:`SchedulerStalled`,
which the RPC layer treats like an elapsed retransmission timer.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Iterable

from ..obs.registry import NULL_REGISTRY
from .clock import Clock


class SchedulerStalled(RuntimeError):
    """``pump_once`` found no runnable task and no pending timer.

    Whatever the caller is waiting for cannot arrive without outside
    help (e.g. a retransmission): the record carrying it was lost.
    The message names the blocked tasks (and what each one is waiting
    on) plus the oldest pending timer deadline, so a wedged
    1024-client run points at its culprit instead of shrugging.
    """


class Sleep:
    """Yielded by a task to wait *seconds* of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.seconds = seconds


class Future:
    """A one-shot value (or error) a task can wait on.

    ``resolve``/``fail`` are idempotent-ish in the way timers need:
    the first call wins, later calls are ignored — a retransmission
    timeout racing a late reply must not clobber it.
    """

    __slots__ = ("name", "done", "value", "exception", "_callbacks")

    def __init__(self, name: str = "future") -> None:
        self.name = name
        self.done = False
        self.value: Any = None
        self.exception: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def resolve(self, value: Any = None) -> bool:
        if self.done:
            return False
        self.done = True
        self.value = value
        self._fire()
        return True

    def fail(self, exception: BaseException) -> bool:
        if self.done:
            return False
        self.done = True
        self.exception = exception
        self._fire()
        return True


class Task:
    """One cooperative task: a generator plus its lifecycle state."""

    __slots__ = ("name", "daemon", "gen", "finished", "failed", "result",
                 "exception", "waiting_on", "_running", "_queued",
                 "_pending_resume")

    def __init__(self, gen: Generator, name: str, daemon: bool) -> None:
        self.name = name
        #: Daemon tasks (the control loop) serve the others; they
        #: never count toward run-loop liveness and are simply abandoned
        #: at drain, like OS daemon threads.
        self.daemon = daemon
        self.gen = gen
        self.finished = False
        self.failed = False
        self.result: Any = None
        self.exception: BaseException | None = None
        #: What the task last parked on ("future:<name>" or
        #: "sleep until <t>"); stall and drain reports print it.
        self.waiting_on: str | None = None
        self._running = False
        self._queued = False
        self._pending_resume: Future | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.finished else
                 "running" if self._running else
                 "ready" if self._queued else "waiting")
        return f"<Task {self.name} {state}>"


class Scheduler:
    """Runs tasks to completion with seeded, reproducible interleaving."""

    def __init__(self, clock: Clock, seed: int = 0, metrics=None) -> None:
        if clock._scheduler is not None:
            raise RuntimeError(
                "this clock already has a scheduler (clock.scheduler)")
        clock._scheduler = self
        self.clock = clock
        self.rng = random.Random(seed)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._ready: list[Task] = []
        self.tasks: list[Task] = []
        self.steps = 0
        #: Non-daemon tasks spawned and not yet finished: what
        #: :meth:`run` loops on, so a pump costs the same in a World of
        #: 4 sessions and of 1,024.
        self._live_count = 0
        #: Non-daemon tasks that died of an exception, ever; a run's
        #: own failures are the delta around it.
        self.failed_tasks = 0
        #: The task currently being stepped, if any — how
        #: :meth:`legacy_pump` tells a sync entry point from a task.
        self.current: Task | None = None
        #: Sockets polled before the clock advances (a repro.rpc.tcp.Loop).
        self.sockets = None
        self._m_steps = self.metrics.counter("sched.steps")
        self._m_spawned = self.metrics.counter("sched.tasks_spawned")
        self._m_failed = self.metrics.counter("sched.tasks_failed")
        self._m_legacy_pumps = self.metrics.counter("sched.legacy_pumps")

    # -- task creation ----------------------------------------------------

    def spawn(self, gen: Generator, name: str = "task",
              daemon: bool = False) -> Task:
        """Register a generator as a runnable task."""
        task = Task(gen, name, daemon)
        self.tasks.append(task)
        if not daemon:
            self._live_count += 1
        self._m_spawned.inc()
        self._enqueue(task)
        return task

    def _enqueue(self, task: Task) -> None:
        if task.finished or task._queued or task._running:
            return
        task._queued = True
        self._ready.append(task)

    # -- stepping ---------------------------------------------------------

    def _take_ready(self) -> Task | None:
        """Pop one runnable task, chosen by the seeded rng."""
        while self._ready:
            index = (self.rng.randrange(len(self._ready))
                     if len(self._ready) > 1 else 0)
            task = self._ready.pop(index)
            task._queued = False
            if not task.finished:
                return task
        return None

    def _step(self, task: Task, send: Any = None,
              throw: BaseException | None = None) -> None:
        """Resume *task* once and park it on whatever it yields next."""
        self.steps += 1
        self._m_steps.inc()
        task._running = True
        task.waiting_on = None
        previous, self.current = self.current, task
        try:
            if throw is not None:
                waited = task.gen.throw(throw)
            else:
                waited = task.gen.send(send)
        except StopIteration as stop:
            task.finished = True
            task.result = stop.value
            if not task.daemon:
                self._live_count -= 1
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            task.finished = True
            task.failed = True
            task.exception = exc
            self._m_failed.inc()
            if not task.daemon:
                self._live_count -= 1
                self.failed_tasks += 1
            return
        finally:
            task._running = False
            self.current = previous
        self._park(task, waited)

    def _park(self, task: Task, waited: Any) -> None:
        if isinstance(waited, Future):
            task.waiting_on = f"future:{waited.name}"

            def wake(future: Future, task=task) -> None:
                self._resume_with(task, future)
            waited.add_done_callback(wake)
            return
        if isinstance(waited, Sleep):
            seconds = waited.seconds
        elif isinstance(waited, (int, float)):
            seconds = float(waited)
        else:
            self._step(task, throw=TypeError(
                f"task {task.name} yielded {waited!r}; expected a "
                "Future, Sleep, or a number of seconds"
            ))
            return
        # Timer callbacks only *enqueue*: the task runs on the next
        # scheduler step, never from inside Clock.advance, so a timer
        # firing mid-charge cannot re-enter a task that is mid-step.
        deadline = self.clock.now + seconds
        task.waiting_on = f"sleep until {deadline:.6f}"
        self.clock.call_at(deadline, lambda: self._enqueue(task))

    def _resume_with(self, task: Task, future: Future) -> None:
        """Queue *task* to resume with the future's (immutable) outcome."""
        task._pending_resume = future
        self._enqueue(task)

    def _resume_args(self, task: Task) -> tuple[Any, BaseException | None]:
        future, task._pending_resume = task._pending_resume, None
        if future is None:
            return None, None
        if future.exception is not None:
            return None, future.exception
        return future.value, None

    # -- run loops --------------------------------------------------------

    def _live(self) -> list[Task]:
        return [t for t in self.tasks if not t.finished and not t.daemon]

    def _describe_blocked(self, limit: int = 8) -> str:
        """Render who is stuck on what, for stall/drain messages."""
        blocked = [t for t in self._live()
                   if not t._queued and not t._running]
        if self.current is not None:
            blocked.insert(0, self.current)
        if not blocked:
            return "no live tasks"
        parts = [f"{t.name}({t.waiting_on or 'mid-step'})"
                 for t in blocked[:limit]]
        if len(blocked) > limit:
            parts.append(f"... {len(blocked) - limit} more")
        return ", ".join(parts)

    def pump_once(self) -> None:
        """One unit of progress: step a task, serve sockets or advance time.

        Raises :class:`SchedulerStalled` when none is possible —
        the caller's awaited event cannot occur without intervention.
        """
        task = self._take_ready()
        if task is not None:
            send, throw = self._resume_args(task)
            self._step(task, send, throw)
            return
        if self.sockets is not None and self.sockets.poll(0.0):
            return
        deadline = self.clock.next_deadline()
        if deadline is None:
            if self.sockets is not None and self.sockets.poll(None):
                return
            raise SchedulerStalled(
                "no runnable task and no pending timer; blocked: "
                f"{self._describe_blocked()}; oldest pending timer: none "
                f"(now={self.clock.now:.6f})"
            )
        self.clock.advance(max(0.0, deadline - self.clock.now))

    def timer(self, seconds: float) -> Future:
        """A Future the clock resolves *seconds* from now: how a
        synchronous caller sleeps, by pumping until it is done."""
        future = Future(f"sleep {seconds:g}")
        self.clock.call_at(self.clock.now + seconds, future.resolve)
        return future

    def legacy_pump(self) -> None:
        """:meth:`pump_once` for synchronous callers outside any task.

        Every synchronous wait on this scheduler's clock comes here
        (:meth:`repro.rpc.peer.Runner.wait_for`): handshakes run
        outside any task, top-level system calls and sleeps, tests.
        Every use is counted (``sched.legacy_pumps``).  A pump *from
        inside a task step* would re-enter the scheduler under the task
        that is supposed to yield instead; that is always an error, and
        it names the offending task.
        """
        self._m_legacy_pumps.inc()
        if self.current is not None:
            raise AssertionError(
                "legacy scheduler pump reached from inside task "
                f"{self.current.name!r}: this path must be task-native "
                "(yield on a Future/Sleep)"
            )
        self.pump_once()

    def run(self) -> list[Task]:
        """Run until every non-daemon task finishes or nothing can move.

        Returns the list of *blocked* non-daemon tasks (empty on a clean
        run): tasks still waiting on futures that can no longer resolve.
        """
        while self._live_count:
            try:
                self.pump_once()
            except SchedulerStalled:
                break
        return self._live()

    def drain(self) -> None:
        """Assert a clean shutdown: no blocked or unfinished tasks."""
        blocked = self.run()
        if blocked:
            names = ", ".join(
                f"{t.name}({t.waiting_on or 'never ran'})" for t in blocked
            )
            raise AssertionError(f"tasks hung at drain: {names}")

    # -- helpers ----------------------------------------------------------

    def run_all(self, gens: Iterable[Generator],
                name: str = "task") -> list[Task]:
        """Spawn every generator, run to completion, return the tasks."""
        tasks = [self.spawn(gen, name=f"{name}-{i}")
                 for i, gen in enumerate(gens)]
        self.run()
        return tasks
