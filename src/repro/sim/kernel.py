"""A deterministic discrete-event simulation kernel.

The performance study in the paper was run with native threads on a
uniprocessor.  CPython's GIL makes wall-clock measurements of a threaded
port meaningless, so this package reproduces the study on a discrete-event
simulator instead: *processes* are plain Python generators, the clock is a
simulated float (milliseconds by convention), and all contention — lock
waits, CPU queueing, log-disk flushes — happens in simulated time.

A process is a generator that yields *commands*:

``Delay(dt)``
    Suspend for ``dt`` simulated time units.

``Wait(event, timeout=None)``
    Suspend until ``event`` fires.  ``event.succeed(value)`` resumes the
    process with ``value``; ``event.fail(exc)`` raises ``exc`` inside it.
    If ``timeout`` elapses first, :class:`~repro.sim.errors.WaitTimeout`
    is raised inside the process.

``Hold(resource, dt)``
    Queue (FCFS) for a slot of ``resource``, hold it for ``dt`` time
    units, release it, resume — a whole CPU or disk charge as one
    command (``Resource.use`` yields exactly this).

Engine code composes blocking operations with ``yield from``; the value a
sub-generator ``return``s propagates to the caller as usual.

Example::

    sim = Simulator()

    def worker():
        yield Delay(5.0)
        return sim.now

    proc = sim.spawn(worker(), name="worker")
    sim.run()
    assert proc.result == 5.0
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterator, NamedTuple, Optional

from .errors import ProcessKilled, SimulationDeadlock, WaitTimeout

#: Type alias for the generators the kernel schedules.
ProcessGenerator = Generator[Any, Any, Any]


class ScheduleEntry(NamedTuple):
    """A scheduler policy's read-only view of one queued callback.

    ``seq`` is the kernel's tie-break sequence number: it is assigned by
    ``call_later`` in strictly increasing order, so at equal timestamps
    the default execution order is exactly the order in which callbacks
    were scheduled (and therefore stable under process spawn order).
    Policies identify entries by ``seq``; ``label`` names the process (or
    subsystem) the callback belongs to, for traces and debugging.
    """

    when: float
    seq: int
    label: str


class SchedulerPolicy:
    """Pluggable same-timestamp scheduling for :class:`Simulator`.

    When a policy is installed (``sim.set_policy``), every time the
    kernel is about to run a callback it gathers *all* queued callbacks
    sharing the earliest timestamp (the *ready set*, sorted by ``seq``)
    and asks the policy for a decision:

    * ``("run", index)`` — run ``ready[index]`` now; the rest of the
      ready set goes back on the queue untouched.
    * ``("defer", index, delta)`` — push ``ready[index]`` ``delta`` time
      units into the future (a bounded preemption at a yield point) and
      ask again.  ``delta`` is clamped to a small positive minimum so a
      defer always makes progress.

    The default implementation reproduces the kernel's native FIFO
    tie-break (lowest ``seq`` first), so installing the base class is a
    no-op behaviourally.  Deterministic replay works because, given the
    same decision sequence, the kernel's state evolution — including the
    ``seq`` counter — is identical.
    """

    #: Smallest defer the kernel will honour (keeps defers from looping
    #: at the same timestamp forever).
    MIN_DEFER = 1e-6

    def schedule(self, now: float, ready: list) -> tuple:
        """Return a decision for the ready set; see the class docstring."""
        return ("run", 0)


class TimerHandle:
    """A cancellable handle for one scheduled callback.

    Returned by :meth:`Simulator.call_later` / :meth:`Simulator.call_soon`.
    ``cancel()`` is idempotent and safe after the callback has run; it
    returns ``True`` only when it actually prevented a pending callback
    from firing.  Cancellation is lazy: the queue entry stays on the heap
    with its callback slot cleared and is skipped (not dispatched, and the
    clock is *not* advanced to it) when it reaches the front.

    This is what keeps settled ``Wait`` timeouts from drifting the clock:
    a 1-second lock-timeout callback whose wait was satisfied after 2 ms
    used to sit in the heap and fire as a no-op at +1000 ms, advancing
    ``Simulator.now`` past the true end of work.
    """

    __slots__ = ("_sim", "_entry", "when")

    def __init__(self, sim: "Simulator", entry: list, when: float):
        self._sim = sim
        self._entry = entry
        self.when = when

    @property
    def active(self) -> bool:
        """Whether the callback is still pending (not fired, not cancelled)."""
        return self._entry[2] is not None

    def cancel(self) -> bool:
        """Cancel the callback; no-op if it already ran or was cancelled."""
        if self._entry[2] is None:
            return False
        self._entry[2] = None
        self._sim._timers_cancelled += 1
        return True


class Delay:
    """Command: suspend the yielding process for ``dt`` time units."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt!r}")
        self.dt = dt


class Wait:
    """Command: suspend the yielding process until ``event`` fires.

    ``timeout`` is optional; when it expires before the event fires, a
    :class:`WaitTimeout` is raised inside the process and the process is
    removed from the event's waiter list.
    """

    __slots__ = ("event", "timeout")

    def __init__(self, event: "Event", timeout: Optional[float] = None):
        self.event = event
        self.timeout = timeout


class Hold:
    """Command: queue for a slot of ``resource`` (a ``Resource``: its
    ``_hold`` starts or parks the process, its ``release`` hands the slot
    on), hold it ``dt`` time units, release it, resume the process.

    The kernel only reads the two fields, so one instance may be yielded
    any number of times, by any number of processes.
    """

    __slots__ = ("resource", "dt")

    def __init__(self, resource: Any, dt: float):
        if dt < 0:
            raise ValueError(f"negative hold: {dt!r}")
        self.resource = resource
        self.dt = dt


def _noop() -> None:
    """What a killed process's pending hold entry is turned into."""


class Event:
    """A one-shot event processes can wait on.

    Events carry either a value (``succeed``) or an exception (``fail``).
    Waiters registered after the event has fired are resumed immediately
    (on the next scheduler step), so there is no lost-wakeup race.
    """

    __slots__ = ("sim", "name", "_fired", "_value", "_exc", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: list[tuple[Callable[[], None], str]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise RuntimeError(f"event {self.name!r} has not fired")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def succeed(self, value: Any = None) -> None:
        """Fire the event successfully, resuming all waiters."""
        self._fire(value, None)

    def fail(self, exc: BaseException) -> None:
        """Fire the event with an exception, raising it in all waiters."""
        self._fire(None, exc)

    def _fire(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._fired:
            raise RuntimeError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        # Resume via the scheduler, never synchronously: the firing code
        # (e.g. a lock release inside transaction cleanup) must finish its
        # own critical section before any waiter observes the new state.
        for resume, label in waiters:
            self.sim._schedule(0.0, resume, label)

    def _add_waiter(self, resume: Callable[[], None],
                    label: str = "") -> None:
        if self._fired:
            # Already fired: resume on the next scheduler step so the
            # caller's generator frame has returned first.
            self.sim._schedule(0.0, resume, label)
        else:
            self._waiters.append((resume, label))

    def _remove_waiter(self, resume: Callable[[], None]) -> None:
        for index, (waiter, _label) in enumerate(self._waiters):
            if waiter is resume:
                del self._waiters[index]
                return

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"<Event {self.name!r} {state}>"


class _Waiter:
    """One process's registration on an event's waiter list.

    The instance itself is the resume callable handed to the event, so
    the identity :meth:`Event._remove_waiter` compares stays stable.  A
    ``Wait`` brackets every contended resource acquire, so this path is
    hot: one ``__slots__`` instance replaces the former per-wait state
    dict plus three closures.
    """

    __slots__ = ("proc", "event", "timer", "settled")

    def __init__(self, proc: "Process", event: "Event"):
        self.proc = proc
        self.event = event
        self.timer: Optional[TimerHandle] = None
        self.settled = False

    def __call__(self) -> None:
        """Resume the process with the event's outcome."""
        if self.settled:
            return
        self.settled = True
        proc = self.proc
        proc._waiter = None
        # The wait settled before its timeout: cancel the timer so it
        # neither lingers on the heap nor drags the clock forward.
        if self.timer is not None:
            self.timer.cancel()
        event = self.event
        if event._exc is not None:
            proc._step(throw=event._exc)
        else:
            proc._step(send=event._value)

    def cancel(self) -> None:
        # Called when the process dies while blocked here: drop the
        # registration so the event never steps a dead generator and
        # its waiter list does not accumulate stale entries.
        self.settled = True
        if self.timer is not None:
            self.timer.cancel()
        self.event._remove_waiter(self)

    def on_timeout(self) -> None:
        if self.settled:
            return
        self.settled = True
        proc = self.proc
        proc._waiter = None
        self.event._remove_waiter(self)
        proc._step(throw=WaitTimeout(
            f"process {proc.name} timed out waiting for {self.event!r}"))


class Process:
    """A running generator managed by the simulator.

    ``process.done`` is an :class:`Event` that fires when the generator
    returns (with its return value) or raises (with the exception), so other
    processes can join via ``yield Wait(process.done)``.
    """

    __slots__ = ("sim", "name", "gen", "done", "_alive", "_waiter",
                 "_hold", "_hold_entry")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str):
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = Event(sim, name=f"done:{name}")
        self._alive = True
        # The in-flight Wait registration, if any — a killed or finished
        # process must not linger on an event's waiter list.
        self._waiter: Optional[_Waiter] = None
        # The in-flight Hold, if any, and — once its slot is granted (until
        # then the process sits on the resource's FIFO) — the queue entry
        # that will start or end the service.
        self._hold: Optional[Hold] = None
        self._hold_entry: Optional[list] = None

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator; raises its exception if it failed."""
        return self.done.value

    def kill(self) -> None:
        """Forcibly terminate this process.

        :class:`ProcessKilled` is thrown into the generator so ``finally``
        blocks run; whatever the generator does with it, the process is
        dead afterwards.
        """
        if not self._alive:
            return
        # Deregister from whatever event the process is blocked on *before*
        # throwing: if the generator catches the kill and yields a new Wait,
        # the old registration must not resurrect it later.
        self._cancel_wait()
        self._cancel_hold()
        self._step(throw=ProcessKilled(f"process {self.name} killed"))

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        """Advance the generator one step and interpret what it yields."""
        if not self._alive:
            return
        try:
            if throw is not None:
                command = self.gen.throw(throw)
            else:
                command = self.gen.send(send)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except ProcessKilled as exc:
            # Without its traceback: nothing reads where a kill landed,
            # and the traceback's frames — holding whatever the dead
            # generator named — would sit in a cycle with ``done``,
            # which a run with the collector off never frees.
            self._finish(exc=exc.with_traceback(None), report=False)
            return
        except BaseException as exc:  # noqa: BLE001 - reported via done event
            self._finish(exc=exc)
            return
        # Exact-type fast paths for the three commands every step yields
        # (``isinstance`` plus a second call frame were measurable);
        # subclasses and stray commands fall through to ``_dispatch``.
        cls = command.__class__
        if cls is Delay:
            self.sim._schedule(command.dt, self._step, self.name)
        elif cls is Hold:
            command.resource._hold(self, command)
        elif cls is Wait:
            self._wait(command.event, command.timeout)
        else:
            self._dispatch(command)

    def _finish(self, value: Any = None, exc: Optional[BaseException] = None,
                report: bool = True) -> None:
        self._alive = False
        self._cancel_wait()
        self.sim._live_processes.discard(self)
        if exc is None:
            self.done.succeed(value)
        else:
            had_waiters = bool(self.done._waiters)
            self.done.fail(exc)
            if report and not had_waiters:
                self.sim._unhandled.append((self, exc))

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Delay):
            dt = command.dt
            if dt < 0:
                raise ValueError(f"negative delay: {dt!r}")
            self.sim._schedule(dt, self._step, self.name)
        elif isinstance(command, Wait):
            self._wait(command.event, command.timeout)
        elif isinstance(command, Event):
            self._wait(command, None)
        elif isinstance(command, Hold):
            command.resource._hold(self, command)
        else:
            self._step(throw=TypeError(
                f"process {self.name} yielded unsupported command "
                f"{command!r}; yield Delay(...), Wait(...), Hold(...) "
                f"or an Event"))

    def _cancel_wait(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.cancel()

    def _hold_start(self) -> None:
        """``Resource.release`` handed the slot over: start the service.
        Scheduled where a gate's wake-up would be, and schedules the end
        of service where the woken generator's ``Delay`` would be — the
        ``seq`` stream is that of gate-wait-then-delay."""
        self._hold_entry = self.sim._schedule(
            self._hold.dt, self._hold_done, self.name)

    def _hold_done(self) -> None:
        """End of service: release first (handing the slot on), then
        resume the generator — the order a ``finally: release()`` gave."""
        hold, self._hold = self._hold, None
        self._hold_entry = None
        hold.resource.release()
        self._step()

    def _cancel_hold(self) -> None:
        """Killed mid-Hold: leave the queue, or — granted, whether or not
        service has started — release the slot onward.  The pending
        start/end entry stays queued as a counted no-op (as a dead
        process's ``_step`` entry is), whatever the generator does next."""
        hold = self._hold
        if hold is not None:
            self._hold = None
            entry, self._hold_entry = self._hold_entry, None
            if entry is None:
                hold.resource._waiters.remove(self)
            else:
                entry[2] = _noop
                hold.resource.release()

    def _wait(self, event: Event, timeout: Optional[float]) -> None:
        waiter = _Waiter(self, event)
        event._add_waiter(waiter, label=self.name)
        self._waiter = waiter
        if timeout is not None:
            waiter.timer = self.sim.call_later(
                timeout, waiter.on_timeout, label=f"timeout:{self.name}")


class Simulator:
    """The event loop: a clock plus a priority queue of callbacks.

    **Tie-break determinism.**  Queue entries are ordered by
    ``(when, seq)``: ``seq`` is a strictly increasing sequence number
    assigned at scheduling time, so callbacks that share a timestamp run
    in the order they were scheduled.  In particular, processes spawned
    at the same simulated time start in spawn order, and two events fired
    at the same instant resume their waiters in registration order.  The
    tie-break is exposed to scheduler policies as
    :attr:`ScheduleEntry.seq`, which is what makes a policy's
    permutations of a same-timestamp ready set well-defined and
    replayable.

    **Scheduler policies.**  ``set_policy`` installs a
    :class:`SchedulerPolicy` consulted at every step with the full
    same-timestamp ready set; see that class for the decision contract.
    With no policy installed (the default) the kernel pops the heap
    directly — the FIFO tie-break above.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # Queue entries are mutable lists [when, seq, fn, label]; a
        # cancelled or already-dispatched entry has ``fn is None`` and is
        # skipped lazily when it reaches the front.  ``seq`` is unique,
        # so heap comparisons never reach the callback slot.
        #
        # The pending set is split two ways (the half of all schedules
        # with ``when == now`` — event wakeups, ``call_soon``, zero
        # delays — never needs heap ordering):
        #
        # * ``_ready``   — entries scheduled *at the current time*; a
        #   plain FIFO, since ``seq`` assignment order is append order.
        # * ``_queue``   — a heap of entries strictly in the future (at
        #   scheduling time).
        #
        # Global ``(when, seq)`` dispatch order is preserved because a
        # heap entry that shares the current timestamp was necessarily
        # scheduled before the clock reached it, hence carries a smaller
        # ``seq`` than every ready-FIFO entry (which was appended at the
        # current time): at equal timestamps the heap drains first.
        self._queue: list[list] = []
        self._ready: deque[list] = deque()
        self._live_processes: set[Process] = set()
        self._unhandled: list[tuple[Process, BaseException]] = []
        self._proc_counter = 0
        self._policy: Optional[SchedulerPolicy] = None
        # Kernel counters, surfaced by ``counters()`` for the benchmark
        # figures (BENCH.json).
        self._events_dispatched = 0
        self._timers_cancelled = 0
        self._heap_peak = 0

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds by library convention)."""
        return self._now

    def set_policy(self, policy: Optional[SchedulerPolicy]) -> None:
        """Install (or, with ``None``, remove) a scheduler policy; a
        ``run`` already in progress keeps the one it started with."""
        self._policy = policy

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self, name=name)

    def call_soon(self, fn: Callable[[], None], label: str = "") -> TimerHandle:
        """Schedule ``fn`` at the current time (after pending callbacks)."""
        return self.call_later(0.0, fn, label=label)

    def call_later(self, dt: float, fn: Callable[[], None],
                   label: str = "") -> TimerHandle:
        """Schedule ``fn`` to run ``dt`` time units from now.

        Returns a :class:`TimerHandle`; cancelling it prevents the
        callback from firing (and from advancing the clock).  ``label``
        names the callback for scheduler policies and traces (process
        callbacks carry their process name).  Equal-time callbacks run in
        scheduling order — see the class docstring.
        """
        if dt < 0:
            raise ValueError(f"negative delay: {dt!r}")
        entry = self._schedule(dt, fn, label)
        return TimerHandle(self, entry, entry[0])

    def _schedule(self, dt: float, fn: Callable[[], None],
                  label: str) -> list:
        """``call_later`` minus validation and the :class:`TimerHandle` —
        for internal callers that never cancel (``Delay`` resumption is
        the hottest scheduling path in the benchmarks)."""
        self._seq += 1
        now = self._now
        when = now + dt
        entry = [when, self._seq, fn, label]
        # Classify by the *computed* timestamp, not by ``dt``: an entry
        # landing at the current time belongs on the ready FIFO whatever
        # delay produced it, which keeps the heap free of current-time
        # entries pushed at the current time (the ordering argument in
        # ``__init__`` depends on that).
        if when == now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        depth = len(self._queue) + len(self._ready)
        if depth > self._heap_peak:
            self._heap_peak = depth
        return entry

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process; it starts on the next step."""
        if not isinstance(gen, Iterator):
            raise TypeError(f"spawn() needs a generator, got {gen!r}")
        self._proc_counter += 1
        proc = Process(self, gen, name or f"proc-{self._proc_counter}")
        self._live_processes.add(proc)
        # ``call_soon`` minus the TimerHandle nobody keeps — spawns are
        # never cancelled through a handle (``kill`` settles the entry).
        self._schedule(0.0, proc._step, proc.name)
        return proc

    def _policy_step(self, policy: SchedulerPolicy) -> Optional[list]:
        """Gather the ready set and pop the entry ``policy`` picks.

        Returns ``None`` if the queue drained (possible when the policy
        defers the only ready entry and nothing else is queued — it then
        reappears at a later timestamp, so the caller just loops).
        Cancelled entries never reach the policy: they are dropped while
        gathering the ready set, so traces contain only real choices.
        """
        while self._queue or self._ready:
            if self._ready:
                # Earliest timestamp is the current time: the ready set
                # is every heap entry at ``now`` (smaller seqs, gathered
                # first — pop order is seq order at equal ``when``)
                # followed by the whole FIFO (append order == seq order).
                when = self._now
            else:
                when = self._queue[0][0]
            ready: list[list] = []
            while self._queue and self._queue[0][0] == when:
                entry = heapq.heappop(self._queue)
                if entry[2] is not None:
                    ready.append(entry)
            while self._ready:
                entry = self._ready.popleft()
                if entry[2] is not None:
                    ready.append(entry)
            while ready:
                view = [ScheduleEntry(e[0], e[1], e[3]) for e in ready]
                decision = policy.schedule(when, view)
                kind = decision[0]
                if kind == "defer":
                    _, index, delta = decision
                    delta = max(float(delta), SchedulerPolicy.MIN_DEFER)
                    entry = ready.pop(index)
                    entry[0] = when + delta
                    heapq.heappush(self._queue, entry)
                    continue
                if kind != "run":
                    raise ValueError(
                        f"scheduler policy returned unknown decision "
                        f"{decision!r}")
                chosen = ready.pop(decision[1])
                for entry in ready:
                    heapq.heappush(self._queue, entry)
                return chosen
            # Every ready entry was deferred; re-examine the queue, whose
            # earliest timestamp has moved forward.
        return None

    def run(self, until: Optional[float] = None,
            raise_unhandled: bool = True) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the final simulated time.  If a process died with an
        exception nobody joined on, it is re-raised here (the default) so
        bugs do not pass silently.

        One loop serves every mode: the policy's ready-set gather and
        the horizon check are optional steps around the one merge rule.
        Attribute lookups are hoisted into locals (the policy included —
        ``set_policy`` takes effect at the next ``run``); cancelled
        entries are skipped without touching the clock; each dispatched
        entry has its callback slot cleared so a late
        ``TimerHandle.cancel`` is a no-op.
        """
        queue = self._queue
        fifo = self._ready
        pop = heapq.heappop
        popleft = fifo.popleft
        unhandled = self._unhandled
        policy = self._policy
        now = self._now
        dispatched = 0
        try:
            while True:
                # Merge rule (see ``__init__``): at the current time the
                # heap's entries precede the FIFO's; otherwise the FIFO
                # (which always sits at the current time) goes first, and
                # only an empty FIFO lets the clock advance to the heap
                # minimum.
                if policy is not None:
                    # Optional step: the policy picks from that same
                    # ready set.  A run that stops at the horizon must
                    # not consult it first — decisions are the replayable
                    # trace — hence the check before the gather.
                    if not (fifo or queue):
                        break
                    if until is not None and \
                            (now if fifo else queue[0][0]) > until:
                        self._now = until
                        break
                    entry = self._policy_step(policy)
                    if entry is None:
                        continue
                elif fifo:
                    if queue and queue[0][0] == now:
                        entry = pop(queue)
                    else:
                        entry = popleft()
                elif queue:
                    entry = pop(queue)
                else:
                    break
                if until is not None and entry[0] > until:
                    # Optional step: the horizon.  The next callback (or
                    # one the policy deferred) lies past it; put it back
                    # and stop the clock at the horizon.
                    heapq.heappush(queue, entry)
                    self._now = until
                    break
                fn = entry[2]
                if fn is None:
                    continue
                entry[2] = None
                now = self._now = entry[0]
                dispatched += 1
                fn()
                if raise_unhandled and unhandled:
                    proc, exc = unhandled[0]
                    raise exc
        finally:
            self._events_dispatched += dispatched
        if not queue and not fifo and self._live_processes \
                and until is None:
            names = sorted(p.name for p in self._live_processes)
            raise SimulationDeadlock(
                f"no scheduled events but processes still blocked: {names}")
        return self._now

    def run_process(self, gen: ProcessGenerator, name: str = "main") -> Any:
        """Spawn ``gen``, run the simulation to completion, return its result.

        Convenience used throughout the tests and examples for flows that do
        not need explicit concurrency.
        """
        proc = self.spawn(gen, name=name)
        self.run()
        return proc.result

    def counters(self) -> dict:
        """Kernel-level counters for benchmark baselines.

        ``timers_scheduled`` is the total ``call_later``/``call_soon``
        count (the ``seq`` high-water mark); ``heap_peak`` the largest
        queue the run ever held — the clock-drift fix shows up here as a
        much smaller peak, since settled lock timeouts no longer pile up.
        """
        return {
            "events_dispatched": self._events_dispatched,
            "timers_scheduled": self._seq,
            "timers_cancelled": self._timers_cancelled,
            "heap_peak": self._heap_peak,
        }

    def kill_all(self) -> None:
        """Kill every live process (crash injection) and drop pending events."""
        for proc in list(self._live_processes):
            proc.kill()
        for entry in self._queue:
            entry[2] = None  # late TimerHandle.cancel must stay a no-op
        for entry in self._ready:
            entry[2] = None
        self._queue.clear()
        self._ready.clear()
        self._unhandled.clear()

    def live_processes(self) -> list[Process]:
        """The currently-alive processes (fault-injection introspection)."""
        return sorted(self._live_processes, key=lambda p: p.name)

    def kill_matching(self, name_substring: str) -> int:
        """Kill every live process whose name contains ``name_substring``
        (targeted fault injection, e.g. killing a reorganizer mid-batch);
        returns how many were killed."""
        victims = [p for p in self.live_processes()
                   if name_substring in p.name]
        for proc in victims:
            proc.kill()
        return len(victims)
