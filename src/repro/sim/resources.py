"""Shared-resource primitives built on the simulation kernel.

Two physical resources matter for the paper's experiments:

* a single CPU (the study ran on a uniprocessor 167 MHz UltraSPARC) — every
  piece of work, user transactions and the reorganizer alike, queues for it;
* the log disk — commits flush the tail of the WAL and overlap that I/O
  with other processes' CPU work, which is why throughput peaks above the
  single-stream rate (paper §5.3.1).

Both are FCFS servers modelled by :class:`Resource`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional, Union

from .kernel import Event, Hold, Process, Simulator, Wait


class Resource:
    """A FCFS multi-server resource (capacity ``1`` models a single CPU).

    Usage from process code::

        yield from cpu.use(3.0)          # acquire, hold 3 ms, release

    or, for non-delay critical sections::

        yield from cpu.acquire()
        try:
            ...
        finally:
            cpu.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._grant_name = self.name + ":grant"
        self._in_use = 0
        # One FIFO for both kinds of waiter: ``acquire()``'s gates and the
        # processes parked by a contended ``Hold``.
        self._waiters: deque[Union[Event, Process]] = deque()
        # Aggregate statistics; cheap to keep and used by the benchmarks to
        # report utilisation.
        self.total_busy_time = 0.0
        self.total_acquisitions = 0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator[Any, Any, None]:
        """Blocking acquire (generator; compose with ``yield from``)."""
        if self._in_use < self.capacity and not self._waiters:
            self._grant()
            return
        gate = Event(self.sim, self._grant_name)
        self._waiters.append(gate)
        try:
            yield Wait(gate)
        except BaseException:
            # Killed at the wait: a fired gate means ``release`` already
            # granted the corpse the slot — pass it on; else leave the queue.
            if gate.fired:
                self.release()
            else:
                self._waiters.remove(gate)
            raise

    def release(self) -> None:
        """Release one slot and hand it to the oldest waiter, if any."""
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self._in_use = in_use = in_use - 1
        if in_use == 0 and self._busy_since is not None:
            self.total_busy_time += self.sim._now - self._busy_since
            self._busy_since = None
        if self._waiters:
            # The slot is the oldest waiter's from here on; its wake-up
            # goes through the scheduler, never synchronously.
            waiter = self._waiters.popleft()
            self._grant()
            if waiter.__class__ is Event:
                waiter.succeed()
            else:
                waiter._hold_entry = self.sim._schedule(
                    0.0, waiter._hold_start, waiter.name)

    def use(self, duration: float) -> Generator[Any, Any, None]:
        """Acquire, hold for ``duration`` simulated ms, release."""
        yield Hold(self, duration)

    def _hold(self, proc: Process, hold: Hold) -> None:
        """The kernel's handler for a yielded :class:`Hold`: start the
        service now if a slot is free and nobody queues ahead, else park
        the process itself (no gate, no wait registration) on the FIFO."""
        proc._hold = hold
        if self._in_use < self.capacity and not self._waiters:
            self._grant()
            proc._hold_entry = self.sim._schedule(
                hold.dt, proc._hold_done, proc.name)
        else:
            self._waiters.append(proc)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of ``horizon`` (default: sim.now) the resource was busy."""
        horizon = horizon if horizon is not None else self.sim.now
        busy = self.total_busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / horizon if horizon > 0 else 0.0

    def _grant(self) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim._now
        self._in_use += 1
        self.total_acquisitions += 1

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
                f"queued={len(self._waiters)}>")


class CpuMeter:
    """Accumulates fine-grained CPU costs and pays them in chunks.

    Charging a saturated FCFS CPU for every 0.4 ms micro-operation costs a
    full queueing round-trip per operation, which both distorts the model
    (a real scan doesn't reschedule per object) and multiplies simulation
    events.  The meter batches micro-costs and acquires the CPU once per
    ``chunk_ms`` of accumulated work.
    """

    def __init__(self, resource: Resource, chunk_ms: float = 10.0):
        self.resource = resource
        self.chunk_ms = chunk_ms
        self._pending = 0.0

    def charge(self, ms: float) -> Generator[Any, Any, None]:
        self._pending += ms
        if self._pending >= self.chunk_ms:
            yield from self.flush()

    def flush(self) -> Generator[Any, Any, None]:
        if self._pending > 0:
            pending, self._pending = self._pending, 0.0
            yield from self.resource.use(pending)


class Mutex:
    """A non-reentrant mutual-exclusion primitive (capacity-1 resource).

    Used for latches: short-term physical-consistency locks with no
    deadlock detection and no transactional bookkeeping.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._resource = Resource(sim, capacity=1, name=name or "mutex")

    @property
    def locked(self) -> bool:
        return self._resource.in_use > 0

    def acquire(self) -> Generator[Any, Any, None]:
        yield from self._resource.acquire()

    def release(self) -> None:
        self._resource.release()

    def __repr__(self) -> str:
        return f"<Mutex {self._resource.name!r} locked={self.locked}>"
