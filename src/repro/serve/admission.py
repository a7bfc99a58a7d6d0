"""Bounded admission queue with load shedding and staleness drops.

The queue is the overload valve between the open-loop arrival process
and the fixed server pool:

* an arrival finding ``queue_depth`` requests already waiting is shed
  on the spot (``shed_queue_full``) — bounded queues are what keep an
  overloaded system's latency bounded;
* a server popping a request whose ``queue_deadline_ms`` has already
  passed drops it unexecuted (``shed_stale``) — running it would burn
  capacity producing an answer nobody is waiting for.

Producer/consumer hand-off wakes one server per arrival: idle servers
wait in a FIFO, each on its own one-shot event; ``put`` fires the
longest-idle one's, ``close`` all of them.  A woken server beaten to
the request by one finishing at the same instant re-idles at the head,
where a broadcast's re-registration would leave it — so each request
reaches the server a wake-everyone gate gave it, for one kernel resume
instead of one per idle server.  A server killed while idle leaves the
FIFO; one killed after its wake fired passes the wake on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generator, Optional

from ..sim import Event, Simulator, Wait


@dataclass
class Request:
    """One logical request flowing through the serving layer."""

    request_id: int
    partition_id: int
    arrived_ms: float
    #: Last instant a server may *start* this request.
    queue_deadline_ms: float
    #: Last instant the response is still useful (end-to-end SLO).
    response_deadline_ms: float
    #: Deterministic walk seed — a retry re-runs the same work.
    txn_seed: int
    started_ms: Optional[float] = None
    retries: int = 0
    outcome: str = field(default="pending")


class AdmissionQueue:
    """FIFO queue bounded at ``depth``; shedding, never blocking, on put."""

    def __init__(self, sim: Simulator, depth: int):
        self.sim = sim
        self.depth = depth
        self._queue: Deque[Request] = deque()
        #: Idle servers' wake events, longest-idle first.
        self._idle: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, request: Request) -> bool:
        """Enqueue, or refuse (returns False) when the queue is full."""
        if len(self._queue) >= self.depth:
            request.outcome = "shed-queue-full"
            return False
        self._queue.append(request)
        if self._idle:
            self._idle.popleft().succeed()
        return True

    def close(self) -> None:
        """No more arrivals; blocked servers drain the queue and exit."""
        self._closed = True
        while self._idle:
            self._idle.popleft().succeed()

    def get(self) -> Generator[object, object, Optional[Request]]:
        """Pop the next request; ``None`` once closed and drained."""
        park = self._idle.append
        while True:
            if self._queue:
                return self._queue.popleft()
            if self._closed:
                return None
            wake = Event(self.sim, name="admission-wake")
            park(wake)
            try:
                yield Wait(wake)
            except BaseException:
                # Killed at the wait: a fired wake was meant for a
                # request the corpse will never pop — pass it on; else
                # leave the FIFO.
                if not wake.fired:
                    self._idle.remove(wake)
                elif self._queue and self._idle:
                    self._idle.popleft().succeed()
                raise
            # Woken but beaten to the request: still the longest idle.
            park = self._idle.appendleft
