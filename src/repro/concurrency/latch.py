"""Latches: short-term physical-consistency locks.

The fuzzy traversal (paper §3.4) "does not obtain locks on the objects
encountered; instead, a latch is obtained to ensure physical consistency
of the object while it is being read.  The latch is released after the
object has been read and all references out of the object have been
noted."  Latches carry no transactional bookkeeping, are always held for
bounded time, and are never involved in deadlock detection.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..sim import Mutex, Simulator


class LatchManager:
    """Per-key mutexes created on demand and discarded when idle."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._latches: Dict[object, Mutex] = {}
        self.acquisitions = 0

    def latch(self, key) -> Generator[Any, Any, None]:
        """Acquire the latch on ``key`` (generator; blocking); release it
        with :meth:`unlatch` in a ``try``/``finally``."""
        mutex = self._latches.get(key)
        if mutex is None:
            mutex = Mutex(self.sim, name=f"latch:{key}")
            self._latches[key] = mutex
        yield from mutex.acquire()
        self.acquisitions += 1

    def unlatch(self, key) -> None:
        mutex = self._latches.get(key)
        if mutex is None:
            raise KeyError(f"no latch held on {key}")
        mutex.release()
        if not mutex.locked:
            del self._latches[key]

    def is_latched(self, key) -> bool:
        mutex = self._latches.get(key)
        return mutex is not None and mutex.locked

