"""Buffer pool for the disk-resident setting (paper §7, future work).

The paper's experiments keep the database memory-resident; §7 plans "a
detailed performance study of our algorithms in a disk-based setting".
This buffer pool provides that setting: pages live on a (simulated) data
disk, a fixed number of frames cache them with LRU replacement, and every
page touch goes through ``fix`` — a miss pays a disk read (plus a
write-back when the evicted frame is dirty).

The pool only models *timing and residency*; page contents always live in
the in-memory store (a real system's buffer frames — the simulation's
"disk" never diverges from them because write-back is synchronous at
eviction and checkpoints are sharp).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..config import RetryPolicy, SystemConfig
from ..sim import Delay, Event, Resource, Simulator, Wait
from .errors import TransientIOError

#: A page is identified by ``(partition_id, page_no)``.
PageKey = Tuple[int, int]

#: Fault-injection hook: called with ("read"|"write", page_key) before
#: every disk transfer; raising :class:`TransientIOError` fails that
#: attempt (the pool retries with capped exponential backoff).
IOFaultHook = Callable[[str, PageKey], None]

#: Read-verification hook: called with the page key after every
#: successful miss read, before the page is served.  The engine points
#: this at the page's checksum verifier so corruption is caught at the
#: I/O boundary (raising :class:`~repro.storage.PageChecksumError`)
#: instead of propagating into transactions.
ReadVerifyHook = Callable[[PageKey], None]


class BufferStats:
    __slots__ = ("hits", "misses", "evictions", "writebacks", "io_faults",
                 "io_retries", "reads_verified", "coalesced_reads")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.io_faults = 0
        self.io_retries = 0
        self.reads_verified = 0
        #: Concurrent misses of a page whose read was already in flight;
        #: they waited on that read instead of paying their own.
        self.coalesced_reads = 0

    def snapshot(self) -> Dict[str, int]:
        """Current counter values, for windowed (per-run) deltas."""
        return {name: getattr(self, name) for name in self.__slots__}

    def since(self, base: Optional[Dict[str, int]]) -> Dict[str, int]:
        """Counter deltas since a :meth:`snapshot` (``base=None`` means
        "since construction")."""
        if base is None:
            return self.snapshot()
        return {name: getattr(self, name) - base[name]
                for name in self.__slots__}


class BufferPool:
    """An LRU page cache in front of a simulated data disk."""

    def __init__(self, sim: Simulator, data_disk: Resource,
                 capacity_pages: int, read_ms: float, write_ms: float,
                 retry: Optional[RetryPolicy] = None):
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.sim = sim
        self.data_disk = data_disk
        self.capacity_pages = capacity_pages
        self.read_ms = read_ms
        self.write_ms = write_ms
        #: The transient-I/O budget; a standalone pool (tests, micro-
        #: benchmarks) gets the default configuration's.
        self.retry = retry or SystemConfig().io_retry
        self.fault_hook: Optional[IOFaultHook] = None
        self.verify_hook: Optional[ReadVerifyHook] = None
        self._frames: "OrderedDict[PageKey, bool]" = OrderedDict()  # -> dirty
        # Monotonic per-page dirty generation: bumped on *every* dirtying
        # touch, so a flush can tell "still dirty from before my write"
        # apart from "re-dirtied while my write was in flight".
        self._dirty_epoch: Dict[PageKey, int] = {}
        # Pages whose miss read is in flight: concurrent fixes wait on
        # the event instead of paying a duplicate disk read.
        self._inflight_reads: Dict[PageKey, Event] = {}
        self.stats = BufferStats()

    def _transfer(self, op: str, key: PageKey,
                  cost_ms: float) -> Generator[Any, Any, None]:
        """One disk transfer, retried on injected transient faults."""
        attempt = 0
        while True:
            yield from self.data_disk.use(cost_ms)
            if self.fault_hook is None:
                return
            try:
                self.fault_hook(op, key)
                return
            except TransientIOError:
                self.stats.io_faults += 1
                if self.retry.exhausted(attempt):
                    raise
                self.stats.io_retries += 1
                yield Delay(self.retry.delay_ms(attempt))
                attempt += 1

    # -- the one operation that matters --------------------------------------

    def fix(self, key: PageKey,
            dirty: bool = False) -> Generator[Any, Any, None]:
        """Ensure ``key``'s page is resident; mark it dirty if requested.

        A hit costs nothing; a miss pays one disk read, preceded by one
        disk write if the evicted frame is dirty.  Concurrent misses of
        the same page coalesce on the first miss's in-flight read — they
        neither pay a duplicate disk read nor run the eviction loop, and
        ``stats.misses`` counts the page fault once.
        """
        while True:
            if key in self._frames:
                self.stats.hits += 1
                if dirty:
                    self._mark_dirty(key)
                self._frames.move_to_end(key)
                return
            inflight = self._inflight_reads.get(key)
            if inflight is None:
                break
            # Another process is already reading this page: ride along.
            # Loop afterwards — the common case is a hit on the freshly
            # inserted frame, but it may already have been evicted again,
            # in which case this fix pays its own miss (or coalesces on
            # the next in-flight read).
            self.stats.coalesced_reads += 1
            yield Wait(inflight)

        self.stats.misses += 1
        gate = self.sim.event(name=f"read:{key[0]}:{key[1]}")
        self._inflight_reads[key] = gate
        try:
            while len(self._frames) >= self.capacity_pages:
                yield from self._evict_lru()
            yield from self._transfer("read", key, self.read_ms)
            if self.verify_hook is not None:
                self.verify_hook(key)
                self.stats.reads_verified += 1
            # Eviction during the read (by a concurrent miss of another
            # page) may have shrunk the pool below capacity again, but a
            # concurrent *insert* of this key is impossible — we hold the
            # in-flight registration.
            if len(self._frames) >= self.capacity_pages:
                yield from self._evict_lru()
            self._frames[key] = False
            if dirty:
                self._mark_dirty(key)
        except BaseException as exc:
            gate.fail(exc)  # waiters see the same read failure
            raise
        else:
            gate.succeed()
        finally:
            del self._inflight_reads[key]

    def _mark_dirty(self, key: PageKey) -> None:
        """Mark a resident frame dirty, bumping its dirty generation.

        The bump happens on every dirtying touch — not just clean→dirty
        transitions — because each one may precede new writes to the page
        content that a write-back captured *before* the touch would miss.
        """
        self._frames[key] = True
        self._dirty_epoch[key] = self._dirty_epoch.get(key, 0) + 1

    def _evict_lru(self) -> Generator[Any, Any, None]:
        victim, victim_dirty = next(iter(self._frames.items()))
        del self._frames[victim]
        self.stats.evictions += 1
        if victim_dirty:
            self.stats.writebacks += 1
            yield from self._transfer("write", victim, self.write_ms)

    # -- maintenance ------------------------------------------------------------

    def discard(self, key: PageKey) -> None:
        """Drop a frame without write-back (its page was freed)."""
        self._frames.pop(key, None)

    def flush_all(self) -> Generator[Any, Any, int]:
        """Write every dirty frame back (checkpoint); returns the count.

        The frame state is re-checked after each (yielding) disk write:
        a frame evicted while the write was in flight must not be
        re-inserted (the pool would exceed capacity), and a frame
        re-dirtied by a concurrent ``fix`` must keep its dirty bit — the
        write captured the older content, so clearing the bit would lose
        the newer write-back.
        """
        written = 0
        for key in [k for k, d in self._frames.items() if d]:
            if not self._frames.get(key, False):
                # Evicted (its write-back already happened) or cleaned
                # by a concurrent flush while we were writing others.
                continue
            epoch = self._dirty_epoch.get(key, 0)
            yield from self._transfer("write", key, self.write_ms)
            written += 1
            if key in self._frames and self._dirty_epoch.get(key, 0) == epoch:
                self._frames[key] = False
        self.stats.writebacks += written
        return written

    def resident(self, key: PageKey) -> bool:
        return key in self._frames

    def is_dirty(self, key: PageKey) -> bool:
        return self._frames.get(key, False)
