"""The fault injector: threads a :class:`FaultPlan` through the engine.

One injector serves one :class:`~repro.engine.StorageEngine`.  ``attach``
wires the plan into the engine's fault hooks (buffer pool, log manager,
lock manager) and arms the crash/kill triggers; ``detach`` unwires
everything.  ``StorageEngine.crash`` detaches the attached injector
automatically, so a recovered engine always starts fault-free — chaos
harnesses re-attach explicitly if they want faults after recovery.

Crash triggers never fire synchronously: appending a log record happens
inside whatever process is executing, and throwing into the running
generator from its own frame is illegal.  Triggers therefore schedule the
actual crash via ``sim.call_soon``; the crash happens a scheduler step
later, at the same simulated instant.
"""

from __future__ import annotations

import random
import weakref
from typing import Tuple

from ..engine import Probe
from ..storage.errors import TransientIOError
from ..wal.records import PHYSICAL_KINDS, LogRecord
from .plan import FaultPlan


class InjectorStats:
    """What the injector actually did to the run."""

    __slots__ = ("crashes_fired", "kills_fired", "processes_killed",
                 "io_faults_injected", "forced_lock_timeouts",
                 "page_writes_seen", "torn_page_writes", "bit_flips",
                 "torn_log_tails", "corruptions")

    def __init__(self) -> None:
        self.crashes_fired = 0
        self.kills_fired = 0
        self.processes_killed = 0
        self.io_faults_injected = 0
        self.forced_lock_timeouts = 0
        self.page_writes_seen = 0
        self.torn_page_writes = 0
        self.bit_flips = 0
        self.torn_log_tails = 0
        #: ``(kind, partition_id, page_no)`` per silent corruption
        #: actually injected (``page_no`` is -1 for log-tail tears) — the
        #: chaos accounting checks each one off against what detection
        #: and repair reported.
        self.corruptions = []

    @property
    def corruptions_injected(self) -> int:
        return len(self.corruptions)


class FaultInjector(Probe):
    """Injects the faults a :class:`FaultPlan` declares into one engine.

    After a crash trigger fires, :attr:`crashed` is True and
    :attr:`crash_image` holds the :class:`~repro.engine.CrashImage` to
    recover from.
    """

    def __init__(self, plan: FaultPlan, engine):
        self.plan = plan
        # Weak: an attached injector is the engine's (``injector``, hooks).
        self._engine = weakref.ref(engine)
        self.stats = InjectorStats()
        self.crashed = False
        self.crash_image = None
        self._attached = False
        self._crash_pending = False
        self._kill_fired = False
        # String seeds: deterministic regardless of PYTHONHASHSEED.
        self._rng_io = random.Random(f"faults/io/{plan.seed}")
        self._rng_locks = random.Random(f"faults/locks/{plan.seed}")
        self._rng_corrupt = random.Random(f"faults/corrupt/{plan.seed}")
        self._checkpoints_seen = 0
        self._prev_store_snapshot = None

    @property
    def engine(self):
        return self._engine()

    # -- wiring ---------------------------------------------------------------

    def attach(self) -> "FaultInjector":
        """Install the plan's hooks and arm its triggers."""
        if self._attached:
            return self
        engine, plan = self.engine, self.plan
        self._attached = True
        engine.injector = self
        if plan.crash_at_lsn is not None or \
                plan.crash_at_page_write is not None:
            engine.log.subscribe(self._on_log_record)
            self._subscribed = True
        else:
            self._subscribed = False
        if plan.io_error_rate > 0.0:
            engine.log.fault_hook = self._log_flush_fault
            if engine.buffer is not None:
                engine.buffer.fault_hook = self._page_io_fault
        if plan.lock_storm_rate > 0.0:
            engine.locks.fault_hook = self._lock_fault
        if plan.torn_page_write is not None:
            engine.subscribe(self)
            latest = engine.snapshots.latest()
            if latest is not None:
                self._prev_store_snapshot = \
                    engine.snapshots.load(latest)["store"]
        if plan.bit_flip_at_ms is not None:
            engine.sim.call_later(
                max(0.0, plan.bit_flip_at_ms - engine.sim.now),
                self._fire_bit_flip)
        if plan.crash_at_ms is not None:
            engine.sim.call_later(
                max(0.0, plan.crash_at_ms - engine.sim.now),
                self._trigger_crash)
        if plan.kill_process_at_ms is not None:
            engine.sim.call_later(
                max(0.0, plan.kill_process_at_ms - engine.sim.now),
                self._fire_kill)
        return self

    def detach(self) -> None:
        """Unwire every hook (idempotent; called by ``engine.crash``)."""
        if not self._attached:
            return
        self._attached = False
        engine = self.engine
        if self._subscribed:
            engine.log.unsubscribe(self._on_log_record)
            self._subscribed = False
        # Bound-method comparison needs ==, not `is`: every attribute
        # access creates a fresh bound-method object.
        if engine.log.fault_hook == self._log_flush_fault:
            engine.log.fault_hook = None
        if engine.buffer is not None and \
                engine.buffer.fault_hook == self._page_io_fault:
            engine.buffer.fault_hook = None
        if engine.locks.fault_hook == self._lock_fault:
            engine.locks.fault_hook = None
        engine.unsubscribe(self)
        if engine.injector is self:
            engine.injector = None

    # -- crash / kill triggers ------------------------------------------------

    def _on_log_record(self, record: LogRecord) -> None:
        if self._crash_pending or self.crashed:
            return
        plan = self.plan
        if record.kind in PHYSICAL_KINDS:
            self.stats.page_writes_seen += 1
            if plan.crash_at_page_write is not None and \
                    self.stats.page_writes_seen >= plan.crash_at_page_write:
                self._trigger_crash()
                return
        if plan.crash_at_lsn is not None and record.lsn >= plan.crash_at_lsn:
            self._trigger_crash()

    def _trigger_crash(self) -> None:
        if self._crash_pending or self.crashed:
            return
        self._crash_pending = True
        # Deferred: the trigger may be running inside the very process a
        # crash would kill (a log append from a transaction's generator).
        self.engine.sim.call_soon(self._do_crash)

    def _do_crash(self) -> None:
        if self.crashed:
            return
        self.crashed = True
        self.stats.crashes_fired += 1
        torn_tail = (self.engine.log.torn_tail_fragment(self._rng_corrupt)
                     if self.plan.torn_log_tail else b"")
        self.crash_image = self.engine.crash()
        if torn_tail:
            # The log write in flight at the crash instant reached the
            # disk only partially (or scrambled): recovery must detect and
            # truncate it, never decode garbage.
            self.crash_image.durable_log += torn_tail
            self.stats.torn_log_tails += 1
            self.stats.corruptions.append(("torn_log_tail", -1, -1))

    # -- silent corruption ------------------------------------------------------

    def _snapshot_pages(self, store_state):
        return [(pid, page_no, page_state)
                for pid, part_state in sorted(store_state["partitions"].items())
                for page_no, page_state in sorted(part_state["pages"].items())]

    def checkpoint(self, payload, snapshot_id: int, lsn: int) -> None:
        """Tear one page of the n-th checkpoint's snapshot write.

        The stored image keeps a prefix of the new bytes and the tail of
        the previous checkpoint's image of the same page (zeros when the
        page is new), while the recorded checksum describes the complete
        new image — exactly what an interrupted sector-by-sector page
        write leaves behind.
        """
        self._checkpoints_seen += 1
        prev_store = self._prev_store_snapshot
        self._prev_store_snapshot = payload["store"]
        if self._checkpoints_seen != self.plan.torn_page_write:
            return
        pages = self._snapshot_pages(payload["store"])
        if not pages:
            return
        rng = self._rng_corrupt
        for _ in range(8):  # retry if the tear happens to change nothing
            pid, page_no, state = pages[rng.randrange(len(pages))]
            buf = state["buf"]
            old_buf = bytes(len(buf))
            if prev_store is not None:
                old_part = prev_store["partitions"].get(pid)
                old_state = None if old_part is None else \
                    old_part["pages"].get(page_no)
                if old_state is not None and \
                        len(old_state["buf"]) == len(buf):
                    old_buf = old_state["buf"]
            cut = rng.randrange(1, len(buf))
            torn = buf[:cut] + old_buf[cut:]
            if torn != buf:
                state["buf"] = torn
                self.stats.torn_page_writes += 1
                self.stats.corruptions.append(("torn_page", pid, page_no))
                return

    def _fire_bit_flip(self) -> None:
        """Flip one seeded-random bit in one page image (durable or live)."""
        if self.crashed or not self._attached:
            return
        rng = self._rng_corrupt
        if self.plan.bit_flip_target == "durable":
            latest = self.engine.snapshots.latest()
            if latest is None:
                return
            pages = self._snapshot_pages(
                self.engine.snapshots.load(latest)["store"])
            if not pages:
                return
            pid, page_no, state = pages[rng.randrange(len(pages))]
            buf = bytearray(state["buf"])
            bit = rng.randrange(len(buf) * 8)
            buf[bit // 8] ^= 1 << (bit % 8)
            state["buf"] = bytes(buf)
            self.stats.bit_flips += 1
            self.stats.corruptions.append(("bit_flip_durable", pid, page_no))
        else:
            store = self.engine.store
            keys = [(pid, page_no)
                    for pid in store.partition_ids()
                    for page_no in store.partition(pid).page_numbers()]
            if not keys:
                return
            pid, page_no = keys[rng.randrange(len(keys))]
            page = store.partition(pid).page(page_no)
            bit = rng.randrange(len(page._buf) * 8)
            page._buf[bit // 8] ^= 1 << (bit % 8)  # behind the page API:
            # the maintained checksum is now stale, which is the point.
            self.stats.bit_flips += 1
            self.stats.corruptions.append(("bit_flip_live", pid, page_no))

    def _fire_kill(self) -> None:
        if self._kill_fired or self.crashed:
            return
        self._kill_fired = True
        self.stats.kills_fired += 1
        self.stats.processes_killed += self.engine.sim.kill_matching(
            "reorg")

    # -- probabilistic hooks ----------------------------------------------------

    def _in_window(self, window: Tuple[float, float]) -> bool:
        start, end = window
        return start <= self.engine.sim.now <= end

    def _page_io_fault(self, op: str, key) -> None:
        if self._in_window(self.plan.io_error_window_ms) and \
                self._rng_io.random() < self.plan.io_error_rate:
            self.stats.io_faults_injected += 1
            raise TransientIOError(f"injected {op} fault on page {key}")

    def _log_flush_fault(self, target_lsn: int) -> None:
        if self._in_window(self.plan.io_error_window_ms) and \
                self._rng_io.random() < self.plan.io_error_rate:
            self.stats.io_faults_injected += 1
            raise TransientIOError(
                f"injected log-flush fault at lsn {target_lsn}")

    def _lock_fault(self, tid: int, key, mode) -> bool:
        if self._in_window(self.plan.lock_storm_window_ms) and \
                self._rng_locks.random() < self.plan.lock_storm_rate:
            self.stats.forced_lock_timeouts += 1
            return True
        return False
