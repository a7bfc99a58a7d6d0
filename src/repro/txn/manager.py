"""Transaction lifecycle management.

Tracks active transactions and exposes the two waits the reorganizer
needs:

* "The reorganization process waits for all transactions that are active
  at the time it started, to complete, before starting the fuzzy
  traversal" (§4.5) — :meth:`wait_for` on a snapshot of active tids;
* §4.1 non-2PL support — after locking an object, the reorganizer waits
  for every active transaction that *ever* locked it, which combines the
  lock manager's history with these completion events.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Generator, Iterable, Set

from ..sim import Event, Wait
from ..wal.records import (
    BeginRecord,
    EndRecord,
    FLAG_SYSTEM_TXN,
    NO_REORG_PARTITION,
)
from .transaction import Transaction


class TransactionManager:
    def __init__(self, engine):
        # Weak: the engine owns its manager.  A transaction is strong.
        self._engine = weakref.ref(engine)
        self._next_tid = 1
        self._active: Dict[int, Transaction] = {}
        self._done_events: Dict[int, Event] = {}
        self.started = 0
        self.committed = 0
        self.aborted = 0
        #: Abort counts keyed by :attr:`Transaction.abort_reason` —
        #: distinguishes deadlock-driven aborts from everything else so
        #: retry-budget accounting never folds into generic aborts.
        self.abort_reasons: Dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def begin(self, system: bool = False,
              reorg_partition: int | None = None) -> Transaction:
        """Start a transaction (logs BEGIN; no simulated cost).

        ``reorg_partition`` marks a reorganizer's own transaction: that
        partition's TRT ignores its reference updates (the reorganizer
        knows about its own patches), while every other active TRT still
        records them.
        """
        engine = self._engine()
        tid = self._next_tid
        self._next_tid += 1
        txn = Transaction(engine, tid, system=system,
                          reorg_partition=reorg_partition)
        self._active[tid] = txn
        self._done_events[tid] = engine.sim.event(name=f"txn-done:{tid}")
        flags = FLAG_SYSTEM_TXN if system else 0
        engine.log.append(BeginRecord(
            tid, 0, flags=flags,
            reorg_partition=(NO_REORG_PARTITION if reorg_partition is None
                             else reorg_partition)))
        txn.last_lsn = engine.log.last_lsn
        self.started += 1
        for probe in txn._probes:
            probe.txn_begin(txn)
        return txn

    def finish(self, txn: Transaction) -> None:
        """Called by commit/abort: release locks, log END, wake waiters."""
        engine = txn.engine
        engine.log.append(EndRecord(txn.tid, txn.last_lsn))
        engine.locks.release_all(txn.tid)
        engine.locks.transaction_finished(txn.tid)
        self._active.pop(txn.tid, None)
        done = self._done_events.pop(txn.tid, None)
        if done is not None:
            done.succeed(txn.status)
        if txn.status.value == "committed":
            self.committed += 1
        else:
            self.aborted += 1
            reason = txn.abort_reason or "user"
            self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1
        for probe in txn._probes:
            probe.txn_end(txn)

    def lose_active(self) -> None:
        """A crash: the volatile table forgets its transactions."""
        self._active.clear()

    # -- queries / waits ----------------------------------------------------------

    def active_tids(self) -> Set[int]:
        return set(self._active)

    def is_active(self, tid: int) -> bool:
        return tid in self._active

    def transaction(self, tid: int) -> Transaction:
        return self._active[tid]

    def set_next_tid(self, next_tid: int) -> None:
        """Recovery hook: resume tid allocation past everything in the log."""
        self._next_tid = max(self._next_tid, next_tid)

    def wait_for(self, tids: Iterable[int]) -> Generator[Any, Any, None]:
        """Block until every listed transaction has completed."""
        for tid in list(tids):
            event = self._done_events.get(tid)
            if event is not None:
                yield Wait(event)

    def wait_for_quiesce(self) -> Generator[Any, Any, None]:
        """Block until every currently-active transaction has completed."""
        yield from self.wait_for(self.active_tids())
