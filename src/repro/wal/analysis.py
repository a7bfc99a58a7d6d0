"""ARIES analysis as a public value: the log's transaction table.

One pass over the log answers every question about its *transaction
structure* — who committed, who ended, who is in doubt, which
reorganizer a tid belongs to, where the last usable checkpoint is — so
restart recovery, engine assembly, §4.4 resume, the chaos and
transparency checks, fleet takeover, 2PC in-doubt settlement and the
MVCC rebuild all read this table instead of each re-deriving its slice
with a private scan.  The pass reads record headers
(:meth:`~repro.wal.log.LogManager.headers`) and decodes only the records
whose bodies it needs.  A table is a value: whoever scanned owns it and
hands it on; the log manager caches nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .checkpoint import SnapshotStore
from .log import LogManager
from .records import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_END,
    KIND_TPC_DECISION,
    KIND_TPC_PREPARE,
    CheckpointRecord,
    TpcPrepareRecord,
)


class TransactionTable:
    """What one pass over a log says about its transactions.

    The pass decodes no record whose header (kind, tid) says all the
    table needs: it decodes the CHECKPOINT records (only when asked which
    are usable), TPC_PREPARE and TPC_DECISION records as it meets them,
    and the BEGIN records — which name a reorganizer's partition — the
    first time :attr:`owner` is read, which restart recovery never does.
    """

    def __init__(self, log: LogManager) -> None:
        self._log = log
        #: LSNs of the BEGIN records :attr:`owner` has yet to read.
        self._begins: List[int] = []
        self._owner: Dict[int, int] = {}
        #: COMMIT logged — or, for a 2PC coordinator's local branch, a
        #: commit ``TPC_DECISION``: the decision *is* the commit point
        #: (presumed abort), even if the crash beat the COMMIT record.
        self.committed: Set[int] = set()
        self.ended: Set[int] = set()
        self.aborted: Set[int] = set()
        #: Participant branches: tid -> their force-logged ``TPC_PREPARE``.
        self.prepared: Dict[int, TpcPrepareRecord] = {}
        #: Un-ended transactions -> LSN of their last record, seeded from
        #: the last usable checkpoint's active table.
        self.last_lsn: Dict[int, int] = {}
        #: CHECKPOINT records whose snapshot still exists, oldest first.
        self.checkpoints: List[CheckpointRecord] = []
        self.max_tid = 0

    @classmethod
    def scan(cls, log: LogManager,
             snapshots: Optional[SnapshotStore] = None) -> "TransactionTable":
        """Read ``log`` once, front to back.

        ``snapshots`` decides which checkpoints are usable; callers that
        only ask about commit state or ownership leave it out.
        """
        table = cls(log)
        read = log.read
        for lsn, kind, tid in log.headers():
            if tid == 0:
                # CHECKPOINT / REORG_PROGRESS / TPC_END / MVCC records:
                # written by no transaction.
                if kind == KIND_CHECKPOINT and snapshots is not None:
                    record = read(lsn)
                    if snapshots.has(record.snapshot_id):
                        table.checkpoints.append(record)
                        table.last_lsn = record.active_txn_table()
                continue
            if tid > table.max_tid:
                table.max_tid = tid
            if kind == KIND_END:
                table.ended.add(tid)
                table.last_lsn.pop(tid, None)
                continue
            table.last_lsn[tid] = lsn
            if kind == KIND_BEGIN:
                table._begins.append(lsn)
            elif kind == KIND_COMMIT:
                table.committed.add(tid)
            elif kind == KIND_ABORT:
                table.aborted.add(tid)
            elif kind == KIND_TPC_PREPARE:
                table.prepared[tid] = read(lsn)
            elif kind == KIND_TPC_DECISION and read(lsn).commit:
                table.committed.add(tid)
        return table

    @property
    def owner(self) -> Dict[int, int]:
        """tid -> the partition whose reorganizer began it (its BEGIN
        names one); user and plain system transactions are absent."""
        if self._begins:
            for lsn in self._begins:
                begin = self._log.read(lsn)
                if begin.is_system and begin.owner_partition is not None:
                    self._owner[begin.tid] = begin.owner_partition
            self._begins = []
        return self._owner

    @property
    def checkpoint(self) -> Optional[CheckpointRecord]:
        """The last usable checkpoint — where redo starts."""
        return self.checkpoints[-1] if self.checkpoints else None

    def in_doubt(self) -> Dict[int, TpcPrepareRecord]:
        """Prepared branches with no durable outcome: neither undone (the
        coordinator may have committed globally) nor committed (it may
        answer "abort").  A branch whose rollback already logged ABORT
        lost its doubt — the decision was abort."""
        return {tid: prepare for tid, prepare in self.prepared.items()
                if tid in self.last_lsn and tid not in self.committed
                and tid not in self.aborted}

    def losers(self) -> Dict[int, int]:
        """Transactions restart must roll back -> where their undo starts."""
        in_doubt = self.in_doubt()
        return {tid: lsn for tid, lsn in self.last_lsn.items()
                if tid not in self.committed and tid not in in_doubt}

    def reorganizer_committed(self, partition_id: int) -> Set[int]:
        """Committed transactions of ``partition_id``'s reorganizer."""
        return {tid for tid, owner in self.owner.items()
                if owner == partition_id and tid in self.committed}
