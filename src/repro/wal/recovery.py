"""ARIES-style restart recovery: analysis, redo, undo.

Given the durable log (the flushed prefix that survived the crash) and
the snapshot store, recovery rebuilds the object store, rolls forward
committed work, and rolls back losers by writing CLRs — so running
recovery is itself crash-safe and idempotent.  The analysis pass is
:class:`~repro.wal.analysis.TransactionTable`, shared with every other
reader of the log's transaction structure.

Migration transactions run by the reorganizer are ordinary transactions
here: if the system failed mid-migration, the in-flight migration is
undone (paper §3.5: "The migration of an object which was in progress at
the time of failure will be undone"), leaving no half-moved object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..storage import ObjectStore, Page, PageRepairError
from ..storage.page import snapshot_checksum_ok
from .analysis import TransactionTable
from .apply import apply_record, invert_record, record_page_key
from .checkpoint import SnapshotStore
from .log import LogManager
from .records import (
    BeginRecord,
    CheckpointRecord,
    ClrRecord,
    EndRecord,
    LogRecord,
    PHYSICAL_KINDS,
    TpcPrepareRecord,
)

ReplayHook = Callable[[LogRecord], None]


@dataclass
class RecoveryStats:
    """What recovery did — reported by the crash-recovery example."""

    checkpoint_lsn: int = 0
    #: Durable records past the checkpoint — the window redo replays.
    records_analyzed: int = 0
    records_redone: int = 0
    loser_txns: List[int] = field(default_factory=list)
    winner_txns: List[int] = field(default_factory=list)
    clrs_written: int = 0
    #: Checksum-failing checkpoint pages, and how each was healed.
    pages_corrupt: int = 0
    pages_repaired: int = 0
    pages_rebuilt_from_empty: int = 0
    repaired_pages: List[Tuple[int, int]] = field(default_factory=list)
    #: Set when the durable log ended in a torn/corrupt record that
    #: :meth:`LogManager.from_durable` truncated.
    log_tail_truncated: bool = False
    log_tail_problem: Optional[str] = None
    #: Participant branches of presumed-abort 2PC transactions that were
    #: prepared (durable ``TPC_PREPARE``) but undecided at the crash:
    #: tid → the prepare record (carrying the gid and coordinator node).
    #: Redone, **not** undone — the patched pages stay blocked until the
    #: coordinator resolves the global transaction.
    in_doubt_txns: Dict[int, TpcPrepareRecord] = field(default_factory=dict)


def undo_transaction(log: LogManager, store: ObjectStore, tid: int,
                     from_lsn: int) -> int:
    """Roll back a transaction nobody is running any more — a restart
    loser, or an in-doubt 2PC branch resolved "abort" — by walking its
    undo chain and writing CLRs, then END + flush so a second crash sees
    a cleanly finished transaction.  Returns the CLRs written.

    (A *live* transaction's ``abort`` is a generator that charges
    simulated CPU per undone operation; this walk costs no simulated
    time.)
    """
    clrs = 0
    lsn = from_lsn
    while lsn:
        record = log.read(lsn)
        if isinstance(record, BeginRecord):
            break
        if isinstance(record, ClrRecord):
            # Already-compensated suffix: skip to what is still undone.
            lsn = record.undo_next_lsn
            continue
        if record.kind in PHYSICAL_KINDS:
            inverse = invert_record(record)
            clr_lsn = log.append(ClrRecord(
                tid, prev_lsn=0, undo_next_lsn=record.prev_lsn,
                undone_lsn=record.lsn, action=inverse.encode()))
            apply_record(store, inverse, lsn=clr_lsn)
            clrs += 1
        lsn = record.prev_lsn
    log.append(EndRecord(tid, prev_lsn=0))
    log.flush_now()
    return clrs


class RecoveryManager:
    """Runs redo and undo over a rebuilt log manager, from the analysis
    the caller already did (``table`` — engine assembly reads its last
    checkpoint and tid high-water mark off the same scan).

    ``replay_hook`` is invoked for every durable record from the
    checkpoint onward, in LSN order — the engine passes the log analyzer's
    processing function here so the ERT rolls forward alongside the pages
    (paper §4.4, checkpointed-ERT option).
    """

    def __init__(self, log: LogManager, snapshots: SnapshotStore,
                 page_size: int, table: TransactionTable,
                 replay_hook: Optional[ReplayHook] = None):
        self.log = log
        self.snapshots = snapshots
        self.page_size = page_size
        self.table = table
        self.replay_hook = replay_hook
        self.stats = RecoveryStats()

    def run(self) -> ObjectStore:
        stats, table = self.stats, self.table
        stats.log_tail_truncated = self.log.tail_truncated
        stats.log_tail_problem = self.log.tail_problem
        store, checkpoint_lsn = self._load_last_checkpoint()
        stats.checkpoint_lsn = checkpoint_lsn
        stats.records_analyzed = self.log.last_lsn - checkpoint_lsn
        stats.in_doubt_txns = table.in_doubt()
        losers = table.losers()
        self._redo(store, checkpoint_lsn)
        # Per-transaction undo chains are independent, so the order
        # across transactions does not matter.
        for tid in sorted(losers):
            stats.clrs_written += undo_transaction(
                self.log, store, tid, losers[tid])
        stats.loser_txns = sorted(losers)
        stats.winner_txns = sorted(table.committed | table.ended)
        return store

    # -- pass 0: load the snapshot ------------------------------------------------

    def _load_last_checkpoint(self):
        checkpoint = self.table.checkpoint
        if checkpoint is None:
            return ObjectStore(page_size=self.page_size), 0
        payload = self.snapshots.load(checkpoint.snapshot_id)
        corrupt: List[Tuple[int, int]] = []
        store = ObjectStore.restore(payload["store"], corrupt_sink=corrupt)
        for pid, page_no in corrupt:
            self._repair_page(
                store, pid, page_no, self.table.checkpoints[:-1],
                checkpoint.lsn,
                unlogged_base=bool(payload.get("unlogged_base", False)))
        return store, checkpoint.lsn

    # -- single-page repair ---------------------------------------------------------

    def _repair_page(self, store: ObjectStore, pid: int, page_no: int,
                     older: List[CheckpointRecord], checkpoint_lsn: int,
                     unlogged_base: bool) -> None:
        """Heal one checksum-failing checkpoint page.

        The newest *older* snapshot holding an intact image of the page
        is the repair base; replaying the page's own physical records
        from that point forward (ARIES page-LSN test makes the replay
        idempotent) reproduces the state the corrupt image should have
        held.  A page born after logging began can be rebuilt from an
        empty base the same way.  A page that may contain bulk-loaded,
        never-logged content and has no intact older image is genuinely
        unrecoverable: that raises :class:`PageRepairError` instead of
        silently resurrecting an empty page.
        """
        self.stats.pages_corrupt += 1
        base_state = None
        absent_from = None
        for ckpt in reversed(older):
            old_payload = self.snapshots.load(ckpt.snapshot_id)
            part_state = old_payload["store"]["partitions"].get(pid)
            page_state = None if part_state is None else \
                part_state["pages"].get(page_no)
            if page_state is None:
                absent_from = ckpt
                break
            if snapshot_checksum_ok(page_state):
                base_state = page_state
                break
        if base_state is not None:
            store.adopt_page(pid, page_no, Page.restore(base_state))
            self.stats.pages_repaired += 1
        elif not unlogged_base or absent_from is not None:
            # Every byte the page ever held came through the log (either
            # the store never had an unlogged bulk-load base, or the page
            # is younger than a checkpoint that does not contain it).
            store.adopt_page(pid, page_no, Page(store.page_size))
            self.stats.pages_rebuilt_from_empty += 1
        else:
            raise PageRepairError(
                f"partition {pid} page {page_no}: checkpoint image failed "
                f"its checksum and no intact older snapshot of the page "
                f"exists; the page may hold unlogged bulk-loaded objects, "
                f"so log replay cannot rebuild it")
        for record in self.log.records(upto_lsn=checkpoint_lsn):
            if record_page_key(record) == (pid, page_no):
                apply_record(store, record, lsn=record.lsn)
        store.partition(pid).page(page_no).verify()
        self.stats.repaired_pages.append((pid, page_no))

    # -- pass 2: redo ---------------------------------------------------------------

    def _redo(self, store: ObjectStore, checkpoint_lsn: int) -> None:
        for record in self.log.records(from_lsn=checkpoint_lsn + 1):
            if record.kind in PHYSICAL_KINDS or isinstance(record, ClrRecord):
                apply_record(store, record, lsn=record.lsn)
                self.stats.records_redone += 1
            if self.replay_hook is not None:
                self.replay_hook(record)
