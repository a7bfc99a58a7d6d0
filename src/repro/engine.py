"""The storage engine: everything wired together.

This is the stand-in for Brahmā, the storage manager the paper's
experiments ran on: slotted-page object store with physical OIDs, strict
2PL with a 1-second lock timeout for deadlocks, WAL through an
ARIES-style implementation, extendible-hash-backed ERT/TRT maintained by
a log analyzer, latches, checkpoints and restart recovery.

An engine lives inside one :class:`~repro.sim.Simulator`; all blocking
operations are generators driven by simulation processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .concurrency import LatchManager
from .hlock import build_lock_manager
from .config import SystemConfig
from .refs import ExternalReferenceTable, LogAnalyzer, TemporaryReferenceTable
from .sim import Hold, Resource, Simulator
from .storage import ObjectStore, Oid
from .storage.buffer import BufferPool
from .txn import TransactionManager
from .wal import (
    CheckpointRecord,
    LogManager,
    RecoveryManager,
    SnapshotStore,
    TransactionTable,
)


@dataclass
class CrashImage:
    """What survives a simulated system failure.

    The database is memory-resident (paper §5.3); a crash leaves behind
    only the flushed log prefix — a CRC-framed byte stream that may end
    in a torn record — and the checkpoint snapshots.
    """

    durable_log: bytes
    snapshots: SnapshotStore
    config: SystemConfig


@dataclass
class IntegrityReport:
    """Result of a full physical/logical consistency sweep."""

    dangling_refs: List[Tuple[Oid, int, Oid]] = field(default_factory=list)
    ert_missing: List[Tuple[int, Oid, Oid]] = field(default_factory=list)
    ert_spurious: List[Tuple[int, Oid, Oid]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.dangling_refs or self.ert_missing
                    or self.ert_spurious)

    def problems(self) -> List[str]:
        out = [f"dangling ref {p}[{s}] -> {c}"
               for p, s, c in self.dangling_refs]
        out += [f"ERT p{pid} missing {c} <- {p}"
                for pid, c, p in self.ert_missing]
        out += [f"ERT p{pid} spurious {c} <- {p}"
                for pid, c, p in self.ert_spurious]
        return out


class Probe:
    """One observer of an engine's run (:meth:`StorageEngine.subscribe`).

    Every event is a no-op here; a subscriber overrides what it uses.  A
    probe watches and never steers — it does not yield, draw randomness,
    schedule an event or mutate what it is shown — so a subscribed run
    is byte-identical to an unsubscribed one.
    """

    def txn_begin(self, txn) -> None:
        """A transaction began."""

    def access(self, txn, action: str, oid) -> None:
        """``txn`` read (``"r"``) or is about to write (``"w"``) ``oid``."""

    def txn_end(self, txn) -> None:
        """``txn`` committed or aborted (``txn.status``), locks released."""

    def lock(self, event: str, tid: int, key, mode) -> None:
        """A ``"grant"`` (``mode`` now held) or ``"release"`` of ``key``."""

    def checkpoint(self, payload, snapshot_id: int, lsn: int) -> None:
        """A checkpoint saved ``payload`` and logged it at ``lsn``."""

    def reorg(self, reorganizer, event: str, info: dict) -> None:
        """A reorganizer's own event; a completed run ends ``"finished"``."""

    def snapshot_end(self, stxn, committed: bool) -> None:
        """A snapshot transaction (MVCC tier) ended."""

    def version_commit(self, commit_ts: int, writes) -> None:
        """The MVCC tier published ``writes`` (loid -> image)."""

    def version_pruned(self, loid, ts: int, successor_ts: int,
                       watermark: int) -> None:
        """MVCC epoch GC reclaimed ``loid``'s version ``ts``."""


class StorageEngine:
    """One database instance: store + WAL + locks + reference tables."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 sim: Optional[Simulator] = None, *,
                 _image: Optional[CrashImage] = None):
        """Assemble an engine — the one path for fresh and recovered.

        ``_image`` is :meth:`recover`'s way in (use that, not the
        keyword).  A restart forks from a fresh start in exactly three
        places, each marked below: the log, the store, and what the last
        durable checkpoint carries (ERTs, ``next_tid``,
        ``unlogged_base``).  Everything else is wired once, here.
        """
        self.config = cfg = config or SystemConfig()
        self.sim = sim or Simulator()
        self.cpu = Resource(self.sim, capacity=cfg.cpu_count, name="cpu")
        # Shared Hold commands for the fixed per-access CPU charges: the
        # kernel only reads a yielded Hold's fields, so the hot
        # transactional paths allocate nothing per object access.
        self._access_hold = Hold(self.cpu, cfg.cpu_object_access_ms)
        self._update_hold = Hold(self.cpu, cfg.cpu_update_extra_ms)
        # A snapshot read for update charges both in one hold.
        self._update_access_hold = Hold(
            self.cpu, cfg.cpu_object_access_ms + cfg.cpu_update_extra_ms)
        # Hot-path guards: one attribute read instead of a config chase
        # per access (a zero cost skips the CPU resource entirely).
        self._charge_access = cfg.cpu_object_access_ms > 0
        self._charge_update = cfg.cpu_update_extra_ms > 0
        self.log_disk = Resource(self.sim, capacity=1, name="log-disk")
        self.data_disk = Resource(self.sim, capacity=1, name="data-disk")
        self.buffer = (BufferPool(self.sim, self.data_disk,
                                  capacity_pages=cfg.buffer_pool_pages,
                                  read_ms=cfg.disk_read_ms,
                                  write_ms=cfg.disk_write_ms,
                                  retry=cfg.io_retry)
                       if cfg.disk_resident else None)
        self.locks = build_lock_manager(self.sim, cfg)
        self.latches = LatchManager(self.sim)

        # Fork — the log: empty, or rebuilt from the flushed bytes.
        if _image is None:
            self.log = LogManager(self.sim, self.log_disk, cfg.log_flush_ms,
                                  retry=cfg.io_retry)
            self.snapshots = SnapshotStore()
        else:
            self.log = LogManager.from_durable(
                self.sim, self.log_disk, cfg.log_flush_ms,
                _image.durable_log, retry=cfg.io_retry)
            self.snapshots = _image.snapshots

        # Fork — the last durable checkpoint (none on an empty log)
        # carries the ERTs, the tid counter and ``unlogged_base``.  The
        # one analysis of the log serves this and restart recovery.
        table = TransactionTable.scan(self.log, self.snapshots)
        checkpoint: dict = {}
        if table.checkpoint is not None:
            checkpoint = self.snapshots.load(table.checkpoint.snapshot_id)
        erts = self._erts = {
            pid: ExternalReferenceTable.restore(
                pid, state, bucket_capacity=cfg.ert_bucket_capacity)
            for pid, state in checkpoint.get("erts", {}).items()}

        def ert_for(partition_id: int) -> ExternalReferenceTable:
            ert = erts.get(partition_id)
            if ert is None:
                ert = erts[partition_id] = ExternalReferenceTable(
                    partition_id, bucket_capacity=cfg.ert_bucket_capacity)
            return ert
        #: ``partition_id`` -> its ERT, created empty on first use: a
        #: function of the ERT dict, so the analyzer holding it is acyclic.
        self.ert_for = ert_for
        self.analyzer = LogAnalyzer(
            ert_for, strict_2pl=cfg.strict_transactions)
        # Subscribe before running recovery: the undo pass appends CLRs,
        # and aborts that reintroduce deleted references must update the
        # ERTs.  Redo replays the (already-appended) durable records via
        # the replay hook, so nothing is processed twice.
        self.log.subscribe(self.analyzer.process)

        # Fork — the store: empty, or analysis / redo / undo over the
        # durable log (the ERTs roll forward through the analyzer, §4.4's
        # checkpointed-ERT option).
        #: ``None`` on a fresh engine; what restart recovery did otherwise.
        self.recovery_stats = None
        if _image is None:
            self.store = ObjectStore(page_size=cfg.page_size)
        else:
            recovery = RecoveryManager(
                self.log, self.snapshots, cfg.page_size, table,
                replay_hook=self.analyzer.process)
            self.store = recovery.run()
            self.recovery_stats = recovery.stats

        self.txns = TransactionManager(self)
        self.txns.set_next_tid(
            max(table.max_tid + 1, checkpoint.get("next_tid", 1)))
        #: True once the store holds content that never went through the
        #: WAL (the §5.2 bulk load).  Recorded in every checkpoint so
        #: single-page repair knows when log replay alone cannot rebuild
        #: a page from scratch.
        self.unlogged_base = bool(checkpoint.get("unlogged_base", False))
        #: Set by :meth:`repro.faults.FaultInjector.attach`; ``crash()``
        #: detaches it so a recovered engine starts fault-free.
        self.injector = None
        #: The subscribed :class:`Probe`s, in subscription order; the
        #: lock manager holds the same tuple.  A recovered engine starts
        #: with none.
        self.probes: Tuple[Probe, ...] = ()
        #: Attached :class:`repro.mvcc.MvccTier` (versioned read path);
        #: ``None`` keeps the classic 2PL-only engine.  Set by
        #: ``MvccTier.attach``/``recover`` — engine restart does *not*
        #: carry it over, recovery paths rebuild it explicitly.
        self.mvcc = None
        #: ``oid -> bool`` existence oracle for objects in partitions this
        #: store does not hold (repro.dist wires the cluster directory
        #: here).  ``verify_integrity`` consults it before declaring a
        #: cross-node reference dangling; ``None`` keeps the historical
        #: single-node behaviour.
        self.remote_resolver = None
        #: ``partition_id -> set[(child, parent)]`` of cross-node
        #: references into a locally-owned partition, computed by the
        #: cluster from the *other* nodes' stores.  Local page scans
        #: cannot see remote parents, so without this hook a correct
        #: remote-parent ERT entry would read as spurious.
        self.remote_ert_expected = None
        if self.buffer is not None and cfg.verify_page_reads:
            self.buffer.verify_hook = self.store.verify_page

    def subscribe(self, probe: Probe) -> Probe:
        """Add ``probe`` to the subscribers; returns it.

        A transaction reads the subscribers once, when it begins, so
        subscribe before the transactions to be observed start.
        """
        self.probes = self.locks.probes = self.probes + (probe,)
        return probe

    def unsubscribe(self, probe: Probe) -> None:
        self.probes = self.locks.probes = tuple(
            p for p in self.probes if p is not probe)

    # -- partitions & reference tables ------------------------------------------

    def create_partition(self, partition_id: int,
                         max_pages: Optional[int] = None):
        return self.store.create_partition(partition_id, max_pages=max_pages)

    def fix_page(self, oid: Oid, dirty: bool = False):
        """Pin an object's page in the buffer pool (no-op when the
        database is memory-resident, the paper's §5.3 setting)."""
        if self.buffer is not None:
            yield from self.buffer.fix((oid.partition, oid.page),
                                       dirty=dirty)

    def activate_trt(self, partition_id: int) -> TemporaryReferenceTable:
        """Bring a TRT into existence for a reorganization (§4.5: the TRT
        "is required only if a reorganization process is in progress and
        does not exist otherwise")."""
        trt = TemporaryReferenceTable(
            partition_id, bucket_capacity=self.config.ert_bucket_capacity)
        self.analyzer.activate_trt(trt)
        return trt

    def deactivate_trt(self, partition_id: int) -> None:
        self.analyzer.deactivate_trt(partition_id)

    # -- checkpoints, crash, recovery ----------------------------------------------

    def take_checkpoint(self) -> int:
        """Take a sharp checkpoint; returns the CHECKPOINT record's LSN.

        Snapshots all pages, the ERTs and the tid counter, then logs and
        flushes a CHECKPOINT record naming the snapshot.  Instantaneous in
        simulated time (the paper's experiments checkpoint at load time).
        """
        payload = {
            "store": self.store.snapshot(),
            "erts": {pid: ert.snapshot() for pid, ert in self._erts.items()},
            "next_tid": self.txns._next_tid,
            "unlogged_base": self.unlogged_base,
        }
        snapshot_id = self.snapshots.save(payload)
        active = tuple(
            (tid, self.txns.transaction(tid).last_lsn)
            for tid in sorted(self.txns.active_tids()))
        lsn = self.log.append(CheckpointRecord(
            0, 0, snapshot_id=snapshot_id, active_txns=active))
        self.log.flush_now()
        for probe in self.probes:
            probe.checkpoint(payload, snapshot_id, lsn)
        return lsn

    def crash_image(self) -> CrashImage:
        """Capture what survives a failure *without* killing anything.

        The seam for multi-node simulations (:mod:`repro.dist`): a single
        node's crash must capture its own durable state and kill only its
        own processes, while the rest of the cluster keeps running on the
        shared simulator.
        """
        if self.injector is not None:
            self.injector.detach()
        return CrashImage(durable_log=self.log.durable_bytes(),
                          snapshots=self.snapshots,
                          config=self.config)

    def crash(self) -> CrashImage:
        """Simulate a system failure: kill every process, keep only the
        durable state.  The transaction table is volatile state too: it
        loses the killed processes' transactions, each of which names
        this engine."""
        image = self.crash_image()
        self.sim.kill_all()
        self.txns.lose_active()
        return image

    @classmethod
    def recover(cls, image: CrashImage,
                sim: Optional[Simulator] = None) -> "StorageEngine":
        """Restart recovery: rebuild an engine from a crash image.

        Goes through ``__init__`` like a fresh engine; see its three
        forks for what a restart does differently.
        """
        return cls(image.config, sim, _image=image)

    # -- integrity -----------------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Full sweep: no dangling physical references; every ERT holds
        exactly the cross-partition references into its partition.

        With an MVCC tier attached, reference slots hold *logical* OIDs
        and are resolved through the lineage map before the existence
        check; the ERT comparison is skipped, because under lineage
        indirection relocation never patches parents and the reference
        tables exist only for the 2PL reorganizers' benefit.

        Nothing is copied: each parent's shared cached image is read
        (never mutated), and every child is tested against one set of
        the live oids, built once.
        """
        report = IntegrityReport()
        store = self.store
        lineage = (self.mvcc.resolve_physical if self.mvcc is not None
                   else None)
        actual_ert: Dict[int, set] = {pid: set()
                                      for pid in store.partition_ids()}
        parents = list(store.all_live_oids())
        live = set(parents)
        for parent in parents:
            for slot, child in store.shared_image(parent).refs():
                if lineage is not None:
                    child = lineage(child)
                if child not in live:
                    # A reference into a partition this store does not
                    # hold is cross-node: ask the cluster directory (the
                    # child's owner keeps the authoritative ERT for it).
                    if (self.remote_resolver is not None
                            and not self.store.has_partition(
                                child.partition)):
                        if not self.remote_resolver(child):
                            report.dangling_refs.append(
                                (parent, slot, child))
                        continue
                    report.dangling_refs.append((parent, slot, child))
                elif child.partition != parent.partition:
                    actual_ert[child.partition].add((child, parent))
        if lineage is not None:
            return report
        for pid in self.store.partition_ids():
            recorded = set(self.ert_for(pid).entries())
            expected = actual_ert.get(pid, set())
            if self.remote_ert_expected is not None:
                expected = expected | set(self.remote_ert_expected(pid))
            for child, parent in expected - recorded:
                report.ert_missing.append((pid, child, parent))
            for child, parent in recorded - expected:
                report.ert_spurious.append((pid, child, parent))
        return report
