"""The multi-version read tier: lineage map + commit-timestamped chains.

ROADMAP item 2's L-Store-style base+tail design, adapted to the object
store:

* Every *logical* OID is anchored at a **base record** in the physical
  store; reference slots everywhere hold logical OIDs, resolved through
  the tier's **lineage map** at read time.  Relocating a base therefore
  patches one map entry instead of every parent's reference slot — which
  is what lets the merge reorganizer move objects without taking a
  single lock a reader could block on.
* Writers never update in place: a commit appends the transaction's
  whole write set as one :class:`~repro.wal.records.TailDeltaRecord`
  (the atomic durability point) and pushes the after-images onto the
  objects' in-memory **version chains**, keyed by a monotonically
  increasing commit timestamp.
* A snapshot reads, for each object, the version with the greatest
  commit timestamp ``<=`` its begin timestamp.  A chain entry is either
  a materialized tail image or a **base sentinel** naming the physical
  base object that holds the bytes — base reads go through the buffer
  pool like any page access, so the disk-resident cost model applies.
* The merge reorganizer consolidates each object's newest committed
  version into a freshly-placed base and installs the whole partition's
  relocation with one :class:`~repro.wal.records.MergeInstallRecord`
  inside its system transaction — the **epoch flip**.  The flip runs
  without a scheduler yield, so no process ever observes half of it.
* **Epoch GC**: versions strictly below the newest version visible at
  the oldest active snapshot are unreachable and are pruned; superseded
  base objects are freed only once the watermark passes their merge's
  cut timestamp.

Allocation discipline: everything the tier creates is placed with
``fresh_only=True``, so a freed base's address is never recycled — the
lineage map and the WAL rebuild can treat physical addresses as unique
across the database's lifetime.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Dict, Generator, List, Optional, Sequence, Set,
                    Tuple)

from ..config import MvccConfig
from ..errors import WriteConflictError
from ..storage import ObjectImage
from ..storage.oid import Oid
from ..wal import TransactionTable
from ..wal.records import MergeInstallRecord, TailDeltaRecord


#: Latch key serializing the tier's commit critical section.
_COMMIT_LATCH = ("mvcc", "commit")
#: Bisection key over a version chain.
_entry_ts = attrgetter("ts")


class VersionEntry:
    """One link of a version chain.

    ``image is None`` marks a base sentinel: the bytes live in the
    physical store at ``physical`` (read through the buffer pool).  A
    materialized entry carries the committed after-image directly.
    """

    __slots__ = ("ts", "image", "physical")

    def __init__(self, ts: int, image: Optional[ObjectImage],
                 physical: Optional[Oid] = None):
        self.ts = ts
        self.image = image
        self.physical = physical

    @property
    def is_base(self) -> bool:
        return self.image is None


@dataclass
class MvccStats:
    """Tier counters (shape mirrors ``ReorgStats``' role for oracles)."""

    commits: int = 0
    write_conflicts: int = 0
    tail_reads: int = 0
    base_reads: int = 0
    versions_pruned: int = 0
    bases_freed: int = 0
    merges_installed: int = 0
    snapshot_peak: int = 0


class MvccTier:
    """Versioned read path over one :class:`~repro.engine.StorageEngine`.

    Attach with :meth:`attach` (fresh engine) or :meth:`recover`
    (post-crash: replays TAIL_DELTA / committed MERGE_INSTALL records
    from the durable log).  The engine keeps a ``mvcc`` attribute
    pointing at the attached tier; a recovered engine starts with it
    ``None``, so recovery paths must call :meth:`recover` explicitly.
    """

    def __init__(self, engine, config: Optional[MvccConfig] = None):
        # Weak: the engine owns its tier (``engine.mvcc``).
        self._engine = weakref.ref(engine)
        self.cfg = config or MvccConfig()
        self.stats = MvccStats()
        #: Logical OIDs under version control (fixed at attach; merge
        #: targets are physical artifacts, never new logical identities).
        self.logical_ids: Set[Oid] = set()
        self._chains: Dict[Oid, List[VersionEntry]] = {}
        #: The chains longer than one entry, in the order they grew —
        #: all epoch GC has to look at.
        self._grown: Dict[Oid, List[VersionEntry]] = {}
        #: Explicit relocations only; identity for never-merged objects.
        self._lineage: Dict[Oid, Oid] = {}
        self.last_commit_ts = 0
        self.epoch = 0
        #: Multiset of active snapshot begin timestamps.
        self._active: Dict[int, int] = {}
        #: ``(cut_ts, [old base OIDs])`` awaiting the GC watermark.
        self._pending_frees: List[Tuple[int, List[Oid]]] = []
        self._commits_since_gc = 0
        #: The watermark the last GC pass ran at (see :meth:`gc_pass`).
        self._gc_watermark: Optional[int] = None

    @property
    def engine(self):
        return self._engine()

    # -- construction -----------------------------------------------------------

    @classmethod
    def attach(cls, engine, config: Optional[MvccConfig] = None) -> "MvccTier":
        """Put every live object of the store under version control."""
        tier = cls(engine, config)
        for oid in engine.store.all_live_oids():
            tier.logical_ids.add(oid)
            tier._chains[oid] = [VersionEntry(0, None, oid)]
        engine.mvcc = tier
        return tier

    @classmethod
    def recover(cls, engine,
                config: Optional[MvccConfig] = None) -> "MvccTier":
        """Rebuild the tier from the recovered engine's durable log.

        Tail deltas are non-transactional (their single record *is* the
        commit point); merge installs are honored only when their owning
        system transaction committed — a crash mid-merge left the new
        bases undone, and the lineage must keep naming the old ones.
        """
        tier = cls(engine, config)
        store = engine.store
        records = list(engine.log.records())
        committed = TransactionTable.scan(engine.log).committed
        installs = [r for r in records if isinstance(r, MergeInstallRecord)
                    and r.owner_tid in committed]
        targets = {phys for r in installs for _, phys in r.flips}
        for oid in store.all_live_oids():
            if oid not in targets:
                tier.logical_ids.add(oid)
                tier._chains[oid] = [VersionEntry(0, None, oid)]
        for record in records:
            if isinstance(record, TailDeltaRecord):
                for loid, image in record.writes:
                    chain = tier._chains.setdefault(
                        loid, [VersionEntry(0, None, loid)])
                    chain.append(VersionEntry(record.commit_ts,
                                              ObjectImage.decode(image)))
                    tier._grown[loid] = chain
                    tier.logical_ids.add(loid)
                tier.last_commit_ts = max(tier.last_commit_ts,
                                          record.commit_ts)
            elif isinstance(record, MergeInstallRecord) and \
                    record.owner_tid in committed:
                for loid, _ in record.flips:
                    # A never-updated logical id whose pre-merge base was
                    # already swept has no live-oid seed; anchor it so the
                    # flip below lands on a chain.
                    tier._chains.setdefault(
                        loid, [VersionEntry(0, None, loid)])
                    tier.logical_ids.add(loid)
                tier._apply_flip(dict(record.flips), record.merge_ts)
                tier.last_commit_ts = max(tier.last_commit_ts,
                                          record.merge_ts)
                still = [oid for oid in record.frees if store.exists(oid)]
                if still:
                    tier._pending_frees.append((record.merge_ts, still))
        # Replay can leave seed sentinels naming already-swept bases
        # below flipped entries; no snapshot is active, so one GC pass
        # reduces every chain to its recoverable suffix.
        tier.gc_pass()
        engine.mvcc = tier
        return tier

    # -- snapshots ---------------------------------------------------------------

    def begin_snapshot(self) -> int:
        ts = self.last_commit_ts
        self._active[ts] = self._active.get(ts, 0) + 1
        self.stats.snapshot_peak = max(self.stats.snapshot_peak,
                                       sum(self._active.values()))
        return ts

    def end_snapshot(self, begin_ts: int) -> None:
        count = self._active.get(begin_ts, 0)
        if count <= 1:
            self._active.pop(begin_ts, None)
        else:
            self._active[begin_ts] = count - 1

    def watermark(self) -> int:
        """Oldest begin timestamp any active snapshot could read at."""
        if self._active:
            return min(self._active)
        return self.last_commit_ts

    # -- the read path -----------------------------------------------------------

    def version_for(self, loid: Oid, ts: int) -> VersionEntry:
        """The chain entry a snapshot at ``ts`` reads for ``loid``.

        The seam the ``stale_snapshot_read`` mutation wraps: returning
        any entry but the greatest one ``<= ts`` violates snapshot
        isolation, and the oracle must notice.  The newest entry is
        tried first — most snapshots see it — so the common answer is
        O(1); the check lives here, not in the callers, so that every
        read still goes through this (patchable) method.
        """
        chain = self._chains.get(loid)
        if chain is None:
            raise KeyError(f"{loid} is not under version control")
        newest = chain[-1]          # a chain is never empty
        if newest.ts <= ts:
            return newest
        index = bisect_right(chain, ts, key=_entry_ts) - 1
        if index < 0:
            raise KeyError(f"{loid} has no version at or below ts {ts}")
        return chain[index]

    def read(self, loid: Oid,
             ts: int) -> Generator[Any, Any, Tuple[ObjectImage, int]]:
        """Materialize the snapshot-visible image of ``loid`` at ``ts``.

        Returns ``(image copy, version commit_ts)``.  Base sentinels go
        through the buffer pool (see :meth:`_fix_base`); memory-resident,
        the fix is a no-op and is skipped.  :meth:`read_refs` is the same
        lookup with a different result — keep the two in step.
        """
        entry = self.version_for(loid, ts)
        if entry.is_base and self.engine.buffer is not None:
            entry = yield from self._fix_base(loid, ts, entry)
        if self._count_read(entry):
            return self.engine.store.read_object(entry.physical), entry.ts
        return entry.image.copy(), entry.ts

    def read_refs(self, loid: Oid, ts: int
                  ) -> Generator[Any, Any, Tuple[Sequence[Oid], int]]:
        """:meth:`read`, but returns the visible version's non-null
        children instead of an image copy: ``(children, version
        commit_ts)``.  For a base they are the store's shared tuple, for
        a tail a list built from the published image; callers must not
        mutate either.  Pointer chasing needs nothing else, and skips an
        image copy per step."""
        entry = self.version_for(loid, ts)
        if entry.is_base and self.engine.buffer is not None:
            entry = yield from self._fix_base(loid, ts, entry)
        if self._count_read(entry):
            return self.engine.store.children_tuple(entry.physical), entry.ts
        return entry.image.children(), entry.ts

    def _fix_base(self, loid: Oid, ts: int, entry: VersionEntry
                  ) -> Generator[Any, Any, VersionEntry]:
        """Fix a base's page, then look the version up *again*: an epoch
        flip may have landed during the I/O wait, and the re-resolved
        entry names the base that is guaranteed to outlive this snapshot
        (the pre-flip base may already be GC-eligible once the flip bumps
        the watermark past its cut)."""
        yield from self.engine.fix_page(entry.physical)
        return self.version_for(loid, ts)

    def _count_read(self, entry: VersionEntry) -> bool:
        """Count one snapshot read of ``entry``; True for a base."""
        if entry.is_base:
            self.stats.base_reads += 1
            return True
        self.stats.tail_reads += 1
        return False

    def resolve_physical(self, loid: Oid) -> Oid:
        """Current base address of ``loid`` (the lineage indirection)."""
        return self._lineage.get(loid, loid)

    def latest_image(self, loid: Oid) -> ObjectImage:
        """Newest committed image (no snapshot) — verification helper."""
        entry = self._chains[loid][-1]
        if entry.is_base:
            return self.engine.store.read_object(entry.physical)
        return entry.image.copy()

    # -- the write path ----------------------------------------------------------

    def validate(self, writes: Dict[Oid, ObjectImage],
                 begin_ts: int) -> None:
        """First-committer-wins: any newer committed version of a
        written object since the snapshot began is a conflict."""
        for loid in writes:
            chain = self._chains.get(loid)
            if chain is None:
                raise KeyError(f"{loid} is not under version control")
            if chain[-1].ts > begin_ts:
                self.stats.write_conflicts += 1
                raise WriteConflictError(
                    f"{loid}: committed version {chain[-1].ts} is newer "
                    f"than snapshot {begin_ts}", oid=loid)

    def commit(self, writes: Dict[Oid, ObjectImage],
               begin_ts: int) -> Generator[Any, Any, int]:
        """Validate, force-log one tail-delta record, publish the
        versions.  Returns the commit timestamp.

        The whole sequence runs under the tier's commit latch: the
        timestamp is allocated before the flush yield, and without the
        latch two committers parked on the log disk would mint the same
        timestamp (and the second-durable one could publish first,
        breaking commit-order = timestamp-order).  Only writers take
        the latch — the read path stays wait-free.
        """
        latches = self.engine.latches
        yield from latches.latch(_COMMIT_LATCH)
        try:
            # Validate inside the critical section: a commit that landed
            # while we waited for the latch must count as a conflict.
            self.validate(writes, begin_ts)
            commit_ts = self.last_commit_ts + 1
            record = TailDeltaRecord(
                0, 0, commit_ts=commit_ts,
                writes=tuple(sorted(((loid, image.encode())
                                     for loid, image in writes.items()),
                                    key=lambda pair: pair[0])))
            lsn = self.engine.log.append(record)
            yield from self.engine.log.flush(lsn)
            # Publish only after the flush: a crash during the log write
            # must leave no reader having seen the version.
            for loid, image in writes.items():
                chain = self._chains[loid]
                chain.append(VersionEntry(commit_ts, image.copy()))
                self._grown[loid] = chain
            self.last_commit_ts = commit_ts
        finally:
            latches.unlatch(_COMMIT_LATCH)
        self.stats.commits += 1
        for probe in self.engine.probes:
            probe.version_commit(commit_ts, writes)
        self._commits_since_gc += 1
        if self.cfg.gc_every_commits and \
                self._commits_since_gc >= self.cfg.gc_every_commits:
            self.gc_pass()
        return commit_ts

    # -- the epoch flip (called by the merge reorganizer) ------------------------

    def install_merge(self, flips: Dict[Oid, Oid], cut_ts: int,
                      frees: List[Oid]) -> None:
        """Atomically re-anchor merged objects at their new bases.

        Runs synchronously — no scheduler yield — after the merge's
        system transaction committed, so every reader sees either the
        whole flip or none of it.  ``cut_ts`` is the commit timestamp
        the consolidation read at; versions above it survive in the
        chains, versions at or below it are now served by the new base.
        """
        self._apply_flip(flips, cut_ts)
        self._pending_frees.append((cut_ts, list(frees)))
        self.epoch += 1
        self.stats.merges_installed += 1

    def _apply_flip(self, flips: Dict[Oid, Oid], cut_ts: int) -> None:
        for loid, physical in flips.items():
            chain = self._chains[loid]
            index = bisect_right(chain, cut_ts, key=_entry_ts) - 1
            consolidated = chain[index]
            # The new base carries the consolidated version's *content*
            # at its original timestamp: readers' version accounting is
            # unchanged by relocation (the flip is invisible to the
            # snapshot-isolation oracle, as reorganization must be).
            chain[index] = VersionEntry(consolidated.ts, None, physical)
            self._lineage[loid] = physical

    # -- epoch GC ----------------------------------------------------------------

    def gc_pass(self) -> None:
        """Prune chain versions no active (or future) snapshot can see.

        A pass at the watermark the previous pass ran at returns at
        once, because it could prune nothing.  After a pass at watermark
        W every chain has one entry or a second entry with ``ts > W``;
        a commit appends ``ts = last_commit_ts + 1 > W`` (no snapshot
        begins above the last commit); a merge flip replaces an entry at
        the same ``ts``.  So no entry becomes prunable until W moves,
        and while a snapshot pins W (the merge's cut) the passes that
        commits trigger walk no chain.
        """
        self._commits_since_gc = 0
        watermark = self.watermark()
        if watermark == self._gc_watermark:
            return
        self._gc_watermark = watermark
        probes = self.engine.probes
        shrunk = []
        for loid, chain in self._grown.items():
            if chain[1].ts > watermark:
                continue    # nothing below the entry the watermark keeps
            keep = bisect_right(chain, watermark, key=_entry_ts) - 1
            for probe in probes:
                for entry in chain[:keep]:
                    probe.version_pruned(loid, entry.ts, chain[keep].ts,
                                         watermark)
            self.stats.versions_pruned += keep
            del chain[:keep]
            if len(chain) == 1:
                shrunk.append(loid)
        for loid in shrunk:
            del self._grown[loid]

    def sweep_frees(self) -> Generator[Any, Any, int]:
        """Free superseded base objects below the watermark.

        Runs as a short system transaction per ripe merge cut; returns
        the number of bases freed.  Driven by the merge reorganizer
        after its flip and by anyone who wants reclamation sooner.
        """
        watermark = self.watermark()
        ripe = [(cut, oids) for cut, oids in self._pending_frees
                if cut <= watermark]
        if not ripe:
            return 0
        self._pending_frees = [(cut, oids) for cut, oids
                               in self._pending_frees if cut > watermark]
        # Prune first: every chain entry naming a base we are about to
        # free sits strictly below its merge's consolidated entry, whose
        # timestamp is <= the ripe cut <= the watermark — so a GC pass
        # removes all of them before the store address goes away.
        self.gc_pass()
        freed = 0
        for _, oids in ripe:
            txn = self.engine.txns.begin(system=True)
            for oid in oids:
                if self.engine.store.exists(oid):
                    yield from txn.delete_object(oid, cpu_ms=0)
                    freed += 1
            yield from txn.commit()
        self.stats.bases_freed += freed
        return freed

    @property
    def pending_free_count(self) -> int:
        return sum(len(oids) for _, oids in self._pending_frees)

    # -- verification ------------------------------------------------------------

    def verify(self) -> List[str]:
        """Structural invariants; returns human-readable violations."""
        problems: List[str] = []
        store = self.engine.store
        for loid in sorted(self.logical_ids):
            chain = self._chains.get(loid)
            if not chain:
                problems.append(f"{loid}: no version chain")
                continue
            if len(chain) > 1:
                # One entry is trivially ordered; most chains are one
                # base sentinel.
                ts_list = [entry.ts for entry in chain]
                if ts_list != sorted(set(ts_list)):
                    problems.append(
                        f"{loid}: chain timestamps not strictly increasing: "
                        f"{ts_list}")
            for entry in chain:
                if entry.is_base and not store.exists(entry.physical):
                    problems.append(
                        f"{loid}: base sentinel at ts {entry.ts} names "
                        f"freed object {entry.physical}")
            head = chain[-1]
            if head.is_base and \
                    head.physical != self.resolve_physical(loid):
                problems.append(
                    f"{loid}: head base {head.physical} disagrees with "
                    f"lineage {self.resolve_physical(loid)}")
        return problems

    def signature(self) -> Any:
        """Address-free reachability signature of the newest committed
        state: a multiset of ``(payload, sorted child payloads)`` with
        references resolved logically — the MVCC analogue of
        :func:`repro.verify.graph_signature`, invariant under
        merge relocation by construction."""
        payloads = {loid: self.latest_image(loid).payload
                    for loid in self.logical_ids}
        contributions = []
        for loid in self.logical_ids:
            image = self.latest_image(loid)
            children = tuple(sorted(
                payloads[child] for child in image.children()
                if child in payloads))
            contributions.append((payloads[loid], children))
        contributions.sort()
        return tuple(contributions)
