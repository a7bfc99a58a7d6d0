"""The Incremental Reorganization Algorithm (IRA) — paper §3.

IRA migrates every object of a partition to a plan-chosen new location
while user transactions keep running, holding locks only on the parents
of the *one* object currently being migrated:

1. ``Find_Objects_And_Approx_Parents`` (Fig. 3): a fuzzy traversal —
   latches only — finds the live objects and approximate parent lists.
2. Per object (Fig. 4 ``Find_Exact_Parents``): write-lock the approximate
   parents, discard the ones that no longer reference the object, then
   drain the TRT tuples for the object — locking each tuple's parent and
   keeping it if the reference is (still/now) present — until no tuple
   remains.  At that point Lemmas 3.2/3.3 guarantee no committed object
   and no active transaction can reach the old address.
3. ``Move_Object_And_Update_Refs`` (Fig. 5): copy the object, patch every
   parent's reference slot, fix the ERTs (done here by the log analyzer
   mining the migration's own log records), fix the in-memory parent
   lists of the object's children, delete the old copy, release locks.

Each migration runs inside a system transaction; ``migration_batch_size``
groups several migrations per transaction to amortize the commit flush
(§4.3).  A lock timeout (= deadlock, §4.4) aborts the current batch and
retries it.  When the engine runs transactions with short-duration locks
instead of strict 2PL, IRA additionally waits, after locking any object,
for every active transaction that ever locked it (§4.1).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set

from ..concurrency import LockMode, LockTimeoutError
from ..errors import ReorganizationError
from ..sim import Delay
from ..storage.oid import Oid
from .reorganizer import Reorganizer, sweep_unreachable
from .traversal import (
    TraversalResult,
    find_objects_and_approx_parents,
    fuzzy_traversal,
)


class IncrementalReorganizer(Reorganizer):
    """On-line reorganization of one partition (basic IRA, §3).

    Footprint: the object being moved and every one of its parents,
    held by one system transaction per batch of objects (§4.3).  The
    probe fires "exact_parents" (oid, parents), "migrated" (oid,
    new_oid) and "lock" (tid, target).
    """

    algorithm_name = "ira"
    uses_trt = True
    collects_garbage = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Working state (checkpointable, §4.4).
        self._parents: Dict[Oid, Set[Oid]] = {}
        self._order: List[Oid] = []
        self._mapping: Dict[Oid, Oid] = self.stats.mapping
        # Addresses handed out as migration *targets*.  Slot reuse can
        # hand a freed source address back out as a later target, so a
        # parent-list entry that already names a target must never be
        # pushed through the old->new mapping again (see _translate).
        self._new_targets: Set[Oid] = set()
        self._migrated: Set[Oid] = set()
        self._allocated_at_traversal: Set[Oid] = set()
        # What the next checkpoint delta carries (§4.4): children whose
        # parent lists were touched and migrations committed since the
        # previous checkpoint.
        self._dirty_parents: Set[Oid] = set()
        self._unsaved_mapping: Dict[Oid, Oid] = {}
        # Seeded per-reorganizer: a string seed keeps runs reproducible
        # (tuple seeds would go through randomized hash()).
        self._retry_rng = self.cfg.deadlock_retry.rng(
            f"backoff/0/{self.partition_id}")

    # Bound here, not inherited: perf/adapter.py traces ``run`` on this
    # class itself.
    run = Reorganizer.run

    def _parents_to_patch(self, oid: Oid, parents: Set[Oid]) -> List[Oid]:
        """Seam: the ordered parent list whose slots get patched for one
        migration.  repro.explore's mutation tests override this to model
        a buggy reorganizer that skips a pointer rewrite."""
        return sorted(parents)

    # -- step 1: discovery ---------------------------------------------------------

    def _discover(self) -> Generator[Any, Any, None]:
        if self.cfg.collect_garbage:
            # ERT-seeded traversal: only live objects are found, so the
            # rest of the partition is detectable garbage (§3.4, §4.6).
            result = yield from find_objects_and_approx_parents(
                self.engine, self.partition_id, self.trt)
        else:
            # Allocation-seeded traversal (§3.4's alternative): visit every
            # allocated object so even unreachable ones are migrated with
            # their reference structure intact.
            result = TraversalResult()
            seeds = list(self.engine.store.live_oids(self.partition_id))
            yield from fuzzy_traversal(self.engine, self.partition_id,
                                       seeds, result)
            # TRT reseeding still applies (Fig. 3 L2) for objects created
            # by in-flight inserts we have not seen.
            while True:
                missed = [oid for oid in self.trt.referenced_objects()
                          if not result.visited(oid)
                          and self.engine.store.exists(oid)]
                if not missed:
                    break
                yield from fuzzy_traversal(self.engine, self.partition_id,
                                           missed, result)
        self._parents = result.parents
        self._order = self.plan.order(result.ordered_objects())
        self._allocated_at_traversal = set(
            self.engine.store.live_oids(self.partition_id))
        self.stats.objects_found = len(self._order)

    # -- step 2: migration loop ---------------------------------------------------------

    def _migrate_all(self) -> Generator[Any, Any, None]:
        """Migrate every pending object one unit of work at a time, with
        a checkpoint (§4.4) and the pacer between units; then collect
        the garbage the traversal found (§4.6) if asked to."""
        size = self._unit_size()
        pending = [oid for oid in self._order if oid not in self._migrated]
        for start in range(0, len(pending), size):
            unit = [oid for oid in pending[start:start + size]
                    if oid not in self._migrated
                    and self.engine.store.exists(oid)]
            if not unit:
                continue
            yield from self._migrate_unit(unit)
            if self.state_store is not None and self.cfg.checkpoint_every:
                if len(self._migrated) % self.cfg.checkpoint_every < size:
                    self._checkpoint_state()
            if self.pacer is not None:
                yield from self.pacer()
        if self.cfg.collect_garbage:
            # §4.6: free the objects the traversal never reached.
            self.stats.garbage_collected += yield from sweep_unreachable(
                self.engine, self.partition_id,
                self._allocated_at_traversal, set(self._order), self.trt)

    def _unit_size(self) -> int:
        """Objects per unit of work: a batch per system transaction."""
        return max(1, self.cfg.migration_batch_size)

    def _migrate_unit(self, batch: List[Oid]) -> Generator[Any, Any, None]:
        """Migrate a group of objects in one system transaction (§4.3),
        retrying the whole batch after a deadlock-resolving timeout."""
        attempt = 0
        while True:
            txn = self.engine.txns.begin(system=True, reorg_partition=self.partition_id)
            batch_mapping: Dict[Oid, Oid] = {}
            keep_locked: Set[Oid] = set()
            bookkeeping: List[tuple] = []
            try:
                for oid in batch:
                    parents = yield from self._find_exact_parents(
                        txn, oid, batch_mapping, keep_locked)
                    yield from self._move_object(
                        txn, oid, parents, batch_mapping, bookkeeping)
                yield from self._commit_batch(txn, batch_mapping)
            except LockTimeoutError:
                yield from txn.abort(reason="deadlock")
                yield from self._deadlock_retry(
                    attempt, f"batch starting at {batch[0]}")
                attempt += 1
                continue
            self._apply_bookkeeping(batch_mapping, bookkeeping)
            return

    def _commit_batch(self, txn,
                      batch_mapping: Dict[Oid, Oid]
                      ) -> Generator[Any, Any, None]:
        """Commit one migration batch.

        The seam for distributed reorganization (:mod:`repro.dist`):
        when some of the batch's parents live on other nodes the commit
        becomes a two-phase protocol across those nodes.  Single-node
        reorganization just commits the local transaction.
        """
        yield from txn.commit()

    def _deadlock_retry(self, attempt: int,
                        unit: object) -> Generator[Any, Any, None]:
        """The one step after a migration loses a deadlock (§4.4): count
        it, give up once ``ReorgConfig.deadlock_retry`` is exhausted,
        else sleep its backoff.  ``attempt`` is how many times in a row
        this ``unit`` of work — a batch here, one object under §4.2 —
        had already lost, so budget and backoff restart with each unit.
        """
        policy = self.cfg.deadlock_retry
        self.stats.deadlock_retries += 1
        if policy.exhausted(attempt):
            raise ReorganizationError(
                f"{unit}: exceeded {policy.max_retries} deadlock retries")
        delay = policy.delay_ms(attempt, self._retry_rng)
        if delay > 0:
            self.stats.backoff_ms_total += delay
            yield Delay(delay)

    # -- Fig. 4: Find_Exact_Parents ------------------------------------------------------

    def _find_exact_parents(self, txn, oid: Oid,
                            batch_mapping: Dict[Oid, Oid],
                            keep_locked: Set[Oid]
                            ) -> Generator[Any, Any, Set[Oid]]:
        store = self.engine.store
        ert = self.engine.ert_for(self.partition_id)
        exact: Set[Oid] = set()

        # S1: lock the approximate parents — traversal-found intra-partition
        # parents (translated through in-batch migrations) plus the ERT's
        # current external parents.
        approx = {self._translate(p, batch_mapping)
                  for p in self._parents.get(oid, ())}
        approx |= ert.parents_of(oid)
        for parent in sorted(approx):
            yield from self._lock_for_reorg(txn, parent)
            if store.exists(parent) and \
                    store.read_object(parent).references(oid):
                exact.add(parent)
                keep_locked.add(parent)
            elif parent not in keep_locked:
                self.engine.locks.release(txn.tid, parent)

        # S2: drain the TRT tuples whose referenced object is oid.
        while True:
            entries = self.trt.entries_for(oid)
            if not entries:
                break
            entry = min(entries, key=lambda e: (e.parent, e.tid, e.action))
            # Translate through committed migrations (stable across deadlock
            # retries) and then through this batch's in-flight migrations.
            stable = self._mapping.get(entry.parent, entry.parent)
            parent = batch_mapping.get(stable, stable)
            yield from self._lock_for_reorg(txn, parent)
            self.trt.pop_entry(entry)
            if store.exists(parent) and \
                    store.read_object(parent).references(oid):
                exact.add(parent)
                keep_locked.add(parent)
                # Remember across deadlock retries: tuples are consumed, so
                # retries must re-verify this parent from the approx list.
                # Record the committed-stable address — the batch mapping
                # rolls back if this batch aborts.
                self._parents.setdefault(oid, set()).add(stable)
                self._dirty_parents.add(oid)
            elif parent not in keep_locked:
                self.engine.locks.release(txn.tid, parent)

        self.stats.max_locks_held = max(
            self.stats.max_locks_held,
            self.engine.locks.object_lock_count(txn.tid))
        self._probe("exact_parents", oid=oid, parents=set(exact))
        return exact

    def _lock_for_reorg(self, txn, target: Oid) -> Generator[Any, Any, None]:
        if target.partition != self.partition_id and \
                not self.engine.locks.holds(txn.tid, target):
            self.stats.external_lock_acquisitions += 1
        self._probe("lock", tid=txn.tid, target=target)
        yield from txn.lock(target, LockMode.X)
        if not self.engine.config.strict_transactions:
            # §4.1: transactions release locks early, so also wait for every
            # active transaction that ever locked this object — it may hold
            # a copied-out reference in its local memory.
            lockers = self.engine.locks.ever_lockers(target) - {txn.tid}
            if lockers:
                yield from self.engine.txns.wait_for(lockers)

    # -- Fig. 5: Move_Object_And_Update_Refs ----------------------------------------------

    def _move_object(self, txn, oid: Oid, parents: Set[Oid],
                     batch_mapping: Dict[Oid, Oid],
                     bookkeeping: List[tuple]) -> Generator[Any, Any, Oid]:
        engine = self.engine
        cfg = engine.config
        # Write-lock the object itself before copying its image (the §4.2
        # variant already does).  With a single reorganizer the parent
        # locks suffice — every user access traverses a locked parent —
        # but a *concurrent* reorganization of another partition patches
        # this object's reference slots directly, holding it as a locked
        # parent; copying an unlocked image could resurrect a just-patched
        # stale reference in the new location.
        yield from self._lock_for_reorg(txn, oid)
        if not engine.store.exists(oid):
            return oid  # deleted while we waited for the lock
        image = self._image(oid)
        # One consolidated CPU burst per migration: the copy plus the
        # per-parent patch work (a real reorganizer does not reschedule
        # between the micro-steps of one object's migration).
        burst = (cfg.cpu_migrate_ms + 2 * cfg.cpu_update_extra_ms
                 + cfg.cpu_ref_patch_ms * max(1, len(parents)))
        yield from engine.cpu.use(burst)
        new_oid = yield from self._copy(txn, oid, image)
        # Every parent is write-locked.  The ERT updates Fig. 5 lists are
        # produced by the log analyzer from this transaction's OBJ_CREATE /
        # REF_UPDATE / OBJ_DELETE records — no direct table surgery here.
        yield from self._relocate(txn, oid, new_oid,
                                  self._parents_to_patch(oid, parents))
        self.stats.max_locks_held = max(
            self.stats.max_locks_held, engine.locks.object_lock_count(txn.tid))
        batch_mapping[oid] = new_oid
        # Defer in-memory bookkeeping to commit time (a deadlock retry must
        # not leave phantom parent-list edits behind).
        children_here = [c for c in image.children()
                         if c.partition == self.partition_id]
        bookkeeping.append((oid, new_oid, children_here))
        return new_oid

    def _apply_bookkeeping(self, batch_mapping: Dict[Oid, Oid],
                           bookkeeping: List[tuple]) -> None:
        for oid, new_oid, children_here in bookkeeping:
            # Fig. 5: for each not-yet-migrated child in the partition,
            # replace oid by new_oid in its parent list.
            for child in children_here:
                parent_set = self._parents.get(child)
                if parent_set is not None and oid in parent_set:
                    parent_set.discard(oid)
                    parent_set.add(new_oid)
                    self._dirty_parents.add(child)
            self._mapping[oid] = self._unsaved_mapping[oid] = new_oid
            self._new_targets.add(new_oid)
            self._migrated.add(oid)
            self.stats.objects_migrated += 1
            self._probe("migrated", oid=oid, new_oid=new_oid)

    def _translate(self, oid: Oid, batch_mapping: Dict[Oid, Oid]) -> Oid:
        """Committed migrations first, then this batch's in-flight ones.

        An address already handed out as a migration target is final:
        when the allocator reuses a freed source slot for a later
        target, that address is also a *key* of the mapping, and
        translating it again would alias two different objects.
        """
        if oid in self._new_targets:
            return oid
        oid = self._mapping.get(oid, oid)
        return batch_mapping.get(oid, oid)

    # -- §4.4: reorganizer state checkpointing --------------------------------------------

    def _checkpoint_state(self, in_progress=None) -> None:
        """This incarnation's first checkpoint is a self-contained base;
        every later one is a delta costing what changed since.
        ``in_progress`` is the two-lock extension's mid-migration pair."""
        from .checkpointing import ReorgDelta
        if self.stats.checkpoints_taken == 0:
            state = self.snapshot_state(in_progress)
        else:
            state = ReorgDelta(**self._state_fields(
                self._dirty_parents, self._unsaved_mapping, in_progress))
        self._dirty_parents, self._unsaved_mapping = set(), {}
        self.state_store.save(state)
        self.stats.checkpoints_taken += 1

    def _state_fields(self, children, mapping, in_progress) -> dict:
        return dict(
            parents={child: set(self._parents[child]) for child in children},
            mapping=dict(mapping),
            log_lsn=self.engine.log.last_lsn,
            in_progress=in_progress,
            relocation_floor=self.engine.store.partition(
                self.partition_id).relocation_floor)

    def snapshot_state(self, in_progress=None):
        """The full working state — what loading the store must give back
        after any chain of checkpoints."""
        from .checkpointing import ReorgState
        return ReorgState(
            algorithm=self.algorithm_name,
            partition_id=self.partition_id,
            order=list(self._order),
            migrated=set(self._migrated),
            allocated_at_traversal=set(self._allocated_at_traversal),
            trt_lsn=self._trt_lsn,
            **self._state_fields(self._parents, self._mapping, in_progress))

    def resume_from(self, state) -> None:
        """Adopt checkpointed state (§4.4) — skips quiesce wait, plan
        preparation and traversal; the caller must have rebuilt the TRT
        from the log (see :mod:`repro.core.checkpointing`)."""
        self._order = list(state.order)
        self._parents = {k: set(v) for k, v in state.parents.items()}
        self._mapping.update(state.mapping)
        self._new_targets.update(self._mapping.values())
        self._migrated = set(state.migrated)
        self._allocated_at_traversal = set(state.allocated_at_traversal)
        self._trt_lsn = state.trt_lsn
        self.stats.objects_found = len(self._order)
        self._resumed = True
