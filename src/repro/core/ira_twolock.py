"""The two-lock extension of IRA (paper §4.2).

Basic IRA locks *all* parents of an object before migrating it, which for
popular objects can lock a substantial portion of the database.  The
extension instead:

* locks the object being migrated — both the old and the new location —
  for the whole migration, via an *anchor* transaction that holds those
  locks across the per-parent updates;
* creates the new copy in its own committed transaction (so the copy
  survives a crash — the mixed-pointer state §4.2 describes);
* then locks parents **one at a time**, patching each parent's reference
  inside its own small system transaction and releasing its lock before
  taking the next (grouping per §4.3 is supported via
  ``migration_batch_size``, here interpreted as parent updates per
  transaction);
* finally deletes the old copy and commits the anchor.

At any instant the reorganizer holds locks on at most **two distinct
objects**: the object being migrated (its two locations) and one parent.

New references to the *new* location are fine; new references to the
*old* location keep being detected through the TRT — the parent loop
drains TRT tuples until none remain, re-patching parents as needed.

Reference-equality caveat (paper §4.2): while an object is mid-migration
two parents may hold references to its old and new locations.  The
:func:`references_equal` helper implements the compare that treats the
two addresses of an in-flight migration as equal.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..concurrency import LockMode, LockTimeoutError
from ..storage.oid import Oid
from ..wal import (
    ObjCreateRecord,
    PayloadUpdateRecord,
    RefUpdateRecord,
    TransactionTable,
)
from .ira import IncrementalReorganizer


def reconciled_copy_image(engine, partition_id: int, old: Oid, new: Oid,
                          transform=None):
    """The image the §4.2 copy must hold before parent patching (re)starts.

    While a migration is suspended with its locks released — the backoff
    after a deadlock abort, or the span from a crash to the resumed run —
    user transactions can commit updates through *either* address of the
    in-flight pair: through the old one via still-unpatched parents, and
    through the new one via parents already patched.  Updates through the
    old address live in the old location's stored image; updates through
    the new address live only in the copy (and the log).  Reusing the
    copy as-is would lose the former — a lost update.

    The merged image is the old location's current committed image
    (re-transformed, self-references translated to the new address) with
    the copy's committed user updates re-applied in log order.
    """
    image = engine.store.read_object(old)
    if transform is not None:
        image = transform(old, image)
    for slot, ref in image.refs():
        if ref == old:
            image.set_ref(slot, new)
    # Updates that reached the copy directly: committed, non-reorganizer
    # records against the new address, newer than the copy's (committed)
    # creation.  Reorganizer-owned records are the copy's own lifecycle
    # (creation, earlier reconciliations) — never user data.
    table = TransactionTable.scan(engine.log)
    moved = table.reorganizer_committed(partition_id)
    created_lsn = None
    for record in engine.log.records():
        if isinstance(record, ObjCreateRecord) and record.oid == new and \
                record.tid in moved:
            created_lsn = record.lsn
    if created_lsn is None:
        return image
    for record in engine.log.records(from_lsn=created_lsn + 1):
        if table.owner.get(record.tid) == partition_id or \
                record.tid not in table.committed:
            continue
        if isinstance(record, PayloadUpdateRecord) and record.oid == new:
            body = image.payload
            end = record.offset + len(record.after)
            image.payload = body[:record.offset] + record.after + body[end:]
        elif isinstance(record, RefUpdateRecord) and record.parent == new:
            image.set_ref(record.slot, record.new_child)
    return image


def references_equal(ref_a: Oid, ref_b: Oid,
                     in_flight: Dict[Oid, Oid]) -> bool:
    """Reference comparison aware of in-flight migrations (§4.2).

    ``in_flight`` maps old addresses of objects currently being migrated
    to their new addresses; two references are equal if they resolve to
    the same object under that mapping.
    """
    resolve = lambda r: in_flight.get(r, r)  # noqa: E731
    return resolve(ref_a) == resolve(ref_b)


class TwoLockReorganizer(IncrementalReorganizer):
    """IRA with the §4.2 at-most-two-distinct-locks migration protocol."""

    algorithm_name = "ira-2lock"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Old -> new addresses of migrations currently in flight, exposed
        #: for the §4.2-aware reference comparison.
        self.in_flight: Dict[Oid, Oid] = {}
        #: The checkpointed mid-migration pair a resumed run finishes first.
        self._resume_in_progress: Optional[Tuple[Oid, Oid]] = None

    def _migrate_all(self) -> Generator[Any, Any, None]:
        if self._resume_in_progress is not None:
            oid, new_oid = self._resume_in_progress
            # §4.2 failure handling: the database may hold references to
            # both locations.  Lock both, finish patching, delete the old.
            if self.engine.store.exists(oid):
                if not self.engine.store.exists(new_oid):
                    new_oid = None  # creation never committed: start over
                yield from self._migrate_one(oid, resumed_new_oid=new_oid)
            self._resume_in_progress = None
        yield from super()._migrate_all()

    def _unit_size(self) -> int:
        """One object at a time; batching groups parent updates, not
        whole objects."""
        return 1

    def _migrate_unit(self, unit: List[Oid]) -> Generator[Any, Any, None]:
        (oid,) = unit
        yield from self._migrate_one(oid)

    def _migrate_one(self, oid: Oid,
                     resumed_new_oid: Optional[Oid] = None,
                     attempt: int = 0) -> Generator[Any, Any, None]:
        """Migrate one object; ``attempt`` counts the deadlocks this
        object's migration has lost in a row (see ``_deadlock_retry``)."""
        engine = self.engine
        anchor = engine.txns.begin(system=True, reorg_partition=self.partition_id)
        try:
            # Lock the old location for the whole migration.
            yield from self._lock_for_reorg(anchor, oid)

            if resumed_new_oid is None:
                # Create the new copy in its own committed transaction so a
                # crash never strands committed parent patches pointing at
                # an uncreated object.
                image = self._image(oid)
                yield from engine.cpu.use(engine.config.cpu_migrate_ms)
                create_txn = engine.txns.begin(system=True, reorg_partition=self.partition_id)
                new_oid = yield from self._copy(create_txn, oid, image)
                # Checkpoint BEFORE the create commits: the progress record
                # precedes the commit record in the log, so the commit's
                # flush makes them durable together — a crash can never
                # leave a durable orphan copy that no in-progress record
                # names (resume would re-migrate the object to a second
                # copy and strand this one's stale references).
                if self.state_store is not None:
                    self._checkpoint_state(in_progress=(oid, new_oid))
                yield from create_txn.commit()
            else:
                new_oid = resumed_new_oid
                if self.state_store is not None:
                    self._checkpoint_state(in_progress=(oid, new_oid))
            # Lock the new location too (it is unreachable until the first
            # parent is patched, so the gap after create-commit is safe).
            yield from anchor.lock(new_oid, LockMode.X)
            self.in_flight[oid] = new_oid
            self._probe("in_flight", oid=oid, new_oid=new_oid)

            if resumed_new_oid is not None:
                yield from self._reconcile_copy(anchor, oid, new_oid)
            yield from self._patch_parents_one_at_a_time(anchor, oid, new_oid)

            # All parents now reference the new location; delete the old
            # copy inside the anchor (which holds its lock) and commit.
            yield from anchor.delete_object(oid, cpu_ms=0)
            yield from anchor.commit()
        except LockTimeoutError:
            # Deadlock: give everything back and retry this object.  The
            # new copy (committed in its own transaction) is reused — the
            # parents already patched legitimately point at it.  A retry
            # victimised before it re-registers the pair (re-locking the
            # old address) must still hand the copy on: forgetting it
            # would create a second copy and strand the first.
            yield from anchor.abort(reason="deadlock")
            retry_new = self.in_flight.pop(oid, resumed_new_oid)
            yield from self._deadlock_retry(attempt, oid)
            yield from self._migrate_one(oid, resumed_new_oid=retry_new,
                                         attempt=attempt + 1)
            return
        del self.in_flight[oid]
        self._finish_object(oid, new_oid)

    def _patch_parents_one_at_a_time(self, anchor, oid: Oid, new_oid: Oid
                                     ) -> Generator[Any, Any, None]:
        engine = self.engine
        batch = max(1, self.cfg.migration_batch_size)
        queue: List[Oid] = sorted(
            {self._translate(p, {}) for p in self._parents.get(oid, ())}
            | engine.ert_for(self.partition_id).parents_of(oid))
        while True:
            # Refill from the TRT: tuples referencing the old address name
            # parents that may (still or again) point at it.
            while not queue:
                entries = self.trt.entries_for(oid)
                if not entries:
                    break
                entry = min(entries,
                            key=lambda e: (e.parent, e.tid, e.action))
                if self.trt.pop_entry(entry):
                    stable = self._translate(entry.parent, {})
                    queue.append(stable)
                    # Survive deadlock retries: the tuple is consumed, so
                    # remember the parent in the approximate list.
                    self._parents.setdefault(oid, set()).add(stable)
                    self._dirty_parents.add(oid)
            if not queue:
                break
            patch_txn = engine.txns.begin(system=True, reorg_partition=self.partition_id)
            patched = 0
            try:
                while queue and patched < batch:
                    parent = queue.pop(0)
                    if parent == oid or parent == new_oid:
                        # Self-reference (under either address — in an
                        # evacuation the new copy's own reference into the
                        # old partition lands in the ERT): the slot lives
                        # in the new copy, whose lock the anchor holds, so
                        # patch via the anchor.
                        yield from self._patch_slots(anchor, new_oid, oid,
                                                     new_oid)
                        patched += 1
                        continue
                    yield from self._lock_for_reorg(patch_txn, parent)
                    if engine.store.exists(parent):
                        yield from self._patch_slots(patch_txn, parent, oid,
                                                     new_oid)
                    patched += 1
                    self._note_lock_footprint(anchor, patch_txn)
                yield from patch_txn.commit()
            except LockTimeoutError:
                yield from patch_txn.abort(reason="deadlock")
                raise

    def _patch_slots(self, txn, holder: Oid, old_child: Oid,
                     new_child: Oid) -> Generator[Any, Any, None]:
        self._probe("patch", tid=txn.tid, holder=holder,
                    old_child=old_child, new_child=new_child)
        slots = self.engine.store.read_object(
            holder).slots_referencing(old_child)
        if slots:
            yield from self.engine.cpu.use(
                self.engine.config.cpu_ref_patch_ms * len(slots))
        yield from self._patch(txn, holder, old_child, new_child, slots)

    def _reconcile_copy(self, anchor, oid: Oid, new_oid: Oid
                        ) -> Generator[Any, Any, None]:
        """Refresh a reused copy from the old location's committed state.

        Runs with the anchor holding X on both addresses, so both stored
        images are committed and stable; see
        :func:`reconciled_copy_image` for why the copy may be stale.
        """
        expected = reconciled_copy_image(self.engine, self.partition_id,
                                         oid, new_oid, self.transform)
        if self.engine.store.read_object(new_oid) != expected:
            yield from anchor.replace_object(new_oid, expected)

    def _note_lock_footprint(self, anchor, patch_txn) -> None:
        # The anchor holds the migrating object's two locations = one
        # distinct object; the patch transaction holds one parent.  Only
        # object-level locks count toward the §4.2 footprint — ancestor
        # granule intents (hierarchical manager) are excluded.
        raw = (self.engine.locks.object_lock_count(anchor.tid)
               + self.engine.locks.object_lock_count(patch_txn.tid))
        self.stats.max_locks_held = max(self.stats.max_locks_held, raw)

    def _finish_object(self, oid: Oid, new_oid: Oid) -> None:
        image_children = []
        # The new copy's children in this partition need their parent lists
        # repointed (Fig. 5 bookkeeping, same as the base algorithm).
        if self.engine.store.exists(new_oid):
            image_children = [
                c for c in self.engine.store.children_of(new_oid)
                if c.partition == self.partition_id]
        self._apply_bookkeeping({}, [(oid, new_oid, image_children)])

    # -- §4.4 resume -------------------------------------------------------------------

    def resume_from(self, state) -> None:
        super().resume_from(state)
        self._resume_in_progress = state.in_progress
