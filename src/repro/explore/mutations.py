"""Planted reorganizer bugs that prove the oracles are sound.

An oracle that never fires proves nothing.  Each mutation here breaks
the implementation in one targeted, realistic way — through the seams
the reorganizer exposes for exactly this purpose — and names the oracle
that must catch it.  ``tests/test_explore_oracles.py`` runs every
mutation through the explorer and asserts the expected oracle reports a
violation (and that an unmutated run under the same schedule is clean).

The catalogue:

``skip_parent_patch``   (ira → ``transparency``)
    Move_Object_And_Update_Refs "forgets" one parent-pointer rewrite:
    the parent keeps referencing the old, deleted address.

``third_reorg_lock``    (ira-2lock → ``lock_footprint``)
    A parent patch acquires an extra X lock on an unrelated object,
    breaking the §4.2 at-most-two-distinct-objects claim.  The data
    stays correct — only the footprint monitor can see this.

``drop_trt_entry``      (ira → ``transparency``)
    Find_Exact_Parents loses one TRT insert tuple whose parent the
    reorganizer has not discovered any other way — precisely the race
    the TRT exists to close (paper Lemma 3.2): a concurrently inserted
    reference to the old address survives the migration, dangling.

``unlogged_poke``       (ira → ``recovery_idempotence``)
    After the run, a payload byte changes in the store without a log
    record — committed state that recovery cannot reproduce.

``stale_snapshot_read`` (mvcc → ``snapshot_isolation``)
    The tier's version lookup returns the entry *one below* the correct
    one — the classic off-by-one in a timestamp-ordered chain search,
    and exactly the failure a botched merge flip or an over-eager GC
    would produce.  The database stays physically consistent; only the
    snapshot-isolation oracle's read accounting can see it.

``escalate_over_conflict``  (hier locks → ``lock_hierarchy``)
    Lock escalation skips its grantability check once: the coarse page
    (or partition) lock is granted even though another transaction holds
    a conflicting mode on the granule — the classic escalation bug of
    promoting without re-validating against concurrent holders.

``missing_ancestor_intent`` (hier locks → ``lock_hierarchy``)
    One object lock is taken without planting its page intent first —
    the hierarchical protocol's root-first invariant broken at exactly
    the spot that makes a later escalation by *another* transaction
    unsound (it cannot see the fine lock it conflicts with).

Each mutation keeps a ``triggered`` flag so a test can tell "oracle
missed the bug" apart from "the schedule never exercised the bug".
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..concurrency import LockMode
from ..refs.trt import ACTION_INSERT


class Mutation:
    """One planted bug.  Subclasses override the hooks they need."""

    name = ""
    #: Reorganization algorithm the bug lives in.
    algorithm = "ira"
    #: Lock manager the bug lives in ("flat" or "hier"); the explorer
    #: runs the schedule under this manager when the mutation asks.
    locks = "flat"
    #: The oracle that must report a violation when the bug bites.
    expected_oracle = ""
    description = ""

    def __init__(self) -> None:
        self.triggered = False
        self.detail = ""

    def install(self, engine, reorg) -> None:
        """Plant the bug before the run starts."""

    def post_run(self, engine, reorg) -> None:
        """Damage applied after the run drains, before the oracles."""


class SkipParentPatch(Mutation):
    name = "skip_parent_patch"
    algorithm = "ira"
    expected_oracle = "transparency"
    description = "one parent's pointer rewrite is skipped during a move"

    def __init__(self) -> None:
        super().__init__()
        self._victim: Optional[object] = None

    def install(self, engine, reorg) -> None:
        original = reorg._parents_to_patch

        # Pick the first migrated object that has parents and always skip
        # its first parent — "always" so a deadlock-retried batch re-skips
        # instead of silently healing the bug on the retry.
        def patched(oid, parents):
            out = original(oid, parents)
            if self._victim is None and out:
                self._victim = oid
            if oid == self._victim and out:
                self.triggered = True
                self.detail = f"left {out[0]} pointing at {oid}"
                return out[1:]
            return out

        reorg._parents_to_patch = patched


class ThirdReorgLock(Mutation):
    name = "third_reorg_lock"
    algorithm = "ira-2lock"
    expected_oracle = "lock_footprint"
    description = "a parent patch grabs an X lock on an unrelated object"

    def install(self, engine, reorg) -> None:
        original = reorg._patch_slots

        def patched(txn, holder, old_child, new_child):
            # Only a real parent patch (not the anchor's self-reference
            # fix-up), and only once — the flag flips *after* the grant,
            # so a lock timeout on the extra object retries the bug
            # instead of wasting it.
            if not self.triggered and holder not in (old_child, new_child):
                extra = self._pick_extra(engine, reorg,
                                         (holder, old_child, new_child))
                if extra is not None:
                    yield from txn.lock(extra, LockMode.X)
                    self.triggered = True
                    self.detail = f"extra X lock on {extra}"
            yield from original(txn, holder, old_child, new_child)

        reorg._patch_slots = patched

    @staticmethod
    def _pick_extra(engine, reorg, busy):
        for oid in engine.store.live_oids(reorg.partition_id):
            if oid not in busy and oid not in reorg.in_flight.values():
                return oid
        return None


class DropTrtEntry(Mutation):
    name = "drop_trt_entry"
    algorithm = "ira"
    expected_oracle = "transparency"
    description = "one TRT insert tuple is lost before Find_Exact_Parents"

    def __init__(self) -> None:
        super().__init__()
        self._victim = None

    def install(self, engine, reorg) -> None:
        original_activate = engine.activate_trt
        mutation = self

        def activate(partition_id):
            trt = original_activate(partition_id)
            original_entries_for = trt.entries_for

            # Hide the victim tuple *persistently*: the S2 drain loop
            # re-reads entries_for until empty, so a one-shot hide would
            # just delay the patch by one iteration.
            def entries_for(child):
                entries = original_entries_for(child)
                if mutation._victim is None:
                    for entry in sorted(entries, key=lambda e:
                                        (e.parent, e.tid, e.seq)):
                        if entry.action == ACTION_INSERT and \
                                mutation._qualifies(entry, engine, reorg,
                                                    child):
                            mutation._victim = entry
                            mutation.triggered = True
                            mutation.detail = (
                                f"hid TRT tuple {entry.parent} -> {child}")
                            break
                if mutation._victim is not None:
                    entries = {e for e in entries
                               if e != mutation._victim}
                return entries

            trt.entries_for = entries_for
            return trt

        engine.activate_trt = activate

    @staticmethod
    def _qualifies(entry, engine, reorg, child) -> bool:
        # Only a tuple the reorganizer knows about through *no other
        # channel* reproduces the real bug: the parent must be absent
        # from the approximate parent list and from the ERT, else S1
        # patches it anyway and the drop is harmless.
        stable = reorg._mapping.get(entry.parent, entry.parent)
        known = reorg._parents.get(child, set())
        if entry.parent in known or stable in known:
            return False
        ert_parents = engine.ert_for(reorg.partition_id).parents_of(child)
        return entry.parent not in ert_parents and stable not in ert_parents


class UnloggedPoke(Mutation):
    name = "unlogged_poke"
    algorithm = "ira"
    expected_oracle = "recovery_idempotence"
    description = "a payload byte changes in the store with no log record"

    def post_run(self, engine, reorg) -> None:
        for oid in sorted(engine.store.all_live_oids()):
            if len(engine.store.read_object(oid).payload) >= 4:
                engine.store.set_payload_bytes(oid, 0, b"\xde\xad\xbe\xef")
                self.triggered = True
                self.detail = f"poked payload of {oid} without logging"
                return


class StaleSnapshotRead(Mutation):
    name = "stale_snapshot_read"
    algorithm = "mvcc"
    expected_oracle = "snapshot_isolation"
    description = "version lookup returns one version older than visible"

    def install(self, engine, reorg) -> None:
        tier = engine.mvcc
        original = tier.version_for
        mutation = self

        def stale(loid, ts):
            entry = original(loid, ts)
            chain = tier._chains[loid]
            index = chain.index(entry)
            if index >= 1:
                older = chain[index - 1]
                # Serve the stale version only when doing so cannot turn
                # into a physical fault (a base sentinel whose object was
                # already swept would crash the read instead of silently
                # violating isolation, which is a different bug).
                if not older.is_base or \
                        engine.store.exists(older.physical):
                    if not mutation.triggered:
                        mutation.triggered = True
                        mutation.detail = (
                            f"served {loid} at {older.ts} instead of "
                            f"{entry.ts} to snapshot {ts}")
                    return older
            return entry

        tier.version_for = stale


class EscalateOverConflict(Mutation):
    name = "escalate_over_conflict"
    algorithm = "ira"
    locks = "hier"
    expected_oracle = "lock_hierarchy"
    description = "escalation skips its grantability check once"

    def install(self, engine, reorg) -> None:
        locks = engine.locks
        original = locks._escalation_safe
        mutation = self

        # Force the first escalation the sound check would *refuse*: the
        # coarse lock is granted over a conflicting co-holder, exactly
        # what promoting without re-validation does in a real manager.
        def unsafe(tid, granule, target):
            if original(tid, granule, target):
                return True
            if not mutation.triggered:
                mutation.triggered = True
                mutation.detail = (f"escalated txn {tid} to {target.value} "
                                   f"on {granule} over a conflicting holder")
                return True
            return False

        locks._escalation_safe = unsafe


class MissingAncestorIntent(Mutation):
    name = "missing_ancestor_intent"
    algorithm = "ira"
    locks = "hier"
    expected_oracle = "lock_hierarchy"
    description = "one object lock is taken without its page intent"

    def install(self, engine, reorg) -> None:
        locks = engine.locks
        original = locks._ancestors
        mutation = self

        # Drop the page granule from the ancestor walk once — for a
        # transaction that holds nothing on an already-populated page,
        # so the resulting fine lock really is uncovered (and invisible
        # to any other transaction's escalation check).
        def skipping(tid, oid, intent, path):
            ancestors = original(tid, oid, intent, path)
            if not mutation.triggered:
                page = ancestors[-1]
                entry = locks._table.get(page)
                if entry is not None and tid not in entry.granted:
                    mutation.triggered = True
                    mutation.detail = (
                        f"skipped {intent.value} on {page} for txn "
                        f"{tid}'s lock on {oid}")
                    return ancestors[:-1]
            return ancestors

        locks._ancestors = skipping


MUTATIONS: Dict[str, Type[Mutation]] = {
    cls.name: cls
    for cls in (SkipParentPatch, ThirdReorgLock, DropTrtEntry, UnloggedPoke,
                StaleSnapshotRead, EscalateOverConflict,
                MissingAncestorIntent)
}
