"""Multi-granularity hierarchical lock manager (ROADMAP item 4).

Gray-style intention locking over the partition → page → object granule
tree, drop-in behind the flat :class:`~repro.concurrency.locks.LockManager`
protocol: transactions, the reorganizers, the serve-layer deadlock
detector and the explorer's oracles all run unchanged against either
manager.

Protocol-visible behaviour
--------------------------

* ``try_acquire / acquire_wait / acquire`` on an **object** key first
  plant intention locks (IS for shared, IX for exclusive) on the
  object's partition and page granules — root first, the classic
  deadlock-free order — then take the fine object lock.  Non-object
  keys pass straight through to the base manager.
* All queueing, FIFO dispatch, upgrades, timeouts, chaos kills and the
  waits-for deadlock detector are inherited: a wait on an ancestor
  granule is an ordinary wait edge in the shared waits-for graph, so
  deadlock cycles passing through granules are detected exactly like
  flat cycles, and the ``observer`` hook sees granule grants/releases
  like any other key.

Escalation
----------

With ``escalate_after = N > 0``, the N-th fine lock a transaction
accumulates on one page promotes them all to a single page lock (S if
every fine lock is S, else X; an existing IX intent folds in as SIX).
Escalation is *opportunistic and synchronous*: it only happens when the
coarse mode is immediately grantable against every other holder of the
granule, and never blocks.  That check is also what makes releasing the
covered fine locks safe: any transaction holding **or waiting for** a
conflicting fine lock under the page necessarily planted its own
conflicting page intent first (root-first order), which defeats the
escalation — so a successful escalation proves no conflicting fine
holder or waiter exists below, and the freed fine entries can only
admit compatible waiters.  ``lock_partition_escalate_after`` applies the
same rule one level up.

When another transaction's request later conflicts with an *escalated*
coarse lock, the manager de-escalates the holder instead of blocking the
requester (``deescalate_on_conflict``): the remembered fine locks are
re-granted — provably compatible, by the same intent argument — the
coarse grant demotes back to the intents the survivors need, and the
requester retries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..concurrency.locks import (
    _COMPATIBLE,
    _COVERS,
    _SUP,
    LockManager,
    LockMode,
    _LockEntry,
)
from ..storage.oid import Oid
from .granules import PageGranule, PartitionGranule, descendant_of

#: The intention mode an acquisition in ``mode`` requires on every
#: ancestor granule (also: the partition intent a page-level mode needs).
_INTENT: Dict[LockMode, LockMode] = {
    LockMode.IS: LockMode.IS,
    LockMode.S: LockMode.IS,
    LockMode.IX: LockMode.IX,
    LockMode.SIX: LockMode.IX,
    LockMode.X: LockMode.IX,
}

#: Coarse mode held on a granule -> the descendant modes it satisfies
#: without a fine lock (SIX's IX half only licenses the holder's *own*
#: further fine X locks, so implicitly it is S below).
_COVERS_BELOW: Dict[LockMode, frozenset] = {
    LockMode.S: frozenset({LockMode.S, LockMode.IS}),
    LockMode.SIX: frozenset({LockMode.S, LockMode.IS}),
    LockMode.X: frozenset(LockMode),
}

#: Coarse mode -> the mode it implicitly holds on every descendant
#: (for conflict checks against other transactions' descendant locks).
_IMPLICIT_BELOW: Dict[LockMode, LockMode] = {
    LockMode.S: LockMode.S,
    LockMode.SIX: LockMode.S,
    LockMode.X: LockMode.X,
}


class HierarchicalLockManager(LockManager):
    """IS/IX/S/SIX/X over partition → page → object granules."""

    def __init__(self, sim, timeout_ms: float = 1000.0,
                 track_history: bool = True, detection: str = "timeout",
                 escalate_after: int = 0,
                 partition_escalate_after: int = 0,
                 deescalate_on_conflict: bool = True):
        super().__init__(sim, timeout_ms=timeout_ms,
                         track_history=track_history, detection=detection)
        self.escalate_after = escalate_after
        self.partition_escalate_after = partition_escalate_after
        self.deescalate_on_conflict = deescalate_on_conflict
        # Interned granule keys (one per page/partition ever touched).
        self._page_granules: Dict[Tuple[int, int], PageGranule] = {}
        self._part_granules: Dict[int, PartitionGranule] = {}
        #: tid -> page granule -> {oid: mode} of live fine object locks.
        self._fine: Dict[int, Dict[PageGranule, Dict[Oid, LockMode]]] = {}
        #: tid -> granule -> {oid: mode} remembered under an escalated
        #: coarse lock (re-granted verbatim on de-escalation).
        self._covered: Dict[int, Dict[object, Dict[Oid, LockMode]]] = {}
        #: tid -> granule -> fine-lock count at the last failed escalation
        #: attempt (retry only once the transaction grows past it).
        self._esc_failed: Dict[int, Dict[object, int]] = {}
        #: tid -> object keys held, mirroring exactly the per-tid set the
        #: flat manager would keep (same insert/discard sequence).  With
        #: escalation off, ``release_all`` walks this first so waiter
        #: wakeup order — hence the whole schedule — is byte-identical to
        #: the flat manager's; granule keys must not perturb it.
        self._objects_held: Dict[int, Set[Oid]] = {}

    def _grant(self, entry, tid: int, mode: LockMode, key) -> None:
        super()._grant(entry, tid, mode, key)
        if type(key) is Oid:
            objs = self._objects_held.get(tid)
            if objs is None:
                objs = self._objects_held[tid] = set()
            objs.add(key)

    # -- granule interning -------------------------------------------------------------

    def _page_g(self, partition: int, page: int) -> PageGranule:
        key = (partition, page)
        g = self._page_granules.get(key)
        if g is None:
            g = self._page_granules[key] = PageGranule(partition, page)
        return g

    def _part_g(self, partition: int) -> PartitionGranule:
        g = self._part_granules.get(partition)
        if g is None:
            g = self._part_granules[partition] = PartitionGranule(partition)
        return g

    def _ancestors(self, tid: int, oid: Oid,
                   intent: LockMode) -> Tuple[object, ...]:
        """The ancestor granules to lock (in ``intent``) before an object
        lock, root first.  Seam for the planted missing-ancestor-intent
        mutation; ``tid`` is unused here but lets a mutation scope its
        damage."""
        return (self._part_g(oid.partition),
                self._page_g(oid.partition, oid.page))

    # -- acquisition -------------------------------------------------------------------

    def try_acquire(self, tid: int, key, mode: LockMode) -> bool:
        if not isinstance(key, Oid):
            return super().try_acquire(tid, key, mode)
        page = self._page_g(key.partition, key.page)
        part = self._part_g(key.partition)
        covering = self._covering(tid, page, part, mode)
        if covering is not None:
            self.stats.requests += 1
            self._note_covered(tid, covering, key, mode)
            return True
        intent = _INTENT[mode]
        for granule in self._ancestors(tid, key, intent):
            if not self._acquire_granule(tid, granule, intent):
                return False
        if not super().try_acquire(tid, key, mode):
            return False
        self._note_fine(tid, page, key, mode)
        self._maybe_escalate(tid, page, part)
        return True

    def acquire_wait(self, tid: int, key, mode: LockMode,
                     timeout_ms: Optional[float] = None):
        if not isinstance(key, Oid):
            yield from super().acquire_wait(tid, key, mode, timeout_ms)
            return
        page = self._page_g(key.partition, key.page)
        part = self._part_g(key.partition)
        covering = self._covering(tid, page, part, mode)
        if covering is not None:
            self.stats.requests += 1
            self._note_covered(tid, covering, key, mode)
            return
        intent = _INTENT[mode]
        for granule in self._ancestors(tid, key, intent):
            if not self._acquire_granule(tid, granule, intent):
                yield from super().acquire_wait(tid, granule, intent,
                                                timeout_ms)
        if not super().try_acquire(tid, key, mode):
            yield from super().acquire_wait(tid, key, mode, timeout_ms)
        self._note_fine(tid, page, key, mode)
        self._maybe_escalate(tid, page, part)

    def _acquire_granule(self, tid: int, granule, mode: LockMode) -> bool:
        if super().try_acquire(tid, granule, mode):
            return True
        if self.deescalate_on_conflict and \
                self._deescalate_blockers(tid, granule, mode):
            return super().try_acquire(tid, granule, mode)
        return False

    # -- coverage ----------------------------------------------------------------------

    def _covering(self, tid: int, page: PageGranule,
                  part: PartitionGranule, mode: LockMode):
        """The coarse granule whose lock already satisfies ``mode`` on an
        object below it, or ``None``."""
        table = self._table
        for granule in (page, part):
            entry = table.get(granule)
            if entry is not None:
                held = entry.granted.get(tid)
                if held is not None and \
                        mode in _COVERS_BELOW.get(held, ()):
                    return granule
        return None

    def _note_covered(self, tid: int, granule, oid: Oid,
                      mode: LockMode) -> None:
        bucket = self._covered.setdefault(tid, {}).setdefault(granule, {})
        old = bucket.get(oid)
        bucket[oid] = mode if old is None else _SUP[old][mode]

    def _note_fine(self, tid: int, page: PageGranule, oid: Oid,
                   mode: LockMode) -> None:
        fine = self._fine.get(tid)
        if fine is None:
            fine = self._fine[tid] = {}
        page_map = fine.get(page)
        if page_map is None:
            page_map = fine[page] = {}
        old = page_map.get(oid)
        page_map[oid] = mode if old is None else _SUP[old][mode]

    # -- escalation --------------------------------------------------------------------

    def _maybe_escalate(self, tid: int, page: PageGranule,
                        part: PartitionGranule) -> None:
        if self.escalate_after > 0:
            fine = self._fine.get(tid)
            if fine:
                page_map = fine.get(page)
                if page_map is not None and \
                        len(page_map) >= self.escalate_after:
                    self._escalate(tid, page, page_map)
        if self.partition_escalate_after > 0:
            fine = self._fine.get(tid)
            if fine:
                total = sum(len(oids) for g, oids in fine.items()
                            if g.partition == part.partition)
                if total >= self.partition_escalate_after:
                    self._escalate_partition(tid, part)

    def _escalation_safe(self, tid: int, granule,
                         target: LockMode) -> bool:
        """May ``tid``'s locks under ``granule`` escalate to ``target``?

        Grantability against every *other* holder of the granule is the
        whole safety argument: a conflicting fine holder or waiter below
        necessarily planted a conflicting intent here first (root-first
        acquisition order), so passing this check proves the subtree
        clean.  Seam for the planted escalate-over-conflict mutation.
        """
        entry = self._table.get(granule)
        return entry is not None and \
            self._grantable(entry, target, ignore_tid=tid)

    def _escalate(self, tid: int, page: PageGranule,
                  page_map: Dict[Oid, LockMode]) -> None:
        failed = self._esc_failed.get(tid)
        if failed is not None and failed.get(page, -1) >= len(page_map):
            return  # already failed at this size; retry after growth
        held = self._table[page].granted.get(tid)
        if held is None:
            return  # no page lock to promote (planted-bug territory)
        raw = LockMode.X if any(m is LockMode.X for m in page_map.values()) \
            else LockMode.S
        target = _SUP[held][raw]
        if target is held:
            return  # already coarse enough
        if not self._escalation_safe(tid, page, target):
            self.stats.escalation_failures += 1
            self._esc_failed.setdefault(tid, {})[page] = len(page_map)
            return
        self._promote(tid, page, target)
        self.stats.escalations += 1
        bucket = self._covered.setdefault(tid, {}).setdefault(page, {})
        for oid, m in page_map.items():
            old = bucket.get(oid)
            bucket[oid] = m if old is None else _SUP[old][m]
        objs = self._objects_held.get(tid)
        for oid in list(page_map):
            super().release(tid, oid)
            if objs is not None:
                objs.discard(oid)
        self._fine[tid].pop(page, None)
        if failed is not None:
            failed.pop(page, None)

    def _escalate_partition(self, tid: int,
                            part: PartitionGranule) -> None:
        fine = self._fine.get(tid) or {}
        pages = [g for g in fine if g.partition == part.partition]
        merged: Dict[Oid, LockMode] = {}
        for g in pages:
            merged.update(fine[g])
        cov = self._covered.get(tid, {})
        cov_pages = [g for g in cov if type(g) is PageGranule
                     and g.partition == part.partition]
        for g in cov_pages:
            for oid, m in cov[g].items():
                old = merged.get(oid)
                merged[oid] = m if old is None else _SUP[old][m]
        if not merged:
            return
        failed = self._esc_failed.get(tid)
        if failed is not None and failed.get(part, -1) >= len(merged):
            return
        held = self._table[part].granted.get(tid)
        if held is None:
            return
        raw = LockMode.X if any(m is LockMode.X for m in merged.values()) \
            else LockMode.S
        target = _SUP[held][raw]
        if target is held:
            return
        if not self._escalation_safe(tid, part, target):
            self.stats.escalation_failures += 1
            self._esc_failed.setdefault(tid, {})[part] = len(merged)
            return
        self._promote(tid, part, target)
        self.stats.escalations += 1
        bucket = self._covered.setdefault(tid, {}).setdefault(part, {})
        for oid, m in merged.items():
            old = bucket.get(oid)
            bucket[oid] = m if old is None else _SUP[old][m]
        # Everything below the partition collapses into the coarse lock:
        # fine object locks, escalated page locks, and page intents.
        objs = self._objects_held.get(tid)
        for g in pages:
            for oid in list(fine[g]):
                super().release(tid, oid)
                if objs is not None:
                    objs.discard(oid)
            del fine[g]
        for g in cov_pages:
            del cov[g]
            super().release(tid, g)
        for key in [k for k in self._held_by.get(tid, ())
                    if type(k) is PageGranule
                    and k.partition == part.partition]:
            super().release(tid, key)
        if failed is not None:
            failed.pop(part, None)

    def _promote(self, tid: int, granule, target: LockMode) -> None:
        entry = self._table[granule]
        entry.granted[tid] = target
        if self.observer is not None:
            self.observer("grant", tid, granule, target)

    # -- de-escalation -----------------------------------------------------------------

    def _deescalate_blockers(self, requester: int, granule,
                             mode: LockMode) -> bool:
        """De-escalate every holder whose *escalated* coarse lock on
        ``granule`` conflicts with ``mode``.  Returns True when all
        conflicts were escalations (the requester should retry); False
        as soon as a genuine conflict remains."""
        entry = self._table.get(granule)
        if entry is None:
            return False
        compatible = _COMPATIBLE[mode]
        did = False
        for holder, held in list(entry.granted.items()):
            if holder == requester or held in compatible:
                continue
            cov = self._covered.get(holder)
            if cov is None or granule not in cov:
                return False  # a real coarse conflict, not an escalation
            self._deescalate(holder, granule)
            did = True
        return did

    def _deescalate(self, holder: int, granule) -> None:
        fines = self._covered[holder].pop(granule)
        is_page = type(granule) is PageGranule
        fine = self._fine.get(holder)
        if fine is None:
            fine = self._fine[holder] = {}
        for oid, m in fines.items():
            if not is_page:
                # Partition de-escalation: re-plant the page intent the
                # fine lock needs before the fine lock itself.
                self._regrant(holder,
                              self._page_g(oid.partition, oid.page),
                              _INTENT[m])
            self._regrant(holder, oid, m)
            page = granule if is_page else self._page_g(oid.partition,
                                                        oid.page)
            page_map = fine.get(page)
            if page_map is None:
                page_map = fine[page] = {}
            old = page_map.get(oid)
            page_map[oid] = m if old is None else _SUP[old][m]
        self.stats.deescalations += 1
        # Demote the coarse grant to whatever intent the holder's
        # remaining locks below still require (possibly nothing).
        entry = self._table[granule]
        demoted = self._required_intent(holder, granule)
        if self.observer is not None:
            self.observer("release", holder, granule, None)
        if demoted is None:
            del entry.granted[holder]
            held = self._held_by.get(holder)
            if held is not None:
                held.discard(granule)
        else:
            entry.granted[holder] = demoted
            if self.observer is not None:
                self.observer("grant", holder, granule, demoted)
        self._dispatch(entry, granule)
        failed = self._esc_failed.get(holder)
        if failed is not None:
            failed.pop(granule, None)

    def _regrant(self, holder: int, key, mode: LockMode) -> None:
        """Re-grant a lock covered until now by an escalated coarse lock.

        Always compatible: the coarse lock is still held while re-granting,
        so no other transaction can hold (or wait for — its intents would
        have defeated the escalation) a conflicting lock below it.
        """
        entry = self._table.get(key)
        if entry is None:
            entry = _LockEntry()
            self._table[key] = entry
            if len(self._table) > self.stats.table_peak:
                self.stats.table_peak = len(self._table)
        held = entry.granted.get(holder)
        if held is None:
            self._grant(entry, holder, mode, key)
        elif mode not in _COVERS[held]:
            target = _SUP[held][mode]
            entry.granted[holder] = target
            if self.observer is not None:
                self.observer("grant", holder, key, target)

    def _required_intent(self, holder: int, granule) -> Optional[LockMode]:
        """The intent the holder's surviving locks below ``granule`` need
        on it (None when nothing is left below)."""
        need: Optional[LockMode] = None
        table = self._table
        for key in self._held_by.get(holder, ()):
            if key == granule or not descendant_of(key, granule):
                continue
            m = _INTENT[table[key].granted[holder]]
            need = m if need is None else _SUP[need][m]
        # Remembered covers on a child granule (an escalated page under a
        # de-escalating partition keeps its coarse page lock).
        cov = self._covered.get(holder)
        if cov:
            for g in cov:
                if g != granule and descendant_of(g, granule):
                    m = _INTENT[table[g].granted[holder]]
                    need = m if need is None else _SUP[need][m]
        return need

    # -- release -----------------------------------------------------------------------

    def release(self, tid: int, key) -> None:
        if isinstance(key, Oid):
            fine = self._fine.get(tid)
            if fine:
                page = self._page_g(key.partition, key.page)
                page_map = fine.get(page)
                if page_map is not None and key in page_map:
                    del page_map[key]
                    if not page_map:
                        del fine[page]
                    super().release(tid, key)
                    objs = self._objects_held.get(tid)
                    if objs is not None:
                        objs.discard(key)
                    return
            cov = self._covered.get(tid)
            if cov:
                # Covered by an escalated coarse lock: forget the touch so
                # a de-escalation won't resurrect it; the coarse lock
                # itself stays (deliberately conservative).
                for oids in cov.values():
                    if key in oids:
                        del oids[key]
                        return
        super().release(tid, key)

    def release_all(self, tid: int) -> Set[object]:
        # Release object locks first, iterating the flat-mirror set: same
        # insert/discard history as the flat manager's per-tid set, so
        # (escalation off) the waiter wakeup sequence is byte-identical.
        # Granules go second — leaf-before-ancestor is also the only
        # hierarchically sound release order.
        released: Set[object] = set()
        objs = self._objects_held.pop(tid, None)
        keys = self._held_by.get(tid)
        if objs and keys:
            table = self._table
            observer = self.observer
            for key in objs:
                if key not in keys:
                    continue
                keys.discard(key)
                entry = table.get(key)
                if entry is not None and tid in entry.granted:
                    del entry.granted[tid]
                    released.add(key)
                    if observer is not None:
                        observer("release", tid, key, None)
                    if entry.queue:
                        self._dispatch(entry, key)
                    elif not entry.granted:
                        del table[key]
        released |= super().release_all(tid)
        self._fine.pop(tid, None)
        self._covered.pop(tid, None)
        self._esc_failed.pop(tid, None)
        return released

    # -- introspection -----------------------------------------------------------------

    def holds(self, tid: int, key, mode: Optional[LockMode] = None) -> bool:
        if super().holds(tid, key, mode):
            return True
        if not isinstance(key, Oid):
            return False
        page = self._page_g(key.partition, key.page)
        part = self._part_g(key.partition)
        if mode is not None:
            return self._covering(tid, page, part, mode) is not None
        cov = self._covered.get(tid)
        if cov:
            for granule in (page, part):
                oids = cov.get(granule)
                if oids and key in oids:
                    return True
        return False

    def object_lock_count(self, tid: int) -> int:
        return len(self._objects_held.get(tid, ()))

    def counters_summary(self) -> Dict[str, object]:
        out = self._counters("hier")
        out["escalation_failures"] = self.stats.escalation_failures
        return out

    # -- hierarchy-consistency checks (used by the explorer's oracles) ----------------

    def missing_ancestor_intents(self, tid: int) -> List[str]:
        """Every object-level lock ``tid`` holds whose ancestor intents
        are absent or too weak — always empty for a sound manager."""
        problems: List[str] = []
        held = self._held_by.get(tid)
        if held:
            for key in held:
                if isinstance(key, Oid):
                    problems.extend(self.grant_problems(
                        tid, key, self._table[key].granted[tid]))
        return problems

    def grant_problems(self, tid: int, key, mode: LockMode) -> List[str]:
        """Hierarchy invariants violated by ``tid`` holding ``mode`` on
        ``key`` right now (empty for a sound manager).

        Object keys must have covering ancestor intents; coarse (S/SIX/X)
        granule locks must not coexist with a conflicting lock held by
        another transaction on any descendant.
        """
        problems: List[str] = []
        if isinstance(key, Oid):
            required = _INTENT[mode]
            for anc in (self._page_g(key.partition, key.page),
                        self._part_g(key.partition)):
                entry = self._table.get(anc)
                held = entry.granted.get(tid) if entry is not None else None
                if held is None or required not in _COVERS[held]:
                    problems.append(
                        f"txn {tid} holds {mode.value} on {key} without "
                        f"{required.value} on {anc}")
        else:
            implicit = _IMPLICIT_BELOW.get(mode)
            if implicit is not None:
                # A coarse grant must be compatible with every co-holder
                # of the granule itself (this is what an escalation that
                # skips re-validation breaks) ...
                entry = self._table.get(key)
                if entry is not None:
                    allowed = _COMPATIBLE[mode]
                    for other_tid, m in entry.granted.items():
                        if other_tid != tid and m not in allowed:
                            problems.append(
                                f"txn {tid} holds {mode.value} on {key} "
                                f"alongside txn {other_tid}'s incompatible "
                                f"{m.value}")
                # ... and with every other transaction's lock below it.
                compatible = _COMPATIBLE[implicit]
                for other_key, entry in self._table.items():
                    if not descendant_of(other_key, key):
                        continue
                    for other_tid, m in entry.granted.items():
                        if other_tid != tid and m not in compatible:
                            problems.append(
                                f"txn {tid} holds {mode.value} on {key} "
                                f"over txn {other_tid}'s conflicting "
                                f"{m.value} on {other_key}")
        return problems
