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
  flat cycles, and the engine's probes see granule grants/releases
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
admit compatible waiters.  Only pages escalate: a partition lock is
always one a transaction asked for.

When another transaction's request later conflicts with an *escalated*
page lock, the manager de-escalates the holder instead of blocking the
requester: the remembered fine locks are re-granted — provably
compatible, by the same intent argument — the page grant demotes back
to the intent the survivors need, and the requester retries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..concurrency.locks import LockManager, LockMode, _LockEntry
from ..storage.oid import Oid
from .granules import PageGranule, PartitionGranule, descendant_of

_S, _X = LockMode.S, LockMode.X

#: An object's ancestor granules, root first.
Path = Tuple[PartitionGranule, PageGranule]


class HierarchicalLockManager(LockManager):
    """IS/IX/S/SIX/X over partition → page → object granules."""

    def __init__(self, sim, timeout_ms: float = 1000.0,
                 track_history: bool = True, detection: str = "timeout",
                 escalate_after: int = 0):
        super().__init__(sim, timeout_ms=timeout_ms,
                         track_history=track_history, detection=detection)
        self.escalate_after = escalate_after
        #: (partition, page) -> interned granule path, one per page ever
        #: touched.
        self._paths: Dict[Tuple[int, int], Path] = {}
        #: tid -> page granule -> {oid: mode} of live fine object locks.
        self._fine: Dict[int, Dict[PageGranule, Dict[Oid, LockMode]]] = {}
        #: tid -> escalated page -> {oid: mode} of the fine locks the
        #: escalation folded in and every object touched under it since,
        #: re-granted verbatim on de-escalation.
        self._covered: Dict[int, Dict[PageGranule, Dict[Oid, LockMode]]] = {}
        #: tid -> page -> fine-lock count at the last failed escalation
        #: attempt (retry only once the transaction grows past it).
        self._esc_failed: Dict[int, Dict[PageGranule, int]] = {}
        #: tid -> object keys held, mirroring exactly the per-tid set the
        #: flat manager would keep (same insert/discard sequence).  With
        #: escalation off, ``release_all`` walks this first so waiter
        #: wakeup order — hence the whole schedule — is byte-identical to
        #: the flat manager's; granule keys must not perturb it.
        self._objects_held: Dict[int, Set[Oid]] = {}

    def _grant(self, entry, tid: int, mode: LockMode, key) -> None:
        # Base calls on the request path name the class: no super()
        # object per call, and still resolved at call time (traceable).
        LockManager._grant(self, entry, tid, mode, key)
        if type(key) is Oid:
            objs = self._objects_held.get(tid)
            if objs is None:
                objs = self._objects_held[tid] = set()
            objs.add(key)

    # -- granule interning -------------------------------------------------------------

    def _path(self, oid: Oid) -> Path:
        """``oid``'s partition and page granules, interned."""
        key = (oid.partition, oid.page)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = (PartitionGranule(oid.partition),
                                       PageGranule(*key))
        return path

    def _ancestors(self, tid: int, oid: Oid, intent: LockMode,
                   path: Path) -> Tuple[object, ...]:
        """The ancestor granules to lock (in ``intent``) before an object
        lock, root first: a sub-sequence of ``path``.  Seam for the
        planted missing-ancestor-intent mutation; the other arguments are
        unused here but let a mutation scope its damage."""
        return path

    # -- acquisition -------------------------------------------------------------------

    def try_acquire(self, tid: int, key, mode: LockMode) -> bool:
        if not isinstance(key, Oid):
            return super().try_acquire(tid, key, mode)
        return next(self._plant(tid, key, mode), None) is None

    def acquire_wait(self, tid: int, key, mode: LockMode,
                     timeout_ms: Optional[float] = None):
        if not isinstance(key, Oid):
            yield from super().acquire_wait(tid, key, mode, timeout_ms)
            return
        for blocked, blocked_mode in self._plant(tid, key, mode):
            yield from super().acquire_wait(tid, blocked, blocked_mode,
                                            timeout_ms)

    def _plant(self, tid: int, key: Oid, mode: LockMode):
        """The one planting pass behind both acquisition paths.

        Reads ``tid``'s holding on the object's partition and page once
        (the page again after a wait).
        A coarse lock that already covers ``mode`` below answers the
        request outright.  Otherwise each ancestor needs ``mode``'s
        intent — counted like the base manager's re-entrant return when
        held strongly enough, acquired (de-escalating blockers) when
        missing or weaker — and then the object lock is taken, noted as a
        fine lock, and may escalate its page.  A generator: it yields the
        ``(key, mode)`` of each step that cannot be granted now, which
        :meth:`try_acquire` reports as a refusal and :meth:`acquire_wait`
        waits out before carrying on.
        """
        path = self._path(key)
        part, page = path
        table = self._table
        entry = table.get(part)
        part_held = None if entry is None else entry.granted.get(tid)
        entry = table.get(page)
        page_held = None if entry is None else entry.granted.get(tid)
        bit = mode.bit
        if page_held is not None and page_held.covers_below & bit:
            covering = page
        elif part_held is not None and part_held.covers_below & bit:
            covering = part
        else:
            covering = None
        stats = self.stats
        if covering is not None:
            stats.requests += 1
            # Only an escalated page remembers what it covers (its bucket
            # exists from the escalation on): a coarse lock asked for by
            # key is never de-escalated, only waited for.
            cov = self._covered.get(tid)
            bucket = None if cov is None else cov.get(covering)
            if bucket is not None:
                old = bucket.get(key)
                bucket[key] = mode if old is None else old.sup[mode.rank]
            return
        intent = mode.intent
        for granule in self._ancestors(tid, key, intent, path):
            held = part_held if granule is part else page_held
            if held is not None and held.covers & intent.bit:
                stats.requests += 1  # the base manager's re-entrant return
            elif not self._acquire_granule(tid, granule, intent):
                yield granule, intent
                # Others ran meanwhile and may have de-escalated this
                # transaction's page lock.
                entry = table.get(page)
                page_held = None if entry is None else entry.granted.get(tid)
        if not LockManager.try_acquire(self, tid, key, mode):
            yield key, mode
        fine = self._fine.get(tid)
        if fine is None:
            fine = self._fine[tid] = {}
        page_map = fine.get(page)
        if page_map is None:
            page_map = fine[page] = {}
        old = page_map.get(key)
        page_map[key] = mode if old is None else old.sup[mode.rank]
        if 0 < self.escalate_after <= len(page_map):
            self._escalate(tid, page, page_map)

    def _acquire_granule(self, tid: int, granule, mode: LockMode) -> bool:
        if LockManager.try_acquire(self, tid, granule, mode):
            return True
        if self._deescalate_blockers(tid, granule, mode):
            return LockManager.try_acquire(self, tid, granule, mode)
        return False

    # -- escalation --------------------------------------------------------------------

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
        raw = _X if _X in page_map.values() else _S
        target = held.sup[raw.rank]
        if target is held:
            return  # already coarse enough
        if not self._escalation_safe(tid, page, target):
            self.stats.escalation_failures += 1
            if failed is None:
                failed = self._esc_failed[tid] = {}
            failed[page] = len(page_map)
            return
        self._promote(tid, page, target)
        self.stats.escalations += 1
        bucket = self._covered.setdefault(tid, {}).setdefault(page, {})
        for oid, m in page_map.items():
            old = bucket.get(oid)
            bucket[oid] = m if old is None else old.sup[m.rank]
        objs = self._objects_held.get(tid)
        for oid in list(page_map):
            super().release(tid, oid)
            if objs is not None:
                objs.discard(oid)
        self._fine[tid].pop(page, None)
        if failed is not None:
            failed.pop(page, None)

    def _promote(self, tid: int, granule, target: LockMode) -> None:
        entry = self._table[granule]
        entry.granted[tid] = target
        for probe in self.probes:
            probe.lock("grant", tid, granule, target)

    # -- de-escalation -----------------------------------------------------------------

    def _deescalate_blockers(self, requester: int, granule,
                             mode: LockMode) -> bool:
        """De-escalate every holder whose *escalated* page lock on
        ``granule`` conflicts with ``mode``.  Returns True when all
        conflicts were escalations (the requester should retry); False
        as soon as a genuine conflict remains."""
        entry = self._table.get(granule)
        if entry is None or type(granule) is not PageGranule:
            return False
        compatible = mode.compatible
        did = False
        for holder, held in list(entry.granted.items()):
            if holder == requester or held.bit & compatible:
                continue
            cov = self._covered.get(holder)
            if cov is None or granule not in cov:
                return False  # a real coarse conflict, not an escalation
            self._deescalate(holder, granule)
            did = True
        return did

    def _deescalate(self, holder: int, page: PageGranule) -> None:
        fines = self._covered[holder].pop(page)
        fine = self._fine.get(holder)
        if fine is None:
            fine = self._fine[holder] = {}
        for oid, m in fines.items():
            self._regrant(holder, oid, m)
            page_map = fine.get(page)
            if page_map is None:
                page_map = fine[page] = {}
            old = page_map.get(oid)
            page_map[oid] = m if old is None else old.sup[m.rank]
        self.stats.deescalations += 1
        # Demote the page grant to whatever intent the holder's remaining
        # locks below still require (possibly nothing).
        entry = self._table[page]
        demoted = self._required_intent(holder, page)
        for probe in self.probes:
            probe.lock("release", holder, page, None)
        if demoted is None:
            del entry.granted[holder]
            held = self._held_by.get(holder)
            if held is not None:
                held.discard(page)
        else:
            entry.granted[holder] = demoted
            for probe in self.probes:
                probe.lock("grant", holder, page, demoted)
        self._dispatch(entry, page)
        failed = self._esc_failed.get(holder)
        if failed is not None:
            failed.pop(page, None)

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
        elif not held.covers & mode.bit:
            target = held.sup[mode.rank]
            entry.granted[holder] = target
            for probe in self.probes:
                probe.lock("grant", holder, key, target)

    def _required_intent(self, holder: int,
                         page: PageGranule) -> Optional[LockMode]:
        """The intent the holder's surviving object locks on ``page``
        need on it (None when nothing is left below)."""
        need: Optional[LockMode] = None
        table = self._table
        for key in self._held_by.get(holder, ()):
            if descendant_of(key, page):
                m = table[key].granted[holder].intent
                need = m if need is None else need.sup[m.rank]
        return need

    # -- release -----------------------------------------------------------------------

    def release(self, tid: int, key) -> None:
        if isinstance(key, Oid):
            fine = self._fine.get(tid)
            if fine:
                page = self._path(key)[1]
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
            for granule in self._path(key):
                entry = self._table.get(granule)
                held = None if entry is None else entry.granted.get(tid)
                if held is not None and held.covers_below:
                    return  # covered by a coarse lock asked for by key
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
            probes = self.probes
            for key in objs:
                if key not in keys:
                    continue
                keys.discard(key)
                entry = table.get(key)
                if entry is not None and tid in entry.granted:
                    del entry.granted[tid]
                    released.add(key)
                    if probes:
                        for probe in probes:
                            probe.lock("release", tid, key, None)
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
        page_first = self._path(key)[::-1]
        if mode is not None:
            for granule in page_first:
                entry = self._table.get(granule)
                held = None if entry is None else entry.granted.get(tid)
                if held is not None and held.covers_below & mode.bit:
                    return True
            return False
        cov = self._covered.get(tid)
        if cov:
            for granule in page_first:
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
            required = mode.intent
            for anc in self._path(key)[::-1]:
                entry = self._table.get(anc)
                held = entry.granted.get(tid) if entry is not None else None
                if held is None or not held.covers & required.bit:
                    problems.append(
                        f"txn {tid} holds {mode.value} on {key} without "
                        f"{required.value} on {anc}")
        else:
            implicit = mode.implicit_below
            if implicit is not None:
                # A coarse grant must be compatible with every co-holder
                # of the granule itself (this is what an escalation that
                # skips re-validation breaks) ...
                entry = self._table.get(key)
                if entry is not None:
                    allowed = mode.compatible
                    for other_tid, m in entry.granted.items():
                        if other_tid != tid and not m.bit & allowed:
                            problems.append(
                                f"txn {tid} holds {mode.value} on {key} "
                                f"alongside txn {other_tid}'s incompatible "
                                f"{m.value}")
                # ... and with every other transaction's lock below it.
                compatible = implicit.compatible
                for other_key, entry in self._table.items():
                    if not descendant_of(other_key, key):
                        continue
                    for other_tid, m in entry.granted.items():
                        if other_tid != tid and not m.bit & compatible:
                            problems.append(
                                f"txn {tid} holds {mode.value} on {key} "
                                f"over txn {other_tid}'s conflicting "
                                f"{m.value} on {other_key}")
        return problems
