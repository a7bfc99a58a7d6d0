"""The hierarchical manager's one planting pass against the code it replaced.

Two oracles, both kept here and nowhere in ``src/``:

* **The lattice tables.**  ``LockMode``'s precomputed masks must say
  exactly what the frozenset/dict tables said — and what CONCURRENCY.md's
  matrix says — for all 25 (held, requested) pairs, and the identity fast
  paths of ``_grantable`` must agree with the compatibility table.
* **The layered object-key path.**  :class:`LegacyHierarchicalLockManager`
  is the previous ``try_acquire`` / ``acquire_wait`` (coverage check, then
  one base-manager request per ancestor, then the fine lock, then the
  escalation check), its escalation and de-escalation helpers, and the
  table-driven ``_grantable``.  Hypothesis drives the same request
  streams — synchronous tries, simulated acquires that wait, time out,
  deadlock or are killed, releases, commits — through both, and every
  observable must match step for step: return values, the lock table
  (granted maps and queues, in order), the hierarchy bookkeeping, every
  ``LockStats`` field, the probes' lock stream and so the wakeup order of
  ``release_all``.
"""

import copy
import enum
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import LockManager, LockMode, LockTimeoutError
from repro.concurrency.locks import _LockEntry
from repro.engine import Probe
from repro.hlock import (HierarchicalLockManager, PageGranule,
                         PartitionGranule, descendant_of)
from repro.sim import Delay, Simulator
from repro.storage.oid import Oid

IS, IX, S, SIX, X = LockMode

# -- the lattice as tables (the previous representation) ----------------------

_COMPATIBLE = {
    IS: frozenset({IS, IX, S, SIX}),
    IX: frozenset({IS, IX}),
    S: frozenset({IS, S}),
    SIX: frozenset({IS}),
    X: frozenset(),
}
_COVERS = {
    IS: frozenset({IS}),
    IX: frozenset({IX, IS}),
    S: frozenset({S, IS}),
    SIX: frozenset({SIX, S, IX, IS}),
    X: frozenset({X, SIX, S, IX, IS}),
}
_SUP = {a: {b: next(m for m in (IS, IX, S, SIX, X)
                    if a in _COVERS[m] and b in _COVERS[m])
            for b in LockMode}
        for a in LockMode}
_INTENT = {IS: IS, S: IS, IX: IX, SIX: IX, X: IX}
_COVERS_BELOW = {
    S: frozenset({S, IS}),
    SIX: frozenset({S, IS}),
    X: frozenset(LockMode),
}
_IMPLICIT_BELOW = {S: S, SIX: S, X: X}

PAIRS = [(held, requested) for held in LockMode for requested in LockMode]


def _documented_matrix():
    """CONCURRENCY.md's compatibility matrix: (row, column) -> '+'."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "CONCURRENCY.md")
    with open(path) as doc:
        rows = [line for line in doc if line.startswith("| ")]
    header = [cell.strip() for cell in rows[0].strip("|\n").split("|")][1:]
    matrix = {}
    for line in rows[1:]:
        cells = [cell.strip() for cell in line.strip("|\n").split("|")]
        if cells[0] in header:
            for column, cell in zip(header, cells[1:]):
                matrix[(LockMode(cells[0]), LockMode(column))] = cell == "+"
    return matrix


def test_lattice_masks_reproduce_the_tables_for_all_25_pairs():
    assert len(PAIRS) == 25
    documented = _documented_matrix()
    assert len(documented) == 25
    for held, requested in PAIRS:
        compatible = bool(requested.compatible & held.bit)
        assert compatible == (held in _COMPATIBLE[requested])
        assert compatible == documented[(requested, held)]
        assert bool(held.covers & requested.bit) == \
            (requested in _COVERS[held])
        assert held.sup[requested.rank] is _SUP[held][requested]
        assert bool(held.covers_below & requested.bit) == \
            (requested in _COVERS_BELOW.get(held, ()))
    for mode in LockMode:
        assert mode.intent is _INTENT[mode]
        assert mode.implicit_below is _IMPLICIT_BELOW.get(mode)


def test_lock_mode_keeps_enum_hashing():
    # The lattice is read off attributes; hashing a mode is Enum's own
    # (by name), so sets and dicts of modes iterate as they always did.
    assert LockMode.__hash__ is enum.Enum.__hash__
    assert hash(LockMode.S) == hash("S")


def test_grantable_fast_paths_agree_with_the_table():
    locks = LockManager(Simulator())
    for held, requested in PAIRS:
        for others in ((), (held,), (IS, held), (held, IS, IX)):
            entry = _LockEntry()
            entry.granted[1] = held
            for tid, mode in enumerate(others, start=2):
                entry.granted[tid] = mode
            expected = all(m in _COMPATIBLE[requested]
                           for m in entry.granted.values())
            assert locks._grantable(entry, requested) == expected
            # The requester's own holding never blocks it (upgrades).
            expected = all(m in _COMPATIBLE[requested] for t, m in
                           entry.granted.items() if t != 1)
            assert locks._grantable(entry, requested, ignore_tid=1) == \
                expected


# -- the previous object-key path ---------------------------------------------


class LegacyHierarchicalLockManager(HierarchicalLockManager):
    """The layered object-key path the planting pass replaced, with its
    lattice tables.  Base-manager calls name ``LockManager`` explicitly
    (they were ``super()`` calls one class down)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._page_granules = {}
        self._part_granules = {}

    def _page_g(self, partition, page):
        key = (partition, page)
        g = self._page_granules.get(key)
        if g is None:
            g = self._page_granules[key] = PageGranule(partition, page)
        return g

    def _part_g(self, partition):
        g = self._part_granules.get(partition)
        if g is None:
            g = self._part_granules[partition] = PartitionGranule(partition)
        return g

    def _legacy_ancestors(self, tid, oid, intent):
        return (self._part_g(oid.partition),
                self._page_g(oid.partition, oid.page))

    def try_acquire(self, tid, key, mode):
        if not isinstance(key, Oid):
            return LockManager.try_acquire(self, tid, key, mode)
        page = self._page_g(key.partition, key.page)
        part = self._part_g(key.partition)
        covering = self._covering(tid, page, part, mode)
        if covering is not None:
            self.stats.requests += 1
            self._note_covered(tid, covering, key, mode)
            return True
        intent = _INTENT[mode]
        for granule in self._legacy_ancestors(tid, key, intent):
            if not self._acquire_granule(tid, granule, intent):
                return False
        if not LockManager.try_acquire(self, tid, key, mode):
            return False
        self._note_fine(tid, page, key, mode)
        self._maybe_escalate(tid, page, part)
        return True

    def acquire_wait(self, tid, key, mode, timeout_ms=None):
        if not isinstance(key, Oid):
            yield from LockManager.acquire_wait(self, tid, key, mode,
                                                timeout_ms)
            return
        page = self._page_g(key.partition, key.page)
        part = self._part_g(key.partition)
        covering = self._covering(tid, page, part, mode)
        if covering is not None:
            self.stats.requests += 1
            self._note_covered(tid, covering, key, mode)
            return
        intent = _INTENT[mode]
        for granule in self._legacy_ancestors(tid, key, intent):
            if not self._acquire_granule(tid, granule, intent):
                yield from LockManager.acquire_wait(self, tid, granule,
                                                    intent, timeout_ms)
        if not LockManager.try_acquire(self, tid, key, mode):
            yield from LockManager.acquire_wait(self, tid, key, mode,
                                                timeout_ms)
        self._note_fine(tid, page, key, mode)
        self._maybe_escalate(tid, page, part)

    def _acquire_granule(self, tid, granule, mode):
        if LockManager.try_acquire(self, tid, granule, mode):
            return True
        if self._deescalate_blockers(tid, granule, mode):
            return LockManager.try_acquire(self, tid, granule, mode)
        return False

    def _covering(self, tid, page, part, mode):
        table = self._table
        for granule in (page, part):
            entry = table.get(granule)
            if entry is not None:
                held = entry.granted.get(tid)
                if held is not None and \
                        mode in _COVERS_BELOW.get(held, ()):
                    return granule
        return None

    def _note_covered(self, tid, granule, oid, mode):
        # Only an escalated page remembers the objects it covers; a
        # coarse lock asked for by key is never de-escalated.
        bucket = self._covered.get(tid, {}).get(granule)
        if bucket is not None:
            old = bucket.get(oid)
            bucket[oid] = mode if old is None else _SUP[old][mode]

    def _note_fine(self, tid, page, oid, mode):
        fine = self._fine.get(tid)
        if fine is None:
            fine = self._fine[tid] = {}
        page_map = fine.get(page)
        if page_map is None:
            page_map = fine[page] = {}
        old = page_map.get(oid)
        page_map[oid] = mode if old is None else _SUP[old][mode]

    def _maybe_escalate(self, tid, page, part):
        if self.escalate_after > 0:
            fine = self._fine.get(tid)
            if fine:
                page_map = fine.get(page)
                if page_map is not None and \
                        len(page_map) >= self.escalate_after:
                    self._escalate(tid, page, page_map)

    def _escalate(self, tid, page, page_map):
        failed = self._esc_failed.get(tid)
        if failed is not None and failed.get(page, -1) >= len(page_map):
            return
        held = self._table[page].granted.get(tid)
        if held is None:
            return
        raw = X if any(m is X for m in page_map.values()) else S
        target = _SUP[held][raw]
        if target is held:
            return
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
            LockManager.release(self, tid, oid)
            if objs is not None:
                objs.discard(oid)
        self._fine[tid].pop(page, None)
        if failed is not None:
            failed.pop(page, None)

    def _deescalate_blockers(self, requester, granule, mode):
        entry = self._table.get(granule)
        if entry is None or type(granule) is not PageGranule:
            return False
        compatible = _COMPATIBLE[mode]
        did = False
        for holder, held in list(entry.granted.items()):
            if holder == requester or held in compatible:
                continue
            cov = self._covered.get(holder)
            if cov is None or granule not in cov:
                return False
            self._deescalate(holder, granule)
            did = True
        return did

    def _deescalate(self, holder, granule):
        fines = self._covered[holder].pop(granule)
        fine = self._fine.get(holder)
        if fine is None:
            fine = self._fine[holder] = {}
        for oid, m in fines.items():
            self._regrant(holder, oid, m)
            page_map = fine.get(granule)
            if page_map is None:
                page_map = fine[granule] = {}
            old = page_map.get(oid)
            page_map[oid] = m if old is None else _SUP[old][m]
        self.stats.deescalations += 1
        entry = self._table[granule]
        demoted = self._required_intent(holder, granule)
        for probe in self.probes:
            probe.lock("release", holder, granule, None)
        if demoted is None:
            del entry.granted[holder]
            held = self._held_by.get(holder)
            if held is not None:
                held.discard(granule)
        else:
            entry.granted[holder] = demoted
            for probe in self.probes:
                probe.lock("grant", holder, granule, demoted)
        self._dispatch(entry, granule)
        failed = self._esc_failed.get(holder)
        if failed is not None:
            failed.pop(granule, None)

    def _regrant(self, holder, key, mode):
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
            for probe in self.probes:
                probe.lock("grant", holder, key, target)

    def _required_intent(self, holder, granule):
        need = None
        table = self._table
        for key in self._held_by.get(holder, ()):
            if key == granule or not descendant_of(key, granule):
                continue
            m = _INTENT[table[key].granted[holder]]
            need = m if need is None else _SUP[need][m]
        return need

    def holds(self, tid, key, mode=None):
        if LockManager.holds(self, tid, key, mode):
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

    def _grantable(self, entry, mode, ignore_tid=None):
        granted = entry.granted
        if not granted:
            return True
        if mode is S:
            for t, m in granted.items():
                if t != ignore_tid and (m is X or m is IX or m is SIX):
                    return False
            return True
        if mode is X:
            for t in granted:
                if t != ignore_tid:
                    return False
            return True
        compatible = _COMPATIBLE[mode]
        for t, m in granted.items():
            if t != ignore_tid and m not in compatible:
                return False
        return True


# -- driving both with the same request streams -------------------------------

#: 2 partitions x 3 pages x 4 slots, then every page and partition granule.
KEYS = ([Oid(p, g, s) for p in (1, 2) for g in range(3) for s in range(4)]
        + [PageGranule(p, g) for p in (1, 2) for g in range(3)]
        + [PartitionGranule(p) for p in (1, 2)])
TIDS = (1, 2, 3, 4)

# Mostly the first page or two, so fine locks pile up, escalate, collide.
_key = st.one_of(st.integers(0, 3), st.integers(0, 7),
                 st.integers(0, len(KEYS) - 1))
_mode = st.sampled_from([S, X, S, X, IS, IX, SIX])
_OPS = {
    "try": st.tuples(st.just("try"), _key, _mode),
    "acquire": st.tuples(st.just("acquire"), _key, _mode,
                         st.sampled_from([None, 5.0, 40.0])),
    "release": st.tuples(st.just("release"), _key),
    "release_all": st.tuples(st.just("release_all")),
    "finish": st.tuples(st.just("finish")),
    "holds": st.tuples(st.just("holds"), _key, st.one_of(st.none(), _mode)),
    "delay": st.tuples(st.just("delay"),
                       st.sampled_from([0.0, 1.0, 3.0, 10.0])),
}
# Most operations take a lock, so some transactions grow big.
_op = st.sampled_from(["try"] * 3 + ["acquire"] * 3 + list(_OPS)[2:]) \
    .flatmap(_OPS.__getitem__)
_scripts = st.fixed_dictionaries(
    {tid: st.lists(_op, max_size=10) for tid in TIDS})
_kills = st.lists(st.tuples(st.sampled_from(TIDS),
                            st.sampled_from([0.5, 2.0, 4.0, 12.0])),
                  max_size=2)
_config = st.fixed_dictionaries({
    "escalate_after": st.sampled_from([0, 2, 3]),
    "detection": st.sampled_from(["timeout", "waits-for"]),
})


def _snapshot(locks):
    """Everything the manager exposes or keeps, in iteration order."""
    return (
        [(key, list(entry.granted.items()),
          [(r.tid, r.mode, r.upgrade) for r in entry.queue])
         for key, entry in locks._table.items()],
        {tid: sorted(keys) for tid, keys in locks._held_by.items()},
        dict(locks._waiting),
        copy.deepcopy((locks._fine, locks._covered, locks._esc_failed)),
        {tid: sorted(objs) for tid, objs in locks._objects_held.items()},
        {key: sorted(tids) for key, tids in locks._history.items()},
        {s: getattr(locks.stats, s) for s in type(locks.stats).__slots__},
    )


class _LockLog(Probe):
    def __init__(self, log):
        self.log = log

    def lock(self, *event):
        self.log.append(("observe",) + event)


def _run(cls, config, scripts, kills):
    sim = Simulator()
    locks = cls(sim, timeout_ms=20.0, track_history=True, **config)
    log = []
    locks.probes = (_LockLog(log),)

    def record(*entry):
        log.append((sim.now,) + entry)
        log.append(_snapshot(locks))

    def step(tid, op):
        kind = op[0]
        if kind == "delay":
            yield Delay(op[1])
        elif kind == "try":
            return locks.try_acquire(tid, KEYS[op[1]], op[2])
        elif kind == "acquire":
            yield from locks.acquire(tid, KEYS[op[1]], op[2], op[3])
        elif kind == "release":
            locks.release(tid, KEYS[op[1]])
        elif kind == "holds":
            return locks.holds(tid, KEYS[op[1]], op[2])
        else:
            released = sorted(locks.release_all(tid), key=repr)
            if kind == "finish":
                locks.transaction_finished(tid)
            return released

    def thread(tid, script):
        for op in script:
            try:
                result = yield from step(tid, op)
            except (LockTimeoutError, KeyError) as exc:
                result = type(exc).__name__  # DeadlockError included
            record(tid, op, result)

    procs = {tid: sim.spawn(thread(tid, scripts[tid]), name=f"t{tid}")
             for tid in TIDS}

    def reaper():
        # A chaos kill, then what the engine does with the orphan.
        clock = 0.0
        for tid, at in sorted(kills, key=lambda kill: kill[1]):
            yield Delay(at - clock)
            clock = at
            procs[tid].kill()
            record(tid, "killed", sorted(locks.release_all(tid), key=repr))
            locks.transaction_finished(tid)

    sim.spawn(reaper(), name="reaper")
    sim.run()
    record(None, "end", None)
    return log


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_config, scripts=_scripts, kills=_kills)
def test_planting_pass_matches_the_layered_path(config, scripts, kills):
    new = _run(HierarchicalLockManager, config, scripts, kills)
    legacy = _run(LegacyHierarchicalLockManager, config, scripts, kills)
    assert new == legacy


def test_parity_streams_reach_the_interesting_paths():
    # Non-vacuity: a stream that escalates, is refused an escalation,
    # de-escalates, waits and times out, under both managers alike.
    scripts = {
        # Page 0: t2's IX intent refuses t1's escalation, twice.
        1: [("delay", 1.0), ("try", 0, S), ("try", 1, S), ("try", 2, S),
            # Page 1: de-escalates t3, then waits for t3's S and times out.
            ("acquire", 4, X, 5.0), ("finish",)],
        2: [("try", 3, X), ("delay", 20.0), ("finish",)],
        3: [("try", 4, S), ("try", 6, S), ("delay", 30.0),
            ("release_all",)],
        4: [("delay", 2.0), ("acquire", 5, X, 5.0), ("finish",)],
    }
    config = dict(escalate_after=2, detection="timeout")
    new = _run(HierarchicalLockManager, config, scripts, [])
    assert new == _run(LegacyHierarchicalLockManager, config, scripts, [])
    stats = new[-1][-1]
    assert stats["escalations"] and stats["escalation_failures"]
    assert stats["deescalations"] and stats["waits"] and stats["timeouts"]


def test_a_wait_on_the_partition_can_weaken_the_page_holding():
    # t1 holds an escalated page lock (SIX, after a direct IX request) but,
    # having released its partition intent directly, queues for IX there
    # behind t2.  Meanwhile t3 de-escalates t1's page to IS.  Once granted
    # the partition, t1 must upgrade the page it holds *now*, not the SIX
    # it read before waiting.
    scripts = {
        1: [("try", 0, S), ("try", 1, S), ("try", 24, IX),
            ("release", 30), ("delay", 1.0), ("acquire", 2, X, None)],
        2: [("delay", 0.5), ("acquire", 30, X, None), ("delay", 1.0),
            ("finish",)],
        3: [("try", 4, X), ("delay", 2.0), ("try", 3, X), ("delay", 5.0),
            ("finish",)],
        4: [],
    }
    config = dict(escalate_after=2, detection="timeout")
    new = _run(HierarchicalLockManager, config, scripts, [])
    assert new == _run(LegacyHierarchicalLockManager, config, scripts, [])
    assert new[-1][-1]["deescalations"] == 1
    assert ("observe", "grant", 1, PageGranule(1, 0), IX) in new
