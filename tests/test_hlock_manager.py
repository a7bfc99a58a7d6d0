"""Unit tests for the hierarchical lock manager (repro.hlock).

Pure simulator-level tests: intention planting, coverage, escalation
(page and partition), refusal over conflicting co-holders,
de-escalation on conflict, release ordering, the hierarchy-consistency
introspection the explorer's oracle uses, and deadlock cycles that pass
through ancestor granules.
"""

import pytest

from repro.concurrency import (DeadlockError, LockManager, LockMode,
                               LockTimeoutError)
from repro.hlock import (HierarchicalLockManager, PageGranule,
                         PartitionGranule, descendant_of)
from repro.sim import Delay, Simulator
from repro.storage.oid import Oid

P1 = PartitionGranule(1)
PAGE0 = PageGranule(1, 0)
PAGE1 = PageGranule(1, 1)


def oid(page, slot, partition=1):
    return Oid(partition, page, slot)


def manager(sim, **kwargs):
    kwargs.setdefault("timeout_ms", 1000.0)
    return HierarchicalLockManager(sim, **kwargs)


def run(sim, gen):
    done = {}

    def proc():
        done["result"] = yield from gen
    sim.spawn(proc())
    sim.run()
    return done.get("result")


# -- intention planting -------------------------------------------------------


def test_object_lock_plants_intents_root_first():
    sim = Simulator()
    locks = manager(sim)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.holds(1, P1, LockMode.IS)
    assert locks.holds(1, PAGE0, LockMode.IS)
    assert locks.holds(1, oid(0, 0), LockMode.S)

    assert locks.try_acquire(2, oid(0, 1), LockMode.X)
    assert locks.holds(2, P1, LockMode.IX)
    assert locks.holds(2, PAGE0, LockMode.IX)
    # IS and IX coexist on the shared ancestors.
    assert locks.holds(1, PAGE0, LockMode.IS)


def test_non_object_keys_bypass_the_hierarchy():
    sim = Simulator()
    locks = manager(sim)
    assert locks.try_acquire(1, "latch", LockMode.X)
    assert locks.holds(1, "latch", LockMode.X)
    assert len(locks._table) == 1


def test_conflicting_object_locks_still_conflict():
    sim = Simulator()
    locks = manager(sim)
    assert locks.try_acquire(1, oid(0, 0), LockMode.X)
    assert not locks.try_acquire(2, oid(0, 0), LockMode.S)
    # The loser's planted intents must not linger as phantom locks once
    # it gives up and releases.
    locks.release_all(2)
    assert not locks.holds(2, PAGE0)
    locks.release_all(1)
    assert locks._table == {}


def test_release_all_clears_granules_and_mirror():
    sim = Simulator()
    locks = manager(sim)
    for slot in range(3):
        assert locks.try_acquire(1, oid(0, slot), LockMode.S)
    assert locks.object_lock_count(1) == 3
    released = locks.release_all(1)
    assert {k for k in released if isinstance(k, Oid)} == {
        oid(0, 0), oid(0, 1), oid(0, 2)}
    assert locks._table == {}
    assert locks.object_lock_count(1) == 0


# -- escalation ---------------------------------------------------------------


def test_escalation_collapses_fine_locks_to_a_page_lock():
    sim = Simulator()
    locks = manager(sim, escalate_after=3)
    for slot in range(3):
        assert locks.try_acquire(1, oid(0, slot), LockMode.S)
    assert locks.stats.escalations == 1
    assert locks._table[PAGE0].granted[1] is LockMode.S
    # The fine entries are gone from the table ...
    for slot in range(3):
        assert oid(0, slot) not in locks._table
        # ... but the transaction still (logically) holds them.
        assert locks.holds(1, oid(0, slot), LockMode.S)
    # Further reads on the page are covered: no new table entries.
    size = len(locks._table)
    assert locks.try_acquire(1, oid(0, 3), LockMode.S)
    assert len(locks._table) == size


def test_escalation_mode_follows_the_fine_modes():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    assert locks.try_acquire(1, oid(0, 0), LockMode.X)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    # One X among the fines: the page lock must be X.
    assert locks._table[PAGE0].granted[1] is LockMode.X
    assert locks.holds(1, oid(0, 0), LockMode.X)
    assert locks.holds(1, oid(0, 2), LockMode.X)  # covered by page X


def test_escalated_s_page_upgrades_to_six_for_a_fine_x():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    assert locks._table[PAGE0].granted[1] is LockMode.S
    # A later X below the escalated S page needs an IX intent: S + IX
    # combine to the classic SIX.
    assert locks.try_acquire(1, oid(0, 2), LockMode.X)
    assert locks._table[PAGE0].granted[1] is LockMode.SIX
    assert locks.holds(1, oid(0, 2), LockMode.X)


def test_escalation_refused_over_a_conflicting_co_holder():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    # t2's X on the same page plants an IX intent, which is incompatible
    # with the S page lock t1's escalation wants.
    assert locks.try_acquire(2, oid(0, 9), LockMode.X)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    assert locks.stats.escalations == 0
    assert locks.stats.escalation_failures == 1
    # The fine locks stay fine; nothing was promoted.
    assert locks._table[PAGE0].granted[1] is LockMode.IS
    assert oid(0, 0) in locks._table and oid(0, 1) in locks._table


def test_partition_escalation_collapses_everything_below():
    sim = Simulator()
    locks = manager(sim, partition_escalate_after=4)
    for page in (0, 1):
        for slot in range(2):
            assert locks.try_acquire(1, oid(page, slot), LockMode.S)
    assert locks.stats.escalations == 1
    assert locks._table[P1].granted[1] is LockMode.S
    # Fine locks, page intents and all: only the partition lock remains.
    assert [k for k in locks._table if k != P1] == []
    assert locks.holds(1, oid(0, 0), LockMode.S)
    assert locks.holds(1, oid(1, 5), LockMode.S)  # covered


def test_escalation_disabled_by_default():
    sim = Simulator()
    locks = manager(sim)
    for slot in range(10):
        assert locks.try_acquire(1, oid(0, slot), LockMode.S)
    assert locks.stats.escalations == 0
    assert all(oid(0, slot) in locks._table for slot in range(10))


# -- de-escalation ------------------------------------------------------------


def test_conflicting_request_deescalates_the_holder():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    assert locks._table[PAGE0].granted[1] is LockMode.S

    # t2 wants X on a *different* object of the page: the escalated S
    # page lock is the only conflict, so the manager de-escalates t1
    # instead of blocking t2.
    assert locks.try_acquire(2, oid(0, 5), LockMode.X)
    assert locks.stats.deescalations == 1
    # t1's fine locks are back, the page demoted to the surviving intent.
    assert locks._table[oid(0, 0)].granted[1] is LockMode.S
    assert locks._table[oid(0, 1)].granted[1] is LockMode.S
    assert locks._table[PAGE0].granted[1] is LockMode.IS
    assert locks._table[PAGE0].granted[2] is LockMode.IX


def test_deescalation_preserves_fine_conflicts():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    # t2 wants X on an object t1 *did* scan: de-escalation re-grants
    # t1's fine S lock, and t2 must now wait for it like under the flat
    # manager.
    assert not locks.try_acquire(2, oid(0, 1), LockMode.X)
    log = []

    def writer():
        yield from locks.acquire(2, oid(0, 1), LockMode.X)
        log.append(("granted", sim.now))
        locks.release_all(2)

    def reader_release():
        yield Delay(100)
        locks.release_all(1)

    sim.spawn(writer())
    sim.spawn(reader_release())
    sim.run()
    assert log == [("granted", 100.0)]


def test_deescalation_can_be_disabled():
    sim = Simulator()
    locks = manager(sim, escalate_after=2, deescalate_on_conflict=False)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)
    assert not locks.try_acquire(2, oid(0, 5), LockMode.X)
    assert locks.stats.deescalations == 0
    assert locks._table[PAGE0].granted[1] is LockMode.S


# -- deadlock through ancestor granules ---------------------------------------


def test_deadlock_cycle_through_a_page_granule_is_detected():
    sim = Simulator()
    locks = manager(sim, timeout_ms=10_000.0, detection="waits-for",
                    escalate_after=2, deescalate_on_conflict=False)
    log = []

    # t2 escalates page 1 (two S locks), then goes for t1's object on
    # page 0.  t1 holds an object on page 0 and goes for page 1: its IX
    # intent waits on t2's escalated S page lock — a wait edge through a
    # *granule* — and t2's request closes the cycle.
    def t1():
        yield from locks.acquire(1, oid(0, 0), LockMode.X)
        log.append(("t1-holds", sim.now))
        yield Delay(10)
        try:
            yield from locks.acquire(1, oid(1, 0), LockMode.X)
        except DeadlockError:
            log.append(("t1-deadlock", sim.now))
        finally:
            locks.release_all(1)

    def t2():
        yield from locks.acquire(2, oid(1, 1), LockMode.S)
        yield from locks.acquire(2, oid(1, 2), LockMode.S)
        log.append(("t2-escalated", locks.stats.escalations))
        yield Delay(20)
        try:
            yield from locks.acquire(2, oid(0, 0), LockMode.S)
        except DeadlockError as exc:
            log.append(("t2-deadlock", sim.now))
            # The cycle the detector reports passes through both txns.
            assert set(exc.cycle) >= {1, 2}
        finally:
            locks.release_all(2)

    sim.spawn(t1(), name="t1")
    sim.spawn(t2(), name="t2")
    sim.run()
    assert ("t2-escalated", 1) in log
    # Exactly one victim — the requester that closed the cycle.
    assert ("t2-deadlock", 20.0) in log
    assert ("t1-deadlock", 20.0) not in log


def test_granule_wait_times_out_like_any_other():
    sim = Simulator()
    locks = manager(sim, timeout_ms=50.0, escalate_after=2,
                    deescalate_on_conflict=False)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(1, oid(0, 1), LockMode.S)  # escalates
    log = []

    def blocked():
        try:
            yield from locks.acquire(2, oid(0, 5), LockMode.X)
        except LockTimeoutError:
            log.append(("timeout", sim.now))
            locks.release_all(2)

    sim.spawn(blocked())
    sim.run()
    assert log == [("timeout", 50.0)]


# -- introspection ------------------------------------------------------------


def test_grant_problems_empty_for_sound_state():
    sim = Simulator()
    locks = manager(sim, escalate_after=2)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(2, oid(0, 1), LockMode.X)
    for tid in (1, 2):
        assert locks.missing_ancestor_intents(tid) == []


def test_missing_ancestor_intent_is_reported():
    sim = Simulator()
    locks = manager(sim)
    assert locks.try_acquire(1, oid(0, 0), LockMode.X)
    # Break the invariant from outside: strip the page intent.
    del locks._table[PAGE0].granted[1]
    problems = locks.missing_ancestor_intents(1)
    assert len(problems) == 1
    assert "without IX on page:1:0" in problems[0]


def test_unsound_escalation_is_reported():
    sim = Simulator()
    locks = manager(sim)
    assert locks.try_acquire(1, oid(0, 0), LockMode.S)
    assert locks.try_acquire(2, oid(0, 1), LockMode.S)
    # Force what the planted escalate-over-conflict bug produces: an X
    # page grant over another transaction's live descendant lock.
    locks._table[PAGE0].granted[1] = LockMode.X
    problems = locks.grant_problems(1, PAGE0, LockMode.X)
    assert any("conflicting S" in p for p in problems)
    assert any("incompatible IS" in p for p in problems)


def test_counters_summary_shapes():
    sim = Simulator()
    hier = manager(sim, escalate_after=2)
    assert hier.try_acquire(1, oid(0, 0), LockMode.S)
    summary = hier.counters_summary()
    assert summary["manager"] == "hier"
    assert summary["acquires"] >= 1
    assert "escalation_failures" in summary

    # Both managers always report, under the same keys.
    flat = LockManager(sim).counters_summary()
    assert flat["manager"] == "flat"
    assert set(flat) == set(summary) - {"escalation_failures"}


def test_descendant_of_geometry():
    assert descendant_of(oid(0, 3), PAGE0)
    assert descendant_of(oid(0, 3), P1)
    assert descendant_of(PAGE0, P1)
    assert not descendant_of(oid(1, 0), PAGE0)
    assert not descendant_of(P1, PAGE0)
    assert not descendant_of(oid(0, 0, partition=2), P1)
    assert not descendant_of("latch", P1)
