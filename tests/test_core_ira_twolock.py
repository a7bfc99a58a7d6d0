"""Tests for the two-lock extension (§4.2)."""

import pytest

from repro import (
    CompactionPlan,
    Database,
    EvacuationPlan,
    LockMode,
    SystemConfig,
    TwoLockReorganizer,
    WorkloadConfig,
)
from repro.core import references_equal
from repro.storage import ObjectImage, Oid
from tests.conftest import OnReorg
from tests.test_core_ira import graph_signature


@pytest.fixture
def db_layout():
    return Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=21))


def test_two_lock_migrates_everything(db_layout):
    db, _ = db_layout
    count = db.partition_stats(1).live_objects
    stats = db.reorganize(1, algorithm="ira-2lock", plan=EvacuationPlan(9))
    assert stats.objects_migrated == count
    assert db.partition_stats(1).live_objects == 0
    assert db.verify_integrity().ok


def test_two_lock_preserves_logical_graph(db_layout):
    db, layout = db_layout
    before = graph_signature(db, layout)
    db.reorganize(1, algorithm="ira-2lock", plan=CompactionPlan())
    assert graph_signature(db, layout) == before
    assert db.verify_integrity().ok


def test_at_most_three_raw_locks_ie_two_distinct_objects(db_layout):
    """§4.2's claim: locks on at most two *distinct objects* at any time —
    the migrating object (old + new address = 2 raw locks) plus one
    parent (1 raw lock)."""
    db, _ = db_layout
    stats = db.reorganize(1, algorithm="ira-2lock", plan=CompactionPlan())
    assert stats.max_locks_held <= 3


def test_two_lock_holds_object_lock_during_migration(db_layout):
    """While an object migrates, both its locations are X-locked: no
    transaction can lock the object being migrated."""
    db, _ = db_layout
    engine = db.engine
    observed = []

    reorg = TwoLockReorganizer(engine, 1, plan=CompactionPlan())
    original = reorg._patch_parents_one_at_a_time

    def spying(anchor, oid, new_oid):
        holders_old = engine.locks.holders(oid)
        holders_new = engine.locks.holders(new_oid)
        observed.append(
            (holders_old.get(anchor.tid), holders_new.get(anchor.tid)))
        return original(anchor, oid, new_oid)
    reorg._patch_parents_one_at_a_time = spying

    db.run(reorg.run(), name="2lock")
    assert observed, "no migrations observed"
    assert all(pair == (LockMode.X, LockMode.X) for pair in observed)


def test_mixed_pointer_comparison_helper():
    old, new, other = Oid(1, 0, 0), Oid(1, 9, 0), Oid(2, 2, 2)
    in_flight = {old: new}
    assert references_equal(old, new, in_flight)
    assert references_equal(new, old, in_flight)
    assert references_equal(old, old, in_flight)
    assert not references_equal(old, other, in_flight)
    assert not references_equal(other, new, {})


def test_two_lock_with_short_duration_locks(db_layout):
    """§4.2 + §4.1: the extension composes with non-strict transactions."""
    wl = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                        mpl=2, seed=21)
    db, layout = Database.with_workload(
        wl, system=SystemConfig(strict_transactions=False))
    before = graph_signature(db, layout)
    stats = db.reorganize(1, algorithm="ira-2lock", plan=CompactionPlan())
    assert stats.objects_migrated == 170
    assert graph_signature(db, layout) == before
    assert db.verify_integrity().ok


def test_two_lock_parent_patch_batching(db_layout):
    from repro import ReorgConfig
    db, layout = db_layout
    before = graph_signature(db, layout)
    stats = db.reorganize(1, algorithm="ira-2lock", plan=CompactionPlan(),
                          reorg_config=ReorgConfig(migration_batch_size=4))
    assert stats.objects_migrated == 170
    assert graph_signature(db, layout) == before
    assert db.verify_integrity().ok


def test_two_lock_self_reference():
    db = Database()
    db.create_partition(1)
    db.create_partition(2)

    def build():
        txn = db.engine.txns.begin(system=True)
        oid = yield from txn.create_object(
            1, ObjectImage.new(2, payload=b"self"))
        yield from txn.insert_ref(oid, oid)
        yield from txn.create_object(2, ObjectImage.new(1, refs=[oid]))
        yield from txn.commit()
        return oid
    oid = db.run(build())

    stats = db.reorganize(1, algorithm="ira-2lock", plan=EvacuationPlan(3))
    new = stats.mapping[oid]
    assert db.store.read_object(new).children() == [new]
    assert db.verify_integrity().ok


def test_reconciled_copy_image_merges_both_sides():
    """Regression: a copy reused after a deadlock abort or a crash must be
    refreshed with the updates committed through *either* address while
    the migration's locks were released, or those updates are lost."""
    from repro.core.ira_twolock import reconciled_copy_image

    db, _ = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=21))
    engine = db.engine
    old = next(iter(engine.store.partition(1).live_oids()))

    def setup_self_ref():
        txn = engine.txns.begin(system=True)
        yield from txn.insert_ref(old, old)
        yield from txn.commit()
    db.run(setup_self_ref())

    def make_copy():
        txn = engine.txns.begin(system=True, reorg_partition=1)
        image = engine.store.read_object(old)
        new_oid = yield from txn.create_object(1, image, fresh_only=True,
                                               cpu_ms=0)
        yield from txn.commit()
        return new_oid
    new = db.run(make_copy())

    # The unlocked window: one transaction commits a poke to the old
    # location, another to the copy (reachable once a parent had been
    # patched to the new address).
    def poke(oid, offset, data):
        txn = engine.txns.begin()
        yield from txn.write_payload(oid, offset, data)
        yield from txn.commit()
    db.run(poke(old, 0, b"OLD!"))
    db.run(poke(new, 8, b"NEW!"))

    merged = reconciled_copy_image(engine, 1, old, new)
    want = bytearray(engine.store.read_object(old).payload)
    want[8:12] = b"NEW!"
    assert merged.payload == bytes(want)
    # The self-reference is translated to the new address.
    self_slot = engine.store.read_object(old).slots_referencing(old)[0]
    assert merged.get_ref(self_slot) == new
    # The stale copy differs in both regards: reusing it as-is would
    # lose the old-side poke.
    assert engine.store.read_object(new) != merged


def test_back_to_back_deadlocks_reuse_the_committed_copy():
    """Two consecutive reorganizer lock timeouts on one object: the first
    on a parent lock after the copy committed, the second on the retry's
    re-lock of the old address — before the retry re-registers the
    in-flight pair.  The third attempt must reuse the committed copy; a
    second copy would strand the first with stale child references."""
    db, _ = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=85,
                       mpl=1, seed=21))
    locks = db.engine.locks
    live_before = db.partition_stats(1).live_objects
    reorg = TwoLockReorganizer(db.engine, 1, plan=CompactionPlan())
    reader = -1         # a lock holder outside the transaction table
    pinned = {}         # what the reader holds: "parent", then "victim"
    forced = []

    def probe(event, info):
        if event == "in_flight" and not pinned:
            # The copy is committed and both addresses are locked: pin
            # one of the parents the reorganizer is about to patch.
            parent = next(p for p in reorg._parents[info["oid"]]
                          if p not in (info["oid"], info["new_oid"]))
            assert locks.try_acquire(reader, parent, LockMode.S)
            pinned.update(parent=parent, victim=info["oid"])
        elif event == "lock" and info["target"] == pinned.get("victim"):
            # An attempt (re)starts by locking the old address: block the
            # first retry there, let the second through.
            locks.release_all(reader)
            if len(forced) == 1:
                assert locks.try_acquire(reader, info["target"], LockMode.S)

    def force_timeout(tid, key, mode):
        expected = pinned["parent"] if not forced else pinned["victim"]
        if len(forced) < 2 and key == expected:
            forced.append(key)
            return True
        return False

    db.engine.subscribe(OnReorg(probe))
    locks.fault_hook = force_timeout
    stats = db.run(reorg.run(), name="reorg")

    assert forced == [pinned["parent"], pinned["victim"]]
    assert stats.deadlock_retries == 2
    assert db.partition_stats(1).live_objects == live_before
    assert db.verify_integrity().ok


def test_seed_4_two_lock_run_survives_its_deadlocks():
    """Regression: the retry budget and the backoff index counted the
    *run's* deadlock losses, not one object's, so this run died with
    ``1:6:36: exceeded 50 deadlock retries`` after 50 losses spread over
    340 migrations (and slept 0.5-1 s per retry from the eighth on)."""
    from repro.bench import Arm
    from repro.bench.harness import run_arm

    point = run_arm(Arm("ira-2lock", "ira-2lock"),
                    WorkloadConfig(num_partitions=3,
                                   objects_per_partition=340,
                                   mpl=30, seed=4))     # verifies integrity
    stats = point.metrics.reorg_stats
    assert stats.objects_migrated == 340
    assert 0 < stats.deadlock_retries < 50


def _two_lock_run_losing(losses, reorg_config=None):
    """Run a two-lock reorganization in which the migration of the
    ``i``-th object in migration order loses ``losses[i]`` deadlocks in a
    row: a lock holder outside the transaction table pins the object's
    old address, and each blocked re-lock is timed out on the spot."""
    db, _ = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=85,
                       mpl=1, seed=21))
    locks = db.engine.locks
    reorg = TwoLockReorganizer(db.engine, 1, plan=CompactionPlan(),
                               reorg_config=reorg_config)
    reader = -1
    remaining = {}
    migrate_one = reorg._migrate_one

    def pinning(oid, resumed_new_oid=None, attempt=0):
        if oid not in remaining:
            remaining[oid] = losses.get(len(remaining), 0)
        locks.release_all(reader)
        if remaining[oid]:
            assert locks.try_acquire(reader, oid, LockMode.S)
        return migrate_one(oid, resumed_new_oid, attempt)

    def force_timeout(tid, key, mode):
        if remaining.get(key):
            remaining[key] -= 1
            return True
        return False

    reorg._migrate_one = pinning
    locks.fault_hook = force_timeout
    return db, db.run(reorg.run(), name="reorg")


def test_deadlock_budget_and_backoff_restart_with_each_object():
    from repro import ReorgConfig
    from repro.config import RetryPolicy

    # 60 losses in all, more than the budget of 50, ten per object; no
    # jitter, so the sleeps are the policy's own 8, 16, ... capped at 1 s.
    policy = RetryPolicy.exponential(8.0, max_ms=1000.0, max_retries=50)
    db, stats = _two_lock_run_losing(
        {index: 10 for index in range(0, 60, 10)},
        ReorgConfig(deadlock_retry=policy))
    assert stats.deadlock_retries == 60
    assert stats.objects_migrated == 85
    assert stats.backoff_ms_total == 6 * sum(
        policy.delay_ms(attempt) for attempt in range(10))
    assert db.verify_integrity().ok


def test_deadlock_budget_is_spent_by_one_object_losing_in_a_row():
    from repro import ReorganizationError

    _, stats = _two_lock_run_losing({3: 50})
    assert stats.deadlock_retries == 50
    with pytest.raises(ReorganizationError,
                       match="exceeded 50 deadlock retries"):
        _two_lock_run_losing({3: 51})
