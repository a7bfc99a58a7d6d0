"""Failure handling (§4.4): crash during reorg, recovery, resume."""

import pytest

from repro import (
    CompactionPlan,
    Database,
    ExperimentConfig,
    ReorgConfig,
    WorkloadConfig,
)
from repro.core import (
    ReorgStateStore,
    rebuild_trt,
    resume_reorganization,
)
from repro.concurrency import LockTimeoutError
from repro.core.checkpointing import committed_migrations_from_log
from repro.sim import Delay
from repro.storage import ObjectImage
from repro.wal import ClrRecord
from repro.workload import WorkloadDriver
from repro.workload.metrics import ExperimentMetrics


def crash_mid_reorg(algorithm, crash_at_ms, checkpoint_every=20, mpl=4,
                    seed=13):
    """Run workload + reorg, crash at a chosen time; returns everything
    needed to resume."""
    wl = WorkloadConfig(num_partitions=2, objects_per_partition=340,
                        mpl=mpl, seed=seed)
    db, layout = Database.with_workload(wl)
    driver = WorkloadDriver(db.engine, layout, ExperimentConfig(workload=wl))
    state_store = ReorgStateStore()
    reorg = db.reorganizer(
        1, algorithm, plan=CompactionPlan(),
        reorg_config=ReorgConfig(checkpoint_every=checkpoint_every),
        state_store=state_store)
    db.sim.spawn(reorg.run(), name="reorg")
    metrics = ExperimentMetrics("x", wl.mpl)
    for i in range(wl.mpl):
        db.sim.spawn(driver._thread_process(i, metrics), name=f"t{i}")
    db.sim.run(until=crash_at_ms)
    migrated_before = reorg.stats.objects_migrated
    image = db.crash()
    return image, state_store, migrated_before


@pytest.mark.parametrize("algorithm", ["ira", "ira-2lock"])
@pytest.mark.parametrize("crash_at", [2000.0, 9000.0])
def test_crash_recover_resume_completes(algorithm, crash_at):
    image, state_store, migrated_before = crash_mid_reorg(
        algorithm, crash_at)
    db = Database.recover(image)
    assert db.verify_integrity().ok, "recovery left the database broken"

    resumed = resume_reorganization(db.engine, state_store,
                                    plan=CompactionPlan())
    if resumed is None:
        stats = db.reorganize(1, algorithm=algorithm, plan=CompactionPlan())
    else:
        stats = db.run(resumed.run(), name="resumed")
    assert db.verify_integrity().ok
    assert db.partition_stats(1).live_objects == 340
    # Resume did not repeat committed work.
    if resumed is not None and migrated_before:
        assert stats.objects_migrated <= 340 - max(0, migrated_before - 25)


def test_in_flight_migration_undone_by_recovery():
    """§3.5: 'The migration of an object which was in progress at the
    time of failure (if any) will be undone.'"""
    image, _, _ = crash_mid_reorg("ira", crash_at_ms=5000.0)
    db = Database.recover(image)
    report = db.verify_integrity()
    assert report.ok
    # No object exists in two places: payloads are unique at load time and
    # the workload only pokes 4 bytes, so near-duplicates would show up as
    # an object-count surplus.
    assert db.partition_stats(1).live_objects == 340


def test_no_checkpoint_means_fresh_restart():
    image, state_store, _ = crash_mid_reorg("ira", crash_at_ms=500.0,
                                            checkpoint_every=0)
    db = Database.recover(image)
    assert resume_reorganization(db.engine, state_store) is None
    stats = db.reorganize(1, algorithm="ira", plan=CompactionPlan())
    assert stats.objects_migrated == 340
    assert db.verify_integrity().ok


def test_completed_run_clears_checkpoint_store():
    """A finished reorganization tombstones its checkpoints: a later crash
    must not trigger a spurious resume of already-completed work."""
    image, state_store, migrated_before = crash_mid_reorg(
        "ira", crash_at_ms=14000.0)
    assert migrated_before == 340  # the run finished before the crash
    assert state_store.load() is None
    db = Database.recover(image)
    assert resume_reorganization(db.engine, state_store) is None
    assert db.verify_integrity().ok


def test_committed_migrations_recovered_from_log():
    # Crash while migrations are still in flight: a post-completion crash
    # finds a cleared store (run() tombstones it) and nothing to resume.
    image, state_store, migrated_before = crash_mid_reorg(
        "ira", crash_at_ms=5000.0)
    db = Database.recover(image)
    state = state_store.load()
    recovered = committed_migrations_from_log(db.engine, 1, state.log_lsn)
    # Checkpoint every 20: at most 20 migrations can be missing from the
    # state, and the log must account for all of them.
    assert len(state.migrated) + len(recovered) >= migrated_before - 1
    for old, new in recovered.items():
        assert not db.store.exists(old)
        assert db.store.exists(new)


#: (operation, outcome) per round of :func:`_churn`.
CHURN = [("create", "commit"), ("create", "abort"), ("delete", "abort"),
         ("create", "commit"), ("delete", "commit")] * 3


def _churn(db, layout):
    """Create, delete and abort in partition 1 — every way a reference
    into it can appear or vanish besides a plain reference update."""
    root = layout.cluster_roots[1][0]
    mine = []       # committed creations still alive
    for round_no, (operation, outcome) in enumerate(CHURN):
        txn = db.engine.txns.begin()
        try:
            children = yield from txn.read_refs(root)
            if operation == "create":
                oid = yield from txn.create_object(1, ObjectImage.new(
                    2, payload=b"churn-%02d" % round_no, refs=children[:2]))
            else:
                oid = mine[-1]
                txn.local_refs.add(oid)
                yield from txn.delete_object(oid)
            yield Delay(7.0)
            if outcome == "abort":
                yield from txn.abort()
            else:
                yield from txn.commit()
                if operation == "create":
                    mine.append(oid)
                else:
                    mine.pop()
        except LockTimeoutError:
            yield from txn.abort(reason="deadlock")
        yield Delay(40.0)


def test_rebuild_trt_matches_live_trt():
    """The §4.4 replay must agree with the TRT the analyzer maintained
    on-line — tuples and creations — across reference updates, object
    creations and deletions, and aborted transactions (CLRs)."""
    wl = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                        mpl=4, seed=17, ref_update_prob=0.6)
    db, layout = Database.with_workload(wl)
    live_trt = db.engine.activate_trt(1)
    start_lsn = db.engine.log.last_lsn

    driver = WorkloadDriver(db.engine, layout, ExperimentConfig(workload=wl))
    metrics = ExperimentMetrics("x", wl.mpl)
    for i in range(wl.mpl):
        db.sim.spawn(driver._thread_process(i, metrics), name=f"t{i}")
    db.sim.spawn(_churn(db, layout), name="churn")
    db.sim.run(until=3000.0)
    db.sim.kill_all()

    undone = {type(r.decode_action()).__name__
              for r in db.engine.log.records(start_lsn + 1)
              if isinstance(r, ClrRecord)}
    assert {"ObjCreateRecord", "ObjDeleteRecord"} <= undone, \
        "the workload must abort both a deletion and a creation"

    rebuilt = rebuild_trt(db.engine, 1, from_lsn=start_lsn)
    live = {(e.child, e.parent, e.tid, e.action)
            for e in live_trt.entries()}
    again = {(e.child, e.parent, e.tid, e.action)
             for e in rebuilt.entries()}
    assert again == live
    assert live_trt.created_since_activation
    assert rebuilt.created_since_activation == \
        live_trt.created_since_activation


def test_resume_restores_relocation_floor():
    image, state_store, _ = crash_mid_reorg("ira", crash_at_ms=5000.0)
    db = Database.recover(image)
    state = state_store.load()
    resumed = resume_reorganization(db.engine, state_store,
                                    plan=CompactionPlan())
    assert resumed is not None
    part = db.store.partition(1)
    assert part.relocation_floor == state.relocation_floor
    db.run(resumed.run(), name="resumed")
    # Compaction contract: every live object sits on a fresh page.
    assert all(oid.page >= state.relocation_floor
               for oid in part.live_oids())


def test_reorg_state_store_basics():
    store = ReorgStateStore()
    assert store.load() is None
    from repro.core import ReorgState
    state = ReorgState(algorithm="ira", partition_id=1, order=[],
                       parents={}, mapping={}, migrated=set(),
                       allocated_at_traversal=set(), log_lsn=0)
    store.save(state)
    assert store.load() is state
    assert store.saves == 1
    store.clear()
    assert store.load() is None
