"""Property-style checks of the MVCC tier under schedule perturbation.

The DES kernel makes every interleaving a pure function of its
schedule, so ``RandomWalkPolicy`` seeds *are* the property-test cases:
each seed permutes and defers same-timestamp events differently, and
every resulting history must satisfy snapshot isolation.  The direct
tests then pin the three load-bearing invariants individually:
commit timestamps are strictly monotone, GC never reclaims a version a
live snapshot could still see, and a merge relocation is invisible in
the reachability-graph signature.
"""

import random

import pytest

from repro.core import CompactionPlan
from repro.errors import WriteConflictError
from repro.explore import run_schedule
from repro.explore.scheduler import RandomWalkPolicy, TracingPolicy
from repro.mvcc import MergeReorganizer, begin_snapshot_txn, mvcc_random_walk
from repro.sim import Delay

HORIZON_MS = 600_000.0


# -- explored interleavings ---------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7, 23, 52, 97])
def test_random_walk_schedules_satisfy_snapshot_isolation(seed):
    result = run_schedule(RandomWalkPolicy(seed), algorithm="mvcc",
                          horizon_ms=HORIZON_MS)
    assert result.ok, result.failing()
    assert result.committed > 0


def test_fifo_schedule_judged_by_the_mvcc_verdict_suite():
    result = run_schedule(TracingPolicy(), algorithm="mvcc",
                          horizon_ms=HORIZON_MS)
    assert result.ok, result.failing()
    names = [verdict.name for verdict in result.verdicts]
    assert names == ["snapshot_isolation", "mvcc_integrity", "no_crash"]


# -- direct invariants --------------------------------------------------------

def _concurrent_run(db, layout, tier, *, seed, walks_per_thread=3,
                    threads=4, reorganize=True):
    """Race ``threads`` snapshot-walk processes against one merge."""
    engine = db.engine
    workload = layout.config

    def thread(thread_id):
        rng = random.Random(f"{seed}/t{thread_id}")
        home = 1 + thread_id % workload.num_partitions
        for _ in range(walks_per_thread):
            txn_seed = rng.getrandbits(48)
            while True:
                try:
                    yield from mvcc_random_walk(
                        engine, layout, workload,
                        random.Random(txn_seed), home)
                    break
                except WriteConflictError:
                    yield Delay(rng.uniform(1.0, 10.0))

    for thread_id in range(threads):
        engine.sim.spawn(thread(thread_id), name=f"walker-{thread_id}")
    if reorganize:
        reorg = MergeReorganizer(engine, 1, plan=CompactionPlan())
        engine.sim.spawn(reorg.run(), name="merge")
    engine.sim.run()


def test_commit_timestamps_strictly_monotone(build_mvcc_db):
    db, layout, tier, recorded = build_mvcc_db()
    _concurrent_run(db, layout, tier, seed=3)
    ts_seq = [ts for ts, _ in recorded.commit_log]
    assert ts_seq, "no commits happened"
    assert ts_seq == sorted(set(ts_seq))
    assert tier.verify() == []


def test_gc_never_reclaims_a_visible_version(build_mvcc_db):
    db, layout, tier, recorded = build_mvcc_db()
    engine = db.engine
    # Pin a snapshot at the attach-time state, then update and merge
    # underneath it: nothing the pinned snapshot can see may be pruned.
    pinned = tier.begin_snapshot()
    target = sorted(tier.logical_ids)[0]
    before, before_ts = engine.sim.run_process(tier.read(target, pinned))

    _concurrent_run(db, layout, tier, seed=9)
    engine.sim.run_process(tier.sweep_frees())

    for loid, pruned_ts, successor_ts, watermark in recorded.gc_log:
        assert successor_ts <= watermark, (
            f"{loid}: version {pruned_ts} pruned while its successor "
            f"{successor_ts} was above the watermark {watermark}")
    # The pinned snapshot still reads its original version, byte-equal.
    after, after_ts = engine.sim.run_process(tier.read(target, pinned))
    assert (after.payload, after_ts) == (before.payload, before_ts)
    tier.end_snapshot(pinned)
    assert tier.verify() == []


def test_merge_preserves_reachability_signature(build_mvcc_db):
    db, layout, tier, _ = build_mvcc_db()
    engine = db.engine
    _concurrent_run(db, layout, tier, seed=17, reorganize=False)
    signature = tier.signature()
    in_partition = [loid for loid in tier.logical_ids
                    if tier.resolve_physical(loid).partition == 1]

    reorg = MergeReorganizer(engine, 1, plan=CompactionPlan())
    stats = engine.sim.run_process(reorg.run(), name="merge")
    assert stats.objects_migrated > 0

    assert tier.signature() == signature
    moved = [loid for loid in in_partition
             if tier.resolve_physical(loid) != loid]
    assert moved, "merge relocated nothing"
    assert tier.verify() == []
    assert engine.verify_integrity().ok


def test_killed_merge_releases_its_cut_snapshot(build_mvcc_db):
    """A kill used to surface as ``AttributeError`` from the failure
    path (``Transaction`` has no ``active``), masking it and leaving the
    cut registered — the GC watermark pinned for good.

    The killed merge does not yield again, so its system transaction is
    left active on purpose, holding its X locks and the partial
    ``fresh_only`` copies; restart recovery or a takeover's abort reaps
    it, exactly as for a killed IRA worker."""
    from repro.sim import ProcessKilled

    db, _, tier, _ = build_mvcc_db()
    engine = db.engine
    merge = engine.sim.spawn(
        MergeReorganizer(engine, 1, plan=CompactionPlan()).run(),
        name="merge")
    engine.sim.call_later(50.0, merge.kill)
    engine.sim.run()
    assert isinstance(merge.done.exception, ProcessKilled)
    assert tier._active == {}
    assert tier.watermark() == tier.last_commit_ts
    assert tier.verify() == []
    assert engine.verify_integrity().ok

    [tid] = engine.txns.active_tids()
    leftover = engine.txns.transaction(tid)
    assert leftover.system and engine.locks.held_keys(tid)
    db.run(leftover.abort(reason="takeover"), name="reap")
    assert engine.txns.active_tids() == set()
    assert not engine.locks.held_keys(tid)
    assert engine.verify_integrity().ok
    assert tier.verify() == []


def test_first_committer_wins_on_overlapping_writes(build_mvcc_db):
    db, _, tier, _ = build_mvcc_db()
    engine = db.engine
    target = sorted(tier.logical_ids)[0]

    def overlapping():
        first = begin_snapshot_txn(engine)
        second = begin_snapshot_txn(engine)
        yield from first.read(target, for_update=True)
        yield from second.read(target, for_update=True)
        yield from first.write_payload(target, 0, b"AAAA")
        yield from second.write_payload(target, 0, b"BBBB")
        yield from first.commit()
        try:
            yield from second.commit()
        except WriteConflictError:
            return True
        return False

    assert engine.sim.run_process(overlapping(), name="fcw")
    image, _ = engine.sim.run_process(
        tier.read(target, tier.last_commit_ts))
    assert image.payload[:4] == b"AAAA"


# -- epoch GC bookkeeping ------------------------------------------------------

def _grown_by_scan(tier):
    return {loid for loid, chain in tier._chains.items() if len(chain) > 1}


@pytest.mark.parametrize("subscribed", [True, False])
def test_gc_walks_only_grown_chains_and_logs_only_for_the_oracle(
        build_mvcc_db, subscribed):
    from repro.config import MvccConfig

    db, layout, tier, recorded = build_mvcc_db(
        MvccConfig(gc_every_commits=4))
    if not subscribed:
        db.engine.unsubscribe(recorded)
    pinned = tier.begin_snapshot()
    _concurrent_run(db, layout, tier, seed=9)
    # Under the pinned snapshot nothing below a chain's kept entry goes.
    assert set(tier._grown) == _grown_by_scan(tier) != set()
    tier.end_snapshot(pinned)
    remaining = sum(len(chain) - 1 for chain in tier._chains.values())
    before = tier.stats.versions_pruned
    tier.gc_pass()
    assert tier.stats.versions_pruned - before == remaining > 0
    assert set(tier._grown) == _grown_by_scan(tier) == set()
    # The audit trail is oracle food, like the commit log.
    assert len(recorded.gc_log) == \
        (tier.stats.versions_pruned if subscribed else 0)
    assert bool(recorded.commit_log) == subscribed
    assert tier.verify() == []
