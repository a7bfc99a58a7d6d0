"""Tests for on-line garbage collection (§4.6)."""

import pytest

from repro import (CompactionPlan, Database, ReorgConfig,
                   ReorganizationError, WorkloadConfig)
from repro.database import REORGANIZERS
from repro.mvcc import MvccTier
from repro.storage import ObjectImage


@pytest.fixture
def db_layout():
    return Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=41))


def hang_chain(db, layout, partition, length):
    """Attach a chain of scratch objects to a cluster root's spare slot."""
    root = layout.cluster_roots[partition][0]

    def build(txn):
        yield from txn.read(root)
        prev = None
        chain = []
        for i in range(length):
            oid = yield from txn.create_object(
                partition,
                ObjectImage.new(2, payload=b"scratch%03d" % i,
                                refs=[prev] if prev else []))
            chain.append(oid)
            prev = oid
        yield from txn.insert_ref(root, prev)
        return root, chain
    return db.execute(build)


def cut_chain(db, root, head):
    def cut(txn):
        yield from txn.read(root)
        yield from txn.delete_ref(root, head)
    db.execute(cut)


class TestMarkAndSweep:
    def test_reclaims_exactly_the_garbage(self, db_layout):
        db, layout = db_layout
        root, chain = hang_chain(db, layout, 1, 12)
        cut_chain(db, root, chain[-1])
        before = db.partition_stats(1).live_bytes
        stats = db.collect_garbage(1, method="mark-sweep")
        assert stats.garbage_collected == 12
        assert stats.objects_found == 170
        assert stats.objects_migrated == 0
        assert db.partition_stats(1).live_bytes < before
        assert db.partition_stats(1).live_objects == 170
        assert db.verify_integrity().ok

    def test_no_garbage_reclaims_nothing(self, db_layout):
        db, _ = db_layout
        stats = db.collect_garbage(1, method="mark-sweep")
        assert stats.garbage_collected == 0
        assert stats.objects_found == 170

    def test_live_chain_not_collected(self, db_layout):
        db, layout = db_layout
        root, chain = hang_chain(db, layout, 1, 6)
        # Do NOT cut it — still reachable.
        stats = db.collect_garbage(1, method="mark-sweep")
        assert stats.garbage_collected == 0
        for oid in chain:
            assert db.store.exists(oid)

    def test_objects_do_not_move(self, db_layout):
        db, layout = db_layout
        before = set(db.store.live_oids(1))
        db.collect_garbage(1, method="mark-sweep")
        assert set(db.store.live_oids(1)) == before


class TestCopyingCollector:
    def test_evacuates_live_and_drops_garbage(self, db_layout):
        db, layout = db_layout
        root, chain = hang_chain(db, layout, 1, 9)
        cut_chain(db, root, chain[-1])
        stats = db.collect_garbage(1, method="copying", target_partition=7)
        assert stats.garbage_collected == 9
        assert stats.objects_migrated == 170
        assert db.partition_stats(1).live_objects == 0
        assert db.partition_stats(7).live_objects == 170
        assert db.verify_integrity().ok

    def test_reclaims_whole_source_region(self, db_layout):
        db, _ = db_layout
        before = db.partition_stats(1).capacity_bytes
        db.collect_garbage(1, method="copying", target_partition=7)
        assert db.store.partition(1).page_count == 0
        assert db.partition_stats(1).capacity_bytes < before

    def test_mapping_available(self, db_layout):
        db, _ = db_layout
        stats = db.collect_garbage(1, method="copying", target_partition=7)
        assert len(stats.mapping) == 170
        assert all(new.partition == 7 for new in stats.mapping.values())


@pytest.mark.parametrize("algorithm", sorted(REORGANIZERS))
def test_collect_garbage_collects_or_refuses(db_layout, algorithm):
    """IRA and two-lock IRA collect the cut chain; the footprints that
    cannot collect refuse before the run starts: no start time, no TRT,
    no transaction (so no lock), nothing logged."""
    db, layout = db_layout
    root, chain = hang_chain(db, layout, 1, 9)
    cut_chain(db, root, chain[-1])
    if algorithm == "mvcc-merge":
        MvccTier.attach(db.engine)
    reorganizer = db.reorganizer(
        1, algorithm, plan=CompactionPlan(),
        reorg_config=ReorgConfig(collect_garbage=True))
    if algorithm in ("ira", "ira-2lock"):
        stats = db.run(reorganizer.run())
        assert stats.garbage_collected == 9
        assert db.partition_stats(1).live_objects == 170
        assert db.verify_integrity().ok
        return
    log_end = db.engine.log.last_lsn
    begun = db.engine.txns.started
    with pytest.raises(ReorganizationError, match="cannot collect garbage"):
        db.run(reorganizer.run())
    assert reorganizer.stats.started_ms == 0.0
    assert reorganizer.trt is None
    assert db.engine.txns.started == begun
    assert db.engine.log.last_lsn == log_end
    assert db.partition_stats(1).live_objects == 179


def test_merge_reports_no_garbage(db_layout):
    """The merge frees the superseded bases — relocation sources, not
    unreachable objects — so it collects nothing."""
    db, layout = db_layout
    root, chain = hang_chain(db, layout, 1, 9)
    cut_chain(db, root, chain[-1])
    MvccTier.attach(db.engine)
    stats = db.reorganize(1, algorithm="mvcc-merge")
    assert stats.objects_migrated == 179
    assert stats.garbage_collected == 0
    assert db.partition_stats(1).live_objects == 179


def test_unknown_gc_method_rejected(db_layout):
    db, _ = db_layout
    with pytest.raises(ValueError):
        db.collect_garbage(1, method="nope")


def test_gc_under_concurrent_load(db_layout):
    db, layout = db_layout
    root, chain = hang_chain(db, layout, 1, 10)
    cut_chain(db, root, chain[-1])

    from repro import ExperimentConfig
    from repro.workload import WorkloadDriver
    from repro.core import MarkAndSweepCollector

    collector = MarkAndSweepCollector(db.engine, 1)
    driver = WorkloadDriver(db.engine, layout,
                            ExperimentConfig(workload=layout.config))
    driver.run(reorganizer=collector)
    assert collector.stats.garbage_collected == 10
    assert db.verify_integrity().ok
