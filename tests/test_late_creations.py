"""Objects created in a partition during its reorganization (footnote 6).

The paper assumes no creations in the partition being reorganized; its
footnote notes the algorithms stay correct without the assumption except
that late-created objects are simply not migrated.  A garbage-collecting
run additionally must not reclaim an object whose creator is still about
to link it — the TRT's creation table guards that.
"""

import pytest

from repro import CompactionPlan, Database, ReorgConfig, WorkloadConfig
from repro.core import IncrementalReorganizer, MarkAndSweepCollector
from repro.sim import Delay, Wait
from repro.storage import ObjectImage


@pytest.fixture
def db_layout():
    return Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=81))


def creator_process(db, layout, partition_id, link_after_ms):
    """Create an object in the partition mid-reorg, hold it in local
    memory, and only link it to a root later."""
    created = []

    def proc():
        txn = db.engine.txns.begin()
        root = layout.cluster_roots[partition_id][0]
        yield from txn.read(root)
        oid = yield from txn.create_object(
            partition_id, ObjectImage.new(1, payload=b"late-arrival"))
        created.append(oid)
        yield Delay(link_after_ms)
        yield from txn.insert_ref(root, oid)
        yield from txn.commit()
    return proc, created


def test_late_creation_survives_collecting_reorg(db_layout):
    db, layout = db_layout
    engine = db.engine
    reorg = IncrementalReorganizer(
        engine, 1, plan=CompactionPlan(),
        reorg_config=ReorgConfig(collect_garbage=True))
    proc, created = creator_process(db, layout, 1, link_after_ms=400.0)

    reorg_proc = db.sim.spawn(reorg.run(), name="reorg")

    def delayed_creator():
        yield Delay(50.0)  # start after the reorg is under way
        yield from proc()
    db.sim.spawn(delayed_creator(), name="creator")
    db.sim.run()

    stats = reorg_proc.result
    oid = created[0]
    # Not collected, still reachable, consistent database.
    assert db.store.exists(oid) or oid in stats.mapping
    assert db.verify_integrity().ok
    # The creation was noted while the TRT was live.
    assert stats.garbage_collected == 0


def test_late_creation_survives_mark_and_sweep(db_layout):
    db, layout = db_layout
    collector = MarkAndSweepCollector(db.engine, 1)
    proc, created = creator_process(db, layout, 1, link_after_ms=300.0)

    gc_proc = db.sim.spawn(collector.run(), name="gc")

    def delayed_creator():
        yield Delay(20.0)
        yield from proc()
    db.sim.spawn(delayed_creator(), name="creator")
    db.sim.run()

    assert db.store.exists(created[0])
    assert gc_proc.result.garbage_collected == 0
    assert db.verify_integrity().ok


def test_late_creation_simply_not_migrated(db_layout):
    """Non-collecting reorg: the late object stays at its original
    address (footnote 6: 'it will not migrate objects created after the
    reorganization process starts') — and nothing dangles."""
    db, layout = db_layout
    engine = db.engine
    reorg = IncrementalReorganizer(engine, 1, plan=CompactionPlan())
    proc, created = creator_process(db, layout, 1, link_after_ms=200.0)

    reorg_proc = db.sim.spawn(reorg.run(), name="reorg")

    def delayed_creator():
        yield Delay(50.0)
        yield from proc()
    db.sim.spawn(delayed_creator(), name="creator")
    db.sim.run()

    oid = created[0]
    if oid not in reorg_proc.result.mapping:
        assert db.store.exists(oid)
    assert db.verify_integrity().ok
